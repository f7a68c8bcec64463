#!/usr/bin/env python3
"""cqadsim benchmark: time to a checked result, its CPU time, set-up time and
peak memory on one workload, or per-layer numbers from a traced run.

    python3 benchmarks/run.py --workload wigner --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50 --trace 0

Every sample is one fresh ``worker.py`` process, started one after another,
so each pays cold imports and empty caches as every ``cqadsim run`` does,
and the load is that one process: jobs=1, with the BLAS threads pinned.
Samples are taken until the next one would likely end after ``--seconds``
(always at least one), and set-up is sampled at least nine times.  With
``--trace 1`` each sample is a pair: an untraced run, then a traced run
whose spans give the per-layer numbers; the difference of their result
times is the tracing overhead.

Prints a table of every metric with its unit, median, tail percentile and
sample count, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every sample's
record is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("wigner", "spectroscopy", "offset_scan")
# One thread: spectroscopy is faster at one BLAS thread than at two on a
# 2-core machine, and wigner's run-to-run spread is smaller.
BLAS_THREADS = 1
MIN_SETUP_SAMPLES = 9
SAMPLE_TIMEOUT_S = 170
CHECKOUT_FILES = ("src/cqadsim/__init__.py", "presets/wigner_fock1.spec",
                  "presets/coherent_spectroscopy.spec")


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    # the same set and dict iteration order in every sample
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: list[str]) -> dict:
    """One worker process; returns its record, with ``setup_s`` measured from spawn."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=worker_env(), capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"worker timed out after {SAMPLE_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False,
                "errors": [f"worker exited with code {proc.returncode}: {proc.stderr[-2000:]}"]}
    record = json.loads(lines[-1])
    record["setup_s"] = record["setup_done"] - spawned
    record.setdefault("ok", True)
    return record


def sample_until(seconds: float, take) -> list:
    """Call ``take`` until the next call would likely end after ``seconds``; at least once."""
    start = time.monotonic()
    samples = []
    while True:
        t = time.monotonic()
        samples.append(take())
        if time.monotonic() - start + (time.monotonic() - t) > seconds:
            return samples


def tail(values: list[float]):
    """Highest nearest-rank percentile with at least ten samples above it, as (pct, value)."""
    n = len(values)
    if n <= 10:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def bench(workload: str, args, spec: dict) -> dict:
    """Samples one workload; returns the run record with its metrics and report lines."""
    base = ["--workload", workload, "--seed", str(args.seed), "--size", args.size]
    if args.trace:
        pairs = sample_until(args.seconds, lambda: (run_worker(base + ["--trace", "0"]),
                                                    run_worker(base + ["--trace", "1"])))
        samples = [s for pair in pairs for s in pair]
    else:
        samples = sample_until(args.seconds, lambda: run_worker(base + ["--trace", "0"]))
        while sum("setup_s" in s for s in samples) < MIN_SETUP_SAMPLES:
            samples.append(run_worker(base + ["--setup-only"]))
            if not samples[-1]["ok"]:
                break
    # A sample that ran to the end is timed even if its checks failed; a set-up
    # probe counts as an operation only if it crashed.
    full = [s for s in samples if "result_s" in s]
    attempted = sum("result_s" in s or not s["ok"] for s in samples)
    failed = sum(not s["ok"] for s in samples)
    values: dict[str, list[float]] = {}
    if args.trace:
        untraced = [s["result_s"] for s in full if "layers" not in s]
        traced = [s for s in full if "layers" in s]
        if untraced and traced:
            for m in spec["per_layer"]:
                values[m["name"]] = [s["layers"].get(m["name"], 0) for s in traced]
            values["trace_overhead_s"] = [
                statistics.median(s["result_s"] for s in traced) - statistics.median(untraced)
            ]
        metric_specs = spec["per_layer"]
    else:
        if full:
            values = {"setup_s": [s["setup_s"] for s in samples if "setup_s" in s]}
            for name in ("result_s", "cpu_s", "peak_rss_mb"):
                values[name] = [s[name] for s in full]
        metric_specs = spec["end_to_end"]
    metrics = {
        m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
        for m in metric_specs if m["name"] in values
    }

    prov = full[0]["provenance"] if full else {}
    commit = git_commit()
    lines = [
        f"workload {workload}  size {args.size}  seed {args.seed}  seconds {args.seconds}  "
        f"trace {args.trace}",
        f"  commit {commit}  nproc {prov.get('nproc')}  blas {prov.get('blas')} "
        f"{prov.get('blas_version')} threads {prov.get('blas_threads')}  numpy "
        f"{prov.get('numpy')}  scipy {prov.get('scipy')}  python {prov.get('python')}",
        f"  inputs {json.dumps(full[0]['size']) if full else '-'}",
        f"  {'metric':<28}{'unit':<8}{'median':>14}{'tail':>22}{'n':>5}",
    ]
    for m in metric_specs:
        vs = values.get(m["name"], [])
        t = tail(vs)
        tail_text = f"p{t[0]} {t[1]:.6g}" if t else "-"
        median = f"{statistics.median(vs):.6g}" if vs else "-"
        lines.append(f"  {m['name']:<28}{m['unit']:<8}{median:>14}{tail_text:>22}{len(vs):>5}")
    lines.append(f"  {'fail_rate':<28}{'ratio':<8}{failed / attempted:>14.6g}{'-':>22}"
                 f"{attempted:>5}")
    for s in samples:
        for error in s.get("errors", []):
            lines.append(f"  FAILED: {error}")
    record = {
        "workload": workload, "size": args.size, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
        "metrics": metrics, "samples": samples,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    lines.append(f"  record {path.relative_to(ROOT)}")
    record["lines"] = lines
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every path in about a second (for the self-test)")
    args = ap.parse_args(argv)

    missing = [f for f in CHECKOUT_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"error: {ROOT} is not a cqadsim checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = bench(workload, args, spec)
        print("\n".join(record["lines"]), flush=True)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if all(r["metrics"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
