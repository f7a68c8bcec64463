"""Self-test of the benchmark, on every workload at the tiny size.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# layers whose self times partition the traced result phase
PARTITION = ["kernel", "dynamics", "hilbert", "swtheory", "sequences", "analysis", "device",
             "cli", "harness"]


def bench(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--seed", "2", "--seconds", "1",
         *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def table_row(lines, name):
    rows = [line.split() for line in lines if line.split()[:1] == [name]]
    assert len(rows) == 1, f"{name} is not printed once"
    return rows[0]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc, lines, result = bench("--workload", workload, "--size", "tiny", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in [*expected.items(), ("fail_rate", "ratio")]:
        row = table_row(lines, name)
        assert row[1] == unit and int(row[-1]) >= 1
    assert float(table_row(lines, "fail_rate")[2]) == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers(workload):
    proc, lines, result = bench("--workload", workload, "--size", "tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"], lines
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert table_row(lines, name)[1] == unit
    record = json.loads((ROOT / ".bench_out" / f"{workload}-tiny-seed2-trace1.json").read_text())
    traced = [s for s in record["samples"] if "layers" in s]
    assert traced
    for sample in traced:
        total = sum(sample["layers"].get(f"{layer}.self_s", 0.0) for layer in PARTITION)
        assert total == pytest.approx(sample["result_s"], rel=0.03)
        assert (ROOT / sample["spans_file"]).is_file()


def test_traced_counts_repeat():
    counts = ["kernel.expm.calls", "kernel.expm.n3", "dynamics.segments",
              "dynamics.propagator_builds", "hilbert.calls"]
    first, second = (bench("--workload", "offset_scan", "--size", "tiny", "--trace", "1")[2]
                     for _ in range(2))
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def _copy_benchmark(dest: Path):
    shutil.copytree(HERE, dest / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)


def test_perturbed_reference_fails_every_sample(tmp_path):
    _copy_benchmark(tmp_path)
    for name in ("src", "presets"):
        (tmp_path / name).symlink_to(ROOT / name)
    ref = tmp_path / "benchmarks" / "reference" / "offset_scan-tiny.json"
    data = json.loads(ref.read_text())
    data["oscillation_frequency_hz"] *= 1.01
    ref.write_text(json.dumps(data))
    proc, lines, result = bench("--workload", "offset_scan", "--size", "tiny", root=tmp_path)
    assert result is not None, proc.stderr
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert float(table_row(lines, "fail_rate")[2]) == 1.0


def test_refuses_a_directory_without_the_program(tmp_path):
    _copy_benchmark(tmp_path)
    proc, lines, result = bench("--workload", "offset_scan", root=tmp_path)
    assert proc.returncode != 0
    assert result is None
