"""One benchmark sample, in a fresh process.

Imports cqadsim from the checkout's ``src``, builds one workload's inputs,
runs it once, checks the outputs and prints one JSON line: when set-up
ended, the result-phase wall and CPU time, the peak resident memory, the
check failures and, with ``--trace 1``, the per-layer numbers derived from
spans.  ``run.py`` starts one worker per sample, so every sample pays cold
imports and empty program caches, as every ``cqadsim run`` does.

    python3 benchmarks/worker.py --workload offset_scan --seed 0 --size tiny
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "reference"
OUT = ROOT / ".bench_out"

# Knobs per workload and size.  "full" is the size the benchmark measures;
# "tiny" keeps every code path and check and runs in about a second, for
# the self-test.
SIZES = {
    "wigner": {
        "full": {},
        "tiny": {"phonon_dim": 8, "grid_points": 3, "grid_extent": 0.8},
    },
    "spectroscopy": {
        # The preset's 4 kHz step takes about 45 s at one BLAS thread; 20 kHz
        # still puts several points on every peak, and the fitted populations
        # agree with the 4 kHz fit within 1.3e-3 (absolute) for every fit seed.
        "full": {"freq_step": 20e3},
        "tiny": {"freq_step": 10e3, "phonon_dim": 6},
    },
    "offset_scan": {
        "full": {"phonon_dim": 16, "n_ring": 8, "n_times": 41},
        "tiny": {"phonon_dim": 16, "n_ring": 2, "n_times": 13},
    },
}

# Relative tolerances for cli.compare_summaries against the stored reference.
# The voigt fit determines the shared peak spacing only loosely (the per-peak
# deviations absorb it): it moves by up to 7% with the fit seed.  Other local
# minima of the fit move the populations by up to 3e-3 at the tiny size and
# by 1e-4 at the full size.  The offset-minimising time is a grid point, so
# it may move by one grid step.
TOLERANCES = {
    "wigner": ({}, 1e-5),
    "spectroscopy": ({"chi_fit_hz": 0.15}, 1e-2),
    "offset_scan": ({"best_time_s": 0.005}, 1e-5),
}


def setup_wigner(knobs, seed, out):
    from cqadsim import cli, keyval

    spec = ROOT / "presets" / "wigner_fock1.spec"
    data = keyval.load_keyval(spec)
    if knobs:
        data.update(knobs)
        out.mkdir(parents=True, exist_ok=True)
        spec = out / "wigner.spec"
        spec.write_text("".join(f"{k} = {v}\n" for k, v in data.items()))
    manifest = cli.RunManifest(params_path=None, experiment_path=str(spec),
                               out_dir=str(out / "wigner"), jobs=1, seed=seed)
    n = int(data["grid_points"])

    def run():
        summary = cli.run_experiment(manifest)
        errors = []
        if not summary["w_origin"] < 0:
            errors.append(f"W(0) = {summary['w_origin']} is not negative")
        rows = (out / "wigner" / "wigner.csv").read_text().splitlines()[2:]
        if len(rows) != n * n:
            errors.append(f"wigner.csv has {len(rows)} grid points, expected {n * n}")
        return summary, errors

    size = {"spec": spec.name, "phonon_dim": int(data["phonon_dim"]), "grid": f"{n}x{n}",
            "grid_extent": data["grid_extent"], "noise": data["noise"]}
    return run, size


def setup_spectroscopy(knobs, seed, out):
    import numpy as np

    from cqadsim import analysis, keyval, sequences
    from cqadsim.device import paper_default_params
    from cqadsim.dynamics import NoiseModel
    from cqadsim.hilbert import HilbertConfig
    from cqadsim.sequences import StatePrep

    data = keyval.load_keyval(ROOT / "presets" / "coherent_spectroscopy.spec")
    data.update(knobs)
    params = paper_default_params()
    delta = params.delta(data["detuning"])
    noise = NoiseModel.from_params(params, delta)
    prep = StatePrep(target=data["prep_target"], beta=complex(data["prep_beta_re"], 0.0),
                     method=data["prep_method"])
    # peak count as cli._run_spectroscopy derives it for a coherent state
    nbar = abs(prep.beta) ** 2
    n_peaks = int(math.ceil(nbar + 4.0 * math.sqrt(max(nbar, 0.25)))) + 1
    config = HilbertConfig(2, (int(data["phonon_dim"]),))
    step = float(data["freq_step"])
    probe = float(data["probe_duration"])

    # the calls cli._run_spectroscopy makes, in its order; `cqadsim run` itself
    # cannot be used because it fails to serialize the summary of this spec
    def run():
        line0, spacing = sequences.spectroscopy_peak_hints(params, delta, n_peaks)
        grid = np.arange(line0 + (n_peaks - 1) * spacing - 50e3, line0 + 50e3, step)
        state = sequences.prepare_state(prep, params, config, noise)
        trace = sequences.qubit_spectroscopy(state, delta, None, grid, params, config, noise,
                                             probe_duration=probe, jobs=1)
        fit, pops = analysis.voigt_sum_fit(trace, n_peaks, spacing, center_hint=line0, seed=seed)
        summary = {
            "kind": "spectroscopy",
            "n_points": int(grid.size),
            "chi_fit_hz": fit.parameters.get("spacing", math.nan),
            "converged": bool(fit.converged),
        }
        summary.update({f"population_{k}": float(p) for k, p in enumerate(pops)})
        errors = []
        peaks = line0 + spacing * np.arange(n_peaks)
        if peaks.min() < grid[0] or peaks.max() > grid[-1]:
            errors.append(f"grid [{grid[0]}, {grid[-1]}] misses a peak of {peaks.tolist()}")
        if not fit.converged:
            errors.append("voigt fit did not converge")
        else:
            summary["parity_spectroscopy"] = analysis.parity_from_populations(pops)
            pfit = analysis.poisson_fit(pops)
            summary["nbar"] = pfit.parameters["nbar"]
            summary["beta_fit"] = pfit.parameters["beta"]
        if abs(float(np.sum(pops)) - 1.0) > 1e-9:
            errors.append(f"populations sum to {float(np.sum(pops))}")
        return summary, errors

    size = {"phonon_dim": config.phonon_dims[0], "superoperator": config.dim**2,
            "freq_step_hz": step, "n_peaks": n_peaks, "probe_duration_s": probe,
            "phase_cycles": 2, "noise": "paper"}
    return run, size


def setup_offset_scan(knobs, seed, out):
    import numpy as np

    from cqadsim import sequences
    from cqadsim.device import paper_default_params
    from cqadsim.dynamics import NoiseModel
    from cqadsim.hilbert import HilbertConfig

    params = paper_default_params()
    config = HilbertConfig(2, (knobs["phonon_dim"],))
    n_times, n_ring = knobs["n_times"], knobs["n_ring"]

    def run():
        # the default time grid of interaction_time_offset_scan, at n_times points
        delta = params.delta("ramsey")
        t0 = sequences.default_ramsey_time(params, delta)
        times = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, n_times)
        scan = sequences.interaction_time_offset_scan(
            params, config, NoiseModel(), times=times, ring_radius=1.9, n_ring=n_ring,
        )
        summary = {
            "kind": "offset_scan",
            "oscillation_frequency_hz": scan.oscillation_frequency,
            "frequency_ratio_to_delta_prime": scan.frequency_ratio_to_delta_prime,
            "best_time_s": scan.best_time,
            "analytic_zero_s": scan.analytic_zero,
            "offset_min": float(scan.offsets.min()),
            "offset_max": float(scan.offsets.max()),
            "doubled_frequency_flag": scan.doubled_frequency_flag,
        }
        errors = []
        if scan.doubled_frequency_flag:
            errors.append("oscillation frequency looks doubled")
        # simulations track |Delta'|; 0.25 is the band the program uses to flag doubling
        if abs(scan.frequency_ratio_to_delta_prime - 1.0) >= 0.25:
            errors.append(f"frequency ratio to |Delta'| is {scan.frequency_ratio_to_delta_prime}")
        return summary, errors

    size = {"phonon_dim": knobs["phonon_dim"], "times": n_times, "ring_points": n_ring,
            "phases": 4, "noise": "none"}
    return run, size


WORKLOADS = {
    "wigner": setup_wigner,
    "spectroscopy": setup_spectroscopy,
    "offset_scan": setup_offset_scan,
}


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once the inputs are built (a set-up time sample)")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this sample's summary as the reference")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cqadsim
    from cqadsim import cli

    if Path(cqadsim.__file__).resolve().parent != (src / "cqadsim").resolve():
        print(f"error: cqadsim was imported from {cqadsim.__file__}, not {src}", file=sys.stderr)
        return 2
    out = OUT / f"{args.workload}-{args.size}"
    run, size = WORKLOADS[args.workload](SIZES[args.workload][args.size], args.seed, out)
    ref_path = REFERENCES / f"{args.workload}-{args.size}.json"
    reference = None if args.write_reference else json.loads(ref_path.read_text())
    tolerances, default_tolerance = TOLERANCES[args.workload]

    def checked_run():
        summary, errors = run()
        if reference is not None:
            _, report = cli.compare_summaries(reference, summary, tolerances, default_tolerance)
            errors += [line for line in report if not line.startswith("ok ")]
        return summary, errors

    setup_done = time.monotonic()
    record = {"setup_done": setup_done, "size": size}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        if tracer:
            summary, errors = tracer.call(tracing.HARNESS, "result", checked_run, (), {})
        else:
            summary, errors = checked_run()
    except Exception:
        errors = [traceback.format_exc()]
    t1 = time.perf_counter()
    cpu1 = time.process_time()
    record.update(
        ok=not errors,
        errors=errors,
        result_s=t1 - t0,
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        provenance=provenance(),
    )
    if tracer:
        record["layers"] = tracer.layer_metrics()
        spans = OUT / "spans" / f"{args.workload}-{args.size}-seed{args.seed}-{tracer.run_id}.json"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
    if args.write_reference and not errors:
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
