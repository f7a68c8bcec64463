"""Config-driven experiment runner.

``cqadsim run`` loads a parameter file and an experiment spec (both in the
flat key/value format), executes the simulation and analysis, and writes
deterministic artifacts: a raw results CSV, a fit JSON, a machine-readable
summary JSON, and plot-ready CSVs.  ``cqadsim compare`` checks a new summary
against a reference within per-metric tolerances.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 comparison
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, sequences
from .device import SystemParams, chi_analytic, load_params
from .dynamics import NoiseModel, vacuum_rabi_chevron
from .exceptions import CqadError, NumericError, ValidationError
from .hilbert import HilbertConfig, Ket, _truncation_guard, reduced_mode_matrix
from .keyval import load_keyval
from .sequences import StatePrep
from .swtheory import chi_numeric

__all__ = ["main", "run_experiment", "compare_summaries", "RunManifest"]


@dataclass(frozen=True)
class RunManifest:
    """Inputs of one ``cqadsim run``.  ``jobs`` accepts only 1 (sweeps run in
    one thread); it stays because ``benchmarks/worker.py`` passes ``jobs=1``.
    """

    params_path: str | None
    experiment_path: str
    out_dir: str
    jobs: int = 1
    seed: int = 0
    paper_defaults: bool = False

    def __post_init__(self):
        if self.jobs != 1:
            raise ValidationError(f"jobs must be 1 (sweeps run in one thread), got {self.jobs!r}")


# ---------------------------------------------------------------------------
# deterministic serialization


def _round_sig(x: float, digits: int = 12):
    if not isinstance(x, float) or not math.isfinite(x) or x == 0.0:
        return x
    return float(f"{x:.{digits - 1}e}")


def _rounded(obj):
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _round_sig(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(path: Path, obj):
    path.write_text(json.dumps(_rounded(obj), sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, header: list[str], rows, params_hash: str):
    lines = [f"# params_sha256={params_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _format_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return f"{_round_sig(float(v)):.12g}"
    return str(v)


# ---------------------------------------------------------------------------
# experiment spec loading


def _number(data: dict, key: str, default=None, cast=float):
    """Numeric spec value; a non-numeric one is a validation error naming the key.

    With ``cast=int`` the value must be integral: keyval parses every number
    as a float, so 3.0 is accepted and 2.5 is an error, not a truncation.
    """
    value = data.get(key, default)
    if isinstance(value, str):
        raise ValidationError(f"spec key {key!r} must be numeric, got {value!r}")
    if value is None:
        return None
    if cast is int and not float(value).is_integer():
        raise ValidationError(f"spec key {key!r} must be an integer, got {value!r}")
    return cast(value)


def _count(data: dict, key: str, default: int) -> int:
    """Integer spec value that must be at least 1."""
    n = _number(data, key, default, int)
    if n < 1:
        raise ValidationError(f"spec key {key!r} must be >= 1, got {n}")
    return n


def _positive(data: dict, key: str, default: float) -> float:
    """Numeric spec value that must be > 0."""
    value = _number(data, key, default)
    if not value > 0:
        raise ValidationError(f"spec key {key!r} must be > 0, got {value!r}")
    return value


# Longest time a spec may ask for, in s: about 12 lifetimes of the device's
# longest-lived excitation (the LG-00 phonon, T1 = 1/(2 pi kappa1) = 80 us), after
# which e^-12 of it is left to read.  probe_duration has its own limit: the
# spectroscopy sweep refuses a probe that needs more than 2^20 products.
_MAX_TIME = 1e-3


def _duration(data: dict, key: str, default: float | None) -> float:
    """Time spec value in (0, _MAX_TIME] seconds."""
    value = _positive(data, key, default)
    if value > _MAX_TIME:
        raise ValidationError(f"spec key {key!r} must be <= {_MAX_TIME:g} s (about 12 phonon "
                              f"lifetimes), got {value!r}")
    return value


class _ReadTracker(dict):
    """Sweep keys that remember which of them were read; ``key in d`` is not a read."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def _spec_from_keyval(data: dict) -> tuple[str, StatePrep, _ReadTracker]:
    if "kind" not in data:
        raise ValidationError("experiment file needs a 'kind' key")
    kind = str(data["kind"])
    if kind not in _RUNNERS:
        raise ValidationError(
            f"unknown experiment kind {kind!r}; expected one of {tuple(_RUNNERS)}")
    prep = StatePrep(
        target=str(data.get("prep_target", "vacuum")),
        m=_number(data, "prep_m", 0, int),
        beta=complex(_number(data, "prep_beta_re", 0.0), _number(data, "prep_beta_im", 0.0)),
        method=str(data.get("prep_method", "ideal_injection")),
    )
    reserved = {"kind", "prep_target", "prep_m", "prep_beta_re", "prep_beta_im", "prep_method"}
    sweep = _ReadTracker({k: v for k, v in data.items() if k not in reserved})
    return kind, prep, sweep


def _interaction_time(sweep: dict, params: SystemParams, delta: float, variant: str) -> float:
    """The spec's ``interaction_time``, or for "auto" the variant's default at ``delta``."""
    if sweep.get("interaction_time", "auto") != "auto":
        return _duration(sweep, "interaction_time", None)
    if variant == "ramsey":
        return sequences.default_ramsey_time(params, delta)
    return sequences.echo_offset_zero_time(params, delta)


def _resolve_detuning(params: SystemParams, value) -> float:
    if isinstance(value, str):
        return params.delta(value)
    return float(value)


def _noise_for(params: SystemParams, sweep: dict, delta: float) -> NoiseModel:
    mode = str(sweep.get("noise", "paper"))
    offset = _number(sweep, "static_qubit_offset", 0.0)
    if mode == "paper":
        return NoiseModel.from_params(params, delta, static_qubit_offset=offset)
    if mode == "none":
        return NoiseModel(static_qubit_offset=offset)
    raise ValidationError(f"unknown noise selection {mode!r}")


def _config_for(sweep: dict, default_dim: int = 10) -> HilbertConfig:
    dim = _number(sweep, "phonon_dim", default_dim, int)
    if _number(sweep, "include_lg10", 0, int):
        return HilbertConfig(2, (dim, _number(sweep, "lg10_dim", 4, int)))
    return HilbertConfig(2, (dim,))


# ---------------------------------------------------------------------------
# per-kind runners: each returns (summary, artifacts) where artifacts is a
# list of (filename, header, rows) CSV payloads plus optional fit JSON


def _run_spectroscopy(params, kind, prep, sweep, seed):
    delta = _resolve_detuning(params, sweep.get("detuning", "coherent"))
    noise = _noise_for(params, sweep, delta)
    n_peaks = _number(sweep, "n_peaks", 0, int)
    if n_peaks <= 0:
        if prep.target == "fock":
            n_peaks = prep.m + 2
        elif prep.target == "coherent":
            try:
                nbar = abs(prep.beta) ** 2
                n_peaks = int(math.ceil(nbar + 4.0 * math.sqrt(max(nbar, 0.25)))) + 1
            except OverflowError:
                raise ValidationError(
                    f"|beta| = {abs(prep.beta):.3g} ('prep_beta_re', 'prep_beta_im') is too "
                    f"large to count its spectral peaks") from None
        else:
            n_peaks = 2
    default_dim = max(10, n_peaks + 4)
    config = _config_for(sweep, default_dim)
    if prep.target == "coherent":
        # refuse a |beta| the mode cannot hold before a drive of that size runs
        _truncation_guard(config, 0, prep.beta)
    # prepared before the hints size a space from n_peaks, so a bad prep_m exits 2
    state = sequences.prepare_state(prep, params, config, noise)
    line0, spacing = sequences.spectroscopy_peak_hints(params, delta, n_peaks)
    step = _positive(sweep, "freq_step", 5e3)
    probe_duration = _positive(sweep, "probe_duration", 15e-6)
    if "freq_min" in sweep and "freq_max" in sweep:
        keys = "'freq_min'/'freq_max'"
        lo, hi = _number(sweep, "freq_min"), _number(sweep, "freq_max")
    else:
        keys, margin = "'window_margin'", _number(sweep, "window_margin", 50e3)
        lo, hi = line0 + (n_peaks - 1) * spacing - margin, line0 + margin
    grid = np.arange(lo, hi, step)
    if grid.size == 0:
        raise ValidationError(f"spec {keys} give an empty frequency grid [{lo:.6g}, {hi:.6g})")
    trace = sequences.qubit_spectroscopy(
        state, delta, None, grid, params, config, noise,
        probe_duration=probe_duration,
    )
    fit, pops = analysis.voigt_sum_fit(trace, n_peaks, spacing, center_hint=line0, seed=seed)
    summary = {
        "kind": "spectroscopy",
        "detuning_hz": delta,
        "n_peaks": n_peaks,
        "populations": [float(p) for p in pops],
        "chi_fit_hz": fit.parameters.get("spacing", float("nan")),
        "parity_spectroscopy": analysis.parity_from_populations(pops) if fit.converged else None,
        "converged": fit.converged,
    }
    fit_payload = {"voigt": _fit_dict(fit)}
    if fit.converged and pops.sum() > 0:
        pfit = analysis.poisson_fit(pops)
        summary["nbar"] = pfit.parameters["nbar"]
        summary["beta_fit"] = pfit.parameters["beta"]
        fit_payload["poisson"] = _fit_dict(pfit)
    rows = list(zip(trace.frequencies, trace.populations))
    return summary, [("spectrum.csv", ["frequency_hz", "population"], rows)], fit_payload


def _run_parity(params, kind, prep, sweep, seed):
    delta = _resolve_detuning(params, sweep.get("detuning", "ramsey"))
    noise = _noise_for(params, sweep, delta)
    config = _config_for(sweep, 8)
    state = sequences.prepare_state(prep, params, config, noise)
    variant = "ramsey" if kind == "ramsey_parity" else "echo"
    t = _interaction_time(sweep, params, delta, variant)
    n_phases = _count(sweep, "phases", 4)
    phases = tuple(2.0 * math.pi * k / n_phases for k in range(n_phases))
    res = sequences.four_phase_average(state, variant, params, config, noise, t, delta, phases)
    summary = {
        "kind": kind,
        "parity": res.value,
        "raw_sigma_z": res.raw_sigma_z,
        "interaction_time_s": t,
        "reference_contrast": res.reference_contrast,
        "detuning_hz": delta,
        "phases": list(phases),
    }
    rows = [(p, res.raw_sigma_z, res.value) for p in phases]
    return summary, [("parity.csv", ["theta_rad", "raw_sigma_z", "parity"], rows)], None


def _run_wigner(params, kind, prep, sweep, seed):
    delta = _resolve_detuning(params, sweep.get("detuning", "ramsey"))
    noise = _noise_for(params, sweep, delta)
    extent = _positive(sweep, "grid_extent", 2.0)
    scale = _positive(sweep, "calibration_scale", 1.0)
    npts = _count(sweep, "grid_points", 9)
    try:
        default_dim = max(10, int(4.0 * extent**2) + 4)
    except OverflowError:
        raise ValidationError(
            f"spec key 'grid_extent' = {extent:.3g} is too large for a phonon dim") from None
    config = _config_for(sweep, default_dim)
    state = sequences.prepare_state(prep, params, config, noise)
    axis = np.linspace(-extent, extent, npts)
    grid = axis[None, :] + 1j * axis[:, None]
    t = _interaction_time(sweep, params, delta, "echo")
    parities = sequences.wigner_scan(state, grid, params, config, noise, t, delta)
    wmap = analysis.wigner_assemble(grid, parities, calibration_scale=scale)
    i0 = np.unravel_index(np.argmin(np.abs(grid)), grid.shape)
    summary = {
        "kind": "wigner",
        "interaction_time_s": t,
        "w_origin": float(wmap.values[i0]),
        "w_min": float(wmap.values.min()),
        "w_max": float(wmap.values.max()),
        "grid_points": npts,
        "grid_extent": extent,
    }
    rows = [
        (b.real, b.imag, w)
        for b, w in zip(wmap.beta_grid.reshape(-1), wmap.values.reshape(-1))
    ]
    return summary, [("wigner.csv", ["beta_re", "beta_im", "w"], rows)], None


def _run_fock_prep_check(params, kind, prep, sweep, seed):
    delta = _resolve_detuning(params, sweep.get("detuning", "rest"))
    noise = _noise_for(params, sweep, delta)
    config = _config_for(sweep, 8)
    state = sequences.prepare_state(prep, params, config, noise)
    rho = state.to_density() if isinstance(state, Ket) else state
    pn = np.real(np.diag(reduced_mode_matrix(rho, 0)))
    summary = {
        "kind": "fock_prep_check",
        "m": prep.m,
        "populations": [float(p) for p in pn],
        "target_population": float(pn[prep.m]),
    }
    rows = list(enumerate(pn))
    return summary, [("populations.csv", ["n", "population"], rows)], None


def _run_coherence(params, kind, prep, sweep, seed):
    system = str(sweep.get("system", "phonon"))
    delta = params.delta("rest")
    noise = _noise_for(params, sweep, delta)
    config = _config_for(sweep, 6)
    proto = {
        ("t1", "qubit"): "qubit_t1",
        ("t1", "phonon"): "phonon_t1",
        ("t2_ramsey", "qubit"): "qubit_t2",
        ("t2_ramsey", "phonon"): "phonon_t2",
    }.get((kind, system))
    if proto is None:
        raise ValidationError(f"unsupported coherence combination {kind}/{system}")
    t_max = _duration(sweep, "delay_max", 300e-6 if system == "phonon" else 30e-6)
    n = _count(sweep, "delay_points", 31)
    delays = np.linspace(0.0, t_max, n)
    times, values, fit = sequences.coherence_protocols(
        proto, params, config, noise, delays, _number(sweep, "demod_freq"),
    )
    summary = {
        "kind": kind,
        "protocol": proto,
        "t_fit_s": fit.parameters.get("t_decay", float("nan")),
        "converged": fit.converged,
    }
    if "frequency" in fit.parameters:
        summary["fringe_frequency_hz"] = fit.parameters["frequency"]
    rows = list(zip(times, values))
    return summary, [("decay.csv", ["delay_s", "population"], rows)], {"decay": _fit_dict(fit)}


def _run_rabi_chevron(params, kind, prep, sweep, seed):
    noise = _noise_for(params, sweep, 0.0) if sweep.get("noise", "none") != "none" else \
        NoiseModel(static_qubit_offset=_number(sweep, "static_qubit_offset", 0.0))
    config = _config_for(sweep, 4)
    d_lo = _number(sweep, "detuning_min", -1.5e6)
    d_hi = _number(sweep, "detuning_max", 2.0e6)
    nd = _count(sweep, "detuning_points", 36)
    t_max = _duration(sweep, "time_max", 4e-6)
    nt = _count(sweep, "time_points", 81)
    deltas = np.linspace(d_lo, d_hi, nd)
    times = np.linspace(0.0, t_max, nt)
    pe = vacuum_rabi_chevron(params, config, noise, deltas, times)
    i0 = int(np.argmin(np.abs(deltas)))
    fit = analysis.decay_fit(times, pe[i0] - 0.5, "exponential_sine", seed=seed)
    summary = {
        "kind": "rabi_chevron",
        "resonant_oscillation_hz": fit.parameters.get("frequency", float("nan")),
        "resonant_contrast": float(pe[i0].max() - pe[i0].min()),
        "converged": fit.converged,
    }
    rows = [
        (deltas[i], times[j], pe[i, j])
        for i in range(nd)
        for j in range(nt)
    ]
    return summary, [("chevron.csv", ["detuning_hz", "time_s", "p_e"], rows)], {"resonant": _fit_dict(fit)}


def _run_chi_scan(params, kind, prep, sweep, seed):
    n_max = _count(sweep, "n_max", 4)
    config = HilbertConfig(2, (max(12, n_max + 6),))
    points = [p.strip() for p in str(sweep.get("points", "fock,coherent,ramsey,rest")).split(",")]
    rows = []
    summary = {"kind": "chi_scan", "n_max": n_max}
    for name in points:
        delta = params.delta(name)
        shifts = chi_numeric(params, config, delta, n_max)
        full = chi_analytic(params.g_lg00, delta, params.alpha, "full")
        approx = chi_analytic(params.g_lg00, delta, params.alpha, "approximate")
        summary[f"shift0_{name}_hz"] = shifts[0]
        summary[f"chi_full_{name}_hz"] = full
        for n, s in enumerate(shifts):
            rows.append((name, delta, n, s, full, approx))
    return summary, [(
        "chi.csv",
        ["point", "delta_hz", "n", "shift_numeric_hz", "chi_full_hz", "chi_approx_hz"],
        rows,
    )], None


def _run_offset_scan(params, kind, prep, sweep, seed):
    t0 = sequences.default_ramsey_time(params)
    times = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, _count(sweep, "time_points", 41))
    scan = sequences.interaction_time_offset_scan(
        params, HilbertConfig(2, (16,)), NoiseModel(), times=times,
        ring_radius=_positive(sweep, "ring_radius", 1.9),
    )
    summary = {
        "kind": "offset_scan",
        "oscillation_frequency_hz": scan.oscillation_frequency,
        "frequency_ratio_to_delta_prime": scan.frequency_ratio_to_delta_prime,
        "best_time_s": scan.best_time,
        "analytic_zero_s": scan.analytic_zero,
        "doubled_frequency_flag": scan.doubled_frequency_flag,
    }
    rows = list(zip(scan.times, scan.offsets))
    return summary, [("offset_scan.csv", ["time_s", "offset"], rows)], None


_RUNNERS = {
    "spectroscopy": _run_spectroscopy,
    "ramsey_parity": _run_parity,
    "echo_parity": _run_parity,
    "wigner": _run_wigner,
    "fock_prep_check": _run_fock_prep_check,
    "t1": _run_coherence,
    "t2_ramsey": _run_coherence,
    "rabi_chevron": _run_rabi_chevron,
    "chi_scan": _run_chi_scan,
    "offset_scan": _run_offset_scan,
}


def _fit_dict(fit) -> dict:
    return {
        "parameters": dict(fit.parameters),
        "uncertainties": dict(fit.uncertainties),
        "residual_norm": fit.residual_norm,
        "converged": fit.converged,
        "metadata": dict(fit.metadata),
    }


def run_experiment(manifest: RunManifest) -> dict:
    """Execute one experiment; returns the summary dict (also written to disk)."""
    out = Path(manifest.out_dir)
    params = load_params(manifest.params_path, paper_defaults=manifest.paper_defaults)
    if manifest.params_path:
        params_hash = hashlib.sha256(Path(manifest.params_path).read_bytes()).hexdigest()
    else:
        params_hash = hashlib.sha256(b"paper-defaults").hexdigest()
    data = load_keyval(manifest.experiment_path)
    kind, prep, sweep = _spec_from_keyval(data)

    written: list[Path] = []
    try:
        summary, csvs, fits = _RUNNERS[kind](params, kind, prep, sweep, manifest.seed)
        unread = sorted(set(sweep) - sweep.read)
        if unread:
            raise ValidationError(f"spec keys not read by kind {kind!r}: {', '.join(unread)}")
        summary["seed"] = manifest.seed
        summary["params_sha256"] = params_hash
        out.mkdir(parents=True, exist_ok=True)
        for name, header, rows in csvs:
            path = out / name
            _write_csv(path, header, rows, params_hash)
            written.append(path)
        if fits:
            path = out / "fit.json"
            _write_json(path, fits)
            written.append(path)
        path = out / "summary.json"
        _write_json(path, summary)
        written.append(path)
        return summary
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise


def compare_summaries(reference: dict, new: dict, tolerances: dict,
                      default_tolerance: float = 0.05) -> tuple[bool, list[str]]:
    """Per-metric relative comparison; returns (ok, report lines)."""
    if reference.get("kind") != new.get("kind"):
        raise ValidationError(
            f"experiment kinds differ: {reference.get('kind')!r} vs {new.get('kind')!r}"
        )
    report = []
    ok = True
    skip = {"kind", "seed", "params_sha256", "phases"}
    for key, ref_val in reference.items():
        if key in skip or not isinstance(ref_val, (int, float)) or isinstance(ref_val, bool):
            continue
        tol = float(tolerances.get(key, default_tolerance))
        if key not in new:
            ok = False
            report.append(f"FAIL {key}: missing metric in new summary")
            continue
        new_val = new[key]
        scale = max(abs(ref_val), 1e-30)
        rel = abs(new_val - ref_val) / scale
        status = "ok" if rel <= tol else "FAIL"
        if rel > tol:
            ok = False
        report.append(f"{status} {key}: ref={ref_val!r} new={new_val!r} rel={rel:.3e} tol={tol}")
    return ok, report


def _load_summary(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read summary {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"summary {path!r} is not a JSON object")
    return data


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cqadsim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment spec")
    runp.add_argument("--params", default=None, help="parameter key/value file")
    runp.add_argument("--experiment", required=True, help="experiment spec file")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--paper-defaults", action="store_true")
    runp.add_argument("--quiet", action="store_true")
    cmp = sub.add_parser("compare", help="compare two summary JSON files")
    cmp.add_argument("--reference", required=True)
    cmp.add_argument("--new", required=True)
    cmp.add_argument("--tolerance", action="append", default=[],
                     help="metric=relative_tolerance (repeatable)")
    cmp.add_argument("--default-tolerance", type=float, default=0.05)
    cmp.add_argument("--quiet", action="store_true")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            manifest = RunManifest(
                params_path=args.params,
                experiment_path=args.experiment,
                out_dir=args.out,
                seed=args.seed,
                paper_defaults=args.paper_defaults,
            )
            summary = run_experiment(manifest)
            if not args.quiet:
                print(json.dumps(_rounded(summary), sort_keys=True, indent=1))
            return 0
        if args.command == "compare":
            tolerances = {}
            for item in args.tolerance:
                key, _, val = item.partition("=")
                try:
                    tolerances[key.strip()] = float(val)
                except ValueError:
                    raise ValidationError(
                        f"bad --tolerance {item!r}; expected metric=value"
                    ) from None
            ref, new = _load_summary(args.reference), _load_summary(args.new)
            ok, report = compare_summaries(ref, new, tolerances, args.default_tolerance)
            if not args.quiet:
                for line in report:
                    print(line)
                print("PASS" if ok else "FAIL")
            return 0 if ok else 4
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CqadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
