"""Config-driven experiment runner.

``cqadsim run`` loads a parameter file and an experiment spec (both in the
flat key/value format), executes the simulation and analysis, and writes
deterministic artifacts: a raw results CSV, a fit JSON, a machine-readable
summary JSON, and plot-ready CSVs.  ``cqadsim compare`` checks a new summary
against a reference within per-metric tolerances.

The registry ``_KINDS`` maps each experiment kind to its runner and to the
table of every spec key that runner reads, with the key's default and rule
(``_Key``).  ``_spec_from_keyval`` checks a spec against the table before any
work: a value outside its rule or a key the kind does not read exits 2 and
writes nothing.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 comparison
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, sequences
from .device import _POINT_NAMES, SystemParams, chi_analytic, load_params
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
    one thread), and ``seed`` is unused (every fit takes one deterministic
    start); both stay only because ``benchmarks/worker.py`` passes them.
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


class _Key(NamedTuple):
    """One spec key of a kind: its default and the rule its value must meet.

    ``rule`` is "number", "whole number" or "word".
    A number lies in [lo, hi], or in (lo, hi] when ``lo_open``.  A word is one
    of ``words``, or with ``listed`` a comma list of them; a number rule may
    take words too ("auto", an operating point).  A whole number reaches the
    runner as an int.  A default of None means the runner derives the value.
    """

    default: object
    rule: str = "number"
    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    words: tuple = ()
    listed: bool = False

    def admits(self, value) -> bool:
        if isinstance(value, str):
            items = value.split(",") if self.listed else [value]
            return all(item.strip() in self.words for item in items)
        return (self.rule != "word" and math.isfinite(value) and value <= self.hi
                and (self.lo < value if self.lo_open else self.lo <= value)
                and (self.rule == "number" or float(value).is_integer()))

    def __str__(self):
        text = [] if self.rule == "word" else [
            f"a {self.rule} in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}]"]
        words = ("a comma list of " if self.listed else "") + "/".join(self.words)
        return " or ".join(text + [words] if self.words else text)


# Bounds that many keys share, each with its reason.
# Longest time a spec may ask for, in s: about 12 lifetimes of the device's
# longest-lived excitation (the LG-00 phonon, T1 = 1/(2 pi kappa1) = 80 us), after
# which e^-12 of it is left to read.  probe_duration has its own limit: the
# spectroscopy sweep refuses a probe that needs more than 2^20 products (exit 3).
_MAX_TIME = 1e-3
# Largest |frequency| in Hz (detunings, probe frequencies, offsets): the acoustic
# free spectral range, beyond which an omitted longitudinal mode is nearer than LG-00.
_MAX_FREQ = 12e6
# Most points on one sweep axis: the paper's sweeps have at most a few hundred.
_MAX_POINTS = 10_000
# Most Fock levels in one mode: 60 hold |beta| = 3.9 under the truncation guard
# (dim >= 4|beta|^2), beyond the paper's largest displacement, |beta| = 2.1 at the
# corner of the Wigner grid.  chi_scan and the spectroscopy peak hints diagonalise
# n + 6 levels for n shifts or peaks.
_MAX_DIM = 60
# Fewest points on an axis that analysis.decay_fit fits (T1, T2, the resonant
# chevron trace): it refuses fewer than 8, so the spec is refused before the sweep.
_FIT_POINTS = 8


_whole = partial(_Key, rule="whole number", lo=1, hi=_MAX_POINTS)  # by default a count
_time = partial(_Key, lo=0.0, hi=_MAX_TIME, lo_open=True)
_freq = partial(_Key, lo=-_MAX_FREQ, hi=_MAX_FREQ)


_NOISE = {"noise": _Key("paper", "word", words=("paper", "none")),
          "static_qubit_offset": _freq(0.0)}
_CONFIG = {"phonon_dim": _whole(None, lo=2, hi=_MAX_DIM),  # None: the kind's own default
           "include_lg10": _whole(0, lo=0, hi=1),
           "lg10_dim": _whole(None, lo=2, hi=_MAX_DIM)}  # None: 4 levels with include_lg10 = 1
# M and |beta| have no upper bound here: where the state is prepared,
# _fock_preparation and _truncation_guard refuse what the phonon dim cannot hold.
_STATE = {
    "prep_target": _Key("vacuum", "word", words=tuple(sequences._PREP_METHODS)),
    "prep_m": _whole(0, lo=0, hi=math.inf),
    "prep_beta_re": _Key(0.0),
    "prep_beta_im": _Key(0.0),
    "prep_method": _Key("ideal_injection", "word", words=tuple(dict.fromkeys(
        m for methods in sequences._PREP_METHODS.values() for m in methods))),
    **_NOISE, **_CONFIG,
}
# The prep keys each target reads; any other prep key must keep its default of 0.
_PREP_KEYS = {"fock": ("prep_m",), "coherent": ("prep_beta_re", "prep_beta_im")}
_KINDS = {}  # kind -> (runner, key table)


def _kind(*kinds, **table):
    """Registers the decorated runner for ``kinds`` with the key table ``table``."""
    def register(runner):
        _KINDS.update((kind, (runner, table)) for kind in kinds)
        return runner
    return register


def _spec_from_keyval(data: dict) -> tuple[str, dict]:
    """The spec's kind, and every key of the kind's table: checked, defaults filled in.

    Values are checked before unknown keys are refused, so a bad value is
    named even in a spec that also holds another kind's key.
    """
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"spec key 'kind' must be one of {tuple(_KINDS)}, got {kind!r}")
    table = _KINDS[kind][1]
    spec = {key: rule.default for key, rule in table.items()}
    for key, value in data.items():
        if key in table:
            if not table[key].admits(value):
                raise ValidationError(f"spec key {key!r} must be {table[key]}, got {value!r}")
            spec[key] = int(value) if table[key].rule == "whole number" else value
    unread = sorted(set(data) - set(table) - {"kind"})
    if unread:
        raise ValidationError(f"spec keys not read by kind {kind!r}: {', '.join(unread)}")
    return kind, spec


def _interaction_time(spec: dict, params: SystemParams, delta: float, variant: str) -> float:
    """The spec's ``interaction_time``, or for "auto" the variant's default at ``delta``."""
    if spec["interaction_time"] != "auto":
        return spec["interaction_time"]
    if variant == "ramsey":
        return sequences.default_ramsey_time(params, delta)
    return sequences.echo_offset_zero_time(params, delta)


def _noise_for(params: SystemParams, spec: dict, delta: float) -> NoiseModel:
    offset = spec["static_qubit_offset"]
    if spec["noise"] == "paper":
        return NoiseModel.from_params(params, delta, static_qubit_offset=offset)
    return NoiseModel(static_qubit_offset=offset)


def _config_for(spec: dict, default_dim: int) -> HilbertConfig:
    if spec["lg10_dim"] is not None and not spec["include_lg10"]:
        raise ValidationError("spec key 'lg10_dim' needs include_lg10 = 1")
    lg10 = (spec["lg10_dim"] or 4,) if spec["include_lg10"] else ()
    return HilbertConfig(2, (spec["phonon_dim"] or default_dim, *lg10))


def _prepared(params: SystemParams, spec: dict, default_dim: int):
    """The spec's detuning, noise and Hilbert space, and the state it prepares in them.

    ``StatePrep`` refuses a target/method pair it cannot make, and a coherent
    |beta| the mode cannot hold is refused before a drive of that size runs.  A
    nonzero prep key that the target does not read is refused too.
    """
    prep = StatePrep(spec["prep_target"], spec["prep_m"],
                     complex(spec["prep_beta_re"], spec["prep_beta_im"]), spec["prep_method"])
    detuning = spec["detuning"]
    delta = params.delta(detuning) if isinstance(detuning, str) else float(detuning)
    noise = _noise_for(params, spec, delta)
    config = _config_for(spec, default_dim)
    if prep.target == "coherent":
        _truncation_guard(config, 0, prep.beta)
    state = sequences.prepare_state(prep, params, config, noise)
    # after the |beta| check and the M check of prepare_state, which name the graver fault
    unused = [key for key in ("prep_m", "prep_beta_re", "prep_beta_im")
              if spec[key] and key not in _PREP_KEYS.get(prep.target, ())]
    if unused:
        raise ValidationError(f"spec keys {', '.join(unused)} have no use with prep_target = "
                              f"{prep.target!r}")
    return delta, noise, config, state


# ---------------------------------------------------------------------------
# per-kind runners, each registered with the table of every key it reads.  Each
# returns (summary, artifacts) where artifacts is a list of (filename, header,
# rows) CSV payloads plus optional fit JSON


@_kind("spectroscopy", **_STATE,
       detuning=_freq("coherent", words=_POINT_NAMES),
       n_peaks=_whole(0, lo=0, hi=_MAX_DIM - 6),  # 0: from the prepared state
       freq_step=_Key(5e3, lo=0.0, hi=_MAX_FREQ, lo_open=True),
       probe_duration=_Key(15e-6, lo=0.0, lo_open=True),
       freq_min=_freq(None),
       freq_max=_freq(None),
       window_margin=_Key(None, lo=0.0, hi=_MAX_FREQ))  # None: 50 kHz
def _run_spectroscopy(params, kind, spec):
    lo, hi, margin = spec["freq_min"], spec["freq_max"], spec["window_margin"]
    if (lo is None) != (hi is None) or (lo is not None and margin is not None):
        raise ValidationError("spec sets the frequency window by 'freq_min' and 'freq_max' "
                              "together or by 'window_margin', not by a mix")
    n_peaks, beta = spec["n_peaks"], abs(complex(spec["prep_beta_re"], spec["prep_beta_im"]))
    if n_peaks == 0:
        if spec["prep_target"] == "fock":
            n_peaks = spec["prep_m"] + 2
        elif spec["prep_target"] == "coherent":
            try:
                nbar = beta ** 2
                n_peaks = int(math.ceil(nbar + 4.0 * math.sqrt(max(nbar, 0.25)))) + 1
            except OverflowError:
                raise ValidationError(f"|beta| = {beta:.3g} ('prep_beta_re', 'prep_beta_im') is "
                                      f"too large to count its spectral peaks") from None
        else:
            n_peaks = 2
    # prepared before the hints size a space from n_peaks, so a bad prep_m exits 2
    delta, noise, config, state = _prepared(params, spec, max(10, n_peaks + 4))
    line0, spacing = sequences.spectroscopy_peak_hints(params, delta, n_peaks)
    if lo is None:
        margin = 50e3 if margin is None else margin
        lo, hi = line0 + (n_peaks - 1) * spacing - margin, line0 + margin
    n_points = math.ceil((hi - lo) / spec["freq_step"])  # np.arange's length
    if not 0 < n_points <= _MAX_POINTS:
        raise ValidationError(f"spec keys freq_min, freq_max, window_margin and freq_step give "
                              f"{max(n_points, 0)} points in [{lo:.6g}, {hi:.6g}), not 1 to "
                              f"{_MAX_POINTS}")
    grid = np.arange(lo, hi, spec["freq_step"])
    trace = sequences.qubit_spectroscopy(
        state, delta, None, grid, params, config, noise,
        probe_duration=spec["probe_duration"],
    )
    fit, pops = analysis.voigt_sum_fit(trace, n_peaks, spacing, center_hint=line0)
    summary = {
        "kind": "spectroscopy",
        "detuning_hz": delta,
        "n_peaks": n_peaks,
        "populations": [float(p) for p in pops],
        "chi_fit_hz": fit.parameters.get("spacing", float("nan")),
        "parity_spectroscopy": analysis.parity_from_populations(pops) if fit.converged else None,
        "converged": fit.converged,
    }
    fit_payload = {"voigt": asdict(fit)}
    if fit.converged and pops.sum() > 0:
        pfit = analysis.poisson_fit(pops)
        summary["nbar"] = pfit.parameters["nbar"]
        summary["beta_fit"] = pfit.parameters["beta"]
        fit_payload["poisson"] = asdict(pfit)
    rows = list(zip(trace.frequencies, trace.populations))
    return summary, [("spectrum.csv", ["frequency_hz", "population"], rows)], fit_payload


@_kind("ramsey_parity", "echo_parity", **_STATE,
       detuning=_freq("ramsey", words=_POINT_NAMES),
       interaction_time=_time("auto", words=("auto",)),
       phases=_whole(4))
def _run_parity(params, kind, spec):
    delta, noise, config, state = _prepared(params, spec, 8)
    variant = "ramsey" if kind == "ramsey_parity" else "echo"
    t = _interaction_time(spec, params, delta, variant)
    n_phases = spec["phases"]
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


@_kind("wigner", **_STATE,
       detuning=_freq("ramsey", words=_POINT_NAMES),
       interaction_time=_time("auto", words=("auto",)),
       # the grid corner |beta| = sqrt(2) extent needs phonon dim >= 8 extent^2
       grid_extent=_Key(2.0, lo=0.0, hi=math.sqrt(_MAX_DIM / 8), lo_open=True),
       # prepared per requested |beta|, about 0.9 on this device: tenfold is no calibration
       calibration_scale=_Key(1.0, lo=0.0, hi=10.0, lo_open=True),
       grid_points=_whole(9))
def _run_wigner(params, kind, spec):
    extent, npts = spec["grid_extent"], spec["grid_points"]
    # by default the smallest dim the truncation guard admits at the grid corner
    # |beta| = sqrt(2) extent, where 4|beta|^2 = 8 extent^2 (60 at the largest extent)
    default_dim = max(10, math.ceil(8.0 * extent * extent))
    delta, noise, config, state = _prepared(params, spec, default_dim)
    axis = np.linspace(-extent, extent, npts)
    grid = axis[None, :] + 1j * axis[:, None]
    t = _interaction_time(spec, params, delta, "echo")
    parities = sequences.wigner_scan(state, grid, params, config, noise, t, delta)
    wmap = analysis.wigner_assemble(grid, parities, calibration_scale=spec["calibration_scale"])
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


@_kind("fock_prep_check", **_STATE, detuning=_freq("rest", words=_POINT_NAMES))
def _run_fock_prep_check(params, kind, spec):
    state = _prepared(params, spec, 8)[3]
    rho = state.to_density() if isinstance(state, Ket) else state
    pn = np.real(np.diag(reduced_mode_matrix(rho, 0)))
    summary = {
        "kind": "fock_prep_check",
        "m": spec["prep_m"],
        "populations": [float(p) for p in pn],
        "target_population": float(pn[spec["prep_m"]]),
    }
    rows = list(enumerate(pn))
    return summary, [("populations.csv", ["n", "population"], rows)], None


@_kind("t1", "t2_ramsey", **_NOISE, **_CONFIG,
       system=_Key("phonon", "word", words=("phonon", "qubit")),
       delay_max=_time(None),  # None: 300 us for the phonon, 30 us for the qubit
       delay_points=_whole(31, lo=_FIT_POINTS),
       demod_freq=_freq(None))  # None: the protocol's own
def _run_coherence(params, kind, spec):
    system = spec["system"]
    noise = _noise_for(params, spec, params.delta("rest"))
    config = _config_for(spec, 6)
    proto = f"{system}_{'t1' if kind == 't1' else 't2'}"
    t_max = spec["delay_max"] or (300e-6 if system == "phonon" else 30e-6)
    delays = np.linspace(0.0, t_max, spec["delay_points"])
    times, values, fit = sequences.coherence_protocols(
        proto, params, config, noise, delays, spec["demod_freq"],
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
    return summary, [("decay.csv", ["delay_s", "population"], rows)], {"decay": asdict(fit)}


@_kind("rabi_chevron", **{**_NOISE, "noise": _NOISE["noise"]._replace(default="none")}, **_CONFIG,
       detuning_min=_freq(-1.5e6),
       detuning_max=_freq(2.0e6),
       detuning_points=_whole(36),
       time_max=_time(4e-6),
       time_points=_whole(81, lo=_FIT_POINTS))
def _run_rabi_chevron(params, kind, spec):
    noise = _noise_for(params, spec, 0.0)
    config = _config_for(spec, 4)
    nd, nt = spec["detuning_points"], spec["time_points"]
    deltas = np.linspace(spec["detuning_min"], spec["detuning_max"], nd)
    times = np.linspace(0.0, spec["time_max"], nt)
    pe = vacuum_rabi_chevron(params, config, noise, deltas, times)
    i0 = int(np.argmin(np.abs(deltas)))
    fit = analysis.decay_fit(times, pe[i0] - 0.5, "exponential_sine")
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
    return summary, [("chevron.csv", ["detuning_hz", "time_s", "p_e"], rows)], {"resonant": asdict(fit)}


@_kind("chi_scan", n_max=_whole(4, hi=_MAX_DIM - 6),
       points=_Key("fock,coherent,ramsey,rest", "word", words=_POINT_NAMES, listed=True))
def _run_chi_scan(params, kind, spec):
    n_max = spec["n_max"]
    config = HilbertConfig(2, (max(12, n_max + 6),))
    points = [p.strip() for p in spec["points"].split(",")]
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


@_kind("offset_scan", time_points=_whole(41),
       # the scan's 16-level mode holds |beta| <= 2 under the truncation guard
       ring_radius=_Key(1.9, lo=0.0, hi=2.0, lo_open=True))
def _run_offset_scan(params, kind, spec):
    t0 = sequences.default_ramsey_time(params)
    times = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, spec["time_points"])
    scan = sequences.interaction_time_offset_scan(
        params, HilbertConfig(2, (16,)), NoiseModel(), times=times,
        ring_radius=spec["ring_radius"],
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


def run_experiment(manifest: RunManifest) -> dict:
    """Execute one experiment; returns the summary dict (also written to disk)."""
    out = Path(manifest.out_dir)
    params = load_params(manifest.params_path, paper_defaults=manifest.paper_defaults)
    if manifest.params_path:
        params_hash = hashlib.sha256(Path(manifest.params_path).read_bytes()).hexdigest()
    else:
        params_hash = hashlib.sha256(b"paper-defaults").hexdigest()
    kind, spec = _spec_from_keyval(load_keyval(manifest.experiment_path))

    written: list[Path] = []
    try:
        summary, csvs, fits = _KINDS[kind][0](params, kind, spec)
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
    skip = {"kind", "seed", "params_sha256", "phases"}
    for key, ref_val in reference.items():
        if key in skip or not isinstance(ref_val, (int, float)) or isinstance(ref_val, bool):
            continue
        tol = float(tolerances.get(key, default_tolerance))
        if not isinstance(new.get(key), (int, float)):  # absent, or null as an unfitted value
            report.append(f"FAIL {key}: missing metric or not a number in new summary")
            continue
        new_val = new[key]
        # equal values agree, two like infinities and two NaNs included; any other
        # rel that is not finite (NaN against a number, an infinity) fails
        same = new_val == ref_val or (math.isnan(new_val) and math.isnan(ref_val))
        rel = 0.0 if same else abs(new_val - ref_val) / max(abs(ref_val), 1e-30)
        status = "ok" if rel <= tol else "FAIL"
        report.append(f"{status} {key}: ref={ref_val!r} new={new_val!r} rel={rel:.3e} tol={tol}")
    return not any(line.startswith("FAIL") for line in report), report


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
