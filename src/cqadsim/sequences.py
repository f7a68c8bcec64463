"""Experiment protocols: state preparation, spectroscopy, parity, Wigner scans.

Pulses in the parity sequences are instantaneous rotations; the phase of the
final pi/2 pulse is calibrated numerically against a vacuum reference run
(four phase offsets, cosine extraction), exactly one calibration per
operating point: variant, interaction time, detuning, parameters, Hilbert
space, noise without its static offset, and ramp time.
Parity values are reported normalized by the vacuum fringe contrast; the raw
qubit expectation is kept alongside.

Prepared states are Kets; ``dynamics.evolve_segments`` turns a Ket into a
density matrix when it meets a dissipative segment.  Spectroscopy, which
propagates in its own probe frame, converts its input itself and builds a
fresh, uncached propagator per probe frequency with ``dynamics._propagator``.
Every state update, instantaneous pulses included, goes through
``dynamics._apply``.  The fringe calibration and the echo-offset zero time
are ``functools.lru_cache`` memos keyed on their arguments.  Sweep points
(spectroscopy frequencies, Wigner grid points, offset-scan times) run in
order in one thread.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import brentq

from .analysis import SpectrumTrace, decay_fit
from .device import TWO_PI, SystemParams, chi_analytic, delta_prime, full_jc_hamiltonian
from .dynamics import (
    NoiseModel,
    Pulse,
    Segment,
    _apply,
    _propagator,
    collapse_operators,
    displacement_drive,
    evolve_segments,
)
from .exceptions import NumericError, TruncationError, ValidationError
from .hilbert import (
    DensityMatrix,
    HilbertConfig,
    Ket,
    _truncation_guard,
    coherent_amplitudes,
    displacement_operator,
    expectation,
    fock_state,
    qubit_operator,
    qubit_projector,
    qubit_rotation,
    reduced_mode_matrix,
)
from .swtheory import chi_numeric, echo_sigma_z_analytic

__all__ = [
    "StatePrep",
    "ExperimentSpec",
    "ParityResult",
    "EXPERIMENT_KINDS",
    "prepare_state",
    "fock_preparation",
    "qubit_spectroscopy",
    "spectroscopy_peak_hints",
    "ramsey_parity",
    "echo_parity",
    "four_phase_average",
    "wigner_scan",
    "default_ramsey_time",
    "echo_offset_zero_time",
    "interaction_time_offset_scan",
    "OffsetScan",
    "coherence_protocols",
    "FOUR_PHASES",
]

FOUR_PHASES = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)


EXPERIMENT_KINDS = (
    "spectroscopy",
    "ramsey_parity",
    "echo_parity",
    "wigner",
    "fock_prep_check",
    "t1",
    "t2_ramsey",
    "rabi_chevron",
    "chi_scan",
    "offset_scan",
)

_PREP_TARGETS = ("vacuum", "fock", "coherent", "superposition_01", "custom")
_PREP_METHODS = ("ideal_injection", "swap_sequence", "displacement_drive")


@dataclass(frozen=True)
class StatePrep:
    target: str = "vacuum"
    m: int = 0
    beta: complex = 0j
    method: str = "ideal_injection"
    ket: Ket | None = None

    def __post_init__(self):
        if self.target not in _PREP_TARGETS:
            raise ValidationError(f"unknown prep target {self.target!r}")
        if self.method not in _PREP_METHODS:
            raise ValidationError(f"unknown prep method {self.method!r}")
        if self.target == "fock" and self.method == "swap_sequence" and self.m > 3:
            raise ValidationError("swap-sequence preparation is limited to M <= 3")
        if self.target == "custom" and self.ket is None:
            raise ValidationError("custom prep requires a ket")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    preparation: StatePrep = field(default_factory=StatePrep)
    sweep: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"unknown experiment kind {self.kind!r}; expected one of {EXPERIMENT_KINDS}"
            )
        object.__setattr__(self, "sweep", dict(self.sweep))


@dataclass(frozen=True)
class ParityResult:
    """Calibrated parity estimate from one qubit interferometry sequence.

    ``value`` is the contrast-normalized estimate (raw - offset)/contrast
    against the vacuum reference; ``raw_sigma_z`` is the bare expectation.
    Single-phase estimates at finite g/Delta can overshoot |1| by O(eps^2);
    four-phase averages at offset-zeroed times stay within 1e-3.
    """

    value: float
    raw_sigma_z: float
    interaction_time: float
    phases_used: tuple[float, ...]
    reference_contrast: float
    reference_offset: float

    def __post_init__(self):
        if not math.isfinite(self.value) or abs(self.value) > 1.05:
            raise NumericError(f"parity estimate {self.value:.4f} not finite or far outside [-1, 1]")


# ---------------------------------------------------------------------------
# state preparation


def fock_preparation(
    M: int,
    method: str,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    pulse_duration: float = 50e-9,
):
    """Prepare M phonons: ideal injection or repeated pi-pulse + swap rounds.

    Swap k uses the resonant duration 1/(4 g sqrt(k)) for full transfer on
    the |e, k-1> <-> |g, k> transition.  ``pulse_duration`` = 0 makes the
    qubit pulses instantaneous.
    """
    if M > config.phonon_dims[0] - 2:
        raise TruncationError(f"M={M} needs phonon dim >= {M + 2}")
    if method == "ideal_injection" or M == 0:
        return fock_state(config, [M] + [0] * (config.n_modes - 1), 0)
    if method != "swap_sequence":
        raise ValidationError(f"Fock preparation does not support method {method!r}")
    state = fock_state(config, [0] * config.n_modes, 0)
    g = params.mode_g(0)
    for k in range(1, M + 1):
        state = _excite_qubit(state, params, config, noise, math.pi, pulse_duration)
        swap_seg = Segment(duration=1.0 / (4.0 * g * math.sqrt(k)), detuning=0.0)
        state = evolve_segments(state, [swap_seg], params, config, noise)
    return state


def _excite_qubit(state, params, config, noise, angle, pulse_duration, theta=0.0):
    if pulse_duration <= 0:
        return _apply(qubit_rotation(config, theta, angle), state)
    amp = angle / (TWO_PI * pulse_duration)
    seg = Segment(
        duration=pulse_duration,
        detuning=params.delta("rest"),
        qubit_drive=Pulse(shape="square", amplitude=amp, phase=theta),
    )
    return evolve_segments(state, [seg], params, config, noise)


def prepare_state(
    prep: StatePrep,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    pulse_duration: float = 50e-9,
    drive_duration: float = 1e-6,
):
    """Produce the phonon state at the rest detuning with the qubit in |g>."""
    if prep.target == "vacuum":
        return fock_state(config, [0] * config.n_modes, 0)
    if prep.target == "fock":
        return fock_preparation(prep.m, prep.method, params, config, noise, pulse_duration)
    if prep.target == "coherent":
        if prep.method == "displacement_drive":
            amp = abs(prep.beta) / (math.pi * drive_duration)
            drive = displacement_drive(
                params, config, noise, amplitude=amp,
                phase=float(np.angle(prep.beta) + math.pi / 2.0), duration=drive_duration,
            )
            return drive.apply(fock_state(config, [0] * config.n_modes, 0))
        _truncation_guard(config, 0, prep.beta)
        return _inject_mode_state(coherent_amplitudes(config.phonon_dims[0], prep.beta), config)
    if prep.target == "superposition_01":
        if prep.method == "swap_sequence":
            state = fock_state(config, [0] * config.n_modes, 0)
            state = _excite_qubit(state, params, config, noise, math.pi / 2.0, pulse_duration)
            g = params.mode_g(0)
            swap_seg = Segment(duration=1.0 / (4.0 * g), detuning=0.0)
            return evolve_segments(state, [swap_seg], params, config, noise)
        c = np.zeros(config.phonon_dims[0], dtype=complex)
        c[0] = c[1] = 1.0 / math.sqrt(2.0)
        return _inject_mode_state(c, config)
    if prep.target == "custom":
        if prep.ket.config != config:
            raise ValidationError("custom ket config mismatch")
        return prep.ket
    raise ValidationError(f"unhandled prep target {prep.target!r}")


def _inject_mode_state(c: np.ndarray, config: HilbertConfig) -> Ket:
    v = c
    for d in config.phonon_dims[1:]:
        g0 = np.zeros(d, dtype=complex)
        g0[0] = 1.0
        v = np.kron(v, g0)
    full = np.zeros(config.dim, dtype=complex)
    full[: v.size] = v  # qubit |g> block (qubit index is slowest)
    return Ket(config, full)


# ---------------------------------------------------------------------------
# parity sequences


def default_ramsey_time(params: SystemParams, delta: float | None = None) -> float:
    """t0 = pi/|chi| with chi = 2 g^2/Delta at the Ramsey point (or given delta)."""
    d = params.delta("ramsey") if delta is None else delta
    chi = chi_analytic(params.g_lg00, d, params.alpha, form="approximate")
    return 1.0 / (2.0 * abs(chi))


def _run_parity_sequence(state, variant, theta, theta2, t, delta, params, config, noise,
                         ramp_time=0.0):
    rest = params.delta("rest")

    def seg(duration, det):
        if ramp_time > 0:
            return Segment(duration=duration, detuning=det, ramp="linear",
                           ramp_time=min(ramp_time, duration), ramp_from=rest)
        return Segment(duration=duration, detuning=det)

    state = _apply(qubit_rotation(config, theta, math.pi / 2.0), state)
    if variant == "ramsey":
        state = evolve_segments(state, [seg(t, delta)], params, config, noise)
    elif variant == "echo":
        state = evolve_segments(state, [seg(t / 2.0, delta)], params, config, noise)
        state = _apply(qubit_rotation(config, theta, math.pi), state)
        state = evolve_segments(state, [seg(t / 2.0, -delta)], params, config, noise)
    else:
        raise ValidationError(f"unknown parity variant {variant!r}")
    state = _apply(qubit_rotation(config, theta2, math.pi / 2.0), state)
    return expectation(state, qubit_operator(config, "sigma_z")).real


def _fringe_calibration(variant, t, delta, params, config, noise, ramp_time=0.0):
    """Vacuum-reference fringe: returns (phase, contrast, offset).

    Computed without any static qubit offset (an uncalibrated drift must not
    leak into the calibration), so offset variants share one calibration.
    """
    return _vacuum_fringe(variant, t, delta, params, config, noise.without_offset(), ramp_time)


@functools.lru_cache(maxsize=1024)
def _vacuum_fringe(variant, t, delta, params, config, noise, ramp_time):
    """The fringe of the vacuum at four second-pulse phase offsets, cached on its arguments."""
    state0 = fock_state(config, [0] * config.n_modes, 0)
    vals = [
        _run_parity_sequence(state0, variant, 0.0, o, t, delta, params, config, noise, ramp_time)
        for o in FOUR_PHASES
    ]
    c = (vals[0] - vals[2]) / 2.0
    s = (vals[1] - vals[3]) / 2.0
    phase = math.atan2(s, c)
    contrast = math.hypot(c, s)
    offset = sum(vals) / 4.0
    if contrast < 1e-6:
        raise NumericError("vacuum reference fringe has no contrast; cannot calibrate")
    return phase, contrast, offset


def _parity_result(raw, t, phases, cal):
    phase, contrast, offset = cal
    return ParityResult(
        value=(raw - offset) / contrast,
        raw_sigma_z=raw,
        interaction_time=t,
        phases_used=tuple(phases),
        reference_contrast=contrast,
        reference_offset=offset,
    )


def _phase_mean(state, variant, phases, cal, t, delta, params, config, noise, ramp_time=0.0):
    """Mean raw sigma_z over the drive phases, each read out at its calibrated phase."""
    if len(phases) == 0:
        raise ValidationError("phases must hold at least one drive phase")
    return float(np.mean([_run_parity_sequence(state, variant, th, th + cal[0], t, delta, params,
                                               config, noise, ramp_time) for th in phases]))


def ramsey_parity(
    prepared_state,
    t_interaction: float,
    theta: float,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    delta: float | None = None,
    ramp_time: float = 0.0,
) -> ParityResult:
    """Single Ramsey parity estimate: pi/2 - dispersive interaction - pi/2."""
    if t_interaction <= 0:
        raise ValidationError("interaction time must be > 0")
    d = params.delta("ramsey") if delta is None else delta
    cal = _fringe_calibration("ramsey", t_interaction, d, params, config, noise, ramp_time)
    raw = _run_parity_sequence(
        prepared_state, "ramsey", theta, theta + cal[0], t_interaction, d,
        params, config, noise, ramp_time,
    )
    return _parity_result(raw, t_interaction, (theta,), cal)


def echo_parity(
    prepared_state,
    theta: float,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    t_total: float | None = None,
    delta: float | None = None,
    ramp_time: float = 0.0,
) -> ParityResult:
    """Echo parity: two half interactions at +-Delta with a pi pulse between."""
    d = params.delta("ramsey") if delta is None else delta
    t = default_ramsey_time(params, d) if t_total is None else t_total
    if t <= 0:
        raise ValidationError("interaction time must be > 0")
    cal = _fringe_calibration("echo", t, d, params, config, noise, ramp_time)
    raw = _run_parity_sequence(
        prepared_state, "echo", theta, theta + cal[0], t, d, params, config, noise, ramp_time,
    )
    return _parity_result(raw, t, (theta,), cal)


def four_phase_average(
    prepared_state,
    variant: str = "echo",
    params: SystemParams | None = None,
    config: HilbertConfig | None = None,
    noise: NoiseModel | None = None,
    t_interaction: float | None = None,
    delta: float | None = None,
    phases: Sequence[float] = FOUR_PHASES,
    ramp_time: float = 0.0,
) -> ParityResult:
    """Average the chosen parity sequence over drive phases (default four)."""
    d = params.delta("ramsey") if delta is None else delta
    t = (default_ramsey_time(params, d) if variant == "ramsey" else
         echo_offset_zero_time(params, d)) if t_interaction is None else t_interaction
    cal = _fringe_calibration(variant, t, d, params, config, noise, ramp_time)
    raw = _phase_mean(prepared_state, variant, phases, cal, t, d, params, config, noise, ramp_time)
    return _parity_result(raw, t, phases, cal)


# ---------------------------------------------------------------------------
# interaction-time selection (finite-epsilon offset of the parity estimate)


def echo_offset_zero_time(
    params: SystemParams, delta: float | None = None, beta_far: float = 2.0,
    span: float = 0.30e-6,
) -> float:
    """Interaction time near pi/|chi| where the analytic echo offset crosses zero.

    The offset is evaluated on a far-field coherent state (parity ~ 0) with
    the order-eps^2 echo expression, four-phase averaged; the zero crossing
    closest to t0 is refined by Brent's method.  This mirrors choosing the
    tomography interaction time that nulls the Wigner background.
    """
    d = params.delta("ramsey") if delta is None else delta
    return _echo_offset_zero(params, d, beta_far, span)


@functools.lru_cache(maxsize=64)
def _echo_offset_zero(params, d, beta_far, span):
    t0 = default_ramsey_time(params, d)
    chi_sign = 1 if d > 0 else -1
    dim = max(int(4 * beta_far**2) + 6, 12)
    c = coherent_amplitudes(dim, beta_far)

    def offset(t):
        vals = [echo_sigma_z_analytic(c, th, t, params, d, chi_sign) for th in FOUR_PHASES]
        return float(np.mean(vals))

    times = np.linspace(t0 - span, t0 + span, 121)
    vals = np.array([offset(t) for t in times])
    crossings = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if crossings.size == 0:
        return t0
    best = crossings[np.argmin(np.abs(times[crossings] - t0))]
    return brentq(offset, times[best], times[best + 1], xtol=1e-20, rtol=4 * np.finfo(float).eps)


@dataclass(frozen=True)
class OffsetScan:
    times: np.ndarray
    offsets: np.ndarray
    oscillation_frequency: float
    best_time: float
    analytic_zero: float
    frequency_ratio_to_delta_prime: float
    doubled_frequency_flag: bool


def interaction_time_offset_scan(
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    times: Sequence[float] | None = None,
    delta: float | None = None,
    ring_radius: float = 1.9,
    n_ring: int = 8,
    variant: str = "echo",
    phases: Sequence[float] = FOUR_PHASES,
) -> OffsetScan:
    """Far-field Wigner offset (mean over a |beta| ring) vs interaction time.

    Reports the fitted oscillation frequency, the |offset|-minimizing time,
    and whether the frequency looks doubled relative to |Delta'| (the
    unexplained experimental observation; simulations track |Delta'|).
    """
    d = params.delta("ramsey") if delta is None else delta
    t0 = default_ramsey_time(params, d)
    if times is None:
        times = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, 41)
    times = np.asarray(times, dtype=float)
    vac = fock_state(config, [0] * config.n_modes, 0)
    ring = [ring_radius * np.exp(2j * math.pi * k / n_ring) for k in range(n_ring)]
    displaced = []
    for b in ring:
        u = displacement_operator(config, 0, -b).matrix
        displaced.append(_apply(u, vac))
    offsets = np.empty(times.size)
    for i, t in enumerate(times):
        cal = _fringe_calibration(variant, t, d, params, config, noise)
        vals = [(_phase_mean(st, variant, phases, cal, t, d, params, config, noise) - cal[2])
                / cal[1] for st in displaced]
        offsets[i] = (2.0 / math.pi) * float(np.mean(vals))

    freq = _fit_oscillation_frequency(times, offsets)
    dp = abs(delta_prime(params.g_lg00, d))
    best_time = float(times[np.argmin(np.abs(offsets))])
    zero = echo_offset_zero_time(params, d) if variant == "echo" else _ramsey_zero(params, d)
    ratio = freq / dp
    return OffsetScan(
        times=times,
        offsets=offsets,
        oscillation_frequency=freq,
        best_time=best_time,
        analytic_zero=zero,
        frequency_ratio_to_delta_prime=ratio,
        doubled_frequency_flag=bool(abs(ratio - 2.0) < 0.25),
    )


def _ramsey_zero(params, d):
    # zeros of sin(Delta' t): multiples of 1/(2|Delta'|) nearest t0
    t0 = default_ramsey_time(params, d)
    step = 1.0 / (2.0 * abs(delta_prime(params.g_lg00, d)))
    return round(t0 / step) * step


def _fit_oscillation_frequency(times, offsets) -> float:
    """Least-squares sinusoid frequency of the signed offset trace (Hz)."""
    t = times - times[0]
    y = offsets - offsets.mean()
    if np.allclose(y, 0):
        return 0.0
    dt = float(np.median(np.diff(t)))
    spec = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(t.size, dt)
    f0 = float(freqs[np.argmax(spec[1:]) + 1])
    from scipy.optimize import least_squares

    def residual(p):
        a, f, ph = p
        return a * np.cos(TWO_PI * f * t + ph) - y

    res = least_squares(
        residual, [float(np.abs(y).max()), f0, 0.0],
        bounds=([0.0, f0 / 3.0, -TWO_PI], [np.inf, f0 * 3.0, TWO_PI]),
    )
    return float(res.x[1])


# ---------------------------------------------------------------------------
# spectroscopy


def spectroscopy_peak_hints(
    params: SystemParams, delta_operate: float, n_peaks: int
) -> tuple[float, float]:
    """(center, spacing) hints for the Voigt-sum fit from exact dressed levels.

    The center is the n=0 qubit line; the spacing is the chord slope of the
    exact peak positions over the fitted range (peak positions curve because
    the per-phonon shift shrinks with n, so the chord anchored at peak 0
    keeps the bounded per-peak deviations smallest).
    """
    cfg = HilbertConfig(2, (max(n_peaks + 6, 10),))
    shifts = chi_numeric(params, cfg, delta_operate, max(n_peaks - 1, 1))
    h = full_jc_hamiltonian(params, cfg, delta_operate, frame="phonon_rotating").matrix
    w, v = np.linalg.eigh(h)
    d = cfg.phonon_dims[0]
    idx_g0 = int(np.argmax(np.abs(v[0 * d + 0, :]) ** 2))
    idx_e0 = int(np.argmax(np.abs(v[1 * d + 0, :]) ** 2))
    line0 = float((w[idx_e0] - w[idx_g0]) / TWO_PI)
    if n_peaks <= 1:
        return line0, float(shifts[0])
    chord = float(np.sum(shifts[: n_peaks - 1]) / (n_peaks - 1))
    return line0, chord


def qubit_spectroscopy(
    prepared_state,
    delta_operate: float,
    probe: Pulse | None,
    freq_grid: Sequence[float],
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    probe_duration: float = 15e-6,
    jobs: int = 1,
    phase_cycles: int = 2,
) -> SpectrumTrace:
    """Weak-probe qubit spectrum while dispersively coupled to the phonon state.

    Each grid frequency (Hz, relative to the LG-00 mode) is simulated in the
    frame co-rotating with the probe, where the Hamiltonian is constant.  The
    default probe amplitude keeps peak excitation in the linear regime.

    ``phase_cycles`` (an integer m >= 1) averages over m equally spaced probe
    carrier phases.  Two cycles cancel every response term linear in the probe
    field, which otherwise biases the peak heights of states with phonon
    coherences (coherent states); experimentally the same terms wash out
    through slow qubit frequency fluctuations.  Diagonal phonon states are
    insensitive, so ``phase_cycles=1`` is safe for Fock preparations.

    The average costs one run.  The probe-frame Hamiltonian and every collapse
    operator commute with R = exp(i phi N), N = sigma+ sigma- + sum_k n_k, and
    R turns the phase-0 drive into the phase-phi one, so the m-phase average is
    the phase-0 run on rho projected onto coherence orders N_i - N_j = 0 (mod m).

    Grid points run in order in one thread.  ``jobs`` accepts only 1; it stays
    because ``benchmarks/worker.py`` passes ``jobs=1``.
    """
    if jobs != 1:
        raise ValidationError(f"jobs must be 1 (sweeps run in one thread), got {jobs!r}")
    if not isinstance(phase_cycles, (int, np.integer)) or phase_cycles < 1:
        raise ValidationError(f"phase_cycles must be an integer >= 1, got {phase_cycles!r}")
    freqs = np.asarray(sorted(freq_grid), dtype=float)
    if probe is None or probe.amplitude == 0.0:
        probe = Pulse(shape="square", amplitude=0.5 / (TWO_PI * probe_duration))
    sp = qubit_operator(config, "sigma_plus").matrix
    sm = qubit_operator(config, "sigma_minus").matrix
    pe = qubit_projector(config, 1)
    drive_phase = -(probe.phase + math.pi / 2.0)
    h_drive = TWO_PI * 0.5 * probe.amplitude * (
        np.exp(-1j * drive_phase) * sp + np.exp(1j * drive_phase) * sm
    )
    rho = prepared_state.to_density() if isinstance(prepared_state, Ket) else prepared_state
    # N per basis state: |e> counts one excitation, |f> (dark to sigma+-) none
    levels = np.indices(config.dims).reshape(config.n_modes + 1, -1)
    n = (levels[0] == 1) + levels[1:].sum(axis=0)
    keep = np.subtract.outer(n, n) % phase_cycles == 0
    rho = DensityMatrix(config, np.where(keep, rho.matrix, 0.0))
    cs = collapse_operators(config, noise)
    qubit_freq = delta_operate + noise.static_qubit_offset

    def one_point(f: float) -> float:
        h0 = full_jc_hamiltonian(params, config, qubit_freq, frame=f).matrix
        return expectation(_apply(_propagator(h0 + h_drive, cs, probe_duration), rho), pe).real

    pops = np.array([one_point(f) for f in freqs])

    meta = {
        "detuning": delta_operate,
        "probe_amplitude": probe.amplitude,
        "probe_duration": probe_duration,
        "probe_bandwidth": 1.0 / (TWO_PI * probe_duration),
        "warnings": [],
    }
    _warn_if_grid_misses_peaks(meta, rho, freqs, params, delta_operate)
    return SpectrumTrace(freqs, pops, meta)


def _warn_if_grid_misses_peaks(meta, rho, freqs, params, delta_operate):
    pn = np.real(np.diag(reduced_mode_matrix(rho, 0)))
    occupied = np.where(pn > 0.01)[0]
    if occupied.size == 0:
        return
    chi = chi_analytic(params.g_lg00, delta_operate, params.alpha, form="full")
    lamb = params.g_lg00**2 / delta_operate
    line0 = delta_operate + lamb
    expected = [line0 + n * chi for n in occupied]
    margin = abs(chi) / 2.0
    if min(expected) - margin < freqs[0] or max(expected) + margin > freqs[-1]:
        meta["warnings"].append(
            f"frequency grid [{freqs[0]:.3e}, {freqs[-1]:.3e}] does not span the expected "
            f"peaks [{min(expected):.3e}, {max(expected):.3e}]"
        )


# ---------------------------------------------------------------------------
# Wigner tomography


def wigner_scan(
    prepared_state,
    beta_grid: np.ndarray,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    interaction_time: float | None = None,
    phases: Sequence[float] = FOUR_PHASES,
    delta: float | None = None,
    variant: str = "echo",
) -> np.ndarray:
    """Displaced-parity values over a grid of complex amplitudes.

    Convention: the state is displaced by -beta and the parity recorded as
    the value at beta, i.e. W(beta) = (2/pi) Tr[D^dag(beta) rho D(beta) Pi];
    this function returns the calibrated parities (the 2/pi scaling and axis
    calibration are applied by ``analysis.wigner_assemble``).
    """
    d = params.delta("ramsey") if delta is None else delta
    t = (echo_offset_zero_time(params, d) if variant == "echo"
         else default_ramsey_time(params, d)) if interaction_time is None else interaction_time
    grid = np.asarray(beta_grid, dtype=complex)
    flat = grid.reshape(-1)
    cal = _fringe_calibration(variant, t, d, params, config, noise)

    def one_point(b: complex) -> float:
        u = displacement_operator(config, 0, -b).matrix
        st = _apply(u, prepared_state)
        raw = _phase_mean(st, variant, phases, cal, t, d, params, config, noise)
        return (raw - cal[2]) / cal[1]

    out = np.array([one_point(b) for b in flat])
    return out.reshape(grid.shape)


# ---------------------------------------------------------------------------
# coherence protocols


# kind: (first pulse angle, swap in/out, Ramsey readout, default demodulation Hz)
_COHERENCE_PROTOCOLS = {
    "qubit_t1": (math.pi, False, False, None),
    "qubit_t2": (math.pi / 2.0, False, True, 0.25e6),
    "phonon_t1": (math.pi, True, False, None),
    "phonon_t2": (math.pi / 2.0, True, True, 15e3),
}


def coherence_protocols(
    kind: str,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    delays: Sequence[float],
    demod_freq: float | None = None,
):
    """Simulated T1/T2 protocols with fits; returns (times, values, FitResult).

    Phonon protocols park the qubit at the rest detuning during the delay and
    shuttle the excitation with resonant swaps.  Ramsey readouts take two
    quadrature-opposed final pulses, so the T1 baseline drift cancels; their
    phase follows the demodulation frequency less the stored excitation's
    own precession (the rest detuning for the qubit, none for the phonon).
    """
    if kind not in _COHERENCE_PROTOCOLS:
        raise ValidationError(f"unknown coherence protocol {kind!r}")
    first_angle, swap, ramsey, default_demod = _COHERENCE_PROTOCOLS[kind]
    f_demod = default_demod if demod_freq is None else demod_freq
    delays = np.asarray(delays, dtype=float)
    rest = params.delta("rest")
    f_stored = 0.0 if swap else rest
    swaps = [Segment(duration=1.0 / (4.0 * params.mode_g(0)), detuning=0.0)] if swap else []
    pe = qubit_projector(config, 1)
    vac = fock_state(config, [0] * config.n_modes, 0)

    values = np.empty(delays.size)
    for i, tau in enumerate(delays):
        wait = [Segment(tau, rest)] if tau > 0 else []
        st = _apply(qubit_rotation(config, 0.0, first_angle), vac)
        for seg in swaps + wait + swaps:
            st = evolve_segments(st, [seg], params, config, noise)
        if ramsey:
            theta2 = -TWO_PI * f_stored * tau + TWO_PI * f_demod * tau
            plus, minus = (
                expectation(_apply(qubit_rotation(config, theta2 + o, math.pi / 2.0), st),
                            pe).real
                for o in (0.0, math.pi)
            )
            values[i] = 0.5 * (plus - minus)
        else:
            values[i] = expectation(st, pe).real
    fit = decay_fit(delays, values, "exponential_sine" if ramsey else "exponential")
    return delays, values, fit
