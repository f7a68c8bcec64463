"""Experiment protocols: state preparation, spectroscopy, parity, Wigner scans.

Pulses in the parity sequences are instantaneous rotations; the phase of the
final pi/2 pulse is calibrated against the vacuum fringe, exactly one
calibration per operating point: variant, interaction time, detuning,
parameters, Hilbert space, and noise without its static offset.  Parity
values are reported normalized by the vacuum fringe contrast; the raw qubit
expectation is kept alongside.

Prepared states are Kets; ``dynamics.evolve_segments`` turns a Ket into a
density matrix when it meets a dissipative segment.  A preparation passes
each of its segments once, so ``evolve_segments`` applies it to the state as
an action.  Spectroscopy, which propagates in its own probe frame, converts
its input itself and evolves it over the whole frequency grid with one
``dynamics._frame_states`` (the probe frequency is the frame).  The
coherence protocols' delay loop plans its swap and its wait once each
(``dynamics._segment_plan``) and steps the density matrix through the delay
grid with ``dynamics._sweep_action``.  No density matrix here takes a
propagator.

The Ramsey and echo sequences are one list of steps (``_parity_steps``:
rotation matrices and constant segments).  Parity has one readout, run
backward once per operating point: sigma_+ goes through the phase-0 sequence
up to its readout pulse (``_readout_adjoint``), each pulse by
``dynamics._apply_adjoint`` and each segment by ``dynamics._segment_adjoint``,
which with noise is one Chebyshev action restricted to the coherence orders
the operator holds and without noise the cached unitary.  Its vacuum entry
is the vacuum fringe, and ``_calibrated_effect`` turns it into the effect
operator E for any drive phases, because a drive phase is a rotation
exp(i theta N) that every segment commutes with.  Each state is read
as Tr[E rho] (<psi|E|psi> for a Ket); the parity estimate
(``four_phase_average``; one drive phase is ``phases=(theta,)``) and the
Wigner and offset scans all read parity through it.

The readout pass and the echo-offset zero time are ``functools.lru_cache``
memos keyed on their arguments; each evaluation of the zero time's offset is
one analytic call batched over the four phases, and its bracket scan
evaluates a 121-point grid from t0 outward, a window of times per call,
only until no nearer crossing can remain.  The Wigner grid is read in
blocks of bounded size and the offset-scan times in order, in one thread;
the spectroscopy grid runs as one block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import SpectrumTrace, _dominant_frequency, _projected_fit, decay_fit
from .device import TWO_PI, SystemParams, chi_analytic, delta_prime, full_jc_hamiltonian
from .dynamics import (
    NoiseModel,
    Pulse,
    Segment,
    _apply,
    _apply_adjoint,
    _coordinates,
    _drive_hamiltonian,
    _excitation_number,
    _frame_states,
    _matrices,
    _segment_adjoint,
    _segment_plan,
    _sweep_action,
    _uniform_step,
    collapse_operators,
    evolve_segments,
)
from .exceptions import NumericError, TruncationError, ValidationError
from .hilbert import (
    DensityMatrix,
    HilbertConfig,
    Ket,
    OperatorMatrix,
    _check_same_config,
    _displacements,
    _truncation_guard,
    coherent_amplitudes,
    coherent_state,
    expectation,
    fock_state,
    qubit_operator,
    qubit_projector,
    qubit_rotation,
)
from .swtheory import chi_numeric, echo_sigma_z_analytic

__all__ = [
    "StatePrep",
    "ParityResult",
    "prepare_state",
    "qubit_spectroscopy",
    "spectroscopy_peak_hints",
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

_PULSE_DURATION = 50e-9  # qubit pi and pi/2 pulses of the swap preparations
_DRIVE_DURATION = 1e-6  # resonant phonon drive of the displacement preparation
_PHASE_CYCLES = 2  # probe carrier phases averaged by qubit_spectroscopy


# prep target: the methods that prepare it
_PREP_METHODS = {
    "vacuum": ("ideal_injection",),
    "fock": ("ideal_injection", "swap_sequence"),
    "coherent": ("ideal_injection", "displacement_drive"),
    "superposition_01": ("ideal_injection", "swap_sequence"),
}


@dataclass(frozen=True)
class StatePrep:
    target: str = "vacuum"
    m: int = 0
    beta: complex = 0j
    method: str = "ideal_injection"

    def __post_init__(self):
        if self.target not in _PREP_METHODS:
            raise ValidationError(f"unknown prep target {self.target!r}")
        if self.method not in _PREP_METHODS[self.target]:
            raise ValidationError(
                f"prep target {self.target!r} has no method {self.method!r}; expected one of "
                f"{_PREP_METHODS[self.target]}")
        if self.target == "fock" and self.method == "swap_sequence" and self.m > 3:
            raise ValidationError("swap-sequence preparation is limited to M <= 3")


@dataclass(frozen=True)
class ParityResult:
    """Calibrated parity estimate from one qubit interferometry sequence.

    ``value`` is the contrast-normalized estimate raw/contrast against the
    vacuum reference; ``raw_sigma_z`` is the bare expectation.  The vacuum
    fringe is 2 Re(e^{io} <sigma_+>) in the readout phase o, so it has no
    offset term to subtract.
    Single-phase estimates at finite g/Delta can overshoot |1| by O(eps^2);
    four-phase averages at offset-zeroed times stay within 1e-3.
    """

    value: float
    raw_sigma_z: float
    reference_contrast: float

    def __post_init__(self):
        if not math.isfinite(self.value) or abs(self.value) > 1.05:
            raise NumericError(f"parity estimate {self.value:.4f} not finite or far outside [-1, 1]")


# ---------------------------------------------------------------------------
# state preparation


def prepare_state(prep: StatePrep, params: SystemParams, config: HilbertConfig,
                  noise: NoiseModel):
    """Produce the phonon state at the rest detuning with the qubit in |g>."""
    vacuum = fock_state(config, [0] * config.n_modes, 0)
    if prep.target == "vacuum":
        return vacuum
    if prep.target == "fock":
        return _fock_preparation(prep.m, prep.method, params, config, noise)
    if prep.target == "coherent":
        if prep.method == "displacement_drive":
            # resonant square drive with the qubit at rest: |beta| = pi amp duration
            drive = Pulse(abs(prep.beta) / (math.pi * _DRIVE_DURATION),
                          float(np.angle(prep.beta) + math.pi / 2.0))
            seg = Segment(_DRIVE_DURATION, params.delta("rest"), phonon_drive=drive)
            return evolve_segments(vacuum, [seg], params, config, noise)
        return coherent_state(config, 0, prep.beta)
    # superposition_01: (|0> + |1>)/sqrt(2) in LG-00
    if prep.method == "swap_sequence":
        state = _excite_qubit(vacuum, params, config, noise, math.pi / 2.0)
        return evolve_segments(state, [_swap_segment(params)], params, config, noise)
    one = fock_state(config, [1] + [0] * (config.n_modes - 1), 0)
    return Ket(config, (vacuum.amplitudes + one.amplitudes) / math.sqrt(2.0))


def _fock_preparation(M, method, params, config, noise):
    """Prepare M phonons: ideal injection or repeated pi-pulse + swap rounds.

    Swap k uses the resonant duration 1/(4 g sqrt(k)) for full transfer on
    the |e, k-1> <-> |g, k> transition.
    """
    if M > config.phonon_dims[0] - 2:
        raise TruncationError(f"M={M} needs phonon dim >= {M + 2}")
    if method == "ideal_injection" or M == 0:
        return fock_state(config, [M] + [0] * (config.n_modes - 1), 0)
    state = fock_state(config, [0] * config.n_modes, 0)
    for k in range(1, M + 1):
        state = _excite_qubit(state, params, config, noise, math.pi)
        state = evolve_segments(state, [_swap_segment(params, k)], params, config, noise)
    return state


def _swap_segment(params: SystemParams, k: int = 1) -> Segment:
    """Resonant swap with LG-00 for full transfer on |e, k-1> <-> |g, k>: 1/(4 g sqrt(k))."""
    return Segment(1.0 / (4.0 * params.mode_g(0) * math.sqrt(k)), 0.0)


def _excite_qubit(state, params, config, noise, angle):
    """A square qubit pulse of rotation ``angle`` at the rest detuning."""
    seg = Segment(_PULSE_DURATION, params.delta("rest"),
                  qubit_drive=Pulse(angle / (TWO_PI * _PULSE_DURATION)))
    return evolve_segments(state, [seg], params, config, noise)


# ---------------------------------------------------------------------------
# parity sequences


def default_ramsey_time(params: SystemParams, delta: float | None = None) -> float:
    """t0 = pi/|chi| with chi = 2 g^2/Delta at the Ramsey point (or given delta)."""
    d = params.delta("ramsey") if delta is None else delta
    chi = chi_analytic(params.g_lg00, d, params.alpha, form="approximate")
    return 1.0 / (2.0 * abs(chi))


def _parity_steps(variant, theta, theta2, t, delta, config):
    """The parity sequence in time order: qubit rotation matrices and constant ``Segment``s."""
    if variant == "ramsey":
        middle = [Segment(duration=t, detuning=delta)]
    elif variant == "echo":
        middle = [Segment(duration=t / 2.0, detuning=delta), qubit_rotation(config, theta, math.pi),
                  Segment(duration=t / 2.0, detuning=-delta)]
    else:
        raise ValidationError(f"unknown parity variant {variant!r}")
    return [qubit_rotation(config, theta, math.pi / 2.0), *middle,
            qubit_rotation(config, theta2, math.pi / 2.0)]


@functools.lru_cache(maxsize=8)
def _readout_adjoint(variant, t, delta, params, config, noise) -> np.ndarray:
    """F: sigma_+ run backward through the phase-0 sequence up to its readout pulse, cached.

    Tr[F rho] is <sigma_+> just before the readout pulse, so F's vacuum entry
    F_00 is the vacuum fringe.  An entry is a dense d x d array that is
    reused only while its operating point is read (with a static offset, by
    two passes), so the cache keeps few.
    """
    op = qubit_operator(config, "sigma_plus").matrix
    for step in reversed(_parity_steps(variant, 0.0, 0.0, t, delta, config)[:-1]):
        if isinstance(step, Segment):
            op = _segment_adjoint(op, step, params, config, noise)
        else:
            op = _apply_adjoint(step, op)
    op.setflags(write=False)
    return op


def _calibrated_effect(variant, phases, t, delta, params, config, noise):
    """The phase-averaged effect E at one operating point and its vacuum contrast: (E, contrast).

    Tr[E rho] is the mean raw sigma_z over the drive ``phases``, each read out
    at the vacuum fringe's phase.  A readout pulse at phase o turns sigma_z
    into e^{io} sigma_+ + h.c., so the vacuum reads 2 Re(e^{io} F_00): contrast
    2|F_00| at o = -arg F_00, and no offset term.  The fringe is taken without
    any static qubit offset (an uncalibrated drift must not leak into the
    calibration); that is the same pass when the offset is 0.  Drive phase th
    is the phase-0 sequence conjugated by exp(i th N), so
    E = [(F_00*/|F_00|) F + h.c.] o M with M_ij = mean_th exp(i th (N_i - N_j)).
    """
    phases = np.asarray(phases, dtype=float)
    if phases.size == 0:
        raise ValidationError("phases must hold at least one drive phase")
    if not np.isfinite(phases).all():
        raise ValidationError(f"drive phases must be finite, got {phases.tolist()}")
    f00 = _readout_adjoint(variant, t, delta, params, config, noise.without_offset())[0, 0]
    contrast = 2.0 * abs(f00)
    if contrast < 1e-6:
        raise NumericError("vacuum reference fringe has no contrast; cannot calibrate")
    n = _excitation_number(config)
    m = np.mean(np.exp(1j * np.multiply.outer(phases, np.subtract.outer(n, n))), axis=0)
    w = (np.conj(f00) / abs(f00)) * _readout_adjoint(variant, t, delta, params, config, noise)
    return OperatorMatrix(config, (w + w.conj().T) * m), contrast


def four_phase_average(
    prepared_state,
    variant: str,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    t_interaction: float,
    delta: float,
    phases: Sequence[float] = FOUR_PHASES,
) -> ParityResult:
    """Calibrated parity of ``prepared_state``: the ``variant`` sequence averaged over ``phases``.

    Ramsey is pi/2 - interaction - pi/2; echo splits the interaction into
    halves at +-``delta`` around a pi pulse.  One drive phase is ``(theta,)``.
    """
    effect, contrast = _calibrated_effect(variant, phases, t_interaction, delta, params, config,
                                          noise)
    raw = float(expectation(prepared_state, effect).real)
    return ParityResult(value=raw / contrast, raw_sigma_z=raw,
                        reference_contrast=contrast)


# ---------------------------------------------------------------------------
# interaction-time selection (finite-epsilon offset of the parity estimate)


def _brent_root(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the bracket [xa, xb] by Brent's method, step for step as scipy's brentq.

    Each step interpolates (secant or inverse quadratic) when that shrinks the
    bracket fast enough and bisects otherwise (Brent, Algorithms for
    Minimization without Derivatives, 1973, chapter 4), never stepping less
    than the tolerance (xtol + rtol |x|) / 2; it stops when the bracket's
    half-width falls below it.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f must change sign on the bracket")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the best estimate, xblk the far end of the bracket
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        tol = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < tol:
            return xcur
        if abs(spre) > tol and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - tol):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > tol else (tol if sbis > 0.0 else -tol)
        fcur = float(f(xcur))
    raise RuntimeError("Brent's method took more than 100 steps")


# grid steps added on each side of t0 per window of the echo bracket scan
_ECHO_WINDOW = 8


@functools.lru_cache(maxsize=64)
def echo_offset_zero_time(params: SystemParams, delta: float) -> float:
    """Interaction time near pi/|chi| where the analytic echo offset crosses zero.

    The offset is evaluated on a far-field coherent state (|beta| = 2, parity
    ~ 0) with the order-eps^2 echo expression, four-phase averaged; the zero
    crossing closest to t0 on a 121-point grid over t0 +- 0.3 us (the pair
    whose earlier time is nearest t0, the earlier pair on a tie) is refined
    by Brent's method (t0 itself if there is none).  This mirrors choosing
    the tomography interaction time that nulls the Wigner background.

    The grid is evaluated from the middle out, ``_ECHO_WINDOW`` points more
    on each side per window, and the scan stops once no pair left
    unevaluated can lie as near t0 as the best crossing found; without a
    crossing it covers the whole grid.  A time's offset does not depend on
    the other times of its call, so the bracket is the full grid's, bit for
    bit.  Each evaluation is one ``echo_sigma_z_analytic`` call: one
    power-series array batched over the four phases, and over a window's
    times.
    """
    t0 = default_ramsey_time(params, delta)
    c = coherent_amplitudes(22, 2.0)
    phases = np.reshape(FOUR_PHASES, (4, 1))

    def offset(t):
        # one call for all four phases, batched over an array of times
        vals = echo_sigma_z_analytic(c, phases, t, params, delta)
        return np.mean(vals, axis=0).reshape(np.shape(t))

    times = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, 121)
    dist = np.abs(times - t0)  # pair i is (times[i], times[i + 1]), at the distance of times[i]
    vals = np.empty(times.size)
    w = _ECHO_WINDOW
    lo, hi = times.size // 2 - w, times.size // 2 + w + 1  # times[lo:hi] are evaluated
    new = np.arange(lo, hi)
    while new.size:
        vals[new] = offset(times[new])
        signs = np.sign(vals[lo:hi])
        crossings = lo + np.flatnonzero(signs[:-1] * signs[1:] < 0)
        if crossings.size:
            best = crossings[np.argmin(dist[crossings])]
            # the nearest pairs left out: (lo - 1, lo) before best, (hi - 1, hi) after it
            if (lo == 0 or dist[lo - 1] > dist[best]) and (
                    hi == times.size or dist[hi - 1] >= dist[best]):
                return _brent_root(offset, times[best], times[best + 1], 1e-20,
                                   4 * np.finfo(float).eps)
        new = np.r_[max(lo - w, 0):lo, hi:min(hi + w, times.size)]
        lo, hi = max(lo - w, 0), min(hi + w, times.size)
    return t0


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
    times: Sequence[float],
    ring_radius: float = 1.9,
    n_ring: int = 8,
) -> OffsetScan:
    """Far-field Wigner offset (mean over a |beta| ring) vs interaction time.

    Each time reads the four-phase echo at the Ramsey detuning.  Reports the
    fitted oscillation frequency, the |offset|-minimizing time, and whether
    the frequency looks doubled relative to |Delta'| (the unexplained
    experimental observation; simulations track |Delta'|).
    """
    d = params.delta("ramsey")
    times = np.asarray(times, dtype=float)
    if times.size < 4:
        raise ValidationError(
            f"an offset scan needs at least 4 times to fit a sinusoid's 3 parameters, "
            f"got {times.size}")
    if not isinstance(n_ring, (int, np.integer)) or n_ring < 1:
        raise ValidationError(f"n_ring must be a whole number >= 1 of ring points, got {n_ring!r}")
    vac = fock_state(config, [0] * config.n_modes, 0)
    ring = np.array([ring_radius * np.exp(2j * math.pi * k / n_ring) for k in range(n_ring)])
    _guard_points(config, ring)
    dmats = _displacements(config.phonon_dims[0], -ring)
    offsets = np.empty(times.size)
    for i, t in enumerate(times):
        effect, contrast = _calibrated_effect("echo", FOUR_PHASES, t, d, params, config, noise)
        vals = _displaced_readout(vac, effect, dmats) / contrast
        offsets[i] = (2.0 / math.pi) * float(np.mean(vals))

    freq = _fit_oscillation_frequency(times, offsets)
    dp = abs(delta_prime(params.g_lg00, d))
    best_time = float(times[np.argmin(np.abs(offsets))])
    ratio = freq / dp
    return OffsetScan(
        times=times,
        offsets=offsets,
        oscillation_frequency=freq,
        best_time=best_time,
        analytic_zero=echo_offset_zero_time(params, d),
        frequency_ratio_to_delta_prime=ratio,
        doubled_frequency_flag=bool(abs(ratio - 2.0) < 0.25),
    )


def _fit_oscillation_frequency(times, offsets) -> float:
    """Least-squares sinusoid frequency of the signed offset trace (Hz).

    a cos(2 pi f t + phi) is separable: a cos phi and a sin phi are linear, so
    only f is fitted, from the periodogram's peak (``_dominant_frequency``).
    """
    t = times - times[0]
    y = offsets - offsets.mean()
    if np.allclose(y, 0):
        return 0.0
    f0 = _dominant_frequency(t, y)

    def columns(theta):
        return np.column_stack([np.cos(TWO_PI * theta[0] * t), -np.sin(TWO_PI * theta[0] * t)])

    theta = _projected_fit(columns, y, [f0], ([f0 / 3.0], [f0 * 3.0]), ["frequency"])[1]
    if theta is None:
        raise NumericError("the offset-scan sinusoid fit did not finish")
    return float(theta[0])


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
    h = full_jc_hamiltonian(params, cfg, delta_operate).matrix
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
) -> SpectrumTrace:
    """Weak-probe qubit spectrum while dispersively coupled to the phonon state.

    Each grid frequency (Hz, relative to the LG-00 mode) is simulated in the
    frame co-rotating with the probe, where the Hamiltonian is constant.  The
    default probe amplitude keeps peak excitation in the linear regime.

    The spectrum averages over m = 2 opposite probe carrier phases.  That
    cancels every response term linear in the probe field, which otherwise
    biases the peak heights of states with phonon coherences (coherent
    states); experimentally the same terms wash out through slow qubit
    frequency fluctuations.

    The average costs one run.  The probe-frame Hamiltonian and every collapse
    operator commute with R = exp(i phi N), N = sigma+ sigma- + sum_k n_k, and
    R turns the phase-0 drive into the phase-phi one, so the m-phase average is
    the phase-0 run on rho projected onto coherence orders N_i - N_j = 0 (mod m).

    The sweep builds no propagator.  The probe drive is static in the probe
    frame, so ``dynamics._frame_states`` evolves rho under H plus the drive
    in every probe frame f of the grid at once (one Chebyshev recurrence),
    and each point reads Tr[P_e rho_f].  At the preset's size (400 rows,
    15 us probe) that is 2 substeps of 836 sparse products on one block:
    0.31-0.36 s for the 119-point grid at one BLAS thread on a 2-core machine.

    ``jobs`` accepts only 1; it stays because ``benchmarks/worker.py`` passes
    ``jobs=1``.
    """
    if jobs != 1:
        raise ValidationError(f"jobs must be 1 (sweeps run in one thread), got {jobs!r}")
    freqs = np.asarray(sorted(freq_grid), dtype=float)
    if freqs.size == 0:
        raise ValidationError("the spectroscopy frequency grid is empty")
    if probe is None or probe.amplitude == 0.0:
        probe = Pulse(0.5 / (TWO_PI * probe_duration))
    pe = qubit_projector(config, 1)
    probe_seg = Segment(probe_duration, 0.0, qubit_drive=probe)  # resonant in the probe frame
    rho = prepared_state.to_density() if isinstance(prepared_state, Ket) else prepared_state
    n = _excitation_number(config)
    keep = np.subtract.outer(n, n) % _PHASE_CYCLES == 0
    rho = DensityMatrix(config, np.where(keep, rho.matrix, 0.0))
    h = (full_jc_hamiltonian(params, config, delta_operate + noise.static_qubit_offset).matrix
         + _drive_hamiltonian(config, probe_seg))
    states = _frame_states(rho, h, collapse_operators(config, noise), probe_duration, freqs)
    return SpectrumTrace(freqs, np.einsum("fij,ji->f", states, pe.matrix).real)


# ---------------------------------------------------------------------------
# Wigner tomography


# complex entries of displaced states formed at once: about 256 kB, whatever the grid
_WIGNER_BLOCK_ENTRIES = 1 << 14


def _guard_points(config: HilbertConfig, betas: np.ndarray):
    """Mode 0's truncation guard on every point: it grows with |beta|, so the largest decides."""
    if betas.size:
        _truncation_guard(config, 0, betas[np.argmax(betas.real ** 2 + betas.imag ** 2)])


def _displaced_readout(state, effect: OperatorMatrix, dmats: np.ndarray) -> np.ndarray:
    """Tr[E D rho D^dag] (<psi|D^dag E D|psi> for a Ket) for each of the stacked mode-0 ``dmats``.

    D acts on the mode-0 axis of the state by stacked matmuls; the qubit and
    the other modes ride along as block axes.
    """
    _check_same_config(state, effect)
    config, e = state.config, effect.matrix
    q, m = config.qubit_levels, config.phonon_dims[0]
    rest = config.dim // (q * m)
    b = len(dmats)
    if isinstance(state, Ket):
        phi = (dmats[:, None] @ state.amplitudes.reshape(q, m, rest)).reshape(b, -1)
        return np.sum(phi.conj() * (phi @ e.T), axis=-1).real
    # D on the row's mode axis, then D* on the column's
    half = dmats[:, None] @ state.matrix.reshape(q, m, -1)
    full = dmats.conj()[:, None] @ half.reshape(b, -1, m, rest)
    return (full.reshape(b, -1) @ e.T.reshape(-1)).real


def wigner_scan(
    prepared_state,
    beta_grid: np.ndarray,
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    interaction_time: float,
    delta: float,
) -> np.ndarray:
    """Displaced-parity values over a grid of complex amplitudes.

    Convention: the state is displaced by -beta and the parity recorded as
    the value at beta, i.e. W(beta) = (2/pi) Tr[D^dag(beta) rho D(beta) Pi];
    this function returns the calibrated parities (the 2/pi scaling and axis
    calibration are applied by ``analysis.wigner_assemble``).  Each point
    reads the four-phase echo parity.

    Every grid point passes the truncation guard before any readout is
    built.  The grid is then read in blocks of points: one stack of
    displacements from the cached ``hilbert._quadrature_eigh``, applied to
    the state and contracted with the effect.  A block holds at most
    ``_WIGNER_BLOCK_ENTRIES`` complex entries of displaced states, so the
    transient does not grow with the grid.
    """
    grid = np.asarray(beta_grid, dtype=complex)
    flat = grid.reshape(-1)
    _guard_points(config, flat)
    effect, contrast = _calibrated_effect("echo", FOUR_PHASES, interaction_time, delta, params,
                                          config, noise)
    size = config.dim if isinstance(prepared_state, Ket) else config.dim ** 2
    block = max(1, _WIGNER_BLOCK_ENTRIES // size)
    raw = np.empty(flat.size)
    for i in range(0, flat.size, block):
        dmats = _displacements(config.phonon_dims[0], -flat[i:i + block])
        raw[i:i + block] = _displaced_readout(prepared_state, effect, dmats)
    return (raw / contrast).reshape(grid.shape)


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

    The delays must be a uniform grid from 0 (``dynamics._uniform_step``).
    The loop runs on density matrices, noise or not: the swap and one wait
    step of the delay spacing are planned once each
    (``dynamics._segment_plan``); the state is swapped in once, waits step by
    step, and every delay's state is swapped out at once, as the columns of
    one block.
    """
    if kind not in _COHERENCE_PROTOCOLS:
        raise ValidationError(f"unknown coherence protocol {kind!r}")
    first_angle, swap, ramsey, default_demod = _COHERENCE_PROTOCOLS[kind]
    f_demod = default_demod if demod_freq is None else demod_freq
    delays = np.asarray(delays, dtype=float)
    dt = _uniform_step(delays)
    rest = params.delta("rest")
    f_stored = 0.0 if swap else rest
    swaps = [_segment_plan(_swap_segment(params), params, config, noise)] if swap else []
    wait = _segment_plan(Segment(dt, rest), params, config, noise)
    pe = qubit_projector(config, 1)
    vac = fock_state(config, [0] * config.n_modes, 0)

    # swap in once, wait step by step, then swap every delay's state out at once
    v = _coordinates(_apply(qubit_rotation(config, 0.0, first_angle), vac).to_density().matrix)
    for plan in swaps:
        v = _sweep_action(plan, v)
    steps = [v]
    for _ in range(delays.size - 1):
        steps.append(_sweep_action(wait, steps[-1]))
    block = np.stack(steps, axis=1)
    for plan in swaps:
        block = _sweep_action(plan, block)
    values = np.empty(delays.size)
    for i, (tau, rho) in enumerate(zip(delays, _matrices(block))):
        st = DensityMatrix(config, rho)
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
