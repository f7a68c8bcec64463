"""Time evolution under the Lindblad master equation.

All dynamics run in the frame rotating at the LG-00 phonon frequency for
every degree of freedom (``device.full_jc_hamiltonian`` with
``frame="phonon_rotating"``), so the qubit detuning Delta(t) appears
explicitly and a second mode sits at its +1.1 MHz offset.  Rates and
frequencies are ordinary Hz at the API; Hamiltonians are angular internally.

Every propagator is built one way (``_propagator``: the Liouvillian
exponential with collapse operators, exp(-i H t) without) and applied one
way (``_apply``: U psi, U rho U^dag or P vec(rho), by the propagator's row
count).  Constant segments take theirs from one cache keyed on the segment's
inputs (segment, params, config, noise); ramps and carrier-rotating drives
fall back to adaptive RK integration.

The Liouvillian is built as a sparse matrix.  Without drives it conserves
the total excitation number, so it splits into independent blocks by
coherence order; its propagator is exponentiated block by block, with the
blocks read off the generator's own nonzero pattern, and stored sparse.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp
from scipy.linalg import expm as _expm
from scipy.sparse.csgraph import connected_components

from .device import TWO_PI, SystemParams, full_jc_hamiltonian
from .exceptions import NumericError, ValidationError
from .hilbert import (
    DensityMatrix,
    HilbertConfig,
    Ket,
    OperatorMatrix,
    annihilation,
    expectation,
    fock_state,
    hermitian_propagator,
    qubit_operator,
    qubit_projector,
)

__all__ = [
    "NoiseModel",
    "Pulse",
    "Segment",
    "Schedule",
    "Trajectory",
    "lindblad_evolve",
    "evolve_segments",
    "vacuum_rabi_chevron",
    "swap_gate",
    "SwapGate",
    "displacement_drive",
    "DisplacementDrive",
    "ideal_displacement_amplitude",
    "DISPLACEMENT_BETA_PER_AMP_SEC",
    "collapse_operators",
    "liouvillian",
    "clear_propagator_cache",
]

# beta accumulated per (Hz of drive amplitude) x (second of duration)
DISPLACEMENT_BETA_PER_AMP_SEC = math.pi


@dataclass(frozen=True)
class NoiseModel:
    """Lindblad rates (Hz) plus an optional uncalibrated qubit frequency offset."""

    qubit_gamma1: float = 0.0
    qubit_gamma_phi: float = 0.0
    phonon_kappa1: float = 0.0
    phonon_kappa_phi: float = 0.0
    static_qubit_offset: float = 0.0

    def __post_init__(self):
        for name in ("qubit_gamma1", "qubit_gamma_phi", "phonon_kappa1", "phonon_kappa_phi"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")

    @classmethod
    def from_params(
        cls,
        params: SystemParams,
        delta: float,
        include_qubit: bool = True,
        include_phonon: bool = True,
        static_qubit_offset: float = 0.0,
    ) -> "NoiseModel":
        """Rates for an operating detuning.

        Qubit rates come from the nearest measured operating point; the
        phonon uses the intrinsic (rest-point) rates because Purcell loss
        through the qubit emerges from the simulated coupling itself.
        """
        g1 = params.rate_at("gamma1", delta) if include_qubit else 0.0
        g2 = params.rate_at("gamma2_star", delta) if include_qubit else 0.0
        gphi = g2 - g1 / 2.0
        if gphi < -1e-9:
            raise ValidationError("gamma2* - gamma1/2 must be >= 0")
        k1 = params.kappa1["rest"] if include_phonon else 0.0
        kphi = max(params.kappa2_star["rest"] - params.kappa1["rest"] / 2.0, 0.0) if include_phonon else 0.0
        return cls(
            qubit_gamma1=g1,
            qubit_gamma_phi=max(gphi, 0.0),
            phonon_kappa1=k1,
            phonon_kappa_phi=kphi,
            static_qubit_offset=static_qubit_offset,
        )

    @property
    def is_trivial(self) -> bool:
        """True when no dissipation is present (pure-state evolution allowed)."""
        return (
            self.qubit_gamma1 == 0.0
            and self.qubit_gamma_phi == 0.0
            and self.phonon_kappa1 == 0.0
            and self.phonon_kappa_phi == 0.0
        )

    def without_offset(self) -> "NoiseModel":
        return replace(self, static_qubit_offset=0.0)


def collapse_operators(config: HilbertConfig, noise: NoiseModel) -> list[np.ndarray]:
    """sqrt(gamma1) sigma-, sqrt(gamma_phi/2) sigma_z, sqrt(kappa1) a, sqrt(2 kappa_phi) n."""
    ops = []
    if noise.qubit_gamma1 > 0:
        ops.append(math.sqrt(TWO_PI * noise.qubit_gamma1) * qubit_operator(config, "sigma_minus").matrix)
    if noise.qubit_gamma_phi > 0:
        ops.append(math.sqrt(TWO_PI * noise.qubit_gamma_phi / 2.0) * qubit_operator(config, "sigma_z").matrix)
    for k in range(config.n_modes):
        a = annihilation(config, k).matrix
        if noise.phonon_kappa1 > 0:
            ops.append(math.sqrt(TWO_PI * noise.phonon_kappa1) * a)
        if noise.phonon_kappa_phi > 0:
            ops.append(math.sqrt(2.0 * TWO_PI * noise.phonon_kappa_phi) * (a.conj().T @ a))
    return ops


def liouvillian(h_angular: np.ndarray, collapse: Sequence[np.ndarray]) -> sparse.csr_matrix:
    """Sparse (CSR) superoperator acting on vec(rho) (row-major vectorization)."""
    d = h_angular.shape[0]
    eye = sparse.identity(d, format="csr")
    h = sparse.csr_matrix(h_angular)
    lv = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    for c in collapse:
        c = sparse.csr_matrix(c)
        cdc = c.conj().T @ c
        lv = lv + sparse.kron(c, c.conj()) - 0.5 * (
            sparse.kron(cdc, eye) + sparse.kron(eye, cdc.T)
        )
    return lv.tocsr()


# ---------------------------------------------------------------------------
# pulses, segments, schedules


@dataclass(frozen=True)
class Pulse:
    """Drive pulse within a segment.

    ``amplitude`` is a Rabi rate in Hz for qubit drives (rotation angle of a
    resonant square pulse is 2*pi*amplitude*duration) and a displacement rate
    for phonon drives (|beta| = pi*amplitude*duration on resonance).
    ``phase`` follows the rotation-axis convention of the instantaneous
    pulses used in the sequence layer.  ``carrier_detuning`` is relative to
    the driven system's current frequency.
    """

    shape: str = "square"
    amplitude: float = 0.0
    phase: float = 0.0
    carrier_detuning: float = 0.0
    sigma: float | None = None

    def __post_init__(self):
        if self.shape not in ("square", "gaussian"):
            raise ValidationError(f"unknown pulse shape {self.shape!r}")
        if self.amplitude < 0:
            raise ValidationError("pulse amplitude must be >= 0")
        if self.shape == "gaussian" and (self.sigma is None or self.sigma <= 0):
            raise ValidationError("gaussian pulses need a positive sigma")

    def envelope(self, t_local: float, duration: float) -> float:
        if self.shape == "square":
            return self.amplitude
        # gaussian, truncated at +-4 sigma around the segment midpoint
        arg = (t_local - duration / 2.0) / self.sigma
        if abs(arg) > 4.0:
            return 0.0
        return self.amplitude * math.exp(-0.5 * arg * arg)


@dataclass(frozen=True)
class Segment:
    """One piece of a schedule: a detuning with optional ramp and drives."""

    duration: float
    detuning: float
    qubit_drive: Pulse | None = None
    phonon_drive: Pulse | None = None
    ramp: str = "instantaneous"
    ramp_time: float = 0.0
    ramp_from: float | None = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError("segment duration must be > 0")
        if self.ramp not in ("instantaneous", "linear"):
            raise ValidationError(f"unknown ramp {self.ramp!r}")
        if self.ramp == "linear" and not 0 < self.ramp_time <= self.duration:
            raise ValidationError("ramp time must lie in (0, duration]")

    @property
    def is_time_dependent(self) -> bool:
        if self.ramp == "linear":
            return True
        if self.qubit_drive is not None:
            # carrier in the phonon frame sits at detuning + carrier_detuning
            if self.qubit_drive.shape != "square":
                return True
            if self.detuning + self.qubit_drive.carrier_detuning != 0.0:
                return True
        if self.phonon_drive is not None:
            if self.phonon_drive.shape != "square" or self.phonon_drive.carrier_detuning != 0.0:
                return True
        return False


@dataclass(frozen=True)
class Schedule:
    """Contiguous, non-overlapping segments."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        segs = tuple(self.segments)
        if not segs:
            raise ValidationError("schedule needs at least one segment")
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)


# ---------------------------------------------------------------------------
# propagator cache


class _PropagatorCache:
    """Size-budgeted LRU for segment propagators, keyed by the segment's inputs.

    The budget counts stored elements: ``size`` of a dense array, ``nnz`` of
    a sparse one.  Unlocked: every sweep runs in one thread.
    """

    def __init__(self, max_elements: float = 4.8e7):
        self._data: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._max_elements = max_elements

    def get(self, key: tuple):
        if key in self._data:
            self._data.move_to_end(key)
            return self._data[key]
        return None

    def put(self, key: tuple, value: np.ndarray):
        self._data[key] = value
        self._data.move_to_end(key)
        total = sum(v.size for v in self._data.values())
        while total > self._max_elements and len(self._data) > 1:
            _, old = self._data.popitem(last=False)
            total -= old.size

    def clear(self):
        self._data.clear()


_CACHE = _PropagatorCache()


def clear_propagator_cache():
    _CACHE.clear()


def _propagator(h_angular: np.ndarray, collapse: Sequence[np.ndarray], duration: float):
    """exp(L t) on vec(rho) (d^2 rows) with collapse operators, else exp(-i H t) (d rows)."""
    if collapse:
        return _blocked_expm(liouvillian(h_angular, collapse) * duration)
    return hermitian_propagator(h_angular, duration)


def _segment_propagator(seg: Segment, params: SystemParams, config: HilbertConfig,
                        noise: NoiseModel):
    """Cached propagator of a constant segment.

    The key is every input H and the collapse operators are built from, so
    nothing is built or hashed beyond the arguments on a hit.
    """
    key = (seg, params, config, noise)
    prop = _CACHE.get(key)
    if prop is None:
        h = full_jc_hamiltonian(
            params, config, seg.detuning + noise.static_qubit_offset, frame="phonon_rotating"
        ).matrix + _constant_drive_hamiltonian(config, seg)
        prop = _propagator(h, collapse_operators(config, noise), seg.duration)
        _CACHE.put(key, prop)
    return prop


def _apply(prop, state):
    """U psi, U rho U^dag or P vec(rho), chosen by the propagator's row count.

    A Ket handed a superoperator (d^2 rows) becomes a density matrix.
    """
    config = state.config
    d = config.dim
    if prop.shape[0] == d * d:
        rho = state.to_density() if isinstance(state, Ket) else state
        return DensityMatrix(config, (prop @ rho.matrix.reshape(-1)).reshape(d, d))
    if isinstance(state, Ket):
        return Ket(config, prop @ state.amplitudes, normalized=False)
    return DensityMatrix(config, prop @ state.matrix @ prop.conj().T)


def _blocked_expm(gen: sparse.csr_matrix):
    """exp(gen), exponentiating each connected component of its nonzero pattern.

    A generator that splits into independent blocks gives a sparse (CSR)
    propagator with exactly zero coupling between the blocks; one that is a
    single block (a driven segment) gives the dense ``ndarray``.
    """
    n_blocks, labels = connected_components(gen != 0, directed=False)
    if n_blocks == 1:
        return _expm(gen.toarray())
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_blocks + 1))
    permuted = gen[order][:, order]
    blocks = [_expm(permuted[a:b, a:b].toarray()) for a, b in zip(bounds[:-1], bounds[1:])]
    p = sparse.block_diag(blocks, format="coo")
    return sparse.csr_matrix((p.data, (order[p.row], order[p.col])), shape=gen.shape)


# ---------------------------------------------------------------------------
# master-equation integration


@dataclass
class Trajectory:
    times: np.ndarray
    states: list[DensityMatrix]

    def expectations(self, op: OperatorMatrix) -> np.ndarray:
        return np.array([np.real(np.trace(s.matrix @ op.matrix)) for s in self.states])

    @property
    def final(self) -> DensityMatrix:
        return self.states[-1]


def _as_h_callable(hamiltonian_of_t) -> Callable[[float], np.ndarray]:
    if isinstance(hamiltonian_of_t, OperatorMatrix):
        m = hamiltonian_of_t.matrix
        return lambda t: m
    if isinstance(hamiltonian_of_t, np.ndarray):
        return lambda t: hamiltonian_of_t
    if callable(hamiltonian_of_t):
        return hamiltonian_of_t
    raise ValidationError("hamiltonian_of_t must be an operator, array, or callable")


def lindblad_evolve(
    rho0: DensityMatrix,
    hamiltonian_of_t,
    noise: NoiseModel,
    t_span: tuple[float, float],
    t_eval: Sequence[float] | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    validate: bool = True,
) -> Trajectory:
    """Adaptive RK45 integration of the vectorized master equation.

    Every stored state is checked for trace preservation (1e-6), hermiticity
    (1e-8), and positivity (eigenvalues above -1e-6).
    """
    config = rho0.config
    d = config.dim
    h_of_t = _as_h_callable(hamiltonian_of_t)
    cs = collapse_operators(config, noise)
    cdc = [c.conj().T @ c for c in cs]

    def rhs(t, y):
        rho = y.reshape(d, d)
        h = h_of_t(t)
        drho = -1j * (h @ rho - rho @ h)
        for c, n in zip(cs, cdc):
            drho += c @ rho @ c.conj().T - 0.5 * (n @ rho + rho @ n)
        return drho.reshape(-1)

    sol = solve_ivp(
        rhs,
        t_span,
        rho0.matrix.reshape(-1).astype(complex),
        t_eval=t_eval,
        method="RK45",
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise NumericError(f"master-equation integration failed: {sol.message}")
    states = []
    for k in range(sol.y.shape[1]):
        rho = DensityMatrix(config, sol.y[:, k].reshape(d, d))
        if validate:
            _validate_evolved(rho)
        states.append(rho)
    return Trajectory(times=sol.t, states=states)


def _validate_evolved(rho: DensityMatrix):
    tr = rho.trace()
    if abs(tr - 1.0) > 1e-6:
        raise NumericError(f"trace drifted to {tr!r}")
    defect = float(np.abs(rho.matrix - rho.matrix.conj().T).max())
    if defect > 1e-8:
        raise NumericError(f"hermiticity defect {defect:.2e}")
    lo = float(np.linalg.eigvalsh(0.5 * (rho.matrix + rho.matrix.conj().T)).min())
    if lo < -1e-6:
        raise NumericError(f"state developed negative eigenvalue {lo:.2e}")


# ---------------------------------------------------------------------------
# segment execution


def _drive_terms(config: HilbertConfig, segment: Segment):
    """Returns [(op_plus, op_minus, carrier_hz, phase, pulse)] for active drives."""
    terms = []
    if segment.qubit_drive is not None:
        p = segment.qubit_drive
        sp = qubit_operator(config, "sigma_plus").matrix
        sm = qubit_operator(config, "sigma_minus").matrix
        carrier = segment.detuning + p.carrier_detuning  # in phonon frame
        drive_phase = -(p.phase + math.pi / 2.0)  # rotation-axis convention
        terms.append((sp, sm, carrier, drive_phase, p))
    if segment.phonon_drive is not None:
        p = segment.phonon_drive
        a = annihilation(config, 0).matrix
        terms.append((a.conj().T, a, p.carrier_detuning, p.phase, p))
    return terms


def _segment_h_of_t(params, config, segment: Segment, noise: NoiseModel):
    """Time-dependent Hamiltonian callable for one segment (local time)."""
    h_static = full_jc_hamiltonian(
        params, config, segment.detuning + noise.static_qubit_offset, frame="phonon_rotating"
    ).matrix
    sz_half = TWO_PI * 0.5 * qubit_operator(config, "sigma_z").matrix
    terms = _drive_terms(config, segment)
    ramp_from = segment.ramp_from if segment.ramp_from is not None else segment.detuning

    def h_of_t(t):
        h = h_static
        if segment.ramp == "linear" and t < segment.ramp_time:
            frac = t / segment.ramp_time
            delta_now = ramp_from + (segment.detuning - ramp_from) * frac
            h = h + (delta_now - segment.detuning) * sz_half
        for op_p, op_m, carrier, phase, pulse in terms:
            amp = pulse.envelope(t, segment.duration)
            if amp == 0.0:
                continue
            ph = TWO_PI * carrier * t + phase
            h = h + TWO_PI * 0.5 * amp * (np.exp(-1j * ph) * op_p + np.exp(1j * ph) * op_m)
        return h

    return h_of_t


def evolve_segments(
    state,
    segments: Sequence[Segment],
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    rtol: float = 1e-8,
    atol: float = 1e-10,
):
    """Run a list of segments; instantaneous detuning changes are frame jumps.

    A Ket stays a Ket while the noise is trivial and is evolved unitarily.
    Dissipative segments need a density matrix: this is the one place a Ket
    becomes a ``DensityMatrix``.  Constant segments apply their cached
    propagator; time-dependent ones are integrated with RK.
    """
    if isinstance(state, Ket) and not noise.is_trivial:
        state = state.to_density()
    prev_detuning = None
    for seg in segments:
        if seg.ramp == "linear" and seg.ramp_from is None and prev_detuning is not None:
            seg = replace(seg, ramp_from=prev_detuning)
        if seg.is_time_dependent:
            state = _evolve_time_dependent(state, seg, params, config, noise, rtol, atol)
        else:
            state = _apply(_segment_propagator(seg, params, config, noise), state)
        prev_detuning = seg.detuning
    return state


def _constant_drive_hamiltonian(config: HilbertConfig, segment: Segment) -> np.ndarray:
    """Drive terms that are static in the phonon frame (resonant square drives)."""
    h = np.zeros((config.dim, config.dim), dtype=complex)
    for op_p, op_m, carrier, phase, pulse in _drive_terms(config, segment):
        if pulse.shape != "square" or carrier != 0.0:
            raise ValidationError("segment marked constant has a rotating drive")
        h = h + TWO_PI * 0.5 * pulse.amplitude * (
            np.exp(-1j * phase) * op_p + np.exp(1j * phase) * op_m
        )
    return h


def _evolve_time_dependent(state, seg, params, config, noise, rtol, atol):
    h_of_t = _segment_h_of_t(params, config, seg, noise)
    if isinstance(state, Ket):
        def rhs(t, y):
            return -1j * (h_of_t(t) @ y)

        sol = solve_ivp(
            rhs, (0.0, seg.duration), state.amplitudes.astype(complex),
            method="RK45", rtol=rtol, atol=atol,
        )
        if not sol.success:
            raise NumericError(f"unitary integration failed: {sol.message}")
        return Ket(config, sol.y[:, -1], normalized=False)
    traj = lindblad_evolve(
        state, h_of_t, noise, (0.0, seg.duration), t_eval=[seg.duration],
        rtol=rtol, atol=atol, validate=False,
    )
    return traj.final


# ---------------------------------------------------------------------------
# named operations


def vacuum_rabi_chevron(
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    detuning_grid: Sequence[float],
    time_grid: Sequence[float],
) -> np.ndarray:
    """Excited-qubit population map P_e(detuning, time), qubit starts |e>, modes in vacuum.

    The time grid must be uniform starting at 0 (stepped propagators).
    """
    times = np.asarray(time_grid, dtype=float)
    if times[0] != 0.0 or times.size < 2:
        raise ValidationError("time grid must start at 0 with at least two points")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-15):
        raise ValidationError("time grid must be uniform")

    pe = qubit_projector(config, 1)
    psi0 = fock_state(config, [0] * config.n_modes, 1)
    out = np.empty((len(detuning_grid), times.size))
    for i, delta in enumerate(detuning_grid):
        prop = _segment_propagator(Segment(dt, delta), params, config, noise)
        state = psi0
        for j in range(times.size):
            if j:
                state = _apply(prop, state)
            out[i, j] = expectation(state, pe).real
    return out


@dataclass(frozen=True)
class SwapGate:
    """Resonant qubit-phonon excitation swap (half a vacuum-Rabi period)."""

    params: SystemParams
    config: HilbertConfig
    noise: NoiseModel
    mode_index: int = 0

    @property
    def duration(self) -> float:
        return 1.0 / (4.0 * self.params.mode_g(self.mode_index))

    @property
    def schedule(self) -> Schedule:
        return Schedule((Segment(duration=self.duration, detuning=self.mode_offset()),))

    def mode_offset(self) -> float:
        # resonance with the chosen mode, expressed as qubit-LG00 detuning
        return self.params.mode_offset(self.mode_index)

    def apply(self, state, n_target: int = 1):
        """Swap calibrated for the |e, n-1> <-> |g, n> transition (default n=1)."""
        seg = Segment(
            duration=self.duration / math.sqrt(n_target), detuning=self.mode_offset()
        )
        return evolve_segments(state, [seg], self.params, self.config, self.noise)


def swap_gate(params, config, noise, mode_index: int = 0) -> SwapGate:
    return SwapGate(params, config, noise, mode_index)


@dataclass(frozen=True)
class DisplacementDrive:
    """Resonant phonon displacement drive with the qubit parked at rest."""

    params: SystemParams
    config: HilbertConfig
    noise: NoiseModel
    amplitude: float
    phase: float = 0.0
    duration: float = 1e-6

    @property
    def beta_ideal(self) -> complex:
        """Coherent amplitude in the noiseless, unhybridized limit."""
        return -1j * math.pi * self.amplitude * self.duration * np.exp(1j * self.phase)

    @property
    def segment(self) -> Segment:
        return Segment(
            duration=self.duration,
            detuning=self.params.delta("rest"),
            phonon_drive=Pulse(shape="square", amplitude=self.amplitude, phase=self.phase),
        )

    def apply(self, state):
        return evolve_segments(state, [self.segment], self.params, self.config, self.noise)


def displacement_drive(
    params, config, noise, amplitude: float, phase: float = 0.0, duration: float = 1e-6
) -> DisplacementDrive:
    return DisplacementDrive(params, config, noise, amplitude, phase, duration)


def ideal_displacement_amplitude(amplitude: float, duration: float) -> float:
    """|beta| reached by a resonant square drive of given rate (Hz) and length (s)."""
    return DISPLACEMENT_BETA_PER_AMP_SEC * amplitude * duration
