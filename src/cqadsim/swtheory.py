"""Schrieffer-Wolff analytic track for the dispersive qubit-phonon system.

The transformation U = exp(A) with A = eps sigma+ a - eps* sigma- a^dag,
eps = g/Delta, removes the exchange coupling to first order.  This module
provides the transformed rotating-frame Hamiltonian, the perturbed basis
states, a closed-form Ramsey <sigma_z> correct through second order in eps,
and exact-diagonalization dispersive shifts.

The second-order Ramsey expression is not transcribed from anywhere: it is
evaluated by carrying the state through the pulse/transform/evolve
composition as a polynomial in the formal variables (eps, eps*), truncated
at total degree two.  That makes every first- and second-order constant an
output of the algebra, checkable against the exact matrix-exponential
composition (see ``ramsey_sigma_z_exact_sw``).

The full-JC oracles take their Hamiltonian from ``device.full_jc_hamiltonian``
in the frame rotating at the dressed qubit frequency Delta' = Delta + g^2/Delta,
and their pulses from ``hilbert.qubit_rotation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .device import TWO_PI, SystemParams, chi_analytic, delta_prime, full_jc_hamiltonian
from .exceptions import NumericError, TruncationError, ValidationError
from .hilbert import (
    HilbertConfig,
    Ket,
    OperatorMatrix,
    annihilation,
    hermitian_propagator,
    matrix_exp,
    number_operator,
    qubit_operator,
    qubit_rotation,
)

__all__ = [
    "SWExpansion",
    "RamseyPrediction",
    "sw_generator",
    "sw_expansion",
    "sw_rotating_hamiltonian",
    "sw_transform_state",
    "ramsey_prediction",
    "ramsey_sigma_z_analytic",
    "ramsey_sigma_z_from_phases",
    "ramsey_sigma_z_exact_phases",
    "echo_sigma_z_analytic",
    "ramsey_sigma_z_exact_sw",
    "ramsey_sigma_z_jc",
    "echo_sigma_z_jc",
    "chi_numeric",
]


def _require_two_level_single_mode(config: HilbertConfig):
    if config.qubit_levels != 2 or config.n_modes != 1:
        raise ValidationError("the SW track models a two-level qubit and a single mode")


# ---------------------------------------------------------------------------
# transformed Hamiltonian and states


def sw_rotating_hamiltonian(params: SystemParams, config: HilbertConfig, delta: float) -> OperatorMatrix:
    """-Delta' a^dag a + (chi/2) sigma_z a^dag a, angular units (diagonal)."""
    _require_two_level_single_mode(config)
    if delta == 0.0:
        raise ValidationError("detuning must be nonzero")
    dp = delta_prime(params.g_lg00, delta)
    chi = chi_analytic(params.g_lg00, delta, params.alpha, form="approximate")
    n = number_operator(config, 0).matrix
    sz = qubit_operator(config, "sigma_z").matrix
    h = TWO_PI * (-dp * n + 0.5 * chi * (sz @ n))
    return OperatorMatrix(config, h, hermitian=True)


def sw_generator(config: HilbertConfig, epsilon: complex) -> OperatorMatrix:
    """A = eps sigma+ a - eps* sigma- a^dag (dimensionless, anti-Hermitian)."""
    _require_two_level_single_mode(config)
    a = annihilation(config, 0).matrix
    sp = qubit_operator(config, "sigma_plus").matrix
    sm = qubit_operator(config, "sigma_minus").matrix
    m = epsilon * (sp @ a) - np.conj(epsilon) * (sm @ a.conj().T)
    return OperatorMatrix(config, m)


@dataclass(frozen=True)
class SWExpansion:
    """Generator, unitary, and transformed Hamiltonian at one detuning."""

    epsilon: complex
    order: int
    generator: OperatorMatrix
    transformed_h: OperatorMatrix

    def flip_block_norm(self) -> float:
        """Norm of the qubit-flip block of the transformed Hamiltonian."""
        cfg = self.generator.config
        d = cfg.phonon_dims[0]
        m = self.transformed_h.matrix.reshape(2, d, 2, d)
        return float(np.linalg.norm(m[0, :, 1, :]) + np.linalg.norm(m[1, :, 0, :]))


def sw_expansion(params: SystemParams, config: HilbertConfig, delta: float, order: int = 2) -> SWExpansion:
    _require_two_level_single_mode(config)
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    eps = params.g_lg00 / delta
    gen = sw_generator(config, eps)
    scale = max(np.abs(gen.matrix).max(), 1e-300)
    if np.abs(gen.matrix + gen.matrix.conj().T).max() / scale > 1e-12:
        raise NumericError("SW generator is not anti-Hermitian")
    h = full_jc_hamiltonian(params, config, delta, frame="phonon_rotating").matrix
    u = matrix_exp(gen.matrix)
    transformed = OperatorMatrix(config, u @ h @ u.conj().T)
    return SWExpansion(epsilon=eps, order=order, generator=gen, transformed_h=transformed)


def sw_transform_state(ket: Ket, epsilon: complex, order: int = 2) -> Ket:
    """Apply the truncated expansion of U = exp(A) to a state.

    Implements U|g,n> = |g,n> + eps sqrt(n)|e,n-1> - |eps|^2/2 n |g,n> and the
    matching |e,n> action; no renormalization is applied (the expansion is
    used as-is).  The top ladder level must be unoccupied.
    """
    cfg = ket.config
    _require_two_level_single_mode(cfg)
    if order not in (1, 2):
        raise ValidationError("order must be 1 or 2")
    d = cfg.phonon_dims[0]
    amps = ket.amplitudes.reshape(2, d)
    if np.abs(amps[:, d - 1]).max() > 1e-12:
        raise TruncationError("state occupies the top ladder level; enlarge the truncation")
    g, e = amps[0], amps[1]
    n = np.arange(d, dtype=float)
    out_g = g.astype(complex).copy()
    out_e = e.astype(complex).copy()
    # A|g,n> = eps sqrt(n) |e,n-1>;  A|e,n> = -eps* sqrt(n+1) |g,n+1>
    out_e[:-1] += epsilon * np.sqrt(n[1:]) * g[1:]
    out_g[1:] += -np.conj(epsilon) * np.sqrt(n[1:]) * e[:-1]
    if order >= 2:
        a2 = abs(epsilon) ** 2 / 2.0
        out_g += -a2 * n * g
        out_e += -a2 * (n + 1.0) * e
    return Ket(cfg, np.concatenate([out_g, out_e]), normalized=False)


# ---------------------------------------------------------------------------
# polynomial algebra in (eps, eps*) up to total degree 2

_GRADES = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2))


class _GradedState:
    """Qubit+mode amplitudes with coefficients graded by powers of (eps, eps*)."""

    def __init__(self, dim: int):
        self.dim = dim
        self.parts: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def from_mode_coefficients(cls, c: np.ndarray, dim: int) -> "_GradedState":
        st = cls(dim)
        base = np.zeros((2, dim), dtype=complex)
        base[0, : c.size] = c  # qubit |g>
        st.parts[(0, 0)] = base
        return st

    def _add(self, grade, arr):
        if grade[0] + grade[1] > 2:
            return
        if grade in self.parts:
            self.parts[grade] = self.parts[grade] + arr
        else:
            self.parts[grade] = arr

    def pulse(self, theta: float, eta: float):
        """Counterclockwise rotation: |g> -> cos|g> + e^{i theta} sin|e>."""
        c, s = math.cos(eta / 2.0), math.sin(eta / 2.0)
        for grade, arr in list(self.parts.items()):
            g, e = arr[0].copy(), arr[1].copy()
            new = np.empty_like(arr)
            new[0] = c * g - np.exp(-1j * theta) * s * e
            new[1] = np.exp(1j * theta) * s * g + c * e
            self.parts[grade] = new

    def sw(self, direction: int, eps_sign: int = 1):
        """Apply I + dA + A^2/2 with d = direction (+1 for U, -1 for U^dag).

        ``eps_sign`` tracks a sign flip of epsilon itself (detuning -Delta).
        """
        n = np.arange(self.dim, dtype=float)
        sq = np.sqrt(n)
        updates = []
        for (p, q), arr in self.parts.items():
            g, e = arr[0], arr[1]
            # grade (p+1, q): eps sqrt(n) g_n -> e_{n-1}
            first = np.zeros_like(arr)
            first[1, :-1] = sq[1:] * g[1:]
            first[0, 1:] = 0.0
            updates.append(((p + 1, q), direction * eps_sign * first))
            # grade (p, q+1): -eps* sqrt(n+1) e_n -> g_{n+1}
            second = np.zeros_like(arr)
            second[0, 1:] = -sq[1:] * e[:-1]
            updates.append(((p, q + 1), direction * eps_sign * second))
            # grade (p+1, q+1): -(1/2)(n g_n, (n+1) e_n); direction^2 = 1
            diag = np.zeros_like(arr)
            diag[0] = -0.5 * n * g
            diag[1] = -0.5 * (n + 1.0) * e
            updates.append(((p + 1, q + 1), diag))
        for grade, arr in updates:
            self._add(grade, arr)

    def evolve(self, phi: float, psi: float):
        """Diagonal phases: |g,n> gains e^{+i n(phi+psi)}, |e,n> e^{+i n(phi-psi)}."""
        n = np.arange(self.dim, dtype=float)
        pg = np.exp(1j * n * (phi + psi))
        pe = np.exp(1j * n * (phi - psi))
        for grade, arr in list(self.parts.items()):
            new = arr.copy()
            new[0] = arr[0] * pg
            new[1] = arr[1] * pe
            self.parts[grade] = new

    def sigma_z_by_order(self, epsilon: complex) -> dict[int, complex]:
        """<sigma_z> as {order: value}, truncated at total degree 2."""
        out: dict[int, complex] = {0: 0.0, 1: 0.0, 2: 0.0}
        items = list(self.parts.items())
        for (p, q), a1 in items:
            for (r, s), a2 in items:
                total_p, total_q = p + s, q + r
                if total_p + total_q > 2:
                    continue
                weight = (epsilon ** total_p) * (np.conj(epsilon) ** total_q)
                val = np.sum(a1[1] * a2[1].conj()) - np.sum(a1[0] * a2[0].conj())
                out[total_p + total_q] += weight * val
        return out


def _phases(params: SystemParams, delta: float, t: float) -> tuple[float, float]:
    """phi = Delta'(delta) t, psi = chi(delta) t / 2 (angular, signed)."""
    dp = delta_prime(params.g_lg00, delta)
    chi = chi_analytic(params.g_lg00, delta, params.alpha, form="approximate")
    return TWO_PI * dp * t, TWO_PI * chi * t / 2.0


def _check_inputs(c, t, params, delta, chi_sign):
    c = np.asarray(c, dtype=complex).reshape(-1)
    if abs(np.sum(np.abs(c) ** 2) - 1.0) > 1e-9:
        raise ValidationError("Fock coefficients must be normalized to 1 within 1e-9")
    if t <= 0:
        raise ValidationError("interaction time must be positive")
    if delta == 0.0:
        raise ValidationError("detuning must be nonzero")
    if chi_sign not in (+1, -1):
        raise ValidationError("chi_sign must be +1 or -1")
    if chi_sign != (1 if delta > 0 else -1):
        raise ValidationError(
            f"chi_sign {chi_sign} contradicts sign(delta)={'+1' if delta > 0 else '-1'}"
        )
    return c


@dataclass(frozen=True)
class RamseyPrediction:
    """Order-separated closed-form Ramsey <sigma_z>."""

    order0: float
    order1: float
    order2: float
    epsilon: complex
    phi: float
    theta: float

    @property
    def total(self) -> float:
        return self.order0 + self.order1 + self.order2

    @property
    def terms(self) -> Mapping[str, float]:
        return {"order0": self.order0, "order1": self.order1, "order2": self.order2}


def _graded_ramsey(c: np.ndarray, theta: float, phi: float, psi: float, dim: int) -> _GradedState:
    st = _GradedState.from_mode_coefficients(c, dim)
    st.pulse(theta, math.pi / 2.0)
    st.sw(+1)
    st.evolve(phi, psi)
    st.sw(-1)
    st.pulse(theta, math.pi / 2.0)
    return st


def ramsey_prediction(
    c: Sequence[complex],
    theta: float,
    t: float,
    params: SystemParams,
    delta: float,
    chi_sign: int,
) -> RamseyPrediction:
    """Closed-form Ramsey <sigma_z>_theta through second order in eps = g/Delta."""
    c = _check_inputs(c, t, params, delta, chi_sign)
    eps = params.g_lg00 / delta
    phi, psi = _phases(params, delta, t)
    st = _graded_ramsey(c, theta, phi, psi, c.size + 3)
    orders = st.sigma_z_by_order(eps)
    for k, v in orders.items():
        if abs(np.imag(v)) > 1e-10:
            raise NumericError(f"order-{k} term has imaginary part {np.imag(v):.2e}")
    return RamseyPrediction(
        order0=float(np.real(orders[0])),
        order1=float(np.real(orders[1])),
        order2=float(np.real(orders[2])),
        epsilon=eps,
        phi=phi,
        theta=theta,
    )


def ramsey_sigma_z_analytic(
    c: Sequence[complex],
    theta: float,
    t: float,
    params: SystemParams,
    delta: float,
    chi_sign: int,
) -> float:
    return ramsey_prediction(c, theta, t, params, delta, chi_sign).total


def ramsey_sigma_z_from_phases(
    c: Sequence[complex], theta: float, eps: complex, phi: float, psi: float
) -> float:
    """Order-eps^2 Ramsey expectation at explicit evolution phases (testing hook)."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    st = _graded_ramsey(c, theta, phi, psi, c.size + 3)
    orders = st.sigma_z_by_order(eps)
    return float(np.real(sum(orders.values())))


def ramsey_sigma_z_exact_phases(
    c: Sequence[complex], theta: float, eps: complex, phi: float, psi: float
) -> float:
    """Exact exp(A) composition at explicit evolution phases (testing hook)."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    config = HilbertConfig(2, (c.size + 6,))
    d = config.phonon_dims[0]
    u = matrix_exp(sw_generator(config, eps).matrix)
    n = np.arange(d)
    phases = np.concatenate([np.exp(1j * n * (phi + psi)), np.exp(1j * n * (phi - psi))])
    r = qubit_rotation(config, theta, math.pi / 2.0)
    psi_v = r @ _state_from_coeffs(config, c)
    psi_v = u.conj().T @ (phases * (u @ psi_v))
    psi_v = r @ psi_v
    return _sigma_z_of(psi_v)


def echo_sigma_z_analytic(
    c: Sequence[complex],
    theta: float,
    t_total: float,
    params: SystemParams,
    delta: float,
    chi_sign: int,
) -> float:
    """Echo-sequence <sigma_z>_theta through second order in eps.

    Composition: pi/2 -> half evolution at delta -> pi echo -> half evolution
    at -delta (eps and chi flip sign) -> pi/2, all with the same pulse phase.
    """
    c = _check_inputs(c, t_total, params, delta, chi_sign)
    eps = params.g_lg00 / delta
    phi1, psi1 = _phases(params, delta, t_total / 2.0)
    phi2, psi2 = _phases(params, -delta, t_total / 2.0)
    st = _GradedState.from_mode_coefficients(np.asarray(c, dtype=complex), len(c) + 3)
    st.pulse(theta, math.pi / 2.0)
    st.sw(+1, eps_sign=+1)
    st.evolve(phi1, psi1)
    st.sw(-1, eps_sign=+1)
    st.pulse(theta, math.pi)
    st.sw(+1, eps_sign=-1)
    st.evolve(phi2, psi2)
    st.sw(-1, eps_sign=-1)
    st.pulse(theta, math.pi / 2.0)
    orders = st.sigma_z_by_order(eps)
    return float(np.real(orders[0] + orders[1] + orders[2]))


# ---------------------------------------------------------------------------
# exact composition oracles


def _sigma_z_of(psi: np.ndarray) -> float:
    """<sigma_z> of a two-level qubit + one mode state vector."""
    g, e = psi.reshape(2, -1)
    return float(np.sum(np.abs(e) ** 2) - np.sum(np.abs(g) ** 2))


def _state_from_coeffs(config: HilbertConfig, c: np.ndarray) -> np.ndarray:
    d = config.phonon_dims[0]
    v = np.zeros(2 * d, dtype=complex)
    v[: c.size] = c  # qubit |g> block
    return v


def ramsey_sigma_z_exact_sw(
    c: Sequence[complex], theta: float, t: float, params: SystemParams, delta: float
) -> float:
    """Same composition with the exact U = exp(A): the matrix-exponential oracle."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    config = HilbertConfig(2, (c.size + 6,))
    eps = params.g_lg00 / delta
    u = matrix_exp(sw_generator(config, eps).matrix)
    hr = sw_rotating_hamiltonian(params, config, delta).matrix
    ev = np.diag(np.exp(-1j * np.diag(hr) * t))
    r = qubit_rotation(config, theta, math.pi / 2.0)
    psi = _state_from_coeffs(config, c)
    psi = r @ psi
    psi = u.conj().T @ (ev @ (u @ psi))
    psi = r @ psi
    return _sigma_z_of(psi)


def _dressed_frame_propagator(params, config, delta, t) -> np.ndarray:
    """exp(-i H t) of the full JC Hamiltonian rotating at the dressed qubit frequency."""
    frame = delta_prime(params.g_lg00, delta)
    return hermitian_propagator(full_jc_hamiltonian(params, config, delta, frame=frame).matrix, t)


def ramsey_sigma_z_jc(
    c: Sequence[complex], theta: float, t: float, params: SystemParams, delta: float,
    margin: int = 6,
) -> float:
    """Noiseless full-JC simulation of the idealized Ramsey sequence.

    Instantaneous pi/2 pulses; the interaction runs in the frame rotating at
    the dressed qubit frequency (the frame the analytic result lives in).
    """
    c = np.asarray(c, dtype=complex).reshape(-1)
    config = HilbertConfig(2, (c.size + margin,))
    ev = _dressed_frame_propagator(params, config, delta, t)
    r = qubit_rotation(config, theta, math.pi / 2.0)
    psi = r @ (ev @ (r @ _state_from_coeffs(config, c)))
    return _sigma_z_of(psi)


def echo_sigma_z_jc(
    c: Sequence[complex], theta: float, t_total: float, params: SystemParams, delta: float,
    margin: int = 6,
) -> float:
    """Noiseless full-JC simulation of the idealized echo sequence."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    config = HilbertConfig(2, (c.size + margin,))
    ev1 = _dressed_frame_propagator(params, config, delta, t_total / 2.0)
    ev2 = _dressed_frame_propagator(params, config, -delta, t_total / 2.0)
    r_half = qubit_rotation(config, theta, math.pi / 2.0)
    r_pi = qubit_rotation(config, theta, math.pi)
    psi = r_half @ (ev2 @ (r_pi @ (ev1 @ (r_half @ _state_from_coeffs(config, c)))))
    return _sigma_z_of(psi)


# ---------------------------------------------------------------------------
# numerical dispersive shifts


def chi_numeric(
    params: SystemParams, config: HilbertConfig, delta: float, n_max: int
) -> list[float]:
    """Per-phonon qubit frequency shifts from exact JC diagonalization, Hz.

    shift_n = [f_q(n+1 phonons) - f_q(n phonons)] with f_q(n) the dressed
    qubit frequency E(e,n) - E(g,n); dressed labels are assigned by maximal
    overlap with the bare states.
    """
    _require_two_level_single_mode(config)
    d = config.phonon_dims[0]
    if d < n_max + 5:
        raise ValidationError(f"truncation dim {d} must be >= n_max + 5 = {n_max + 5}")
    h = full_jc_hamiltonian(params, config, delta, frame="phonon_rotating").matrix
    w, v = np.linalg.eigh(h)
    overlaps = np.abs(v) ** 2
    energies = {}
    for col in range(len(w)):
        basis_idx = int(np.argmax(overlaps[:, col]))
        # 0.5 is the equal-mixing point; the pad absorbs floating error
        if overlaps[basis_idx, col] < 0.5 + 1e-4:
            q, n = divmod(basis_idx, d)
            raise NumericError(
                f"ambiguous dressed-state identification near |{'ge'[q]},{n}>: "
                f"max overlap {overlaps[basis_idx, col]:.3f} < 0.5"
            )
        if basis_idx in energies:
            raise NumericError(f"two eigenstates claim basis index {basis_idx}")
        energies[basis_idx] = w[col] / TWO_PI
    def f_q(n):
        return energies[1 * d + n] - energies[0 * d + n]

    return [f_q(n + 1) - f_q(n) for n in range(n_max)]
