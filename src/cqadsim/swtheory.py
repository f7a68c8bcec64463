"""Schrieffer-Wolff analytic track for the dispersive qubit-phonon system.

The transformation U = exp(A) with A = eps sigma+ a - eps* sigma- a^dag,
eps = g/Delta, removes the exchange coupling to first order
(``sw_flip_block_norm`` measures what it leaves).  In the transformed frame
the evolution is diagonal: |g,n> and |e,n> gain the phases n(phi + psi) and
n(phi - psi), phi = Delta' t and psi = chi t/2.  This module provides
closed-form Ramsey and echo <sigma_z> correct through second order in eps,
and exact-diagonalization dispersive shifts.

The second-order expressions are not transcribed from anywhere: one
composition (``_graded_sigma_z``) carries the state through the
pulse/transform/evolve steps as a power series in one expansion parameter
lam (eps -> lam eps, with eps a number), truncated at lam^2.  The series is
one array of orders 0-2 on which every step acts at once, and <sigma_z> of
order k sums <psi_j|sigma_z|psi_i> over i + j = k.  That makes every first-
and second-order constant an output of the algebra, checkable against the
exact matrix-exponential composition at the same phases
(``ramsey_sigma_z_exact_phases``).

The full-JC oracles take their Hamiltonian from ``device.full_jc_hamiltonian``
in the frame rotating at the dressed qubit frequency Delta' = Delta + g^2/Delta,
and their pulses from ``hilbert.qubit_rotation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .device import TWO_PI, SystemParams, chi_analytic, delta_prime, full_jc_hamiltonian
from .exceptions import NumericError, ValidationError
from .hilbert import (
    HilbertConfig,
    OperatorMatrix,
    annihilation,
    hermitian_propagator,
    qubit_operator,
    qubit_rotation,
)

__all__ = [
    "RamseyPrediction",
    "sw_generator",
    "sw_flip_block_norm",
    "ramsey_prediction",
    "ramsey_sigma_z_from_phases",
    "ramsey_sigma_z_exact_phases",
    "echo_sigma_z_analytic",
    "ramsey_sigma_z_jc",
    "echo_sigma_z_jc",
    "chi_numeric",
]


def _require_single_mode(config: HilbertConfig):
    if config.n_modes != 1:
        raise ValidationError("the SW track models a single mode")


# ---------------------------------------------------------------------------
# the transformation


def sw_generator(config: HilbertConfig, epsilon: complex) -> OperatorMatrix:
    """A = eps sigma+ a - eps* sigma- a^dag (dimensionless, anti-Hermitian)."""
    _require_single_mode(config)
    a = annihilation(config, 0).matrix
    sp = qubit_operator(config, "sigma_plus").matrix
    sm = qubit_operator(config, "sigma_minus").matrix
    m = epsilon * (sp @ a) - np.conj(epsilon) * (sm @ a.conj().T)
    return OperatorMatrix(config, m)


def sw_flip_block_norm(params: SystemParams, config: HilbertConfig, delta: float) -> float:
    """Norm of the qubit-flip block of U H U^dag, U = exp(A), H the phonon-frame JC Hamiltonian."""
    gen = sw_generator(config, params.g_lg00 / delta).matrix
    scale = max(np.abs(gen).max(), 1e-300)
    if np.abs(gen + gen.conj().T).max() / scale > 1e-12:
        raise NumericError("SW generator is not anti-Hermitian")
    u = hermitian_propagator(1j * gen, 1.0)  # exp(A) = exp(-i (iA)), iA Hermitian
    d = config.phonon_dims[0]
    m = (u @ full_jc_hamiltonian(params, config, delta).matrix @ u.conj().T).reshape(2, d, 2, d)
    return float(np.linalg.norm(m[0, :, 1, :]) + np.linalg.norm(m[1, :, 0, :]))


# ---------------------------------------------------------------------------
# power series in one expansion parameter: eps -> lam eps, truncated at lam^2
#
# The state is one array of shape (*batch, 3, 2, dim): the order of lam, the
# qubit level and the phonon number.  eps enters as a number; pulse and
# evolution phases may be arrays, over whose shape the series broadcasts.


def _pulse(amp, theta, eta: float):
    """Counterclockwise rotation |g> -> cos|g> + e^{i theta} sin|e> of every order."""
    c, s = math.cos(eta / 2.0), math.sin(eta / 2.0)
    ph = np.exp(1j * np.asarray(theta))[..., None, None]
    g, e = amp[..., 0, :], amp[..., 1, :]
    return np.stack([c * g - (s * ph.conj()) * e, (s * ph) * g + c * e], axis=-2)


def _sw(amp, sign: int, eps: complex):
    """Apply I + sA + A^2/2 in place; s = +1 for U, -1 for U^dag, negated when eps is (-Delta).

    Orders 1 and 2 gain sA of orders 0 and 1, and order 2 gains A^2/2 of
    order 0, all formed from the orders before this step.
    """
    dim = amp.shape[-1]
    sq = np.sqrt(np.arange(1, dim, dtype=float))
    step = np.zeros_like(amp[..., :2, :, :])
    # eps sqrt(n) g_n -> e_{n-1} and -eps* sqrt(n+1) e_n -> g_{n+1}
    step[..., 1, :-1] = (sign * eps) * sq * amp[..., :2, 0, 1:]
    step[..., 0, 1:] = (-sign * np.conj(eps)) * sq * amp[..., :2, 1, :-1]
    amp[..., 1:, :, :] += step
    # A^2 = -|eps|^2 (n on |g,n>, n + 1 on |e,n>): sigma+ sigma+ = 0 for two levels
    n = np.arange(dim, dtype=float)
    amp[..., 2, :, :] -= (0.5 * abs(eps) ** 2) * np.stack([n, n + 1.0]) * amp[..., 0, :, :]
    return amp


def _evolve(amp, phi, psi):
    """Diagonal phases: |g,n> gains e^{+i n(phi+psi)}, |e,n> e^{+i n(phi-psi)}."""
    n = np.arange(amp.shape[-1], dtype=float)
    phi, psi = np.asarray(phi)[..., None, None], np.asarray(psi)[..., None, None]
    return amp * np.exp(1j * n * (phi + np.array([[1.0], [-1.0]]) * psi))[..., None, :, :]


def _sigma_z_by_order(amp) -> dict[int, complex]:
    """<sigma_z> by order of lam as {order: batch-shaped value}.

    Order k sums <psi_j|sigma_z|psi_i> over i + j = k.
    """
    z = amp * np.array([[-1.0], [1.0]])
    return {k: sum(np.sum(z[..., i, :, :] * amp[..., k - i, :, :].conj(), axis=(-2, -1))
                   for i in range(k + 1)) for k in range(3)}


def _phases(params: SystemParams, delta: float, t: float) -> tuple[float, float]:
    """phi = Delta'(delta) t, psi = chi(delta) t / 2 (angular, signed)."""
    dp = delta_prime(params.g_lg00, delta)
    chi = chi_analytic(params.g_lg00, delta, params.alpha, form="approximate")
    return TWO_PI * dp * t, TWO_PI * chi * t / 2.0


def _check_inputs(c, t, delta):
    c = np.asarray(c, dtype=complex).reshape(-1)
    if abs(np.sum(np.abs(c) ** 2) - 1.0) > 1e-9:
        raise ValidationError("Fock coefficients must be normalized to 1 within 1e-9")
    if np.any(np.asarray(t) <= 0):
        raise ValidationError("interaction time must be positive")
    if delta == 0.0:
        raise ValidationError("detuning must be nonzero")
    return c


def _graded_sigma_z(c: np.ndarray, theta, eps: complex, legs) -> dict[int, complex]:
    """<sigma_z> by order in eps of the power-series composition, batched over array phases.

    A pi/2 pulse, then each leg (phi, psi, eps_sign) as U, evolution, U^dag,
    consecutive legs separated by pi pulses, then a pi/2 pulse; every pulse
    has the drive phase ``theta``.
    """
    amp = np.zeros((3, 2, c.size + 3), dtype=complex)
    amp[0, 0, : c.size] = c  # order 0, qubit |g>
    amp = _pulse(amp, theta, math.pi / 2.0)
    for k, (phi, psi, eps_sign) in enumerate(legs):
        if k:
            amp = _pulse(amp, theta, math.pi)
        amp = _sw(_evolve(_sw(amp, eps_sign, eps), phi, psi), -eps_sign, eps)
    return _sigma_z_by_order(_pulse(amp, theta, math.pi / 2.0))


@dataclass(frozen=True)
class RamseyPrediction:
    """Order-separated closed-form Ramsey <sigma_z>."""

    order0: float
    order1: float
    order2: float

    @property
    def total(self) -> float:
        return self.order0 + self.order1 + self.order2


def ramsey_prediction(
    c: Sequence[complex], theta: float, t: float, params: SystemParams, delta: float
) -> RamseyPrediction:
    """Closed-form Ramsey <sigma_z>_theta through second order in eps = g/Delta."""
    c = _check_inputs(c, t, delta)
    phi, psi = _phases(params, delta, t)
    orders = _graded_sigma_z(c, theta, params.g_lg00 / delta, [(phi, psi, 1)])
    for k, v in orders.items():
        if abs(np.imag(v)) > 1e-10:
            raise NumericError(f"order-{k} term has imaginary part {np.imag(v):.2e}")
    return RamseyPrediction(*(float(np.real(orders[k])) for k in range(3)))


def ramsey_sigma_z_from_phases(
    c: Sequence[complex], theta: float, eps: complex, phi: float, psi: float
) -> float:
    """Order-eps^2 Ramsey expectation at explicit evolution phases (testing hook)."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    orders = _graded_sigma_z(c, theta, eps, [(phi, psi, 1)])
    return float(np.real(sum(orders.values())))


def echo_sigma_z_analytic(
    c: Sequence[complex], theta, t_total, params: SystemParams, delta: float
):
    """Echo-sequence <sigma_z>_theta through second order in eps.

    Composition: pi/2 -> half evolution at delta -> pi echo -> half evolution
    at -delta (eps and chi flip sign) -> pi/2, all with the same pulse phase.
    Array times or phases give an array of their broadcast shape (``theta``
    leading); scalars give a float.
    """
    c = _check_inputs(c, t_total, delta)
    half = t_total / 2.0
    legs = [(*_phases(params, delta, half), 1), (*_phases(params, -delta, half), -1)]
    orders = _graded_sigma_z(c, theta, params.g_lg00 / delta, legs)
    total = np.real(orders[0] + orders[1] + orders[2])
    return float(total) if np.ndim(total) == 0 else total


# ---------------------------------------------------------------------------
# exact composition oracles


def _composed_sigma_z(config: HilbertConfig, c: np.ndarray, theta: float, legs) -> float:
    """<sigma_z> after a pi/2 pulse, the ``legs`` (matrices) separated by pi pulses, and pi/2.

    The mode starts in the Fock coefficients ``c`` with the qubit in |g>.
    """
    psi = np.zeros(config.dim, dtype=complex)
    psi[: c.size] = c
    psi = qubit_rotation(config, theta, math.pi / 2.0) @ psi
    for k, leg in enumerate(legs):
        if k:
            psi = qubit_rotation(config, theta, math.pi) @ psi
        psi = leg @ psi
    g, e = (qubit_rotation(config, theta, math.pi / 2.0) @ psi).reshape(2, -1)
    return float(np.sum(np.abs(e) ** 2) - np.sum(np.abs(g) ** 2))


def ramsey_sigma_z_exact_phases(
    c: Sequence[complex], theta: float, eps: complex, phi: float, psi: float
) -> float:
    """Exact exp(A) composition at explicit evolution phases (testing hook)."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    config = HilbertConfig(2, (c.size + 6,))
    u = hermitian_propagator(1j * sw_generator(config, eps).matrix, 1.0)
    n = np.arange(config.phonon_dims[0])
    phases = np.concatenate([np.exp(1j * n * (phi + psi)), np.exp(1j * n * (phi - psi))])
    return _composed_sigma_z(config, c, theta, [u.conj().T @ (phases[:, None] * u)])


def _jc_sigma_z(c: Sequence[complex], theta: float, params: SystemParams, legs) -> float:
    """Noiseless full-JC composition; each leg (t, delta) evolves in the dressed frame of delta."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    config = HilbertConfig(2, (c.size + 8,))
    props = [hermitian_propagator(full_jc_hamiltonian(
        params, config, d, frame=delta_prime(params.g_lg00, d)).matrix, t) for t, d in legs]
    return _composed_sigma_z(config, c, theta, props)


def ramsey_sigma_z_jc(
    c: Sequence[complex], theta: float, t: float, params: SystemParams, delta: float
) -> float:
    """Noiseless full-JC simulation of the idealized Ramsey sequence.

    Instantaneous pi/2 pulses; the interaction runs in the frame rotating at
    the dressed qubit frequency (the frame the analytic result lives in).
    """
    return _jc_sigma_z(c, theta, params, [(t, delta)])


def echo_sigma_z_jc(
    c: Sequence[complex], theta: float, t_total: float, params: SystemParams, delta: float
) -> float:
    """Noiseless full-JC simulation of the idealized echo sequence."""
    return _jc_sigma_z(c, theta, params, [(t_total / 2.0, delta), (t_total / 2.0, -delta)])


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
    _require_single_mode(config)
    d = config.phonon_dims[0]
    if d < n_max + 5:
        raise ValidationError(f"truncation dim {d} must be >= n_max + 5 = {n_max + 5}")
    h = full_jc_hamiltonian(params, config, delta).matrix
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
