"""Truncated-Fock-space linear algebra for a qubit coupled to acoustic modes.

Conventions fixed here and relied on everywhere else:

* Tensor ordering: qubit factor is slowest-varying, then phonon modes in the
  order they appear in ``HilbertConfig.phonon_dims`` (LG-00 first).
* The qubit has two levels: basis index 0 is ``|g>``, 1 is ``|e>``.
  ``sigma_z |e> = +|e>``, ``sigma_z |g> = -|g>``.  The transmon's next level
  enters only through the alpha/(Delta - alpha) factor of chi
  (``swtheory.chi_analytic``).
* States and operators are dense complex arrays; dimensions stay small
  (a few hundred at most).  Only the d^2 x d^2 Liouvillian superoperator in
  ``cqadsim.dynamics`` is sparse.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, lgamma, sin
from typing import Sequence

import numpy as np

from .exceptions import NumericError, TruncationError, ValidationError

__all__ = [
    "HilbertConfig",
    "OperatorMatrix",
    "Ket",
    "DensityMatrix",
    "annihilation",
    "number_operator",
    "qubit_operator",
    "qubit_projector",
    "qubit_rotation",
    "fock_state",
    "coherent_state",
    "coherent_amplitudes",
    "displacement_operator",
    "parity_operator",
    "expectation",
    "reduced_mode_matrix",
    "hermitian_propagator",
]

# The qubit operators on (|g>, |e>); ``qubit_operator`` embeds them.
_PAULIS = {
    "sigma_z": np.array([[-1, 0], [0, 1]], dtype=complex),
    "sigma_plus": np.array([[0, 0], [1, 0]], dtype=complex),
    "sigma_minus": np.array([[0, 1], [0, 0]], dtype=complex),
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=complex),
    "sigma_y": np.array([[0, -1j], [1j, 0]], dtype=complex),
}


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation layout: a two-level qubit and one Fock cutoff per acoustic mode.

    ``qubit_levels`` must be 2; it stays the first field, so a config reads
    ``HilbertConfig(2, dims)``.  Every entry must be a whole number (an int or
    a numpy integer), not a float that happens to be one.
    """

    qubit_levels: int = 2
    phonon_dims: tuple[int, ...] = (10,)

    def __post_init__(self):
        try:
            levels = operator.index(self.qubit_levels)
            dims = tuple(operator.index(d) for d in self.phonon_dims)
        except TypeError:
            raise ValidationError(f"qubit_levels and phonon_dims must be whole numbers, got "
                                  f"{self.qubit_levels!r} and {self.phonon_dims!r}") from None
        if levels != 2:
            raise ValidationError(f"the qubit has two levels, got qubit_levels={levels}")
        if not dims:
            raise ValidationError("at least one phonon mode is required")
        if any(d < 2 for d in dims):
            raise ValidationError(f"every phonon dim must be >= 2, got {dims}")
        object.__setattr__(self, "qubit_levels", levels)
        object.__setattr__(self, "phonon_dims", dims)

    @property
    def n_modes(self) -> int:
        return len(self.phonon_dims)

    @property
    def dims(self) -> tuple[int, ...]:
        """Factor dimensions, qubit first."""
        return (self.qubit_levels, *self.phonon_dims)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index(self, qubit_level: int, occupations: Sequence[int]) -> int:
        """Row-major basis index of |qubit_level, n_1, n_2, ...>."""
        if not 0 <= qubit_level < self.qubit_levels:
            raise ValidationError(f"qubit level {qubit_level} out of range")
        if len(occupations) != self.n_modes:
            raise ValidationError("one occupation per phonon mode is required")
        idx = qubit_level
        for n, d in zip(occupations, self.phonon_dims):
            if not 0 <= n < d:
                raise TruncationError(f"occupation {n} exceeds truncation dim {d}")
            idx = idx * d + n
        return idx


def _check_same_config(a, b):
    if a.config != b.config:
        raise ValidationError("operands live on different Hilbert configs")


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator on the full tensor space."""

    config: HilbertConfig
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.config.dim, self.config.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match config dim {self.config.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            _check_same_config(self, other)
            return OperatorMatrix(self.config, self.matrix @ other.matrix)
        if isinstance(other, Ket):
            _check_same_config(self, other)
            return Ket(self.config, self.matrix @ other.amplitudes, normalized=False)
        return NotImplemented

    def hermiticity_defect(self) -> float:
        """Max |H - H^dag| entry relative to the largest entry magnitude."""
        scale = max(np.abs(self.matrix).max(), 1e-300)
        return float(np.abs(self.matrix - self.matrix.conj().T).max() / scale)


@dataclass(frozen=True)
class Ket:
    """Pure state vector on the full tensor space."""

    config: HilbertConfig
    amplitudes: np.ndarray
    normalized: bool = field(default=True, compare=False)

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if v.size != self.config.dim:
            raise ValidationError(
                f"vector length {v.size} does not match config dim {self.config.dim}"
            )
        if self.normalized:
            nrm = np.linalg.norm(v)
            if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
                raise ValidationError(f"state norm {nrm!r} deviates from 1 beyond 1e-9")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.config, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state on the full tensor space."""

    config: HilbertConfig
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.config.dim, self.config.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match config dim {self.config.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def validate(self, trace_tol=1e-6, herm_tol=1e-9, eig_floor=-1e-7) -> "DensityMatrix":
        """Check trace, hermiticity, and positivity within the stated slacks."""
        if abs(self.trace() - 1.0) > trace_tol:
            raise NumericError(f"trace {self.trace()!r} deviates from 1 beyond {trace_tol}")
        defect = float(np.abs(self.matrix - self.matrix.conj().T).max())
        if defect > herm_tol:
            raise NumericError(f"hermiticity defect {defect:.3e} exceeds {herm_tol}")
        lo = float(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T)).min())
        if lo < eig_floor:
            raise NumericError(f"negative eigenvalue {lo:.3e} below floor {eig_floor}")
        return self


# ---------------------------------------------------------------------------
# constructors


def _mode_ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)


def _check_mode(config: HilbertConfig, mode_index: int) -> int:
    if not 0 <= mode_index < config.n_modes:
        raise ValidationError(
            f"mode index {mode_index} out of range for {config.n_modes} mode(s)"
        )
    return mode_index


def _mode_operator(config: HilbertConfig, mode_index: int, op: np.ndarray) -> np.ndarray:
    """I (x) op (x) I: ``op`` on one mode, identity on the qubit and every other mode."""
    _check_mode(config, mode_index)
    before = int(np.prod(config.dims[:1 + mode_index]))
    after = int(np.prod(config.dims[2 + mode_index:]))
    return np.kron(np.kron(np.eye(before, dtype=complex), op), np.eye(after, dtype=complex))


def annihilation(config: HilbertConfig, mode_index: int = 0) -> OperatorMatrix:
    """Lowering operator of one acoustic mode, identity on all other factors."""
    _check_mode(config, mode_index)
    return OperatorMatrix(
        config, _mode_operator(config, mode_index, _mode_ladder(config.phonon_dims[mode_index]))
    )


def number_operator(config: HilbertConfig, mode_index: int = 0) -> OperatorMatrix:
    _check_mode(config, mode_index)
    a = _mode_ladder(config.phonon_dims[mode_index])
    return OperatorMatrix(config, _mode_operator(config, mode_index, a.conj().T @ a))


def _qubit_embed(config: HilbertConfig, m: np.ndarray) -> np.ndarray:
    """m (x) I: a 2 x 2 qubit matrix, identity on every mode."""
    return np.kron(m, np.eye(config.dim // 2, dtype=complex))


def qubit_operator(config: HilbertConfig, which: str) -> OperatorMatrix:
    """Pauli-type operator embedded in the full space (see module conventions)."""
    if which not in _PAULIS:
        raise ValidationError(
            f"unknown qubit operator {which!r}; expected one of {tuple(_PAULIS)}"
        )
    return OperatorMatrix(config, _qubit_embed(config, _PAULIS[which]))


def qubit_projector(config: HilbertConfig, level: int) -> OperatorMatrix:
    if level not in (0, 1):
        raise ValidationError(f"qubit level {level} out of range")
    return OperatorMatrix(config, _qubit_embed(config, np.diag(np.eye(2)[level])))


def qubit_rotation(config: HilbertConfig, theta: float, eta: float) -> np.ndarray:
    """Counterclockwise qubit rotation: |g> -> cos(eta/2)|g> + e^{i theta} sin(eta/2)|e>.

    Identity on every mode.
    """
    c, s = cos(eta / 2.0), sin(eta / 2.0)
    q = np.array([[c, -np.exp(-1j * theta) * s], [np.exp(1j * theta) * s, c]], dtype=complex)
    return _qubit_embed(config, q)


def fock_state(config: HilbertConfig, mode_occupations: Sequence[int], qubit_level: int = 0) -> Ket:
    """Basis vector |qubit_level; n_1, n_2, ...>."""
    v = np.zeros(config.dim, dtype=complex)
    v[config.index(qubit_level, list(mode_occupations))] = 1.0
    return Ket(config, v)


def _truncation_guard(config: HilbertConfig, mode_index: int, beta: complex):
    _check_mode(config, mode_index)
    dim = config.phonon_dims[mode_index]
    # |beta|^2 as re^2 + im^2, exact where they are (abs() rounds); inf, not an
    # OverflowError, for a huge |beta|; a NaN beta fails the check too
    required = 4.0 * (beta.real * beta.real + beta.imag * beta.imag)
    if not required <= dim:
        raise TruncationError(
            f"|beta|={abs(beta):.4g} needs phonon dim >= {np.ceil(required):.0f}, mode has {dim}"
        )


def coherent_amplitudes(dim: int, beta: complex) -> np.ndarray:
    """Truncated, renormalized coherent-state coefficients e^{-|b|^2/2} b^n/sqrt(n!)."""
    n = np.arange(dim)
    logmag = -abs(beta) ** 2 / 2 + n * np.log(max(abs(beta), 1e-300)) - 0.5 * np.array(
        [lgamma(k + 1) for k in n]
    )
    phase = np.exp(1j * n * np.angle(beta)) if beta != 0 else np.ones(dim)
    c = np.exp(logmag) * phase
    if beta == 0:
        c = np.zeros(dim, dtype=complex)
        c[0] = 1.0
    return c / np.linalg.norm(c)


def coherent_state(config: HilbertConfig, mode_index: int, beta: complex, qubit_level: int = 0) -> Ket:
    """Coherent state on one mode, vacuum elsewhere, qubit in a basis level."""
    _truncation_guard(config, mode_index, beta)
    d = config.phonon_dims[mode_index]
    stride = int(np.prod(config.phonon_dims[mode_index + 1:]))
    v = np.zeros(config.dim, dtype=complex)
    v[config.index(qubit_level, [0] * config.n_modes) + stride * np.arange(d)] = (
        coherent_amplitudes(d, beta))
    return Ket(config, v)


@lru_cache(maxsize=None)
def _quadrature_eigh(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with i(a^dag - a) = V diag(lam) V^dag for the ladder truncated at ``dim``."""
    a = _mode_ladder(dim)
    lam, v = np.linalg.eigh(1j * (a.T - a))
    lam.setflags(write=False)
    v.setflags(write=False)
    return lam, v


def _displacements(dim: int, betas: np.ndarray) -> np.ndarray:
    """Stacked one-mode matrices exp(beta a^dag - beta* a), one per entry of ``betas``.

    With beta = |beta| e^{i phi} the generator is |beta| R (a^dag - a) R^dag,
    R = diag(e^{i phi n}), so D = R V e^{-i |beta| lam} V^dag R^dag from one
    eigendecomposition of i(a^dag - a) per mode dimension, shared by every
    beta (``_quadrature_eigh``).
    """
    lam, v = _quadrature_eigh(dim)
    r = np.exp(1j * np.angle(betas)[:, None] * np.arange(dim))
    core = (v * np.exp(-1j * np.abs(betas)[:, None] * lam)[:, None, :]) @ v.conj().T
    return r[:, :, None] * core * r.conj()[:, None, :]


def displacement_operator(config: HilbertConfig, mode_index: int, beta: complex) -> OperatorMatrix:
    """exp(beta a^dag - beta* a) on one mode, identity elsewhere.

    The exponential is taken of the generator built from the truncated
    ladder operators, so the result is exactly unitary on the truncated
    space and D(-beta) = D(beta)^dag.  It is not the untruncated
    displacement restricted to the cutoff: the two part at the top Fock
    levels, the more so the larger |beta| is next to the cutoff (at dim 20
    and |beta| = 1.5, D|0> departs from the coherent series by 2.2e-7 at
    n = 19 and by less than 1e-12 for n <= 10).  ``_displacements`` holds
    the formula.
    """
    _truncation_guard(config, mode_index, beta)
    d = _displacements(config.phonon_dims[mode_index], np.array([beta], dtype=complex))[0]
    return OperatorMatrix(config, _mode_operator(config, mode_index, d))


def parity_operator(config: HilbertConfig, mode_index: int = 0) -> OperatorMatrix:
    """Diagonal (-1)^n on the chosen mode, identity elsewhere."""
    _check_mode(config, mode_index)
    d = config.phonon_dims[mode_index]
    p = np.diag((-1.0 + 0j) ** np.arange(d))
    return OperatorMatrix(config, _mode_operator(config, mode_index, p))


# ---------------------------------------------------------------------------
# functionals


def expectation(state, operator: OperatorMatrix) -> complex:
    """<psi|O|psi> or Tr(rho O)."""
    _check_same_config(state, operator)
    if isinstance(state, Ket):
        return complex(state.amplitudes.conj() @ (operator.matrix @ state.amplitudes))
    if isinstance(state, DensityMatrix):
        return complex(np.trace(state.matrix @ operator.matrix))
    raise ValidationError(f"cannot take expectation of {type(state).__name__}")


def reduced_mode_matrix(density: DensityMatrix, mode_index: int = 0) -> np.ndarray:
    """Plain ndarray of the reduced density matrix of one phonon mode."""
    _check_mode(density.config, mode_index)
    dims = density.config.dims
    t = density.matrix.reshape(dims + dims)
    nsub = len(dims)
    target = 1 + mode_index
    for k in reversed([i for i in range(nsub) if i != target]):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    return t


# ---------------------------------------------------------------------------
# matrix exponentials


def hermitian_propagator(h_angular: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h_angular)
    return (v * np.exp(-1j * w * t)) @ v.conj().T

