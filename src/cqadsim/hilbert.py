"""Truncated-Fock-space linear algebra for a qubit coupled to acoustic modes.

Conventions fixed here and relied on everywhere else:

* Tensor ordering: qubit factor is slowest-varying, then phonon modes in the
  order they appear in ``HilbertConfig.phonon_dims`` (LG-00 first).
* Qubit basis index 0 is ``|g>``, 1 is ``|e>`` (and 2 is ``|f>`` for a
  three-level qubit).  ``sigma_z |e> = +|e>``, ``sigma_z |g> = -|g>``.
* States and operators are dense complex arrays; dimensions stay small
  (a few hundred at most).  Only the d^2 x d^2 Liouvillian superoperator and
  its block-diagonal propagators in ``cqadsim.dynamics`` are sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, lgamma, sin
from typing import Iterable, Sequence

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

_QUBIT_SELECTORS = ("sigma_z", "sigma_plus", "sigma_minus", "sigma_x", "sigma_y")


@dataclass(frozen=True)
class HilbertConfig:
    """Truncation layout: qubit levels and one Fock cutoff per acoustic mode."""

    qubit_levels: int = 2
    phonon_dims: tuple[int, ...] = (10,)

    def __post_init__(self):
        if self.qubit_levels not in (2, 3):
            raise ValidationError(f"qubit_levels must be 2 or 3, got {self.qubit_levels}")
        dims = tuple(int(d) for d in self.phonon_dims)
        if not dims:
            raise ValidationError("at least one phonon mode is required")
        if any(d < 2 for d in dims):
            raise ValidationError(f"every phonon dim must be >= 2, got {dims}")
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


def _embed(config: HilbertConfig, factors: Iterable[np.ndarray]) -> np.ndarray:
    full = None
    for f in factors:
        full = f if full is None else np.kron(full, f)
    return full


def _check_mode(config: HilbertConfig, mode_index: int) -> int:
    if not 0 <= mode_index < config.n_modes:
        raise ValidationError(
            f"mode index {mode_index} out of range for {config.n_modes} mode(s)"
        )
    return mode_index


def _mode_operator(config: HilbertConfig, mode_index: int, op: np.ndarray) -> np.ndarray:
    _check_mode(config, mode_index)
    factors = [np.eye(config.qubit_levels, dtype=complex)]
    for k, d in enumerate(config.phonon_dims):
        factors.append(op if k == mode_index else np.eye(d, dtype=complex))
    return _embed(config, factors)


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


def _qubit_matrix(levels: int, which: str) -> np.ndarray:
    # Paulis act on the {g, e} block; |f> (if present) is annihilated.
    m = np.zeros((levels, levels), dtype=complex)
    if which == "sigma_z":
        m[0, 0] = -1.0
        m[1, 1] = +1.0
    elif which == "sigma_plus":
        m[1, 0] = 1.0
    elif which == "sigma_minus":
        m[0, 1] = 1.0
    elif which == "sigma_x":
        m[0, 1] = m[1, 0] = 1.0
    elif which == "sigma_y":
        m[1, 0] = 1.0j
        m[0, 1] = -1.0j
    else:
        raise ValidationError(
            f"unknown qubit operator {which!r}; expected one of {_QUBIT_SELECTORS}"
        )
    return m


def qubit_operator(config: HilbertConfig, which: str) -> OperatorMatrix:
    """Pauli-type operator embedded in the full space (see module conventions)."""
    m = _qubit_matrix(config.qubit_levels, which)
    factors = [m] + [np.eye(d, dtype=complex) for d in config.phonon_dims]
    return OperatorMatrix(config, _embed(config, factors))


def qubit_projector(config: HilbertConfig, level: int) -> OperatorMatrix:
    if not 0 <= level < config.qubit_levels:
        raise ValidationError(f"qubit level {level} out of range")
    m = np.zeros((config.qubit_levels,) * 2, dtype=complex)
    m[level, level] = 1.0
    factors = [m] + [np.eye(d, dtype=complex) for d in config.phonon_dims]
    return OperatorMatrix(config, _embed(config, factors))


def qubit_rotation(config: HilbertConfig, theta: float, eta: float) -> np.ndarray:
    """Counterclockwise qubit rotation: |g> -> cos(eta/2)|g> + e^{i theta} sin(eta/2)|e>.

    Acts on the {g, e} block (|f>, if present, is left alone), identity on
    every mode.
    """
    c, s = cos(eta / 2.0), sin(eta / 2.0)
    q = np.eye(config.qubit_levels, dtype=complex)
    q[0, 0] = c
    q[1, 1] = c
    q[1, 0] = np.exp(1j * theta) * s
    q[0, 1] = -np.exp(-1j * theta) * s
    m = q
    for d in config.phonon_dims:
        m = np.kron(m, np.eye(d))
    return m


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
    qv = np.zeros(config.qubit_levels, dtype=complex)
    qv[qubit_level] = 1.0
    factors = [qv]
    for k, d in enumerate(config.phonon_dims):
        if k == mode_index:
            factors.append(coherent_amplitudes(d, beta))
        else:
            g = np.zeros(d, dtype=complex)
            g[0] = 1.0
            factors.append(g)
    v = factors[0]
    for f in factors[1:]:
        v = np.kron(v, f)
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

