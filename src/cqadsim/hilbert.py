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
from math import cos, lgamma, sin
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import expm as _expm

from .exceptions import TruncationError, ValidationError

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
    "identity",
    "fock_state",
    "coherent_state",
    "coherent_amplitudes",
    "displacement_operator",
    "parity_operator",
    "expectation",
    "partial_trace",
    "tensor",
    "hermitian_propagator",
    "matrix_exp",
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
    hermitian: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.config.dim, self.config.dim):
            raise ValidationError(
                f"matrix shape {m.shape} does not match config dim {self.config.dim}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def dag(self) -> "OperatorMatrix":
        return OperatorMatrix(self.config, self.matrix.conj().T, self.hermitian)

    def __matmul__(self, other):
        if isinstance(other, OperatorMatrix):
            _check_same_config(self, other)
            return OperatorMatrix(self.config, self.matrix @ other.matrix)
        if isinstance(other, Ket):
            _check_same_config(self, other)
            return Ket(self.config, self.matrix @ other.amplitudes, normalized=False)
        return NotImplemented

    def __add__(self, other):
        _check_same_config(self, other)
        return OperatorMatrix(
            self.config, self.matrix + other.matrix, self.hermitian and other.hermitian
        )

    def __sub__(self, other):
        _check_same_config(self, other)
        return OperatorMatrix(
            self.config, self.matrix - other.matrix, self.hermitian and other.hermitian
        )

    def __mul__(self, scalar):
        herm = self.hermitian and float(np.imag(scalar)) == 0.0
        return OperatorMatrix(self.config, self.matrix * scalar, herm)

    __rmul__ = __mul__

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
            if abs(nrm - 1.0) > 1e-9:
                raise ValidationError(f"state norm {nrm!r} deviates from 1 beyond 1e-9")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def unit(self) -> "Ket":
        return Ket(self.config, self.amplitudes / self.norm())

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
        from .exceptions import NumericError

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


def identity(config: HilbertConfig) -> OperatorMatrix:
    return OperatorMatrix(config, np.eye(config.dim, dtype=complex), hermitian=True)


def annihilation(config: HilbertConfig, mode_index: int = 0) -> OperatorMatrix:
    """Lowering operator of one acoustic mode, identity on all other factors."""
    _check_mode(config, mode_index)
    return OperatorMatrix(
        config, _mode_operator(config, mode_index, _mode_ladder(config.phonon_dims[mode_index]))
    )


def number_operator(config: HilbertConfig, mode_index: int = 0) -> OperatorMatrix:
    _check_mode(config, mode_index)
    a = _mode_ladder(config.phonon_dims[mode_index])
    return OperatorMatrix(
        config, _mode_operator(config, mode_index, a.conj().T @ a), hermitian=True
    )


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
    herm = which in ("sigma_z", "sigma_x", "sigma_y")
    return OperatorMatrix(config, _embed(config, factors), hermitian=herm)


def qubit_projector(config: HilbertConfig, level: int) -> OperatorMatrix:
    if not 0 <= level < config.qubit_levels:
        raise ValidationError(f"qubit level {level} out of range")
    m = np.zeros((config.qubit_levels,) * 2, dtype=complex)
    m[level, level] = 1.0
    factors = [m] + [np.eye(d, dtype=complex) for d in config.phonon_dims]
    return OperatorMatrix(config, _embed(config, factors), hermitian=True)


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
    required = int(np.ceil(4.0 * abs(beta) ** 2))
    if dim < required:
        raise TruncationError(
            f"|beta|={abs(beta):.3f} needs phonon dim >= {required}, mode has {dim}"
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


def displacement_operator(config: HilbertConfig, mode_index: int, beta: complex) -> OperatorMatrix:
    """exp(beta a^dag - beta* a) on one mode, identity elsewhere.

    The exponential is taken of the generator built from the truncated
    ladder operators, so the result is exactly unitary on the truncated
    space and D(-beta) = D(beta)^dag.  It is not the untruncated
    displacement restricted to the cutoff: the two part at the top Fock
    levels, the more so the larger |beta| is next to the cutoff (at dim 20
    and |beta| = 1.5, D|0> departs from the coherent series by 2.2e-7 at
    n = 19 and by less than 1e-12 for n <= 10).
    """
    _truncation_guard(config, mode_index, beta)
    a = _mode_ladder(config.phonon_dims[mode_index])
    gen = beta * a.conj().T - np.conj(beta) * a
    return OperatorMatrix(config, _mode_operator(config, mode_index, _expm(gen)))


def parity_operator(config: HilbertConfig, mode_index: int = 0) -> OperatorMatrix:
    """Diagonal (-1)^n on the chosen mode, identity elsewhere."""
    _check_mode(config, mode_index)
    d = config.phonon_dims[mode_index]
    p = np.diag((-1.0 + 0j) ** np.arange(d))
    return OperatorMatrix(config, _mode_operator(config, mode_index, p), hermitian=True)


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


def partial_trace(density: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out all subsystems not listed in ``keep``.

    Subsystem 0 is the qubit; subsystem k >= 1 is phonon mode k-1.  The kept
    subsystems stay in their original relative order.  Because every
    DensityMatrix needs a qubit factor and at least one mode, traced-out
    factors are re-embedded in their ground state: tracing over the qubit
    returns |g><g| (x) rho_modes, tracing over all modes returns
    rho_qubit (x) |0><0| on a trivial 2-dim mode.  Trace is preserved.
    """
    dims = density.config.dims
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError(f"keep indices {keep} out of range")
    if not keep:
        raise ValidationError("must keep at least one subsystem")
    nsub = len(dims)
    t = density.matrix.reshape(dims + dims)
    # contract traced-out subsystem pairs, highest axis first
    for k in reversed([i for i in range(nsub) if i not in keep]):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    kept_dims = tuple(dims[k] for k in keep)
    d = int(np.prod(kept_dims))
    reduced = t.reshape(d, d)
    if 0 in keep and len(kept_dims) > 1:
        return DensityMatrix(HilbertConfig(dims[0], kept_dims[1:]), reduced)
    if 0 in keep:
        # qubit only: re-embed with a trivial 2-dim mode in |0>
        ql = dims[0]
        out = np.zeros((ql * 2, ql * 2), dtype=complex)
        out[::2, ::2] = reduced
        return DensityMatrix(HilbertConfig(ql, (2,)), out)
    # modes only: re-embed with the qubit reset to |g>
    cfg = HilbertConfig(2, kept_dims)
    out = np.zeros((cfg.dim, cfg.dim), dtype=complex)
    out[:d, :d] = reduced
    return DensityMatrix(cfg, out)


def reduced_mode_matrix(density: DensityMatrix, mode_index: int = 0) -> np.ndarray:
    """Plain ndarray of the reduced density matrix of one phonon mode."""
    dims = density.config.dims
    t = density.matrix.reshape(dims + dims)
    nsub = len(dims)
    target = 1 + mode_index
    for k in reversed([i for i in range(nsub) if i != target]):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    return t


def tensor(config: HilbertConfig, factors: Sequence[np.ndarray]) -> OperatorMatrix:
    """Assemble a full-space operator from per-factor matrices (qubit first)."""
    if len(factors) != 1 + config.n_modes:
        raise ValidationError(
            f"need {1 + config.n_modes} factors (qubit + modes), got {len(factors)}"
        )
    for f, d in zip(factors, config.dims):
        if np.asarray(f).shape != (d, d):
            raise ValidationError(f"factor shape {np.asarray(f).shape} does not match dim {d}")
    return OperatorMatrix(config, _embed(config, [np.asarray(f, dtype=complex) for f in factors]))


# ---------------------------------------------------------------------------
# matrix exponentials


def hermitian_propagator(h_angular: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h_angular)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """General dense matrix exponential (scaling-and-squaring Pade)."""
    return _expm(m)
