"""Time evolution under the Lindblad master equation.

All dynamics run in the frame rotating at the LG-00 phonon frequency for
every degree of freedom (``device.full_jc_hamiltonian`` at its default
frame, 0 Hz from LG-00), so the qubit detuning Delta(t) appears
explicitly and a second mode sits at its +1.1 MHz offset.  Rates and
frequencies are ordinary Hz at the API; Hamiltonians are angular internally.

One rule propagates a state: a Ket takes exp(-i H t), a density matrix
takes a Chebyshev action.  ``evolve_segments`` runs a list of segments once:
an undriven segment of a Ket applies its cached exp(-i H t)
(``_segment_propagator``, the one cache, keyed on the segment's inputs),
and every other segment is one ``_segment_action`` on the state.  Every
drive is constant in its own frame, the segment detuning for a qubit drive
and the phonon frame for a phonon drive or none, so the exact evolution is a
constant generator followed by the diagonal phases that return to the
phonon frame.

The density kernel is one Chebyshev recurrence (``_sweep_action``) on the
real coordinates of density matrices in an orthonormal Hermitian basis
(``_hermitian_basis``), one state per column.  ``_frame_plan`` plans
exp(L(f) t) for every frame frequency f of a grid, L(f) the Lindbladian of
H - 2 pi f D for a diagonal charge D, one frame per column.  Sparse products
carry only the couplings and the dissipator; everything diagonal in the
number basis is an exact rotation of each pair (X_ij, Y_ij) by
t [(h_i - h_j) - 2 pi f (D_i - D_j)], one rate per pair and frame.  The
recurrence takes about as many products as the radius ``_radius`` reads off
the d x d model: the spread of the eigenvalues of H - 2 pi f D plus the
squared norms of the non-Hermitian collapse operators.  A plan is made once
and serves any number of steps and columns.  A segment of a density matrix
is a grid of one frame of D = K = sigma_z/2 + sum_k n_k (``_frame_states``),
which is N - 1/2 for the excitation number N (``_excitation_number``), the
sum of a basis state's level indices; the frame charge, the coherence orders
N_i - N_j and the spectroscopy phase-cycle mask all read that one N.  The
spectroscopy probe sweep is a grid of every probe frequency, and
``vacuum_rabi_chevron``'s detunings a grid of D = -sigma_z/2, stepped
through its time grid.  The delay loop of ``sequences.coherence_protocols``
plans its wait and its swap once each (``_segment_plan``); every column
takes the one frame there, so the diagonal stays in the sparse product.

The parity readout runs backward (``_segment_adjoint``): without noise each
segment is the cached unitary taken backward on the operator
(``_apply_adjoint``); with noise it is one action of the transposed
Liouvillian, restricted to the coherence orders the operator holds, so a
readout that starts from sigma_+ and passes through qubit rotations touches
the few entries of low coherence order.  That action is the same recurrence
on one complex generator, no rotation, and the radius of H.

Of scipy only ``scipy.sparse`` is used; ``_bessel_j`` gives the Chebyshev
coefficients J_k(r) by Miller's backward recurrence, checked against
scipy's ``jv`` in the tests.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import sparse
# the compiled kernel behind A @ V, which adds A V into a given block
from scipy.sparse._sparsetools import csr_matvecs

from .device import TWO_PI, SystemParams, _jc_terms, full_jc_hamiltonian
from .exceptions import NumericError, ValidationError
from .hilbert import (
    DensityMatrix,
    HilbertConfig,
    Ket,
    annihilation,
    fock_state,
    hermitian_propagator,
    qubit_operator,
    qubit_projector,
)

__all__ = [
    "NoiseModel",
    "Pulse",
    "Segment",
    "evolve_segments",
    "vacuum_rabi_chevron",
    "collapse_operators",
    "liouvillian",
    "clear_propagator_cache",
]


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
        static_qubit_offset: float = 0.0,
    ) -> "NoiseModel":
        """Rates for an operating detuning.

        Qubit rates come from the nearest measured operating point; the
        phonon uses the intrinsic (rest-point) rates because Purcell loss
        through the qubit emerges from the simulated coupling itself.
        """
        g1 = params.rate_at("gamma1", delta)
        gphi = params.rate_at("gamma2_star", delta) - g1 / 2.0
        if gphi < -1e-9:
            raise ValidationError("gamma2* - gamma1/2 must be >= 0")
        return cls(
            qubit_gamma1=g1,
            qubit_gamma_phi=max(gphi, 0.0),
            phonon_kappa1=params.kappa1["rest"],
            phonon_kappa_phi=max(params.kappa2_star["rest"] - params.kappa1["rest"] / 2.0, 0.0),
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
    """Sparse (CSR) superoperator acting on vec(rho) (row-major vectorization).

    kron(-iH - C/2, I) + kron(I, (iH - C/2)^T) + sum_c kron(c, c*), with
    C = sum_c c^dag c, assembled in one scatter: each term's entries are
    placed from the nonzeros of its factors, entries at one position are
    summed in the order of the terms, and exact zeros are dropped, so the
    result is canonical CSR.  H enters as given, never as H^dag, so a
    non-Hermitian H gives its exact (non-Hermiticity-preserving) generator.
    """
    d = h_angular.shape[0]
    eye = np.eye(d)
    half_c = 0.5 * sum((c.conj().T @ c for c in collapse), np.zeros((d, d)))

    def kron_entries(a, b):
        ra, ca = np.nonzero(a)
        rb, cb = np.nonzero(b)
        return (np.add.outer(ra * d, rb).ravel(), np.add.outer(ca * d, cb).ravel(),
                np.outer(a[ra, ca], b[rb, cb]).ravel())

    terms = [kron_entries(-1j * h_angular - half_c, eye),
             kron_entries(eye, (1j * h_angular - half_c).T),
             *(kron_entries(c, c.conj()) for c in collapse)]
    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    n = d * d
    key = rows * n + cols
    order = np.argsort(key, kind="stable")  # a position's entries stay in term order
    key, vals = key[order], vals[order]
    first = np.diff(key, prepend=-1) != 0
    total = np.zeros(np.count_nonzero(first), dtype=complex)
    np.add.at(total, np.cumsum(first) - 1, vals)  # sequential: (t1 + t2) + t3 ...
    keep = total != 0
    key = key[first][keep]
    return sparse.csr_matrix((total[keep], key % n, np.searchsorted(key // n, np.arange(n + 1))),
                             shape=(n, n))


# ---------------------------------------------------------------------------
# pulses and segments


@dataclass(frozen=True)
class Pulse:
    """Square drive over a segment, on resonance with the driven system.

    ``amplitude`` is a Rabi rate in Hz for qubit drives (rotation angle
    2*pi*amplitude*duration) and a displacement rate for phonon drives
    (|beta| = pi*amplitude*duration).  ``phase`` follows the rotation-axis
    convention of the instantaneous pulses used in the sequence layer.
    """

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValidationError("pulse amplitude must be >= 0")


@dataclass(frozen=True)
class Segment:
    """A constant detuning held for ``duration``, with optional square drives.

    A qubit drive's carrier sits at ``detuning`` in the phonon frame (the
    static qubit offset is not calibrated into it); a phonon drive's sits at
    the LG-00 frequency.  The two together need the qubit in the phonon
    frame (detuning 0): otherwise no frame holds both drives constant.
    """

    duration: float
    detuning: float
    qubit_drive: Pulse | None = None
    phonon_drive: Pulse | None = None

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError("segment duration must be > 0")
        if self.qubit_drive is not None and self.phonon_drive is not None and self.detuning != 0:
            raise ValidationError("a qubit drive off the phonon frame and a phonon drive "
                                  "have no common frame")


# ---------------------------------------------------------------------------
# propagator cache


class _PropagatorCache:
    """Size-budgeted LRU for the exp(-i H t) of undriven segments, keyed by the segment's inputs.

    Its entries are d-row unitaries: of the undriven segments of a Ket and of
    the segments of a noise-free parity readout.  A density matrix takes an
    action and puts nothing here.  The budget counts the elements of the
    arrays; the total is kept as entries come and go, so a put hashes its own
    key only.  Unlocked: every sweep runs in one thread.
    """

    def __init__(self, max_elements: float = 4.8e7):
        self._data: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._max_elements = max_elements
        self._total = 0

    def get(self, key: tuple):
        if key in self._data:
            self._data.move_to_end(key)
            return self._data[key]
        return None

    def put(self, key: tuple, value: np.ndarray):
        old = self._data.pop(key, None)
        if old is not None:
            self._total -= old.size
        self._data[key] = value
        self._total += value.size
        while self._total > self._max_elements and len(self._data) > 1:
            _, old = self._data.popitem(last=False)
            self._total -= old.size

    def clear(self):
        self._data.clear()
        self._total = 0


_CACHE = _PropagatorCache()


def clear_propagator_cache():
    _CACHE.clear()


def _segment_propagator(seg: Segment, params: SystemParams, config: HilbertConfig,
                        noise: NoiseModel):
    """Cached exp(-i H t) of an undriven segment (its drives, if any, are not read).

    The collapse operators are not read either: only states without noise
    take it.  The key is every input H is built from, so nothing is built
    or hashed beyond the arguments on a hit.
    """
    key = (seg, params, config, noise)
    prop = _CACHE.get(key)
    if prop is None:
        h = full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
        prop = hermitian_propagator(h, seg.duration)
        _CACHE.put(key, prop)
    return prop


def _apply(u: np.ndarray, state):
    """U psi or U rho U^dag of a d-row U."""
    if isinstance(state, Ket):
        return Ket(state.config, u @ state.amplitudes, normalized=False)
    return DensityMatrix(state.config, u @ state.matrix @ u.conj().T)


def _apply_adjoint(u: np.ndarray, op: np.ndarray) -> np.ndarray:
    """The Heisenberg step of a d-row propagator U: U^dag op U, so Tr[op _apply(U, rho)]
    is Tr[(U^dag op U) rho]."""
    return u.conj().T @ op @ u


@lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """(S, S^dag): columns are vec of an orthonormal basis of Hermitian d x d matrices.

    |i><i|, (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2 for i < j,
    in the row-major vec convention of ``liouvillian``.
    """
    i, j = np.triu_indices(d, k=1)
    diag = np.arange(d) * (d + 1)
    upper, lower = i * d + j, j * d + i
    n_off = i.size
    rows = np.concatenate([diag, upper, lower, upper, lower])
    cols = np.concatenate([np.arange(d), np.tile(d + np.arange(n_off), 2),
                           np.tile(d + n_off + np.arange(n_off), 2)])
    r = math.sqrt(0.5)
    vals = np.concatenate([np.ones(d), np.full(2 * n_off, r),
                           np.full(n_off, 1j * r), np.full(n_off, -1j * r)])
    s = sparse.csr_matrix((vals, (rows, cols)), shape=(d * d, d * d))
    return s, s.conj().T.tocsr()


def _hermitian_generator(gen: sparse.csr_matrix) -> sparse.csr_matrix:
    """The real S^dag gen S of a superoperator that maps Hermitian matrices to Hermitian ones.

    Raises ``NumericError`` if the reduction is not real to 1e-12 of its largest entry.
    """
    s, s_h = _hermitian_basis(math.isqrt(gen.shape[0]))
    g = (s_h @ gen @ s).tocsr()
    # canonical first: views such as g.imag share its index arrays, and their
    # max() would sort those in place under g's unsorted data
    g.sum_duplicates()
    if abs(g.imag).max() > 1e-12 * abs(g.real).max():
        raise NumericError("generator does not preserve Hermiticity")
    return g.real


# At most 2^20 products per action; the spectroscopy preset's sweep takes about 1.7e3.
_MAX_PRODUCTS = 2**20


def _gershgorin(g: sparse.csr_matrix) -> tuple[float, float]:
    """(lo, hi): the Gershgorin interval of g's Hermitian part, so the real part of g's field
    of values lies in [lo, hi]."""
    sym = (g + g.conj().T) * 0.5
    d = sym.diagonal().real
    off = np.asarray(abs(sym).sum(axis=1)).ravel() - np.abs(d)
    return float((d - off).min()), float((d + off).max())


def _radius(hs: Sequence[np.ndarray], collapse: Sequence[np.ndarray]) -> float:
    """R >= ||(L - L^dag)/2||_2 for the Lindbladian L of each H in ``hs``: the imaginary
    part of L's field of values lies in [-R, R].

    -i[H, .] is anti-Hermitian, of norm the spread of H's eigenvalues.  A
    collapse operator c adds (c X c^dag - c^dag X c)/2, of norm at most
    ||c||^2, the largest eigenvalue of c^dag c, and nothing when Hermitian.
    A restriction of L to some entries, or its transpose, has no larger
    norm.  NaN unless H and every c are finite.
    """
    if not all(np.isfinite(m).all() for m in (*hs, *collapse)):
        return math.nan
    spread = max(np.ptp(np.linalg.eigvalsh(h)) for h in hs)
    return float(spread + sum(np.linalg.eigvalsh(c.conj().T @ c)[-1]
                              for c in collapse if not np.array_equal(c, c.conj().T)))


def _bessel_j(n: int, r: float) -> np.ndarray:
    """J_k(r) for k = 0..n-1 and r > 0, by Miller's backward recurrence.

    J_{k-1} = (2k/r) J_k - J_{k+1} is run down from 0 and 1 at a start
    sqrt(160 max(n, r)) past n and r, where J is negligible.  Taken downward
    the recurrence converges onto J, the solution that decays with k; the
    factor left is fixed by J_0 + 2 sum_k J_2k = 1.  The values grow by as
    much as 1e400 on the way down, so they are divided by 2^600 (exactly)
    whenever they pass it.
    """
    big = 2.0**600
    start = max(n, math.ceil(r)) + math.isqrt(int(160 * max(n, r))) + 1
    upper, j = 0.0, 1.0  # J_{k+1}, J_k up to a common factor
    total = 0.0  # 2 sum J_2k over the even k passed
    values = []  # J_k for k < n, highest k first
    for k in range(start, 0, -1):
        if k < n:
            values.append(j)
        if k % 2 == 0:
            total += 2.0 * j
        upper, j = j, (2.0 * k / r) * j - upper
        if abs(j) > big:
            upper, j, total = upper / big, j / big, total / big
            values = [v / big for v in values]
    values.append(j)
    return np.array(values[::-1]) / (total + j)


def _sweep_plan(gen: sparse.csr_matrix, radius: float, turn: np.ndarray | None = None):
    """The plan (a, w, coef, p, c) of exp(G), G = gen plus the pair rotation by ``turn``.

    ``turn``, if given, holds one rate per pair, per column or for every
    column, for the n pairs (X, Y) in the last 2n rows of the states the plan
    acts on: (G s)_X = turn s_Y and (G s)_Y = -turn s_X, so each column has
    its own antisymmetric rotation, exactly.  ``radius`` bounds the
    imaginary part of every G's field of values (``_radius``), and the
    Gershgorin interval [lo, hi] of gen's Hermitian part its real part (the
    rotation adds none).

    exp(G) is taken as p = ceil((hi - lo)/3) substeps, each of real
    half-extent at most 1.5, and the real centre c is taken out as a factor.
    A substep is G/p = c + r Y, 2 Y = a + the pair rotation by w, Y's field
    of values within [-b, b] x i[-1, 1], b = (hi - lo)/(2 p r), and
    coef_k = (2 - delta_k0) J_k(r) from ``_bessel_j``, truncated where the
    terms fall below double precision.  A bound that is not finite, or that
    needs more than 2^20 products, is a ``NumericError`` raised before any
    work.  One plan serves any number of ``_sweep_action`` calls.
    """
    lo, hi = _gershgorin(gen)
    half = (hi - lo) / 2.0
    if not radius + half <= _MAX_PRODUCTS:
        raise NumericError(f"Chebyshev action of a generator with spectral bound "
                           f"{radius + half:.3g} needs more than 2^20 matrix-vector products")
    # a substep spans a real half-extent of at most 1.5, so its terms exceed the result
    # at most e^3 (about 20) times
    p = max(math.ceil(half / 1.5), 1)
    r = max(radius / p, 1.0)
    c = (lo + hi) / (2.0 * p)
    # J_k(r) is weighed by rho^k, rho = b + sqrt(1 + b^2), the growth of T_k at
    # Y's real half-extent b = half/(p r) <= 1.5; past k = 1.5 r + 50 the weighed
    # term is far below double precision
    b = half / (p * r)
    k = np.arange(int(1.5 * r) + 50)
    coef = 2.0 * _bessel_j(k.size, r)
    coef = coef[:np.nonzero(np.abs(coef) * (b + math.sqrt(1.0 + b * b))**k > 1e-16)[0][-1] + 1]
    coef[0] /= 2.0
    a = ((gen / p - c * sparse.identity(gen.shape[0])) * (2.0 / r)).tocsr()
    return a, None if turn is None else turn * (2.0 / (p * r)), coef, p, c


def _sweep_action(plan, u: np.ndarray) -> np.ndarray:
    """exp(G) u for the G of ``plan`` (``_sweep_plan``), without forming an exponential.

    ``u`` is a vector or a block of columns.  Each substep runs one
    Chebyshev recurrence (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967,
    1984): exp(r Y) u = sum_k (2 - delta_k0) J_k(r) s_k, s_0 = u, s_1 = Y u,
    s_{k+1} = 2 Y s_k + s_{k-1}.  That is about R products with the block,
    where a Taylor method takes several times the 1-norm.

    ``csr_matvecs`` adds each product to the term two steps back, which the
    new term overwrites, and each rotation and weighted term goes through
    one scratch block, so a step allocates nothing.
    """
    a, w, coef, p, c = plan
    v = np.array(u, dtype=np.result_type(u, a.dtype)).reshape(u.shape[0], -1)
    rows, cols = v.shape
    scratch = np.empty_like(v)
    if w is not None:
        x, y = slice(rows - 2 * w.shape[0], rows - w.shape[0]), slice(rows - w.shape[0], rows)

    def add_twice_y(s, out):  # out += 2 Y s
        csr_matvecs(rows, rows, cols, a.indptr, a.indices, a.data, s.ravel(), out.ravel())
        if w is not None:
            out[x] += np.multiply(w, s[y], out=scratch[x])
            out[y] -= np.multiply(w, s[x], out=scratch[y])
        return out

    for _ in range(p):
        prev, cur = v, add_twice_y(v, np.zeros_like(v)) * 0.5
        v = coef[0] * prev + coef[1] * cur
        for ck in coef[2:]:
            add_twice_y(cur, prev)  # s_{k+1} = 2 Y s_k + s_{k-1}, over s_{k-1}
            prev, cur = cur, prev
            v += np.multiply(ck, cur, out=scratch)
        v *= math.exp(c)
    return v.reshape(u.shape)


# ---------------------------------------------------------------------------
# segment execution


def _frame_charge(config: HilbertConfig) -> np.ndarray:
    """The diagonal of K = sigma_z/2 + sum_k n_k = N - 1/2, the generator of frame changes."""
    return _excitation_number(config) - 0.5


def _excitation_number(config: HilbertConfig) -> np.ndarray:
    """N per basis state, the sum of its level indices: |e> counts one excitation, plus sum_k n_k.

    exp(i theta N) commutes with every segment's Hamiltonian and collapse
    operators and turns a phase-0 qubit drive or pulse into the phase-theta one.
    An undriven Liouvillian therefore conserves the coherence order N_i - N_j
    of each entry |i><j|.
    """
    return np.indices(config.dims).reshape(config.n_modes + 1, -1).sum(axis=0)


def _coordinates(m: np.ndarray) -> np.ndarray:
    """S^dag vec(m): the real coordinates of a Hermitian d x d matrix in ``_hermitian_basis``.

    The first d are its diagonal."""
    return (_hermitian_basis(m.shape[0])[1] @ m.reshape(-1)).real


def _matrices(v: np.ndarray) -> np.ndarray:
    """The Hermitian matrices whose coordinates are v's columns, as a (columns, d, d) array."""
    d = math.isqrt(v.shape[0])
    return (_hermitian_basis(d)[0] @ v).T.reshape(-1, d, d)


def _frame_plan(h: np.ndarray, collapse: Sequence[np.ndarray], duration: float,
                charge: np.ndarray, frames: np.ndarray):
    """The ``_sweep_plan`` of exp(L(f) t) on Hermitian coordinates, one frame f of ``frames``
    per column.

    L(f) is the Lindbladian of H - 2 pi f D with the collapse operators,
    D = diag(``charge``).  In the Hermitian basis L(f) t is the real
    A + R(f): A = S^dag L(H_off) S t holds the couplings (H without its
    diagonal) and the dissipator, and R(f), everything diagonal in the
    number basis, turns each pair (X_ij, Y_ij) at the rate
    t [(h_i - h_j) - 2 pi f (D_i - D_j)].  The spread of H - 2 pi f D is
    convex in f, so ``_radius`` at the grid's two ends bounds every frame.
    A plan of one frame acts alike on a block of any width.
    """
    hd = h.diagonal().real
    i, j = np.triu_indices(h.shape[0], k=1)
    turn = duration * ((hd[i] - hd[j])[:, None] - TWO_PI * np.outer(charge[i] - charge[j], frames))
    radius = _radius([h - TWO_PI * f * np.diag(charge) for f in {frames.min(), frames.max()}],
                     collapse)
    a = _hermitian_generator(liouvillian(h - np.diag(hd), collapse) * duration)
    return _sweep_plan(a, duration * radius, turn)


def _frame_states(rho: DensityMatrix, h: np.ndarray, collapse: Sequence[np.ndarray],
                  duration: float, frames: np.ndarray) -> np.ndarray:
    """exp(L(f) t) rho for every frame frequency f in ``frames``, as a (len(frames), d, d) array.

    L(f) is the Lindbladian of H - 2 pi f K, K from ``_frame_charge``: H seen
    from the frame rotating at f.  One ``_sweep_action`` of the
    ``_frame_plan`` runs every frame from the coordinates of rho.
    """
    plan = _frame_plan(h, collapse, duration, _frame_charge(rho.config), frames)
    u = _coordinates(rho.matrix)
    return _matrices(_sweep_action(plan, np.repeat(u[:, None], frames.size, axis=1)))


def _segment_plan(seg: Segment, params: SystemParams, config: HilbertConfig,
                  noise: NoiseModel):
    """The ``_sweep_plan`` of an undriven segment's exp(L t) on the Hermitian coordinates of a
    block of states of any width (its drives are not read).

    Every column takes the one frame, so the diagonal of H stays in the
    sparse generator, S^dag L S t, and a product takes no pair rotation.
    """
    h = full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
    cs = collapse_operators(config, noise)
    return _sweep_plan(_hermitian_generator(liouvillian(h, cs) * seg.duration),
                       seg.duration * _radius([h], cs))


def _drive_hamiltonian(config: HilbertConfig, segment: Segment):
    """The segment's drives in their own frame: sum of pi amp (e^{-i phase} op_plus + h.c.)."""
    terms = []
    if segment.qubit_drive is not None:
        p = segment.qubit_drive
        terms.append((qubit_operator(config, "sigma_plus").matrix,
                      qubit_operator(config, "sigma_minus").matrix,
                      p.amplitude, -(p.phase + math.pi / 2.0)))  # rotation-axis convention
    if segment.phonon_drive is not None:
        p = segment.phonon_drive
        a = annihilation(config, 0).matrix
        terms.append((a.conj().T, a, p.amplitude, p.phase))
    h = 0.0
    for op_p, op_m, amp, phase in terms:
        h = h + TWO_PI * 0.5 * amp * (np.exp(-1j * phase) * op_p + np.exp(1j * phase) * op_m)
    return h


def _segment_action(state, seg: Segment, params, config: HilbertConfig, noise: NoiseModel):
    """One segment applied to one state, exactly, without a propagator.

    Serves every segment of a density matrix and the driven segments of a
    Ket.  In the frame f of the drives (the segment detuning for a qubit
    drive, 0 for a phonon drive alone or none) H is constant:
    ``full_jc_hamiltonian`` at frame f plus the static drive.  A Ket takes
    exp(-i H t); a density matrix takes ``_frame_states`` at the one frame f
    and is checked for trace (1e-6), hermiticity (1e-8) and positivity
    (eigenvalues above -1e-6).  The diagonal V = exp(-i 2 pi f t K),
    K = sigma_z/2 + sum_k n_k, returns the state to the phonon frame.
    """
    f = seg.detuning if seg.qubit_drive is not None else 0.0
    ket = isinstance(state, Ket)
    # the density branch enters the frame inside _frame_states
    h = (full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset,
                             frame=f if ket else 0.0).matrix
         + _drive_hamiltonian(config, seg))
    v = np.diag(np.exp(-1j * TWO_PI * f * seg.duration * _frame_charge(config)))
    if ket:
        return _apply(v, _apply(hermitian_propagator(h, seg.duration), state))
    rho = _frame_states(state, h, collapse_operators(config, noise), seg.duration, np.array([f]))
    return _apply(v, DensityMatrix(config, rho[0])).validate(herm_tol=1e-8, eig_floor=-1e-6)


def _segment_adjoint(op: np.ndarray, seg: Segment, params: SystemParams,
                     config: HilbertConfig, noise: NoiseModel) -> np.ndarray:
    """The Heisenberg step of an undriven segment: B with Tr[B rho] = Tr[op rho(t)].

    Without collapse operators B = U^dag op U, U the cached propagator.  With
    them B is one action and builds no propagator: vec(B^T) = exp(L^T t)
    vec(op^T), row-major as in ``liouvillian``.  L conserves the coherence
    order N_i - N_j of entry i d + j (``_excitation_number``), so the action
    runs on the entries of the orders op holds, as the one recurrence of
    ``_sweep_action`` on that slice of L^T t, and every other entry of B is
    zero.
    """
    if noise.is_trivial:
        return _apply_adjoint(_segment_propagator(seg, params, config, noise), op)
    d = config.dim
    n = _excitation_number(config)
    order = np.subtract.outer(n, n).reshape(-1)
    v = op.T.reshape(-1)
    rows = np.flatnonzero(np.isin(order, order[v != 0]))
    h = full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
    cs = collapse_operators(config, noise)
    gen = (liouvillian(h, cs) * seg.duration)[rows][:, rows]
    out = np.zeros(d * d, dtype=complex)
    out[rows] = _sweep_action(_sweep_plan(gen.T.tocsr(), seg.duration * _radius([h], cs)),
                              v[rows])
    return out.reshape(d, d).T


def evolve_segments(
    state,
    segments: Sequence[Segment],
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
):
    """Run a list of segments once; detuning changes between segments are frame jumps.

    A Ket stays a Ket while the noise is trivial and is evolved unitarily.
    Dissipative segments need a density matrix: this is the one place a Ket
    becomes a ``DensityMatrix``.  An undriven segment of a Ket applies its
    cached exp(-i H t); every other segment is one ``_segment_action`` on
    the state, so a single pass over a density matrix builds no propagator.
    Loops that apply one segment to many states plan it once
    (``_segment_plan``) and step it with ``_sweep_action``.
    """
    if isinstance(state, Ket) and not noise.is_trivial:
        state = state.to_density()
    for seg in segments:
        if isinstance(state, Ket) and seg.qubit_drive is None and seg.phonon_drive is None:
            state = _apply(_segment_propagator(seg, params, config, noise), state)
        else:
            state = _segment_action(state, seg, params, config, noise)
    return state


# ---------------------------------------------------------------------------
# named operations


def _uniform_step(times: Sequence[float]) -> float:
    """The spacing of a uniform time grid from 0 of at least two points, the grid a stepped
    loop takes; any other grid is a ``ValidationError``."""
    times = np.asarray(times, dtype=float)
    if times.size < 2 or times[0] != 0.0:
        raise ValidationError("time grid must start at 0 with at least two points")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-15):
        raise ValidationError("time grid must be uniform")
    return dt


def vacuum_rabi_chevron(
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
    detuning_grid: Sequence[float],
    time_grid: Sequence[float],
) -> np.ndarray:
    """Excited-qubit population map P_e(detuning, time), qubit starts |e>, modes in vacuum.

    The time grid must be uniform starting at 0 (``_uniform_step``).
    H(Delta) = H(0) + 2 pi Delta sigma_z/2 differs between detunings only on
    its diagonal, so the detunings are the frames of the charge -sigma_z/2:
    one ``_frame_plan``, with or without noise, and one ``_sweep_action`` on
    the block of every detuning per time step.  P_e is read off the block's
    first d rows, the diagonal of rho.
    """
    dt = _uniform_step(time_grid)
    deltas = np.asarray(detuning_grid, dtype=float)
    out = np.empty((deltas.size, len(time_grid)))
    if not deltas.size:
        return out
    sz, _ = _jc_terms(config)
    h = full_jc_hamiltonian(params, config, noise.static_qubit_offset).matrix
    plan = _frame_plan(h, collapse_operators(config, noise), dt, -0.5 * sz.diagonal().real, deltas)
    v = _coordinates(fock_state(config, [0] * config.n_modes, 1).to_density().matrix)
    v = np.repeat(v[:, None], deltas.size, axis=1)
    pe = qubit_projector(config, 1).matrix.diagonal().real
    for j in range(out.shape[1]):
        if j:
            v = _sweep_action(plan, v)
        out[:, j] = pe @ v[:config.dim]
    return out
