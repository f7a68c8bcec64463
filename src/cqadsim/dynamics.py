"""Time evolution under the Lindblad master equation.

All dynamics run in the frame rotating at the LG-00 phonon frequency for
every degree of freedom (``device.full_jc_hamiltonian`` at its default
frame, 0 Hz from LG-00), so the qubit detuning Delta(t) appears
explicitly and a second mode sits at its +1.1 MHz offset.  Rates and
frequencies are ordinary Hz at the API; Hamiltonians are angular internally.

Every state is a density matrix: ``evolve_segments`` runs a list of
segments once, each segment one ``_segment_action`` on the state, so a pass
builds no propagator.  Every drive is constant in its own frame, the segment
detuning for a qubit drive and the phonon frame for a phonon drive or none,
so the exact evolution is a constant generator followed by the diagonal
phases that return to the phonon frame.

The density kernel is one Chebyshev recurrence (``_sweep_action``) on the
real coordinates of density matrices in an orthonormal Hermitian basis
(``_coordinates``), one state per column.  ``_frame_plan`` plans
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

Every generator is a numpy CSR matrix (``_Csr``) assembled straight from
the d x d model: the Lindbladian's diagonal as a d x d array and its few
other entries as triplets (``_lindblad_entries``), mapped onto the Hermitian
coordinates (``_hermitian_generator``) or onto the restricted transposed
entries of a readout (``_adjoint_generator``) and summed in one sort
(``_csr``).  Of scipy only the compiled product ``csr_matvecs`` is used,
loaded on its own (``_load_csr_matvecs``), so no scipy package is imported;
``_bessel_j`` gives the Chebyshev coefficients J_k(r) by Miller's backward
recurrence, checked against scipy's ``jv`` in the tests.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .device import TWO_PI, SystemParams, _jc_terms, full_jc_hamiltonian
from .exceptions import NumericError, ValidationError
from .hilbert import (
    DensityMatrix,
    HilbertConfig,
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
    "clear_propagator_cache",
]


def _load_csr_matvecs():
    """scipy's compiled kernel behind A @ V for a CSR matrix A, which adds A V into a given block.

    It is the one compiled routine this package uses of scipy, so its
    extension module, ``scipy.sparse._sparsetools``, is loaded on its own:
    the one scipy.sparse already loaded if there is one, else the file found
    in scipy's ``sparse`` directory, located by ``find_spec`` without
    importing scipy.  Loading the scipy.sparse package would more than double
    the start-up of numpy alone.
    """
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        scipy_spec = importlib.util.find_spec("scipy")
        spec = None if scipy_spec is None else importlib.machinery.FileFinder(
            os.path.join(scipy_spec.submodule_search_locations[0], "sparse"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec(name)
        if spec is None:
            raise ImportError(f"cqadsim needs scipy's compiled sparse kernels ({name}), "
                              f"which were not found; install scipy")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # the module enters sys.modules as it is made; a later import of scipy.sparse
        # must load it as its own submodule, or the package lacks the attribute
        sys.modules.pop(name, None)
    return module.csr_matvecs


csr_matvecs = _load_csr_matvecs()


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
        """True when no dissipation is present, so a readout step may take the cached unitary."""
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

    Its entries are the d-row unitaries of the segments of a noise-free
    parity readout (``_segment_adjoint``); a state takes an action and puts
    nothing here.  The budget counts the elements of the
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

    The collapse operators are not read either: only a noise-free readout
    takes it.  The key is every input H is built from, so nothing is built
    or hashed beyond the arguments on a hit.
    """
    key = (seg, params, config, noise)
    prop = _CACHE.get(key)
    if prop is None:
        h = full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
        prop = hermitian_propagator(h, seg.duration)
        _CACHE.put(key, prop)
    return prop


def _apply(u: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    """U rho U^dag of a d-row U."""
    return DensityMatrix(rho.config, u @ rho.matrix @ u.conj().T)


def _apply_adjoint(u: np.ndarray, op: np.ndarray) -> np.ndarray:
    """The Heisenberg step of a d-row propagator U: U^dag op U, so Tr[op _apply(U, rho)]
    is Tr[(U^dag op U) rho]."""
    return u.conj().T @ op @ u


# ---------------------------------------------------------------------------
# sparse generators


class _Csr(NamedTuple):
    """An n x n sparse matrix as compressed rows, the operand of ``csr_matvecs``.

    Canonical as ``_csr`` makes it: column indices sorted within each row,
    one entry per position, no zero off the diagonal, and every diagonal
    entry stored.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.rows(), self.indices] = self.data
        return out


def _csr(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int) -> _Csr:
    """The canonical n x n ``_Csr`` of the entries (rows, cols, vals), in one sort.

    Entries at one position are summed in the order given.
    """
    diag = np.arange(n) * (n + 1)
    key, at = np.unique(np.concatenate([rows * n + cols, diag]), return_inverse=True)
    vals = np.concatenate([vals, np.zeros(n, dtype=vals.dtype)])
    data = np.bincount(at, vals.real, key.size)
    if np.iscomplexobj(vals):
        data = data + 1j * np.bincount(at, vals.imag, key.size)
    keep = (data != 0) | (key % (n + 1) == 0)  # row r, column c: c == r iff key = r (n + 1)
    key = key[keep]
    return _Csr(np.searchsorted(key, np.arange(n + 1) * n).astype(np.int32),
                (key % n).astype(np.int32), data[keep], (n, n))


def _lindblad_entries(h: np.ndarray, collapse: Sequence[np.ndarray]):
    """(diag, rows, cols, vals): the Lindbladian L of H and the collapse operators.

    L = kron(M, I) + kron(I, N) + sum_c kron(c, c*) acts on vec(rho), row-major
    (position i d + j holds rho_ij), with M = -iH - C/2, N = (iH - C/2)^T and
    C = sum_c c^dag c.  ``diag`` is the d x d array of its diagonal,
    L_(ij),(ij) = M_ii + N_jj + sum_c c_ii c*_jj; the triplets are its other
    entries, from the off-diagonal entries of M and N and the pairs of
    entries of c and c* that are not both diagonal, one triplet per term.
    H enters as given, never as H^dag, so a non-Hermitian H gives its exact
    (non-Hermiticity-preserving) generator.
    """
    d = h.shape[0]
    half_c = 0.5 * sum((c.conj().T @ c for c in collapse), np.zeros((d, d)))
    m, n = -1j * h - half_c, (1j * h - half_c).T
    diag = np.add.outer(m.diagonal(), n.diagonal())
    for c in collapse:
        diag = diag + np.outer(c.diagonal(), c.diagonal().conj())
    eye = np.eye(d)

    def kron_entries(a, b):
        ra, ca = np.nonzero(a)
        rb, cb = np.nonzero(b)
        return (np.add.outer(ra * d, rb).ravel(), np.add.outer(ca * d, cb).ravel(),
                np.outer(a[ra, ca], b[rb, cb]).ravel())

    terms = [kron_entries(m - np.diag(m.diagonal()), eye),
             kron_entries(eye, n - np.diag(n.diagonal())),
             *(kron_entries(c, c.conj()) for c in collapse)]
    rows, cols, vals = (np.concatenate(x) for x in zip(*terms))
    off = rows != cols
    return diag, rows[off], cols[off], vals[off]


@lru_cache(maxsize=None)
def _coordinate_map(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, s): the Hermitian coordinates that hold each row-major vec position i d + j.

    In the basis of ``_coordinates``, (i, i) is coordinate x = i alone, and
    s = 0 there.  (i, j) and (j, i), the k-th pair i < j of the upper
    triangle, share X = x = d + k and Y = y = d + d(d-1)/2 + k, whose basis
    matrices hold 1/sqrt2 and s i/sqrt2 there, s = +1 at (i, j) and -1 at
    (j, i).
    """
    i, j = np.triu_indices(d, k=1)
    x = np.zeros((d, d), dtype=np.intp)
    x[np.diag_indices(d)] = np.arange(d)
    x[i, j] = x[j, i] = d + np.arange(i.size)
    s = np.zeros((d, d))
    s[i, j], s[j, i] = 1.0, -1.0
    return x.ravel(), x.ravel() + i.size, s.ravel()


def _hermitian_generator(h: np.ndarray, collapse: Sequence[np.ndarray], t: float) -> _Csr:
    """G = S^dag L S t, the real generator on the coordinates of ``_coordinates``: L the
    Lindbladian of H and the collapse operators (``_lindblad_entries``), S's columns the
    basis matrices.

    L maps Hermitian matrices to Hermitian ones, so its entries come in
    conjugate pairs, L_p'q' = L*_pq with p' = (j, i) for p = (i, j), one pair
    within each term, and the two land on the same entries of G as
    conjugates.  L's diagonal l_ij = L_(ij),(ij) fills G directly:
    G_ii = l_ii and, for i < j, G_XX = G_YY = Re l_ij and
    G_XY = -G_YX = -Im l_ij.  Of every other pair the entry whose row lies on
    or above the diagonal (and whose column does, if its row is on it) adds
    twice Re(S*_pa L_pq S_qb), once if it is its own pair, at each pair (a, b)
    of coordinates that hold p and q (``_coordinate_map``); one ``_csr`` sums
    it all.

    The dissipator always maps Hermitian matrices to Hermitian ones and
    -i[H, .] only for a Hermitian H: ``NumericError`` if H departs from
    H^dag by more than 1e-12 of its largest entry.
    """
    if np.abs(h - h.conj().T).max() > 1e-12 * np.abs(h).max():
        raise NumericError("generator does not preserve Hermiticity")
    diag, p, q, vals = _lindblad_entries(h, collapse)
    d = h.shape[0]
    x, y, s = _coordinate_map(d)
    sp, sq = s[p], s[q]
    taken = (sp > 0) | ((sp == 0) & (sq >= 0))
    p, q, sp, sq = p[taken], q[taken], sp[taken], sq[taken]
    v = vals[taken] * np.where((sp == 0) & (sq == 0), t, 2.0 * t)
    r = math.sqrt(0.5)
    wp, wq = np.where(sp == 0, 1.0, r), np.where(sq == 0, 1.0, r)  # S at the X or diagonal
    i, j = np.triu_indices(d, k=1)
    xs, ys = x[i * d + j], y[i * d + j]
    l = diag[i, j] * t
    rows = np.concatenate([np.arange(d), xs, ys, xs, ys, x[p], x[p], y[p], y[p]])
    cols = np.concatenate([np.arange(d), xs, ys, ys, xs, x[q], y[q], x[q], y[q]])
    vals = np.concatenate([diag.diagonal().real * t, l.real, l.real, -l.imag, l.imag,
                           wp * wq * v.real, -r * wp * sq * v.imag, r * sp * wq * v.imag,
                           0.5 * sp * sq * v.real])
    held = vals != 0  # the Y terms of a diagonal position are 0
    return _csr(rows[held], cols[held], vals[held], d * d)


def _adjoint_generator(h: np.ndarray, collapse: Sequence[np.ndarray], t: float,
                       kept: np.ndarray) -> _Csr:
    """(L t)[kept][:, kept]^T, L the Lindbladian of H and the collapse operators: the
    transposed restriction of L t to the vec positions where the mask ``kept`` is true, in
    their order, assembled from the entries of L that join two of them."""
    diag, p, q, vals = _lindblad_entries(h, collapse)
    at = np.cumsum(kept) - 1  # the restricted index of each kept position
    both = kept[p] & kept[q]
    on = np.arange(np.count_nonzero(kept))
    return _csr(np.concatenate([at[q[both]], on]), np.concatenate([at[p[both]], on]),
                np.concatenate([vals[both], diag.reshape(-1)[kept]]) * t, on.size)


# At most 2^20 products per action; the spectroscopy preset's sweep takes about 1.7e3.
_MAX_PRODUCTS = 2**20


def _gershgorin(g: _Csr) -> tuple[float, float]:
    """(lo, hi): the Gershgorin interval of g's Hermitian part, so the real part of g's field
    of values lies in [lo, hi].

    The Hermitian part's entry at (r, c) is (g_rc + g*_cr)/2; g_cr is found
    by a binary search of g's canonical order, and a g_cr stored without its
    g_rc adds |g_cr|/2 to row r as well.  A g that is not finite gives an
    interval that is not, which ``_sweep_plan`` refuses.
    """
    n = g.shape[0]
    rows = g.rows()
    key = rows * n + g.indices  # ascending: g is canonical
    mirror = g.indices * n + rows
    at = np.minimum(np.searchsorted(key, mirror), key.size - 1)
    paired = key[at] == mirror
    with np.errstate(invalid="ignore"):  # inf - inf
        sym = 0.5 * np.abs(g.data + np.where(paired, g.data[at].conj(), 0.0))
    on = rows == g.indices
    d = np.zeros(n)
    d[rows[on]] = g.data[on].real
    off = (np.bincount(rows, np.where(on, 0.0, sym), n)
           + np.bincount(g.indices, np.where(paired, 0.0, sym), n))
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


def _sweep_plan(gen: _Csr, radius: float, turn: np.ndarray | None = None):
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
    data = gen.data / p
    data[gen.rows() == gen.indices] -= c  # canonical: the whole diagonal is stored
    a = gen._replace(data=data * (2.0 / r))
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
    v = np.array(u, dtype=np.result_type(u, a.data.dtype)).reshape(u.shape[0], -1)
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
    """The real coordinates of a Hermitian d x d matrix in an orthonormal Hermitian basis.

    The basis is |i><i|, then (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2
    for the pairs i < j of the upper triangle in row-major order, so the
    coordinates are m's diagonal, sqrt2 Re m_ij and sqrt2 Im m_ij.
    """
    i, j = np.triu_indices(m.shape[0], k=1)
    upper = math.sqrt(2.0) * m[i, j]
    return np.concatenate([m.diagonal().real, upper.real, upper.imag])


def _matrices(v: np.ndarray) -> np.ndarray:
    """The Hermitian matrices whose coordinates (``_coordinates``) are v's columns, as a
    (columns, d, d) array."""
    d = math.isqrt(v.shape[0])
    i, j = np.triu_indices(d, k=1)
    out = np.empty((v.shape[1], d, d), dtype=complex)
    out[:, np.arange(d), np.arange(d)] = v[:d].T
    upper = math.sqrt(0.5) * (v[d:d + i.size] + 1j * v[d + i.size:]).T
    out[:, i, j], out[:, j, i] = upper, upper.conj()
    return out


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
    return _sweep_plan(_hermitian_generator(h - np.diag(hd), collapse, duration),
                       duration * radius, turn)


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
    return _sweep_plan(_hermitian_generator(h, cs, seg.duration), seg.duration * _radius([h], cs))


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


def _segment_action(rho: DensityMatrix, seg: Segment, params, config: HilbertConfig,
                    noise: NoiseModel) -> DensityMatrix:
    """One segment applied to one density matrix, exactly, without a propagator.

    In the frame f of the drives (the segment detuning for a qubit drive, 0
    for a phonon drive alone or none) H is constant: ``full_jc_hamiltonian``
    plus the static drive, taken into the frame by ``_frame_states`` at the
    one frame f.  The result is checked for trace (1e-6), hermiticity (1e-8)
    and positivity (eigenvalues above -1e-6).  The diagonal
    V = exp(-i 2 pi f t K), K = sigma_z/2 + sum_k n_k, returns the state to
    the phonon frame.
    """
    f = seg.detuning if seg.qubit_drive is not None else 0.0
    h = (full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
         + _drive_hamiltonian(config, seg))
    v = np.diag(np.exp(-1j * TWO_PI * f * seg.duration * _frame_charge(config)))
    out = _frame_states(rho, h, collapse_operators(config, noise), seg.duration, np.array([f]))
    return _apply(v, DensityMatrix(config, out[0])).validate(herm_tol=1e-8, eig_floor=-1e-6)


def _segment_adjoint(op: np.ndarray, seg: Segment, params: SystemParams,
                     config: HilbertConfig, noise: NoiseModel) -> np.ndarray:
    """The Heisenberg step of an undriven segment: B with Tr[B rho] = Tr[op rho(t)].

    Without collapse operators B = U^dag op U, U the cached propagator.  With
    them B is one action and builds no propagator: vec(B^T) = exp(L^T t)
    vec(op^T), row-major as in ``_lindblad_entries``.  L conserves the
    coherence order N_i - N_j of entry i d + j (``_excitation_number``), so
    the action runs on the entries of the orders op holds, as the one
    recurrence of ``_sweep_action`` on the transposed restriction of L t,
    assembled from the entries of L that join two of them, and every other
    entry of B is zero.
    """
    if noise.is_trivial:
        return _apply_adjoint(_segment_propagator(seg, params, config, noise), op)
    d = config.dim
    n = _excitation_number(config)
    order = np.subtract.outer(n, n).reshape(-1)
    v = op.T.reshape(-1)
    kept = np.isin(order, order[v != 0])
    h = full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
    cs = collapse_operators(config, noise)
    gen = _adjoint_generator(h, cs, seg.duration, kept)
    out = np.zeros(d * d, dtype=complex)
    out[kept] = _sweep_action(_sweep_plan(gen, seg.duration * _radius([h], cs)), v[kept])
    return out.reshape(d, d).T


def evolve_segments(
    state: DensityMatrix,
    segments: Sequence[Segment],
    params: SystemParams,
    config: HilbertConfig,
    noise: NoiseModel,
) -> DensityMatrix:
    """Run a list of segments once; detuning changes between segments are frame jumps.

    Every segment, driven or not, is one ``_segment_action``, so a single
    pass builds no propagator.  Loops that apply one segment to many states
    plan it once (``_segment_plan``) and step it with ``_sweep_action``.
    """
    for seg in segments:
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
    v = _coordinates(fock_state(config, [0] * config.n_modes, 1).matrix)
    v = np.repeat(v[:, None], deltas.size, axis=1)
    pe = qubit_projector(config, 1).matrix.diagonal().real
    for j in range(out.shape[1]):
        if j:
            v = _sweep_action(plan, v)
        out[:, j] = pe @ v[:config.dim]
    return out
