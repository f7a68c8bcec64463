"""Fitting and reconstruction: spectra, populations, decays, Wigner maps.

Every nonlinear fit is one bounded least-squares problem solved by ``_fit``,
a Levenberg-Marquardt trust-region method with an analytic Jacobian, from
one deterministic start; no fit draws a random number.  The fits with linear
parameters are separable (variable projection): the linear ones are solved
exactly at every trial, so ``_fit`` sees only the nonlinear ones, with exact
derivatives.  The Voigt-sum fit solves its baseline and heights by a bounded
linear solve (``_bvls``, an active-set method) and fits positions and
widths; ``_projected_fit`` solves the amplitudes and offsets of the decay
fits and of the offset-scan sinusoid (``sequences``) by ``lstsq`` and fits
only the decay time and the frequency.  The Poisson fit has one parameter,
with the exact derivative dP_n/dnbar = P_{n-1} - P_n.  Uncertainties come
from the standard covariance of the linearized problem at the optimum, taken
from the SVD of the column-scaled Jacobian of the full model
(``_covariance_sigmas``, which the calibration line shares).  Fits never
raise on pathological data; they return a result with ``converged=False``.
The Voigt profile's Faddeeva function is Weideman's rational approximation
(``_faddeeva``), so the module needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .exceptions import ValidationError

__all__ = [
    "SpectrumTrace",
    "FitResult",
    "WignerMap",
    "voigt_sum_fit",
    "poisson_fit",
    "beta_decay_ratio",
    "calibration_fit",
    "parity_from_populations",
    "decay_fit",
    "wigner_assemble",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SpectrumTrace:
    """Qubit excitation vs probe frequency (Hz, relative to the LG-00 mode)."""

    frequencies: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        p = np.asarray(self.populations, dtype=float)
        if f.ndim != 1 or f.shape != p.shape:
            raise ValidationError("frequencies and populations must be equal-length 1D arrays")
        if not np.all(np.diff(f) > 0):
            raise ValidationError("frequencies must be strictly increasing")
        f.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "populations", p)


@dataclass(frozen=True)
class FitResult:
    parameters: Mapping[str, float]
    uncertainties: Mapping[str, float]
    residual_norm: float
    converged: bool
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if any(v < 0 for v in self.uncertainties.values() if np.isfinite(v)):
            raise ValidationError("uncertainties must be >= 0")


@dataclass(frozen=True)
class WignerMap:
    """Phase-space map of (2/pi) times displaced parity."""

    beta_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.beta_grid, dtype=complex)
        v = np.asarray(self.values, dtype=float)
        if b.shape != v.shape:
            raise ValidationError("beta grid and values must have the same shape")
        if np.abs(v).max(initial=0.0) > 2.0 / math.pi + 0.05:
            raise ValidationError("Wigner values exceed 2/pi beyond the allowed slack")
        b.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "beta_grid", b)
        object.__setattr__(self, "values", v)


# ---------------------------------------------------------------------------
# generic least-squares helpers


def _covariance_sigmas(jac: np.ndarray, cost: float) -> np.ndarray:
    """One-standard-deviation parameter uncertainties at an optimum of cost = SSR/2.

    The square roots of the diagonal of s^2 (J^T J)^-1, taken from the SVD of
    J with unit-norm columns, J = U S V^T D: the variance of parameter i is
    s^2 sum_j (V_ij / S_j)^2 / D_i^2.  Forming J^T J would square the
    condition number, which column scales alone (Hz against unit heights)
    push past 1e9, and lose the weakest directions to rounding.  A parameter
    whose column is zero, or every parameter when J is not finite or the
    scaled J is rank-deficient, is undetermined: its uncertainty is infinite.
    """
    n_data, n_params = jac.shape
    s_sq = 2.0 * cost / max(n_data - n_params, 1)
    sigmas = np.full(n_params, np.inf)
    norms = np.linalg.norm(jac, axis=0)
    if not np.all(np.isfinite(norms)):
        return sigmas
    live = norms > 0.0
    try:
        _, s, vt = np.linalg.svd(jac[:, live] / norms[live], full_matrices=False)
    except np.linalg.LinAlgError:
        return sigmas
    if s.size and s[-1] > s[0] * max(jac.shape) * np.finfo(float).eps:
        sigmas[live] = np.sqrt(s_sq * np.sum((vt / s[:, None]) ** 2, axis=0)) / norms[live]
    return sigmas


def _fit(residual, jac, x0, bounds, names, tol=1e-12):
    """Bounded least squares, min |r(x)|^2 / 2 over lo <= x <= hi, from the one start ``x0``.

    Solved by ``_levenberg_marquardt`` with the analytic Jacobian ``jac``.
    Returns (FitResult, x), the uncertainties from J at x; ``converged``
    means a stopping test held within the evaluation budget at a finite cost.
    When the start is infeasible or not finite, or a linear solve fails, x
    is None and the result is flagged.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)
    x = np.array(x0, dtype=float)
    try:
        x, r, jx, converged = _levenberg_marquardt(residual, jac, x, lo, hi, tol)
    except np.linalg.LinAlgError:
        x = None
    if x is None:
        return FitResult({}, {}, math.nan, False, {"reason": "no convergence"}), None
    cost = 0.5 * float(r @ r)
    sigmas = _covariance_sigmas(jx, cost)
    fit = FitResult(
        dict(zip(names, [float(v) for v in x])),
        dict(zip(names, [float(v) for v in sigmas])),
        float(math.sqrt(2.0 * cost)),
        bool(converged and np.isfinite(cost)),
    )
    return fit, x


def _levenberg_marquardt(residual, jac, x, lo, hi, tol):
    """Levenberg-Marquardt as a trust-region method, kept inside the box [lo, hi].

    After Moré (Lecture Notes in Mathematics 630, 105, 1978): each trial step
    minimizes the linearized cost over |D p| <= Delta, D the column norms of
    J (``_trust_step``), and Delta starts at 100 |D x|.  A parameter on a
    bound that the gradient, or else the step, pushes against is held there;
    a step that would cross a bound stops on it.  The ratio of the actual to
    the predicted fall of the cost decides whether the step is taken (above
    1e-4; above 1/4 for a step that stops on a bound, since a bound can hold
    a flat corner, such as a decay time at its floor, where every column
    vanishes) and how Delta changes.  Stops, converged, when the residual is
    zero or at most ``tol`` in cosine from every free column, when a full
    step moves D x by at most ``tol`` relative, or when a step's actual and
    predicted falls are both at most ``tol`` of the cost; not converged
    after 100 residual evaluations per parameter.  Returns (x, r, J,
    converged), or Nones when x or r(x) is not finite or x is outside the
    box.
    """
    if not (np.all(np.isfinite(x)) and np.all(lo <= x) and np.all(x <= hi)):
        return None, None, None, False
    r = residual(x)
    if not np.all(np.isfinite(r)):
        return None, None, None, False
    jx, cost, delta = jac(x), 0.5 * float(r @ r), None
    for _ in range(100 * x.size - 1):
        g = jx.T @ r
        norms = np.linalg.norm(jx, axis=0)
        free = ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
        if cost == 0.0 or np.all(np.abs(g[free]) <= tol * norms[free] * math.sqrt(2.0 * cost)):
            return x, r, jx, True
        scale = np.where(norms > 0.0, norms, 1.0)
        if delta is None:
            delta = 100.0 * (float(np.linalg.norm(scale * x)) or 1.0)
        while True:
            step = np.zeros(x.size)
            step[free] = _trust_step(jx[:, free] / scale[free], r, delta) / scale[free]
            out = ((x <= lo) & (step < 0.0)) | ((x >= hi) & (step > 0.0))
            if not out.any():
                break
            free &= ~out
        room = np.full(x.size, np.inf)  # the fraction of the step that reaches each bound
        up, down = step > 0.0, step < 0.0
        room[up] = (hi - x)[up] / step[up]
        room[down] = (lo - x)[down] / step[down]
        k = int(np.argmin(room))
        stops = room[k] < 1.0
        trial = np.clip(x + min(room[k], 1.0) * step, lo, hi)
        if stops:
            trial[k] = hi[k] if up[k] else lo[k]
        step = trial - x
        r_trial = residual(trial)
        cost_trial = 0.5 * float(r_trial @ r_trial)
        if not np.isfinite(cost_trial):
            cost_trial = math.inf
        actual = cost - cost_trial
        predicted = -float(g @ step) - 0.5 * float(np.sum((jx @ step) ** 2))
        ratio = actual / predicted if predicted > 0.0 else 0.0
        step_norm = float(np.linalg.norm(scale * step))
        if ratio < 0.25:
            delta = 0.25 * step_norm
        elif ratio > 0.75:
            delta = max(delta, 2.0 * step_norm)
        if ratio > (0.25 if stops else 1e-4):
            x, r, jx, cost = trial, r_trial, jac(trial), cost_trial
        if (not stops and step_norm <= tol * float(np.linalg.norm(scale * x))) or (
                abs(actual) <= tol * cost and predicted <= tol * cost):
            return x, r, jx, True
    return x, r, jx, False


def _trust_step(jac, r, delta):
    """The step q minimizing |jac q + r| over |q| <= delta, for columns of at most unit norm.

    Directions of jac weaker than rounding of 1 are dropped.  The (minimum
    norm) Gauss-Newton step when it is inside the ball; else q(lam) =
    -(jac^T jac + lam)^-1 jac^T r with |q(lam)| = delta to 10 %, lam from
    safeguarded Newton iterations on 1/|q(lam)| (Moré 1978; Nocedal & Wright,
    Numerical Optimization, algorithm 4.3), all on the SVD jac = U S V^T.
    """
    u, s, vt = np.linalg.svd(jac, full_matrices=False)
    keep = s > max(jac.shape) * np.finfo(float).eps
    s, uf, vt = s[keep], (u.T @ r)[keep], vt[keep]
    q = -vt.T @ (uf / s)
    if np.linalg.norm(q) <= delta:
        return q
    suf = s * uf

    def size_and_slope(lam):
        den = s**2 + lam
        size = float(np.linalg.norm(suf / den))
        return size, -float(np.sum(suf**2 / den**3)) / size

    size, slope = size_and_slope(0.0)
    lower, upper = -(size - delta) / slope, float(np.linalg.norm(suf)) / delta
    lam = max(1e-3 * upper, math.sqrt(lower * upper))
    for _ in range(10):
        if not lower <= lam <= upper:
            lam = max(1e-3 * upper, math.sqrt(lower * upper))
        size, slope = size_and_slope(lam)
        if abs(size - delta) <= 0.1 * delta:
            break
        if size < delta:
            upper = lam
        newton = (size - delta) / slope
        lower = max(lower, lam - newton)
        lam -= newton * size / delta
    return -vt.T @ (suf / (s**2 + lam))


def _bvls(a, b, lo, hi):
    """Bounded-variable least squares, min |a x - b| over lo <= x <= hi.

    The active-set method of Stark & Parker (Comput. Stat. 10, 129, 1995):
    from the unconstrained ``lstsq`` solution clipped to the box (the answer,
    at the cost of that one solve, when it lies inside), solve on the free
    variables with the others held at their bounds, stepping back to the
    first bound the solution would cross and holding that variable there,
    until the free solution is feasible; then free the held variable whose
    gradient most wants it inside, until none does beyond rounding.
    Returns (x, active), ``active`` True where x is held at a bound.
    """
    x = np.linalg.lstsq(a, b, rcond=None)[0]
    side = np.where(x < lo, -1, np.where(x > hi, 1, 0))  # -1 held at lo, 1 held at hi
    if not side.any():
        return x, side != 0
    x = np.clip(x, lo, hi)
    tol = 1e-10 * np.linalg.norm(a, axis=0) * np.linalg.norm(b)
    for _ in range(3 * x.size):
        while True:  # least squares on the free variables until it is feasible
            free = side == 0
            z = x.copy()
            z[free] = np.linalg.lstsq(a[:, free], b - a[:, ~free] @ x[~free], rcond=None)[0]
            crossed = free & ((z < lo) | (z > hi))
            if not crossed.any():
                x = z
                break
            target = np.where(z < lo, lo, hi)
            alpha = np.full(x.size, np.inf)
            alpha[crossed] = (target[crossed] - x[crossed]) / (z[crossed] - x[crossed])
            k = int(np.argmin(alpha))
            x = x + alpha[k] * (z - x)
            x[k], side[k] = target[k], (-1 if z[k] < lo[k] else 1)
        pull = side * (a.T @ (a @ x - b))  # > 0: the cost falls if x_k moves inside
        k = int(np.argmax(pull - tol))
        if pull[k] <= tol[k]:
            break
        side[k] = 0
    return x, side != 0


def _projected_fit(columns, y, theta0, bounds, names):
    """Separable least squares of y against the columns of a basis B(theta).

    Variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973):
    the coefficients c of the columns are solved by ``lstsq`` at every trial,
    so ``_fit`` sees only the nonlinear parameters theta, from one start at
    1e-12 tolerances, with the Jacobian projected off the columns (Kaufman's
    form).  The derivatives dB/dtheta_k are exact to rounding: each is the
    imaginary part of B(theta + i h e_k)/h, a complex step (Squire & Trapp,
    SIAM Rev. 40, 110, 1998), so ``columns`` must be written in real
    functions that extend to complex theta, and theta stays nonzero within
    its bounds.  Returns (FitResult over theta, theta, c, the full model's
    Jacobian [B, dB/dtheta c] at the optimum); all but the FitResult are None
    when the fit cannot start.
    """
    def solve(theta):
        basis = columns(theta)
        coef = np.linalg.lstsq(basis, y, rcond=None)[0]
        steps = np.diag(1e-20 * np.abs(theta))  # one complex step per parameter
        deriv = [columns(theta + 1j * h).imag @ coef / h[k] for k, h in enumerate(steps)]
        return basis, coef, np.column_stack(deriv)

    def residual(theta):
        basis, coef, _ = solve(theta)
        return basis @ coef - y

    def jacobian(theta):
        basis, _, deriv = solve(theta)
        q = np.linalg.qr(basis)[0]
        return deriv - q @ (q.T @ deriv)

    fit, theta = _fit(residual, jacobian, theta0, bounds, names)
    if theta is None:
        return fit, None, None, None
    basis, coef, deriv = solve(theta)
    return fit, theta, coef, np.column_stack([basis, deriv])


def _newton_polish(gradient, x: float, lo: float, hi: float) -> float:
    """Safeguarded Newton steps on a one-parameter fit's slope, from the fit's optimum x.

    ``_fit`` stops on its cosine and step tests, up to about 1e-9 short of the
    optimum.  ``gradient(x)`` returns the cost's slope and its curvature; a
    step x - slope/curvature is taken only while |slope| falls and x stays
    inside (lo, hi), which brings the slope to rounding.
    """
    g, dg = gradient(x)
    while dg > 0.0 and lo < (trial := x - g / dg) < hi:
        g_trial, dg_trial = gradient(trial)
        if not abs(g_trial) < abs(g):
            break
        x, g, dg = trial, g_trial, dg_trial
    return x


def _quantile(x: np.ndarray, q: float) -> float:
    """The q-quantile of x by numpy's default linear rule, as ``np.quantile(x, q)``, bit for bit.

    The value at the virtual index h = (n - 1) q lies between the sorted
    values a and b at floor(h) and the next index, which one ``np.partition``
    finds; with g = h - floor(h) it is a + (b - a) g, or b - (b - a)(1 - g)
    from g = 1/2 on.  ``np.quantile`` and ``np.median`` would import
    ``numpy.ma`` on their first call.
    """
    h = (x.size - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, x.size - 1)
    a, b = np.partition(x, [lo, hi])[[lo, hi]]
    g = h - lo
    return float(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)


def _dominant_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Frequency (Hz) of the peak of the detrended trace's periodogram, zero-padded 8-fold.

    The peak is sought from the lowest non-constant frequency of the unpadded
    transform up to, but not at, the Nyquist frequency, where the sine of
    every sample vanishes and a fit started there cannot leave it.
    """
    n = 8 * t.size
    spec = np.abs(np.fft.rfft(y - y.mean(), n))
    freqs = np.fft.rfftfreq(n, _quantile(np.diff(t), 0.5))
    return float(freqs[np.argmax(spec[8:-1]) + 8])


# ---------------------------------------------------------------------------
# spectral fits


_SQRT_PI = math.sqrt(math.pi)


def _weideman_coefficients(n: int) -> tuple[float, np.ndarray]:
    """(L, a): the scale and the n coefficients a_k of Z^k in Weideman's approximation of w.

    a_k are the Fourier coefficients of exp(-t^2) (L^2 + t^2) at t = L tan(theta/2),
    taken by one FFT of 4n samples (Weideman, SIAM J. Numer. Anal. 31, 1497, 1994).
    """
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t * t) * (scale * scale + t * t)])
    return scale, (np.fft.fft(np.fft.fftshift(f)).real / (2 * m))[1 : n + 1]


_WEIDEMAN_L, _WEIDEMAN_A = _weideman_coefficients(40)
# 2 a_k in five rows of eight: row j holds the factors of Z^(8j) .. Z^(8j + 7)
_WEIDEMAN_ROWS = 2.0 * _WEIDEMAN_A.reshape(5, 8)


def _faddeeva(z: np.ndarray) -> np.ndarray:
    """The Faddeeva function w(z) = exp(-z^2) erfc(-iz) for Im z >= 0.

    Weideman's rational approximation with N = 40 terms:
    w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi) (L - iz)), Z = (L + iz)/(L - iz),
    p the polynomial of ``_weideman_coefficients``.  |Z| <= 1 in the upper
    half-plane.  p is split as sum_j q_j(Z) Z^(8j) with q_j of degree 7: one
    product of the coefficient rows with the table Z^0..Z^7 gives every q_j,
    and Horner's rule in Z^8 sums them.  Within 3e-14 |w| of scipy's ``wofz``
    over |Re z| <= 1e6, 1e-3 <= Im z <= 500; the Voigt fit's width bounds
    keep Im z within [1.2e-3, 425].  erfcx(a) = w(ia) for a > 0.
    """
    iz = 1j * z
    r = 1.0 / (_WEIDEMAN_L - iz)
    big_z = np.ravel((_WEIDEMAN_L + iz) * r)
    powers = np.empty((8, big_z.size), dtype=complex)  # Z^0 .. Z^7
    powers[0] = 1.0
    powers[1] = big_z
    np.multiply(powers[1], big_z, out=powers[2])
    np.multiply(powers[1:3], powers[2], out=powers[3:5])
    np.multiply(powers[1:4], powers[4], out=powers[5:8])
    q = _WEIDEMAN_ROWS @ powers
    z8 = powers[7] * big_z
    p = q[4]
    for j in (3, 2, 1, 0):
        p = p * z8
        p += q[j]
    p = p.reshape(np.shape(z))
    p *= r
    p += 1.0 / _SQRT_PI
    p *= r
    return p


def _voigt_columns(x, positions, sigma, gamma):
    """Unit-height Voigt profiles at ``positions`` and their derivatives, one column per peak.

    Returns (phi, d_pos, d_sigma, d_gamma), each of shape (x.size, positions.size):
    phi = Re w(z) / erfcx(a) with z = (x - x_k + i gamma)/(sigma sqrt 2) and
    a = gamma/(sigma sqrt 2), so that phi is 1 at its peak, and its derivatives
    with respect to the peak position, sigma and gamma from
    w'(z) = -2 z w(z) + 2i/sqrt(pi) and erfcx'(a) = 2 a erfcx(a) - 2/sqrt(pi).
    w is ``_faddeeva`` and erfcx(a) its value w(ia), from the same call.
    """
    s = sigma * math.sqrt(2.0)
    z = ((x[:, None] - positions[None, :]) + 1j * gamma) / s
    a = gamma / s
    w = _faddeeva(np.append(z, 1j * a))
    peak = float(w[-1].real)
    w = w[:-1].reshape(z.shape)
    dw = -2.0 * z * w + 2j / _SQRT_PI
    dlog_peak = 2.0 * a - 2.0 / (_SQRT_PI * peak)  # erfcx'(a) / erfcx(a)
    phi = w.real / peak
    d_pos = -dw.real / (s * peak)
    d_sigma = (-(dw * z).real / peak + phi * dlog_peak * a) / sigma
    d_gamma = (-dw.imag / peak - phi * dlog_peak) / s
    return phi, d_pos, d_sigma, d_gamma


def voigt_sum_fit(
    trace: SpectrumTrace,
    n_peaks: int,
    spacing_hint: float,
    center_hint: float | None = None,
    deviation_bound: float = 0.25,
    seed: int = 0,
):
    """Fit a sum of Voigt profiles with a shared peak spacing.

    Peak k sits at ``center + k*spacing + d_k`` with |d_k| bounded by
    ``deviation_bound * |spacing|``; all peaks share one Gaussian and one
    Lorentzian width.  d_0 = d_{n-1} = 0, so ``spacing`` is the chord from the
    first to the last peak (the one ``spectroscopy_peak_hints`` gives): with
    every d_k free, spacing + D and d_k - k*D would be the same model.

    The fit is separable (variable projection; Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413, 1973): the model is linear in the baseline and the heights,
    which a bounded linear least-squares solve (``_bvls``) finds for every
    trial of the nonlinear parameters (center, spacing, widths, deviations).
    Only those reach the nonlinear solve (``_fit``), from one start, with the
    analytic Jacobian of
    the Faddeeva profiles projected off the free linear unknowns (Kaufman's
    form).  The reported uncertainties come from the full Jacobian at the
    optimum.  Returns (FitResult, populations) where the populations are the
    normalized peak heights.

    ``seed`` is unused: no fit draws a random number.  It stays only because
    the benchmark's worker (``benchmarks/worker.py``) passes it, as
    ``RunManifest.seed`` and ``jobs`` do.
    """
    if n_peaks < 1:
        raise ValidationError("need at least one peak")
    if spacing_hint == 0.0:
        raise ValidationError("spacing hint must be nonzero")
    x = trace.frequencies
    y = trace.populations
    span = float(x[-1] - x[0])
    signal = float(y.max() - y.min())
    if signal <= 0 or not np.isfinite(signal):
        return (
            FitResult({}, {}, float(np.linalg.norm(y)), False, {"reason": "no signal"}),
            np.zeros(n_peaks),
        )

    w0 = max(abs(spacing_hint) / 8.0, span / 200.0)
    c0 = center_hint if center_hint is not None else float(x[np.argmax(y)])
    base0 = _quantile(y, 0.05)
    base_lo = min(base0, float(y.min()))
    nd = max(n_peaks - 2, 0)
    index = np.arange(n_peaks)
    # linear unknowns [baseline, h_0..h_{n-1}] and their bounds
    linear_bounds = (np.concatenate([[base_lo - signal], np.zeros(n_peaks)]),
                     np.concatenate([[base_lo + 0.15 * signal], np.full(n_peaks, 10.0 * signal)]))

    cache = {}  # the last theta's columns, linear solution and model derivatives

    def solve(theta):
        key = theta.tobytes()
        if key not in cache:
            center, spacing, sigma, gamma = theta[:4]
            devs = np.zeros(n_peaks)
            devs[1 : 1 + nd] = theta[4:]
            phi, d_pos, d_sigma, d_gamma = _voigt_columns(
                x, center + index * spacing + devs, sigma, gamma)
            basis = np.column_stack([np.ones_like(x), phi])
            lin = _bvls(basis, y, *linear_bounds)
            h = lin[0][1:]
            slope = d_pos * h  # d model / d position of each peak
            deriv = np.column_stack([slope.sum(axis=1), slope @ index, d_sigma @ h,
                                     d_gamma @ h, slope[:, 1 : 1 + nd]])
            cache.clear()
            cache[key] = basis, lin, deriv
        return cache[key]

    def residual(theta):
        basis, (coef, _), _ = solve(theta)
        return basis @ coef - y

    def jacobian(theta):
        basis, (_, active), deriv = solve(theta)
        q, _ = np.linalg.qr(basis[:, ~active])
        return deriv - q @ (q.T @ deriv)

    # params: [center, spacing, sigma, gamma, d_1..d_{n-2}]; the baseline and the
    # heights are solved for at every trial, so no start has to guess them
    x0 = np.concatenate([[c0, spacing_hint, w0 / 2.0, w0 / 2.0], np.zeros(nd)])
    dmax = deviation_bound * abs(spacing_hint)
    lo = np.concatenate([[c0 - 0.5 * abs(spacing_hint), spacing_hint - 0.2 * abs(spacing_hint),
                          w0 / 50.0, w0 / 50.0], -dmax * np.ones(nd)])
    hi = np.concatenate([[c0 + 0.5 * abs(spacing_hint), spacing_hint + 0.2 * abs(spacing_hint),
                          abs(spacing_hint) * 1.5, abs(spacing_hint) * 1.5], dmax * np.ones(nd)])
    names = ["center", "spacing", "sigma_gauss", "gamma_lorentz"] + [
        f"deviation_{k}" for k in range(1, n_peaks - 1)]
    # one start: at 1e-12 the four jittered starts this fit once added all stopped
    # at this start's optimum (chi from ten jitter draws agreed to 1e-8 on the
    # spectroscopy benchmark's spectra, to 6e-4 at the default 1e-8)
    fit, best = _fit(residual, jacobian, x0, (lo, hi), names)
    if best is None:
        return fit, np.zeros(n_peaks)
    basis, (coef, _), deriv = solve(best)
    base, heights = coef[0], coef[1:]
    # the full Jacobian [1, phi_k, d model/d theta] in the order of the names below
    full = np.column_stack([basis[:, 0], deriv[:, :4], basis[:, 1:], deriv[:, 4:]])
    center, spacing, sigma, gamma = best[:4]
    values = np.concatenate([[base], best[:4], heights, best[4:]])
    names = ["baseline", *names[:4], *(f"height_{k}" for k in index), *names[4:]]
    sigmas = _covariance_sigmas(full, 0.5 * fit.residual_norm**2)
    fit = replace(fit, parameters=dict(zip(names, map(float, values))),
                  uncertainties=dict(zip(names, map(float, sigmas))))
    total = float(np.sum(heights))
    populations = heights / total if total > 0 else np.zeros(n_peaks)
    fwhm = 0.5346 * 2 * gamma + math.sqrt(0.2166 * (2 * gamma) ** 2 + 8 * math.log(2) * sigma**2)
    fit.metadata.update(profile="voigt_exact_wofz",
                        overlap_degenerate=bool(abs(spacing) < fwhm / 2.0), fwhm=float(fwhm))
    return fit, populations


def poisson_fit(populations: Sequence[float]) -> FitResult:
    """Least-squares fit of Fock populations to a Poisson distribution.

    Returns parameters ``nbar`` and ``beta`` (= sqrt(nbar)).
    """
    p = np.asarray(populations, dtype=float)
    if p.size < 1 or np.all(p == 0):
        raise ValidationError("populations are empty or all zero")
    total = p.sum()
    if abs(total - 1.0) > 0.02:
        raise ValidationError(f"populations must sum to 1 within 2%, got {total:.4f}")
    n = np.arange(p.size)
    # log n! of the exact integer n!: correctly rounded at small n, where math.lgamma is not
    log_factorial = np.array([math.log(math.factorial(k)) for k in range(p.size)])

    def poisson(nbar):
        if nbar <= 0:
            out = np.zeros(p.size)
            out[0] = 1.0
            return out
        return np.exp(-nbar + n * math.log(nbar) - log_factorial)

    def residual(theta):
        return poisson(theta[0]) - p

    def lower(v):  # v_{n-1}, with v_{-1} = 0: d/dnbar of P_n is lower(P)_n - P_n
        return np.concatenate([[0.0], v[:-1]])

    def jacobian(theta):  # dP_n/dnbar = P_n (n/nbar - 1) = P_{n-1} - P_n
        q = poisson(theta[0])
        return (lower(q) - q)[:, None]

    def gradient(nbar):  # (J^T r, its derivative J^T J + r^T d^2P/dnbar^2)
        q = poisson(nbar)
        dq = lower(q) - q
        r = q - p
        return float(dq @ r), float(dq @ dq + (lower(dq) - dq) @ r)

    nbar0, upper = float(np.sum(n * p)), float(p.size) * 2.0
    fit, x = _fit(residual, jacobian, [nbar0], ([0.0], [upper]), ["nbar"], tol=1e-14)
    if x is not None and 0.0 < x[0] < upper:
        nbar = _newton_polish(gradient, float(x[0]), 0.0, upper)
        r = residual([nbar])
        cost = 0.5 * float(r @ r)
        fit = replace(fit, parameters={"nbar": nbar}, residual_norm=math.sqrt(2.0 * cost),
                      uncertainties={"nbar": float(_covariance_sigmas(jacobian([nbar]), cost)[0])})
    if x is not None:
        nbar, nbar_err = fit.parameters["nbar"], fit.uncertainties["nbar"]
        beta = math.sqrt(max(nbar, 0.0))
        fit.parameters["beta"] = beta
        fit.uncertainties["beta"] = nbar_err / (2.0 * beta) if beta > 0 else nbar_err
    return fit


def beta_decay_ratio(kappa_total: float, tau_spec: float) -> float:
    """Average amplitude-survival factor (1 - e^{-2 pi kappa tau})/(2 pi kappa tau)."""
    if kappa_total < 0 or tau_spec <= 0:
        raise ValidationError("kappa must be >= 0 and tau > 0")
    x = TWO_PI * kappa_total * tau_spec
    if x == 0.0:
        return 1.0
    return float(-math.expm1(-x) / x)


def calibration_fit(drive_amplitudes: Sequence[float], fitted_betas: Sequence[float]) -> FitResult:
    """Least-squares line through (amplitude, |beta|) points, with R^2."""
    a = np.asarray(drive_amplitudes, dtype=float)
    b = np.asarray(fitted_betas, dtype=float)
    if a.size < 3 or a.size != b.size:
        raise ValidationError("need at least 3 matching calibration points")
    design = np.vstack([a, np.ones_like(a)]).T
    coef, *_ = np.linalg.lstsq(design, b, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((b - fitted) ** 2))
    ss_tot = float(np.sum((b - b.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    sig = _covariance_sigmas(design, ss_res / 2.0)
    return FitResult(
        {"slope": float(coef[0]), "intercept": float(coef[1]), "r_squared": float(r2)},
        {"slope": float(sig[0]), "intercept": float(sig[1])},
        math.sqrt(ss_res),
        True,
    )


def parity_from_populations(populations: Sequence[float]) -> float:
    """Sum of (-1)^n P_n for normalized populations."""
    p = np.asarray(populations, dtype=float)
    if abs(p.sum() - 1.0) > 0.02:
        raise ValidationError("populations must be normalized within 2%")
    signs = (-1.0) ** np.arange(p.size)
    return float(np.sum(signs * p))


# ---------------------------------------------------------------------------
# decay fits


def decay_fit(times: Sequence[float], values: Sequence[float],
              model: str = "exponential") -> FitResult:
    """Fit a decay trace.

    ``exponential``: A exp(-t/T) + C with parameter ``t_decay``.
    ``exponential_sine``: A exp(-t/T) cos(2 pi f t + phi) + C with parameters
    ``t_decay``, ``frequency``, ``phase``.  Both are separable: A and C (for
    the sine A cos phi, A sin phi and C) are linear, so only T (and f, which
    starts at the periodogram's peak, ``_dominant_frequency``) are fitted,
    and phi = atan2 lies in (-pi, pi].  Uncertainties come from the full
    model's Jacobian at the optimum.
    A constant (or worse) trace is returned flagged, not raised; an
    essentially undamped fit is flagged ``divergent`` with ``t_decay`` set to
    infinity.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size < 8:
        raise ValidationError("need at least 8 samples")
    if model not in ("exponential", "exponential_sine"):
        raise ValidationError(f"unknown decay model {model!r}")
    span = float(t[-1] - t[0])
    signal = float(y.max() - y.min())
    if signal <= 1e-12:
        return FitResult({}, {}, 0.0, False, {"reason": "constant trace"})

    ones = np.ones_like(t)
    if model == "exponential":
        def columns(theta):
            return np.column_stack([np.exp(-t / theta[0]), ones])

        theta0, lo, hi = [span / 2.0], [span / 1e4], [span * 1e4]
    else:
        f0 = _dominant_frequency(t, y)

        def columns(theta):
            decay, arg = np.exp(-t / theta[0]), TWO_PI * theta[1] * t
            return np.column_stack([decay * np.cos(arg), -decay * np.sin(arg), ones])

        theta0, lo, hi = ([span / 2.0, f0], [span / 1e4, f0 / 4.0],
                          [span * 1e4, f0 * 4.0 + 1.0 / span])
    # the columns' coefficients, then theta; zip drops "frequency" from the exponential
    names = ["amplitude", "offset", "t_decay", "frequency"]
    fit, theta, coef, full = _projected_fit(columns, y, theta0, (lo, hi), names[2:])
    if theta is None:
        return fit
    values = [*coef, *theta]
    if model == "exponential_sine":  # A and phi for A cos phi and A sin phi, by the chain rule
        a, b = coef[:2]
        values[:2] = math.hypot(a, b), math.atan2(b, a)
        full[:, :2] = full[:, :2] @ [[a / values[0], -b], [b / values[0], a]]
        names.insert(1, "phase")
    sigmas = _covariance_sigmas(full, 0.5 * fit.residual_norm**2)
    fit = replace(fit, parameters=dict(zip(names, map(float, values))),
                  uncertainties=dict(zip(names, map(float, sigmas))))
    if fit.parameters["t_decay"] > 50.0 * span:
        fit.metadata["divergent"] = True
        fit.parameters["t_decay"] = math.inf
    return fit


# ---------------------------------------------------------------------------
# Wigner assembly


def wigner_assemble(
    beta_grid: np.ndarray, parities: np.ndarray, calibration_scale: float = 1.0
) -> WignerMap:
    """Scale parities by 2/pi and the phase-space axes by the beta calibration.

    ``calibration_scale`` is the prepared-beta per requested-beta factor from
    the displacement calibration chain (fitted slope divided by the probe
    decay ratio); grid points are multiplied by it.
    """
    b = np.asarray(beta_grid, dtype=complex)
    p = np.asarray(parities, dtype=float)
    if b.shape != p.shape:
        raise ValidationError("grid and parity shapes differ")
    if np.any(~np.isfinite(p)):
        raise ValidationError("missing (non-finite) parity grid points")
    return WignerMap(b * calibration_scale, (2.0 / math.pi) * p)
