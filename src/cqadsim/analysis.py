"""Fitting and reconstruction: spectra, populations, decays, Wigner maps.

All fits are damped least squares (``scipy.optimize.least_squares``) with a
few deterministic jittered restarts; uncertainties come from the standard
covariance of the linearized problem at the optimum.  Fits never raise on
pathological data; they return a result with ``converged=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import least_squares
from scipy.special import gammaln, voigt_profile

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
    metadata: dict = field(default_factory=dict, compare=False)

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
    calibration_scale: float = 1.0

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


def _covariance_sigmas(res, n_data: int) -> np.ndarray:
    """One-standard-deviation parameter uncertainties at the optimum."""
    dof = max(n_data - res.x.size, 1)
    s_sq = 2.0 * res.cost / dof
    try:
        jtj = res.jac.T @ res.jac
        cov = np.linalg.pinv(jtj) * s_sq
        return np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        return np.full(res.x.size, np.inf)


def _multistart_least_squares(residual, x0, bounds, seed, restarts, jitter_scale):
    rng = np.random.default_rng(seed)
    best = None
    lo, hi = bounds
    for k in range(restarts):
        start = np.array(x0, dtype=float)
        if k > 0:
            start = start + rng.standard_normal(start.size) * jitter_scale
            start = np.clip(start, lo + 1e-12, hi - 1e-12 if np.all(np.isfinite(hi)) else start)
            start = np.minimum(np.maximum(start, lo), np.where(np.isfinite(hi), hi, start))
        try:
            res = least_squares(residual, start, bounds=bounds, method="trf")
        except Exception:
            continue
        if best is None or res.cost < best.cost:
            best = res
    return best


# ---------------------------------------------------------------------------
# spectral fits


def _voigt_height_normalized(x, sigma, gamma):
    peak = voigt_profile(0.0, sigma, gamma)
    return voigt_profile(x, sigma, gamma) / peak


def voigt_sum_fit(
    trace: SpectrumTrace,
    n_peaks: int,
    spacing_hint: float,
    center_hint: float | None = None,
    width_hint: float | None = None,
    deviation_bound: float = 0.25,
    seed: int = 0,
    restarts: int = 5,
):
    """Fit a sum of Voigt profiles with a shared peak spacing.

    Peak k sits at ``center + k*spacing + d_k`` with |d_k| bounded by
    ``deviation_bound * |spacing|`` (d_0 = 0); all peaks share one Gaussian
    and one Lorentzian width.  Returns (FitResult, populations) where the
    populations are the normalized peak heights.
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

    w0 = width_hint if width_hint else max(abs(spacing_hint) / 8.0, span / 200.0)
    c0 = center_hint if center_hint is not None else float(x[np.argmax(y)])
    base0 = float(np.percentile(y, 5))

    # params: [base, center, spacing, sigma, gamma, h_0..h_{n-1}, d_1..d_{n-1}]
    nh = n_peaks
    nd = n_peaks - 1

    def unpack(p):
        base, center, spacing, sigma, gamma = p[:5]
        heights = p[5 : 5 + nh]
        devs = np.concatenate([[0.0], p[5 + nh : 5 + nh + nd]])
        return base, center, spacing, sigma, gamma, heights, devs

    def model(p):
        base, center, spacing, sigma, gamma, heights, devs = unpack(p)
        out = np.full_like(x, base)
        for k in range(n_peaks):
            out = out + heights[k] * _voigt_height_normalized(
                x - (center + k * spacing + devs[k]), sigma, gamma
            )
        return out

    def residual(p):
        return model(p) - y

    # seed heights from the data at the hinted positions: this anchors the
    # peak-index assignment, which spacing/deviation freedom alone cannot
    h0 = np.empty(nh)
    for k in range(nh):
        pos = c0 + k * spacing_hint
        h0[k] = max(float(np.interp(pos, x, y)) - base0, signal / 100.0)
    x0 = np.concatenate([[base0, c0, spacing_hint, w0 / 2.0, w0 / 2.0], h0, np.zeros(nd)])
    dmax = deviation_bound * abs(spacing_hint)
    base_lo = min(base0, float(y.min()))
    lo = np.concatenate(
        [
            [base_lo - 0.05 * signal, c0 - 0.5 * abs(spacing_hint),
             spacing_hint - 0.2 * abs(spacing_hint), w0 / 50.0, w0 / 50.0],
            np.zeros(nh),
            -dmax * np.ones(nd),
        ]
    )
    hi = np.concatenate(
        [
            [base_lo + 0.15 * signal, c0 + 0.5 * abs(spacing_hint),
             spacing_hint + 0.2 * abs(spacing_hint),
             abs(spacing_hint) * 1.5, abs(spacing_hint) * 1.5],
            np.full(nh, 10.0 * signal),
            dmax * np.ones(nd),
        ]
    )
    best = _multistart_least_squares(
        residual, x0, (lo, hi), seed, restarts, jitter_scale=abs(spacing_hint) / 40.0
    )
    if best is None:
        return (
            FitResult({}, {}, float(np.linalg.norm(y)), False, {"reason": "no convergence"}),
            np.zeros(n_peaks),
        )
    base, center, spacing, sigma, gamma, heights, devs = unpack(best.x)
    sigmas = _covariance_sigmas(best, x.size)
    names = (
        ["baseline", "center", "spacing", "sigma_gauss", "gamma_lorentz"]
        + [f"height_{k}" for k in range(nh)]
        + [f"deviation_{k}" for k in range(1, n_peaks)]
    )
    params = dict(zip(names, [float(v) for v in best.x]))
    uncert = dict(zip(names, [float(v) for v in sigmas]))
    total = float(np.sum(heights))
    populations = heights / total if total > 0 else np.zeros(nh)
    fwhm = 0.5346 * 2 * gamma + math.sqrt(0.2166 * (2 * gamma) ** 2 + 8 * math.log(2) * sigma**2)
    meta = {
        "profile": "voigt_exact_wofz",
        "overlap_degenerate": bool(abs(spacing) < fwhm / 2.0),
        "fwhm": float(fwhm),
    }
    converged = bool(best.success and np.isfinite(best.cost))
    return (
        FitResult(params, uncert, float(math.sqrt(2.0 * best.cost)), converged, meta),
        populations,
    )


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

    def poisson(nbar):
        if nbar <= 0:
            out = np.zeros(p.size)
            out[0] = 1.0
            return out
        return np.exp(-nbar + n * math.log(nbar) - gammaln(n + 1))

    def residual(theta):
        return poisson(theta[0]) - p

    nbar0 = float(np.sum(n * p))
    best = least_squares(residual, [nbar0], bounds=([0.0], [float(p.size) * 2.0]),
                         xtol=1e-14, ftol=1e-14, gtol=1e-14)
    sig = _covariance_sigmas(best, p.size)
    nbar = float(best.x[0])
    nbar_err = float(sig[0])
    beta = math.sqrt(max(nbar, 0.0))
    beta_err = nbar_err / (2.0 * beta) if beta > 0 else nbar_err
    return FitResult(
        {"nbar": nbar, "beta": beta},
        {"nbar": nbar_err, "beta": beta_err},
        float(math.sqrt(2.0 * best.cost)),
        bool(best.success),
    )


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
    coef, res_ss, *_ = np.linalg.lstsq(design, b, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((b - fitted) ** 2))
    ss_tot = float(np.sum((b - b.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(a.size - 2, 1)
    s_sq = ss_res / dof
    cov = np.linalg.pinv(design.T @ design) * s_sq
    return FitResult(
        {"slope": float(coef[0]), "intercept": float(coef[1]), "r_squared": float(r2)},
        {"slope": float(math.sqrt(max(cov[0, 0], 0.0))),
         "intercept": float(math.sqrt(max(cov[1, 1], 0.0)))},
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


def decay_fit(times: Sequence[float], values: Sequence[float], model: str = "exponential",
              seed: int = 0) -> FitResult:
    """Fit a decay trace.

    ``exponential``: A exp(-t/T) + C with parameter ``t_decay``.
    ``exponential_sine``: A exp(-t/T) cos(2 pi f t + phi) + C with parameters
    ``t_decay``, ``frequency``, ``phase``.  A constant (or worse) trace is
    returned flagged, not raised; an essentially undamped fit is flagged
    ``divergent`` with ``t_decay`` set to infinity.
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

    if model == "exponential":
        def residual(p):
            a, tau, c = p
            return a * np.exp(-t / tau) + c - y

        x0 = [y[0] - y[-1], span / 2.0, y[-1]]
        lo = [-np.inf, span / 1e4, -np.inf]
        hi = [np.inf, span * 1e4, np.inf]
        names = ["amplitude", "t_decay", "offset"]
    else:
        # frequency seed from the dominant FFT component of the detrended trace
        dt = float(np.median(np.diff(t)))
        yd = y - y.mean()
        spec = np.abs(np.fft.rfft(yd))
        freqs = np.fft.rfftfreq(t.size, dt)
        f0 = float(freqs[np.argmax(spec[1:]) + 1]) if spec.size > 1 else 1.0 / span
        def residual(p):
            a, tau, f, ph, c = p
            return a * np.exp(-t / tau) * np.cos(TWO_PI * f * t + ph) + c - y

        x0 = [signal / 2.0, span / 2.0, f0, 0.0, float(y.mean())]
        lo = [0.0, span / 1e4, f0 / 4.0, -TWO_PI, -np.inf]
        hi = [np.inf, span * 1e4, f0 * 4.0 + 1.0 / span, TWO_PI, np.inf]
        names = ["amplitude", "t_decay", "frequency", "phase", "offset"]

    best = _multistart_least_squares(
        residual, x0, (np.array(lo), np.array(hi)), seed, 5,
        jitter_scale=abs(np.array(x0)).max() / 20.0 + 1e-12,
    )
    if best is None:
        return FitResult({}, {}, float(np.linalg.norm(y)), False, {"reason": "no convergence"})
    sigmas = _covariance_sigmas(best, t.size)
    params = dict(zip(names, [float(v) for v in best.x]))
    uncert = dict(zip(names, [float(v) for v in sigmas]))
    meta = {}
    if params["t_decay"] > 50.0 * span:
        meta["divergent"] = True
        params["t_decay"] = math.inf
    return FitResult(params, uncert, float(math.sqrt(2.0 * best.cost)), bool(best.success), meta)


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
    return WignerMap(b * calibration_scale, (2.0 / math.pi) * p, calibration_scale)
