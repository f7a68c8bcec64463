import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares, lsq_linear
from scipy.special import erfcx, gammaln, voigt_profile, wofz

from cqadsim import analysis, sequences
from cqadsim.analysis import (
    FitResult,
    SpectrumTrace,
    WignerMap,
    beta_decay_ratio,
    calibration_fit,
    decay_fit,
    parity_from_populations,
    poisson_fit,
    voigt_sum_fit,
    wigner_assemble,
)
from cqadsim.exceptions import ValidationError


def synth_spectrum(populations, spacing, center, sigma, gamma, baseline=0.0, span_pad=4.0,
                   deviations=None):
    n = len(populations)
    deviations = np.zeros(n) if deviations is None else deviations
    lo = center + (n - 1) * spacing - span_pad * abs(spacing) / 2
    hi = center + span_pad * abs(spacing) / 2
    x = np.arange(min(lo, hi), max(lo, hi), abs(spacing) / 25.0)
    y = np.full_like(x, baseline)
    peak = voigt_profile(0.0, sigma, gamma)
    for k, h in enumerate(populations):
        y = y + h * voigt_profile(x - (center + k * spacing + deviations[k]), sigma, gamma) / peak
    return SpectrumTrace(x, y)


def test_trace_validation():
    with pytest.raises(ValidationError):
        SpectrumTrace(np.array([1.0, 0.5]), np.array([0.0, 0.0]))
    with pytest.raises(ValidationError):
        SpectrumTrace(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0]))


def test_voigt_single_peak_recovery():
    tr = synth_spectrum([0.3], -150e3, -0.9e6, 6e3, 8e3)
    fit, pops = voigt_sum_fit(tr, 1, -150e3, center_hint=-0.9e6)
    assert fit.converged
    fwhm = fit.metadata["fwhm"]
    assert abs(fit.parameters["center"] + 0.9e6) < 0.01 * fwhm
    assert pops[0] == pytest.approx(1.0)


def test_voigt_four_peak_poisson_recovery():
    # Poisson(nbar=1) heights, paper-like spacing and widths
    nbar = 1.0
    pops_true = np.exp(-nbar) * nbar ** np.arange(4) / [1, 1, 2, 6]
    pops_true = pops_true / pops_true.sum()
    tr = synth_spectrum(pops_true * 0.3, -147e3, -0.85e6, 5e3, 7.5e3)
    fit, pops = voigt_sum_fit(tr, 4, -147e3, center_hint=-0.85e6)
    assert fit.converged
    assert np.abs(pops - pops_true).max() < 0.02
    assert fit.parameters["spacing"] == pytest.approx(-147e3, rel=0.01)


def test_voigt_spacing_is_the_end_to_end_chord():
    """Curved peak positions: the fitted spacing is the chord from the first to the last peak.

    With every per-peak deviation free, spacing + D and d_k - k*D fit equally
    well and the fit stops anywhere along that valley.
    """
    pops_true = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
    devs = np.array([0.0, 3e3, 5e3, 4e3, 0.0])
    tr = synth_spectrum(pops_true * 0.3, -100e3, -0.85e6, 5e3, 7e3, deviations=devs)
    fit, pops = voigt_sum_fit(tr, 5, -98e3, center_hint=-0.85e6)
    assert fit.converged
    assert fit.parameters["spacing"] == pytest.approx(-100e3, rel=1e-5)
    assert [fit.parameters[f"deviation_{k}"] for k in (1, 2, 3)] == pytest.approx(devs[1:4], abs=1.0)
    assert "deviation_4" not in fit.parameters
    assert np.abs(pops - pops_true).max() < 1e-5


def test_voigt_zero_trace_flagged():
    x = np.linspace(0, 1e6, 200)
    tr = SpectrumTrace(x, np.zeros_like(x))
    fit, pops = voigt_sum_fit(tr, 2, -100e3)
    assert not fit.converged


def test_voigt_overlap_degenerate_flag():
    tr = synth_spectrum([0.2, 0.2], -8e3, -0.5e6, 5e3, 7e3)
    fit, _ = voigt_sum_fit(tr, 2, -8e3, center_hint=-0.5e6)
    assert fit.metadata["overlap_degenerate"]


def test_voigt_roundtrip_with_noise_band():
    rng = np.random.default_rng(0)
    nbar = 1.4
    pops_true = np.exp(-nbar) * nbar ** np.arange(6) / [1, 1, 2, 6, 24, 120]
    pops_true = pops_true / pops_true.sum()
    tr0 = synth_spectrum(pops_true * 0.25, -110e3, -1.2e6, 6e3, 8e3, baseline=0.01)
    noisy = SpectrumTrace(tr0.frequencies,
                          tr0.populations + rng.normal(0, 0.002, tr0.populations.size))
    fit, pops = voigt_sum_fit(noisy, 6, -110e3, center_hint=-1.2e6)
    assert fit.converged
    assert np.abs(pops - pops_true).max() < 0.03


def _spy_fit(monkeypatch):
    """Records (residual, start, Jacobian) of every nonlinear solve (``_fit``) the fits make."""
    calls = []
    real = analysis._fit

    def spy(residual, jac, x0, bounds, names, **kwargs):
        calls.append((residual, np.array(x0, dtype=float), jac))
        return real(residual, jac, x0, bounds, names, **kwargs)

    monkeypatch.setattr(analysis, "_fit", spy)
    return calls


FIVE_PEAKS = dict(pops=np.array([0.3, 0.25, 0.2, 0.15, 0.1]), spacing=-100e3, center=-0.85e6,
                  sigma=5e3, gamma=7e3, devs=np.array([0.0, 3e3, 5e3, 4e3, 0.0]))


def test_voigt_fit_sees_only_nonlinear_parameters_with_an_analytic_jacobian(monkeypatch):
    """Baseline and heights are solved linearly: the nonlinear solve gets n + 2 parameters and
    an analytic Jacobian, never 2n + 3 parameters."""
    calls = _spy_fit(monkeypatch)
    c = FIVE_PEAKS
    tr = synth_spectrum(c["pops"] * 0.3, c["spacing"], c["center"], c["sigma"], c["gamma"],
                        deviations=c["devs"])
    fit, _ = voigt_sum_fit(tr, 5, -98e3, center_hint=-0.85e6)
    assert fit.converged and len(calls) == 1  # one start
    for _, x0, jac in calls:
        assert x0.size == 5 + 2
        assert callable(jac)
    assert len(fit.parameters) == 2 * 5 + 3
    assert set(fit.uncertainties) == set(fit.parameters)


def test_voigt_analytic_jacobian_matches_central_differences(monkeypatch):
    """The profile derivatives match central differences of the model, and at the true
    parameters of a noise-free spectrum, where the residual vanishes, the projected (Kaufman)
    Jacobian is the exact derivative of the projected residual."""
    c = FIVE_PEAKS
    step = 1.0  # Hz; every parameter is a frequency of 3 kHz or more
    x = synth_spectrum(c["pops"], c["spacing"], c["center"], c["sigma"], c["gamma"]).frequencies
    positions = c["center"] + c["spacing"] * np.arange(5) + c["devs"]
    columns = analysis._voigt_columns(x, positions, c["sigma"], c["gamma"])
    model = {
        "position": lambda d: analysis._voigt_columns(x, positions + d, c["sigma"], c["gamma"])[0],
        "sigma": lambda d: analysis._voigt_columns(x, positions, c["sigma"] + d, c["gamma"])[0],
        "gamma": lambda d: analysis._voigt_columns(x, positions, c["sigma"], c["gamma"] + d)[0],
    }
    for analytic, (name, phi) in zip(columns[1:], model.items()):
        central = (phi(step) - phi(-step)) / (2.0 * step)
        assert np.linalg.norm(analytic - central) <= 1e-6 * np.linalg.norm(central), name

    calls = _spy_fit(monkeypatch)
    tr = synth_spectrum(c["pops"] * 0.3, c["spacing"], c["center"], c["sigma"], c["gamma"],
                        deviations=c["devs"])
    voigt_sum_fit(tr, 5, -98e3, center_hint=-0.85e6)
    residual, _, jacobian = calls[0]
    theta = np.concatenate([[c["center"], c["spacing"], c["sigma"], c["gamma"]], c["devs"][1:4]])
    assert np.abs(residual(theta)).max() < 1e-12
    jac = jacobian(theta)
    for j in range(theta.size):
        e = np.zeros(theta.size)
        e[j] = step
        central = (residual(theta + e) - residual(theta - e)) / (2.0 * step)
        assert np.linalg.norm(jac[:, j] - central) <= 1e-6 * np.linalg.norm(central), j


def test_voigt_fit_is_one_start_whatever_the_seed():
    """The seed draws nothing: every seed gives the same bits, and the spacing the one
    start finds is the one the five starts (the unjittered one and four seeded jitters)
    found before.  -99999.99999999997 is that five-start fit's spacing at seed 0, as
    commit 27f456e returns it."""
    c = FIVE_PEAKS
    tr = synth_spectrum(c["pops"] * 0.3, c["spacing"], c["center"], c["sigma"], c["gamma"],
                        deviations=c["devs"])
    fits = [voigt_sum_fit(tr, 5, -98e3, center_hint=-0.85e6, seed=s) for s in range(5)]
    for fit, pops in fits[1:]:
        assert fit == fits[0][0] and np.array_equal(pops, fits[0][1])
    assert fits[0][0].parameters["spacing"] == pytest.approx(-99999.99999999997, rel=1e-8)


@pytest.mark.parametrize("height", [0.0, -1e-3])
def test_voigt_absent_peak_keeps_every_population_nonnegative(height):
    """A missing line, or a small dip where it would sit, gives a population of 0, not < 0."""
    c = FIVE_PEAKS
    pops_true = c["pops"].copy()
    pops_true[2] = height
    tr = synth_spectrum(pops_true * 0.3, c["spacing"], c["center"], c["sigma"], c["gamma"],
                        deviations=c["devs"])
    fit, pops = voigt_sum_fit(tr, 5, -98e3, center_hint=-0.85e6)
    assert fit.converged
    assert np.all(pops >= 0.0)
    assert pops[2] < 1e-6


def test_poisson_fit_exact():
    assert poisson_fit([1.0, 0.0, 0.0]).parameters["nbar"] == pytest.approx(0.0, abs=1e-9)
    nbar = 1.0
    p = np.exp(-nbar) * nbar ** np.arange(14) / [math.factorial(k) for k in range(14)]
    fit = poisson_fit(p / p.sum())
    assert fit.parameters["nbar"] == pytest.approx(1.0, abs=1e-6)
    assert fit.parameters["beta"] == pytest.approx(1.0, abs=1e-6)


def test_poisson_fit_validation():
    with pytest.raises(ValidationError):
        poisson_fit([0.0, 0.0])
    with pytest.raises(ValidationError):
        poisson_fit([0.5, 0.1])  # not normalized


def test_beta_decay_ratio_values():
    assert beta_decay_ratio(3.2e3, 15e-6) == pytest.approx(0.863, abs=0.002)
    assert beta_decay_ratio(0.0, 15e-6) == 1.0
    assert beta_decay_ratio(1e9, 15e-6) < 1e-4


@settings(max_examples=30)
@given(st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=1.1, max_value=100.0))
def test_beta_decay_ratio_monotone(kappa, factor):
    assert beta_decay_ratio(kappa * factor, 15e-6) < beta_decay_ratio(kappa, 15e-6)


def test_calibration_fit_exact_line():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    fit = calibration_fit(a, 0.8 * a + 0.01)
    assert fit.parameters["slope"] == pytest.approx(0.8)
    assert fit.parameters["intercept"] == pytest.approx(0.01)
    assert fit.parameters["r_squared"] == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        calibration_fit([1.0, 2.0], [0.1, 0.2])


def test_calibration_fit_uncertainties_are_the_ols_standard_errors():
    a = np.array([0.5, 0.8, 1.1, 1.44, 1.67, 2.0])
    b = 0.86 * a + 0.02 + np.array([0.013, -0.021, 0.008, 0.017, -0.011, -0.004])
    fit = calibration_fit(a, b)
    slope, intercept = np.polyfit(a, b, 1)
    s_sq = np.sum((b - slope * a - intercept) ** 2) / (a.size - 2)
    sxx = np.sum((a - a.mean()) ** 2)
    assert fit.uncertainties["slope"] == pytest.approx(math.sqrt(s_sq / sxx), rel=1e-9)
    assert fit.uncertainties["intercept"] == pytest.approx(
        math.sqrt(s_sq * (1.0 / a.size + a.mean() ** 2 / sxx)), rel=1e-9)


def test_covariance_sigmas_survive_a_condition_number_near_1e8():
    """Five peaks, one at 0.3 %: the full Voigt Jacobian mixes Hz-scale columns with
    unit-height ones (cond about 1e8, so cond(J^T J) about 1e16).  The sigmas match the
    inverse of the column-scaled normal matrix, whose cond is about 2e4, and 1e-15
    relative changes of J move them by far less than 1e-8."""
    c = FIVE_PEAKS
    h = np.array([0.3, 0.25, 0.2, 0.15, 0.003]) * 0.3
    x = synth_spectrum(h, c["spacing"], c["center"], c["sigma"], c["gamma"]).frequencies
    index = np.arange(5)
    phi, d_pos, d_sigma, d_gamma = analysis._voigt_columns(
        x, c["center"] + c["spacing"] * index + c["devs"], c["sigma"], c["gamma"])
    slope = d_pos * h
    # the columns voigt_sum_fit reports: baseline, center, spacing, sigma, gamma,
    # the heights and the free deviations
    jac = np.column_stack([np.ones_like(x), slope.sum(axis=1), slope @ index, d_sigma @ h,
                           d_gamma @ h, phi, slope[:, 1:4]])
    cost = 0.5 * x.size * 1e-6
    assert np.linalg.cond(jac) > 1e7
    norms = np.linalg.norm(jac, axis=0)
    scaled = jac / norms
    s_sq = 2.0 * cost / (x.size - jac.shape[1])
    reference = np.sqrt(s_sq * np.diag(np.linalg.inv(scaled.T @ scaled))) / norms
    sigmas = analysis._covariance_sigmas(jac, cost)
    assert sigmas == pytest.approx(reference, rel=1e-9)
    rng = np.random.default_rng(0)
    for _ in range(8):
        moved = analysis._covariance_sigmas(jac * (1.0 + 1e-15 * rng.standard_normal(jac.shape)),
                                            cost)
        assert np.abs(moved / sigmas - 1.0).max() < 1e-8


def test_covariance_sigmas_of_an_undetermined_parameter_are_infinite():
    """A zero column leaves only its own parameter undetermined; a rank-deficient J, all."""
    rng = np.random.default_rng(1)
    jac = rng.normal(size=(20, 3))
    free = analysis._covariance_sigmas(np.column_stack([jac, np.zeros(20)]), 1.0)
    assert np.isinf(free[3]) and free[:3] == pytest.approx(analysis._covariance_sigmas(
        jac, 1.0 * (20 - 3) / (20 - 4)), rel=1e-12)
    assert np.all(np.isinf(analysis._covariance_sigmas(jac[:, [0, 1, 0]], 1.0)))


def test_parity_from_populations():
    assert parity_from_populations([1.0, 0.0]) == 1.0
    assert parity_from_populations([0.0, 1.0]) == -1.0
    nbar = 1.0
    p = np.exp(-nbar) * nbar ** np.arange(12) / [math.factorial(k) for k in range(12)]
    assert parity_from_populations(p / p.sum()) == pytest.approx(math.exp(-2.0), abs=1e-4)
    with pytest.raises(ValidationError):
        parity_from_populations([0.4, 0.4])


@settings(max_examples=30)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_parity_bounded_property(raw):
    total = sum(raw)
    if total <= 0:
        return
    p = np.array(raw) / total
    val = parity_from_populations(p)
    assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def test_decay_fit_exponential_roundtrip():
    t = np.linspace(0, 250e-6, 40)
    y = 0.9 * np.exp(-t / 81e-6) + 0.05
    fit = decay_fit(t, y, "exponential")
    assert fit.converged
    assert fit.parameters["t_decay"] == pytest.approx(81e-6, rel=0.01)


def test_decay_fit_exponential_sine_roundtrip():
    t = np.linspace(0, 400e-6, 120)
    y = 0.45 * np.exp(-t / 138e-6) * np.cos(2 * math.pi * 15e3 * t + 0.3) + 0.5
    fit = decay_fit(t, y, "exponential_sine")
    assert fit.converged
    assert fit.parameters["t_decay"] == pytest.approx(138e-6, rel=0.02)
    assert fit.parameters["frequency"] == pytest.approx(15e3, rel=0.01)


def test_decay_fit_constant_trace_flagged():
    t = np.linspace(0, 1e-4, 20)
    fit = decay_fit(t, np.full_like(t, 0.4), "exponential")
    assert not fit.converged


def test_decay_fit_divergent_sentinel():
    t = np.linspace(0, 1e-4, 30)
    y = 0.5 + 0.2 * np.cos(2 * math.pi * 40e3 * t)  # no damping
    fit = decay_fit(t, y, "exponential_sine")
    assert fit.metadata.get("divergent")
    assert math.isinf(fit.parameters["t_decay"])


def test_decay_fit_uncertainty_scales_with_noise():
    rng = np.random.default_rng(1)
    t = np.linspace(0, 250e-6, 60)
    clean = 0.9 * np.exp(-t / 80e-6) + 0.05
    sigmas = []
    for noise_level in (0.02, 0.01):
        reps = []
        for _ in range(4):
            y = clean + rng.normal(0, noise_level, t.size)
            fit = decay_fit(t, y, "exponential")
            reps.append(fit.uncertainties["t_decay"])
        sigmas.append(np.mean(reps))
    assert sigmas[1] < sigmas[0]


def _decay_trace(model, noise=0.01, seed=3):
    """(t, y, full model of the reported parameters) of a noisy synthetic decay trace."""
    t = np.linspace(0, 300e-6, 50)

    def full(p):
        wave = 1.0 if model == "exponential" else np.cos(2 * math.pi * p["frequency"] * t
                                                          + p["phase"])
        return p["amplitude"] * np.exp(-t / p["t_decay"]) * wave + p["offset"]

    true = {"amplitude": 0.45, "t_decay": 90e-6, "frequency": 21e3, "phase": 2.8, "offset": 0.5}
    return t, full(true) + np.random.default_rng(seed).normal(0, noise, t.size), full


@pytest.mark.parametrize("model", ["exponential", "exponential_sine"])
def test_decay_fit_sees_only_nonlinear_parameters_from_one_start(monkeypatch, model):
    """A, C (and A cos phi, A sin phi) are solved linearly: the nonlinear solve runs once, on
    t_decay (and the frequency) alone, with an analytic Jacobian; the phase lies in (-pi, pi]."""
    calls = _spy_fit(monkeypatch)
    t, y, _ = _decay_trace(model)
    fit = decay_fit(t, y, model)
    assert fit.converged and len(calls) == 1
    assert calls[0][1].size == (1 if model == "exponential" else 2)
    assert callable(calls[0][2])
    assert set(fit.uncertainties) == set(fit.parameters)
    if model == "exponential_sine":
        assert -math.pi < fit.parameters["phase"] <= math.pi
        assert fit.parameters["phase"] == pytest.approx(2.8, abs=0.1)
        assert fit.parameters["frequency"] == pytest.approx(21e3, rel=0.01)


@pytest.mark.parametrize("model", ["exponential", "exponential_sine"])
def test_decay_fit_uncertainties_are_those_of_the_full_model_jacobian(model):
    """The analytic full-model Jacobian gives the sigmas that a central-difference Jacobian of
    the full model at the optimum gives, to 1e-5."""
    t, y, full = _decay_trace(model)
    fit = decay_fit(t, y, model)
    best = dict(fit.parameters)
    columns = []
    for name in best:
        step = 1e-6 * abs(best[name])
        hi, lo = dict(best), dict(best)
        hi[name] += step
        lo[name] -= step
        columns.append((full(hi) - full(lo)) / (2.0 * step))
    expected = analysis._covariance_sigmas(np.column_stack(columns),
                                           0.5 * fit.residual_norm**2)
    got = np.array([fit.uncertainties[name] for name in best])
    np.testing.assert_allclose(got, expected, rtol=1e-5)


def test_separable_fits_ignore_last_bit_changes_of_their_data():
    """Eight 1e-15 relative perturbations of a damped-sine trace and of an offset-scan-like
    sinusoid move the fitted frequencies and decay time by at most 1e-9 relative."""
    rng = np.random.default_rng(5)
    # noisy enough that the optimum sits in a flat valley, where the seeded five-start fit
    # of commit 5f65ef4 spread by 1.3e-9 (t_decay) and 1.7e-9 (the sinusoid)
    t, y, _ = _decay_trace("exponential_sine", noise=0.03)
    times = np.linspace(6.7e-6, 7.3e-6, 41)
    wave = 0.03 * np.cos(2 * math.pi * 1.58e6 * (times - 6.7e-6) + 1.0)
    wave += rng.normal(0, 0.01, times.size)
    fits, freqs = [], []
    for _ in range(8):
        fits.append(decay_fit(t, y * (1 + 1e-15 * rng.uniform(-1, 1, y.size)), "exponential_sine"))
        freqs.append(sequences._fit_oscillation_frequency(
            times, wave * (1 + 1e-15 * rng.uniform(-1, 1, wave.size))))
    for values in ([f.parameters["frequency"] for f in fits],
                   [f.parameters["t_decay"] for f in fits], freqs):
        assert np.ptp(values) <= 1e-9 * abs(np.median(values))
    assert np.median(freqs) == pytest.approx(1.58e6, rel=0.05)


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_offset_scan_frequency_is_the_same_from_every_start(monkeypatch, noise):
    """The sinusoid fit of the offset scan ends at its optimum, not on a stopping test short of
    it: started 3% and 10% off on either side of the frequency it reaches from the periodogram,
    it returns that frequency within 1e-12 relative, on a clean and on a noisy trace."""
    times = np.linspace(6.7e-6, 7.3e-6, 41)
    wave = 0.03 * np.cos(2 * math.pi * 1.58e6 * (times - 6.7e-6) + 1.0)
    wave += np.random.default_rng(5).normal(0, noise, times.size)
    best = sequences._fit_oscillation_frequency(times, wave)
    assert best == pytest.approx(1.58e6, rel=0.05)
    for scale in (0.9, 0.97, 1.03, 1.1):
        monkeypatch.setattr(sequences, "_dominant_frequency", lambda t, y: scale * best)
        assert abs(sequences._fit_oscillation_frequency(times, wave) - best) <= 1e-12 * best


def _scipy_fit(residual, jac, x0, bounds, tol=1e-12):
    """The same problem by scipy's trust-region-reflective solver, the one ``_fit`` replaces."""
    return least_squares(residual, np.array(x0, dtype=float), jac=jac, bounds=bounds,
                         method="trf", xtol=tol, ftol=tol, gtol=tol)


def test_fit_agrees_with_scipy_least_squares_on_the_fits_problems(monkeypatch):
    """Every nonlinear solve the fits make on the spectra and traces of these tests, once by
    ``_fit`` and once by scipy: the converged flags agree, the cost is no higher (to 1e-10
    relative), and each parameter agrees to 1e-8 relative or to 1e-5 of its standard error
    (the valleys of the noisy Voigt fit pin the deviations no closer, at scipy's own
    stopping point).  The set holds zero-residual data, an absent peak whose height BVLS
    clamps at 0, and a divergent decay whose time stops on its upper bound, where scipy's
    interior iterates stop just short of it."""
    real, solves = analysis._fit, []

    def both(residual, jac, x0, bounds, names, **kwargs):
        fit, x = real(residual, jac, x0, bounds, names, **kwargs)
        solves.append((names, fit, x, _scipy_fit(residual, jac, x0, bounds, **kwargs)))
        return fit, x

    monkeypatch.setattr(analysis, "_fit", both)
    c = FIVE_PEAKS
    absent = c["pops"].copy()
    absent[2] = 0.0
    for pops in (c["pops"], absent):
        voigt_sum_fit(synth_spectrum(pops * 0.3, c["spacing"], c["center"], c["sigma"], c["gamma"],
                                     deviations=c["devs"]), 5, -98e3, center_hint=-0.85e6)
    nbar = 1.4
    p = np.exp(-nbar) * nbar ** np.arange(6) / [1, 1, 2, 6, 24, 120]
    p = p / p.sum()
    clean = synth_spectrum(p * 0.25, -110e3, -1.2e6, 6e3, 8e3, baseline=0.01)
    noisy = SpectrumTrace(clean.frequencies, clean.populations
                          + np.random.default_rng(0).normal(0, 0.002, clean.frequencies.size))
    poisson_fit(voigt_sum_fit(noisy, 6, -110e3, center_hint=-1.2e6)[1])
    poisson_fit(p)
    for model in ("exponential", "exponential_sine"):
        decay_fit(*_decay_trace(model)[:2], model)
    t = np.linspace(0, 250e-6, 40)
    decay_fit(t, 0.9 * np.exp(-t / 81e-6) + 0.05, "exponential")
    t = np.linspace(0, 1e-4, 30)
    divergent = decay_fit(t, 0.5 + 0.2 * np.cos(2 * math.pi * 40e3 * t), "exponential_sine")
    times = np.linspace(6.7e-6, 7.3e-6, 41)
    wave = 0.03 * np.cos(2 * math.pi * 1.58e6 * (times - 6.7e-6) + 1.0)
    sequences._fit_oscillation_frequency(times, wave + np.random.default_rng(5).normal(0, 0.01, 41))

    assert len(solves) == 10 and divergent.metadata["divergent"]
    for k, (names, fit, x, ref) in enumerate(solves):
        assert fit.converged == ref.success, names
        cost = 0.5 * fit.residual_norm**2
        assert cost <= ref.cost * (1.0 + 1e-10) + 1e-20, names
        sigmas = analysis._covariance_sigmas(ref.jac, ref.cost)
        free = [j for j in range(x.size) if not (k == 1 and names[j] == "deviation_2")]
        gap = np.abs(x - ref.x)[free]  # the absent peak's deviation moves nothing
        assert np.all((gap <= 1e-8 * np.abs(ref.x[free])) | (gap <= 1e-5 * sigmas[free])), names
    names, fit, x, _ = solves[8]
    assert x[0] == 1e4 * 1e-4  # the divergent decay time stops on its upper bound


def test_damped_sines_below_nyquist_end_no_higher_than_scipy(monkeypatch):
    """12 damped 30-35 kHz sines of 32 samples 13.45 us apart (Nyquist 37.2 kHz), with 0.1
    noise: each fit starts at the zero-padded periodogram's peak, never at the Nyquist
    frequency, where the sine column vanishes at every sample, and none ends above the cost
    scipy's solver reaches from the same start (1e-10 relative).  From the peak of the
    unpadded transform the 11th trace started at the Nyquist frequency and stayed there, at
    cost 0.193 against scipy's 0.145."""
    real, solves = analysis._fit, []

    def both(residual, jac, x0, bounds, names, **kwargs):
        fit, x = real(residual, jac, x0, bounds, names, **kwargs)
        ref = _scipy_fit(residual, jac, x0, bounds, **kwargs)
        solves.append((x0[1], 0.5 * fit.residual_norm**2, ref.cost))
        return fit, x

    monkeypatch.setattr(analysis, "_fit", both)
    rng = np.random.default_rng(0)
    t = 13.45e-6 * np.arange(32)
    for f in np.linspace(30e3, 35e3, 12):
        tau, phase = rng.uniform(100e-6, 400e-6), rng.uniform(-math.pi, math.pi)
        wave = 0.45 * np.exp(-t / tau) * np.cos(2 * math.pi * f * t + phase)
        decay_fit(t, 0.5 + wave + rng.normal(0, 0.1, t.size), "exponential_sine")
    assert len(solves) == 12
    for start, cost, ref in solves:
        assert start < 0.5 / 13.45e-6
        assert cost <= ref * (1.0 + 1e-10) + 1e-20


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fit_agrees_with_scipy_least_squares_on_random_bounded_problems(seed):
    """Mildly nonlinear residuals A x + B tanh(x) - b in a random box, some with zero residual
    at an interior point: the same converged flag, the same cost to 1e-9 relative (1e-16
    absolute), and the same point to 1e-4 (the costs pin the weakest directions no closer)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = int(rng.integers(n + 2, 14))
    a, b_mix = rng.normal(size=(m, n)), 0.1 * rng.normal(size=(m, n))
    lo = rng.uniform(-2.0, 0.5, n)
    hi = lo + rng.uniform(0.1, 3.0, n)
    x0, inside = (lo + rng.uniform(0.0, 1.0, (2, n)) * (hi - lo))
    b = a @ inside + b_mix @ np.tanh(inside) if seed % 3 == 0 else 2.0 * rng.normal(size=m)

    def residual(x):
        return a @ x + b_mix @ np.tanh(x) - b

    def jac(x):
        return a + b_mix * (1.0 - np.tanh(x) ** 2)

    fit, x = analysis._fit(residual, jac, x0, (lo, hi), [f"x{k}" for k in range(n)])
    ref = _scipy_fit(residual, jac, x0, (lo, hi))
    assert fit.converged == ref.success
    assert 0.5 * fit.residual_norm**2 == pytest.approx(ref.cost, rel=1e-9, abs=1e-16)
    assert np.all((lo <= x) & (x <= hi))
    assert np.abs(x - ref.x).max() <= 1e-4 * (1.0 + np.abs(ref.x).max())


def test_fit_flags_an_infeasible_or_non_finite_start():
    def residual(x):  # not finite at 0
        return np.array([x[0] - 1.0, math.log(x[0]) if x[0] > 0 else -math.inf])

    def jac(x):
        return np.array([[1.0], [1.0 / x[0]]])

    for x0 in ([3.0], [math.nan]):  # outside [0.5, 2], not finite
        fit, x = analysis._fit(residual, jac, x0, ([0.5], [2.0]), ["x"])
        assert x is None and not fit.converged
    fit, x = analysis._fit(residual, jac, [0.0], ([0.0], [2.0]), ["x"])
    assert x is None and not fit.converged


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_bvls_agrees_with_scipy_lsq_linear(seed):
    """Random boxes, from all free to many variables held, and some with zero residual at an
    interior point: the same x to rounding and the same variables held at a bound."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    m = int(rng.integers(n, 15))
    a = rng.normal(size=(m, n))
    lo = rng.uniform(-1.5, 0.5, n)
    hi = lo + rng.uniform(0.01, 3.0, n) * (10.0 if seed % 4 == 1 else 1.0)
    b = a @ (lo + 0.5 * (hi - lo)) if seed % 4 == 0 else rng.normal(size=m)
    x, active = analysis._bvls(a, b, lo, hi)
    ref = lsq_linear(a, b, bounds=(lo, hi), method="bvls")
    assert np.abs(x - ref.x).max() <= 1e-12 * (1.0 + np.abs(ref.x).max())
    assert np.array_equal(active, ref.active_mask != 0)


def test_bvls_clamps_an_absent_peak_at_zero():
    """The baseline and heights of a spectrum with a dip where peak 2 would sit: its height is
    held at 0, as lsq_linear(method="bvls") holds it, and a feasible lstsq solution is
    returned as it is."""
    c = FIVE_PEAKS
    pops = c["pops"].copy()
    pops[2] = -1e-3
    tr = synth_spectrum(pops * 0.3, c["spacing"], c["center"], c["sigma"], c["gamma"],
                        deviations=c["devs"])
    x = tr.frequencies
    phi = analysis._voigt_columns(x, c["center"] + c["spacing"] * np.arange(5) + c["devs"],
                                  c["sigma"], c["gamma"])[0]
    basis = np.column_stack([np.ones_like(x), phi])
    lo, hi = np.array([-1.0, 0, 0, 0, 0, 0]), np.full(6, 10.0)
    coef, active = analysis._bvls(basis, tr.populations, lo, hi)
    ref = lsq_linear(basis, tr.populations, bounds=(lo, hi), method="bvls")
    assert coef[3] == 0.0 and active.tolist() == [False, False, False, True, False, False]
    assert coef == pytest.approx(ref.x, rel=1e-12, abs=1e-15)
    clean = basis @ np.array([0.01, 0.1, 0.2, 0.05, 0.1, 0.02])
    coef, active = analysis._bvls(basis, clean, lo, hi)
    assert np.array_equal(coef, np.linalg.lstsq(basis, clean, rcond=None)[0]) and not active.any()


def test_fit_result_validation():
    with pytest.raises(ValidationError):
        FitResult({"a": 1.0}, {"a": -0.1}, 0.0, True)


def test_wigner_assemble():
    axis = np.linspace(-1, 1, 5)
    grid = axis[None, :] + 1j * axis[:, None]
    parities = np.ones(grid.shape)
    wm = wigner_assemble(grid, parities)
    assert np.allclose(wm.values, 2.0 / math.pi)
    scaled = wigner_assemble(grid, parities, calibration_scale=0.9)
    assert scaled.beta_grid[0, 0] == pytest.approx(grid[0, 0] * 0.9)
    with pytest.raises(ValidationError):
        wigner_assemble(grid, np.full(grid.shape, np.nan))
    with pytest.raises(ValidationError):
        WignerMap(grid, np.full(grid.shape, 1.0))  # exceeds 2/pi + slack


def test_wigner_vacuum_gaussian_closed_form():
    # assemble from exact displaced-parity values of the vacuum
    axis = np.linspace(-1.5, 1.5, 7)
    grid = axis[None, :] + 1j * axis[:, None]
    parities = np.exp(-2.0 * np.abs(grid) ** 2)
    wm = wigner_assemble(grid, parities)
    expected = (2.0 / math.pi) * np.exp(-2.0 * np.abs(grid) ** 2)
    assert np.abs(wm.values - expected).max() < 1e-12


# ---------------------------------------------------------------------------
# the special functions against scipy's


def test_faddeeva_matches_scipy_wofz():
    """|w - wofz| <= 3e-14 |w| (2.6e-14 measured) over |Re z| <= 1e6 and 1e-3 <= Im z <= 500,
    which holds every z the Voigt fit's width bounds allow (Im z in [1.2e-3, 425]); densest
    where the error peaks, near Re z = 8 and small Im z."""
    im = np.geomspace(1e-3, 500.0, 181)
    re = np.concatenate([np.linspace(0.0, 40.0, 801), np.geomspace(40.0, 1e6, 200)])
    re = np.concatenate([-re[::-1], re])
    z = re[:, None] + 1j * im[None, :]
    ref = wofz(z)
    assert np.all(np.abs(analysis._faddeeva(z) - ref) <= 3e-14 * np.abs(ref))


def test_faddeeva_on_the_imaginary_axis_is_erfcx():
    """erfcx(a) = w(ia), the Voigt peak height: within 2e-15 relative (8e-16 measured)."""
    a = np.geomspace(1e-4, 1e4, 2001)
    ref = erfcx(a)
    assert np.all(np.abs(analysis._faddeeva(1j * a).real - ref) <= 2e-15 * ref)


@pytest.mark.parametrize("nbar", [0.05, 0.52, 2.0, 6.5])
def test_poisson_fit_recovers_a_distribution_built_with_scipys_gammaln(nbar):
    """The fit's log-factorials are scipy's: it returns the nbar of an exact Poisson ladder."""
    n = np.arange(30)
    fit = poisson_fit(np.exp(-nbar + n * math.log(nbar) - gammaln(n + 1)))
    assert fit.converged
    assert fit.parameters["nbar"] == pytest.approx(nbar, rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_poisson_fit_stops_where_its_gradient_changes_sign(seed):
    """On a perturbed Poisson ladder the fitted nbar brackets the optimum to 1e-13 relative:
    the gradient J^T r has opposite signs a relative 1e-13 to either side."""
    rng = np.random.default_rng(seed)
    nbar = rng.uniform(0.2, 3.0)
    n = np.arange(12)
    p = np.exp(-nbar + n * math.log(nbar) - gammaln(n + 1)) * rng.uniform(0.9, 1.1, n.size)
    p /= p.sum()

    def gradient(x):
        q = np.exp(-x + n * math.log(x) - gammaln(n + 1))
        return float((np.concatenate([[0.0], q[:-1]]) - q) @ (q - p))

    fit = poisson_fit(p)
    x = fit.parameters["nbar"]
    assert gradient(x * (1.0 - 1e-13)) < 0.0 < gradient(x * (1.0 + 1e-13))
    assert fit.parameters["beta"] == math.sqrt(x)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.sampled_from([0.0, 0.05, 0.37, 0.5, 0.95, 1.0]),
       st.integers(0, 2**32 - 1))
def test_quantile_is_numpys_linear_rule_bit_for_bit(n, q, seed):
    """The Voigt baseline's 5% quantile and the periodogram's median spacing against
    ``np.quantile``, on data with ties and with spreads of ten decades."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5)
    if seed % 2:
        x = np.round(x, 1)
    assert analysis._quantile(x, q) == float(np.quantile(x, q))
