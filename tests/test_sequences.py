import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqadsim import sequences
from cqadsim.device import TWO_PI, chi_analytic, full_jc_hamiltonian, paper_default_params
from cqadsim.dynamics import NoiseModel, Pulse, _apply, _propagator, collapse_operators
from cqadsim.exceptions import NumericError, ValidationError
from cqadsim.hilbert import (
    DensityMatrix,
    HilbertConfig,
    Ket,
    expectation,
    fock_state,
    number_operator,
    parity_operator,
    qubit_operator,
    qubit_projector,
    reduced_mode_matrix,
)
from cqadsim.sequences import (
    FOUR_PHASES,
    ExperimentSpec,
    ParityResult,
    StatePrep,
    coherence_protocols,
    default_ramsey_time,
    echo_offset_zero_time,
    echo_parity,
    fock_preparation,
    four_phase_average,
    interaction_time_offset_scan,
    prepare_state,
    qubit_spectroscopy,
    ramsey_parity,
    spectroscopy_peak_hints,
    wigner_scan,
)


@pytest.fixture(scope="module")
def params():
    return paper_default_params()


@pytest.fixture(scope="module")
def cfg8():
    return HilbertConfig(2, (8,))


NOISELESS = NoiseModel()


def phonon_populations(state):
    rho = state.to_density() if isinstance(state, Ket) else state
    return np.real(np.diag(reduced_mode_matrix(rho, 0)))


# ---------------------------------------------------------------------------
# preparation


def test_spec_and_prep_validation():
    with pytest.raises(ValidationError):
        StatePrep(target="squeezed")
    with pytest.raises(ValidationError):
        StatePrep(target="fock", m=4, method="swap_sequence")
    with pytest.raises(ValidationError):
        ExperimentSpec(kind="frobnicate")
    spec = ExperimentSpec(kind="wigner", sweep={"grid_points": 5})
    assert spec.sweep["grid_points"] == 5


def test_fock_prep_trivial_and_ideal(params, cfg8):
    vac = fock_preparation(0, "swap_sequence", params, cfg8, NOISELESS)
    assert phonon_populations(vac)[0] == pytest.approx(1.0)
    one = fock_preparation(1, "ideal_injection", params, cfg8, NOISELESS)
    assert phonon_populations(one)[1] == pytest.approx(1.0)


def test_fock_prep_swap_noiseless(params, cfg8):
    state = fock_preparation(1, "swap_sequence", params, cfg8, NOISELESS)
    assert phonon_populations(state)[1] > 0.99


def test_fock_prep_m3_with_paper_noise(params, cfg8):
    noise = NoiseModel.from_params(params, params.delta("rest"))
    state = fock_preparation(3, "swap_sequence", params, cfg8, noise)
    pn = phonon_populations(state)
    assert 0.5 < pn[3] < 0.9
    # lower Fock states carry the leftover population
    assert pn[0] + pn[1] + pn[2] > 0.5 * (1 - pn[3])


def test_prep_superposition_swap(params, cfg8):
    state = prepare_state(StatePrep(target="superposition_01", method="swap_sequence"),
                          params, cfg8, NOISELESS)
    pn = phonon_populations(state)
    assert pn[0] == pytest.approx(0.5, abs=0.01)
    assert pn[1] == pytest.approx(0.5, abs=0.01)


def test_prep_coherent_drive_matches_target(params):
    cfg = HilbertConfig(2, (10,))
    state = prepare_state(StatePrep(target="coherent", beta=0.8, method="displacement_drive"),
                          params, cfg, NOISELESS)
    nbar = expectation(state, number_operator(cfg)).real
    assert nbar == pytest.approx(0.64, rel=0.03)


# ---------------------------------------------------------------------------
# Ramsey / echo parity


def test_ramsey_vacuum_is_calibrated_to_one(params, cfg8):
    noise = NoiseModel.from_params(params, params.delta("ramsey"))
    vac = fock_preparation(0, "ideal_injection", params, cfg8, noise)
    for t in (3e-6, default_ramsey_time(params), 9e-6):
        r = ramsey_parity(vac, t, 0.0, params, cfg8, noise)
        assert r.value == pytest.approx(1.0, abs=1e-6)


def test_ramsey_fock1_values(params, cfg8):
    t0 = default_ramsey_time(params)
    one = fock_preparation(1, "ideal_injection", params, cfg8, NOISELESS)
    r = ramsey_parity(one, t0, 0.0, params, cfg8, NOISELESS)
    eps = abs(params.g_lg00 / params.delta("ramsey"))
    assert r.value == pytest.approx(-1.0, abs=eps)
    noise = NoiseModel.from_params(params, params.delta("ramsey"))
    one_n = fock_preparation(1, "ideal_injection", params, cfg8, noise)
    rn = ramsey_parity(one_n, t0, 0.0, params, cfg8, noise)
    assert rn.value < -0.5


def test_ramsey_m2_oscillation_frequency(params):
    # fringe frequency for M=2 is 2|chi| = 140 kHz within 5%
    from cqadsim.analysis import decay_fit

    cfg = HilbertConfig(2, (6,))
    two = fock_preparation(2, "ideal_injection", params, cfg, NOISELESS)
    t0 = default_ramsey_time(params)
    times = np.linspace(0.2e-6, 1.4 * t0, 36)
    vals = [ramsey_parity(two, t, 0.0, params, cfg, NOISELESS).value for t in times]
    fit = decay_fit(times, np.array(vals), "exponential_sine")
    assert fit.parameters["frequency"] == pytest.approx(140e3, rel=0.05)


def test_parity_results_bounded(params, cfg8):
    noise = NoiseModel.from_params(params, params.delta("ramsey"))
    t0 = default_ramsey_time(params)
    for m in range(4):
        st = fock_preparation(m, "ideal_injection", params, cfg8, noise)
        r = ramsey_parity(st, t0, 0.0, params, cfg8, noise)
        assert abs(r.value) <= 1.001
        e = four_phase_average(st, "echo", params, cfg8, noise)
        assert abs(e.value) <= 1.001


def test_echo_parity_vacuum_and_timing(params, cfg8):
    noise = NoiseModel.from_params(params, params.delta("ramsey"))
    vac = fock_preparation(0, "ideal_injection", params, cfg8, noise)
    t0 = default_ramsey_time(params)
    r = echo_parity(vac, 0.0, params, cfg8, noise, t_total=t0)
    assert r.value == pytest.approx(1.0, abs=1e-6)
    # halves of pi/(2|chi|) each: 3.53 us from the measured couplings
    assert t0 / 2.0 == pytest.approx(3.53e-6, abs=0.08e-6)


def test_echo_robust_to_static_offset(params, cfg8):
    t0 = default_ramsey_time(params)
    one = fock_preparation(1, "ideal_injection", params, cfg8, NOISELESS)
    offset = NoiseModel(static_qubit_offset=10e3)
    r_plain = ramsey_parity(one, t0, 0.0, params, cfg8, NOISELESS)
    r_off = ramsey_parity(one, t0, 0.0, params, cfg8, offset)
    e_plain = echo_parity(one, 0.0, params, cfg8, NOISELESS, t_total=t0)
    e_off = echo_parity(one, 0.0, params, cfg8, offset, t_total=t0)
    assert abs(e_off.value - e_plain.value) < 0.02
    assert abs(r_off.value - r_plain.value) > 0.05


def test_four_phase_vacuum(params, cfg8):
    vac = fock_preparation(0, "ideal_injection", params, cfg8, NOISELESS)
    r = four_phase_average(vac, "ramsey", params, cfg8, NOISELESS)
    assert r.value == pytest.approx(1.0, abs=5e-3)
    assert len(r.phases_used) == 4


def test_four_phase_average_rejects_no_phases(params, cfg8):
    vac = fock_preparation(0, "ideal_injection", params, cfg8, NOISELESS)
    with pytest.raises(ValidationError):
        four_phase_average(vac, "ramsey", params, cfg8, NOISELESS, phases=())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.2])
def test_parity_result_rejects_non_finite_or_far_values(value):
    with pytest.raises(NumericError):
        ParityResult(value=value, raw_sigma_z=0.0, interaction_time=1e-6, phases_used=(),
                     reference_contrast=1.0, reference_offset=0.0)


def test_four_phase_beats_single_phase_for_coherent(params):
    cfg = HilbertConfig(2, (12,))
    noise = NOISELESS
    prep = prepare_state(StatePrep(target="coherent", beta=0.8), params, cfg, noise)
    t0 = default_ramsey_time(params)
    ideal = math.exp(-2.0 * 0.64)
    singles = [ramsey_parity(prep, t0, th, params, cfg, noise).value for th in FOUR_PHASES]
    avg = four_phase_average(prep, "ramsey", params, cfg, noise, t_interaction=t0)
    err_avg = abs(avg.value - ideal)
    err_single = max(abs(s - ideal) for s in singles)
    assert err_avg < 0.04
    assert err_single > 3.0 * err_avg


def test_two_phase_average_cancels_first_order(params):
    cfg = HilbertConfig(2, (12,))
    ideal = math.exp(-2.0 * 0.64)
    res = {}
    for scale in (1.0, 0.5, 0.25):
        ps = replace(params, g_lg00=params.g_lg00 * scale)
        prep = prepare_state(StatePrep(target="coherent", beta=0.8), ps, cfg, NOISELESS)
        t0 = default_ramsey_time(ps)
        single = ramsey_parity(prep, t0, 0.3, ps, cfg, NOISELESS)
        pair = four_phase_average(prep, "ramsey", ps, cfg, NOISELESS,
                                  t_interaction=t0, phases=(0.3, 0.3 + math.pi))
        res[scale] = (abs(single.value - ideal), abs(pair.value - ideal))
    # pairing kills the O(eps) deviation outright at full coupling
    assert res[1.0][1] < res[1.0][0] / 5.0
    # the surviving part is second order: ~4x reduction per halving of g,
    # tested away from full coupling where higher orders contaminate
    assert 3.0 < res[0.5][1] / res[0.25][1] < 6.5


def test_wigner_scan_vacuum_origin(params):
    cfg = HilbertConfig(2, (10,))
    vac = prepare_state(StatePrep(target="vacuum"), params, cfg, NOISELESS)
    par = wigner_scan(vac, np.array([[0.0 + 0.0j]]), params, cfg, NOISELESS)
    w0 = (2.0 / math.pi) * par[0, 0]
    assert w0 == pytest.approx(2.0 / math.pi, abs=0.05)


def test_wigner_scan_vacuum_gaussian(params):
    cfg = HilbertConfig(2, (14,))
    vac = prepare_state(StatePrep(target="vacuum"), params, cfg, NOISELESS)
    betas = np.array([0.0, 0.4, 0.8, 1.2], dtype=complex).reshape(-1, 1)
    par = wigner_scan(vac, betas, params, cfg, NOISELESS)
    w = (2.0 / math.pi) * par[:, 0]
    expected = (2.0 / math.pi) * np.exp(-2.0 * np.abs(betas[:, 0]) ** 2)
    assert np.abs(w - expected).max() < 0.1 * (2.0 / math.pi)


def test_scans_reject_empty_phases(params):
    cfg = HilbertConfig(2, (6,))
    vac = fock_state(cfg, [0], 0)
    with pytest.raises(ValidationError, match="phases"):
        wigner_scan(vac, np.array([[0j]]), params, cfg, NOISELESS, phases=())
    with pytest.raises(ValidationError, match="phases"):
        interaction_time_offset_scan(params, cfg, NOISELESS, times=[default_ramsey_time(params)],
                                     ring_radius=1.0, n_ring=1, phases=())


def test_interaction_time_offset_scan_smoke(params):
    cfg = HilbertConfig(2, (16,))
    t0 = default_ramsey_time(params)
    times = np.linspace(t0 - 0.15e-6, t0 + 0.15e-6, 9)
    scan = interaction_time_offset_scan(params, cfg, NOISELESS, times=times,
                                        ring_radius=1.8, n_ring=4)
    assert scan.offsets.shape == (9,)
    assert np.abs(scan.offsets).max() < 0.05  # eps^2-scale background
    assert scan.analytic_zero == pytest.approx(echo_offset_zero_time(params), rel=1e-9)


# ---------------------------------------------------------------------------
# spectroscopy


def test_spectroscopy_vacuum_single_peak(params):
    cfg = HilbertConfig(2, (6,))
    noise = NoiseModel.from_params(params, params.delta("coherent"))
    vac = prepare_state(StatePrep(target="vacuum"), params, cfg, noise)
    line0, spacing = spectroscopy_peak_hints(params, params.delta("coherent"), 2)
    grid = np.arange(line0 + spacing - 80e3, line0 + 80e3, 4e3)
    tr = qubit_spectroscopy(vac, params.delta("coherent"), None, grid, params, cfg, noise,
                            phase_cycles=1)
    peak_f = tr.frequencies[np.argmax(tr.populations)]
    assert abs(peak_f - line0) < 8e3
    assert tr.metadata["probe_bandwidth"] == pytest.approx(10.6e3, rel=0.02)
    assert not tr.metadata["warnings"]


def test_spectroscopy_grid_warning(params):
    cfg = HilbertConfig(2, (6,))
    noise = NoiseModel.from_params(params, params.delta("fock"))
    one = fock_preparation(1, "ideal_injection", params, cfg, noise)
    grid = np.arange(-0.6e6, -0.5e6, 5e3)  # misses the shifted peaks entirely
    tr = qubit_spectroscopy(one, params.delta("fock"), None, grid, params, cfg, noise,
                            phase_cycles=1)
    assert tr.metadata["warnings"]


def _explicit_cycle_average(rho, m, probe, freqs, delta, params, cfg, noise, tau):
    """The m-cycle spectrum run drive by drive: one propagator per cycle and point."""
    sp = qubit_operator(cfg, "sigma_plus").matrix
    sm = qubit_operator(cfg, "sigma_minus").matrix
    amp = TWO_PI * 0.5 * probe.amplitude
    pe = qubit_projector(cfg, 1)
    cs = collapse_operators(cfg, noise)
    pops = []
    for f in freqs:
        h0 = full_jc_hamiltonian(params, cfg, delta + noise.static_qubit_offset, frame=f).matrix
        acc = 0.0
        for k in range(m):
            phi = -(probe.phase + TWO_PI * k / m + math.pi / 2.0)
            h = h0 + amp * (np.exp(-1j * phi) * sp + np.exp(1j * phi) * sm)
            acc += expectation(_apply(_propagator(h, cs, tau), rho), pe).real
        pops.append(acc / m)
    return np.array(pops)


def _phase_twirl(rho, m, cfg):
    """(1/m) sum_k R_k^dag rho R_k with R_k = exp(2 pi i k N / m), N = sigma+ sigma- + sum n_k."""
    n = qubit_operator(cfg, "sigma_plus").matrix @ qubit_operator(cfg, "sigma_minus").matrix
    n = n + sum(number_operator(cfg, k).matrix for k in range(cfg.n_modes))
    phases = [np.exp(2j * math.pi * k * np.rint(np.diag(n).real) / m) for k in range(m)]
    return sum(np.outer(r.conj(), r) * rho.matrix for r in phases) / m


_SPEC_CONFIGS = (HilbertConfig(2, (4,)), HilbertConfig(3, (3,)), HilbertConfig(2, (3, 2)))


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 4), st.sampled_from(_SPEC_CONFIGS),
       st.sampled_from(("fock", "coherent", "random")), st.integers(0, 2**32 - 1),
       st.floats(-math.pi, math.pi))
@example(1, _SPEC_CONFIGS[0], "fock", 0, 0.0)
@example(2, _SPEC_CONFIGS[2], "coherent", 1, 0.3)
@example(3, _SPEC_CONFIGS[1], "random", 2, -1.0)
@example(4, _SPEC_CONFIGS[1], "random", 3, 2.0)
@example(4, _SPEC_CONFIGS[2], "random", 4, 1.0)
def test_spectroscopy_projection_equals_explicit_phase_average(m, cfg, kind, seed, phase):
    params = paper_default_params()
    delta, tau = params.delta("coherent"), 15e-6
    noise = NoiseModel.from_params(params, delta, static_qubit_offset=20e3)
    if kind == "fock":
        rho = fock_state(cfg, [1] + [0] * (cfg.n_modes - 1), 0).to_density()
    elif kind == "coherent":
        rho = prepare_state(StatePrep(target="coherent", beta=0.8), params, cfg, noise).to_density()
    else:
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(cfg.dim,) * 2) + 1j * rng.normal(size=(cfg.dim,) * 2)
        rho = DensityMatrix(cfg, a @ a.conj().T / np.trace(a @ a.conj().T))
    line0, spacing = spectroscopy_peak_hints(params, delta, 2)
    freqs = np.array([line0 + spacing, line0])
    probe = Pulse(shape="square", amplitude=0.5 / (TWO_PI * tau), phase=phase)
    builds, states = [], []

    def counting_propagator(*args):
        builds.append(args)
        return _propagator(*args)

    def recording_apply(prop, state):
        states.append(state)
        return _apply(prop, state)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "_propagator", counting_propagator)
        mp.setattr(sequences, "_apply", recording_apply)
        tr = qubit_spectroscopy(rho, delta, probe, freqs, params, cfg, noise,
                                probe_duration=tau, phase_cycles=m)
    assert len(builds) == freqs.size
    # the run sees rho twirled over the m probe phases, |f> (if any) unrotated
    assert np.abs(states[0].matrix - _phase_twirl(rho, m, cfg)).max() < 1e-15
    expected = _explicit_cycle_average(rho, m, probe, tr.frequencies, delta, params, cfg,
                                       noise, tau)
    assert np.abs(tr.populations - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("cycles", [0, -3, 1.5, 2.0, "2"])
def test_spectroscopy_rejects_bad_phase_cycles(params, cycles):
    cfg = HilbertConfig(2, (4,))
    vac = fock_state(cfg, [0], 0)
    with pytest.raises(ValidationError, match="phase_cycles"):
        qubit_spectroscopy(vac, params.delta("coherent"), None, [0.0], params, cfg, NOISELESS,
                           phase_cycles=cycles)


# ---------------------------------------------------------------------------
# coherence protocols


def test_phonon_t1_recovery(params):
    # recovery of the NoiseModel input; qubit channels off so the fitted
    # rate is not shifted by the (real, ~6%) qubit-induced loss at rest
    cfg = HilbertConfig(2, (5,))
    kappa1 = 1.0 / (TWO_PI * 81e-6)
    noise = NoiseModel(phonon_kappa1=kappa1, phonon_kappa_phi=0.2e3)
    delays = np.linspace(0.0, 220e-6, 23)
    _, values, fit = coherence_protocols("phonon_t1", params, cfg, noise, delays)
    assert fit.converged
    assert fit.parameters["t_decay"] == pytest.approx(81e-6, rel=0.05)


def test_phonon_t1_purcell_shortens(params):
    cfg = HilbertConfig(2, (5,))
    kappa1 = 1.0 / (TWO_PI * 81e-6)
    with_qubit = NoiseModel(
        qubit_gamma1=params.gamma1["rest"],
        qubit_gamma_phi=params.gamma2_star["rest"] - params.gamma1["rest"] / 2,
        phonon_kappa1=kappa1,
    )
    delays = np.linspace(0.0, 220e-6, 23)
    _, _, fit = coherence_protocols("phonon_t1", params, cfg, with_qubit, delays)
    assert 70e-6 < fit.parameters["t_decay"] < 80e-6  # qubit-induced loss visible


def test_phonon_t2_recovery(params):
    cfg = HilbertConfig(2, (5,))
    kappa1 = 1.0 / (TWO_PI * 81e-6)
    kappa_phi = 1.0 / (TWO_PI * 138e-6) - kappa1 / 2.0  # T_phi = 932 us
    noise = NoiseModel(phonon_kappa1=kappa1, phonon_kappa_phi=kappa_phi)
    delays = np.linspace(0.0, 320e-6, 41)
    _, values, fit = coherence_protocols("phonon_t2", params, cfg, noise, delays)
    assert fit.converged
    assert fit.parameters["t_decay"] == pytest.approx(138e-6, rel=0.05)


def test_qubit_t1_recovery(params):
    cfg = HilbertConfig(2, (3,))
    noise = NoiseModel.from_params(params, params.delta("rest"), include_phonon=False)
    delays = np.linspace(0.0, 30e-6, 21)
    _, _, fit = coherence_protocols("qubit_t1", params, cfg, noise, delays)
    assert fit.parameters["t_decay"] == pytest.approx(1.0 / (TWO_PI * 15.6e3), rel=0.05)


def test_qubit_t2_recovery(params):
    cfg = HilbertConfig(2, (3,))
    noise = NoiseModel.from_params(params, params.delta("rest"), include_phonon=False)
    delays = np.linspace(0.0, 30e-6, 61)
    _, _, fit = coherence_protocols("qubit_t2", params, cfg, noise, delays)
    assert fit.parameters["t_decay"] == pytest.approx(1.0 / (TWO_PI * 15.1e3), rel=0.05)


def test_zero_noise_divergent_flagged(params):
    # decoupled qubit: the trace is exactly flat and the fit must flag it
    decoupled = replace(params, g_lg00=1e-3, g_lg10=1e-3)
    cfg = HilbertConfig(2, (3,))
    delays = np.linspace(0.0, 100e-6, 21)
    _, _, fit = coherence_protocols("qubit_t1", decoupled, cfg, NOISELESS, delays)
    assert not fit.converged or fit.metadata.get("divergent")


# ---------------------------------------------------------------------------
# cache keys


def test_fringe_calibration_cache_tracks_lg10_coupling(params):
    from cqadsim import sequences

    sequences._vacuum_fringe.cache_clear()
    cfg = HilbertConfig(2, (5, 3))
    strong = replace(params, g_lg10=200e3)
    d = params.delta("ramsey")
    t = default_ramsey_time(params, d)
    fresh = sequences._fringe_calibration("ramsey", t, d, strong, cfg, NOISELESS)
    sequences._vacuum_fringe.cache_clear()
    weak = sequences._fringe_calibration("ramsey", t, d, params, cfg, NOISELESS)
    assert sequences._fringe_calibration("ramsey", t, d, strong, cfg, NOISELESS) == fresh
    assert abs(fresh[0] - weak[0]) > 0.1


@pytest.mark.parametrize("point", ["ramsey", "fock", "coherent", "rest"])
def test_echo_offset_zero_time_is_a_bracketed_sign_change(params, point):
    from cqadsim.hilbert import coherent_amplitudes
    from cqadsim.swtheory import echo_sigma_z_analytic

    d = params.delta(point)
    c = coherent_amplitudes(22, 2.0)  # the far-field state echo_offset_zero_time uses

    def offset(t):
        return np.mean([echo_sigma_z_analytic(c, th, t, params, d, 1 if d > 0 else -1)
                        for th in FOUR_PHASES])

    t0 = default_ramsey_time(params, d)
    scan = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, 121)
    t_star = echo_offset_zero_time(params, d)
    i = int(np.searchsorted(scan, t_star)) - 1
    assert scan[i] < t_star < scan[i + 1]
    assert offset(scan[i]) * offset(scan[i + 1]) < 0
    assert offset(t_star * (1 - 1e-12)) * offset(t_star * (1 + 1e-12)) < 0


def test_echo_offset_zero_time_cache_tracks_span(params):
    from cqadsim import sequences

    sequences._echo_offset_zero.cache_clear()
    fresh = echo_offset_zero_time(params, span=1e-9)
    sequences._echo_offset_zero.cache_clear()
    wide = echo_offset_zero_time(params)
    assert echo_offset_zero_time(params, span=1e-9) == fresh
    # no zero crossing within +-1 ns of t0: the scan falls back to t0
    assert fresh == default_ramsey_time(params)
    assert wide != fresh
