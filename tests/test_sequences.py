import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import basis_vector, coherent_vector, dense_liouvillian
from cqadsim import dynamics, sequences
from cqadsim.device import TWO_PI, full_jc_hamiltonian, paper_default_params
from cqadsim.dynamics import (
    NoiseModel,
    Pulse,
    Segment,
    _apply,
    _matrices,
    _sweep_action,
    collapse_operators,
    evolve_segments,
)
from cqadsim.exceptions import NumericError, TruncationError, ValidationError
from cqadsim.hilbert import (
    DensityMatrix,
    HilbertConfig,
    coherent_state,
    displacement_operator,
    expectation,
    fock_state,
    number_operator,
    qubit_operator,
    qubit_projector,
    reduced_mode_matrix,
)
from cqadsim.sequences import (
    FOUR_PHASES,
    ParityResult,
    StatePrep,
    coherence_protocols,
    default_ramsey_time,
    echo_offset_zero_time,
    four_phase_average,
    interaction_time_offset_scan,
    prepare_state,
    qubit_spectroscopy,
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


def phonon_populations(rho):
    return np.real(np.diag(reduced_mode_matrix(rho, 0)))


# ---------------------------------------------------------------------------
# preparation


def test_spec_and_prep_validation():
    with pytest.raises(ValidationError):
        StatePrep(target="squeezed")
    with pytest.raises(ValidationError):
        StatePrep(target="fock", m=4, method="swap_sequence")


def test_fock_prep_trivial_and_ideal(params, cfg8):
    vac = prepare_state(StatePrep("fock", 0, method="swap_sequence"), params, cfg8, NOISELESS)
    assert phonon_populations(vac)[0] == pytest.approx(1.0)
    one = prepare_state(StatePrep("fock", 1), params, cfg8, NOISELESS)
    assert phonon_populations(one)[1] == pytest.approx(1.0)


def test_fock_prep_swap_noiseless(params, cfg8):
    state = prepare_state(StatePrep("fock", 1, method="swap_sequence"), params, cfg8, NOISELESS)
    assert phonon_populations(state)[1] > 0.99


def test_fock_prep_m3_with_paper_noise(params, cfg8):
    noise = NoiseModel.from_params(params, params.delta("rest"))
    state = prepare_state(StatePrep("fock", 3, method="swap_sequence"), params, cfg8, noise)
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


def test_every_state_constructor_and_preparation_is_a_pure_density_matrix(params, cfg8):
    """One state type: ``fock_state``, ``coherent_state`` and every ``prepare_state``
    target/method pair without noise give a DensityMatrix that validates and is pure to 1e-12.
    Each constructor is the outer product of its vector exactly, ``coherent_state`` that of the
    embedded ``coherent_amplitudes``."""
    two = HilbertConfig(2, (6, 3))
    states = []
    basis = [(cfg8, [n], q) for n in range(4) for q in (0, 1)] + [(two, [0, 0], 0),
                                                                     (two, [2, 1], 1)]
    for cfg, occupations, q in basis:
        v = basis_vector(cfg, occupations, q)
        states.append(fock_state(cfg, occupations, q))
        assert np.array_equal(states[-1].matrix, np.outer(v, v.conj()))
    for cfg, beta in [(cfg8, 0.0), (cfg8, 0.9 - 0.4j), (two, 1.1j)]:
        v = coherent_vector(cfg, beta)
        states.append(coherent_state(cfg, 0, beta))
        assert np.array_equal(states[-1].matrix, np.outer(v, v.conj()))
    pairs = [(target, method) for target, methods in sequences._PREP_METHODS.items()
             for method in methods]
    assert len(pairs) == 7
    for cfg in (cfg8, two):
        for target, method in pairs:
            prep = StatePrep(target, 2 if target == "fock" else 0,
                             0.8 if target == "coherent" else 0j, method)
            states.append(prepare_state(prep, params, cfg, NOISELESS))
    for rho in states:
        assert isinstance(rho, DensityMatrix)
        rho.validate()
        assert abs(rho.purity() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Ramsey / echo parity


def test_ramsey_vacuum_is_calibrated_to_one(params, cfg8):
    d = params.delta("ramsey")
    noise = NoiseModel.from_params(params, d)
    vac = prepare_state(StatePrep("fock", 0), params, cfg8, noise)
    for t in (3e-6, default_ramsey_time(params), 9e-6):
        r = four_phase_average(vac, "ramsey", params, cfg8, noise, t, d, (0.0,))
        assert r.value == pytest.approx(1.0, abs=1e-6)


def test_ramsey_fock1_values(params, cfg8):
    t0, d = default_ramsey_time(params), params.delta("ramsey")
    one = prepare_state(StatePrep("fock", 1), params, cfg8, NOISELESS)
    r = four_phase_average(one, "ramsey", params, cfg8, NOISELESS, t0, d, (0.0,))
    eps = abs(params.g_lg00 / d)
    assert r.value == pytest.approx(-1.0, abs=eps)
    noise = NoiseModel.from_params(params, d)
    one_n = prepare_state(StatePrep("fock", 1), params, cfg8, noise)
    rn = four_phase_average(one_n, "ramsey", params, cfg8, noise, t0, d, (0.0,))
    assert rn.value < -0.5


def test_ramsey_m2_oscillation_frequency(params):
    # fringe frequency for M=2 is 2|chi| = 140 kHz within 5%
    from cqadsim.analysis import decay_fit

    cfg = HilbertConfig(2, (6,))
    two = prepare_state(StatePrep("fock", 2), params, cfg, NOISELESS)
    t0, d = default_ramsey_time(params), params.delta("ramsey")
    times = np.linspace(0.2e-6, 1.4 * t0, 36)
    vals = [four_phase_average(two, "ramsey", params, cfg, NOISELESS, t, d, (0.0,)).value
            for t in times]
    fit = decay_fit(times, np.array(vals), "exponential_sine")
    assert fit.parameters["frequency"] == pytest.approx(140e3, rel=0.05)


def test_parity_results_bounded(params, cfg8):
    d = params.delta("ramsey")
    noise = NoiseModel.from_params(params, d)
    t0 = default_ramsey_time(params)
    for m in range(4):
        st = prepare_state(StatePrep("fock", m), params, cfg8, noise)
        r = four_phase_average(st, "ramsey", params, cfg8, noise, t0, d, (0.0,))
        assert abs(r.value) <= 1.001
        e = four_phase_average(st, "echo", params, cfg8, noise, echo_offset_zero_time(params, d), d)
        assert abs(e.value) <= 1.001


def test_echo_parity_vacuum_and_timing(params, cfg8):
    d = params.delta("ramsey")
    noise = NoiseModel.from_params(params, d)
    vac = prepare_state(StatePrep("fock", 0), params, cfg8, noise)
    t0 = default_ramsey_time(params)
    r = four_phase_average(vac, "echo", params, cfg8, noise, t0, d, (0.0,))
    assert r.value == pytest.approx(1.0, abs=1e-6)
    # halves of pi/(2|chi|) each: 3.53 us from the measured couplings
    assert t0 / 2.0 == pytest.approx(3.53e-6, abs=0.08e-6)


def test_echo_robust_to_static_offset(params, cfg8):
    t0 = default_ramsey_time(params)
    d = params.delta("ramsey")
    one = prepare_state(StatePrep("fock", 1), params, cfg8, NOISELESS)
    offset = NoiseModel(static_qubit_offset=10e3)
    r_plain = four_phase_average(one, "ramsey", params, cfg8, NOISELESS, t0, d, (0.0,))
    r_off = four_phase_average(one, "ramsey", params, cfg8, offset, t0, d, (0.0,))
    e_plain = four_phase_average(one, "echo", params, cfg8, NOISELESS, t0, d, (0.0,))
    e_off = four_phase_average(one, "echo", params, cfg8, offset, t0, d, (0.0,))
    assert abs(e_off.value - e_plain.value) < 0.02
    assert abs(r_off.value - r_plain.value) > 0.05


def test_four_phase_vacuum(params, cfg8):
    vac = prepare_state(StatePrep("fock", 0), params, cfg8, NOISELESS)
    r = four_phase_average(vac, "ramsey", params, cfg8, NOISELESS, default_ramsey_time(params),
                           params.delta("ramsey"))
    assert r.value == pytest.approx(1.0, abs=5e-3)


def test_four_phase_average_rejects_no_phases(params, cfg8):
    vac = prepare_state(StatePrep("fock", 0), params, cfg8, NOISELESS)
    with pytest.raises(ValidationError):
        four_phase_average(vac, "ramsey", params, cfg8, NOISELESS, default_ramsey_time(params),
                           params.delta("ramsey"), phases=())


@pytest.mark.parametrize("phases", [(math.inf,), (0.0, math.nan)])
def test_four_phase_average_rejects_non_finite_phases(params, cfg8, phases):
    vac = prepare_state(StatePrep("fock", 0), params, cfg8, NOISELESS)
    with pytest.raises(ValidationError, match="finite"):
        four_phase_average(vac, "echo", params, cfg8, NOISELESS, default_ramsey_time(params),
                           params.delta("ramsey"), phases=phases)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1.2])
def test_parity_result_rejects_non_finite_or_far_values(value):
    with pytest.raises(NumericError):
        ParityResult(value=value, raw_sigma_z=0.0, reference_contrast=1.0)


def test_four_phase_beats_single_phase_for_coherent(params):
    cfg = HilbertConfig(2, (12,))
    noise = NOISELESS
    prep = prepare_state(StatePrep(target="coherent", beta=0.8), params, cfg, noise)
    t0, d = default_ramsey_time(params), params.delta("ramsey")
    ideal = math.exp(-2.0 * 0.64)
    singles = [four_phase_average(prep, "ramsey", params, cfg, noise, t0, d, (th,)).value
               for th in FOUR_PHASES]
    avg = four_phase_average(prep, "ramsey", params, cfg, noise, t0, d)
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
        t0, d = default_ramsey_time(ps), ps.delta("ramsey")
        single = four_phase_average(prep, "ramsey", ps, cfg, NOISELESS, t0, d, (0.3,))
        pair = four_phase_average(prep, "ramsey", ps, cfg, NOISELESS, t0, d, (0.3, 0.3 + math.pi))
        res[scale] = (abs(single.value - ideal), abs(pair.value - ideal))
    # pairing kills the O(eps) deviation outright at full coupling
    assert res[1.0][1] < res[1.0][0] / 5.0
    # the surviving part is second order: ~4x reduction per halving of g,
    # tested away from full coupling where higher orders contaminate
    assert 3.0 < res[0.5][1] / res[0.25][1] < 6.5


def test_wigner_scan_vacuum_origin(params):
    cfg = HilbertConfig(2, (10,))
    vac = prepare_state(StatePrep(target="vacuum"), params, cfg, NOISELESS)
    d = params.delta("ramsey")
    par = wigner_scan(vac, np.array([[0.0 + 0.0j]]), params, cfg, NOISELESS,
                      echo_offset_zero_time(params, d), d)
    w0 = (2.0 / math.pi) * par[0, 0]
    assert w0 == pytest.approx(2.0 / math.pi, abs=0.05)


def test_wigner_scan_vacuum_gaussian(params):
    cfg = HilbertConfig(2, (14,))
    vac = prepare_state(StatePrep(target="vacuum"), params, cfg, NOISELESS)
    betas = np.array([0.0, 0.4, 0.8, 1.2], dtype=complex).reshape(-1, 1)
    d = params.delta("ramsey")
    par = wigner_scan(vac, betas, params, cfg, NOISELESS, echo_offset_zero_time(params, d), d)
    w = (2.0 / math.pi) * par[:, 0]
    expected = (2.0 / math.pi) * np.exp(-2.0 * np.abs(betas[:, 0]) ** 2)
    assert np.abs(w - expected).max() < 0.1 * (2.0 / math.pi)


def test_interaction_time_offset_scan_smoke(params):
    cfg = HilbertConfig(2, (16,))
    t0 = default_ramsey_time(params)
    times = np.linspace(t0 - 0.15e-6, t0 + 0.15e-6, 9)
    scan = interaction_time_offset_scan(params, cfg, NOISELESS, times=times,
                                        ring_radius=1.8, n_ring=4)
    assert scan.offsets.shape == (9,)
    assert np.abs(scan.offsets).max() < 0.05  # eps^2-scale background
    assert scan.analytic_zero == pytest.approx(
        echo_offset_zero_time(params, params.delta("ramsey")), rel=1e-9)


# ---------------------------------------------------------------------------
# Heisenberg-picture readout of the scans

_EFFECT_CONFIGS = st.one_of(
    st.integers(2, 6).map(lambda n: HilbertConfig(2, (n,))),
    st.integers(2, 4).map(lambda n: HilbertConfig(2, (n,))),
    st.tuples(st.integers(2, 3), st.integers(2, 3)).map(lambda nm: HilbertConfig(2, nm)),
)


def _forward_phase_mean(state, variant, phases, readout, t, d, params, cfg, noise):
    """Mean sigma_z after running each phase's sequence forward on the state.

    Drive phase th is read out at th + ``readout``.
    """
    vals = []
    for th in phases:
        out = state
        for step in sequences._parity_steps(variant, th, th + readout, t, d, cfg):
            out = (evolve_segments(out, [step], params, cfg, noise) if isinstance(step, Segment)
                   else _apply(step, out))
        vals.append(expectation(out, qubit_operator(cfg, "sigma_z")).real)
    return float(np.mean(vals))


def _four_offset_vacuum_fringe(variant, t, d, params, cfg, noise):
    """(phase, contrast, offset) of the vacuum read at the four readout offsets FOUR_PHASES."""
    vac = fock_state(cfg, [0] * cfg.n_modes, 0)
    vals = [_forward_phase_mean(vac, variant, [0.0], o, t, d, params, cfg, noise)
            for o in FOUR_PHASES]
    c, s = (vals[0] - vals[2]) / 2.0, (vals[1] - vals[3]) / 2.0
    return math.atan2(s, c), math.hypot(c, s), sum(vals) / 4.0


@settings(max_examples=60, deadline=None)
@given(_EFFECT_CONFIGS, st.booleans(), st.sampled_from(("echo", "ramsey")),
       st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4),
       st.floats(0.5, 1.5), st.integers(0, 2**32 - 1))
@example(HilbertConfig(2, (6,)), True, "echo", list(FOUR_PHASES), 1.0, 0)
@example(HilbertConfig(2, (4,)), True, "ramsey", [0.3, 1.7], 0.8, 1)
@example(HilbertConfig(2, (3, 3)), False, "echo", [2.0], 1.2, 2)
def test_parity_effect_reads_the_forward_phase_mean(cfg, noisy, variant, phases, t_scale, seed):
    """E and the contrast from one backward sigma_+ pass against every phase run forward.

    The reference calibrates on the vacuum read at four readout offsets
    (without the static offset) and runs each drive phase's sequence forward
    on the state, read out at the fringe's phase; its offset term is zero to
    rounding.
    """
    params = paper_default_params()
    d = params.delta("ramsey")
    t = t_scale * default_ramsey_time(params, d)
    noise = (NoiseModel.from_params(params, d, static_qubit_offset=20e3) if noisy
             else NoiseModel(static_qubit_offset=20e3))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=cfg.dim) + 1j * rng.normal(size=cfg.dim)
    a = rng.normal(size=(cfg.dim, 2)) + 1j * rng.normal(size=(cfg.dim, 2))
    v = v / np.linalg.norm(v)
    states = (DensityMatrix(cfg, np.outer(v, v.conj())),
              DensityMatrix(cfg, a @ a.conj().T / np.trace(a @ a.conj().T)))
    readout, contrast, offset = _four_offset_vacuum_fringe(variant, t, d, params, cfg,
                                                           noise.without_offset())
    effect, got_contrast = sequences._calibrated_effect(variant, tuple(phases), t, d, params, cfg,
                                                        noise)
    assert abs(got_contrast - contrast) < 1e-12
    assert abs(offset) < 1e-12
    for state in states:
        forward = _forward_phase_mean(state, variant, phases, readout, t, d, params, cfg, noise)
        assert abs(expectation(state, effect).real - forward) < 1e-12


def _dense_readout(variant, t, d, params, cfg, noise):
    """F by scipy's dense expm: sigma_+ through each rotation as U^dag F U and through each segment
    as vec(F^T) -> exp(L t)^T vec(F^T), or U^dag F U with U = exp(-i H t) without noise."""
    from scipy.linalg import expm

    dim = cfg.dim
    op = qubit_operator(cfg, "sigma_plus").matrix
    for step in reversed(sequences._parity_steps(variant, 0.0, 0.0, t, d, cfg)[:-1]):
        if isinstance(step, Segment):
            h = full_jc_hamiltonian(params, cfg, step.detuning + noise.static_qubit_offset).matrix
            cs = collapse_operators(cfg, noise)
            if cs:
                p = expm(dense_liouvillian(h, cs) * step.duration)
                op = (p.T @ op.T.reshape(-1)).reshape(dim, dim).T
                continue
            step = expm(-1j * h * step.duration)
        op = step.conj().T @ op @ step
    return op


@pytest.mark.parametrize("cfg", [HilbertConfig(2, (5,)), HilbertConfig(2, (4, 3))])
@pytest.mark.parametrize("static_offset", [0.0, 20e3])
@pytest.mark.parametrize("variant", ["ramsey", "echo"])
def test_readout_pass_matches_the_dense_expm_oracle(params, cfg, static_offset, variant):
    """With noise, F from the restricted actions matches the dense oracle to 1e-12 relative;
    without noise it is, byte for byte, U^dag F U over the cached segment propagators."""
    d = params.delta("ramsey")
    t = echo_offset_zero_time(params, d)
    sequences._readout_adjoint.cache_clear()
    noise = NoiseModel.from_params(params, d, static_qubit_offset=static_offset)
    got = sequences._readout_adjoint(variant, t, d, params, cfg, noise)
    want = _dense_readout(variant, t, d, params, cfg, noise)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    noiseless = NoiseModel(static_qubit_offset=static_offset)
    op = qubit_operator(cfg, "sigma_plus").matrix
    for step in reversed(sequences._parity_steps(variant, 0.0, 0.0, t, d, cfg)[:-1]):
        if isinstance(step, Segment):
            step = dynamics._segment_propagator(step, params, cfg, noiseless)
        op = step.conj().T @ op @ step
    assert np.array_equal(sequences._readout_adjoint(variant, t, d, params, cfg, noiseless), op)
    sequences._readout_adjoint.cache_clear()


def _per_point_wigner(state, grid, params, cfg, noise, t, d):
    """The per-point reference: ``displacement_operator``, ``_apply``, ``expectation``."""
    effect, contrast = sequences._calibrated_effect("echo", FOUR_PHASES, t, d, params, cfg, noise)
    vals = [expectation(_apply(displacement_operator(cfg, 0, -b).matrix, state), effect).real
            / contrast for b in np.asarray(grid).reshape(-1)]
    return np.reshape(vals, np.shape(grid))


def _wigner_case(name, params):
    d = params.delta("ramsey")
    paper = NoiseModel.from_params(params, d)
    if name == "paper_density":
        cfg, noise = HilbertConfig(2, (8,)), paper
        state = prepare_state(StatePrep("fock", 1, method="swap_sequence"), params, cfg, noise)
        assert isinstance(state, DensityMatrix)
    elif name == "noiseless_ket":  # a pure coherent state
        cfg, noise = HilbertConfig(2, (8,)), NOISELESS
        state = coherent_state(cfg, 0, 0.5 + 0.3j)
    else:  # two modes, LG-10 coupled in the model and occupied in the state
        cfg, noise = HilbertConfig(2, (7, 3)), paper
        rng = np.random.default_rng(5)
        a = rng.normal(size=(cfg.dim, 3)) + 1j * rng.normal(size=(cfg.dim, 3))
        state = DensityMatrix(cfg, a @ a.conj().T / np.trace(a @ a.conj().T))
    return state, cfg, noise


@pytest.mark.parametrize("case", ["paper_density", "noiseless_ket", "two_mode_lg10"])
@pytest.mark.parametrize("shape", [(1, 1), (3, 4), (5, 2)])
@pytest.mark.parametrize("block_entries", [None, 1, 100])
def test_wigner_scan_blocks_read_the_per_point_reference(params, case, shape, block_entries,
                                                         monkeypatch):
    """Batched readout against the per-point one, whatever the block size; no block is larger
    than the cap allows (one point when a single state is larger)."""
    state, cfg, noise = _wigner_case(case, params)
    d = params.delta("ramsey")
    re, im = np.linspace(-0.8, 0.7, shape[1]), np.linspace(-0.6, 0.9, shape[0])
    grid = re[None, :] + 1j * im[:, None] + 0.05j
    if block_entries is not None:
        monkeypatch.setattr(sequences, "_WIGNER_BLOCK_ENTRIES", block_entries)
    cap = sequences._WIGNER_BLOCK_ENTRIES
    blocks = []
    displacements = sequences._displacements
    monkeypatch.setattr(sequences, "_displacements",
                        lambda dim, betas: blocks.append(len(betas)) or displacements(dim, betas))
    got = wigner_scan(state, grid, params, cfg, noise, 7e-6, d)
    ref = _per_point_wigner(state, grid, params, cfg, noise, 7e-6, d)
    assert got.shape == shape
    assert np.abs(got - ref).max() < 1e-12
    assert sum(blocks) == grid.size and max(blocks) == max(1, min(grid.size, cap // cfg.dim ** 2))


def test_wigner_scan_refuses_a_bad_corner_before_any_readout(params, monkeypatch):
    """The corner |beta| = 1.84 needs dim 14 (the centre needs none): refused before E is built."""
    cfg = HilbertConfig(2, (6,))
    built = []
    monkeypatch.setattr(sequences, "_calibrated_effect", lambda *args: built.append(args))
    axis = np.linspace(-1.3, 1.3, 3)
    with pytest.raises(TruncationError, match="needs phonon dim >= 14"):
        wigner_scan(fock_state(cfg, [0], 0), axis[None, :] + 1j * axis[:, None], params, cfg,
                    NOISELESS, 7e-6, params.delta("ramsey"))
    assert built == []


def test_wigner_scan_refuses_a_nan_grid_point(params):
    cfg = HilbertConfig(2, (6,))
    with pytest.raises(TruncationError, match="nan"):
        wigner_scan(fock_state(cfg, [0], 0), np.array([[0.1, complex(math.nan, 0.0)]]), params,
                    cfg, NOISELESS, 7e-6, params.delta("ramsey"))


def test_wigner_scan_evolves_no_segment_per_grid_point(params):
    """One readout pass, the same for one point and for a grid: each of its segments is one
    action and each of its pulses one conjugation, whatever the grid."""
    cfg = HilbertConfig(2, (5,))
    noise = NoiseModel.from_params(params, params.delta("ramsey"))
    one = fock_state(cfg, [1], 0)
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def calls(grid):
        counts.clear()
        sequences._readout_adjoint.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_segment_adjoint", "_apply_adjoint"):
                mp.setattr(sequences, name, counting(name, getattr(sequences, name)))
            mp.setattr(dynamics, "_sweep_action", counting("_sweep_action", _sweep_action))
            wigner_scan(one, grid, params, cfg, noise, 7e-6, params.delta("ramsey"))
        return dict(counts)

    axis = np.linspace(-0.5, 0.5, 3)
    single = calls(np.zeros((1, 1), complex))
    assert single == calls(axis[None, :] + 1j * axis[:, None])
    assert single == {"_segment_adjoint": 2, "_sweep_action": 2, "_apply_adjoint": 2}


def test_offset_scan_needs_four_times(params):
    cfg = HilbertConfig(2, (6,))
    t0 = default_ramsey_time(params)
    with pytest.raises(ValidationError, match="at least 4 times"):
        interaction_time_offset_scan(params, cfg, NOISELESS, times=[t0 - 1e-7, t0, t0 + 1e-7],
                                     n_ring=1)


def test_offset_scan_needs_a_ring_point(params):
    cfg = HilbertConfig(2, (6,))
    t0 = default_ramsey_time(params)
    for n_ring in (0, 2.5):
        with pytest.raises(ValidationError, match="n_ring"):
            interaction_time_offset_scan(params, cfg, NOISELESS, times=t0 + np.arange(4) * 1e-7,
                                         n_ring=n_ring)


# ---------------------------------------------------------------------------
# spectroscopy


def test_spectroscopy_vacuum_single_peak(params):
    cfg = HilbertConfig(2, (6,))
    noise = NoiseModel.from_params(params, params.delta("coherent"))
    vac = prepare_state(StatePrep(target="vacuum"), params, cfg, noise)
    line0, spacing = spectroscopy_peak_hints(params, params.delta("coherent"), 2)
    grid = np.arange(line0 + spacing - 80e3, line0 + 80e3, 4e3)
    tr = qubit_spectroscopy(vac, params.delta("coherent"), None, grid, params, cfg, noise)
    peak_f = tr.frequencies[np.argmax(tr.populations)]
    assert abs(peak_f - line0) < 8e3


def test_spectroscopy_empty_grid_is_a_validation_error(params):
    cfg = HilbertConfig(2, (4,))
    noise = NoiseModel.from_params(params, params.delta("coherent"))
    vac = fock_state(cfg, [0], 0)
    with pytest.raises(ValidationError, match="grid is empty"):
        qubit_spectroscopy(vac, params.delta("coherent"), None, [], params, cfg, noise)


def _explicit_cycle_average(rho, m, probe, freqs, delta, params, cfg, noise, tau):
    """The m-cycle spectrum run drive by drive: scipy's dense expm of the Liouvillian per cycle
    and point."""
    from scipy.linalg import expm

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
            dense = expm(dense_liouvillian(h, cs) * tau)
            evolved = (dense @ rho.matrix.reshape(-1)).reshape(cfg.dim, cfg.dim)
            acc += np.trace(pe.matrix @ evolved).real
        pops.append(acc / m)
    return np.array(pops)


def _phase_twirl(rho, m, cfg):
    """(1/m) sum_k R_k^dag rho R_k with R_k = exp(2 pi i k N / m), N = sigma+ sigma- + sum n_k."""
    n = qubit_operator(cfg, "sigma_plus").matrix @ qubit_operator(cfg, "sigma_minus").matrix
    n = n + sum(number_operator(cfg, k).matrix for k in range(cfg.n_modes))
    phases = [np.exp(2j * math.pi * k * np.rint(np.diag(n).real) / m) for k in range(m)]
    return sum(np.outer(r.conj(), r) * rho.matrix for r in phases) / m


_SPEC_CONFIGS = (HilbertConfig(2, (4,)), HilbertConfig(2, (3,)), HilbertConfig(2, (3, 2)))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(_SPEC_CONFIGS), st.sampled_from(("fock", "coherent", "random")),
       st.integers(0, 2**32 - 1), st.floats(-math.pi, math.pi))
@example(_SPEC_CONFIGS[0], "fock", 0, 0.0)
@example(_SPEC_CONFIGS[2], "coherent", 1, 0.3)
@example(_SPEC_CONFIGS[1], "random", 2, -1.0)
@example(_SPEC_CONFIGS[1], "random", 3, 2.0)
@example(_SPEC_CONFIGS[2], "random", 4, 1.0)
def test_spectroscopy_projection_equals_explicit_phase_average(cfg, kind, seed, phase):
    """The spectrum's two probe phases (m = 2) as one projected run."""
    m = 2
    params = paper_default_params()
    delta, tau = params.delta("coherent"), 15e-6
    noise = NoiseModel.from_params(params, delta, static_qubit_offset=20e3)
    if kind == "fock":
        rho = fock_state(cfg, [1] + [0] * (cfg.n_modes - 1), 0)
    elif kind == "coherent":
        rho = prepare_state(StatePrep(target="coherent", beta=0.8), params, cfg, noise)
    else:
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(cfg.dim,) * 2) + 1j * rng.normal(size=(cfg.dim,) * 2)
        rho = DensityMatrix(cfg, a @ a.conj().T / np.trace(a @ a.conj().T))
    line0, spacing = spectroscopy_peak_hints(params, delta, 2)
    freqs = np.array([line0 + spacing, line0])
    probe = Pulse(amplitude=0.5 / (TWO_PI * tau), phase=phase)
    vectors = []

    def recording_action(plan, u):
        vectors.append(u)
        return _sweep_action(plan, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_sweep_action", recording_action)
        tr = qubit_spectroscopy(rho, delta, probe, freqs, params, cfg, noise, probe_duration=tau)
    # one action for the whole sweep, one column per frequency
    assert len(vectors) == 1 and vectors[0].shape[1] == freqs.size
    # the run sees rho twirled over the m probe phases
    seen = _matrices(vectors[0][:, :1])[0]
    assert np.abs(seen - _phase_twirl(rho, m, cfg)).max() < 1e-15
    expected = _explicit_cycle_average(rho, m, probe, tr.frequencies, delta, params, cfg,
                                       noise, tau)
    assert np.abs(tr.populations - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("dim, tau, half_extent",
                         [(10, 15e-6, 3), (10, 20e-9, 1), (10, 60e-6, 11), (4, 150e-6, 17)])
def test_spectroscopy_action_matches_dense_propagator(params, dim, tau, half_extent):
    """Paper noise: one Chebyshev sweep whose generator has a real half-extent up to
    ``half_extent``, taken in substeps of at most 1.5 each.

    15 us is the preset's probe (2 substeps); 20 ns takes one substep and
    60 us several.  At dim 4 and 150 us one substep would lose every digit.
    Each way the populations match the dense propagator to 1e-12.
    """
    cfg, delta = HilbertConfig(2, (dim,)), params.delta("coherent")
    noise = NoiseModel.from_params(params, delta)
    rho = coherent_state(cfg, 0, 0.8)
    line0, spacing = spectroscopy_peak_hints(params, delta, 5)
    # the CLI grid's lower edge, between peaks 1 and 2, and on peak 0
    freqs = np.array([line0 + 4 * spacing - 50e3, line0 + 1.5 * spacing, line0])
    plans, sweep_plan = [], dynamics._sweep_plan

    def recording_plan(gen, radius, turn):
        plans.append((dynamics._gershgorin(gen), sweep_plan(gen, radius, turn)))
        return plans[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_sweep_plan", recording_plan)
        tr = qubit_spectroscopy(rho, delta, None, freqs, params, cfg, noise, probe_duration=tau)
    # the pair rotation is antisymmetric, so the sparse part alone sets the real extent
    [((lo, hi), (_, _, _, p, _))] = plans
    assert math.ceil((hi - lo) / 2) == half_extent
    assert p == max(math.ceil((hi - lo) / 3), 1)
    probe = Pulse(amplitude=0.5 / (TWO_PI * tau))
    expected = _explicit_cycle_average(rho, 2, probe, tr.frequencies, delta, params, cfg,
                                       noise, tau)
    assert np.abs(tr.populations - expected).max() <= 1e-12 * np.abs(expected).max()


def _counted_products(monkeypatch):
    """A list that gets the column count of every sparse product the Chebyshev recurrence takes."""
    products, matvecs = [], dynamics.csr_matvecs

    def counted(n_row, n_col, n_vecs, *arrays):
        products.append(n_vecs)
        return matvecs(n_row, n_col, n_vecs, *arrays)

    monkeypatch.setattr(dynamics, "csr_matvecs", counted)
    return products


def test_benchmark_size_sweep_takes_at_most_1674_products(params, monkeypatch):
    """The ``spectroscopy`` benchmark's sweep (dim 10, 15 us probe, the 24-point grid at a 20 kHz
    step) takes at most 2 substeps of 837 products, each on the whole 24-column block."""
    cfg, delta = HilbertConfig(2, (10,)), params.delta("coherent")
    noise = NoiseModel.from_params(params, delta)
    line0, spacing = spectroscopy_peak_hints(params, delta, 5)
    grid = np.arange(line0 + 4 * spacing - 50e3, line0 + 50e3, 20e3)
    assert grid.size == 24
    products = _counted_products(monkeypatch)
    qubit_spectroscopy(coherent_state(cfg, 0, 0.8), delta, None, grid, params, cfg, noise,
                       probe_duration=15e-6)
    assert len(products) <= 1674 and set(products) == {24}


def test_wigner_readout_halves_take_at_most_112_products(params, monkeypatch):
    """Each echo half of ``wigner_fock1``'s readout (phonon dim 19, paper noise, the automatic
    interaction time) is one substep of at most 112 products, and its radius lies within 3% of
    the largest singular value of the anti-Hermitian part of the restricted generator."""
    delta = params.delta("ramsey")
    cfg, noise = HilbertConfig(2, (19,)), NoiseModel.from_params(params, delta)
    t = echo_offset_zero_time(params, delta)
    products = _counted_products(monkeypatch)
    halves, sweep_plan, sweep_action = [], dynamics._sweep_plan, dynamics._sweep_action

    def recorded_plan(gen, radius, turn=None):
        dense = gen.toarray()
        halves.append([radius, np.linalg.norm((dense - dense.conj().T) / 2, 2)])
        return sweep_plan(gen, radius, turn)

    def recorded_action(plan, u):
        start = len(products)
        out = sweep_action(plan, u)
        halves[-1].insert(0, len(products) - start)
        return out

    monkeypatch.setattr(dynamics, "_sweep_plan", recorded_plan)
    monkeypatch.setattr(dynamics, "_sweep_action", recorded_action)
    sequences._readout_adjoint.cache_clear()
    sequences._calibrated_effect("echo", FOUR_PHASES, t, delta, params, cfg, noise)
    sequences._readout_adjoint.cache_clear()
    assert len(halves) == 2
    for count, radius, norm in halves:
        assert count <= 112
        assert norm <= radius <= 1.03 * norm


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
    noise = replace(NoiseModel.from_params(params, params.delta("rest")), phonon_kappa1=0.0,
                    phonon_kappa_phi=0.0)
    delays = np.linspace(0.0, 30e-6, 21)
    _, _, fit = coherence_protocols("qubit_t1", params, cfg, noise, delays)
    assert fit.parameters["t_decay"] == pytest.approx(1.0 / (TWO_PI * 15.6e3), rel=0.05)


def test_qubit_t2_recovery(params):
    cfg = HilbertConfig(2, (3,))
    noise = replace(NoiseModel.from_params(params, params.delta("rest")), phonon_kappa1=0.0,
                    phonon_kappa_phi=0.0)
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
    """The cached readout pass is keyed on the LG-10 coupling: its vacuum fringe phase moves."""
    sequences._readout_adjoint.cache_clear()
    cfg = HilbertConfig(2, (5, 3))
    strong = replace(params, g_lg10=200e3)
    d = params.delta("ramsey")
    t = default_ramsey_time(params, d)
    fresh = sequences._readout_adjoint("ramsey", t, d, strong, cfg, NOISELESS)
    sequences._readout_adjoint.cache_clear()
    weak = sequences._readout_adjoint("ramsey", t, d, params, cfg, NOISELESS)
    assert np.array_equal(sequences._readout_adjoint("ramsey", t, d, strong, cfg, NOISELESS), fresh)
    assert abs(np.angle(fresh[0, 0] / weak[0, 0])) > 0.1


@pytest.mark.parametrize("static_offset", [0.0, 20e3])
def test_readout_pass_runs_once_per_operating_point(params, static_offset):
    """An offset-free noise model makes one cache miss per operating point; a static offset adds
    the offset-free calibration pass.  Further phases and states at the point are hits."""
    cfg = HilbertConfig(2, (4,))
    d = params.delta("ramsey")
    noise = NoiseModel.from_params(params, d, static_qubit_offset=static_offset)
    states = (fock_state(cfg, [0], 0), fock_state(cfg, [1], 0))
    sequences._readout_adjoint.cache_clear()
    for t in (6e-6, 7e-6):
        for phases in (FOUR_PHASES, (0.3,)):
            for state in states:
                four_phase_average(state, "echo", params, cfg, noise, t, d, phases)
    per_point = 1 if static_offset == 0.0 else 2
    assert sequences._readout_adjoint.cache_info().misses == 2 * per_point


@pytest.mark.parametrize("point", ["ramsey", "fock", "coherent", "rest"])
def test_echo_offset_zero_time_is_a_bracketed_sign_change(params, point):
    from cqadsim.hilbert import coherent_amplitudes
    from cqadsim.swtheory import echo_sigma_z_analytic

    d = params.delta(point)
    c = coherent_amplitudes(22, 2.0)  # the far-field state echo_offset_zero_time uses

    def offset(t):
        return np.mean([echo_sigma_z_analytic(c, th, t, params, d) for th in FOUR_PHASES])

    t0 = default_ramsey_time(params, d)
    scan = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, 121)
    t_star = echo_offset_zero_time(params, d)
    i = int(np.searchsorted(scan, t_star)) - 1
    assert scan[i] < t_star < scan[i + 1]
    assert offset(scan[i]) * offset(scan[i + 1]) < 0
    assert offset(t_star * (1 - 1e-12)) * offset(t_star * (1 + 1e-12)) < 0


@pytest.mark.parametrize("f, bracket", [
    (lambda x: x**3 - 2.0 * x - 5.0, (2.0, 3.0)),
    (lambda x: math.cos(x) - x, (0.0, 1.0)),
    (lambda x: 1e-8 * math.atan(x - 0.2), (-1.0, 5.0)),
    (lambda x: math.sin(40.0 * x) + 0.1, (0.05, 0.1)),
    (lambda x: (x - 1.3) ** 5, (0.0, 2.0)),  # no convergence in 100 steps at xtol 1e-20
])
@pytest.mark.parametrize("xtol, rtol", [(1e-20, 4 * np.finfo(float).eps), (2e-12, 1e-10)])
def test_brent_root_takes_the_steps_of_scipys_brentq(f, bracket, xtol, rtol):
    from scipy.optimize import brentq

    outcomes = []
    for solve in (sequences._brent_root, lambda g, a, b, xt, rt: brentq(g, a, b, xtol=xt, rtol=rt)):
        points = []
        try:
            root = solve(lambda x: points.append(x) or f(x), *bracket, xtol, rtol)
        except RuntimeError:
            root = None
        outcomes.append((root, points))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("point", ["ramsey", "fock", "coherent", "rest"])
def test_echo_offset_zero_time_is_the_root_brentq_finds(params, point, monkeypatch):
    """Bit for bit, from as many evaluations: the scan, then one per Brent step."""
    from scipy.optimize import brentq

    analytic = sequences.echo_sigma_z_analytic
    calls = []

    def counting(*args):
        calls.append(args[2])
        return analytic(*args)

    monkeypatch.setattr(sequences, "echo_sigma_z_analytic", counting)
    runs = []
    for root in (sequences._brent_root,
                 lambda g, a, b, xtol, rtol: brentq(g, a, b, xtol=xtol, rtol=rtol)):
        monkeypatch.setattr(sequences, "_brent_root", root)
        echo_offset_zero_time.cache_clear()
        calls.clear()
        runs.append((echo_offset_zero_time(params, params.delta(point)), len(calls)))
    echo_offset_zero_time.cache_clear()
    assert runs[0] == runs[1]


@pytest.mark.parametrize("point", ["ramsey", "fock", "coherent", "rest"])
def test_echo_offset_zero_time_makes_one_call_per_evaluation(params, point, monkeypatch):
    """The four phases ride in one call: one batched call per window of the scan, then one
    scalar-time call per Brent step."""
    analytic = sequences.echo_sigma_z_analytic
    calls = []

    def counting(c, theta, t, *args):
        calls.append((np.shape(theta), np.ndim(t)))
        return analytic(c, theta, t, *args)

    monkeypatch.setattr(sequences, "echo_sigma_z_analytic", counting)
    echo_offset_zero_time.cache_clear()
    echo_offset_zero_time(params, params.delta(point))
    echo_offset_zero_time.cache_clear()
    windows = calls.count(((4, 1), 1))
    assert windows >= 1 and set(calls[:windows]) == {((4, 1), 1)}
    assert set(calls[windows:]) == {((4, 1), 0)}
    assert len(calls) <= 20


def _full_grid_zero_time(params, delta):
    """The bracket from the whole 121-point grid in one call, then the same Brent refinement."""
    from cqadsim.hilbert import coherent_amplitudes

    t0 = default_ramsey_time(params, delta)
    c = coherent_amplitudes(22, 2.0)

    def offset(t):
        vals = sequences.echo_sigma_z_analytic(c, np.reshape(FOUR_PHASES, (4, 1)), t, params, delta)
        return np.mean(vals, axis=0).reshape(np.shape(t))

    times = np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, 121)
    vals = offset(times)
    crossings = np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
    if crossings.size == 0:
        return t0
    best = crossings[np.argmin(np.abs(times[crossings] - t0))]
    return sequences._brent_root(offset, times[best], times[best + 1], 1e-20,
                                 4 * np.finfo(float).eps)


@pytest.mark.parametrize("point", ["ramsey", "fock", "coherent", "rest"])
def test_echo_offset_zero_time_windows_give_the_full_grid_root(params, point, monkeypatch):
    """Bit for bit the full grid's root, from fewer than its 121 scan points."""
    analytic = sequences.echo_sigma_z_analytic
    scanned = []

    def scanning(c, theta, t, *args):
        if np.ndim(t):  # the windows; Brent's steps are scalar calls
            scanned.extend(t)
        return analytic(c, theta, t, *args)

    monkeypatch.setattr(sequences, "echo_sigma_z_analytic", scanning)
    d = params.delta(point)
    echo_offset_zero_time.cache_clear()
    got = echo_offset_zero_time(params, d)
    echo_offset_zero_time.cache_clear()
    assert len(scanned) < 121 and len(set(scanned)) == len(scanned)
    monkeypatch.setattr(sequences, "echo_sigma_z_analytic", analytic)
    assert got == _full_grid_zero_time(params, d)


def test_echo_offset_zero_time_without_a_crossing_scans_the_grid_and_returns_t0(params,
                                                                               monkeypatch):
    scanned = []

    def positive(c, theta, t, *args):
        scanned.extend(np.atleast_1d(t))
        return np.ones(np.broadcast_shapes(np.shape(theta), np.shape(t)))

    monkeypatch.setattr(sequences, "echo_sigma_z_analytic", positive)
    d = params.delta("ramsey")
    t0 = default_ramsey_time(params, d)
    echo_offset_zero_time.cache_clear()
    assert echo_offset_zero_time(params, d) == t0
    echo_offset_zero_time.cache_clear()
    assert sorted(scanned) == list(np.linspace(t0 - 0.30e-6, t0 + 0.30e-6, 121))
