import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix, identity, kron
from scipy.special import jv

from cqadsim import dynamics, sequences
from cqadsim.device import TWO_PI, _jc_terms, full_jc_hamiltonian, paper_default_params
from cqadsim.dynamics import (
    NoiseModel,
    Pulse,
    Segment,
    clear_propagator_cache,
    collapse_operators,
    evolve_segments,
    liouvillian,
    vacuum_rabi_chevron,
)
from cqadsim.dynamics import (
    _apply,
    _bessel_j,
    _drive_hamiltonian,
    _frame_charge,
    _frame_states,
    _hermitian_basis,
    _hermitian_generator,
    _matrices,
    _PropagatorCache,
    _radius,
    _sweep_action,
    _sweep_plan,
)
from cqadsim.exceptions import NumericError, ValidationError
from cqadsim.hilbert import (
    DensityMatrix,
    HilbertConfig,
    Ket,
    annihilation,
    expectation,
    fock_state,
    qubit_projector,
)
from cqadsim.sequences import (
    FOUR_PHASES,
    StatePrep,
    _calibrated_effect,
    _excitation_number,
    _readout_adjoint,
    coherence_protocols,
    prepare_state,
    qubit_spectroscopy,
)


@pytest.fixture(scope="module")
def params():
    return paper_default_params()


def test_noise_model_from_params(params):
    n = NoiseModel.from_params(params, params.delta("ramsey"))
    assert n.qubit_gamma1 == pytest.approx(12.1e3)
    assert n.qubit_gamma_phi == pytest.approx(15.7e3 - 12.1e3 / 2)
    # intrinsic phonon rates: Purcell emerges from the simulated coupling
    assert n.phonon_kappa1 == pytest.approx(2.0e3)
    assert n.phonon_kappa_phi == pytest.approx(0.2e3)
    assert not n.is_trivial
    assert NoiseModel().is_trivial
    with pytest.raises(ValidationError):
        NoiseModel(qubit_gamma1=-1.0)


def test_schedule_validation():
    """A segment list holds segments of positive duration; an empty one changes nothing."""
    with pytest.raises(ValidationError):
        Segment(duration=0.0, detuning=0.0)
    with pytest.raises(ValidationError):
        Segment(duration=-1e-6, detuning=0.0)
    cfg = HilbertConfig(2, (3,))
    psi = fock_state(cfg, [1], 0)
    assert evolve_segments(psi, [], paper_default_params(), cfg, NoiseModel()) is psi


def test_pulse_validation():
    with pytest.raises(ValidationError):
        Pulse(amplitude=-1.0)


def _uncoupled(params):
    """The device with both couplings negligible, so the qubit and the modes evolve apart."""
    return replace(params, g_lg00=1e-9, g_lg10=1e-9)


def test_pure_qubit_decay(params):
    cfg = HilbertConfig(2, (2,))
    gamma1 = 15.6e3
    noise = NoiseModel(qubit_gamma1=gamma1)
    t1 = 1.0 / (TWO_PI * gamma1)
    half = Segment(0.5 * t1, params.delta("rest"))
    pe = []
    state = fock_state(cfg, [0], 1)
    for _ in range(2):
        state = evolve_segments(state, [half], _uncoupled(params), cfg, noise)
        pe.append(expectation(state, qubit_projector(cfg, 1)).real)
    assert pe[1] == pytest.approx(1.0 / math.e, abs=1e-4)
    assert pe[0] == pytest.approx(math.exp(-0.5), abs=1e-4)


def test_phonon_dephasing_closed_form(params):
    cfg = HilbertConfig(2, (3,))
    kphi = 5e3
    noise = NoiseModel(phonon_kappa_phi=kphi)
    v = (fock_state(cfg, [0]).amplitudes + fock_state(cfg, [1]).amplitudes) / math.sqrt(2)
    t = 20e-6
    out = evolve_segments(Ket(cfg, v), [Segment(t, params.delta("rest"))], _uncoupled(params),
                          cfg, noise)
    od = out.matrix[cfg.index(0, [0]), cfg.index(0, [1])]
    assert abs(od) == pytest.approx(0.5 * math.exp(-TWO_PI * kphi * t), abs=1e-6)


def test_evolved_states_stay_physical(params):
    """Undriven segments and drive-frame pi pulses alternate; every state stays physical."""
    cfg = HilbertConfig(2, (5,))
    delta = params.delta("ramsey")
    noise = NoiseModel.from_params(params, delta)
    wait = Segment(1e-6, delta)
    pulse = Segment(50e-9, delta, qubit_drive=Pulse(1e7, 0.4))  # 2 pi amp duration = pi
    state = fock_state(cfg, [2], 0)
    for seg in [wait, pulse] * 4:
        state = evolve_segments(state, [seg], params, cfg, noise)
        assert abs(state.trace() - 1.0) < 1e-6
        assert np.linalg.eigvalsh(state.matrix).min() > -1e-6


def test_noiseless_purity_preserved(params):
    cfg = HilbertConfig(2, (5,))
    rho0 = fock_state(cfg, [1], 1).to_density()
    segs = [Segment(6e-6, -1.1e6), Segment(0.2e-6, -1.1e6, qubit_drive=Pulse(2e6, 1.0))]
    out = evolve_segments(rho0, segs, params, cfg, NoiseModel())
    assert isinstance(out, DensityMatrix)
    assert out.purity() == pytest.approx(1.0, abs=1e-6)


def test_vacuum_rabi_resonant(params):
    cfg = HilbertConfig(2, (3,))
    tg = np.linspace(0.0, 2e-6, 101)
    m = vacuum_rabi_chevron(params, cfg, NoiseModel(), [0.0], tg)
    expected = np.cos(TWO_PI * params.g_lg00 * tg) ** 2
    assert np.abs(m[0] - expected).max() < 1e-9
    first_min = tg[np.argmin(m[0][: len(tg) // 2])]
    assert first_min == pytest.approx(1.0 / (4.0 * params.g_lg00), abs=0.03e-6)


def test_vacuum_rabi_detuned_contrast(params):
    cfg = HilbertConfig(2, (3,))
    tg = np.linspace(0.0, 2e-6, 201)
    m = vacuum_rabi_chevron(params, cfg, NoiseModel(), [params.delta("rest")], tg)
    contrast = 1.0 - m[0].min()
    bound = params.g_lg00**2 / (params.g_lg00**2 + (params.delta("rest") / 2.0) ** 2)
    assert contrast <= bound * 1.001
    assert contrast > 0.5 * bound


def test_vacuum_rabi_zero_coupling_flat(params):
    from dataclasses import replace

    p0 = replace(params, g_lg00=1e-9, g_lg10=1e-9)
    cfg = HilbertConfig(2, (3,))
    m = vacuum_rabi_chevron(p0, cfg, NoiseModel(), [0.0, -1e6], np.linspace(0, 2e-6, 21))
    assert np.abs(m - 1.0).max() < 1e-9


@pytest.mark.parametrize("times", [[], [0.0], [1e-7, 2e-7], [0.0, 1e-7, 3e-7]])
def test_vacuum_rabi_refuses_a_bad_time_grid(params, times):
    """An empty, one-point, late-starting or non-uniform grid is a ValidationError, as the
    chevron's times and as the delays of a coherence protocol: both loops step one grid."""
    cfg = HilbertConfig(2, (3,))
    with pytest.raises(ValidationError, match="time grid"):
        vacuum_rabi_chevron(params, cfg, NoiseModel(), [0.0], times)
    with pytest.raises(ValidationError, match="time grid"):
        coherence_protocols("phonon_t1", params, cfg, NoiseModel(), times)


def test_vacuum_rabi_lg10_feature(params):
    cfg = HilbertConfig(2, (3, 3))
    deltas = [0.0, params.lg10_offset]
    tg = np.linspace(0.0, 3e-6, 61)
    m = vacuum_rabi_chevron(params, cfg, NoiseModel(), deltas, tg)
    # at the LG-10 offset the qubit exchanges with the second mode
    assert 1.0 - m[1].min() > 0.8
    assert 1.0 - m[0].min() > 0.9


_CHEVRON_NOISE = NoiseModel.from_params(paper_default_params(), 0.0)


@pytest.mark.parametrize("config, offset", [(HilbertConfig(2, (4,)), 0.0),
                                            (HilbertConfig(2, (3, 3)), 0.0),
                                            (HilbertConfig(2, (4,)), 30e3)],
                         ids=["one_mode", "two_modes", "static_offset"])
def test_noisy_chevron_matches_the_dense_liouvillian_exponential(params, monkeypatch, config,
                                                                 offset):
    """With paper noise, P_e at every detuning and time against scipy's dense expm of the
    Liouvillian at that detuning and time, to 1e-12, for one mode, for two modes and with a
    static offset; every stepped state keeps its trace, Hermiticity and positivity."""
    noise = replace(_CHEVRON_NOISE, static_qubit_offset=offset)
    deltas = np.array([-1.2e6, 0.0, params.lg10_offset])
    times = np.linspace(0.0, 2e-6, 9)
    blocks = []

    def recorded(plan, u):
        blocks.append(_sweep_action(plan, u))
        return blocks[-1]

    monkeypatch.setattr(dynamics, "_sweep_action", recorded)
    got = vacuum_rabi_chevron(params, config, noise, deltas, times)
    d, cs = config.dim, collapse_operators(config, noise)
    rho0 = fock_state(config, [0] * config.n_modes, 1).to_density().matrix.reshape(-1)
    pe = qubit_projector(config, 1).matrix
    for delta, row in zip(deltas, got):
        gen = liouvillian(full_jc_hamiltonian(params, config, delta + offset).matrix, cs).toarray()
        expected = [np.trace(pe @ (expm(gen * t) @ rho0).reshape(d, d)).real for t in times]
        assert np.abs(row - expected).max() <= 1e-12
    assert len(blocks) == times.size - 1
    for state in _matrices(np.hstack(blocks)):
        assert abs(np.trace(state) - 1.0) < 1e-10
        assert np.abs(state - state.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(state).min() >= -1e-10


def test_stepped_loops_plan_once(params, monkeypatch):
    """The chevron makes one Chebyshev plan, with or without noise, and a delay loop one for its
    wait plus one for the swap it runs in and out, whatever the grid; with noise neither puts
    anything in the propagator cache."""
    plans, sweep_plan = [], dynamics._sweep_plan

    def counted(*args):
        plans.append(args)
        return sweep_plan(*args)

    monkeypatch.setattr(dynamics, "_sweep_plan", counted)
    config = HilbertConfig(2, (3,))
    for noise in (_CHEVRON_NOISE, NoiseModel()):
        clear_propagator_cache()
        plans.clear()
        vacuum_rabi_chevron(params, config, noise, [-1e6, 0.0, 1e6], np.linspace(0.0, 1e-6, 11))
        assert len(plans) == 1 and not dynamics._CACHE._data
    noise = NoiseModel.from_params(params, params.delta("rest"))
    for kind, expected in (("qubit_t1", 1), ("qubit_t2", 1), ("phonon_t1", 2), ("phonon_t2", 2)):
        clear_propagator_cache()
        plans.clear()
        coherence_protocols(kind, params, config, noise, np.linspace(0.0, 20e-6, 11))
        assert len(plans) == expected and not dynamics._CACHE._data


def test_swap_gate_fidelity(params):
    """Half a vacuum-Rabi period on resonance swaps |e,0> and |g,1>."""
    cfg = HilbertConfig(2, (6,))
    swap = [Segment(1.0 / (4.0 * params.g_lg00), 0.0)]
    out = evolve_segments(fock_state(cfg, [0], 1), swap, params, cfg, NoiseModel())
    assert abs(out.amplitudes[cfg.index(0, [1])]) ** 2 > 0.99
    back = evolve_segments(out, swap, params, cfg, NoiseModel())
    assert abs(back.amplitudes[cfg.index(1, [0])]) ** 2 > 0.98
    # zero-excitation sector untouched
    vac = evolve_segments(fock_state(cfg, [0], 0), swap, params, cfg, NoiseModel())
    assert abs(vac.amplitudes[cfg.index(0, [0])]) ** 2 == pytest.approx(1.0, abs=1e-12)


def _driven_coherent(params, cfg, noise, beta):
    """A coherent state made by the resonant phonon drive: |beta| = pi amp, over 1 us."""
    prep = StatePrep(target="coherent", beta=beta, method="displacement_drive")
    return prepare_state(prep, params, cfg, noise)


def test_displacement_drive_amplitude(params):
    cfg = HilbertConfig(2, (10,))
    target = math.pi * 0.25e6 * 1e-6  # amplitude 0.25 MHz
    out = _driven_coherent(params, cfg, NoiseModel(), target)
    beta = expectation(out, annihilation(cfg))
    # hybridization with the detuned qubit costs a fraction (g/delta)^2
    assert abs(beta) == pytest.approx(target, rel=0.01)


def test_displacement_linearity(params):
    cfg = HilbertConfig(2, (12,))
    amps = np.linspace(0.05e6, 0.45e6, 5)
    betas = [abs(expectation(_driven_coherent(params, cfg, NoiseModel(), math.pi * a * 1e-6),
                             annihilation(cfg)))
             for a in amps]
    from cqadsim.analysis import calibration_fit

    fit = calibration_fit(amps, betas)
    assert fit.parameters["r_squared"] > 0.999
    # doubling the amplitude doubles |beta| within 2%
    assert betas[-1] / betas[1] == pytest.approx(amps[-1] / amps[1], rel=0.02)


def test_displacement_with_decay_shrinks(params):
    cfg = HilbertConfig(2, (10,))
    target = math.pi * 0.3e6 * 1e-6  # amplitude 0.3 MHz
    rho = _driven_coherent(params, cfg, NoiseModel(phonon_kappa1=20e3), target)
    ket = _driven_coherent(params, cfg, NoiseModel(), target)
    assert isinstance(rho, DensityMatrix) and isinstance(ket, Ket)
    b_noisy = abs(expectation(rho, annihilation(cfg)))
    b_clean = abs(expectation(ket, annihilation(cfg)))
    assert b_noisy < b_clean


def test_instantaneous_ramp_is_frame_jump(params):
    # state unchanged across a detuning jump; only the Hamiltonian changes
    cfg = HilbertConfig(2, (4,))
    k = fock_state(cfg, [1], 0)
    segs = [Segment(duration=1e-9, detuning=-4.1e6)]
    out = evolve_segments(k, segs, params, cfg, NoiseModel())
    # 1 ns at rest barely evolves the state
    assert abs(np.vdot(out.amplitudes, k.amplitudes)) ** 2 > 1.0 - 1e-3


def test_rk_density_path_returns_a_valid_state(params):
    cfg = HilbertConfig(2, (4,))
    seg = Segment(duration=1e-6, detuning=-1.9e6, qubit_drive=Pulse(amplitude=0.5e6, phase=0.3))
    rng = np.random.default_rng(3)
    a = rng.normal(size=(cfg.dim, 3)) + 1j * rng.normal(size=(cfg.dim, 3))
    rho = DensityMatrix(cfg, a @ a.conj().T / np.trace(a @ a.conj().T))
    out = evolve_segments(rho, [seg], params, cfg, NoiseModel.from_params(params, seg.detuning))
    out.validate()


_DRIVE_CONFIGS = st.one_of(
    st.integers(2, 4).map(lambda n: HilbertConfig(2, (n,))),
    st.integers(2, 3).map(lambda n: HilbertConfig(2, (n,))),
    st.tuples(st.integers(2, 3), st.integers(2, 3)).map(lambda nm: HilbertConfig(2, nm)),
    st.just(HilbertConfig(2, (2, 2))),
)


def _in_drive_frame(state, seg, params, config, noise):
    """The exact evolution through a qubit drive at detuning delta, in the frame f = delta.

    There the drive is static, so the generator is constant: rho_f(tau) is
    scipy's dense exponential of the Liouvillian (exp(-i H tau) for a Ket) of
    full_jc_hamiltonian(frame=delta) plus the static drive.
    Back in the phonon frame, rho(tau) = V rho_f(tau) V^dag with
    V = exp(-i 2 pi delta tau K), K = sigma_z/2 + sum_k n_k.
    """
    delta = seg.detuning
    h = (full_jc_hamiltonian(params, config, delta + noise.static_qubit_offset,
                             frame=delta).matrix
         + _drive_hamiltonian(config, Segment(seg.duration, 0.0, qubit_drive=seg.qubit_drive)))
    if isinstance(state, Ket):
        in_frame = _apply(expm(-1j * h * seg.duration), state)
    else:
        dense = expm(liouvillian(h, collapse_operators(config, noise)).toarray() * seg.duration)
        in_frame = DensityMatrix(config, (dense @ state.matrix.reshape(-1)).reshape(h.shape))
    sz, modes = _jc_terms(config)
    k = 0.5 * sz + sum(n_k for n_k, _ in modes)
    return _apply(expm(-1j * TWO_PI * delta * seg.duration * k), in_frame)


@settings(max_examples=30, deadline=None)
@given(
    config=_DRIVE_CONFIGS,
    rates=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e2, 1e5))] * 4),
    offset=st.floats(-2e5, 2e5),
    delta=st.floats(0.2e6, 5e6).flatmap(lambda d: st.sampled_from([d, -d])),
    duration=st.floats(10e-9, 200e-9),
    amplitude=st.floats(0.0, 1e7),
    phase=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_qubit_drive_matches_the_constant_generator_in_the_drive_frame(
        params, config, rates, offset, delta, duration, amplitude, phase, seed):
    noise = NoiseModel(*rates, static_qubit_offset=offset)
    seg = Segment(duration, delta, qubit_drive=Pulse(amplitude, phase))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(config.dim,) * 2) + 1j * rng.normal(size=(config.dim,) * 2)
    rho = DensityMatrix(config, m @ m.conj().T / np.trace(m @ m.conj().T))
    out = evolve_segments(rho, [seg], params, config, noise)
    diff = out.matrix - _in_drive_frame(rho, seg, params, config, noise).matrix
    assert 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum() <= 1e-12


@settings(max_examples=15, deadline=None)
@given(
    config=_DRIVE_CONFIGS,
    delta=st.floats(0.2e6, 5e6).flatmap(lambda d: st.sampled_from([d, -d])),
    duration=st.floats(10e-9, 200e-9),
    amplitude=st.floats(0.0, 1e7),
    phase=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_ket_qubit_drive_matches_the_constant_generator_in_the_drive_frame(
        params, config, delta, duration, amplitude, phase, seed):
    seg = Segment(duration, delta, qubit_drive=Pulse(amplitude, phase))
    rng = np.random.default_rng(seed)
    v = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
    psi = Ket(config, v / np.linalg.norm(v))
    out = evolve_segments(psi, [seg], params, config, NoiseModel())
    assert isinstance(out, Ket)
    exact = _in_drive_frame(psi, seg, params, config, NoiseModel())
    assert np.linalg.norm(out.amplitudes - exact.amplitudes) <= 1e-12
    # the Ket and the density matrix take independent kernels to the same state
    rho = evolve_segments(psi.to_density(), [seg], params, config, NoiseModel())
    diff = out.to_density().matrix - rho.matrix
    assert 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum() <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    config=_DRIVE_CONFIGS,
    rates=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e2, 1e5))] * 4),
    detuning=st.floats(-5e6, 5e6),
    drives=st.sampled_from(["qubit", "phonon", "both"]),
    duration=st.floats(10e-9, 1e-6),
    amplitude=st.floats(0.0, 1e7),
    phase=st.floats(-math.pi, math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_driven_segments_are_cptp(params, config, rates, detuning, drives, duration, amplitude,
                                  phase, seed):
    """Any drive keeps a random rho's trace, Hermiticity and positivity, and a Ket's norm."""
    pulse = Pulse(amplitude, phase)
    seg = Segment(duration, 0.0 if drives == "both" else detuning,
                  qubit_drive=None if drives == "phonon" else pulse,
                  phonon_drive=None if drives == "qubit" else pulse)
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(config.dim,) * 2) + 1j * rng.normal(size=(config.dim,) * 2)
    rho = DensityMatrix(config, m @ m.conj().T / np.trace(m @ m.conj().T))
    out = evolve_segments(rho, [seg], params, config, NoiseModel(*rates)).matrix
    assert abs(np.trace(out) - 1.0) < 1e-10
    assert np.abs(out - out.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-10
    v = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
    psi = evolve_segments(Ket(config, v / np.linalg.norm(v)), [seg], params, config, NoiseModel())
    assert isinstance(psi, Ket)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)


_KICK = Pulse(1.5e6, -0.4)
_REST = paper_default_params().delta("rest")


@pytest.mark.parametrize("config, seg, offset, start", [
    (HilbertConfig(2, (6,)), Segment(0.3e-6, -1.9e6, phonon_drive=_KICK), 20e3, 1),
    (HilbertConfig(2, (3, 2)), Segment(0.3e-6, -1.9e6, phonon_drive=_KICK), 20e3, 1),
    (HilbertConfig(2, (6,)), Segment(0.3e-6, 0.0, Pulse(2e6, 0.7), _KICK), 20e3, 1),
    (HilbertConfig(2, (3, 2)), Segment(0.3e-6, 0.0, Pulse(2e6, 0.7), _KICK), 20e3, 1),
    # the spectroscopy preset's preparation: |beta| = 0.8 in 1 us at rest, from the vacuum
    (HilbertConfig(2, (10,)),
     Segment(1e-6, _REST, phonon_drive=Pulse(0.8 / (math.pi * 1e-6), math.pi / 2.0)), 0.0, 0),
], ids=["-1900000.0-None-config0", "-1900000.0-None-config1", "0.0-qubit_drive1-config0",
        "0.0-qubit_drive1-config1", "spectroscopy_prep"])
def test_phonon_drive_matches_the_dense_propagator(params, config, seg, offset, start):
    """A phonon drive is static in the phonon frame: the action equals the dense exp(L t).

    ``start`` is the level of the qubit and of the first mode in the initial state.
    """
    noise = NoiseModel.from_params(params, params.delta("coherent"), static_qubit_offset=offset)
    h = (full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
         + _drive_hamiltonian(config, seg))
    rho = fock_state(config, [start] + [0] * (config.n_modes - 1), start).to_density()
    dense = expm(liouvillian(h, collapse_operators(config, noise)).toarray() * seg.duration)
    exact = (dense @ rho.matrix.reshape(-1)).reshape(config.dim, config.dim)
    diff = evolve_segments(rho, [seg], params, config, noise).matrix - exact
    assert 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum() <= 1e-12


def test_frame_states_match_the_dense_exponential_in_every_frame(params):
    """exp(L(f) t) rho against dense expm of the Lindbladian of H - 2 pi f K, frame by frame."""
    config = HilbertConfig(2, (3, 2))
    noise = NoiseModel.from_params(params, params.delta("coherent"))
    rng = np.random.default_rng(7)
    m = rng.normal(size=(config.dim,) * 2) + 1j * rng.normal(size=(config.dim,) * 2)
    rho = DensityMatrix(config, m @ m.conj().T / np.trace(m @ m.conj().T))
    seg = Segment(0.2e-6, 0.0, qubit_drive=Pulse(3e6, 0.3), phonon_drive=_KICK)
    h = full_jc_hamiltonian(params, config, -1.9e6).matrix + _drive_hamiltonian(config, seg)
    sz, modes = _jc_terms(config)
    k = 0.5 * sz + sum(n_k for n_k, _ in modes)
    cs = collapse_operators(config, noise)
    frames = np.array([-2e6, 0.0, 0.5e6, 3e6])
    got = _frame_states(rho, h, cs, seg.duration, frames)
    assert got.shape == (frames.size, config.dim, config.dim)
    for f, state in zip(frames, got):
        dense = expm(liouvillian(h - TWO_PI * f * k, cs).toarray() * seg.duration)
        diff = state - (dense @ rho.matrix.reshape(-1)).reshape(config.dim, config.dim)
        assert 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum() <= 1e-12


def test_every_driven_density_action_is_one_sweep_action(params, monkeypatch):
    """A segment on a density matrix, driven or not, and a whole spectroscopy grid, each make
    one Chebyshev action; a driven Ket takes its dense exp(-i H t) and makes none.  A swap
    Fock-1 preparation, a single pass, builds no propagator."""
    calls = []

    def counted(plan, u):
        calls.append(u.shape[1])
        return _sweep_action(plan, u)

    monkeypatch.setattr(dynamics, "_sweep_action", counted)
    config = HilbertConfig(2, (4,))
    noise = NoiseModel.from_params(params, params.delta("rest"))
    vacuum = fock_state(config, [0], 0)
    for seg in (Segment(50e-9, params.delta("rest"), qubit_drive=Pulse(10e6)),
                Segment(1e-6, params.delta("rest"), phonon_drive=_KICK),
                Segment(0.3e-6, 0.0, Pulse(2e6, 0.7), _KICK)):
        calls.clear()
        evolve_segments(vacuum, [seg], params, config, noise)
        assert calls == [1]
        calls.clear()
        assert isinstance(evolve_segments(vacuum, [seg], params, config, NoiseModel()), Ket)
        assert calls == []
    calls.clear()
    clear_propagator_cache()
    evolve_segments(vacuum, [Segment(0.4e-6, params.delta("rest"))], params, config, noise)
    assert calls == [1]
    calls.clear()
    prepare_state(StatePrep("fock", 1, method="swap_sequence"), params, config, noise)
    assert calls == [1, 1] and not dynamics._CACHE._data
    freqs = np.linspace(-2e6, -1.5e6, 5)
    qubit_spectroscopy(vacuum, params.delta("coherent"), None, freqs, params, config, noise)
    assert calls == [1, 1, 5]


def test_two_drives_without_a_common_frame_are_refused():
    """A qubit drive off the phonon frame rotates against a phonon drive in every frame."""
    drives = dict(qubit_drive=Pulse(1e6), phonon_drive=Pulse(1e5))
    with pytest.raises(ValidationError, match="no common frame"):
        Segment(50e-9, -1.9e6, **drives)
    Segment(50e-9, 0.0, **drives)  # both resonant in the phonon frame


def test_static_offset_shifts_qubit(params):
    # the offset enters the Hamiltonian: Ramsey fringe phase moves
    cfg = HilbertConfig(2, (2,))
    from cqadsim.sequences import default_ramsey_time, four_phase_average

    t0, d = default_ramsey_time(params), params.delta("ramsey")
    st = prepare_state(StatePrep("fock", 0), params, cfg, NoiseModel())
    base = four_phase_average(st, "ramsey", params, cfg, NoiseModel(), t0, d, (0.0,))
    shifted = four_phase_average(st, "ramsey", params, cfg, NoiseModel(static_qubit_offset=10e3),
                                 t0, d, (0.0,))
    assert abs(shifted.value - base.value) > 0.05


# ---------------------------------------------------------------------------
# undriven segments and stepped loops

_RATES = st.one_of(st.just(0.0), st.floats(min_value=1e2, max_value=1e5))
_CONFIGS = st.one_of(
    st.integers(2, 6).map(lambda n: HilbertConfig(2, (n,))),
    st.integers(2, 5).map(lambda n: HilbertConfig(2, (n,))),
    st.tuples(st.integers(2, 3), st.integers(2, 3)).map(lambda nm: HilbertConfig(2, nm)),
)


@st.composite
def _static_segments(draw):
    """(config, noise, segment): an undriven segment with random noise."""
    config = draw(_CONFIGS)
    noise = NoiseModel(
        qubit_gamma1=draw(_RATES),
        qubit_gamma_phi=draw(_RATES),
        phonon_kappa1=draw(_RATES),
        phonon_kappa_phi=draw(_RATES),
        static_qubit_offset=draw(st.floats(-2e5, 2e5)),
    )
    return config, noise, Segment(draw(st.floats(1e-8, 5e-6)), draw(st.floats(-3e6, 3e6)))


_PAPER_NOISE = NoiseModel.from_params(paper_default_params(), _REST)


@settings(max_examples=40, deadline=None)
@given(_static_segments(), st.integers(0, 2**32 - 1))
@example((HilbertConfig(2, (6,)), _PAPER_NOISE, Segment(2e-6, _REST)), 0)
@example((HilbertConfig(2, (3, 3)), _PAPER_NOISE, Segment(2e-6, _REST)), 1)
def test_single_pass_action_matches_the_cached_propagator(drawn, seed):
    """evolve_segments takes an undriven segment of a density matrix as one action; it equals
    scipy's dense exponential of the segment's Liouvillian, and the state stays physical."""
    config, noise, seg = drawn
    params = paper_default_params()
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(config.dim,) * 2) + 1j * rng.normal(size=(config.dim,) * 2)
    rho = DensityMatrix(config, m @ m.conj().T / np.trace(m @ m.conj().T))
    out = evolve_segments(rho, [seg], params, config, noise).matrix
    h = full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
    dense = expm(liouvillian(h, collapse_operators(config, noise)).toarray() * seg.duration)
    expected = (dense @ rho.matrix.reshape(-1)).reshape(config.dim, config.dim)
    assert np.abs(out - expected).max() <= 1e-12
    assert abs(np.trace(out) - 1.0) < 1e-10
    assert np.abs(out - out.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_echo_parity_effect_builds_only_low_coherence_orders(params, monkeypatch):
    """sigma_+ read back through the echo is one action on the rows of one coherence order in
    the late half, of five in the early one, and puts nothing in the propagator cache.

    The readout pass stops before the final pi/2 pulse, so the late half sees
    sigma_+ alone, a single coherence order; the pi pulse between the halves
    turns it into orders -3..1 (in the vec of the transposed operator that
    the action takes).  Each action runs on exactly the entries of its
    orders.  Checked at phonon dims 5 and 19.
    """
    delta = params.delta("ramsey")
    noise = NoiseModel.from_params(params, delta)
    steps, actions = [], []
    segment_adjoint, sweep_action = dynamics._segment_adjoint, dynamics._sweep_action

    def recorded_step(op, seg, *args):
        steps.append((seg.detuning, op))
        return segment_adjoint(op, seg, *args)

    def recorded_action(plan, u):
        actions.append(u)
        return sweep_action(plan, u)

    monkeypatch.setattr(sequences, "_segment_adjoint", recorded_step)
    monkeypatch.setattr(dynamics, "_sweep_action", recorded_action)
    for dim in (5, 19):
        config = HilbertConfig(2, (dim,))
        clear_propagator_cache()
        _readout_adjoint.cache_clear()
        steps.clear()
        actions.clear()
        _calibrated_effect("echo", FOUR_PHASES, 6e-6, delta, params, config, noise)
        n = _excitation_number(config)
        q = np.subtract.outer(n, n).reshape(-1)
        reached = {}
        for (detuning, op), u in zip(steps, actions, strict=True):
            rows = np.flatnonzero(np.isin(q, q[op.T.reshape(-1) != 0]))
            assert np.array_equal(u, op.T.reshape(-1)[rows])
            reached[detuning] = sorted(set(q[rows]))
        assert reached == {delta: [-3, -2, -1, 0, 1], -delta: [-1]}
        assert not dynamics._CACHE._data


@pytest.mark.parametrize("n_collapse", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("hermitian", [True, False])
def test_liouvillian_matches_the_three_term_kron_formula(n_collapse, hermitian):
    """-i(H x I - I x H^T) + sum_c [c x c* - (c^dag c x I + I x (c^dag c)^T)/2], term by term."""
    d = 5
    rng = np.random.default_rng(10 * n_collapse + hermitian)

    def gaussian():
        return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))

    h = gaussian()
    if hermitian:
        h = (h + h.conj().T) / 2
    cs = [gaussian() for _ in range(n_collapse)]
    eye = np.eye(d)
    expected = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in cs:
        cdc = c.conj().T @ c
        expected = expected + np.kron(c, c.conj()) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    got = liouvillian(h, cs)
    assert isinstance(got, csr_matrix)
    assert np.abs(got.toarray() - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("noisy", [True, False])
@pytest.mark.parametrize("config", [HilbertConfig(2, (6,)), HilbertConfig(2, (4, 3))])
def test_liouvillian_is_canonical_csr_with_the_kron_sum_pattern(params, config, noisy):
    """Sorted indices, no duplicates, no explicit zeros, and the pattern (and values) of the
    kron sum.

    Without noise the commutator's diagonal cancels exactly: those zeros are dropped.
    """
    noise = NoiseModel.from_params(params, params.delta("ramsey")) if noisy else NoiseModel()
    h = full_jc_hamiltonian(params, config, params.delta("ramsey")).matrix
    cs = collapse_operators(config, noise)
    got = liouvillian(h, cs)
    rows = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
    assert np.all((np.diff(got.indices) > 0) | (np.diff(rows) > 0))
    assert np.all(got.data != 0)
    eye = identity(config.dim, format="csr")
    half_c = 0.5 * sum((csr_matrix(c).conj().T @ csr_matrix(c) for c in cs),
                       csr_matrix((config.dim, config.dim)))
    ref = kron(-1j * csr_matrix(h) - half_c, eye) + kron(eye, (1j * csr_matrix(h) - half_c).T)
    for c in cs:
        ref = ref + kron(csr_matrix(c), csr_matrix(c).conj())
    ref = ref.tocsr()
    ref.sort_indices()
    assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


@pytest.mark.parametrize("config", [HilbertConfig(2, (5,)), HilbertConfig(2, (4, 3))])
def test_pair_rotation_is_the_reduced_diagonal_liouvillian(config):
    """A diagonal H seen from frames f is the pair rotation alone (no sparse part): each state
    is exp(S^dag L(H - 2 pi f K) S t) u, taken through the Liouvillian."""
    t = 0.37e-6
    d = config.dim
    rng = np.random.default_rng(11)
    h = np.diag(TWO_PI * rng.normal(scale=3e6, size=d))
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = DensityMatrix(config, m @ m.conj().T / np.trace(m @ m.conj().T))
    frames = np.array([-2e6, 0.0, 0.5e6])
    s, s_h = _hermitian_basis(d)
    u = (s_h @ rho.matrix.reshape(-1)).real
    got = _frame_states(rho, h, (), t, frames)
    for f, state in zip(frames, got):
        g = _hermitian_generator(liouvillian(h - TWO_PI * f * np.diag(_frame_charge(config)), ())
                                 * t).toarray()
        expected = (s @ (expm(g) @ u)).reshape(d, d)
        assert np.abs(state - expected).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_static_segments(), st.integers(0, 2**32 - 1))
@example((HilbertConfig(2, (6,)), _PAPER_NOISE, Segment(2e-6, _REST)), 0)
@example((HilbertConfig(2, (3, 3)), _PAPER_NOISE, Segment(2e-6, _REST)), 1)
def test_segment_adjoint_is_the_dual_of_the_dense_segment(drawn, seed):
    """The Heisenberg step of an undriven segment against scipy's expm: vec(B^T) = P^T vec(op^T)
    for the dense Liouvillian exponential P (U^dag op U without noise), on an operator with
    entries of every coherence order and on one of a single order; the step of a CPTP map is
    unital and keeps Hermiticity and positivity."""
    config, noise, seg = drawn
    params = paper_default_params()
    h = full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset).matrix
    cs = collapse_operators(config, noise)
    d = config.dim
    if cs:
        dense = expm(liouvillian(h, cs).toarray() * seg.duration)

        def expected(op):
            return (dense.T @ op.T.reshape(-1)).reshape(d, d).T
    else:
        u = expm(-1j * h * seg.duration)

        def expected(op):
            return u.conj().T @ op @ u
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    n = _excitation_number(config)
    single = np.where(np.subtract.outer(n, n) == rng.integers(-1, 2), m, 0.0)
    for op in (m, single, m @ m.conj().T):
        got = dynamics._segment_adjoint(op, seg, params, config, noise)
        assert np.abs(got - expected(op)).max() <= 1e-12 * np.abs(expected(op)).max()
    assert np.abs(dynamics._segment_adjoint(np.eye(d), seg, params, config, noise)
                  - np.eye(d)).max() < 1e-10
    back = dynamics._segment_adjoint(m @ m.conj().T, seg, params, config, noise)
    assert np.abs(back - back.conj().T).max() < 1e-12 * np.abs(back).max()
    assert np.linalg.eigvalsh(back).min() >= -1e-10 * np.abs(back).max()


def test_generator_that_breaks_hermiticity_is_refused():
    """A non-Hermitian H gives a generator that is not real in the Hermitian basis."""
    rng = np.random.default_rng(3)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    with pytest.raises(NumericError, match="Hermiticity"):
        _hermitian_generator(liouvillian(m, []) * 0.1)


def _random_sweep(seed, d=4):
    """(H0, H1, cs, u, w): a random d-level H0 + f H1 with two jump operators, u a random
    state and w a random observable in the Hermitian basis.

    H1 is diagonal, as every frame change is.  H0 and H1 set the imaginary
    spread (a radius near 100), and the jump operators a real spread that
    takes 5 to 7 substeps.
    """
    rng = np.random.default_rng(seed)

    def gaussian(scale):
        return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    h0, h1, obs = ((m + m.conj().T) / 2 for m in (gaussian(10.0), gaussian(5.0), gaussian(1.0)))
    h1 = np.diag(h1.diagonal())
    rho = gaussian(1.0) @ gaussian(1.0).conj().T
    cs = [gaussian(0.4), gaussian(0.4)]
    s, s_h = _hermitian_basis(d)
    u = (s_h @ (rho / np.trace(rho)).reshape(-1)).real
    w = (s.T @ obs.T.reshape(-1)).real
    return h0, h1, cs, u, w


def _sweep_inputs(h0, h1, cs, freqs, u):
    """(gen, radius, u block, turn) of the sweep of H0 + f H1 over ``freqs``: the couplings
    and the jumps as the sparse part, everything diagonal as the pair rotation."""
    d = h0.shape[0]
    i, j = np.triu_indices(d, k=1)
    hd, kd = h0.diagonal().real, h1.diagonal().real
    turn = (hd[i] - hd[j])[:, None] + np.outer(kd[i] - kd[j], freqs)
    gen = _hermitian_generator(liouvillian(h0 - np.diag(hd), cs))
    radius = _radius([h0 + f * h1 for f in (freqs.min(), freqs.max())], cs)
    return gen, radius, np.repeat(u[:, None], freqs.size, axis=1), turn


@pytest.mark.parametrize("seed, decay", [(0, 0.0), (1, 0.0), (2, 0.0), (0, 100.0)])
def test_sweep_action_matches_dense_expm(seed, decay):
    """The Chebyshev sweep against expm at every grid frequency, over several substeps.

    A uniform ``decay`` moves the spectrum far off the imaginary axis; it
    commutes with the rest, so the expected values are exp(-decay) times.
    """
    h0, h1, cs, u, w = _random_sweep(seed)
    freqs = np.linspace(-2.0, 3.0, 7)
    gen, radius, block, turn = _sweep_inputs(h0, h1, cs, freqs, u)
    assert _sweep_plan(gen, radius, turn)[3] > 1 and radius > 50
    expected = np.array([w @ expm(_hermitian_generator(liouvillian(h0 + f * h1, cs)).toarray())
                         @ u for f in freqs])
    expected *= math.exp(-decay)
    plan = _sweep_plan((gen - decay * identity(gen.shape[0])).tocsr(), radius, turn)
    got = w @ _sweep_action(plan, block)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


@st.composite
def _lindblad_models(draw):
    """(config, H, collapse ops, t, frames, entries): a random Hermitian H, up to three random
    collapse operators of which some are Hermitian, a grid of one to four frames of either
    sign, and a random nonempty set of the d^2 entries of vec(rho)."""
    config = draw(st.sampled_from([HilbertConfig(2, (2,)), HilbertConfig(2, (4,)),
                                   HilbertConfig(2, (3,)), HilbertConfig(2, (2, 2))]))
    d = config.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def gaussian(scale):
        return scale * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    h = gaussian(draw(st.floats(0.1, 10.0)))
    cs = []
    for hermitian in draw(st.lists(st.booleans(), max_size=3)):
        c = gaussian(draw(st.floats(0.05, 2.0)))
        cs.append((c + c.conj().T) / 2 if hermitian else c)
    frames = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)))
    entries = np.flatnonzero(rng.random(d * d) < draw(st.floats(0.1, 1.0)))
    return config, (h + h.conj().T) / 2, cs, draw(st.floats(0.05, 2.0)), frames, entries


def _asym_norm(g: np.ndarray) -> float:
    return float(np.linalg.norm((g - g.conj().T) / 2, 2))


@settings(max_examples=60, deadline=None)
@given(_lindblad_models())
def test_radius_bounds_the_anti_hermitian_part_in_every_frame(model):
    """The radius ``_frame_states`` hands the sweep is no less than the dense norm of the
    anti-Hermitian part of the reduced Lindbladian of H - 2 pi f K at every grid frame, and
    the readout's radius no less than that of L^T t restricted to any set of entries."""
    config, h, cs, t, frames, entries = model
    d = config.dim
    radii, sweep_plan = [], dynamics._sweep_plan

    def recorded_plan(gen, radius, turn=None):
        radii.append(radius)
        return sweep_plan(gen, radius, turn)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_sweep_plan", recorded_plan)
        _frame_states(DensityMatrix(config, np.eye(d) / d), h, cs, t, frames)
    [radius] = radii
    k = np.diag(_frame_charge(config))
    for f in frames:
        g = _hermitian_generator(liouvillian(h - TWO_PI * f * k, cs) * t).toarray()
        assert _asym_norm(g) <= radius * (1.0 + 1e-12)
    if entries.size:
        restricted = (liouvillian(h, cs) * t)[entries][:, entries].T.toarray()
        assert _asym_norm(restricted) <= t * _radius([h], cs) * (1.0 + 1e-12)


def _allocating_sweep(gen, radius, u, turn):
    """The recurrence of ``_sweep_action`` as plain expressions, each term a new array."""
    a, w, coef, p, c = _sweep_plan(gen, radius, turn)
    n = w.shape[0]

    def twice_y(s, prev):  # prev + 2 Y s
        out = prev.copy()
        dynamics.csr_matvecs(*a.shape, s.shape[1], a.indptr, a.indices, a.data, s.ravel(),
                             out.ravel())
        out[-2 * n:-n] += w * s[-n:]
        out[-n:] -= w * s[-2 * n:-n]
        return out

    v = u
    for _ in range(p):
        prev, cur = v, 0.5 * twice_y(v, np.zeros_like(v))
        v = coef[0] * prev + coef[1] * cur
        for ck in coef[2:]:
            prev, cur = cur, twice_y(cur, prev)
            v = v + ck * cur
        v = v * math.exp(c)
    return v


@pytest.mark.parametrize("freqs", [np.array([0.7]), np.linspace(-2.0, 3.0, 7),
                                   np.linspace(-2.0, 3.0, 40)])
@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_action_in_place_is_the_allocating_recurrence(seed, freqs):
    """Terms written over their predecessors give the same bits as fresh arrays, over
    several substeps, and the start block is left as it was."""
    h0, h1, cs, u, _ = _random_sweep(seed)
    gen, radius, block, turn = _sweep_inputs(h0, h1, cs, freqs, u)
    assert _sweep_plan(gen, radius, turn)[3] > 1
    block0 = block.copy()
    assert np.array_equal(_sweep_action(_sweep_plan(gen, radius, turn), block),
                          _allocating_sweep(gen, radius, block, turn))
    assert np.array_equal(block, block0)


@pytest.mark.parametrize("scale", [np.nan, np.inf, 1e7])
def test_sweep_action_refuses_before_any_work(monkeypatch, scale):
    """A generator that is not finite, or needs more than 2^20 products, is a NumericError,
    raised before any Bessel coefficient is computed."""
    h0, h1, cs, u, _ = _random_sweep(0)
    gen, radius, block, turn = _sweep_inputs(h0, h1, cs, np.linspace(-2.0, 3.0, 7), u)

    def no_work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(dynamics, "_bessel_j", no_work)
    with pytest.raises(NumericError, match="matrix-vector products"):
        _sweep_action(_sweep_plan(gen * scale, radius * scale, turn), block)


@pytest.mark.parametrize("where", ["everywhere", "diagonal"])
def test_density_action_refuses_a_nan_hamiltonian_before_any_work(monkeypatch, where):
    """A NaN H is a NumericError before any Bessel coefficient is computed, also when only a
    diagonal entry is NaN, which the pair rotation alone would carry."""
    h0, _, cs, _, _ = _random_sweep(0)
    if where == "everywhere":
        h0[:] = np.nan
    else:
        h0[1, 1] = np.nan

    def no_work(*args):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(dynamics, "_bessel_j", no_work)
    rho = DensityMatrix(HilbertConfig(2, (2,)), np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(NumericError, match="matrix-vector products"):
        _frame_states(rho, h0, cs, 1.0, np.array([0.0, 1e3]))


def test_cached_propagator_follows_every_input(params):
    """A warm cache gives what a cold one does, whichever segment input changes."""
    config = HilbertConfig(2, (5, 3))
    delta = params.delta("ramsey")
    noise = NoiseModel.from_params(params, delta)
    seg = Segment(duration=0.3e-6, detuning=delta)
    rng = np.random.default_rng(5)
    v = rng.normal(size=config.dim) + 1j * rng.normal(size=config.dim)
    psi = Ket(config, v / np.linalg.norm(v))
    variants = [
        (params, noise, seg),
        (replace(params, g_lg10=200e3), noise, seg),
        (params, replace(noise, static_qubit_offset=50e3), seg),
        (params, replace(noise, phonon_kappa1=4 * noise.phonon_kappa1), seg),
        (params, NoiseModel(), seg),
        (params, noise, replace(seg, detuning=0.0)),
        (params, noise, replace(seg, detuning=0.0, qubit_drive=Pulse(amplitude=0.5e6))),
    ]

    def run(p, n, s):
        out = evolve_segments(psi, [s], p, config, n)
        return out.to_density().matrix if isinstance(out, Ket) else out.matrix

    clear_propagator_cache()
    warm = [run(*v) for v in variants]
    for v, w in zip(variants, warm):
        clear_propagator_cache()
        cold = run(*v)
        assert np.array_equal(w, cold)
        assert np.array_equal(run(*v), cold)
    for a, b in combinations(warm, 2):
        assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# the numpy kernels against scipy's


@pytest.mark.parametrize("r", [1.0, 1.7, 9.5, 25.0, 140.0, 333.3, 600.0, 900.0])
def test_bessel_j_matches_scipy(r):
    """J_0..J_{n-1}(r) at the length ``_sweep_plan`` takes, n = 1.5 r + 50: within 3e-14
    absolute of scipy's jv up to r = 900 (1.9e-14 measured there), 1e-15 up to r = 25."""
    n = int(1.5 * r) + 50
    err = np.abs(_bessel_j(n, r) - jv(np.arange(n), r)).max()
    assert err <= (1e-15 if r <= 25 else 3e-14)


@pytest.mark.parametrize("half", [0.0, 0.4, 3.0])
@pytest.mark.parametrize("radius", [1.0, 12.0, 250.0, 900.0])
def test_sweep_plan_truncates_the_bessel_series_as_with_scipy(monkeypatch, radius, half):
    """The coefficients of one substep keep the same number of terms as with scipy's jv, and
    agree with them.  gen = diag(-2 half, 0) has the Gershgorin interval [-2 half, 0], so the
    plan takes p = max(ceil(half / 1.5), 1) and r = max(radius / p, 1)."""
    gen = csr_matrix(np.diag([-2.0 * half, 0.0]))
    _, _, coef, p, _ = _sweep_plan(gen, radius, None)
    monkeypatch.setattr(dynamics, "_bessel_j", lambda n, r: jv(np.arange(n), r))
    _, _, ref, p_ref, _ = _sweep_plan(gen, radius, None)
    assert p == p_ref == max(math.ceil(half / 1.5), 1) and coef.size == ref.size
    assert np.abs(coef - ref).max() <= 6e-14


def test_cache_total_evicts_as_resumming_does():
    """A running element total evicts the same keys, in the same order, as re-summing every
    entry on each put: over a sequence with a re-put of a live key (larger, then smaller) and
    an entry larger than the whole budget, which stays alone."""
    def resummed(budget, puts):
        data, states = {}, []
        for key, size in puts:
            data.pop(key, None)
            data[key] = size
            while sum(data.values()) > budget and len(data) > 1:
                del data[next(iter(data))]
            states.append(list(data.items()))
        return states

    puts = [("a", 30), ("b", 30), ("c", 30), ("a", 50), ("d", 10), ("c", 5), ("e", 250),
            ("f", 40), ("g", 60), ("f", 1), ("h", 20), ("h", 99)]
    cache = _PropagatorCache(max_elements=100)
    for (key, size), expected in zip(puts, resummed(100, puts)):
        cache.put(key, np.zeros(size))
        assert [(k, v.size) for k, v in cache._data.items()] == expected
        assert cache._total == sum(size for _, size in expected)
    cache.clear()
    assert cache._total == 0 and not cache._data
