import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from cqadsim.device import TWO_PI, full_jc_hamiltonian, paper_default_params
from cqadsim.dynamics import (
    NoiseModel,
    Pulse,
    Schedule,
    Segment,
    clear_propagator_cache,
    collapse_operators,
    displacement_drive,
    evolve_segments,
    ideal_displacement_amplitude,
    lindblad_evolve,
    liouvillian,
    swap_gate,
    vacuum_rabi_chevron,
)
from cqadsim.dynamics import _blocked_expm, _constant_drive_hamiltonian
from cqadsim.exceptions import ValidationError
from cqadsim.hilbert import (
    HilbertConfig,
    Ket,
    OperatorMatrix,
    annihilation,
    expectation,
    fock_state,
    hermitian_propagator,
    qubit_projector,
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
    with pytest.raises(ValidationError):
        Segment(duration=0.0, detuning=0.0)
    with pytest.raises(ValidationError):
        Segment(duration=1e-6, detuning=0.0, ramp="linear", ramp_time=2e-6)
    with pytest.raises(ValidationError):
        Schedule(())
    s = Schedule((Segment(1e-6, 0.0), Segment(2e-6, -1e6)))
    assert s.total_duration == pytest.approx(3e-6)


def test_pulse_validation():
    with pytest.raises(ValidationError):
        Pulse(shape="triangle")
    with pytest.raises(ValidationError):
        Pulse(shape="gaussian", amplitude=1.0)
    g = Pulse(shape="gaussian", amplitude=1.0, sigma=1e-7)
    assert g.envelope(4e-7 + 5e-7, 8e-7) == 0.0  # beyond 4 sigma from midpoint


def test_pure_qubit_decay(params):
    cfg = HilbertConfig(2, (2,))
    gamma1 = 15.6e3
    noise = NoiseModel(qubit_gamma1=gamma1)
    rho0 = fock_state(cfg, [0], 1).to_density()
    h0 = OperatorMatrix(cfg, np.zeros((cfg.dim, cfg.dim)), hermitian=True)
    t1 = 1.0 / (TWO_PI * gamma1)
    traj = lindblad_evolve(rho0, h0, noise, (0.0, t1), t_eval=[0.5 * t1, t1])
    pe = traj.expectations(qubit_projector(cfg, 1))
    assert pe[-1] == pytest.approx(1.0 / math.e, abs=1e-4)
    assert pe[0] == pytest.approx(math.exp(-0.5), abs=1e-4)


def test_noiseless_matches_eigen_propagator(params):
    cfg = HilbertConfig(2, (6,))
    h = full_jc_hamiltonian(params, cfg, -0.7e6, frame="phonon_rotating")
    psi0 = fock_state(cfg, [2], 1).to_density()
    t = 10e-6
    traj = lindblad_evolve(psi0, h, NoiseModel(), (0.0, t), t_eval=[t],
                           rtol=1e-9, atol=1e-12)
    u = hermitian_propagator(h.matrix, t)
    oracle = u @ psi0.matrix @ u.conj().T
    dist = 0.5 * np.abs(np.linalg.eigvalsh(traj.final.matrix - oracle)).sum()
    assert dist < 1e-7


def test_phonon_dephasing_closed_form():
    cfg = HilbertConfig(2, (3,))
    kphi = 5e3
    noise = NoiseModel(phonon_kappa_phi=kphi)
    v = (fock_state(cfg, [0]).amplitudes + fock_state(cfg, [1]).amplitudes) / math.sqrt(2)
    rho0 = Ket(cfg, v).to_density()
    h0 = OperatorMatrix(cfg, np.zeros((cfg.dim, cfg.dim)), hermitian=True)
    t = 20e-6
    traj = lindblad_evolve(rho0, h0, noise, (0.0, t), t_eval=[t])
    od = traj.final.matrix[cfg.index(0, [0]), cfg.index(0, [1])]
    assert abs(od) == pytest.approx(0.5 * math.exp(-TWO_PI * kphi * t), abs=1e-6)


def test_evolved_states_stay_physical(params):
    cfg = HilbertConfig(2, (5,))
    noise = NoiseModel.from_params(params, params.delta("ramsey"))
    h = full_jc_hamiltonian(params, cfg, params.delta("ramsey"), frame="phonon_rotating")
    rho0 = fock_state(cfg, [2], 0).to_density()
    traj = lindblad_evolve(rho0, h, noise, (0.0, 8e-6), t_eval=np.linspace(0, 8e-6, 9))
    for s in traj.states:
        assert abs(s.trace() - 1.0) < 1e-6
        assert np.linalg.eigvalsh(s.matrix).min() > -1e-6


def test_noiseless_purity_preserved(params):
    cfg = HilbertConfig(2, (5,))
    h = full_jc_hamiltonian(params, cfg, -1.1e6, frame="phonon_rotating")
    rho0 = fock_state(cfg, [1], 1).to_density()
    traj = lindblad_evolve(rho0, h, NoiseModel(), (0.0, 6e-6), t_eval=[6e-6])
    assert traj.final.purity() == pytest.approx(1.0, abs=1e-6)


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


def test_vacuum_rabi_lg10_feature(params):
    cfg = HilbertConfig(2, (3, 3))
    deltas = [0.0, params.lg10_offset]
    tg = np.linspace(0.0, 3e-6, 61)
    m = vacuum_rabi_chevron(params, cfg, NoiseModel(), deltas, tg)
    # at the LG-10 offset the qubit exchanges with the second mode
    assert 1.0 - m[1].min() > 0.8
    assert 1.0 - m[0].min() > 0.9


def test_swap_gate_fidelity(params):
    cfg = HilbertConfig(2, (6,))
    sw = swap_gate(params, cfg, NoiseModel())
    assert sw.duration == pytest.approx(1.0 / (4.0 * params.g_lg00))
    out = sw.apply(fock_state(cfg, [0], 1))
    amp = out.amplitudes[cfg.index(0, [1])]
    assert abs(amp) ** 2 > 0.99
    back = sw.apply(out)
    amp2 = back.amplitudes[cfg.index(0, [0]) + cfg.phonon_dims[0]]  # |e,0>
    assert abs(back.amplitudes[cfg.index(1, [0])]) ** 2 > 0.98
    # zero-excitation sector untouched
    vac = sw.apply(fock_state(cfg, [0], 0))
    assert abs(vac.amplitudes[cfg.index(0, [0])]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_displacement_drive_amplitude(params):
    cfg = HilbertConfig(2, (10,))
    amp = 0.25e6
    dd = displacement_drive(params, cfg, NoiseModel(), amplitude=amp, duration=1e-6)
    assert abs(dd.beta_ideal) == pytest.approx(ideal_displacement_amplitude(amp, 1e-6))
    out = dd.apply(fock_state(cfg, [0], 0))
    beta = expectation(out, annihilation(cfg))
    # hybridization with the detuned qubit costs a fraction (g/delta)^2
    assert abs(beta) == pytest.approx(abs(dd.beta_ideal), rel=0.01)


def test_displacement_linearity(params):
    cfg = HilbertConfig(2, (12,))
    amps = np.linspace(0.05e6, 0.45e6, 5)
    betas = []
    for a in amps:
        dd = displacement_drive(params, cfg, NoiseModel(), amplitude=a, duration=1e-6)
        out = dd.apply(fock_state(cfg, [0], 0))
        betas.append(abs(expectation(out, annihilation(cfg))))
    from cqadsim.analysis import calibration_fit

    fit = calibration_fit(amps, betas)
    assert fit.parameters["r_squared"] > 0.999
    # doubling the amplitude doubles |beta| within 2%
    assert betas[-1] / betas[1] == pytest.approx(amps[-1] / amps[1], rel=0.02)


def test_displacement_with_decay_shrinks(params):
    cfg = HilbertConfig(2, (10,))
    noisy = NoiseModel(phonon_kappa1=20e3)
    dd_n = displacement_drive(params, cfg, noisy, amplitude=0.3e6, duration=1e-6)
    dd_0 = displacement_drive(params, cfg, NoiseModel(), amplitude=0.3e6, duration=1e-6)
    rho = dd_n.apply(fock_state(cfg, [0], 0).to_density())
    ket = dd_0.apply(fock_state(cfg, [0], 0))
    b_noisy = abs(np.trace(rho.matrix @ annihilation(cfg).matrix))
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


def test_linear_ramp_runs(params):
    cfg = HilbertConfig(2, (4,))
    k = fock_state(cfg, [1], 0).to_density()
    seg = Segment(duration=2e-6, detuning=-1.9e6, ramp="linear", ramp_time=0.5e-6,
                  ramp_from=-4.1e6)
    noise = NoiseModel.from_params(params, -1.9e6)
    out = evolve_segments(k, [seg], params, cfg, noise)
    assert abs(out.trace() - 1.0) < 1e-6


def test_static_offset_shifts_qubit(params):
    # the offset enters the Hamiltonian: Ramsey fringe phase moves
    cfg = HilbertConfig(2, (2,))
    from cqadsim.sequences import ramsey_parity, fock_preparation, default_ramsey_time

    t0 = default_ramsey_time(params)
    st = fock_preparation(0, "ideal_injection", params, cfg, NoiseModel())
    base = ramsey_parity(st, t0, 0.0, params, cfg, NoiseModel())
    shifted = ramsey_parity(st, t0, 0.0, params, cfg,
                            NoiseModel(static_qubit_offset=10e3))
    assert abs(shifted.value - base.value) > 0.05


# ---------------------------------------------------------------------------
# block-diagonal Liouvillian propagators

_RATES = st.one_of(st.just(0.0), st.floats(min_value=1e2, max_value=1e5))
_CONFIGS = st.one_of(
    st.integers(2, 6).map(lambda n: HilbertConfig(2, (n,))),
    st.integers(2, 5).map(lambda n: HilbertConfig(3, (n,))),
    st.tuples(st.integers(2, 3), st.integers(2, 3)).map(lambda nm: HilbertConfig(2, nm)),
)


@st.composite
def _static_generators(draw):
    """(config, h, collapse ops, duration) of an undriven segment with random noise."""
    config = draw(_CONFIGS)
    noise = NoiseModel(
        qubit_gamma1=draw(_RATES),
        qubit_gamma_phi=draw(_RATES),
        phonon_kappa1=draw(_RATES),
        phonon_kappa_phi=draw(_RATES),
        static_qubit_offset=draw(st.floats(-2e5, 2e5)),
    )
    detuning = draw(st.floats(-3e6, 3e6))
    duration = draw(st.floats(1e-8, 5e-6))
    h = full_jc_hamiltonian(paper_default_params(), config,
                            detuning + noise.static_qubit_offset, frame="phonon_rotating").matrix
    return config, h, collapse_operators(config, noise), duration


@settings(max_examples=40, deadline=None)
@given(_static_generators())
def test_blocked_propagator_matches_dense_expm(gen):
    config, h, cs, duration = gen
    dense = expm(liouvillian(h, cs).toarray() * duration)
    prop = _blocked_expm(liouvillian(h, cs) * duration)
    assert isinstance(prop, csr_matrix)
    err = np.abs(prop.toarray() - dense).max()
    assert err <= 1e-12 * np.abs(dense).max()


@settings(max_examples=25, deadline=None)
@given(_static_generators(), st.integers(0, 2**32 - 1))
def test_blocked_propagator_trace_and_hermiticity(gen, seed):
    config, h, cs, duration = gen
    prop = _blocked_expm(liouvillian(h, cs) * duration)
    vec_eye = np.eye(config.dim).reshape(-1)
    assert np.abs(prop.T @ vec_eye - vec_eye).max() < 1e-10
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(config.dim,) * 2) + 1j * rng.normal(size=(config.dim,) * 2)
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    out = (prop @ rho.reshape(-1)).reshape(config.dim, config.dim)
    assert np.abs(out - out.conj().T).max() < 1e-12
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("drive", ["qubit", "phonon"])
def test_driven_propagator_is_one_dense_block(params, drive):
    config = HilbertConfig(2, (5,))
    delta = params.delta("ramsey")
    if drive == "qubit":
        seg = Segment(duration=0.2e-6, detuning=delta,
                      qubit_drive=Pulse(amplitude=1e6, carrier_detuning=-delta))
    else:
        seg = Segment(duration=0.2e-6, detuning=params.delta("rest"),
                      phonon_drive=Pulse(amplitude=1e6))
    assert not seg.is_time_dependent
    noise = NoiseModel.from_params(params, seg.detuning)
    h = (full_jc_hamiltonian(params, config, seg.detuning + noise.static_qubit_offset,
                             frame="phonon_rotating").matrix
         + _constant_drive_hamiltonian(config, seg))
    cs = collapse_operators(config, noise)
    gen = liouvillian(h, cs) * seg.duration
    n_blocks, _ = connected_components(gen != 0, directed=False)
    assert n_blocks == 1
    prop = _blocked_expm(liouvillian(h, cs) * seg.duration)
    assert type(prop) is np.ndarray
    assert np.array_equal(prop, expm(gen.toarray()))


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
        (params, noise, replace(seg, qubit_drive=Pulse(amplitude=0.5e6, carrier_detuning=-delta))),
    ]
    assert not variants[-1][2].is_time_dependent

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
