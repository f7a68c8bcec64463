import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqadsim.device import (
    TWO_PI,
    chi_analytic,
    delta_prime,
    dispersive_hamiltonian,
    full_jc_hamiltonian,
    load_params,
    paper_default_params,
    purcell_rate,
)
from cqadsim.exceptions import DispersiveRegimeError, ValidationError
from cqadsim.hilbert import HilbertConfig, annihilation, number_operator, qubit_operator


@pytest.fixture(scope="module")
def params():
    return paper_default_params()


def test_defaults_match_measured_values(params):
    assert params.g_lg00 == pytest.approx(259.5e3)
    assert params.g_lg10 == pytest.approx(91.3e3)
    assert params.delta("rest") == pytest.approx(-4.1e6)
    assert params.delta("coherent") == pytest.approx(-1.2e6)
    assert params.delta("fock") == pytest.approx(-0.8e6)
    assert params.delta("ramsey") == pytest.approx(-1.9e6)
    assert params.gamma2_star["rest"] == pytest.approx(15.1e3)
    assert params.kappa1["rest"] == pytest.approx(2.0e3)
    assert params.kappa2_star["rest"] == pytest.approx(1.2e3)
    assert params.alpha == pytest.approx(214e6)
    assert params.fsr == pytest.approx(12e6)
    assert params.omega_m_lg00 == pytest.approx(5.9741e9)
    assert params.omega_m_lg10 == pytest.approx(5.9752e9)


def test_rate_lookup_nearest_neighbor(params):
    assert params.rate_at("gamma1", -4.0e6) == pytest.approx(15.6e3)
    assert params.rate_at("gamma1", -1.0e6) == pytest.approx(12.1e3)
    assert params.rate_at("kappa1", -1.9e6) == pytest.approx(2.6e3)


def test_chi_analytic_values(params):
    g, alpha = params.g_lg00, params.alpha
    assert chi_analytic(g, -1.9e6, alpha, "full") == pytest.approx(-70.26e3, abs=50.0)
    assert chi_analytic(g, -1.9e6, alpha, "approximate") == pytest.approx(-70.88e3, abs=50.0)
    assert chi_analytic(g, -0.8e6, alpha, "full") == pytest.approx(-167.7e3, abs=100.0)
    assert chi_analytic(0.0, -1.9e6, alpha, "full") == 0.0
    with pytest.raises(ValidationError):
        chi_analytic(g, 0.0, alpha)
    with pytest.raises(ValidationError):
        chi_analytic(g, alpha, alpha)


def test_chi_forms_converge_at_large_alpha(params):
    g = params.g_lg00
    delta = -1.9e6
    alpha = abs(delta) * 1e3
    ratio = chi_analytic(g, delta, alpha, "full") / chi_analytic(g, delta, alpha, "approximate")
    assert abs(ratio - 1.0) < 0.002


def test_delta_prime(params):
    g = params.g_lg00
    assert delta_prime(0.0, -1.9e6) == pytest.approx(-1.9e6)
    assert delta_prime(g, -1.9e6) == pytest.approx(-1.9354e6, abs=100.0)
    assert math.copysign(1, delta_prime(g, -1.9e6)) == math.copysign(1, -1.9e6)
    with pytest.raises(ValidationError):
        delta_prime(g, 0.0)


def test_purcell_rate(params):
    total = purcell_rate(params, params.delta("coherent"))
    assert total == pytest.approx(2.73e3, abs=20.0)
    assert abs(total - 3.2e3) < 0.5e3  # within band of the reported combined rate
    zero_g = purcell_rate(params, 50e6)
    assert zero_g == pytest.approx(params.kappa1["rest"], rel=1e-3)
    rates = [purcell_rate(params, d) for d in (-0.8e6, -1.2e6, -1.9e6, -4.1e6)]
    assert all(rates[i] > rates[i + 1] for i in range(len(rates) - 1))


def test_full_jc_doublet_splitting(params):
    cfg = HilbertConfig(2, (3,))
    h = full_jc_hamiltonian(params, cfg, 0.0, frame="qubit_rotating")
    evals = np.linalg.eigvalsh(h.matrix) / TWO_PI
    # n=1 manifold at resonance: dressed pair at +-g, splitting 2g = 519 kHz
    assert min(abs(v - params.g_lg00) for v in evals) < 1.0
    assert min(abs(v + params.g_lg00) for v in evals) < 1.0


def test_full_jc_detuned_doublet(params):
    cfg = HilbertConfig(2, (2,))
    delta = -0.9e6
    h = full_jc_hamiltonian(params, cfg, delta, frame="qubit_rotating")
    evals = np.sort(np.linalg.eigvalsh(h.matrix)) / TWO_PI
    # one-excitation manifold: splitting 2 sqrt(g^2 + (delta/2)^2)
    expected = 2.0 * math.hypot(params.g_lg00, delta / 2.0)
    pair_gaps = [abs(a - b) for i, a in enumerate(evals) for b in evals[i + 1:]]
    assert min(abs(g - expected) for g in pair_gaps) < 1.0


def test_full_jc_zero_coupling_is_diagonal(params):
    from dataclasses import replace

    cfg = HilbertConfig(2, (3,))
    p0 = replace(params, g_lg00=1e-6, g_lg10=1e-6)
    h = full_jc_hamiltonian(p0, cfg, -1e6, frame="phonon_rotating").matrix
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() / np.abs(h).max() < 1e-9


def test_full_jc_hermitian_and_excitation_conserving(params):
    cfg = HilbertConfig(2, (4, 3))
    h = full_jc_hamiltonian(params, cfg, -2e6, frame="phonon_rotating")
    assert h.hermiticity_defect() < 1e-12
    n_exc = (
        0.5 * (qubit_operator(cfg, "sigma_z").matrix + np.eye(cfg.dim))
        + number_operator(cfg, 0).matrix
        + number_operator(cfg, 1).matrix
    )
    comm = h.matrix @ n_exc - n_exc @ h.matrix
    assert np.abs(comm).max() < 1e-9 * np.abs(h.matrix).max()


_JC_CONFIGS = st.one_of(
    st.integers(2, 6).map(lambda n: HilbertConfig(2, (n,))),
    st.integers(2, 5).map(lambda n: HilbertConfig(3, (n,))),
    st.tuples(st.integers(2, 4), st.integers(2, 3)).map(lambda nm: HilbertConfig(2, nm)),
)


@settings(max_examples=60, deadline=None)
@given(_JC_CONFIGS, st.floats(-5e6, 5e6),
       st.one_of(st.floats(-1e7, 1e7), st.floats(-6.5e9, 6.5e9)))
def test_jc_frame_subtracts_excitation_number(cfg, delta, f):
    # every frame is the phonon-frame H minus 2 pi f (sigma_z/2 + sum_k n_k)
    params = paper_default_params()
    h_phonon = full_jc_hamiltonian(params, cfg, delta, frame="phonon_rotating").matrix
    n_exc = 0.5 * qubit_operator(cfg, "sigma_z").matrix + sum(
        number_operator(cfg, k).matrix for k in range(cfg.n_modes)
    )
    expected = h_phonon - TWO_PI * f * n_exc
    h = full_jc_hamiltonian(params, cfg, delta, frame=f).matrix
    assert np.abs(h - expected).max() <= 1e-12 * np.abs(expected).max()
    named = {"phonon_rotating": 0.0, "qubit_rotating": delta, "lab": -params.omega_m_lg00}
    for name, value in named.items():
        assert np.array_equal(full_jc_hamiltonian(params, cfg, delta, frame=name).matrix,
                              full_jc_hamiltonian(params, cfg, delta, frame=value).matrix)


def test_jc_unknown_frame_name(params):
    with pytest.raises(ValidationError, match="frame"):
        full_jc_hamiltonian(params, HilbertConfig(2, (3,)), -1e6, frame="probe")


def test_dispersive_hamiltonian_structure(params):
    cfg = HilbertConfig(2, (4,))
    delta = params.delta("ramsey")
    h = dispersive_hamiltonian(params, cfg, delta, frame="lab").matrix / TWO_PI
    assert np.abs(h - np.diag(np.diag(h))).max() < 1e-6
    d = np.real(np.diag(h)).reshape(2, 4)
    chi = chi_analytic(params.g_lg00, delta, params.alpha, "full")
    # e/g splitting grows by chi per phonon
    split = d[1] - d[0]
    assert split[1] - split[0] == pytest.approx(chi, rel=1e-9)
    # n = 0 sector: splitting equals the operating qubit frequency exactly
    assert split[0] == pytest.approx(params.omega_m_lg00 + delta, rel=1e-12)


def test_dispersive_guard(params):
    cfg = HilbertConfig(2, (3,))
    with pytest.raises(DispersiveRegimeError):
        dispersive_hamiltonian(params, cfg, -0.5e6)


def test_dispersive_vs_exact_diagonalization(params):
    # dressed-energy differences match the dispersive shift within 5%
    # for n <= 3 whenever |g/Delta| <= 0.1
    from cqadsim.swtheory import chi_numeric

    cfg = HilbertConfig(2, (10,))
    delta = -3.5e6  # |g/delta| = 0.074; at 0.096 the n=3 deviation reaches 5.5%
    shifts = chi_numeric(params, cfg, delta, 4)
    chi = chi_analytic(params.g_lg00, delta, params.alpha, "full")
    for s in shifts:
        assert abs(s - chi) / abs(chi) < 0.05


def test_load_params_roundtrip(tmp_path):
    f = tmp_path / "dev.params"
    f.write_text("g_lg00 = 200k\ndelta_ramsey = -2.0M\ngamma1_rest = 10k\n")
    p = load_params(f)
    assert p.g_lg00 == pytest.approx(200e3)
    assert p.delta("ramsey") == pytest.approx(-2.0e6)
    assert p.gamma1["rest"] == pytest.approx(10e3)
    # untouched values keep defaults
    assert p.delta("rest") == pytest.approx(-4.1e6)


def test_load_params_paper_defaults_validation(tmp_path):
    f = tmp_path / "dev.params"
    f.write_text("g_lg00 = 259.5k\n")
    p = load_params(f, paper_defaults=True)
    assert p == paper_default_params()
    f.write_text("g_lg00 = 250k\n")
    with pytest.raises(ValidationError):
        load_params(f, paper_defaults=True)


def test_load_params_rejects_unknown_keys(tmp_path):
    f = tmp_path / "dev.params"
    f.write_text("coupling = 1k\n")
    with pytest.raises(ValidationError):
        load_params(f)


def test_params_invariants():
    from cqadsim.device import SystemParams

    with pytest.raises(ValidationError):
        SystemParams(g_lg00=-1.0)
    with pytest.raises(ValidationError):
        SystemParams(g_lg00=13e6)  # exceeds FSR
    with pytest.raises(ValidationError):
        SystemParams(gamma1={"rest": -1.0})


_PARAM_SCALARS = ("omega_q", "omega_m_lg00", "omega_m_lg10", "g_lg00", "g_lg10",
                  "alpha", "fsr", "e_c", "e_j")
_PARAM_TABLES = ("gamma1", "gamma2_star", "gamma2_echo", "kappa1", "kappa2_star",
                 "operating_points")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_params_hash_follows_every_field(data):
    from dataclasses import fields, replace

    from cqadsim.device import SystemParams

    base = paper_default_params()
    # tables rebuilt in reverse insertion order: equal, and so hash-equal
    twin = SystemParams(**{
        f.name: ({k: v for k, v in reversed(getattr(base, f.name).items())}
                 if f.name in _PARAM_TABLES else getattr(base, f.name))
        for f in fields(base)
    })
    assert twin == base and hash(twin) == hash(base)
    factor = data.draw(st.floats(0.5, 2.0).filter(lambda x: x != 1.0), label="factor")
    name = data.draw(st.sampled_from(_PARAM_SCALARS + _PARAM_TABLES), label="field")
    if name in _PARAM_SCALARS:
        change = {name: getattr(base, name) * factor}
    else:
        table = dict(getattr(base, name))
        key = data.draw(st.sampled_from(sorted(table)), label="entry")
        change = {name: {**table, key: table[key] * factor}}
    changed = replace(base, **change)
    assert changed != base
    assert replace(twin, **change) == changed
    assert hash(replace(twin, **change)) == hash(changed)
