import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cqadsim.exceptions import TruncationError, ValidationError
from cqadsim.hilbert import (
    DensityMatrix,
    HilbertConfig,
    Ket,
    annihilation,
    coherent_state,
    displacement_operator,
    expectation,
    fock_state,
    number_operator,
    parity_operator,
    qubit_operator,
    reduced_mode_matrix,
)


def test_config_validation():
    with pytest.raises(ValidationError):
        HilbertConfig(4, (3,))
    with pytest.raises(ValidationError):
        HilbertConfig(2, (1,))
    with pytest.raises(ValidationError):
        HilbertConfig(2, ())
    with pytest.raises(ValidationError):
        HilbertConfig(3, (5, 4))  # the qubit has two levels
    # a dim must be a whole number, not floored or kept as a float
    for bad in [(2, (2.7,)), (2.0, (3,)), (2, (3.0,)), (2, 5), (2, ("3",))]:
        with pytest.raises(ValidationError):
            HilbertConfig(*bad)
    cfg = HilbertConfig(np.int64(2), (5, np.int64(4)))
    assert cfg.dim == 2 * 5 * 4
    assert cfg == HilbertConfig(2, (5, 4))
    assert all(type(d) is int for d in cfg.dims)


def test_annihilation_matrix_element():
    cfg = HilbertConfig(2, (3,))
    a = annihilation(cfg, 0).matrix
    assert a[cfg.index(0, [1]), cfg.index(0, [2])] == pytest.approx(math.sqrt(2))


def test_annihilation_kills_vacuum():
    cfg = HilbertConfig(2, (4,))
    a = annihilation(cfg)
    out = a @ fock_state(cfg, [0], 0)
    assert np.abs(out.amplitudes).max() == 0.0


def test_commutator_truncation_structure():
    # direct matrix product oracle at dim 4
    cfg = HilbertConfig(2, (4,))
    a = annihilation(cfg).matrix
    comm = a @ a.conj().T - a.conj().T @ a
    diag = np.real(np.diag(comm)).reshape(2, 4)
    for q in range(2):
        assert np.allclose(diag[q][:3], 1.0)
        assert diag[q][3] == pytest.approx(-(4 - 1))
    assert np.abs(comm - np.diag(np.diag(comm))).max() < 1e-14


def test_annihilation_mode_index_out_of_range():
    cfg = HilbertConfig(2, (4,))
    with pytest.raises(ValidationError):
        annihilation(cfg, 1)


def test_qubit_operators():
    cfg = HilbertConfig(2, (3,))
    sp = qubit_operator(cfg, "sigma_plus")
    out = sp @ fock_state(cfg, [0], 0)
    target = fock_state(cfg, [0], 1)
    assert np.allclose(out.amplitudes, target.amplitudes)
    sz = qubit_operator(cfg, "sigma_z")
    g = fock_state(cfg, [0], 0)
    assert expectation(g, sz).real == pytest.approx(-1.0)
    e = fock_state(cfg, [0], 1)
    assert expectation(e, sz).real == pytest.approx(+1.0)
    sx = qubit_operator(cfg, "sigma_x")
    sm = qubit_operator(cfg, "sigma_minus")
    assert np.allclose(sx.matrix, sp.matrix + sm.matrix)
    with pytest.raises(ValidationError):
        qubit_operator(cfg, "sigma_q")


def test_fock_state_indexing():
    cfg = HilbertConfig(2, (5,))
    k = fock_state(cfg, [2], 1)
    idx = np.flatnonzero(k.amplitudes)
    assert idx.tolist() == [1 * 5 + 2]
    assert k.norm() == pytest.approx(1.0)
    with pytest.raises(TruncationError):
        fock_state(cfg, [5], 0)


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=1))
def test_fock_state_norm_property(n, q):
    cfg = HilbertConfig(2, (6,))
    assert fock_state(cfg, [n], q).norm() == pytest.approx(1.0)


def test_coherent_state_vacuum_and_mean():
    cfg = HilbertConfig(2, (20,))
    vac = coherent_state(cfg, 0, 0.0)
    assert np.allclose(vac.amplitudes, fock_state(cfg, [0], 0).amplitudes)
    k = coherent_state(cfg, 0, 1.0)
    nbar = expectation(k, number_operator(cfg)).real
    assert nbar == pytest.approx(1.0, abs=1e-6)
    # |c_1/c_0| = |beta|
    amps = k.amplitudes.reshape(2, 20)[0]
    assert abs(amps[1] / amps[0]) == pytest.approx(1.0, abs=1e-9)


def test_coherent_truncation_requirement():
    # |beta| = 1.9 needs dim >= 16 for <n> error below 1e-4
    from cqadsim.hilbert import coherent_amplitudes

    beta = 1.9
    cfg = HilbertConfig(2, (16,))
    k = coherent_state(cfg, 0, beta)
    err16 = abs(expectation(k, number_operator(cfg)).real - beta**2)
    assert err16 < 1e-4
    # below the guard threshold the truncated series is visibly off
    c14 = coherent_amplitudes(14, beta)
    err14 = abs(np.sum(np.arange(14) * np.abs(c14) ** 2) - beta**2)
    assert err14 > 1e-4


def test_coherent_truncation_guard():
    cfg = HilbertConfig(2, (8,))
    with pytest.raises(TruncationError, match="dim"):
        coherent_state(cfg, 0, 2.5)


@pytest.mark.parametrize("beta", [complex(math.nan, 0.0), complex(0.5, math.nan)])
def test_coherent_truncation_guard_refuses_a_nan_amplitude(beta):
    with pytest.raises(TruncationError, match="nan"):
        coherent_state(HilbertConfig(2, (8,)), 0, beta)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ket_refuses_a_non_finite_vector_as_normalized(bad):
    cfg = HilbertConfig(2, (3,))
    with pytest.raises(ValidationError, match="norm"):
        Ket(cfg, np.full(cfg.dim, bad, dtype=complex))
    v = np.zeros(cfg.dim, dtype=complex)
    v[0], v[1] = 1.0, bad
    with pytest.raises(ValidationError, match="norm"):
        Ket(cfg, v)


def test_displacement_identity_and_series():
    cfg = HilbertConfig(2, (20,))
    d0 = displacement_operator(cfg, 0, 0.0)
    assert np.allclose(d0.matrix, np.eye(cfg.dim))
    for beta in (0.7, 1.3 + 0.4j, -1.5j):
        d = displacement_operator(cfg, 0, beta)
        out = d @ fock_state(cfg, [0], 0)
        series = coherent_state(cfg, 0, beta)
        assert np.abs(out.amplitudes - series.amplitudes).max() < 1e-7
    # |beta| = 2 needs extra truncation headroom for the 1e-7 agreement
    cfg28 = HilbertConfig(2, (28,))
    out = displacement_operator(cfg28, 0, -2.0j) @ fock_state(cfg28, [0], 0)
    series = coherent_state(cfg28, 0, -2.0j)
    assert np.abs(out.amplitudes - series.amplitudes).max() < 1e-7


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.complex_numbers(max_magnitude=1.5))
def test_displacement_matches_expm_of_the_truncated_generator(mode, beta):
    """The eigenbasis form equals expm(beta a^dag - beta* a) of the truncated ladder, per mode."""
    cfg = HilbertConfig(2, (12, 9))
    a = annihilation(cfg, mode).matrix
    expected = expm(beta * a.conj().T - np.conj(beta) * a)
    assert np.abs(displacement_operator(cfg, mode, beta).matrix - expected).max() <= 1e-13


def test_displacement_inverse():
    cfg = HilbertConfig(2, (20,))
    beta = 1.1 - 0.3j
    d = displacement_operator(cfg, 0, beta).matrix
    dinv = displacement_operator(cfg, 0, -beta).matrix
    prod = d @ dinv
    block = prod[:10, :10]
    assert np.abs(block - np.eye(10)).max() < 1e-7


def test_parity_values():
    cfg = HilbertConfig(2, (20,))
    par = parity_operator(cfg)
    assert expectation(fock_state(cfg, [0], 0), par).real == pytest.approx(1.0)
    assert expectation(fock_state(cfg, [1], 0), par).real == pytest.approx(-1.0)
    k = coherent_state(cfg, 0, 1.0)
    assert expectation(k, par).real == pytest.approx(math.exp(-2.0), abs=1e-5)


def test_parity_conjugates_annihilation():
    cfg = HilbertConfig(2, (12,))
    par = parity_operator(cfg).matrix
    a = annihilation(cfg).matrix
    assert np.abs(par @ a @ par + a).max() < 1e-14


def test_reduced_mode_matrix_of_a_two_mode_product_state():
    # rho = rho_q (x) rho_1 (x) rho_2: each mode's reduction is its own factor
    cfg = HilbertConfig(2, (3, 2))
    rho_q = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    rho_1 = np.array([[0.5, 0.1j, 0.05], [-0.1j, 0.3, 0.0], [0.05, 0.0, 0.2]])
    rho_2 = np.array([[0.6, 0.25 + 0.05j], [0.25 - 0.05j, 0.4]])
    rho = DensityMatrix(cfg, np.kron(np.kron(rho_q, rho_1), rho_2))
    assert np.abs(reduced_mode_matrix(rho, 0) - rho_1).max() < 1e-15
    assert np.abs(reduced_mode_matrix(rho, 1) - rho_2).max() < 1e-15
    with pytest.raises(ValidationError):
        reduced_mode_matrix(rho, 2)


def test_expectation_real_for_hermitian():
    cfg = HilbertConfig(2, (6,))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(cfg.dim) + 1j * rng.standard_normal(cfg.dim)
    k = Ket(cfg, v / np.linalg.norm(v))
    n = number_operator(cfg)
    assert abs(expectation(k, n).imag) < 1e-10


def test_density_matrix_validate():
    cfg = HilbertConfig(2, (2,))
    good = fock_state(cfg, [0], 0).to_density()
    good.validate()
    bad = DensityMatrix(cfg, good.matrix * 1.5)
    with pytest.raises(Exception):
        bad.validate()


@settings(max_examples=25)
@given(st.complex_numbers(max_magnitude=1.5))
def test_displacement_unitary_property(beta):
    cfg = HilbertConfig(2, (18,))
    d = displacement_operator(cfg, 0, beta).matrix
    assert np.abs(d @ d.conj().T - np.eye(cfg.dim)).max() < 1e-8
