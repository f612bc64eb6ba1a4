import math

import numpy as np
import pytest

from entwitness import operators as ops
from entwitness.spaces import (
    LeakageError,
    StateVector,
    basis_state,
    boson,
    embed,
    expectation,
    product_state,
    signature,
)

from conftest import max_phase_free_error


def test_annihilator_action():
    a = ops.annihilator(6)
    out = a @ ops.fock(3, 6)
    assert np.allclose(out, math.sqrt(3) * ops.fock(2, 6))


def test_annihilator_rejects_tiny_dim():
    with pytest.raises(ValueError):
        ops.annihilator(1)


def test_truncated_commutator():
    dim = 7
    a = ops.annihilator(dim)
    comm = a @ ops.creator(dim) - ops.creator(dim) @ a
    expected = np.eye(dim)
    expected[-1, -1] = 1 - dim
    assert np.abs(comm - expected).max() < 1e-12


def test_number_operator_diagonal():
    a = ops.annihilator(5)
    assert np.allclose(ops.creator(5) @ a, np.diag(np.arange(5.0)))


def test_displacement_at_zero_is_identity():
    assert np.abs(ops.displacement(0.0, 16) - np.eye(16)).max() < 1e-12


def test_coherent_state_moments_and_poisson_amplitudes():
    alpha, dim = 1.2, 64
    psi = ops.coherent(alpha, dim)
    n_mean = (np.abs(psi) ** 2 * np.arange(dim)).sum()
    assert abs(n_mean - abs(alpha) ** 2) < 1e-8
    # amplitudes against the exact Poisson formula
    ns = np.arange(dim)
    log_fact = np.cumsum(np.log(np.maximum(ns, 1)))
    expected = np.exp(-abs(alpha) ** 2 / 2 + ns * np.log(alpha) - log_fact / 2)
    assert np.abs(psi - expected).max() < 1e-9


def test_squeezed_vacuum_mean_photon_number():
    r, dim = 0.6, 64
    psi = ops.squeezed_vacuum(r, dim)
    n_mean = (np.abs(psi) ** 2 * np.arange(dim)).sum()
    assert abs(n_mean - math.sinh(r) ** 2) < 1e-6


def test_squeezed_vacuum_even_support():
    psi = ops.squeezed_vacuum(0.5, 32)
    assert np.abs(psi[1::2]).max() < 1e-12


def test_gaussian_unitaries_are_unitary():
    dim = 64
    for u in (
        ops.displacement(1.1 + 0.4j, dim),
        ops.rotation(0.9, dim),
        ops.squeeze(0.5 * np.exp(0.3j), dim),
    ):
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-9


def test_rotation_composition():
    dim = 32
    t1, t2 = 0.7, 1.9
    lhs = ops.rotation(t1, dim) @ ops.rotation(t2, dim)
    assert np.abs(lhs - ops.rotation(t1 + t2, dim)).max() < 1e-9


def low_block_error(lhs, rhs, keep):
    return np.abs((lhs - rhs)[:keep, :keep]).max()


def squeeze_action(a: np.ndarray, z: complex) -> np.ndarray:
    # S^dag a S for S = exp((conj(z) a^2 - z a^dag^2)/2); note the +i*phi phase,
    # which is what this definition actually produces
    rr, phi = abs(z), np.angle(z)
    return a * math.cosh(rr) - a.conj().T * np.exp(1j * phi) * math.sinh(rr)


def test_heisenberg_actions_on_low_subspace():
    dim = 64
    a = ops.annihilator(dim)

    alpha = 1.2 - 0.3j
    d = ops.displacement(alpha, dim)
    assert low_block_error(d.conj().T @ a @ d, a + alpha * np.eye(dim), dim // 2) < 1e-6

    theta = 1.3
    r = ops.rotation(theta, dim)
    assert low_block_error(r.conj().T @ a @ r, np.exp(1j * theta) * a, dim // 2) < 1e-8

    # squeezing spreads |n> over ~ e^{2r} n levels, so the trustworthy block
    # is a small fraction of the truncated space
    z = 0.6 * np.exp(0.8j)
    s = ops.squeeze(z, dim)
    assert low_block_error(s.conj().T @ a @ s, squeeze_action(a, z), dim // 8) < 1e-6


def test_heisenberg_actions_parameter_grid():
    dim = 64
    a = ops.annihilator(dim)
    for alpha in (0.5, 1.2 + 0.9j, 2.0):
        d = ops.displacement(alpha, dim)
        assert low_block_error(d.conj().T @ a @ d, a + alpha * np.eye(dim), 16) < 1e-6
    # block sizes chosen where the relation verifiably holds at 1e-6
    for rr, dim_r in ((0.25, 64), (0.6, 128), (1.0, 256)):
        a_r = ops.annihilator(dim_r)
        for phi in (0.0, 1.1):
            z = rr * np.exp(1j * phi)
            s = ops.squeeze(z, dim_r)
            assert low_block_error(s.conj().T @ a_r @ s, squeeze_action(a_r, z), 16) < 1e-6


def test_displacement_leakage_guard():
    with pytest.raises(LeakageError):
        ops.displacement(3.0, 8)


def test_qubit_ops_algebra():
    q = ops.qubit_ops()
    assert np.allclose(q["plus"] @ q["minus"], q["p_excited"])
    assert np.allclose(q["minus"] @ q["minus"], 0)
    assert np.allclose(q["minus"] @ ops.EXCITED, ops.GROUND)
    assert np.allclose(q["plus"] @ q["minus"] + q["minus"] @ q["plus"], np.eye(2))
    assert np.allclose(sorted(np.linalg.eigvalsh(q["z"])), [-1.0, 1.0])


def test_collective_spin_single_qubit():
    j = ops.collective_spin(1)
    assert np.allclose(j["minus"], ops.qubit_ops()["minus"])


def test_collective_spin_two_qubits():
    j = ops.collective_spin(2)
    ee = np.kron(ops.EXCITED, ops.EXCITED)
    ge = np.kron(ops.GROUND, ops.EXCITED)
    eg = np.kron(ops.EXCITED, ops.GROUND)
    assert np.allclose(j["minus"] @ ee, ge + eg)


def test_collective_spin_raising_norm_counts_atoms():
    n = 4
    j = ops.collective_spin(n)
    ground = np.zeros(2**n, dtype=complex)
    ground[0] = 1.0
    val = ground.conj() @ (j["minus"] @ (j["plus"] @ ground))
    assert val.real == pytest.approx(n)


def test_collective_spin_commutator_identity():
    for n in (1, 2, 3):
        j = ops.collective_spin(n)
        comm = (j["plus"] @ j["minus"] - j["minus"] @ j["plus"]) / 2
        assert np.abs(comm - j["z"]).max() < 1e-12


def test_delta_on_vacuum_is_annihilator():
    sig = signature(boson("a", 8))
    st = basis_state(sig, {"a": 0})
    a = embed(ops.annihilator(8), "a", sig)
    da = ops.delta(a, st)
    assert np.abs(da.matrix - a.matrix).max() < 1e-12


def test_delta_centers_coherent_state():
    sig = signature(boson("a", 48))
    st = StateVector(sig, ops.coherent(0.9, 48))
    a = embed(ops.annihilator(48), "a", sig)
    da = ops.delta(a, st)
    assert abs(expectation(st, da)) < 1e-10
    assert abs(expectation(st, da.dag() @ da)) < 1e-9


def test_thermal_weights():
    rho = ops.thermal(0.0, 10)
    assert np.allclose(rho, np.diag([1.0] + [0.0] * 9))

    nbar, dim = 0.03, 20
    rho = ops.thermal(nbar, dim)
    got = np.real(np.diag(rho) @ np.arange(dim))
    q = nbar / (1 + nbar)
    w = q ** np.arange(dim)
    assert abs(got - (np.arange(dim) * w).sum() / w.sum()) < 1e-15
    assert abs(got - nbar) < 1e-10
    assert abs(np.trace(rho) - 1.0) < 1e-14


def test_two_mode_squeezed_moments_and_schmidt_form():
    r, dim = 0.4, 32
    psi = ops.two_mode_squeezed(r, dim)
    probs = (np.abs(psi.reshape(dim, dim)) ** 2).sum(axis=1)
    n_mean = (probs * np.arange(dim)).sum()
    assert abs(n_mean - math.sinh(r) ** 2) < 1e-7
    # independent oracle: (1/cosh r) sum tanh^n |n,n>
    expected = np.zeros((dim, dim), dtype=complex)
    expected[np.arange(dim), np.arange(dim)] = np.tanh(r) ** np.arange(dim) / np.cosh(r)
    assert np.abs(psi.reshape(dim, dim) - expected).max() < 1e-9


def test_two_mode_squeezed_phase_branch():
    r, dim = 0.3, 24
    psi = ops.two_mode_squeezed(r, dim, phase=np.pi)
    expected = np.zeros((dim, dim), dtype=complex)
    expected[np.arange(dim), np.arange(dim)] = (-np.tanh(r)) ** np.arange(dim) / np.cosh(r)
    assert np.abs(psi.reshape(dim, dim) - expected).max() < 1e-9


def _beamsplitter(w):
    """exp(-i w): the beam splitter from its generator's spectrum."""
    return np.exp(-1j * w)


def test_beamsplitter_identity():
    u = ops.beamsplitter_spectrum(1.0, 0.0, (6, 6)).function_of(_beamsplitter)
    assert np.abs(u - np.eye(36)).max() < 1e-12


def test_beamsplitter_balanced_single_photon():
    sig = signature(boson("a", 4), boson("b", 4))
    t = r = 1 / math.sqrt(2)
    st = basis_state(sig, {"a": 1, "b": 0})
    out = ops.beamsplitter_spectrum(t, r, (4, 4)).apply(_beamsplitter, st.amplitudes)
    expected = (
        basis_state(sig, {"a": 1, "b": 0}).amplitudes
        - basis_state(sig, {"b": 1, "a": 0}).amplitudes
    ) / math.sqrt(2)
    assert max_phase_free_error(out, expected) < 1e-12


def test_beamsplitter_heisenberg_action():
    sig = signature(boson("a", 16), boson("b", 16))
    t, r = 0.8, 0.6
    u = ops.beamsplitter_spectrum(t, r, (16, 16)).function_of(_beamsplitter)
    a = embed(ops.annihilator(16), "a", sig)
    b = embed(ops.annihilator(16), "b", sig)
    lhs_a = u.conj().T @ a.matrix @ u
    lhs_b = u.conj().T @ b.matrix @ u
    # compare matrix elements on the low-occupation block (<= half filling)
    occ = (np.arange(16)[:, None] + np.arange(16)[None, :]).ravel()
    low = occ <= 8
    for lhs, rhs in [(lhs_a, t * a + r * b), (lhs_b, -r * a + t * b)]:
        diff = np.abs(lhs - rhs.matrix)[np.ix_(low, low)]
        assert diff.max() < 1e-7


def test_beamsplitter_conserves_photon_number_exactly():
    sig = signature(boson("a", 5), boson("b", 5))
    u = ops.beamsplitter_spectrum(0.6, 0.8, (5, 5)).function_of(_beamsplitter)
    n_tot = embed(ops.number_op(5), "a", sig) + embed(ops.number_op(5), "b", sig)
    assert np.array_equal(u @ n_tot.matrix, n_tot.matrix @ u)


def test_beamsplitter_coherent_in_coherent_out():
    dim = 20
    sig = signature(boson("a", dim), boson("b", dim))
    t, r = 0.8, 0.6
    alpha, beta = 0.7, -0.4 + 0.2j
    st = product_state(sig, {"a": ops.coherent(alpha, dim), "b": ops.coherent(beta, dim)})
    out = StateVector(sig, ops.beamsplitter_spectrum(t, r, (dim, dim)).apply(_beamsplitter, st.amplitudes))
    expected = product_state(
        sig,
        {
            "a": ops.coherent(t * alpha + r * beta, dim),
            "b": ops.coherent(-r * alpha + t * beta, dim),
        },
    )
    overlap = abs(np.vdot(expected.amplitudes, out.amplitudes))
    assert overlap > 1 - 1e-9


def test_beamsplitter_rejects_bad_pair():
    with pytest.raises(ValueError):
        ops.beamsplitter_spectrum(0.9, 0.6, (4, 4))


def test_gaussian_params_normalizes_theta():
    p = ops.GaussianParams(theta=7.0)
    assert 0.0 <= p.theta < 2 * math.pi
    assert ops.GaussianParams(z=0.5 * np.exp(1j)).r == pytest.approx(0.5)


def test_squeeze_heisenberg_phase_sign():
    # pins the docstring convention S^dag a S = a cosh r - a^dag e^{+i phi} sinh r
    dim, rr, phi = 120, 0.3, 0.7
    a = ops.annihilator(dim)
    s = ops.squeeze(rr * np.exp(1j * phi), dim)
    lhs = s.conj().T @ a @ s
    plus = a * math.cosh(rr) - a.conj().T * np.exp(1j * phi) * math.sinh(rr)
    minus = a * math.cosh(rr) - a.conj().T * np.exp(-1j * phi) * math.sinh(rr)
    assert low_block_error(lhs, plus, 20) < 1e-12
    assert low_block_error(lhs, minus, 20) > 1.0


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: ops.squeeze(3.0, 16),
            "factor 'squeeze(z=3.0)' holds 6.450e-02 of its population in the top two "
            "levels (threshold 1.0e-06); increase the truncation",
        ),
        (
            lambda: ops.displacement(3.0, 8),
            "factor 'displacement(alpha=3.0)' holds 5.382e-01 of its population in the top "
            "two levels (threshold 1.0e-06); increase the truncation",
        ),
        (
            lambda: ops.thermal(0.5, 10),
            "factor 'thermal(nbar=0.5)' holds 1.355e-04 of its population in the top two "
            "levels (threshold 1.0e-06); increase the truncation",
        ),
        (
            lambda: ops.two_mode_squeezed(2.5, 16),
            "factor 'two_mode_squeezed(r=2.5) mode 0' holds 7.374e-02 of its population in "
            "the top two levels (threshold 1.0e-06); increase the truncation",
        ),
    ],
)
def test_leakage_errors_name_what_was_truncated(make, message):
    with pytest.raises(LeakageError) as err:
        make()
    assert str(err.value) == message


def test_delta_matches_operator_minus_scaled_identity():
    from entwitness.spaces import identity_operator

    sig = signature(boson("field", 12), boson("b", 3))
    st = product_state(sig, {"field": ops.coherent(0.4 + 0.2j, 12), "b": ops.fock(1, 3)})
    a = embed(ops.annihilator(12), "field", sig, "a")
    d = ops.delta(a, st)
    expected = a - expectation(st, a) * identity_operator(sig)
    assert np.array_equal(d.matrix, expected.matrix)
    assert d.support == a.support
    assert d.name == "delta(a)"
