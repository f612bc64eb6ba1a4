import numpy as np
import pytest

from entwitness import linalg


def random_hermitian(rng, dim):
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (h + h.conj().T) / 2


def test_herm_eig_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    ed = linalg.herm_eig(sx)
    assert np.allclose(ed.eigenvalues, [-1.0, 1.0])


def test_herm_eig_identity():
    ed = linalg.herm_eig(np.eye(4))
    assert np.allclose(ed.eigenvalues, np.ones(4))


def test_herm_eig_rank_one_shifted():
    # M = (s^2/4)|eta><eta| - ((1-s)/8) I with unit eta: top eigenvalue
    # (2 s^2 + s - 1)/8, the other three at -(1-s)/8.
    rng = np.random.default_rng(7)
    s = 0.6
    eta = rng.normal(size=4) + 1j * rng.normal(size=4)
    eta /= np.linalg.norm(eta)
    m = (s**2 / 4) * np.outer(eta, eta.conj()) - ((1 - s) / 8) * np.eye(4)
    ed = linalg.herm_eig(m)
    assert abs(ed.eigenvalues[-1] - (2 * s**2 + s - 1) / 8) < 1e-12
    assert abs(ed.eigenvalues[-1] - 0.04) < 1e-12
    assert np.allclose(ed.eigenvalues[:3], -(1 - s) / 8)


def test_herm_eig_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(linalg.NonHermitianError) as err:
        linalg.herm_eig(bad)
    assert err.value.max_asymmetry == pytest.approx(1.0)


def test_herm_eig_ascending_and_reconstruction():
    rng = np.random.default_rng(0)
    for dim in (2, 5, 17, 64):
        h = random_hermitian(rng, dim)
        ed = linalg.herm_eig(h)
        assert np.all(np.diff(ed.eigenvalues) >= -1e-12)
        v = ed.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10
        rebuilt = ed.function_of(lambda w: w)
        assert np.abs(rebuilt - h).max() < 1e-9 * max(1.0, np.abs(h).max())
        # eigenvalue sum equals the trace
        assert abs(ed.eigenvalues.sum() - np.trace(h).real) < 1e-9 * max(
            1.0, abs(np.trace(h).real)
        )
        for i in range(dim):
            defect = h @ v[:, i] - ed.eigenvalues[i] * v[:, i]
            assert np.linalg.norm(defect) <= 1e-10 * max(1.0, np.linalg.norm(h))


def test_mat_exp_zero_is_identity():
    assert np.allclose(linalg.mat_exp(np.zeros((3, 3))), np.eye(3))


def test_mat_exp_diagonal_phases():
    theta = 0.7
    n = np.diag(np.arange(5.0))
    u = linalg.mat_exp(1j * theta * n)
    assert np.abs(u - np.diag(np.exp(1j * theta * np.arange(5)))).max() < 1e-12


def test_mat_exp_matches_spectral_route():
    # three-level block with equal couplings, exponentiated two ways
    kappa = 1.0
    h = kappa * np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=complex)
    t = np.pi / (2 * np.sqrt(2))
    direct = linalg.mat_exp(-1j * h * t)
    ed = linalg.herm_eig(h)
    spectral = ed.function_of(lambda w: np.exp(-1j * w * t))
    assert np.abs(direct - spectral).max() < 1e-9


def test_mat_exp_unitary_for_antihermitian():
    rng = np.random.default_rng(3)
    for dim in (2, 6, 20):
        h = random_hermitian(rng, dim)
        h *= 5.0 / max(1.0, np.linalg.norm(h, 2))
        u = linalg.mat_exp(1j * h)
        assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-9


def test_mat_exp_inverse_pairs():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        a *= 5.0 / np.linalg.norm(a, 2)
        prod = linalg.mat_exp(a) @ linalg.mat_exp(-a)
        assert np.abs(prod - np.eye(6)).max() < 1e-9


def test_mat_exp_requires_square():
    with pytest.raises(ValueError):
        linalg.mat_exp(np.zeros((2, 3)))


def test_kron_identities():
    assert np.allclose(linalg.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_lowering_on_product_basis():
    # sigma^- tensor I acting on |e>|g> gives |g>|g>
    sm = np.array([[0, 1], [0, 0]], dtype=complex)  # basis order (g, e)
    op = linalg.kron(sm, np.eye(2))
    e_g = linalg.kron([0, 1], [1, 0])
    g_g = linalg.kron([1, 0], [1, 0])
    assert np.allclose(op @ e_g, g_g)


def test_kron_truncated_commutator():
    dim = 3
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)
    comm_local = a @ a.conj().T - a.conj().T @ a
    expected_diag = np.ones(dim)
    expected_diag[-1] = 1 - dim
    assert np.allclose(np.diag(comm_local), expected_diag)
    big_a = linalg.kron(a, np.eye(2))
    big_comm = big_a @ big_a.conj().T - big_a.conj().T @ big_a
    assert np.abs(big_comm - linalg.kron(comm_local, np.eye(2))).max() < 1e-12


def test_partial_transpose_diagonal_fixed():
    rho = np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex)
    assert np.allclose(linalg.partial_transpose(rho, (2, 2), 0), rho)


def test_partial_transpose_bell_negative_eigenvalue():
    bell = np.zeros(4, dtype=complex)
    bell[1] = bell[2] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    pt = linalg.partial_transpose(rho, (2, 2), 0)
    w = np.linalg.eigvalsh(pt)
    assert abs(w[0] + 0.5) < 1e-12


def test_partial_transpose_classical_mixture():
    rho = 0.5 * np.diag([1.0, 0, 0, 1.0]).astype(complex)
    pt = linalg.partial_transpose(rho, (2, 2), 1)
    assert np.linalg.eigvalsh(pt).min() > -1e-12


def test_partial_transpose_involution_and_structure():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(24, 24)) + 1j * rng.normal(size=(24, 24))
    dims = (2, 3, 4)
    for sub in range(3):
        twice = linalg.partial_transpose(
            linalg.partial_transpose(m, dims, sub), dims, sub
        )
        assert np.array_equal(twice, m)
    h = (m + m.conj().T) / 2
    pt = linalg.partial_transpose(h, dims, 1)
    assert np.abs(pt - pt.conj().T).max() < 1e-12
    assert abs(np.trace(pt) - np.trace(h)) < 1e-12


def test_schmidt_product_vector():
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    coeffs, left, right = linalg.schmidt(v, (2, 2))
    assert abs(coeffs[0] - 1.0) < 1e-12
    assert coeffs[1] < 1e-12


def test_schmidt_balanced_pair():
    v = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    coeffs, _, _ = linalg.schmidt(v, (2, 2))
    assert np.allclose(coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_schmidt_already_diagonal():
    v = np.array([0.8, 0, 0, 0.6], dtype=complex)
    coeffs, _, _ = linalg.schmidt(v, (2, 2))
    assert np.allclose(coeffs, [0.8, 0.6])


def test_schmidt_reconstruction_random():
    rng = np.random.default_rng(21)
    for d1, d2 in [(2, 2), (3, 5), (8, 8), (8, 3)]:
        v = rng.normal(size=d1 * d2) + 1j * rng.normal(size=d1 * d2)
        coeffs, left, right = linalg.schmidt(v, (d1, d2))
        rebuilt = sum(
            coeffs[j] * np.kron(left[:, j], right[:, j]) for j in range(len(coeffs))
        )
        assert np.linalg.norm(rebuilt - v) < 1e-10 * np.linalg.norm(v)
        assert abs((coeffs**2).sum() - np.linalg.norm(v) ** 2) < 1e-10 * np.linalg.norm(v) ** 2
        assert np.all(np.diff(coeffs) <= 1e-12)
        k = len(coeffs)
        assert np.abs(left.conj().T @ left - np.eye(k)).max() < 1e-10
        assert np.abs(right.conj().T @ right - np.eye(k)).max() < 1e-10


def test_schmidt_rejects_zero_vector():
    with pytest.raises(ValueError):
        linalg.schmidt(np.zeros(4), (2, 2))
