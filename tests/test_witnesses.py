import math

import numpy as np
import pytest

from entwitness import families, linalg, operators as ops, witnesses
from entwitness.search import threshold_scan
from entwitness.spaces import (
    DensityMatrix,
    StateVector,
    basis_state,
    boson,
    embed,
    qubit,
    signature,
)
from entwitness.witnesses import (
    SupportError,
    WitnessMatrix,
    bilinear_form,
    cond1,
    cond2,
    eig2_positive,
    lur_value,
    ppt_crosscheck,
    ppt_min_eig,
    product_from_two_positive,
    product_vector_scan,
    reduced_criterion,
    witness_matrix_expand_a,
    witness_matrix_expand_b,
    xv_slice,
)


def mode_ops(sig, label):
    dim = sig.factor(label).dim
    return embed(ops.annihilator(dim), label, sig, label)


def test_cond1_single_photon_pair():
    sig = families.psi01_signature(2)
    st = families.psi01_state(sig)
    rep = cond1(st, mode_ops(sig, "a"), mode_ops(sig, "b"))
    assert rep.lhs == pytest.approx(0.25, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)
    assert rep.entangled


def test_cond1_rejects_overlapping_supports():
    sig = families.psi01_signature(2)
    st = families.psi01_state(sig)
    a = mode_ops(sig, "a")
    with pytest.raises(SupportError):
        cond1(st, a, a.dag())


def test_cond1_noisy_bell_margin_closed_form():
    sig = families.bell_signature()
    a, b = families.bell_witness_ops(sig)
    c1 = 1 / math.sqrt(2)
    for s in (0.2, 0.5, 0.8):
        rep = cond1(families.noisy_bell(s, c1, sig), a, b)
        c1c2 = c1 * math.sqrt(1 - c1**2)
        assert rep.lhs == pytest.approx((s * c1c2) ** 2, abs=1e-12)
        assert rep.rhs == pytest.approx((1 - s) / 4, abs=1e-12)


def test_cond1_noisy_bell_threshold_balanced():
    s_star = families.bell_threshold_scan(1 / math.sqrt(2), tol=1e-5)
    assert abs(s_star - (math.sqrt(5) - 1) / 2) < 1e-4


def test_cond1_noisy_bell_threshold_generic():
    # oracle: positive root of 4|c1 c2|^2 s^2 + s - 1 = 0
    for c1c2 in (0.3, 0.1):
        c1 = math.sqrt((1 - math.sqrt(1 - 4 * c1c2**2)) / 2)
        assert c1 * math.sqrt(1 - c1**2) == pytest.approx(c1c2, abs=1e-12)
        root = (-1 + math.sqrt(1 + 16 * c1c2**2)) / (8 * c1c2**2)
        assert families.bell_threshold_closed_form(c1c2) == pytest.approx(root)
        s_star = families.bell_threshold_scan(c1, tol=1e-5)
        assert abs(s_star - root) < 1e-4


def test_cond1_orthogonal_noise_any_weight():
    # noise supported outside the correlated block never masks the signal
    sig = families.bell_signature((3, 3))
    psi = families.bell_pair(1 / math.sqrt(2), sig)
    rho0 = np.zeros((9, 9), dtype=complex)
    for occ_a, occ_b in [(2, 0), (0, 2), (2, 2), (2, 1)]:
        v = basis_state(sig, {"a": occ_a, "b": occ_b}).amplitudes
        rho0 += 0.25 * np.outer(v, v.conj())
    a, b = families.bell_witness_ops(sig)
    for s in (0.05, 0.3, 0.9):
        rho = s * np.outer(psi.amplitudes, psi.amplitudes.conj()) + (1 - s) * rho0
        rep = cond1(DensityMatrix(sig, rho), a, b)
        assert rep.entangled
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_cond2_two_mode_squeezed():
    r, dim = 0.5, 48
    sig = signature(boson("a", dim), boson("b", dim))
    st = StateVector(sig, ops.two_mode_squeezed(r, dim))
    rep = cond2(st, mode_ops(sig, "a"), mode_ops(sig, "b"))
    sh, ch = math.sinh(r), math.cosh(r)
    assert rep.lhs == pytest.approx((sh * ch) ** 2, abs=1e-7)
    assert rep.rhs == pytest.approx(sh**4, abs=1e-7)
    assert rep.entangled


def test_cond2_vacuum_and_coherent_products_not_flagged():
    dim = 24
    sig = signature(boson("a", dim), boson("b", dim))
    vac = basis_state(sig, {"a": 0, "b": 0})
    rep = cond2(vac, mode_ops(sig, "a"), mode_ops(sig, "b"))
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert not rep.entangled

    from entwitness.spaces import product_state

    st = product_state(sig, {"a": ops.coherent(0.8, dim), "b": ops.coherent(-0.5j, dim)})
    rep = cond2(st, mode_ops(sig, "a"), mode_ops(sig, "b"))
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-9)
    assert not rep.entangled


def test_expand_a_subspace_family_spectrum():
    rng = np.random.default_rng(42)
    basis, b_op = families.subspace_witness_basis()
    for s in (0.3, 0.5, 0.8):
        for _ in range(3):
            v1, v2 = families.random_block_vectors(rng)
            rho = families.noisy_correlated_subspace(s, v1, v2)
            m = witness_matrix_expand_a(rho, basis, b_op)
            w = np.linalg.eigvalsh(m.matrix)
            assert abs(w[-1] - (2 * s**2 + s - 1) / 8) < 1e-10
            assert np.abs(w[:3] + (1 - s) / 8).max() < 1e-10


def test_expand_a_subspace_threshold():
    rng = np.random.default_rng(3)
    s_star = families.subspace_threshold_scan(rng, tol=1e-5)
    assert abs(s_star - 0.5) < 1e-4


def test_expand_a_single_element_reduces_to_cond1():
    sig = families.bell_signature()
    a, b = families.bell_witness_ops(sig)
    rho = families.noisy_bell(0.7, 0.6, sig)
    m = witness_matrix_expand_a(rho, [a], b)
    rep = cond1(rho, a, b)
    assert m.matrix.shape == (1, 1)
    assert m.matrix[0, 0].real == pytest.approx(rep.margin, abs=1e-12)


def test_expand_a_quadratic_form_identity():
    rng = np.random.default_rng(11)
    basis, b_op = families.subspace_witness_basis()
    rho = families.noisy_correlated_subspace(0.6, *families.random_block_vectors(rng))
    m = witness_matrix_expand_a(rho, basis, b_op)
    for _ in range(50):
        z = rng.normal(size=4) + 1j * rng.normal(size=4)
        a_op = z[0] * basis[0]
        for j in range(1, 4):
            a_op = a_op + z[j] * basis[j]
        quad = float(np.real(z.conj() @ m.matrix @ z))
        assert abs(quad - cond1(rho, a_op, b_op).margin) < 1e-9


def test_expand_b_atom_field_matrix():
    sig, st = families.atom_field_bell(4)
    qo = ops.qubit_ops()
    sm = embed(qo["minus"], "atom", sig, "sigma-")
    m = witness_matrix_expand_b(st, sm, families.centered_quadrature_basis(st, "field"))
    expected = np.diag([0.25, -0.5])
    assert np.abs(m.matrix - expected).max() < 1e-10
    assert m.has_positive_eigenvalue()


def test_expand_b_quadratic_form_identity():
    sig, st = families.atom_field_bell(6)
    qo = ops.qubit_ops()
    sm = embed(qo["minus"], "atom", sig, "sigma-")
    basis = families.centered_quadrature_basis(st, "field")
    m = witness_matrix_expand_b(st, sm, basis)
    rng = np.random.default_rng(5)
    for _ in range(50):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        b_op = z[0] * basis[0] + z[1] * basis[1]
        quad = float(np.real(z.conj() @ m.matrix @ z))
        assert abs(quad - cond1(st, sm, b_op).margin) < 1e-9


def test_expand_b_gaussian_invariance_atom_field():
    # the positive eigenvalue survives any displacement + rotation + squeeze
    # applied to the field mode
    from entwitness.spaces import apply_local

    sig, st = families.atom_field_bell(64)
    qo = ops.qubit_ops()
    sm = embed(qo["minus"], "atom", sig, "sigma-")
    for alpha, theta, r in [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 0.0, 0.5),
        (1.2 + 0.4j, 1.1, 0.6),
        (1.5, 2.0, 0.8),
    ]:
        u = ops.gaussian_unitary(ops.GaussianParams(alpha, theta, r * np.exp(0.3j)), 64)
        moved = apply_local(st, "field", u)
        m = witness_matrix_expand_b(moved, sm, families.centered_quadrature_basis(moved, "field"))
        assert m.has_positive_eigenvalue()


def test_expand_b_product_state_not_flagged():
    from entwitness.spaces import product_state

    dim = 24
    sig = signature(boson("field", dim), qubit("atom"))
    st = product_state(sig, {"field": ops.coherent(0.7, dim), "atom": ops.EXCITED})
    qo = ops.qubit_ops()
    sm = embed(qo["minus"], "atom", sig)
    m = witness_matrix_expand_b(st, sm, families.centered_quadrature_basis(st, "field"))
    assert not m.has_positive_eigenvalue()
    assert np.linalg.eigvalsh(m.matrix)[-1] <= 1e-9


def test_squeezed_pair_matrix_beats_plain_cond1():
    # expanded side-a basis keeps certifying once plain cond1 has given up
    for r in (0.2, 0.7, 1.0):
        st = families.squeezed_psi01(r, dim_a=64, dim_b=4)
        a = mode_ops(st.signature, "a")
        b = mode_ops(st.signature, "b")
        basis = families.centered_quadrature_basis(st, "a")
        m = witness_matrix_expand_a(st, [basis[1], basis[0]], b)
        assert m.has_positive_eigenvalue()
        rep = cond1(st, a, b)
        ch, sh = math.cosh(r), math.sinh(r)
        assert rep.margin == pytest.approx(ch**2 / 4 - sh**2 / 2, abs=1e-6)
        assert rep.entangled == (math.tanh(r) < 1 / math.sqrt(2))


def test_plain_cond1_flips_at_tanh_threshold():
    def entangled(r: float) -> bool:
        st = families.squeezed_psi01(r, dim_a=128, dim_b=4)
        return cond1(st, mode_ops(st.signature, "a"), mode_ops(st.signature, "b")).entangled

    r_star = threshold_scan(entangled, 0.5, 1.3, 1e-5)
    assert abs(math.tanh(r_star) - 1 / math.sqrt(2)) < 1e-3


def test_eig2_positive_cases():
    assert eig2_positive(np.diag([-1.0, 0.5]))
    assert not eig2_positive(np.diag([-1.0, -1.0]))
    m = np.array([[-0.1, 0.2], [0.2, -0.1]], dtype=complex)
    assert eig2_positive(m)
    with pytest.raises(ValueError):
        eig2_positive(np.eye(3))


def test_eig2_positive_matches_dense_eig():
    rng = np.random.default_rng(8)
    for _ in range(200):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = (m + m.conj().T) / 2
        assert eig2_positive(m) == witnesses.matrix_has_positive_eigenvalue(m)


def test_bilinear_singleton_reduces_to_cond1():
    sig = families.psi01_signature(3)
    st = families.psi01_state(sig)
    a = mode_ops(sig, "a")
    b = mode_ops(sig, "b")
    x = bilinear_form(st, [a], [b])
    assert x.matrix.shape == (1, 1)
    assert x.matrix[0, 0].real == pytest.approx(cond1(st, a, b).margin, abs=1e-12)


def test_bilinear_quadratic_form_identity():
    rng = np.random.default_rng(23)
    rho = families.noisy_psi01(0.55, dim=4)
    fa = families.centered_quadrature_basis(rho, "a")
    gb = families.centered_quadrature_basis(rho, "b")
    x = bilinear_form(rho, fa, gb)
    for _ in range(20):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        a_op = u[0] * fa[0] + u[1] * fa[1]
        b_op = v[0] * gb[0] + v[1] * gb[1]
        quad = float(np.real(np.kron(u, v).conj() @ x.matrix @ np.kron(u, v)))
        assert abs(quad - cond1(rho, a_op, b_op).margin) < 1e-9


def test_bilinear_x_closed_form_for_noisy_pair():
    # hand-computed entries: the only nonvanishing moments are <a^dag b>,
    # <a b^dag> (= s/2 each) and the four photon-number products
    for s in (0.0, 0.35, 0.7):
        x = families.psi01_bilinear_x(s, dim=4).matrix
        q = (3 - s) / 4
        expected = np.zeros((4, 4))
        expected[0, 0] = s**2 / 4 - (1 - s) / 4
        expected[1, 1] = expected[2, 2] = -q
        expected[1, 2] = expected[2, 1] = s**2 / 4
        expected[3, 3] = s**2 / 4 - (1 - s) / 4 - 2
        assert np.abs(x - expected).max() < 1e-10


def test_xv_slice_product_form():
    rng = np.random.default_rng(31)
    p = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    p = (p + p.conj().T) / 2
    q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q = (q + q.conj().T) / 2
    x = WitnessMatrix(np.kron(p, q), ("F1", "F2"), ("G1", "G2"))
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    expected = float(np.real(v.conj() @ q @ v)) * p
    assert np.abs(xv_slice(x, v) - expected).max() < 1e-10


def test_xv_slice_basis_vector_picks_block():
    rng = np.random.default_rng(33)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = (m + m.conj().T) / 2
    x = WitnessMatrix(m, ("F1", "F2"), ("G1", "G2"))
    sl = xv_slice(x, np.array([1.0, 0.0]))
    expected = m.reshape(2, 2, 2, 2)[:, 0, :, 0]
    assert np.abs(sl - expected).max() < 1e-12
    with pytest.raises(ValueError):
        xv_slice(x, np.zeros(2))


def test_xv_slice_counterexample_positive_direction():
    plus = np.array([0, 1, 1, 0], dtype=complex)
    minus = np.array([0, 1, -1, 0], dtype=complex)
    x = WitnessMatrix(
        np.outer(plus, plus.conj()) - 2 * np.outer(minus, minus.conj()),
        ("F1", "F2"),
        ("G1", "G2"),
    )
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    sl = xv_slice(x, v)
    u = v
    assert float(np.real(u.conj() @ sl @ u)) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(sl)[-1] > 0


def test_reduced_criterion_cases():
    # one positive diagonal entry large enough to survive the side-b trace
    diag = WitnessMatrix(np.diag([2.0, -0.5, -1.0, -1.0]).astype(complex), ("F1", "F2"), ("G1", "G2"))
    assert reduced_criterion(diag)
    # the counterexample: side-b trace is -I, yet a product vector exists
    plus = np.array([0, 1, 1, 0], dtype=complex)
    minus = np.array([0, 1, -1, 0], dtype=complex)
    x = WitnessMatrix(
        np.outer(plus, plus.conj()) - 2 * np.outer(minus, minus.conj()),
        ("F1", "F2"),
        ("G1", "G2"),
    )
    assert not reduced_criterion(x)
    res = product_vector_scan(x)
    assert res.value > 0.5  # (+x, +x) direction reaches 1
    # X whose side-b trace is diag(1, -3) fires
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[2, 2] = 1.0, -3.0
    x2 = WitnessMatrix(m, ("F1", "F2"), ("G1", "G2"))
    assert reduced_criterion(x2)


def test_reduced_criterion_implies_product_vector():
    rng = np.random.default_rng(51)
    found = 0
    for _ in range(40):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (m + m.conj().T) / 2
        x = WitnessMatrix(m, ("F1", "F2"), ("G1", "G2"))
        if reduced_criterion(x):
            found += 1
            assert product_vector_scan(x, grid=60).value > 0
    assert found > 5


def test_product_from_two_positive_identity():
    x = WitnessMatrix(np.eye(4, dtype=complex), ("F1", "F2"), ("G1", "G2"))
    res = product_from_two_positive(x)
    assert res.value > 0.9


def test_product_from_two_positive_degenerate_pair():
    psi_plus = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    e00 = np.array([1, 0, 0, 0], dtype=complex)
    x_mat = np.outer(e00, e00) + np.outer(psi_plus, psi_plus.conj())
    x_mat -= 0.5 * np.eye(4) - 0.5 * np.diag([1.0, 0, 0, 0]) - 0.5 * np.outer(psi_plus, psi_plus.conj())
    x_mat = (x_mat + x_mat.conj().T) / 2
    x = WitnessMatrix(x_mat, ("F1", "F2"), ("G1", "G2"))
    res = product_from_two_positive(x)
    assert res.value > 0
    # returned directions really form a product vector achieving the value
    vec = np.kron(res.u, res.v)
    assert float(np.real(vec.conj() @ x_mat @ vec)) == pytest.approx(res.value, abs=1e-9)


def test_product_from_two_positive_random_trials():
    rng = np.random.default_rng(77)
    trials = 0
    while trials < 100:
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = (m + m.conj().T) / 2
        w = np.linalg.eigvalsh(m)
        if w[-2] <= witnesses.positivity_threshold(w):
            continue
        trials += 1
        x = WitnessMatrix(m, ("F1", "F2"), ("G1", "G2"))
        res = product_from_two_positive(x)
        assert res.value > 0
        vec = np.kron(res.u, res.v)
        direct = float(np.real(vec.conj() @ m @ vec))
        assert direct == pytest.approx(res.value, abs=1e-8)
        # dense-scan oracle agrees a positive product vector exists
        assert product_vector_scan(x, grid=60).value > 0


def test_product_from_two_positive_requires_two():
    x = WitnessMatrix(np.diag([1.0, -1, -1, -1]).astype(complex), ("F1", "F2"), ("G1", "G2"))
    with pytest.raises(ValueError):
        product_from_two_positive(x)


def test_lur_two_mode_squeezed_branches():
    dim, r = 32, 0.4
    sig = signature(boson("a", dim), boson("b", dim))
    a = mode_ops(sig, "a")
    b = mode_ops(sig, "b")
    pair = [(a, b.dag())]
    plus = StateVector(sig, ops.two_mode_squeezed(r, dim, phase=0.0))
    minus = StateVector(sig, ops.two_mode_squeezed(r, dim, phase=np.pi))
    rep_plus = lur_value(plus, pair, separable_bound=1.0)
    rep_minus = lur_value(minus, pair, separable_bound=1.0)
    # the two squeezing phases land on e^{+2r} and e^{-2r}; only the
    # correlating branch dips below the separable bound
    assert rep_plus.rhs == pytest.approx(math.exp(2 * r), abs=1e-6)
    assert rep_minus.rhs == pytest.approx(math.exp(-2 * r), abs=1e-6)
    assert rep_minus.entangled
    assert not rep_plus.entangled


def test_lur_vacuum_boundary():
    dim = 8
    sig = signature(boson("a", dim), boson("b", dim))
    vac = basis_state(sig, {"a": 0, "b": 0})
    rep = lur_value(vac, [(mode_ops(sig, "a"), mode_ops(sig, "b").dag())], 1.0)
    assert rep.rhs == pytest.approx(1.0, abs=1e-12)
    assert not rep.entangled


def test_lur_product_states_respect_bound():
    rng = np.random.default_rng(19)
    dim = 10
    sig = signature(boson("a", dim), boson("b", dim))
    a = mode_ops(sig, "a")
    b = mode_ops(sig, "b")
    from entwitness.spaces import product_state

    for _ in range(50):
        va = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vb = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        st = product_state(sig, {"a": va / np.linalg.norm(va), "b": vb / np.linalg.norm(vb)})
        rep = lur_value(st, [(a, b.dag())], 1.0)
        assert rep.rhs >= 1.0 - 1e-8


def test_lur_atom_field_phase_structure():
    # value = 1 + 2 sin(th) (sin(th) + cos(th) cos(phi)); the bound is
    # violated on the phase branch where that product is negative
    sig = signature(boson("field", 4), qubit("atom"))
    a_dag = mode_ops(sig, "field").dag()
    jp = embed(ops.collective_spin(1)["plus"], "atom", sig, "J+")
    for theta, phi in [(0.3, 0.0), (0.3, np.pi), (-0.3, 0.0), (0.6, np.pi)]:
        amps = (
            math.cos(theta) * basis_state(sig, {"field": 0, "atom": 1}).amplitudes
            + math.sin(theta) * np.exp(1j * phi) * basis_state(sig, {"field": 1, "atom": 0}).amplitudes
        )
        st = StateVector(sig, amps)
        rep = lur_value(st, [(a_dag, jp)], 1.0)
        expected = 1 + 2 * math.sin(theta) * (math.sin(theta) + math.cos(theta) * math.cos(phi))
        assert rep.rhs == pytest.approx(expected, abs=1e-10)
        assert rep.entangled == (expected < 1.0 - rep.tolerance)


def test_ppt_min_eig_bell_and_products():
    sig = signature(qubit("a"), qubit("b"))
    bell = StateVector(sig, np.array([0, 1, 1, 0]) / math.sqrt(2))
    assert ppt_min_eig(bell, ["a"]) == pytest.approx(-0.5, abs=1e-12)

    rng = np.random.default_rng(4)
    ga = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    gb = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho_a = ga @ ga.conj().T
    rho_a /= np.trace(rho_a)
    rho_b = gb @ gb.conj().T
    rho_b /= np.trace(rho_b)
    prod = DensityMatrix(sig, np.kron(rho_a, rho_b))
    assert ppt_min_eig(prod, ["a"]) >= -1e-10


def test_ppt_threshold_noisy_pair():
    # closed form: the partial transpose goes negative exactly at s = 1/3
    def npt(s: float) -> bool:
        return ppt_min_eig(families.noisy_psi01(s, dim=3), ["a"]) < -witnesses.PPT_TOL

    s_star = threshold_scan(npt, 0.05, 0.95, 1e-5)
    assert abs(s_star - 1 / 3) < 1e-4


def test_ppt_crosscheck_noisy_state():
    sig = families.bell_signature()
    a, b = families.bell_witness_ops(sig)
    chk = ppt_crosscheck(families.noisy_bell(0.7, 1 / math.sqrt(2), sig), a, b)
    assert chk.cond1.entangled
    assert chk.min_eigenvalue < -witnesses.PPT_TOL
    assert chk.consistent


def random_pure_state(rng, sig):
    amps = rng.normal(size=sig.total_dim) + 1j * rng.normal(size=sig.total_dim)
    return StateVector(sig, amps / np.linalg.norm(amps))


def random_local_op(rng, sig, label):
    dim = sig.factor(label).dim
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return embed(g, label, sig)


def test_ppt_crosscheck_monte_carlo_small():
    rng = np.random.default_rng(0)
    for dims in [(2, 4), (3, 3)]:
        sig = signature(boson("a", dims[0]), boson("b", dims[1]))
        for _ in range(60):
            st = random_pure_state(rng, sig)
            chk = ppt_crosscheck(st, random_local_op(rng, sig, "a"), random_local_op(rng, sig, "b"))
            assert chk.consistent


def random_separable_mixture(rng, sig, max_products=16):
    k = int(rng.integers(1, max_products + 1))
    weights = rng.random(k)
    weights /= weights.sum()
    rho = np.zeros((sig.total_dim, sig.total_dim), dtype=complex)
    for w in weights:
        va = rng.normal(size=sig.dims[0]) + 1j * rng.normal(size=sig.dims[0])
        vb = rng.normal(size=sig.dims[1]) + 1j * rng.normal(size=sig.dims[1])
        v = np.kron(va / np.linalg.norm(va), vb / np.linalg.norm(vb))
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(sig, rho)


def test_separability_soundness():
    # no criterion may flag a convex mixture of product states
    rng = np.random.default_rng(123)
    sigs = [
        signature(boson("a", 2), boson("b", 2)),
        signature(boson("a", 3), boson("b", 4)),
        signature(boson("a", 4), boson("b", 4)),
    ]
    for trial in range(1000):
        sig = sigs[trial % len(sigs)]
        rho = random_separable_mixture(rng, sig)
        a = random_local_op(rng, sig, "a")
        b = random_local_op(rng, sig, "b")
        rep1 = cond1(rho, a, b)
        rep2 = cond2(rho, a, b)
        assert not rep1.entangled, f"cond1 margin {rep1.margin} on separable input"
        assert not rep2.entangled, f"cond2 margin {rep2.margin} on separable input"
        assert ppt_min_eig(rho, ["a"]) > -1e-8


def test_cond2_non_hermitian_density_raises_numerical_error():
    sig = families.bell_signature()
    a, b = families.bell_witness_ops(sig)
    # an imaginary diagonal entry makes <A^dag A> complex
    m = np.diag([0.25 + 0.5j, 0.25, 0.25, 0.25])
    with pytest.raises(linalg.NonHermitianError, match="should be real"):
        cond2(DensityMatrix(sig, m), a, b)
