"""Property checks over random states: every witness is a view on one moment table.

States are random pure states, the same states as density matrices, and
random separable mixtures on two truncated modes of dims 2..4; operators are
random complex local matrices.  Examples are derandomized, so the suite is
deterministic.  The local-uncertainty sum is also checked against its
separable bound (Hofmann & Takeuchi, PRA 68, 032103 (2003)) on product
states and separable mixtures.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from entwitness.spaces import DensityMatrix, StateVector, boson, embed, expectation, signature
from entwitness.witnesses import (
    PPT_TOL,
    bilinear_form,
    cond1,
    cond2,
    lur_value,
    ppt_min_eig,
    witness_matrix_expand_a,
    witness_matrix_expand_b,
)

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def _pure(rng, sig):
    amps = rng.normal(size=sig.total_dim) + 1j * rng.normal(size=sig.total_dim)
    return StateVector(sig, amps / np.linalg.norm(amps))


def _separable(rng, sig):
    weights = rng.random(int(rng.integers(1, 6)))
    rho = np.zeros((sig.total_dim, sig.total_dim), dtype=complex)
    for w in weights / weights.sum():
        parts = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in sig.dims]
        v = np.kron(*(p / np.linalg.norm(p) for p in parts))
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(sig, rho)


def _local_ops(rng, sig, label, count):
    dim = sig.factor(label).dim
    return [
        embed(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), label, sig)
        for _ in range(count)
    ]


@st.composite
def cases(draw, kinds=("pure", "density", "separable")):
    """(state, ops_a, ops_b, rng) with one to three operators per side."""
    sig = signature(boson("a", draw(st.integers(2, 4))), boson("b", draw(st.integers(2, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(kinds))
    ops_a = _local_ops(rng, sig, "a", draw(st.integers(1, 3)))
    ops_b = _local_ops(rng, sig, "b", draw(st.integers(1, 3)))
    if kind == "separable":
        state = _separable(rng, sig)
    else:
        state = _pure(rng, sig)
        if kind == "density":
            state = state.to_density()
    return state, ops_a, ops_b, rng


def _close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


def _combine(z, basis):
    op = z[0] * basis[0]
    for zj, e in zip(z[1:], basis[1:]):
        op = op + zj * e
    return op


@SETTINGS
@given(cases())
def test_base_tests_match_operator_product_expectations(case):
    # reference: the inequalities evaluated with full-space operator products
    state, ops_a, ops_b, _ = case
    a, b = ops_a[0], ops_b[0]
    want1 = [
        abs(expectation(state, a.dag() @ b)) ** 2,
        expectation(state, a.dag() @ a @ b.dag() @ b).real,
    ]
    want2 = [
        abs(expectation(state, a @ b)) ** 2,
        expectation(state, a.dag() @ a).real * expectation(state, b.dag() @ b).real,
    ]
    for rep, want in ((cond1(state, a, b), want1), (cond2(state, a, b), want2)):
        assert _close([rep.lhs, rep.rhs], want)


@SETTINGS
@given(cases())
def test_expand_a_is_bilinear_form_with_one_b(case):
    state, ops_a, ops_b, _ = case
    m = witness_matrix_expand_a(state, ops_a, ops_b[0])
    x = bilinear_form(state, ops_a, ops_b[:1])
    assert _close(m.matrix, x.matrix)
    assert m.basis_a == tuple(f"E{j + 1}" for j in range(len(ops_a)))
    assert m.basis_b == ()


@SETTINGS
@given(cases())
def test_expand_b_is_bilinear_form_with_one_a(case):
    state, ops_a, ops_b, _ = case
    m = witness_matrix_expand_b(state, ops_a[0], ops_b)
    x = bilinear_form(state, ops_a[:1], ops_b)
    assert _close(m.matrix, x.matrix)
    assert m.basis_a == tuple(f"F{j + 1}" for j in range(len(ops_b)))
    assert m.basis_b == ()


@SETTINGS
@given(cases())
def test_cond1_margin_is_the_one_by_one_form(case):
    state, ops_a, ops_b, _ = case
    rep = cond1(state, ops_a[0], ops_b[0])
    x = bilinear_form(state, ops_a[:1], ops_b[:1])
    assert x.matrix.shape == (1, 1)
    assert abs(x.matrix[0, 0].real - rep.margin) <= 1e-12 * max(1.0, rep.lhs, rep.rhs)


@SETTINGS
@given(cases())
def test_expand_a_quadratic_form_is_cond1_margin(case):
    state, ops_a, ops_b, rng = case
    m = witness_matrix_expand_a(state, ops_a, ops_b[0])
    z = rng.normal(size=len(ops_a)) + 1j * rng.normal(size=len(ops_a))
    rep = cond1(state, _combine(z, ops_a), ops_b[0])
    quad = float(np.real(z.conj() @ m.matrix @ z))
    assert abs(quad - rep.margin) <= 1e-12 * max(1.0, rep.lhs, rep.rhs)


@SETTINGS
@given(cases())
def test_bilinear_form_on_product_vectors_is_cond1_margin(case):
    state, ops_a, ops_b, rng = case
    x = bilinear_form(state, ops_a, ops_b)
    u = rng.normal(size=len(ops_a)) + 1j * rng.normal(size=len(ops_a))
    v = rng.normal(size=len(ops_b)) + 1j * rng.normal(size=len(ops_b))
    rep = cond1(state, _combine(u, ops_a), _combine(v, ops_b))
    uv = np.kron(u, v)
    quad = float(np.real(uv.conj() @ x.matrix @ uv))
    assert abs(quad - rep.margin) <= 1e-12 * max(1.0, rep.lhs, rep.rhs)


@SETTINGS
@given(cases(kinds=("pure",)))
def test_pure_state_and_its_density_agree(case):
    psi, ops_a, ops_b, _ = case
    rho = psi.to_density()
    a, b = ops_a[0], ops_b[0]
    for test in (cond1, cond2):
        r_psi, r_rho = test(psi, a, b), test(rho, a, b)
        assert _close([r_rho.lhs, r_rho.rhs, r_rho.margin], [r_psi.lhs, r_psi.rhs, r_psi.margin])
        assert r_psi.entangled == r_rho.entangled
    views = (
        lambda s: witness_matrix_expand_a(s, ops_a, b),
        lambda s: witness_matrix_expand_b(s, a, ops_b),
        lambda s: bilinear_form(s, ops_a, ops_b),
    )
    for view in views:
        assert _close(view(rho).matrix, view(psi).matrix)
    pairs = list(zip(ops_a, ops_b))
    assert _close(lur_value(rho, pairs, 0.0).rhs, lur_value(psi, pairs, 0.0).rhs)


@SETTINGS
@given(cases(kinds=("separable",)))
def test_separable_mixtures_never_flagged(case):
    rho, ops_a, ops_b, _ = case
    a, b = ops_a[0], ops_b[0]
    assert not cond1(rho, a, b).entangled
    assert not cond2(rho, a, b).entangled
    assert not witness_matrix_expand_a(rho, ops_a, b).has_positive_eigenvalue()
    assert not witness_matrix_expand_b(rho, a, ops_b).has_positive_eigenvalue()


def _unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def small_cases(draw):
    """(state, A, B) on 2 x 2 or 2 x 3, where PPT is equivalent to separability.

    The state is p |psi><psi| + (1 - p) sigma: psi has random Schmidt
    coefficients in random local bases, sigma is the maximally mixed state
    or a mixture of random pure states, and p = 1 gives pure states (kept as
    vectors half the time).  A and B are random complex local matrices, or
    hops |0><1| and |j><k| in the Schmidt bases of psi, on which the tests
    fire over a range of p.
    """
    sig = signature(boson("a", 2), boson("b", draw(st.sampled_from((2, 3)))))
    d = sig.total_dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ua, ub = _unitary(rng, 2), _unitary(rng, sig.dims[1])
    schmidt = rng.random(2)
    psi = sum(s * np.kron(ua[:, i], ub[:, i]) for i, s in enumerate(schmidt / np.linalg.norm(schmidt)))
    if draw(st.booleans()):
        a, b = _local_ops(rng, sig, "a", 1)[0], _local_ops(rng, sig, "b", 1)[0]
    else:
        j, k = draw(st.sampled_from(((0, 1), (1, 0))))
        a = embed(np.outer(ua[:, 0], ua[:, 1].conj()), "a", sig)
        b = embed(np.outer(ub[:, j], ub[:, k].conj()), "b", sig)
    p = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    if p == 1.0 and draw(st.booleans()):
        return StateVector(sig, psi), a, b
    if draw(st.booleans()):
        sigma = np.eye(d) / d
    else:
        vecs = [_pure(rng, sig).amplitudes for _ in range(draw(st.integers(1, 6)))]
        sigma = sum(np.outer(v, v.conj()) for v in vecs) / len(vecs)
    return DensityMatrix(sig, p * np.outer(psi, psi.conj()) + (1 - p) * sigma), a, b


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(small_cases())
def test_base_tests_flag_only_npt_states_in_low_dimensions(case):
    # Peres-Horodecki: in 2 x 2 and 2 x 3 a state is separable iff its partial
    # transpose is positive, so a flag on a PPT state would be a false positive
    state, a, b = case
    if cond1(state, a, b).entangled or cond2(state, a, b).entangled:
        assert ppt_min_eig(state, ["a"]) < -PPT_TOL


def _gell_mann(d):
    """The d^2 - 1 generalized Gell-Mann matrices, normalized to Tr(g_k g_l) = 2 delta_kl."""
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            anti = np.zeros((d, d), dtype=complex)
            anti[j, k], anti[k, j] = -1j, 1j
            mats += [sym, anti]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag * np.sqrt(2.0 / (l * (l + 1)))).astype(complex))
    return mats


def _gell_mann_pairs(sig):
    """(g_k on a, -g_k^T on b): the local-uncertainty pairs that vanish on sum_j |jj>."""
    d = sig.dims[0]
    return [(embed(g, "a", sig), embed(-g.T, "b", sig)) for g in _gell_mann(d)]


def _local_spread(rho, op):
    """<X^dag X> - |<X>|^2 of a local matrix X on a local density matrix."""
    return float(np.real(np.trace(rho @ op.conj().T @ op)) - abs(np.trace(rho @ op)) ** 2)


def _local_density(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@st.composite
def product_cases(draw):
    """(state, reduced a, reduced b) on d x d, d in 2..4; reduced are None for mixtures."""
    d = draw(st.integers(2, 4))
    sig = signature(boson("a", d), boson("b", d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("pure", "mixed", "separable")))
    if kind == "separable":
        return _separable(rng, sig), None, None
    one = signature(boson("a", d))
    if kind == "pure":
        u, v = _pure(rng, one).amplitudes, _pure(rng, one).amplitudes
        return StateVector(sig, np.kron(u, v)), np.outer(u, u.conj()), np.outer(v, v.conj())
    rho_a, rho_b = (_local_density(rng, d, draw(st.integers(1, d))) for _ in "ab")
    return DensityMatrix(sig, np.kron(rho_a, rho_b)), rho_a, rho_b


@SETTINGS
@given(product_cases())
def test_local_uncertainty_bound_holds_for_separable_states(case):
    # sum_k Var(g_k) = 2 (d - Tr rho^2) >= 2 (d - 1) on each side, and the
    # variances of a product state add, so no separable state goes below 4 (d - 1)
    state, rho_a, rho_b = case
    d = state.signature.dims[0]
    bound = 4.0 * (d - 1)
    rep = lur_value(state, _gell_mann_pairs(state.signature), bound)
    assert not rep.entangled
    if rho_a is not None:
        purity = np.real(np.trace(rho_a @ rho_a) + np.trace(rho_b @ rho_b))
        assert abs(rep.rhs - 2 * (2 * d - purity)) <= 1e-9 * bound


@SETTINGS
@given(product_cases(), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_local_uncertainty_sum_of_a_product_state_is_the_sum_of_local_spreads(case, count, seed):
    # <A^dag B> = <A>^* <B> on a product state, so every cross term cancels
    state, rho_a, rho_b = case
    if rho_a is None:
        return
    rng = np.random.default_rng(seed)
    sig = state.signature
    ops_a, ops_b = _local_ops(rng, sig, "a", count), _local_ops(rng, sig, "b", count)
    want = sum(
        _local_spread(rho_a, a.local) + _local_spread(rho_b, b.local) for a, b in zip(ops_a, ops_b)
    )
    assert _close(lur_value(state, list(zip(ops_a, ops_b)), 0.0).rhs, want)


def test_local_uncertainty_bound_is_broken_by_the_maximally_entangled_state():
    for d in (2, 3, 4):
        sig = signature(boson("a", d), boson("b", d))
        phi = StateVector(sig, np.eye(d).ravel() / np.sqrt(d))
        rep = lur_value(phi, _gell_mann_pairs(sig), 4.0 * (d - 1))
        assert rep.entangled
        assert abs(rep.rhs) <= 1e-12
