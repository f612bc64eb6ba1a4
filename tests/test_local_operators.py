"""Property checks for local operators: contraction and algebra agree with dense matrices.

A ``LabeledOperator`` keeps its local matrix on the factors it acts on.  These
checks draw signatures of two to four mixed qubit and boson factors, operators
on random subsets of them in random order (non-adjacent and reversed orders
included), and compare :meth:`LabeledOperator.apply`, the operator algebra and
``.matrix`` against a full-space matrix built here from index arithmetic
alone.  A product on disjoint factors, a Kronecker product of the locals,
is checked against the product of the lifted matrices: by value for real
locals, within two ulps for complex ones, whose BLAS kernels may fuse one
product; ``A @ B`` and ``B @ A`` bit for bit.
Examples are derandomized, so the suite is deterministic.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from entwitness import cli, operators
from entwitness.spaces import (
    DensityMatrix,
    LabeledOperator,
    StateVector,
    apply_operator,
    boson,
    embed_many,
    expectation,
    identity_operator,
    qubit,
    signature,
)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)
TOL = 1e-12


def _dense(local, axes, dims):
    """Full-space matrix of ``local`` on ``axes`` (in that order), identity elsewhere."""
    idx = np.array(np.unravel_index(np.arange(int(np.prod(dims))), dims))
    sub = np.ravel_multi_index(idx[list(axes)], [dims[ax] for ax in axes]) if axes else 0 * idx[0]
    rest = [ax for ax in range(len(dims)) if ax not in axes]
    same_rest = np.all(idx[rest][:, :, None] == idx[rest][:, None, :], axis=0)
    return local[sub[:, None], sub[None, :]] * same_rest


def _random_matrix(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


@st.composite
def signatures(draw):
    factors = []
    for i in range(draw(st.integers(2, 4))):
        if draw(st.booleans()):
            factors.append(qubit(f"q{i}"))
        else:
            factors.append(boson(f"m{i}", draw(st.integers(2, 4))))
    return signature(*factors)


@st.composite
def local_ops(draw, sig, rng, min_size=1):
    """An operator on a random ordered subset of the factors, and that ordered subset."""
    order = draw(st.permutations(range(len(sig.factors))))
    axes = tuple(order[: draw(st.integers(min_size, len(order)))])
    local = _random_matrix(rng, int(np.prod([sig.dims[ax] for ax in axes])))
    return embed_many(local, [sig.labels[ax] for ax in axes], sig), axes


@st.composite
def cases(draw, n_ops=1):
    sig = draw(signatures())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return sig, rng, [draw(local_ops(sig, rng)) for _ in range(n_ops)]


def _close(x, y):
    return np.abs(x - y).max() <= TOL * max(1.0, np.abs(y).max())


@SETTINGS
@given(cases())
def test_matrix_is_local_matrix_on_its_axes(case):
    sig, _, [(op, axes)] = case
    assert op.axes == tuple(axes)
    assert op.support == frozenset(sig.labels[ax] for ax in axes)
    assert np.array_equal(op.matrix, _dense(op.local, axes, sig.dims))


@SETTINGS
@given(cases(), st.integers(1, 3), st.integers(1, 2))
def test_apply_equals_dense_matmul(case, m, batch):
    sig, rng, [(op, _)] = case
    d = sig.total_dim
    full = op.matrix
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    stack = rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))
    rho = _random_matrix(rng, d)
    batched = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
    for x in (vec, stack, rho, batched):
        got = op.apply(x)
        assert got.shape == x.shape
        assert _close(got, full @ x)


@SETTINGS
@given(cases())
def test_states_see_the_dense_operator(case):
    sig, rng, [(op, _)] = case
    d = sig.total_dim
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = StateVector(sig, amps / np.linalg.norm(amps))
    rho = psi.to_density()
    full = op.matrix
    assert abs(expectation(psi, op) - np.vdot(psi.amplitudes, full @ psi.amplitudes)) <= TOL * d
    assert abs(expectation(rho, op) - np.trace(rho.matrix @ full)) <= TOL * d
    assert _close(apply_operator(psi, op).amplitudes, full @ psi.amplitudes)
    assert _close(apply_operator(rho, op).matrix, full @ rho.matrix @ full.conj().T)


@SETTINGS
@given(cases(n_ops=2), st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
def test_algebra_equals_dense_algebra(case, scalar):
    sig, _, [(a, ax_a), (b, ax_b)] = case
    fa, fb = a.matrix, b.matrix
    union = tuple(sorted(set(ax_a) | set(ax_b)))
    for got, want in (
        (a @ b, fa @ fb),
        (b @ a, fb @ fa),
        (a + b, fa + fb),
        (a - b, fa - fb),
    ):
        assert got.axes == union
        assert got.support == a.support | b.support
        assert _close(got.matrix, want)
    assert np.array_equal(a.dag().matrix, fa.conj().T)
    assert a.dag().axes == a.axes
    assert np.array_equal((scalar * a).matrix, _dense(a.local * scalar, ax_a, sig.dims))
    assert np.array_equal((a * scalar).local, (scalar * a).local)
    assert np.array_equal((-a).matrix, -fa)


@SETTINGS
@given(cases())
def test_full_space_constructor_and_identity(case):
    sig, rng, [(op, _)] = case
    full = LabeledOperator(sig, op.matrix, op.support, "full")
    assert full.axes == tuple(range(len(sig.factors)))
    assert full.matrix is full.local
    ident = identity_operator(sig)
    assert ident.axes == ()
    assert np.array_equal(ident.matrix, np.eye(sig.total_dim))
    assert np.array_equal((op @ ident).matrix, op.matrix)
    assert _close((full @ op).matrix, op.matrix @ op.matrix)


@SETTINGS
@given(cases(), st.booleans())
def test_delta_is_operator_minus_mean_identity_bit_for_bit(case, mixed):
    sig, rng, [(op, axes)] = case
    d = sig.total_dim
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    state = StateVector(sig, amps / np.linalg.norm(amps))
    if mixed:
        g = _random_matrix(rng, d)
        state = DensityMatrix(sig, g @ g.conj().T / np.trace(g @ g.conj().T))
    named = embed_many(op.local, [sig.labels[ax] for ax in axes], sig, "x")
    centered = operators.delta(named, state)
    expected = named - expectation(state, named) * identity_operator(sig)
    assert np.array_equal(centered.matrix, expected.matrix)
    assert centered.axes == named.axes
    assert centered.support == named.support
    assert centered.name == "delta(x)"


def test_lur_tmsv_never_forms_a_full_space_matrix(tmp_path):
    # D = 64^2 = 4096: one dense complex D x D matrix takes 268 MB
    out = tmp_path / "lur.csv"
    argv = ["lur", "--mode", "tmsv", "--fock-dim", "64", "--r-values", "0.3", "--output", str(out)]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20, f"peak traced allocation {peak / 2**20:.1f} MB"


@st.composite
def disjoint_pairs(draw):
    """Two operators with random locals on disjoint, possibly interleaved, factor subsets.

    Two or three factors; each operator takes its factors in a random order,
    so that one may sit between the factors of the other (axes (2, 0)
    against (1,)).  The locals are complex, or real-valued (complex dtype,
    zero imaginary parts).
    """
    sig = draw(signatures().filter(lambda s: len(s.factors) <= 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    order = draw(st.permutations(range(len(sig.factors))))
    cut = draw(st.integers(1, len(order) - 1))
    pair = []
    for axes in (order[:cut], order[cut:]):
        local = _random_matrix(rng, int(np.prod([sig.dims[ax] for ax in axes])))
        pair.append(embed_many(local.real.astype(complex) if real else local, [sig.labels[ax] for ax in axes], sig))
    return sig, rng, real, pair


@SETTINGS
@given(disjoint_pairs())
def test_a_product_on_disjoint_factors_is_the_kronecker_product(case):
    sig, rng, real, (a, b) = case
    ab, ba = a @ b, b @ a
    fa, fb = a.matrix, b.matrix
    assert ab.axes == ba.axes == tuple(sorted(a.axes + b.axes))
    assert ab.local.tobytes() == ba.local.tobytes()
    dense = fa @ fb
    if real:
        assert np.array_equal(ab.matrix, dense)  # by value: the sign of a zero may differ
    else:
        # a complex BLAS kernel may fuse one product of an entry into its sum
        assert np.all(np.abs(ab.matrix - dense) <= 2 * np.finfo(float).eps * np.abs(dense))
    x = rng.normal(size=(sig.total_dim, 3)) + 1j * rng.normal(size=(sig.total_dim, 3))
    want = dense @ x
    assert np.abs(ab.apply(x) - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
