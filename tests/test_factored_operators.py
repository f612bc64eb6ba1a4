"""Factored operators read the same bits as the eager operator algebra they replace.

``+``, ``-``, scalar ``*`` and ``@`` of disjoint factors keep the
expression they were built from, and ``.local``, ``.matrix``, ``apply``
and the sector blocks are read from it.  These properties draw random
expressions over two or three factors, with dense locals (real or complex,
on one or two factors in any order) and band locals (any offset, real
values, any signed zero) at the leaves, and compare each with an eager
evaluation written out here: every ``+`` and ``-`` lifts both operands to
the union of their axes (the identity by ``np.multiply.outer``) and adds
them, a scalar multiplies the local, and ``@`` is ``np.kron`` of the locals
with the operand on the lower-numbered factor first.  Every comparison is
exact: the sector blocks against the entries of the materialised
``.matrix``, and ``.local``, ``.matrix`` and ``apply`` against the eager
locals, signed zeros included (a band leaf's ``apply`` is its shifted,
scaled copy, equal in value to the dense contraction).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

import pytest

from entwitness import operators as ops
from entwitness import spaces
from entwitness.bands import Band
from entwitness.models import jaynes_cummings as jc
from entwitness.spaces import DensityMatrix, LabeledOperator, boson, embed_many, evolved_expectations, qubit, signature

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None, database=None)
SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(_bits(x), _bits(y))


def _eager_lift(local, own, axes, dims):
    """The local on ``own`` lifted to ``axes``, as the eager algebra lifts it."""
    if own == axes:
        return local
    rest = tuple(ax for ax in axes if ax not in own)
    big = np.multiply.outer(local, np.eye(math.prod(dims[ax] for ax in rest), dtype=complex)).transpose(0, 2, 1, 3)
    return spaces._reordered(big, own + rest, axes, dims)


@st.composite
def leaves(draw, sig, rng):
    """A dense local on one or two factors (any order), or a band on one; with its (axes, local)."""
    dims = sig.dims
    if draw(st.booleans()):
        ax = draw(st.integers(0, len(dims) - 1))
        d = dims[ax]
        offset = draw(st.integers(-(d - 1), d - 1))
        values = rng.normal(size=d - abs(offset))
        values[rng.random(values.size) < 0.2] = 0.0
        band = Band(offset, values.astype(complex), np.complex128(draw(st.sampled_from(SIGNED_ZEROS))))
        return LabeledOperator(sig, band, {sig.labels[ax]}, axes=[ax]), (ax,), band.dense(d)
    axes = tuple(draw(st.permutations(range(len(dims))))[: draw(st.integers(1, 2))])
    d = math.prod(dims[ax] for ax in axes)
    local = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if draw(st.booleans()) else 0)
    local[rng.random((d, d)) < 0.3] = 0.0
    op = embed_many(np.asarray(local, dtype=complex), [sig.labels[ax] for ax in axes], sig)
    return op, axes, np.asarray(local, dtype=complex)


@st.composite
def expressions(draw, sig, rng, depth):
    """(op, axes, eager local): a leaf, or a sum, difference, scalar multiple or disjoint product."""
    kind = draw(st.sampled_from(["leaf", "sum", "scale", "kron"])) if depth else "leaf"
    if kind == "leaf":
        return draw(leaves(sig, rng))
    x, x_axes, x_local = draw(expressions(sig, rng, depth - 1))
    dims = sig.dims
    if kind == "scale":
        scalar = draw(st.sampled_from([-1.0, 2.5, -0.0, 0.3 - 1.7j, 1j, np.float64(-0.5)]))
        if x._band is not None and x._band.scaled(scalar) is not None:
            return x * scalar, x_axes, x._band.scaled(scalar).dense(dims[x_axes[0]])
        return x * scalar, x_axes, x_local * scalar
    y, y_axes, y_local = draw(expressions(sig, rng, depth - 1))
    if kind == "kron":
        if set(x_axes) & set(y_axes):
            return x, x_axes, x_local
        (first, f_axes, f_local), (second, s_axes, s_local) = sorted(
            [(x, x_axes, x_local), (y, y_axes, y_local)], key=lambda t: min(t[1])
        )
        axes = tuple(sorted(f_axes + s_axes))
        local = spaces._reordered(np.kron(f_local, s_local), f_axes + s_axes, axes, dims)
        return (x @ y if draw(st.booleans()) else y @ x), axes, local
    fn = draw(st.sampled_from([np.add, np.subtract]))
    axes = tuple(sorted(set(x_axes) | set(y_axes)))
    local = fn(_eager_lift(x_local, x_axes, axes, dims), _eager_lift(y_local, y_axes, axes, dims))
    return (x + y if fn is np.add else x - y), axes, local


@st.composite
def cases(draw):
    factors = [boson("m0", draw(st.integers(2, 4)))]
    for i in range(1, draw(st.integers(2, 3))):
        factors.append(qubit(f"q{i}") if draw(st.booleans()) else boson(f"m{i}", draw(st.integers(2, 3))))
    sig = signature(*factors)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op, axes, local = draw(expressions(sig, rng, 3))
    return sig, op, axes, local, rng


@SETTINGS
@given(cases())
def test_sector_blocks_read_from_an_expression_are_the_matrix_entries(case):
    sig, op, axes, local, _ = case
    blocks = [op._block(at) for at in sig.block_indices]  # before anything is evaluated
    everywhere = tuple(range(len(sig.factors)))
    matrix = _eager_lift(local, axes, everywhere, sig.dims)
    for idx, at, got in zip(sig.sectors, sig.block_indices, blocks):
        assert _same_bits(got, matrix[idx[:, :, None], idx[:, None, :]])
        assert _same_bits(got, LabeledOperator(sig, op.matrix)._block(at))


@SETTINGS
@given(cases())
def test_local_matrix_and_apply_equal_the_eager_algebra_bit_for_bit(case):
    sig, op, axes, local, rng = case
    eager = LabeledOperator._stored(sig, axes, op.support, "", local)
    assert op.axes == axes
    assert _same_bits(op.local, local)
    assert _same_bits(op.matrix, eager.matrix)
    x = rng.normal(size=(sig.total_dim, 2)) + 1j * rng.normal(size=(sig.total_dim, 2))
    if op._band is None:
        assert _same_bits(op.apply(x), eager.apply(x))
    else:  # a band leaf (or a real multiple of one) applies its diagonal, as it always has
        assert np.array_equal(op.apply(x), eager.apply(x))
    assert spaces._charge_step(op) == spaces._charge_step(eager)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.integers(2, 9),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_a_product_of_two_bands_on_one_factor_is_the_dense_matmul(d, seed, nonnegative):
    rng = np.random.default_rng(seed)
    sig = signature(boson("a", d), qubit("q"))
    ops_ = []
    for _ in range(2):
        offset = int(rng.integers(-(d - 1), d))
        values = rng.normal(size=d - abs(offset))
        values[rng.random(values.size) < 0.2] = 0.0
        values = (np.abs(values) if nonnegative else values).astype(complex)
        if rng.random() < 0.5:
            values = values.conj()
        zero = complex(0.0 if nonnegative else rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
        ops_.append(LabeledOperator(sig, Band(offset, values, np.complex128(zero)), axes=[0]))
    a, b = ops_
    product = a @ b
    assert _same_bits(product.local, a.local @ b.local)
    if nonnegative and abs(a._band.offset + b._band.offset) < d:
        assert product._band is not None


def test_jc_field_words_stay_bands():
    sig = signature(boson("field", 12), qubit("atom"))
    a = spaces.embed(ops.annihilator_band(12), "field", sig)
    for word in (a.dag() @ a, a @ a.dag(), a.dag() @ a.dag(), a @ a):
        assert word._band is not None


def test_the_band_factories_are_the_dense_factories():
    """Made dense, each band is its dense factory, bit for bit the np.diag formula it replaced."""
    for d in (2, 3, 17):
        a = np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1).astype(complex)
        n = np.diag(np.arange(d, dtype=float)).astype(complex)
        assert _same_bits(ops.annihilator_band(d).dense(d), ops.annihilator(d))
        assert _same_bits(ops.annihilator(d), a)
        assert _same_bits(ops.creator(d), a.conj().T)
        assert _same_bits(ops.number_band(d).dense(d), ops.number_op(d))
        assert _same_bits(ops.number_op(d), n)
    for d in (20, 40):
        for nbar in (0.0, 0.3):
            weights = ops.thermal_weights(nbar, d)
            assert _same_bits(Band.diagonal(weights).dense(d), ops.thermal(nbar, d))
            assert _same_bits(ops.thermal(nbar, d), np.diag(weights).astype(complex))


def test_a_long_chain_of_sums_reads_the_eager_bits():
    """2000 terms summed one at a time: the expression is evaluated as it deepens, never recursing far."""
    sig = signature(boson("a", 4), boson("b", 3))
    a = spaces.embed(ops.annihilator(4), "a", sig)
    b = spaces.embed(ops.annihilator(3), "b", sig)
    h = eager = None
    for k in range(2000):
        term = (a @ b.dag()) * (0.5 + k)
        h = term if h is None else h + term
        local = ((a @ b.dag()) * (0.5 + k)).local  # the same term, evaluated apart
        eager = local if eager is None else eager + local
    assert h._depth <= spaces._MAX_DEPTH + 1
    blocks = [h._block(at) for at in sig.block_indices]
    assert _same_bits(h.local, eager)
    for idx, got in zip(sig.sectors, blocks):
        assert _same_bits(got, eager[idx[:, :, None], idx[:, None, :]])


@pytest.mark.parametrize("atom", [ops.EXCITED, ops.GROUND])
@pytest.mark.parametrize("nbar", [0.0, 0.3])
def test_a_jc_start_read_by_its_blocks_gives_the_dense_start_s_table(nbar, atom):
    sig, h, observables = jc._system(16, 1.0, 0.1)
    weights = ops.thermal_weights(nbar, 16)
    projector = spaces.embed(np.outer(atom, atom.conj()), "atom", sig)
    dense = DensityMatrix(sig, np.kron(ops.thermal(nbar, 16), np.outer(atom, atom.conj())))
    times = np.linspace(0.0, 40.0, 9)
    got = evolved_expectations(h, times, jc._start(weights, projector), observables)
    assert got.tobytes() == evolved_expectations(h, times, dense, observables).tobytes()


def test_a_density_operator_with_an_entry_between_sectors_is_refused():
    sig, h, observables = jc._system(6, 1.0, 0.1)
    a = spaces.embed(ops.annihilator_band(6), "field", sig)
    with pytest.raises(ValueError, match="density operator has an entry between charge sectors"):
        evolved_expectations(h, [0.0, 1.0], a + a.dag(), observables)
