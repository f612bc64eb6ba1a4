"""Diagonal-stored locals agree with the dense locals they replace.

A one-factor local whose nonzero entries are real and lie on one diagonal
(a, a^dag, the number operator, the leakage projector) is built as a
``bands.Band``, (offset, values, zero), and ``spaces.LabeledOperator`` stores
what it is given.  These properties draw signatures of one to three
factors, a band factor at any position, any offset and random real values,
and compare the operator embedded from the band with its dense twin, the
same local embedded as a dense array.  Every comparison is exact:
``.local`` and ``.matrix`` bit for bit, signed zeros included, and
``apply`` under ``np.array_equal`` on a
vector, a (D, m) stack, a density matrix and a batch of each; likewise
``dag``, scalar ``*``, ``-op``, ``ops.delta`` (mean zero and nonzero),
``@`` and ``+``, the charge step and the sector blocks.
"""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import bands, cli
from entwitness import operators as ops
from entwitness import spaces
from entwitness.spaces import (
    LabeledOperator,
    StateVector,
    basis_state,
    boson,
    embed,
    embed_many,
    leakage_projector,
    qubit,
    signature,
)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
SIGNED_ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
SCALARS = (-1.0, 2.5, 0.0, -0.0, np.float64(-0.5), 3, 1j, 2 - 3j, np.complex128(-1 + 0j))


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and np.array_equal(_bits(x), _bits(y))


@st.composite
def band_cases(draw):
    """A signature of 1-3 factors, the band factor's label, a one-diagonal local, its band, and an rng."""
    n = draw(st.integers(1, 3))
    at = draw(st.integers(0, n - 1))
    factors = []
    for i in range(n):
        if i != at and draw(st.booleans()):
            factors.append(qubit(f"q{i}"))
        else:
            factors.append(boson(f"m{i}", draw(st.integers(2, 6))))
    sig = signature(*factors)
    d = sig.dims[at]
    offset = draw(st.integers(-(d - 1), d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=d - abs(offset))
    values[rng.random(values.size) < 0.2] = 0.0  # zero entries on the band too, but not only
    values[rng.integers(values.size)] = 1.0 + rng.random()
    # every entry off the band holds one complex zero, of any signs (a^dag as a.conj().T has -0j)
    zero = draw(st.sampled_from(SIGNED_ZEROS))
    local = np.full((d, d), zero)
    rows = np.arange(d - abs(offset))
    local[rows + max(-offset, 0), rows + max(offset, 0)] = values
    band = bands.Band(offset, local.diagonal(offset).copy(), np.complex128(zero))
    return sig, sig.labels[at], local, band, rng


def _inputs(rng, d):
    """A vector, a (D, m) stack, a density matrix, and a batch of stacks and of density matrices."""

    def z(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    g = z(d, d)
    return [z(d), z(d, 3), g @ g.conj().T, z(2, d, 2), z(2, d, d)]


def _assert_same(band_op, dense_op, rng):
    """Same storage-independent behaviour: local and matrix bits, apply, charge step, blocks."""
    sig = band_op.signature
    assert band_op.axes == dense_op.axes
    assert band_op.support == dense_op.support
    assert band_op.name == dense_op.name
    assert _same_bits(band_op.local, dense_op.local)
    assert _same_bits(band_op.matrix, dense_op.matrix)
    for x in _inputs(rng, sig.total_dim):
        got = band_op.apply(x)
        assert got.shape == x.shape
        assert np.array_equal(got, dense_op.apply(x))
    assert spaces._charge_step(band_op) == spaces._charge_step(dense_op)
    for at in sig.block_indices:
        want = LabeledOperator(sig, dense_op.local, axes=dense_op.axes)._block(at)
        assert _same_bits(LabeledOperator(sig, band_op.local, axes=band_op.axes)._block(at), want)
    for got, want in zip(band_op._sector_blocks(), dense_op._sector_blocks()):
        assert _same_bits(got, want)


@SETTINGS
@given(band_cases())
def test_a_one_diagonal_local_is_stored_by_its_diagonal_and_matches_its_dense_twin(case):
    sig, label, local, band, rng = case
    op = embed(band, label, sig, "x")
    twin = embed(local, label, sig, "x")
    assert op._band is not None and op._local is None
    assert twin._band is None
    _assert_same(op, twin, rng)
    assert op._local is not None  # ``.local`` is kept once built
    assert op.local is op.local


@SETTINGS
@given(band_cases(), st.sampled_from(SCALARS))
def test_dag_scalar_and_negation_carry_the_diagonal_bit_for_bit(case, scalar):
    sig, label, local, band, rng = case
    op, twin = embed(band, label, sig, "x"), embed(local, label, sig, "x")
    for derive in (
        lambda o: o.dag(),
        lambda o: -o,
        lambda o: o.dag().dag(),
        lambda o: -o.dag(),
        lambda o: scalar * o,
        lambda o: o * scalar,
        lambda o: (scalar * o).dag(),
    ):
        got, want = derive(op), derive(twin)
        _assert_same(got, want, rng)
    # a real scalar keeps the diagonal; a complex one that makes it non-real falls back to dense
    assert (scalar * op)._band is not None or (scalar * op).local.imag.any()
    assert op.dag()._band is not None and (-op)._band is not None


@SETTINGS
@given(band_cases(), st.booleans(), st.booleans())
def test_delta_keeps_the_diagonal_exactly_when_the_centred_local_has_it(case, zero_mean, mixed):
    sig, label, local, band, rng = case
    op, twin = embed(band, label, sig, "x"), embed(local, label, sig, "x")
    d = sig.total_dim
    if zero_mean:
        # a basis state: <op> sums products of which at most one is nonzero, and none
        # is when the band is off the main diagonal
        levels = {lab: int(rng.integers(dim)) for lab, dim in zip(sig.labels, sig.dims)}
        state = basis_state(sig, levels)
    else:
        amps = rng.normal(size=d) + 1j * rng.normal(size=d)
        state = StateVector(sig, amps / np.linalg.norm(amps))
    if mixed:
        state = state.to_density()
    got, want = ops.delta(op, state), ops.delta(twin, state)
    _assert_same(got, want, rng)
    assert got.name == "delta(x)"
    mean = spaces.expectation(state, op)
    offset = op._band.offset
    if offset == 0:
        assert (got._band is not None) == (mean.imag == 0)
    elif mean == 0:
        assert got._band is op._band
    else:
        assert got._band is None


@SETTINGS
@given(band_cases())
def test_products_and_sums_with_a_diagonal_local_read_the_same_local(case):
    sig, label, local, band, rng = case
    op, twin = embed(band, label, sig), embed(local, label, sig)
    other_label = sig.labels[-1] if sig.labels[-1] != label else sig.labels[0]
    dim = sig.factor(other_label).dim
    other = embed_many(rng.normal(size=(dim, dim)) + 0j, [other_label], sig)
    for got, want in ((op @ other, twin @ other), (other @ op, other @ twin), (op + op.dag(), twin + twin.dag())):
        assert _same_bits(got.local, want.local)


def test_field_operators_are_stored_by_their_diagonals():
    sig = signature(boson("a", 7), qubit("q"))
    stored = {
        "a": embed(ops.annihilator_band(7), "a", sig),
        "a^dag": embed(ops.annihilator_band(7), "a", sig).dag(),
        "n": embed(ops.number_band(7), "a", sig),
        "thermal": embed(bands.Band.diagonal(ops.thermal_weights(0.05, 7)), "a", sig),
        "top two": leakage_projector(sig, "a"),
    }
    offsets = {name: op._band.offset for name, op in stored.items()}
    assert offsets == {"a": 1, "a^dag": -1, "n": 0, "thermal": 0, "top two": 0}
    # a dense local is stored as given, even one of one diagonal
    assert embed(ops.qubit_ops()["minus"], "q", sig)._band is None
    assert spaces._charge_step(stored["a"]) == 1
    assert spaces._charge_step(stored["n"]) == 0


def _one_negative_zero(local):
    local[3, 0] = complex(-0.0, 0.0)
    return local


@pytest.mark.parametrize(
    "local",
    [
        ops.annihilator(5) + ops.creator(5),  # two diagonals
        1j * ops.annihilator(5),  # complex values
        np.full((5, 5), 1.0 + 0j),
        _one_negative_zero(np.eye(5, k=2, dtype=complex)),  # a -0 among the +0 off the diagonal
    ],
    ids=["two-diagonals", "complex", "full", "zeros-of-two-signs"],
)
def test_any_other_local_stays_dense(local):
    sig = signature(boson("a", 5))
    op = embed(local, "a", sig)
    assert op._band is None
    assert _same_bits(op.local, np.asarray(local, dtype=complex))


def test_multi_factor_locals_stay_dense():
    sig = signature(boson("a", 3), boson("b", 3))
    local = np.kron(ops.number_op(3), np.eye(3))
    assert embed_many(local, ["a", "b"], sig)._band is None


@pytest.mark.parametrize(
    "argv",
    [
        ["two-mode-invariant", "--fock-dim", "64", "--r-values", "0.2,0.5"],
        ["lur", "--fock-dim", "24", "--r-values", "0.1,0.3"],
        ["noise-threshold", "--family", "pair-bilinear"],
    ],
    ids=["two-mode-invariant", "lur", "pair-bilinear"],
)
def test_ladder_runners_apply_no_dense_local_and_build_none(tmp_path, argv):
    """These runners apply only diagonal-stored locals and never read a band's ``.local``."""
    out = tmp_path / "out.csv"

    def refuse(*args, **kwargs):
        raise AssertionError("a dense local was applied or built")

    with mock.patch.object(spaces.LabeledOperator, "_contract", refuse), mock.patch.object(
        bands.Band, "dense", refuse
    ):
        assert cli.main(argv + ["--output", str(out)]) == 0
    assert list(csv.DictReader(open(out)))


@pytest.mark.parametrize("zero", SIGNED_ZEROS)
def test_a_local_of_one_signed_zero_is_a_band_of_zeros(zero):
    sig = signature(boson("a", 4), qubit("q"))
    local = np.full((4, 4), zero)
    op = embed(bands.Band(0, np.full(4, zero), np.complex128(zero)), "a", sig)
    assert op._band is not None and spaces._charge_step(op) == 0
    assert _same_bits(op.local, local)
    assert _same_bits((-op).dag().local, (-embed(local, "a", sig)).dag().local)
