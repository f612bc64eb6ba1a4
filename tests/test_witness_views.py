"""Every witness view against dense references on a three-factor space.

The space is boson a (2..4) (x) qubit q (x) boson c (2..4).  A acts on
factor a and B on factor c, so the two sides are not neighbours and their
product A B (or A^dag B) spans non-adjacent factors; in some examples one
side is an ``embed_many`` operator on (q, a) given in reversed label order,
which contracts through the ``tensordot`` branch of
:meth:`LabeledOperator.apply`.  Each view of the Gram table (cond1, cond2,
the local-uncertainty sum, the moment tables of the bilinear form and the
partial-transpose cross-check) must agree to 1e-12 with ``expectation`` of
the explicit operator products, on pure states and on density matrices.
Examples are derandomized, so the suite is deterministic.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from entwitness import witnesses
from entwitness.spaces import (
    DensityMatrix,
    StateVector,
    boson,
    density_of,
    embed_many,
    expectation as ev,
    qubit,
    signature,
)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _side_ops(rng, sig, labels, count):
    dim = int(np.prod([sig.factor(lab).dim for lab in labels]))
    return [embed_many(_complex(rng, (dim, dim)), labels, sig) for _ in range(count)]


@st.composite
def cases(draw):
    """(state, ops_a, ops_b): one to three operators per side."""
    sig = signature(
        boson("a", draw(st.integers(2, 4))), qubit("q"), boson("c", draw(st.integers(2, 4)))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels_a = ["q", "a"] if draw(st.booleans()) else ["a"]
    ops_a = _side_ops(rng, sig, labels_a, draw(st.integers(1, 3)))
    ops_b = _side_ops(rng, sig, ["c"], draw(st.integers(1, 3)))
    d = sig.total_dim
    if draw(st.booleans()):
        psi = _complex(rng, d)
        state = StateVector(sig, psi / np.linalg.norm(psi))
    else:
        g = _complex(rng, (d, draw(st.integers(1, d))))
        rho = g @ g.conj().T
        state = DensityMatrix(sig, rho / np.trace(rho))
    return state, ops_a, ops_b


def _close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() <= rtol * max(1.0, np.abs(want).max())


def test_reversed_embed_many_side_contracts_by_tensordot(monkeypatch):
    sig = signature(boson("a", 3), qubit("q"), boson("c", 2))
    rng = np.random.default_rng(7)
    (a,), (b,) = _side_ops(rng, sig, ["q", "a"], 1), _side_ops(rng, sig, ["c"], 1)
    state = StateVector(sig, np.ones(sig.total_dim) / np.sqrt(sig.total_dim))
    calls = []
    tensordot = np.tensordot

    def counted(*args, **kwargs):
        calls.append(1)
        return tensordot(*args, **kwargs)

    monkeypatch.setattr(np, "tensordot", counted)
    witnesses.cond1(state, a, b)
    assert calls


@SETTINGS
@given(cases())
def test_base_tests_match_dense_products(case):
    state, ops_a, ops_b = case
    a, b = ops_a[0], ops_b[0]
    rep1, rep2 = witnesses.cond1(state, a, b), witnesses.cond2(state, a, b)
    assert _close(
        [rep1.lhs, rep1.rhs],
        [abs(ev(state, a.dag() @ b)) ** 2, ev(state, a.dag() @ a @ b.dag() @ b).real],
    )
    assert _close(
        [rep2.lhs, rep2.rhs],
        [abs(ev(state, a @ b)) ** 2, ev(state, a.dag() @ a).real * ev(state, b.dag() @ b).real],
    )


@SETTINGS
@given(cases())
def test_ppt_crosscheck_matches_dense_products_and_partial_transpose(case):
    state, ops_a, ops_b = case
    a, b = ops_a[0], ops_b[0]
    chk = witnesses.ppt_crosscheck(state, a, b)
    assert chk.cond1 == witnesses.cond1(state, a, b)
    assert chk.cond2 == witnesses.cond2(state, a, b)
    # transpose every factor A acts on, with the full density matrix
    sig = state.signature
    rho = density_of(state)
    n = len(sig.dims)
    t = rho.reshape(sig.dims * 2)
    for ax in a.axes:
        perm = list(range(2 * n))
        perm[ax], perm[ax + n] = ax + n, ax
        t = t.transpose(perm)
    pt = t.reshape(rho.shape)
    want = np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0]
    assert abs(chk.min_eigenvalue - want) <= 1e-12


@SETTINGS
@given(cases())
def test_local_uncertainty_sum_matches_dense_products(case):
    state, ops_a, ops_b = case
    pairs = list(zip(ops_a, ops_b))
    want = 0.0
    for a, b in pairs:
        d = a + b
        want += ev(state, d.dag() @ d).real - abs(ev(state, d)) ** 2
    rep = witnesses.lur_value(state, pairs, 1.0)
    assert rep.lhs == 1.0
    assert _close(rep.rhs, want)


@SETTINGS
@given(cases())
def test_bilinear_moment_tables_match_dense_products(case):
    state, ops_a, ops_b = case
    c, t = witnesses._moments(state, ops_a, ops_b)
    want_c = [[ev(state, f.dag() @ g) for g in ops_b] for f in ops_a]
    want_t = [
        [[[ev(state, f.dag() @ f2 @ g.dag() @ g2) for g2 in ops_b] for f2 in ops_a] for g in ops_b]
        for f in ops_a
    ]
    assert _close(c, want_c)
    assert _close(t, want_t)
    x = witnesses.bilinear_form(state, ops_a, ops_b).matrix
    assert _close(x, witnesses.form_from_moments(np.array(want_c), np.array(want_t)))
