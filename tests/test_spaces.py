import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import linalg, operators, spaces
from entwitness.spaces import (
    DensityMatrix,
    LeakageError,
    SignatureError,
    StateVector,
    basis_state,
    boson,
    embed,
    embed_many,
    escalate_fock_dim,
    evolve,
    expectation,
    identity_operator,
    leakage,
    product_state,
    qubit,
    require_low_leakage,
    signature,
)

from conftest import max_phase_free_error


def test_signature_rejects_duplicate_labels():
    with pytest.raises(SignatureError):
        signature(boson("a", 4), boson("a", 4))


def test_signature_dims_and_axis():
    sig = signature(boson("field", 5), qubit("atom"))
    assert sig.dims == (5, 2)
    assert sig.total_dim == 10
    assert sig.axis("atom") == 1
    with pytest.raises(SignatureError):
        sig.axis("nope")


def test_embed_matches_kron_layout():
    sig = signature(qubit("atom"), boson("field", 5))
    sm = operators.qubit_ops()["minus"]
    op = embed(sm, "atom", sig)
    assert np.allclose(op.matrix, np.kron(sm, np.eye(5)))
    assert op.support == frozenset({"atom"})

    sig2 = signature(boson("field", 5), qubit("atom"))
    op2 = embed(sm, "atom", sig2)
    assert np.allclose(op2.matrix, np.kron(np.eye(5), sm))


def test_embed_identity_is_global_identity():
    sig = signature(boson("a", 3), qubit("q"))
    op = embed(np.eye(3), "a", sig)
    assert np.allclose(op.matrix, np.eye(6))


def test_embed_dimension_mismatch():
    sig = signature(boson("a", 3), qubit("q"))
    with pytest.raises(SignatureError):
        embed(np.eye(4), "a", sig)


def test_embed_many_matches_product_of_embeds():
    rng = np.random.default_rng(2)
    sig = signature(boson("a", 2), boson("b", 3), boson("c", 4))
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    pair = embed_many(np.kron(x, y), ["a", "c"], sig)
    split = embed(x, "a", sig) @ embed(y, "c", sig)
    assert np.abs(pair.matrix - split.matrix).max() < 1e-12
    assert pair.support == frozenset({"a", "c"})


def test_commuting_embeds_commute_exactly():
    rng = np.random.default_rng(4)
    sig = signature(boson("a", 3), boson("b", 4))
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    y = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    left = embed(x, "a", sig) @ embed(y, "b", sig)
    right = embed(y, "b", sig) @ embed(x, "a", sig)
    assert np.array_equal(left.matrix, right.matrix)


def test_expectation_number_on_basis_state():
    sig = signature(boson("a", 5), boson("b", 3))
    st = basis_state(sig, {"a": 2, "b": 0})
    n_a = embed(operators.number_op(5), "a", sig)
    assert expectation(st, n_a) == pytest.approx(2.0)


def test_expectation_cross_term():
    sig = signature(boson("a", 2), boson("b", 2))
    st = StateVector(sig, np.array([0, 1, 1, 0]) / np.sqrt(2))
    a = embed(operators.annihilator(2), "a", sig)
    b = embed(operators.annihilator(2), "b", sig)
    assert expectation(st, a.dag() @ b) == pytest.approx(0.5)


def test_expectation_thermal_mean_photon_number():
    sig = signature(boson("a", 40))
    rho = DensityMatrix(sig, operators.thermal(0.5, 40))
    n = embed(operators.number_op(40), "a", sig)
    got = expectation(rho, n).real
    # independent oracle: renormalized truncated geometric series
    q = 0.5 / 1.5
    w = q ** np.arange(40)
    expected = (np.arange(40) * w).sum() / w.sum()
    assert abs(got - expected) < 1e-13
    assert abs(got - 0.5) < 1e-8


def test_expectation_witness_corner_entry():
    # |psi> = (|e,0> + |g,1>)/sqrt(2):  |<sigma^+ da>|^2 - <P_e da^dag da> = 1/4
    sig = signature(boson("field", 4), qubit("atom"))
    psi = (
        basis_state(sig, {"field": 0, "atom": 1}).amplitudes
        + basis_state(sig, {"field": 1, "atom": 0}).amplitudes
    ) / np.sqrt(2)
    st = StateVector(sig, psi)
    qo = operators.qubit_ops()
    sp = embed(qo["plus"], "atom", sig)
    pe = embed(qo["p_excited"], "atom", sig)
    a = embed(operators.annihilator(4), "field", sig)
    da = operators.delta(a, st)
    m11 = abs(expectation(st, sp @ da)) ** 2 - expectation(st, pe @ da.dag() @ da).real
    assert m11 == pytest.approx(0.25, abs=1e-12)


def test_expectation_identity_is_one():
    rng = np.random.default_rng(8)
    sig = signature(boson("a", 3), qubit("q"))
    amps = rng.normal(size=6) + 1j * rng.normal(size=6)
    st = StateVector(sig, amps / np.linalg.norm(amps))
    assert abs(expectation(st, identity_operator(sig)) - 1.0) < 1e-10
    g = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho = g @ g.conj().T
    rho /= np.trace(rho)
    assert abs(expectation(DensityMatrix(sig, rho), identity_operator(sig)) - 1.0) < 1e-10


def test_expectation_hermitian_real():
    rng = np.random.default_rng(12)
    sig = signature(boson("a", 4), qubit("q"))
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    st = StateVector(sig, amps / np.linalg.norm(amps))
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (h + h.conj().T) / 2
    val = expectation(st, spaces.LabeledOperator(sig, h))
    assert abs(val.imag) <= 1e-10


def jc_hamiltonian(sig, omega=1.0, kappa=1.0):
    dim = sig.factor("field").dim
    qo = operators.qubit_ops()
    a = embed(operators.annihilator(dim), "field", sig)
    sp = embed(qo["plus"], "atom", sig)
    sm = embed(qo["minus"], "atom", sig)
    sz = embed(qo["z"], "atom", sig)
    n = embed(operators.number_op(dim), "field", sig)
    return omega * n + (omega / 2) * sz + kappa * (sp @ a + sm @ a.dag())


def test_evolve_zero_time_is_identity():
    sig = signature(boson("field", 5), qubit("atom"))
    h = jc_hamiltonian(sig)
    st = basis_state(sig, {"field": 0, "atom": 1})
    out = evolve(h, 0.0, st)
    assert np.abs(out.amplitudes - st.amplitudes).max() < 1e-12


def test_evolve_vacuum_rabi_oscillation():
    # single-excitation block rotates as cos(kt)|e,0> - i sin(kt)|g,1>
    sig = signature(boson("field", 5), qubit("atom"))
    kappa = 1.0
    h = jc_hamiltonian(sig, omega=1.0, kappa=kappa)
    st = basis_state(sig, {"field": 0, "atom": 1})
    for kt in (0.3, np.pi / 2, 2.2):
        out = evolve(h, kt / kappa, st)
        expected = np.cos(kt) * basis_state(sig, {"field": 0, "atom": 1}).amplitudes
        expected += -1j * np.sin(kt) * basis_state(sig, {"field": 1, "atom": 0}).amplitudes
        assert max_phase_free_error(out.amplitudes, expected) < 1e-10


def test_evolve_reversible_and_norm_preserving():
    rng = np.random.default_rng(17)
    sig = signature(boson("field", 6), qubit("atom"))
    h = jc_hamiltonian(sig, kappa=0.7)
    amps = rng.normal(size=12) + 1j * rng.normal(size=12)
    st = StateVector(sig, amps / np.linalg.norm(amps))
    t = 1.37
    there = evolve(h, t, st)
    back = evolve(h, -t, there)
    assert np.abs(back.amplitudes - st.amplitudes).max() < 1e-8
    assert abs(there.norm() - 1.0) < 1e-8
    e0 = expectation(st, h).real
    for tau in np.linspace(0.0, 5.0, 7):
        et = expectation(evolve(h, tau, st), h).real
        assert abs(et - e0) < 1e-8


def test_evolve_rejects_non_hermitian():
    sig = signature(qubit("atom"))
    bad = spaces.LabeledOperator(sig, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(linalg.NonHermitianError):
        evolve(bad, 1.0, basis_state(sig, {"atom": 0}))


def test_product_state_and_leakage():
    sig = signature(boson("a", 8), boson("b", 8))
    st = product_state(sig, {"a": operators.fock(7, 8), "b": operators.fock(0, 8)})
    assert leakage(st, "a") == pytest.approx(1.0)
    assert leakage(st, "b") == pytest.approx(0.0)
    with pytest.raises(LeakageError):
        require_low_leakage(st)


def test_escalate_fock_dim_doubles_until_ok():
    attempts = []

    def run(dim):
        attempts.append(dim)
        if dim < 40:
            raise LeakageError("a", 1.0, 1e-6)
        return dim

    assert escalate_fock_dim(run, 10) == 40
    assert attempts == [10, 20, 40]

    def always_bad(dim):
        raise LeakageError("a", 1.0, 1e-6)

    with pytest.raises(LeakageError):
        escalate_fock_dim(always_bad, 10, max_dim=20)


def test_require_low_leakage_returns_worst_and_raises_at_threshold():
    sig = signature(boson("a", 4), boson("b", 4), qubit("q"))
    parts = {
        "a": np.sqrt([0.9, 0.0, 0.06, 0.04]),
        "b": np.sqrt([0.7, 0.1, 0.1, 0.1]),
        "q": [0.0, 1.0],  # qubits are not bosonic factors and are never checked
    }
    st = product_state(sig, parts)
    worst = require_low_leakage(st, threshold=1.0)
    assert worst == leakage(st, "b") == pytest.approx(0.2)
    assert require_low_leakage(st, ["a"], threshold=1.0) == pytest.approx(0.1)
    assert require_low_leakage(st.to_density(), threshold=1.0) == pytest.approx(worst, abs=1e-15)
    with pytest.raises(LeakageError) as err:
        require_low_leakage(st, threshold=worst)
    assert err.value.label == "b"
    vacuum = product_state(sig, {"a": operators.fock(0, 4), "b": operators.fock(0, 4), "q": [1, 0]})
    assert require_low_leakage(vacuum) == 0.0


_factors = st.lists(
    st.one_of(st.integers(2, 5).map(lambda d: ("boson", d)), st.just(("qubit", 2))),
    min_size=1,
    max_size=4,
)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(_factors, st.data())
def test_basis_state_is_the_kron_of_one_hot_factors(kinds, data):
    sig = signature(
        *(boson(f"m{i}", d) if kind == "boson" else qubit(f"m{i}") for i, (kind, d) in enumerate(kinds))
    )
    levels = {f.label: data.draw(st.integers(0, f.dim - 1)) for f in sig.factors}
    want = linalg.kron_all([np.eye(f.dim, dtype=complex)[levels[f.label]] for f in sig.factors])
    got = basis_state(sig, levels).amplitudes
    assert got.dtype == want.dtype and got.shape == (want.size,)
    assert got.tobytes() == want.ravel().tobytes()
    # one factor pushed out of range: the first such factor names the error
    bad = data.draw(st.sampled_from(sig.factors))
    level = data.draw(st.sampled_from([-1, bad.dim, bad.dim + 3]))
    with pytest.raises(SignatureError, match=rf"^level {level} out of range for factor '{bad.label}'$"):
        basis_state(sig, {**levels, bad.label: level})


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=40))
def test_classes_group_equal_keys_by_class_size(keys):
    """Each key's basis states in ascending index, one (n, s) array per size s, keys ascending in each.

    A key below the largest with no basis state is a class of size 0.
    """
    keys = np.array(keys)
    by_size = {}
    for key in range(keys.max() + 1):
        members = np.flatnonzero(keys == key)
        by_size.setdefault(members.size, []).append(members)
    groups = spaces._classes(keys)
    assert [idx.shape for idx in groups] == [(len(by_size[s]), s) for s in sorted(by_size)]
    for idx, s in zip(groups, sorted(by_size)):
        assert np.array_equal(idx, np.array(by_size[s], dtype=np.intp))
        assert not idx.flags.writeable
