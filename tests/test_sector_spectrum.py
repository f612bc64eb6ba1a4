"""Evolution by charge sector: the block spectrum of a generator that conserves excitations.

The charge of a basis state is its total level number.  A generator with
no entry between charge sectors is eigensolved block by block, one batched
``linalg.herm_eig`` per sector size, and ``evolved_expectations`` and
``evolve`` read that block spectrum; a generator that couples sectors is
one sector, the whole space.  Here ``evolved_expectations`` is checked
against ``evolve`` at every time on random charge-conserving generators,
block-diagonal density matrices and pure states in one sector; it refuses
a generator or a state that couples sectors with a ValueError, and
``evolve`` matches a dense matrix exponential either way.

The rule is one for every generator: its charge step m is the gcd of the
charge changes of its nonzero entries, and its sectors are the classes of
the charge modulo m (m = 0 the charge sectors, m = 1 the whole space, m = 2
the photon parities of a squeeze).  Generators of step 2 and 3 are checked
against the dense eigensolve and a dense matrix exponential.

A generator may also be a sum of local terms, passed as its sum expression
and eigensolved only in chosen sectors (``SectorSpectrum.of(h, charges)``),
and ``SectorSpectrum.apply`` evolves a vector confined to those sectors;
this is checked against the dense eigensolve of the summed matrix.
"""

import functools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from entwitness import linalg, spaces
from entwitness import operators as ops
from entwitness.models import dicke as dk
from entwitness.models import jaynes_cummings as jc
from entwitness.spaces import (
    DensityMatrix,
    LabeledOperator,
    SectorSpectrum,
    StateVector,
    basis_state,
    boson,
    density_of,
    embed,
    embed_many,
    evolve,
    evolved_expectations,
    expectation,
    identity_operator,
    product_state,
    qubit,
    signature,
)

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None, database=None)
TIMES = np.concatenate([[0.0, -1.3], np.linspace(0.1, 6.0, 23)])

FACTORS = {"b2": lambda lab: boson(lab, 2), "b3": lambda lab: boson(lab, 3),
           "b4": lambda lab: boson(lab, 4), "q": qubit}


def _signature(kinds):
    return signature(*(FACTORS[k](f"f{i}") for i, k in enumerate(kinds)))


def _rand(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def _same_sector(sig):
    q = sig.charges
    return q[:, None] == q[None, :]


def _conserving_h(rng, sig):
    g = _rand(rng, sig.total_dim)
    return LabeledOperator(sig, np.where(_same_sector(sig), g + g.conj().T, 0) / sig.total_dim)


def _observables(rng, sig):
    labels = sig.labels
    return [
        identity_operator(sig),
        embed(_rand(rng, sig.dims[0]), labels[0], sig),
        embed_many(_rand(rng, sig.dims[-1] * sig.dims[0]), [labels[-1], labels[0]], sig),
        LabeledOperator(sig, _rand(rng, sig.total_dim)),
        embed(ops.annihilator(sig.dims[1]) if sig.factors[1].kind == "boson" else ops.qubit_ops()["minus"],
              labels[1], sig),
    ]


def _whole(spectrum):
    """True for the one-sector spectrum, the whole space in basis order."""
    return [idx.shape for idx in spectrum.sectors] == [(1, spectrum.dim)]


def _block_diagonal_density(rng, sig):
    vecs = [rng.normal(size=sig.total_dim) + 1j * rng.normal(size=sig.total_dim) for _ in range(3)]
    rho = sum(np.outer(v, v.conj()) for v in vecs)
    rho = np.where(_same_sector(sig), rho, 0)  # the pinching keeps rho positive
    return DensityMatrix(sig, rho / np.trace(rho).real)


def _one_sector_state(rng, sig):
    q = sig.charges
    inside = q == rng.integers(q.max() + 1)
    psi = np.where(inside, rng.normal(size=q.size) + 1j * rng.normal(size=q.size), 0)
    return StateVector(sig, psi / np.linalg.norm(psi))


def _per_time(h, state, observables):
    return np.array([[expectation(evolve(h, t, state), op) for op in observables] for t in TIMES])


kinds = st.lists(st.sampled_from(sorted(FACTORS)), min_size=2, max_size=3)


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1))
def test_sector_and_dense_paths_agree(kinds, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    h = _conserving_h(rng, sig)
    assert not _whole(h._block_spectrum())
    observables = _observables(rng, sig)
    for state in (_block_diagonal_density(rng, sig), _one_sector_state(rng, sig)):
        got = evolved_expectations(h, TIMES, state, observables)
        np.testing.assert_allclose(got, _per_time(h, state, observables), rtol=0, atol=1e-12)
    u = _propagator(0.7)
    np.testing.assert_allclose(
        h._block_spectrum().function_of(u), linalg.herm_eig(h.matrix).function_of(u), rtol=0, atol=1e-12
    )


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1))
def test_an_observable_without_diagonal_blocks_reads_exactly_zero(kinds, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    q = sig.charges
    off = LabeledOperator(sig, np.where(q[:, None] == q[None, :] + 1, _rand(rng, q.size), 0))
    table = evolved_expectations(_conserving_h(rng, sig), TIMES, _block_diagonal_density(rng, sig), [off])
    assert not table.any()


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1))
def test_a_generator_with_one_cross_sector_entry_is_refused(kinds, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    m = _conserving_h(rng, sig).matrix.copy()
    i, j = 0, int(np.flatnonzero(sig.charges == 1)[0])
    m[i, j] = m[j, i] = 1e-3
    h = LabeledOperator(sig, m)
    assert _whole(h._block_spectrum())
    observables = _observables(rng, sig)
    for state in (_block_diagonal_density(rng, sig), _one_sector_state(rng, sig)):
        with pytest.raises(ValueError, match="generator has an entry between charge sectors"):
            evolved_expectations(h, TIMES, state, observables)


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1))
def test_a_state_with_weight_between_sectors_is_refused(kinds, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    h = _conserving_h(rng, sig)
    observables = _observables(rng, sig)
    i, j = 0, int(np.flatnonzero(sig.charges == 1)[0])
    rho = _block_diagonal_density(rng, sig).matrix.copy()
    rho[i, j] = rho[j, i] = 1e-9
    psi = _one_sector_state(rng, sig).amplitudes.copy()
    psi[j if psi[i] != 0 else i] = 1e-12
    good = _one_sector_state(rng, sig)
    for bad, match in ((DensityMatrix(sig, rho), "density matrix"), (StateVector(sig, psi), "state vector")):
        with pytest.raises(ValueError, match=f"the {match} has .* charge sector"):
            evolved_expectations(h, TIMES, bad, observables)
        with pytest.raises(ValueError, match=match):  # anywhere in a stack
            evolved_expectations(h, TIMES, [good, bad], observables)


def test_a_coherent_field_start_is_refused():
    sig = jc.jc_signature(12)
    h = jc.jc_hamiltonian(sig, 1.0, 0.1)
    psi = product_state(sig, {"field": ops.coherent(0.8, 12), "atom": ops.EXCITED})
    observables = [embed(ops.annihilator(12), "field", sig, "a"), *jc._system(12, 1.0, 0.1)[2]]
    for state in (psi, psi.to_density()):
        with pytest.raises(ValueError, match="charge sector"):
            evolved_expectations(h, TIMES, state, observables)


def test_a_stacked_herm_eig_raises_for_its_worst_non_hermitian_block():
    rng = np.random.default_rng(7)
    g = _rand(rng, 3)
    stack = np.stack([g + g.conj().T] * 5)
    stack[1, 0, 2] += 1e-6
    stack[3, 2, 1] += 1e-3
    with pytest.raises(linalg.NonHermitianError) as err:
        linalg.herm_eig(stack)
    assert err.value.max_asymmetry == pytest.approx(1e-3)
    ed = linalg.herm_eig(stack[[0, 2, 4]])
    assert ed.eigenvalues.shape == (3, 3) and ed.eigenvectors.shape == (3, 3, 3)
    np.testing.assert_allclose(ed.function_of(lambda w: w), stack[[0, 2, 4]], rtol=0, atol=1e-12)


@pytest.fixture
def eig_shapes(monkeypatch):
    shapes = []
    real = linalg.herm_eig

    def recording(h, *args, **kwargs):
        shapes.append(np.shape(h))
        return real(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "herm_eig", recording)
    return shapes


def test_size_one_sectors_need_no_eigensolve(eig_shapes):
    # a single mode: every charge sector is one Fock state
    sig = signature(boson("a", 5))
    h = 0.7 * embed(ops.number_op(5), "a", sig)
    start = basis_state(sig, {"a": 3})
    table = evolved_expectations(h, TIMES, start, [embed(ops.number_op(5), "a", sig)])
    np.testing.assert_array_equal(table[:, 0], 3.0)
    u = np.stack([evolve(h, 2.0, basis_state(sig, {"a": n})).amplitudes for n in range(5)], axis=1)
    np.testing.assert_allclose(u, np.diag(np.exp(-1.4j * np.arange(5))), rtol=0, atol=1e-15)
    assert eig_shapes == []


def test_a_size_one_sector_still_passes_the_hermiticity_check(eig_shapes):
    sig = signature(boson("a", 3))
    h = LabeledOperator(sig, np.diag([0.0, 1.0 + 1e-3j, 2.0]))
    for _ in range(2):
        with pytest.raises(linalg.NonHermitianError):
            evolve(h, 0.3, basis_state(sig, {"a": 0}))
    assert eig_shapes == []


def test_a_jc_trace_makes_one_batched_eigensolve_and_no_dense_one(eig_shapes):
    cfg = jc.JCConfig(nbar=0.02, kt_grid=tuple(np.linspace(0.0, 6.0, 30)), fock_dim=20)
    jc.jc_witness_trace(cfg)
    assert eig_shapes == [(19, 2, 2)]


def test_the_nbar_of_a_run_read_one_phase_table(monkeypatch):
    systems = []
    system = jc._system

    def recording_system(*args):
        systems.append(system(*args))
        return systems[-1]

    read = []
    phases = SectorSpectrum.phases

    def recording_phases(self, times):
        read.append(phases(self, times))
        return read[-1]

    monkeypatch.setattr(jc, "_system", recording_system)
    monkeypatch.setattr(SectorSpectrum, "phases", recording_phases)
    kt = tuple(np.linspace(0.0, 6.0, 30))
    traces = jc.jc_witness_traces(jc.JCConfig(nbar=nbar, kt_grid=kt) for nbar in (0.01, 0.03))
    assert [t.fock_dim for t in traces] == [20, 20]
    assert len(systems) == 1
    tables = systems[0][1]._block_spectrum()._phases[1]
    assert read and all(t is tables for t in read)
    assert [t.shape for t in tables] == [(30, 0), (30, 2 * 19)]


def _local_charges(sig, axes):
    charge = np.zeros(1, dtype=int)
    for ax in axes:
        charge = (charge[:, None] + np.arange(sig.dims[ax])).ravel()
    return charge


def _conserving_terms(rng, sig):
    """Three to five random Hermitian terms, each on one or two factors (in random order).

    Each term conserves the level sum over its own factors.
    """
    terms = []
    for i in range(rng.integers(3, 6)):
        axes = [int(ax) for ax in rng.permutation(len(sig.factors))[: rng.integers(1, 3)]]
        q = _local_charges(sig, axes)
        g = _rand(rng, q.size)
        local = np.where(q[:, None] == q[None, :], g + g.conj().T, 0)
        terms.append(LabeledOperator(sig, local, name=f"term{i}", axes=axes))
    return terms


def _confined_vector(rng, sig, charges):
    inside = np.isin(sig.charges, charges)
    psi = np.where(inside, rng.normal(size=sig.total_dim) + 1j * rng.normal(size=sig.total_dim), 0)
    return psi / np.linalg.norm(psi)


def _some_charges(rng, sig):
    top = int(sig.charges.max())
    return rng.choice(top + 1, size=rng.integers(1, min(3, top) + 1), replace=False)


def _propagate(w):
    return np.exp(-1.7j * w)


def _propagator(t):
    return lambda w: np.exp(-1j * w * t)


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1))
def test_a_sum_of_local_terms_evolves_a_vector_as_the_dense_sum_does(kinds, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    terms = _conserving_terms(rng, sig)
    charges = _some_charges(rng, sig)
    psi = _confined_vector(rng, sig, charges)
    want = linalg.herm_eig(sum(t.matrix for t in terms)).function_of(_propagate) @ psi
    h = functools.reduce(operator.add, terms)
    got = SectorSpectrum.of(h, charges).apply(_propagate, psi)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # every sector, and one term alone, read the same way
    np.testing.assert_allclose(SectorSpectrum.of(h).apply(_propagate, psi), want, rtol=0, atol=1e-12)
    one = SectorSpectrum.of(terms[0], charges).apply(_propagate, psi)
    np.testing.assert_allclose(one, linalg.herm_eig(terms[0].matrix).function_of(_propagate) @ psi, rtol=0, atol=1e-12)


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1))
def test_a_term_with_one_cross_sector_entry_is_refused(kinds, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    terms = _conserving_terms(rng, sig)
    bad = terms[-1]
    q = _local_charges(sig, bad.axes)
    local = bad.local.copy()
    j = int(np.flatnonzero(q == 1)[rng.integers(np.count_nonzero(q == 1))])
    local[0, j] = local[j, 0] = 1e-9
    terms[-1] = LabeledOperator(sig, local, name="leaky", axes=bad.axes)
    # one leaky operator alone is eigensolved whole, even when asked for one charge
    d = sig.total_dim
    assert [idx.shape for idx in SectorSpectrum.of(terms[-1], [0]).sectors] == [(1, d)]
    assert _whole(terms[-1]._block_spectrum())
    # and so is a sum that holds it
    h = functools.reduce(operator.add, terms)
    assert [idx.shape for idx in SectorSpectrum.of(h, [0]).sectors] == [(1, d)]
    assert _whole(h._block_spectrum())


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1))
def test_a_vector_with_weight_outside_the_built_sectors_is_refused(kinds, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    charges = _some_charges(rng, sig)
    spectrum = SectorSpectrum.of(functools.reduce(operator.add, _conserving_terms(rng, sig)), charges)
    psi = _confined_vector(rng, sig, charges)
    stray = int(rng.choice(np.flatnonzero(~np.isin(sig.charges, charges))))
    psi[stray] = 1e-12
    with pytest.raises(ValueError, match="outside"):
        spectrum.apply(_propagate, psi)


def test_the_dicke_oracle_eigensolves_only_the_sectors_its_start_vector_occupies(eig_shapes):
    field = (ops.fock(0, 5) + ops.fock(2, 5)) / math.sqrt(2)
    dk.evolve_three_mode(dk.DickeConfig(4, 2, field, 1.5, dims=(5, 5, 5)), (5, 5, 5))
    # charge 0 is one basis state; charge 2 is the six states with n_a + n_x1 + n_x2 = 2
    assert eig_shapes == [(1, 6, 6)]


def test_a_dicke_oracle_evolution_forms_no_full_space_matrix():
    cfg = dk.DickeConfig(4, 2, ops.squeezed_vacuum(0.3, 16), (math.pi / 3) / 0.2, dims=(20, 20, 20))
    dk.evolve_three_mode(cfg, (20, 20, 20))
    tracemalloc.start()
    try:
        dk.evolve_three_mode(cfg, (20, 20, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # one 8000 x 8000 complex array alone is 977 MiB


def _coupling_h(rng, sig):
    g = _rand(rng, sig.total_dim)
    return LabeledOperator(sig, (g + g.conj().T) / sig.total_dim)


@SETTINGS
@given(
    kinds=kinds,
    seed=st.integers(0, 2**32 - 1),
    coupling=st.booleans(),
    t=st.floats(-5.0, 5.0, allow_nan=False),
)
def test_evolution_matches_a_dense_matrix_exponential(kinds, seed, coupling, t):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    h = (_coupling_h if coupling else _conserving_h)(rng, sig)
    assert _whole(h._block_spectrum()) == coupling
    u = linalg.mat_exp(-1j * t * h.matrix)
    psi = rng.normal(size=sig.total_dim) + 1j * rng.normal(size=sig.total_dim)
    psi = StateVector(sig, psi / np.linalg.norm(psi))
    np.testing.assert_allclose(evolve(h, t, psi).amplitudes, u @ psi.amplitudes, rtol=0, atol=1e-12)
    rho = DensityMatrix(sig, (_block_diagonal_density(rng, sig).matrix + psi.to_density().matrix) / 2)
    np.testing.assert_allclose(evolve(h, t, rho).matrix, u @ rho.matrix @ u.conj().T, rtol=0, atol=1e-12)
    # both states couple sectors (and a coupling H is no sector spectrum): refused
    observables = _observables(rng, sig)
    for state in (psi, rho):
        with pytest.raises(ValueError, match="charge sector"):
            evolved_expectations(h, [t], state, observables)


@SETTINGS
@given(kinds=kinds, seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4))
def test_apply_to_a_stack_is_apply_column_by_column(kinds, seed, m):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    charges = _some_charges(rng, sig)
    stack = np.stack([_confined_vector(rng, sig, charges) for _ in range(m)], axis=1)
    for spectrum in (
        SectorSpectrum.of(functools.reduce(operator.add, _conserving_terms(rng, sig)), charges),
        _conserving_h(rng, sig)._block_spectrum(),
        _coupling_h(rng, sig)._block_spectrum(),
    ):
        got = spectrum.apply(_propagate, stack)
        assert got.shape == stack.shape
        want = np.stack([spectrum.apply(_propagate, col) for col in stack.T], axis=1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_evolving_a_vector_forms_no_full_space_matrix():
    sig = jc.jc_signature(1000)
    h = jc.jc_hamiltonian(sig, 1.0, 0.1)
    start = basis_state(sig, {"field": 3, "atom": 1})
    evolve(h, 2.3, start)  # H's spectrum is built and kept from here on
    tracemalloc.start()
    try:
        psi = evolve(h, 2.3, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20  # one 2000 x 2000 complex array alone is 61 MiB
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12


def test_a_coherent_field_needs_no_dense_eigensolve(eig_shapes):
    dim, alpha = 20, 0.8
    n = np.arange(dim)
    field = alpha**n / np.sqrt([math.factorial(k) for k in n])  # no displacement eigensolve
    sig = jc.jc_signature(dim)
    h = jc.jc_hamiltonian(sig, 1.0, 0.1)
    psi = product_state(sig, {"field": field / np.linalg.norm(field), "atom": ops.EXCITED})
    a = embed(ops.annihilator(dim), "field", sig, "a")
    observables = [a, embed(ops.qubit_ops()["minus"], "atom", sig), a.dag() @ a]
    for state in (psi, psi.to_density()):
        with pytest.raises(ValueError, match="charge sector"):
            evolved_expectations(h, TIMES, state, observables)
    assert eig_shapes == [(19, 2, 2)]


def _stepped_h(rng, sig, m):
    """A random Hermitian operator on some factors whose entries change the charge by multiples of m only.

    Its charge range over those factors is at least m, so its step is m.
    """
    axes = [int(ax) for ax in rng.permutation(len(sig.factors))[: rng.integers(1, len(sig.factors) + 1)]]
    if sum(sig.dims[ax] - 1 for ax in axes) < m:
        axes = [int(ax) for ax in rng.permutation(len(sig.factors))]
    q = _local_charges(sig, axes)
    g = _rand(rng, q.size)
    local = np.where((q[:, None] - q[None, :]) % m == 0, g + g.conj().T, 0) / q.size
    return LabeledOperator(sig, local, axes=axes)


@SETTINGS
@given(
    kinds=st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3),
    m=st.sampled_from([2, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_generator_of_charge_step_m_is_eigensolved_on_the_charge_classes_mod_m(kinds, m, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    q = sig.charges
    assume(q.max() >= m)
    h = _stepped_h(rng, sig, m)
    spectrum = h._block_spectrum()
    rows = [row for idx in spectrum.sectors for row in idx]
    assert sorted(int(q[row[0]]) % m for row in rows) == list(range(m))
    for row in rows:
        np.testing.assert_array_equal(row, np.flatnonzero(q % m == q[row[0]] % m))
    dense = linalg.herm_eig(h.matrix)
    u = _propagator(0.7)
    np.testing.assert_allclose(spectrum.function_of(u), dense.function_of(u), rtol=0, atol=1e-12)
    stack = rng.normal(size=(sig.total_dim, 2)) + 1j * rng.normal(size=(sig.total_dim, 2))
    np.testing.assert_allclose(spectrum.apply(u, stack), dense.function_of(u) @ stack, rtol=0, atol=1e-12)
    psi = StateVector(sig, stack[:, 0] / np.linalg.norm(stack[:, 0]))
    pinched = _block_diagonal_density(rng, sig)
    # states that couple charge sectors, and states that do not (H still couples them)
    states = [psi, DensityMatrix(sig, (pinched.matrix + psi.to_density().matrix) / 2),
              pinched, _one_sector_state(rng, sig)]
    observables = [identity_operator(sig), embed(_rand(rng, sig.dims[0]), sig.labels[0], sig),
                   LabeledOperator(sig, _rand(rng, sig.total_dim))]
    for state in states:
        with pytest.raises(ValueError, match="generator has an entry between charge sectors"):
            evolved_expectations(h, TIMES, state, observables)
    for t in TIMES:
        ut = linalg.mat_exp(-1j * t * h.matrix)
        for state in states:
            rho_t = ut @ density_of(state) @ ut.conj().T
            np.testing.assert_allclose(density_of(evolve(h, t, state)), rho_t, rtol=0, atol=1e-12)


@SETTINGS
@given(
    kinds=st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3),
    fill=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_charge_changes_of_a_dense_local_are_those_of_its_nonzero_entries(kinds, fill, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    axes = [int(ax) for ax in rng.permutation(len(sig.factors))[: rng.integers(1, len(sig.factors) + 1)]]
    q = _local_charges(sig, axes)
    local = np.where(rng.random((q.size, q.size)) < fill, _rand(rng, q.size), 0)
    rows, cols = np.nonzero(local)
    want = {int(q[i] - q[j]) for i, j in zip(rows, cols)}
    assert spaces._charge_changes(LabeledOperator(sig, local, axes=axes)) == want


def _whole_table_changes(sig, axes, local) -> frozenset:
    """A dense local's charge changes read from its whole difference table at once."""
    q = _local_charges(sig, axes)
    counts = np.bincount(np.subtract.outer(q, q)[local != 0] + q[-1])
    return frozenset((np.flatnonzero(counts) - q[-1]).tolist())


@SETTINGS
@given(
    kinds=st.lists(st.sampled_from(sorted(FACTORS)), min_size=1, max_size=3),
    fill=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    block_bytes=st.sampled_from([1, 9 * 5, 2**10, spaces._BLOCK_BYTES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_charge_changes_read_by_row_blocks_equal_the_whole_table(kinds, fill, block_bytes, seed):
    rng = np.random.default_rng(seed)
    sig = _signature(kinds)
    axes = [int(ax) for ax in rng.permutation(len(sig.factors))[: rng.integers(1, len(sig.factors) + 1)]]
    q = _local_charges(sig, axes)
    local = np.where(rng.random((q.size, q.size)) < fill, _rand(rng, q.size), 0)
    with mock.patch.object(spaces, "_BLOCK_BYTES", block_bytes):  # one row per block, up to the whole local
        got = spaces._charge_changes(LabeledOperator(sig, local, axes=axes))
    assert got == _whole_table_changes(sig, axes, local)


def test_the_charge_changes_of_a_large_dense_local_hold_no_whole_difference_table():
    """At fock 1024 the squeeze generator's changes are read in row blocks of at most
    ``_BLOCK_BYTES``, where the whole intp table and its mask took 9.0 MiB."""
    n = np.arange(2, 1024)
    local = np.zeros((1024, 1024), dtype=complex)  # (a^2 - a^dag^2) / 2i, stored dense
    local[n - 2, n] = -0.5j * np.sqrt(n * (n - 1.0))
    local[n, n - 2] = 0.5j * np.sqrt(n * (n - 1.0))
    term = LabeledOperator(signature(boson("a", 1024)), local)
    tracemalloc.start()
    try:
        changes = spaces._charge_changes(term)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert changes == {-2, 2}
    assert peak <= spaces._BLOCK_BYTES + 2**17


def test_an_operator_of_charge_steps_2_and_3_is_whole(eig_shapes):
    sig = signature(qubit("q"), boson("a", 4))
    local = np.zeros((4, 4))
    local[0, 2] = local[2, 0] = 1.0
    local[0, 3] = local[3, 0] = 0.5
    h = embed(local, "a", sig)
    assert _whole(h._block_spectrum())
    assert [idx.shape for idx in SectorSpectrum.of(h, [0]).sectors] == [(1, 8)]
    assert eig_shapes == [(1, 8, 8), (1, 8, 8)]
    u = _propagator(1.3)
    np.testing.assert_allclose(
        h._block_spectrum().function_of(u), linalg.herm_eig(h.matrix).function_of(u), rtol=0, atol=1e-12
    )


def test_a_whole_block_is_the_generator_itself_with_no_copy():
    """A charge-step-1 generator on every factor is eigensolved from its own local matrix.

    At dim 512 the peak is set by the displacement generator, three complex
    512 x 512 arrays (12 MiB) alive at once; reading the whole block entry
    by entry (``LabeledOperator._block``) would hold a fourth (16.1 MiB).
    """
    tracemalloc.start()
    try:
        spectrum = ops._unit_spectrum.__wrapped__("displacement", 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _whole(spectrum)
    assert peak <= 3 * 16 * 512**2 + 2**18
