"""Stacked evaluation in ``evolved_expectations``, the call-scoped jc system, and memory.

``evolved_expectations`` reads the diagonal sector blocks of the
observables in byte-bounded stacks, one product per stack and sector size;
here it is checked against per-time ``evolve`` + ``expectation`` on a
charge-conserving H, with the byte bound shrunk so that the observables
span several stacks.  ``jc_witness_traces`` builds one system (H,
its spectrum and the moment observables) for consecutive configurations
at one truncation and couplings; a sequence of configurations must give
what a fresh process gives for each, every ``jc-thermal`` run builds its
own system, and nothing stays allocated once a call returns.  The peak bounds are the tracemalloc peaks of the per-operator
evaluation this replaced.

A stack of states gives each state the table it gets alone, bit for bit,
whatever the byte bound, and ``jc_witness_traces`` gives each config of a
batch the trace it gets alone: the stacks are capped by the bound, a
config that leaks escalates alone, and the traces keep the config order.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import operators as ops
from entwitness import spaces
from entwitness.models import jaynes_cummings as jc
from entwitness.models.jaynes_cummings import JCConfig
from entwitness.spaces import (
    DensityMatrix,
    LabeledOperator,
    StateVector,
    boson,
    embed,
    embed_many,
    evolve,
    evolved_expectations,
    expectation,
    identity_operator,
    qubit,
    signature,
)

# the sector blocks of one observable of the 12-dim test space: sectors of
# 1, 3, 4, 3 and 1 states (charges 0 to 4)
OP_BYTES = 16 * (1 + 9 + 16 + 9 + 1)


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, 2)


def _case(rng):
    """A charge-conserving H, eight observables, a vector in one sector and a block-diagonal rho."""
    sig = signature(boson("a", 3), qubit("q"), boson("b", 2))
    d = sig.total_dim
    same = sig.charges[:, None] == sig.charges[None, :]

    def rand(n):
        return _unit(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))

    g = rand(d)
    h = LabeledOperator(sig, np.where(same, g + g.conj().T, 0))
    observables = [
        embed_many(rand(6), ["a", "b"], sig),  # non-adjacent factors
        embed(rand(2), "q", sig),
        embed_many(rand(6), ["b", "a"], sig),  # non-adjacent, reversed order
        identity_operator(sig),
        embed_many(rand(4), ["b", "q"], sig),  # adjacent, reversed order
        LabeledOperator(sig, rand(d)),
        embed(rand(3), "a", sig),
        embed_many(rand(6), ["a", "b"], sig),
    ]
    psi = np.where(sig.charges == 2, rng.normal(size=d) + 1j * rng.normal(size=d), 0)
    w = rng.random(3)
    vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in w]
    rho = sum(wk * np.outer(v, v.conj()) / np.vdot(v, v).real for wk, v in zip(w / w.sum(), vecs))
    states = (StateVector(sig, psi / np.linalg.norm(psi)), DensityMatrix(sig, np.where(same, rho, 0)))
    return h, observables, states


# room for 12 observables, so one stack of all 8; 2 per stack, so four
# stacks; the default bound
@pytest.mark.parametrize("block_bytes", [12 * OP_BYTES, 1200, spaces._BLOCK_BYTES])
def test_stacked_table_matches_per_time_evolution(monkeypatch, block_bytes):
    monkeypatch.setattr(spaces, "_BLOCK_BYTES", block_bytes)
    h, observables, states = _case(np.random.default_rng(3))
    # 50 times, unsorted and repeated
    times = np.concatenate([[0.9, 0.0, -2.0, 0.9], np.linspace(0.0, 4.0, 46)])
    for state in states:
        table = evolved_expectations(h, times, state, observables)
        assert table.shape == (len(times), len(observables))
        for i, t in enumerate(times):
            evolved = evolve(h, t, state)
            want = [expectation(evolved, op) for op in observables]
            np.testing.assert_allclose(table[i], want, rtol=0, atol=1e-12)


def test_no_observables_or_no_times_give_empty_tables():
    h, observables, states = _case(np.random.default_rng(4))
    for state in states:
        assert evolved_expectations(h, [0.0, 1.0], state, []).shape == (2, 0)
        assert evolved_expectations(h, [], state, observables).shape == (0, len(observables))


KT = tuple(np.linspace(0.0, 6.0, 41))
# (nbar, fock_dim, kappa); the last escalates from 2 to 4
SEQUENCE = [(0.02, 20, 0.1), (0.03, 20, 0.1), (0.02, 20, 0.2), (0.02, 20, 0.1), (0.0, 2, 0.1)]
FIELDS = ("m11", "m22", "abs_m12", "lambda_max")

FRESH = """
import json, sys
import numpy as np
from entwitness.models import jaynes_cummings as jc
nbar, dim, kappa = json.loads(sys.argv[1])
kt = tuple(np.linspace(0.0, 6.0, 41))
tr = jc.jc_witness_trace(jc.JCConfig(nbar=nbar, kt_grid=kt, fock_dim=dim, kappa=kappa))
out = {f: [float(x).hex() for x in getattr(tr, f)] for f in %r}
out["fock_dim"] = tr.fock_dim
print(json.dumps(out))
""" % (FIELDS,)


def _fresh_process_trace(config) -> dict:
    run = subprocess.run(
        [sys.executable, "-c", FRESH, json.dumps(config)],
        capture_output=True, text=True, check=True,
    )
    out = json.loads(run.stdout)
    return {k: v if k == "fock_dim" else [float.fromhex(x) for x in v] for k, v in out.items()}


@pytest.fixture
def systems_built(monkeypatch):
    """The (dim, omega, kappa) of every jc system built."""
    built = []
    system = jc._system

    def recording_system(*args):
        built.append(args)
        return system(*args)

    monkeypatch.setattr(jc, "_system", recording_system)
    return built


def test_one_call_over_a_sequence_gives_fresh_process_results(systems_built):
    fresh = {config: _fresh_process_trace(config) for config in set(SEQUENCE)}
    cfgs = [JCConfig(nbar=nbar, kt_grid=KT, fock_dim=dim, kappa=kappa) for nbar, dim, kappa in SEQUENCE]
    for got, config in zip(jc.jc_witness_traces(cfgs), SEQUENCE):
        want = fresh[config]
        assert got.fock_dim == want["fock_dim"]
        for field in FIELDS:
            np.testing.assert_array_equal(getattr(got, field), want[field])
    # the second nbar at (20, 0.1) reused the first one's system; the last
    # config built one at 2, then escalated to 4
    assert systems_built == [(20, 1.0, 0.1), (20, 1.0, 0.2), (20, 1.0, 0.1), (2, 1.0, 0.1), (4, 1.0, 0.1)]


def test_each_jc_thermal_run_builds_its_own_system(monkeypatch, tmp_path, systems_built):
    from entwitness import cli, linalg

    sizes = []
    herm_eig = linalg.herm_eig
    def counted(h, *args, **kwargs):
        sizes.append(len(h))
        return herm_eig(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "herm_eig", counted)
    out = str(tmp_path / "jc.csv")
    argv = ["jc-thermal", "--nbar", "0.01,0.02", "--points", "5", "--output", out]
    for _ in range(2):
        assert cli.main(argv) == 0
    # one system and one spectrum of H per run, shared by its two nbar: the
    # batched eigensolve of the 19 two-state sectors of the D = 40 space
    assert systems_built == [(20, 1.0, 0.1)] * 2
    assert sizes == [19, 19]


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_first_jc_trace_at_fock_160_stays_at_per_operator_peak():
    jc.jc_witness_trace(JCConfig(nbar=0.02, kt_grid=KT))  # lazy imports outside the measurement
    cfg = JCConfig(nbar=0.02, kt_grid=tuple(np.linspace(0.0, 6.0, 600)), fock_dim=160)
    assert _peak_mib(lambda: jc.jc_witness_trace(cfg)) <= 20.0


def test_a_jc_trace_at_fock_160_keeps_nothing_once_it_returns():
    jc.jc_witness_trace(JCConfig(nbar=0.02, kt_grid=KT))  # lazy imports outside the measurement
    cfg = JCConfig(nbar=0.02, kt_grid=tuple(np.linspace(0.0, 6.0, 600)), fock_dim=160)
    tracemalloc.start()
    try:
        trace = jc.jc_witness_trace(cfg)
        retained = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    assert trace.fock_dim == 160
    assert retained < 1.0


def _jc_states(sig, dim):
    """Three starts at one jc truncation, none with an entry between charge sectors."""
    proj = [np.outer(level, level.conj()) for level in (ops.EXCITED, ops.GROUND)]
    pure = np.zeros(sig.total_dim, dtype=complex)
    pure[[2, 1]] = [0.8, -0.6]  # |1, g> and |0, e>: both of charge 1
    return [
        DensityMatrix(sig, np.kron(ops.thermal(0.3, dim), proj[0])),
        DensityMatrix(sig, np.kron(ops.thermal(0.05, dim), proj[1])),
        StateVector(sig, pure),
    ]


# the sector blocks of one observable at fock_dim 16 (D = 32): one 1 x 1 and
# fifteen 2 x 2 sectors
JC16_OP_BYTES = 16 * (1 + 15 * 4)


# all 7 observables in one stack; 2 to 4 per stack, so that a stack of one
# nonzero observable meets 2 states or all 3 at once (a product as wide as
# all of them would round their columns by its width); and one per stack,
# one state at a time
@pytest.mark.parametrize("block_bytes", [spaces._BLOCK_BYTES, *(j * JC16_OP_BYTES for j in (2, 3, 4)), 600])
def test_a_stack_of_states_gives_each_state_s_own_table_bit_for_bit(monkeypatch, block_bytes):
    monkeypatch.setattr(spaces, "_BLOCK_BYTES", block_bytes)
    sig, h, observables = jc._system(16, 1.0, 0.1)
    times = np.linspace(0.0, 40.0, 17)
    states = _jc_states(sig, 16)
    alone = [evolved_expectations(h, times, state, observables) for state in states]
    stacked = evolved_expectations(h, times, iter(states), observables)
    assert stacked.shape == (len(states), times.size, len(observables))
    for got, want in zip(stacked, alone):
        assert got.tobytes() == want.tobytes()
    assert evolved_expectations(h, times, [], observables).shape == (0, times.size, len(observables))


def test_a_batch_gives_each_config_s_own_trace_and_caps_its_stacks(monkeypatch):
    # 2.0 leaks at fock_dim 20 and escalates alone, between configs that do not
    cfgs = [JCConfig(nbar=nbar, kt_grid=KT) for nbar in (0.01, 0.5, 2.0, 0.02, 0.03)]
    stacks = []
    evaluate = jc.evolved_expectations

    def recording(h, times, states, observables):
        table = evaluate(h, times, states, observables)
        stacks.append(table.shape[0])
        return table

    monkeypatch.setattr(jc, "evolved_expectations", recording)
    per_config = 16 * len(KT) * 7  # bytes of one config's (T, K) table
    # the default; 2 configs per stack; and 1 per stack, with one observable per product
    for block_bytes, want in ((spaces._BLOCK_BYTES, [4, 1]), (2 * per_config + 1, [2, 2, 1]), (1, [1, 1, 1, 1, 1])):
        monkeypatch.setattr(spaces, "_BLOCK_BYTES", block_bytes)
        alone = [jc.jc_witness_trace(cfg) for cfg in cfgs]
        stacks.clear()
        traces = jc.jc_witness_traces(cfgs)
        assert stacks == want
        assert [t.fock_dim for t in traces] == [20, 20, 40, 20, 20]
        for got, ref in zip(traces, alone):
            for field in ("kt",) + FIELDS:
                assert getattr(got, field).tobytes() == getattr(ref, field).tobytes()
            assert got.max_leakage == ref.max_leakage


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    nbars=st.lists(st.sampled_from([0.0, 0.01, 0.3, 0.85, 2.0]), min_size=1, max_size=6),
    points=st.integers(1, 60),
    atom=st.sampled_from(["excited", "ground"]),
    # at fock_dim 12 one observable's blocks take 720 bytes
    block_bytes=st.sampled_from([spaces._BLOCK_BYTES, 20_000, 4 * 720, 3 * 720, 2 * 720]),
)
def test_batched_traces_equal_single_traces_bit_for_bit(nbars, points, atom, block_bytes):
    kt = tuple(np.linspace(0.0, 8.0, points))
    cfgs = [JCConfig(nbar=nbar, kt_grid=kt, fock_dim=12, atom_initial=atom) for nbar in nbars]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spaces, "_BLOCK_BYTES", block_bytes)
        traces = jc.jc_witness_traces(cfgs)
        for got, cfg in zip(traces, cfgs, strict=True):
            want = jc.jc_witness_trace(cfg)
            assert got.fock_dim == want.fock_dim
            assert got.max_leakage == want.max_leakage
            for field in ("kt",) + FIELDS:
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
