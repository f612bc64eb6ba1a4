"""The Jaynes-Cummings witness trace from one spectral table.

The batched trace is checked against a per-point reference kept here: the
``DensityMatrix`` from ``evolve`` at each time, ``ops.delta``,
``witness_matrix_expand_b`` and a dense ``eigvalsh`` at every grid time,
with the leakage rule applied at every point and the same escalation.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entwitness import linalg, operators as ops, witnesses
from entwitness.models.jaynes_cummings import (
    JCConfig,
    jc_hamiltonian,
    jc_signature,
    jc_witness_trace,
)
from entwitness.spaces import (
    DensityMatrix,
    LabeledOperator,
    StateVector,
    boson,
    embed,
    embed_many,
    escalate_fock_dim,
    evolve,
    evolved_expectations,
    expectation,
    qubit,
    require_low_leakage,
    signature,
)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def _reference_at_dim(cfg: JCConfig, dim: int) -> dict:
    sig = jc_signature(dim)
    h = jc_hamiltonian(sig, cfg.omega, cfg.kappa)
    sm = embed(ops.qubit_ops()["minus"], "atom", sig, "sigma-")
    a = embed(ops.annihilator(dim), "field", sig, "a")
    atom = ops.EXCITED if cfg.atom_initial == "excited" else ops.GROUND
    rho0 = DensityMatrix(sig, np.kron(ops.thermal(cfg.nbar, dim), np.outer(atom, atom.conj())))
    out = {"m11": [], "m22": [], "abs_m12": [], "lambda_max": [], "leak": 0.0}
    for kt in cfg.kt_grid:
        rho_t = evolve(h, kt / cfg.kappa, rho0)
        out["leak"] = max(out["leak"], require_low_leakage(rho_t, ["field"]))
        da = ops.delta(a, rho_t)
        m = witnesses.witness_matrix_expand_b(rho_t, sm, [da, da.dag()]).matrix
        out["m11"].append(m[0, 0].real)
        out["m22"].append(m[1, 1].real)
        out["abs_m12"].append(abs(m[0, 1]))
        out["lambda_max"].append(np.linalg.eigvalsh(m)[-1])
    out["fock_dim"] = dim
    return out


def _reference(cfg: JCConfig) -> dict:
    return escalate_fock_dim(lambda dim: _reference_at_dim(cfg, dim), cfg.fock_dim)


def _assert_matches_reference(cfg: JCConfig):
    got, want = jc_witness_trace(cfg), _reference(cfg)
    assert got.fock_dim == want["fock_dim"]
    np.testing.assert_array_equal(got.kt, np.asarray(cfg.kt_grid))
    for field in ("m11", "m22", "abs_m12", "lambda_max"):
        np.testing.assert_allclose(getattr(got, field), want[field], rtol=0, atol=1e-12)
    # the rule sees the state at the grid time with the largest top-two population
    assert abs(got.max_leakage - want["leak"]) <= 1e-15 + 1e-6 * want["leak"]


@SETTINGS
@given(
    fock_dim=st.integers(4, 12),
    nbar=st.floats(0.0, 1.0),
    atom=st.sampled_from(("excited", "ground")),
    kt=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=12),
)
def test_batched_trace_matches_per_point_reference(fock_dim, nbar, atom, kt):
    cfg = JCConfig(nbar=nbar, kt_grid=tuple(kt), fock_dim=fock_dim, atom_initial=atom)
    _assert_matches_reference(cfg)


def test_escalation_from_dim_two_matches_reference():
    cfg = JCConfig(nbar=0.0, kt_grid=(0.0, 1.3, 0.4, 2.9), fock_dim=2)
    assert jc_witness_trace(cfg).fock_dim == 4
    _assert_matches_reference(cfg)


def test_leakage_that_builds_up_mid_trace_escalates():
    # |e, 0> -> |g, 1>: at dim 3 level 1 is a top level, empty only at kt = 0
    cfg = JCConfig(nbar=0.0, kt_grid=(0.0, 1.0, 0.5), fock_dim=3)
    assert jc_witness_trace(cfg).fock_dim == 6
    _assert_matches_reference(cfg)


def test_empty_grid_gives_empty_trace():
    trace = jc_witness_trace(JCConfig(nbar=0.01, kt_grid=(), fock_dim=20))
    assert trace.m11.shape == trace.lambda_max.shape == (0,)
    assert trace.max_leakage == 0.0


def _same_charge(sig):
    return sig.charges[:, None] == sig.charges[None, :]


def _three_factor_case(rng):
    """A charge-conserving H on (a, q, b) and observables on every layout of factors."""
    sig = signature(boson("a", 3), qubit("q"), boson("b", 2))
    d = sig.total_dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = LabeledOperator(sig, np.where(_same_charge(sig), g + g.conj().T, 0))

    def rand(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    observables = [
        embed_many(rand(6), ["a", "b"], sig),  # non-adjacent factors
        embed_many(rand(6), ["b", "a"], sig),  # and in reverse order
        embed(rand(2), "q", sig),
        embed(rand(3), "a", sig),
        LabeledOperator(sig, rand(d)),
    ]
    return sig, h, observables


def test_evolved_expectations_match_evolve_for_vectors_and_densities():
    rng = np.random.default_rng(7)
    sig, h, observables = _three_factor_case(rng)
    d = sig.total_dim
    # psi in the charge-2 sector (four states), rho with no entry between sectors
    psi = np.where(sig.charges == 2, rng.normal(size=d) + 1j * rng.normal(size=d), 0)
    psi = StateVector(sig, psi / np.linalg.norm(psi))
    w = rng.random(3)
    vecs = [rng.normal(size=d) + 1j * rng.normal(size=d) for _ in w]
    rho = sum(wk * np.outer(v, v.conj()) / np.vdot(v, v).real for wk, v in zip(w / w.sum(), vecs))
    rho = np.where(_same_charge(sig), rho, 0)  # the pinching keeps rho positive, of trace 1
    # unsorted, repeated and negative times, and a longer grid
    times = np.concatenate([[0.7, 0.0, 2.5, -1.1, 0.7], np.linspace(0.0, 3.0, 140)])
    for state in (psi, DensityMatrix(sig, rho)):
        table = evolved_expectations(h, times, state, observables)
        assert table.shape == (len(times), len(observables))
        for i, t in enumerate(times):
            evolved = evolve(h, t, state)
            want = [expectation(evolved, op) for op in observables]
            np.testing.assert_allclose(table[i], want, rtol=0, atol=1e-11)


def test_evolved_expectations_keeps_hermiticity_check():
    sig = signature(boson("a", 3))
    h = LabeledOperator(sig, np.triu(np.ones((3, 3))))
    psi = StateVector(sig, [1.0, 0.0, 0.0])
    with pytest.raises(linalg.NonHermitianError):
        evolved_expectations(h, [0.0, 1.0], psi, [embed(ops.number_op(3), "a", sig)])


def test_trace_memory_stays_small():
    # a T x D^2 phase table alone would take 600 * 40**2 * 16 bytes = 15 MB
    cfg = JCConfig(nbar=0.02, kt_grid=tuple(np.linspace(0.0, 6.0, 600)), fock_dim=20)
    jc_witness_trace(cfg)  # warm caches and lazy imports outside the measurement
    tracemalloc.start()
    try:
        trace = jc_witness_trace(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.fock_dim == 20
    assert peak < 4 * 2**20


@SETTINGS
@given(
    nbar=st.floats(0.0, 1.0),
    atom=st.sampled_from(("excited", "ground")),
    omega=st.floats(0.0, 3.0),
    kappa=st.floats(0.01, 1.0),
    kt=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=8),
)
def test_a_reads_exactly_zero_from_every_jc_start(nbar, atom, omega, kappa, kt):
    # H and thermal (x) |atom><atom| conserve the excitation number, which a
    # lowers: so <a>(t) = 0, delta a = a, and the trace needs no centring
    sig = jc_signature(24)
    h = jc_hamiltonian(sig, omega, kappa)
    level = ops.EXCITED if atom == "excited" else ops.GROUND
    rho0 = DensityMatrix(sig, np.kron(ops.thermal(nbar, 24), np.outer(level, level.conj())))
    a = embed(ops.annihilator(24), "field", sig, "a")
    table = evolved_expectations(h, np.asarray(kt) / kappa, rho0, [a])
    assert np.array_equal(table, np.zeros((len(kt), 1)))
