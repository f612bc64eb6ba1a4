"""One truncation rule and one retry, for the jc thermal start and S(z)|1>.

A jc thermal start too wide for its truncation is refused by the leakage
rule of `spaces.check_leakage` inside `ops.thermal_weights`, before the jc
system is built, and `escalate_fock_dim` doubles the truncation: a trace
that escalated equals, bit for bit, the trace started where it ended.  A
start that no truncation up to `MAX_FOCK_DIM` holds raises `LeakageError`
without building any system.  A `MemoryError` raised inside the jc runner
exits 3 from the CLI.  S(z)|1> passes the
same check as every factory state, under its own label.  The trace judges
the largest entry of its table's leakage column; the state evolved to that
grid time and measured whole gives the same leakage and the same
escalation.  Each policy has one setting, a module constant read at call
time: `spaces.LEAKAGE_THRESHOLD`, `spaces.MAX_FOCK_DIM` and
`linalg.HERMITICITY_RTOL`.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entwitness import cli, linalg, spaces
from entwitness import operators as ops
from entwitness.models import jaynes_cummings as jc
from entwitness.spaces import (
    DensityMatrix,
    LeakageError,
    boson,
    escalate_fock_dim,
    evolve,
    evolved_expectations,
    product_state,
    require_low_leakage,
    signature,
)

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def _fields(trace):
    return (trace.kt, trace.m11, trace.m22, trace.abs_m12, trace.lambda_max)


@SETTINGS
@given(
    nbar=st.floats(0.0, 3.0),
    start=st.integers(4, 24),
    kt=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=6),
)
def test_an_escalated_trace_equals_the_trace_started_where_it_ended(nbar, start, kt):
    cfg = jc.JCConfig(nbar=nbar, kt_grid=tuple(kt), fock_dim=start)
    escalated = jc.jc_witness_trace(cfg)
    assert escalated.fock_dim >= start
    direct = jc.jc_witness_trace(jc.JCConfig(nbar=nbar, kt_grid=tuple(kt), fock_dim=escalated.fock_dim))
    assert direct.fock_dim == escalated.fock_dim
    for got, want in zip(_fields(escalated), _fields(direct)):
        assert got.tobytes() == want.tobytes()
    assert escalated.max_leakage == direct.max_leakage


def _evolved_state_leakage(cfg, dim):
    """(dim, worst leakage) as the state evolved to the grid time of the largest top-two population gives it."""
    field = ops.thermal(cfg.nbar, dim)
    sig, h, observables = jc._system(dim, cfg.omega, cfg.kappa)
    atom = ops.EXCITED if cfg.atom_initial == "excited" else ops.GROUND
    rho0 = DensityMatrix(sig, np.kron(field, np.outer(atom, atom.conj())))
    times = np.asarray(cfg.kt_grid) / cfg.kappa
    top_pop = evolved_expectations(h, times, rho0, observables[:1])[:, 0].real
    return dim, require_low_leakage(evolve(h, times[np.argmax(top_pop)], rho0))


@SETTINGS
@example(nbar=0.85, kappa=0.1, kt=[0.0, 2.0, 5.0], atom="excited")  # escalates from 20 to 40
@given(
    nbar=st.floats(0.0, 2.0),
    kappa=st.floats(0.05, 0.5),
    kt=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=6),
    atom=st.sampled_from(["excited", "ground"]),
)
def test_the_table_leakage_column_judges_as_the_evolved_worst_state(nbar, kappa, kt, atom):
    cfg = jc.JCConfig(nbar=nbar, kt_grid=tuple(kt), kappa=kappa, atom_initial=atom)
    trace = jc.jc_witness_trace(cfg)
    dim, leak = escalate_fock_dim(lambda d: _evolved_state_leakage(cfg, d), cfg.fock_dim)
    assert trace.fock_dim == dim
    assert trace.max_leakage == pytest.approx(leak, rel=1e-12, abs=0)


def test_a_start_that_holds_but_then_leaks_escalates_from_20_to_40():
    ops.thermal(0.85, 20)  # the start alone passes at 20
    cfg = jc.JCConfig(nbar=0.85, kt_grid=(0.0, 2.0, 5.0), kappa=0.1)
    assert jc.jc_witness_trace(cfg).fock_dim == 40
    with pytest.raises(LeakageError, match="factor 'field'"):
        _evolved_state_leakage(cfg, 20)


def test_a_wide_thermal_start_escalates_before_any_system_is_built(monkeypatch):
    built = []
    system = jc._system

    def recording_system(dim, omega, kappa):
        built.append(dim)
        return system(dim, omega, kappa)

    monkeypatch.setattr(jc, "_system", recording_system)
    trace = jc.jc_witness_trace(jc.JCConfig(nbar=2.0, kt_grid=(0.0, 1.0), fock_dim=20))
    assert trace.fock_dim == 40
    assert built == [40]


def test_a_start_no_truncation_holds_raises_without_building_a_system(monkeypatch):
    def no_system(*args):
        raise AssertionError(f"_system was called: {args}")

    monkeypatch.setattr(jc, "_system", no_system)
    with pytest.raises(LeakageError, match=r"thermal\(nbar=1000000\.0\)"):
        jc.jc_witness_trace(jc.JCConfig(nbar=1e6, kt_grid=(0.0, 1.0), fock_dim=20))


def test_the_cli_exits_3_when_the_jc_runner_runs_out_of_memory(monkeypatch, capsys, tmp_path):
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 5.00 GiB for an array with shape (25600, 25600)")

    monkeypatch.setattr(jc, "evolved_expectations", out_of_memory)
    out = tmp_path / "jc.csv"
    assert cli.main(["jc-thermal", "--nbar", "0.01", "--points", "5", "--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory (Unable to allocate 5.00 GiB")
    assert not out.exists()


def test_the_cli_escalates_a_wide_thermal_start(tmp_path):
    out = tmp_path / "jc.csv"
    assert cli.main(["jc-thermal", "--nbar", "0.5,2", "--points", "50", "--output", str(out)]) == 0
    diagnostics = json.loads((tmp_path / "jc.csv.meta.json").read_text())["diagnostics"]
    assert diagnostics["fock_dims"] == [20, 40]
    assert diagnostics["max_leakage"] < 1e-6


def test_the_cli_exits_3_for_a_start_no_truncation_holds(capsys):
    assert cli.main(["jc-thermal", "--nbar", "1e6", "--points", "5"]) == 3
    assert "thermal(nbar=1000000.0)" in capsys.readouterr().err


def test_the_squeezed_single_photon_is_checked_under_its_own_label():
    # at d = 64, S(z)|1> leaks from r = 1.055 on and S(z)|0> only from r = 1.17
    assert np.isclose(np.linalg.norm(ops.squeezed_vacuum(1.1, 64)), 1.0)
    with pytest.raises(LeakageError, match=r"factor 'squeeze\(z=1\.1\) \|1>'"):
        ops.squeezed_single_photon(1.1, 64)


def test_two_mode_invariant_refuses_a_leaking_single_photon_branch(capsys):
    assert cli.main(["two-mode-invariant", "--fock-dim", "64", "--r-values", "1.1"]) == 3
    assert "factor 'squeeze(z=1.1) |1>'" in capsys.readouterr().err


def test_every_judge_of_the_rule_reads_the_leakage_threshold_when_called(monkeypatch):
    # each of these passes at 1e-6 and holds between 1e-7 and 1e-6 in its top two levels
    leaky = product_state(signature(boson("a", 4)), {"a": np.sqrt([1 - 5e-7, 0.0, 5e-7, 0.0])})
    jc_cfg = jc.JCConfig(nbar=0.05, kt_grid=(0.0, 1.0, 2.0, 3.0), fock_dim=8)
    ops.squeezed_vacuum(0.4, 16)
    ops.thermal_weights(0.02, 6)
    require_low_leakage(leaky)
    trace = jc.jc_witness_trace(jc_cfg)  # the thermal start holds 1.2e-8, the trace 2.4e-7
    assert trace.fock_dim == 8 and 1e-7 < trace.max_leakage < 1e-6

    monkeypatch.setattr(spaces, "LEAKAGE_THRESHOLD", 1e-7)
    monkeypatch.setattr(spaces, "MAX_FOCK_DIM", 8)
    with pytest.raises(LeakageError, match=r"'squeeze\(z=0\.4\)'"):
        ops.squeezed_vacuum(0.4, 16)
    with pytest.raises(LeakageError, match=r"'thermal\(nbar=0\.02\)'"):
        ops.thermal_weights(0.02, 6)
    with pytest.raises(LeakageError, match="'a'"):
        require_low_leakage(leaky)
    with pytest.raises(LeakageError) as err:
        jc.jc_witness_trace(jc_cfg)
    assert (err.value.label, err.value.population, err.value.threshold) == ("field", trace.max_leakage, 1e-7)

    monkeypatch.setattr(spaces, "LEAKAGE_THRESHOLD", 1e-3)
    assert ops.squeezed_vacuum(0.7, 16).shape == (16,)  # 2.7e-4 in its top two levels


def test_escalation_reads_the_truncation_cap_when_called(monkeypatch):
    attempts = []

    def always_bad(dim):
        attempts.append(dim)
        raise LeakageError("a", 1.0, 1e-6)

    monkeypatch.setattr(spaces, "MAX_FOCK_DIM", 20)
    with pytest.raises(LeakageError):
        escalate_fock_dim(always_bad, 5)
    assert attempts == [5, 10, 20]
    # nbar 2 escalates from 20 to 40 under the default cap
    with pytest.raises(LeakageError, match=r"thermal\(nbar=2\.0\)"):
        jc.jc_witness_trace(jc.JCConfig(nbar=2.0, kt_grid=(0.0, 1.0), fock_dim=20))


def test_the_eigensolver_reads_the_hermiticity_tolerance_when_called(monkeypatch):
    h = np.array([[0.0, 1.0], [1.0 + 1e-8, 0.0]])
    with pytest.raises(linalg.NonHermitianError):
        linalg.herm_eig(h)
    monkeypatch.setattr(linalg, "HERMITICITY_RTOL", 1e-6)
    np.testing.assert_allclose(linalg.herm_eig(h).eigenvalues, [-1.0 - 5e-9, 1.0 + 5e-9], rtol=1e-15)
    monkeypatch.setattr(linalg, "HERMITICITY_RTOL", 1e-9)
    with pytest.raises(linalg.NonHermitianError, match="exceeds tolerance 1.000e-09"):
        linalg.require_hermitian(h)
