"""Checks of the workflow's console-script smoke step, run in-process by ``cli.main``.

Each test is one check that the step used to run as an ``entwitness``
command followed by a ``python -c`` assertion on its CSV or sidecar, with
the same argv and the same assertion; the fock-320 jc guard bounds the
traced peak memory of the run instead of patching one operator method.
The guards that patch a method to refuse a D x D unitary, a wide
eigensolve or a dense local first empty the Gaussian spectrum caches, so
the run eigensolves as a fresh process would.
"""

import csv
import json
import math
import tracemalloc

import numpy as np

from entwitness import cli, linalg, spaces
from entwitness import operators as ops


def _first_row(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        return next(csv.DictReader(fh))


def test_pair_threshold_prints_its_pinned_bits(tmp_path):
    row = _first_row(tmp_path, ["noise-threshold", "--family", "pair-bilinear"])
    assert row["s_star"] == "6.18017578125000022e-01"


def test_bell_threshold_meets_its_closed_form(tmp_path):
    row = _first_row(tmp_path, ["noise-threshold"])
    assert abs(float(row["s_star"]) - float(row["closed_form"])) <= 1e-4


def test_subspace_threshold_meets_one_half(tmp_path):
    row = _first_row(tmp_path, ["noise-threshold", "--family", "subspace"])
    assert abs(float(row["s_star"]) - 0.5) <= 1e-4



def _jc(tmp_path, argv, name="jc.csv"):
    """Rows and ``.meta.json`` diagnostics of one jc-thermal run written to ``tmp_path / name``."""
    out = tmp_path / name
    assert cli.main(["jc-thermal", *argv, "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows, json.loads((tmp_path / f"{name}.meta.json").read_text())["diagnostics"]


def test_jc_at_fock_dim_2_escalates_to_4(tmp_path):
    _, diagnostics = _jc(tmp_path, ["--nbar", "0", "--fock-dim", "2", "--points", "5"])
    assert diagnostics["fock_dims"] == [4]


def test_jc_vacuum_trace_meets_its_closed_form(tmp_path):
    rows, diagnostics = _jc(tmp_path, ["--nbar", "0", "--points", "41"])
    assert len(rows) == 41
    assert max(abs(float(r["M11"]) - (math.sin(float(r["kt"])) * math.cos(float(r["kt"]))) ** 2) for r in rows) <= 1e-12
    assert diagnostics["fock_dims"] == [20]


def test_jc_json_rows_equal_the_csv_rows(tmp_path):
    rows, _ = _jc(tmp_path, ["--nbar", "0.01,0.02", "--points", "50"])
    out = tmp_path / "jc.json"
    assert cli.main(["jc-thermal", "--nbar", "0.01,0.02", "--points", "50", "--format", "json", "--output", str(out)]) == 0
    js = json.loads(out.read_text())["rows"]
    assert len(rows) == len(js) == 100
    assert all(set(r) == set(j) and all(float(r[k]) == j[k] for k in r) for r, j in zip(rows, js))


def test_jc_nbar_half_holds_at_fock_dim_20(tmp_path):
    _, diagnostics = _jc(tmp_path, ["--nbar", "0.5"])
    assert diagnostics["fock_dims"] == [20]


def test_jc_nbar_2_escalates_to_40(tmp_path):
    _, diagnostics = _jc(tmp_path, ["--nbar", "2", "--points", "50"])
    assert diagnostics["fock_dims"] == [40]


def test_jc_ground_atom_reads_an_exact_zero_m12(tmp_path):
    rows, diagnostics = _jc(tmp_path, ["--atom", "ground", "--nbar", "0.3,1", "--points", "50"])
    assert len(rows) == 100
    assert all(r["absM12"] == "0.00000000000000000e+00" for r in rows)
    assert diagnostics["fock_dims"] == [20, 40]


def test_jc_start_no_truncation_holds_exits_3(capsys):
    assert cli.main(["jc-thermal", "--nbar", "1e6"]) == 3


def test_jc_at_fock_dim_320_builds_no_d_by_d_array(tmp_path, monkeypatch):
    """No eigensolve above 2 x 2, no propagator, and a traced peak below one D x D complex array (D = 640)."""
    real = linalg.herm_eig

    def two_by_two(h, *args, **kwargs):
        assert np.shape(h)[-1] <= 2, f"jc-thermal eigensolved a {np.shape(h)} stack"
        return real(h, *args, **kwargs)

    def no_propagator(*args, **kwargs):
        raise AssertionError("jc-thermal built a D x D propagator")

    monkeypatch.setattr(linalg, "herm_eig", two_by_two)
    monkeypatch.setattr(spaces.SectorSpectrum, "function_of", no_propagator)
    tracemalloc.start()
    try:
        rows, diagnostics = _jc(tmp_path, ["--nbar", "0.02", "--fock-dim", "320", "--points", "50"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a lifted field-atom product, or a thermal start built whole, is one such array
    assert peak < 16 * 640**2, f"jc-thermal peaked at {peak / 2**20:.1f} MiB"
    assert len(rows) == 50
    assert diagnostics["fock_dims"] == [320]
    assert all(r["absM12"] == "0.00000000000000000e+00" for r in rows)


def _fresh_rows(tmp_path, argv):
    """Rows of one run with the Gaussian spectrum caches emptied first."""
    ops._unit_spectrum.cache_clear()
    ops._level_position.cache_clear()
    out = tmp_path / "out.csv"
    assert cli.main([*argv, "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def _refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(what)

    return refused


def _no_eigensolve_wider_than(width, what, monkeypatch):
    real = linalg.herm_eig

    def narrow(h, *args, **kwargs):
        assert np.shape(h)[-1] <= width, f"{what} eigensolved a {np.shape(h)} stack"
        return real(h, *args, **kwargs)

    monkeypatch.setattr(linalg, "herm_eig", narrow)


def _verdicts(rows):
    return [(float(r["r"]), r["matrix_entangled"], r["cond1_entangled"]) for r in rows]


def test_two_mode_invariant_at_fock_dim_512_builds_no_d_by_d_unitary(tmp_path, monkeypatch):
    monkeypatch.setattr(ops, "_checked_exp", _refuse("two-mode-invariant built a D x D unitary"))
    rows = _fresh_rows(tmp_path, ["two-mode-invariant", "--fock-dim", "512", "--r-values", "0.2,1.5"])
    assert _verdicts(rows) == [(0.2, "true", "true"), (1.5, "true", "false")]


def test_two_mode_invariant_at_fock_dim_1024_eigensolves_nothing_wider_than_512(tmp_path, monkeypatch):
    _no_eigensolve_wider_than(512, "two-mode-invariant", monkeypatch)
    rows = _fresh_rows(tmp_path, ["two-mode-invariant", "--fock-dim", "1024", "--r-values", "0.2,1.1"])
    assert _verdicts(rows) == [(0.2, "true", "true"), (1.1, "true", "false")]


def test_two_mode_invariant_at_fock_dim_1024_applies_no_dense_local(tmp_path, monkeypatch):
    monkeypatch.setattr(spaces.LabeledOperator, "_contract", _refuse("two-mode-invariant applied a dense local"))
    rows = _fresh_rows(tmp_path, ["two-mode-invariant", "--fock-dim", "1024", "--r-values", "0.2,1.1"])
    assert _verdicts(rows) == [(0.2, "true", "true"), (1.1, "true", "false")]


def test_lur_at_fock_dim_256_applies_no_dense_local(tmp_path, monkeypatch):
    monkeypatch.setattr(spaces.LabeledOperator, "_contract", _refuse("lur applied a dense local"))
    rows = _fresh_rows(tmp_path, ["lur", "--fock-dim", "256", "--r-values", "0.1,0.3"])
    assert len(rows) == 2
    assert all(
        abs(float(r[k]) / math.exp(s * 2 * float(r["r"])) - 1) <= 1e-12
        for r in rows
        for k, s in (("value_pi_phase", -1), ("value_plus_phase", 1))
    )


def test_beamsplitters_at_fock_dim_24_eigensolves_nothing_wider_than_24_and_builds_no_function_of(
    tmp_path, monkeypatch
):
    _no_eigensolve_wider_than(24, "beamsplitters", monkeypatch)
    monkeypatch.setattr(
        spaces.SectorSpectrum, "function_of", _refuse("beamsplitters built a D x D matrix from a spectrum")
    )
    rows = _fresh_rows(tmp_path, ["beamsplitters", "--fock-dim", "24"])
    assert rows
    assert all(r["sim_matrix_entangled"] == r["matrix_entangled"] for r in rows)
    assert all(abs(float(r["sim_M11"]) - float(r["M11"])) <= 1e-7 for r in rows)
