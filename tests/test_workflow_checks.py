"""Checks of the workflow's console-script smoke step, run in-process by ``cli.main``.

Each test is one check that the step used to run as an ``entwitness``
command followed by a ``python -c`` assertion on its CSV or sidecar, with
the same argv and the same assertion; the fock-320 jc guard bounds the
traced peak memory of the run instead of patching one operator method.
"""

import csv
import json
import math
import tracemalloc

import numpy as np

from entwitness import cli, linalg, spaces


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
