"""End-to-end checks of the CLI, run in-process by ``cli.main``.

Each test is one check that the CI workflow used to run as an
``entwitness`` command followed by a ``python -c`` assertion on its CSV or
sidecar, with the same argv and the same assertion; the fock-320 jc guard
bounds the traced peak memory of the run instead of patching one operator
method.  The guards that patch a method to refuse a D x D unitary, a wide
eigensolve or a dense local first empty the Gaussian spectrum caches, so
the run eigensolves as a fresh process would.  The CSV byte path is
compared with the row path, and the hashed ppt trial streams with
``default_rng``, byte for byte on the same argv.  Which scipy submodules a
run loads is read in a fresh interpreter, since this one has long since
imported them.
"""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import entwitness
from entwitness import cli, families, linalg, spaces
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


def test_ppt_json_rows_are_typed_and_print_as_the_csv_rows(tmp_path):
    argv = ["ppt-crosscheck", "--trials", "37", "--dims", "4x2,2x2,3x5", "--seed", "3"]
    assert cli.main([*argv, "--output", str(tmp_path / "ppt.csv")]) == 0
    assert cli.main([*argv, "--format", "json", "--output", str(tmp_path / "ppt.json")]) == 0
    with open(tmp_path / "ppt.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    js = json.loads((tmp_path / "ppt.json").read_text())["rows"]
    assert len(rows) == len(js) == 37
    assert {type(v) for j in js for v in j.values()} == {str, int, bool, float}
    assert all(r == {k: cli._format_cell(v) for k, v in j.items()} for r, j in zip(rows, js))


def test_two_mode_invariant_at_fock_dim_128_keeps_its_verdicts(tmp_path):
    rows = _fresh_rows(tmp_path, ["two-mode-invariant", "--fock-dim", "128", "--r-values", "0.2,1.1"])
    assert _verdicts(rows) == [(0.2, "true", "true"), (1.1, "true", "false")]


def test_lur_atom_field_is_violated_exactly_inside_the_quarter_turn(tmp_path):
    rows = _fresh_rows(tmp_path, ["lur", "--mode", "atom-field", "--points", "9"])
    assert len(rows) == 18

    def inner(t):
        return 1e-12 < abs(t) < math.pi / 4 - 1e-9

    assert all(
        (r["violated"] == "true") == (inner(float(r["theta"])) and (float(r["theta"]) < 0) == (float(r["phi"]) == 0.0))
        for r in rows
    )


def test_lur_at_fock_dim_56_meets_its_closed_form(tmp_path):
    rows = _fresh_rows(tmp_path, ["lur", "--fock-dim", "56", "--r-values", "0.1,0.3,0.5"])
    assert len(rows) == 3
    assert all(
        abs(float(r[k]) / math.exp(s * 2 * float(r["r"])) - 1) <= 1e-12
        for r in rows
        for k, s in (("value_pi_phase", -1), ("value_plus_phase", 1))
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["jc-thermal", "--points", "20000"],
        ["ppt-crosscheck", "--trials", "5000", "--dims", "2x4,3x3,4x4,3x5", "--seed", "9"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_csv_byte_path_writes_the_row_paths_bytes(tmp_path, monkeypatch, argv):
    assert cli.main([*argv, "--output", str(tmp_path / "bytes.csv")]) == 0
    monkeypatch.setattr(cli, "CSV_BYTES_MIN_FLOAT_CELLS", math.inf)
    assert cli.main([*argv, "--output", str(tmp_path / "rows.csv")]) == 0
    assert (tmp_path / "bytes.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_the_hashed_ppt_streams_write_the_default_rng_bytes(tmp_path, monkeypatch):
    argv = ["ppt-crosscheck", "--trials", "2000", "--dims", "2x4,3x3,4x4,3x5", "--seed", "9"]
    assert cli.main([*argv, "--output", str(tmp_path / "hashed.csv")]) == 0
    monkeypatch.setattr(
        families, "_trial_streams", lambda seed, trials: (np.random.default_rng((seed, k)) for k in trials)
    )
    assert cli.main([*argv, "--output", str(tmp_path / "default_rng.csv")]) == 0
    assert (tmp_path / "hashed.csv").read_bytes() == (tmp_path / "default_rng.csv").read_bytes()


LAZY_SCIPY = """
import sys
import numpy as np
import entwitness.cli as cli
assert cli.main(["tavis", "--grid", "20", "--output", sys.argv[1]]) == 0
assert "scipy" in sys.modules
assert not {"scipy.linalg", "scipy.sparse"} & set(sys.modules)
from entwitness.models import DickeConfig, dicke_oracle
res = dicke_oracle(DickeConfig(n_atoms=4, k=2, t=0.5, field_amplitudes=np.array([0.6, 0.8]), dims=(4, 4, 4)))
assert res.dims == (4, 4, 4)
assert not {"scipy.sparse", "scipy.sparse.linalg"} & set(sys.modules)
"""


def test_a_tavis_run_and_the_dicke_oracle_leave_the_heavy_scipy_submodules_unloaded(tmp_path):
    src = str(pathlib.Path(entwitness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", LAZY_SCIPY, str(tmp_path / "tavis.csv")], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
