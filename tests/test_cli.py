import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from entwitness.cli import EXPERIMENTS, _format_cell, main, parse_field_spec


def run(argv):
    return main(argv)


def test_list_names_eight_experiments(capsys):
    assert run(["list"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 8
    names = {l.split(":")[0] for l in lines}
    assert names == set(EXPERIMENTS)


def test_describe_mentions_the_physics(capsys):
    assert run(["describe", "dicke"]) == 0
    out = capsys.readouterr().out
    assert "Holstein-Primakoff" in out
    assert run(["describe", "ppt-crosscheck"]) == 0
    out = capsys.readouterr().out
    assert "partial transpose" in out


def test_noise_threshold_bell(tmp_path):
    out = tmp_path / "bell.csv"
    code = run(["noise-threshold", "--family", "bell", "--c1", "0.7071", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert abs(float(row["s_star"]) - 0.6180) < 1e-3
    assert abs(float(row["closed_form"]) - (math.sqrt(5) - 1) / 2) < 1e-3
    meta = json.loads((tmp_path / "bell.csv.meta.json").read_text())
    assert meta["config"]["experiment"] == "noise-threshold"
    assert "version" in meta


def test_jc_thermal_csv_columns(tmp_path):
    out = tmp_path / "jc.csv"
    code = run(
        [
            "jc-thermal",
            "--nbar",
            "0.01",
            "--kt-max",
            "3",
            "--points",
            "40",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kt,nbar,M11,M22,absM12,lambda_max"
    assert len(lines) == 41
    m12 = [abs(float(l.split(",")[4])) for l in lines[1:]]
    assert max(m12) < 1e-9


def test_tavis_margins_change_sign(tmp_path):
    out = tmp_path / "tavis.csv"
    assert run(["tavis", "--n", "2", "--grid", "200", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "omega_t,atom_field_margin,field_both_margin"
    margins = [float(l.split(",")[1]) for l in lines[1:]]
    signs = {m > 0 for m in margins}
    assert signs == {True, False}


def test_deterministic_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["ppt-crosscheck", "--trials", "12", "--seed", "7"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_ppt_crosscheck_reports_no_violations(tmp_path):
    out = tmp_path / "ppt.csv"
    assert run(["ppt-crosscheck", "--trials", "20", "--output", str(out)]) == 0
    meta = json.loads((tmp_path / "ppt.csv.meta.json").read_text())
    assert meta["diagnostics"]["violations"] == 0


def test_invalid_flags_exit_2():
    assert run(["noise-threshold", "--family", "nope"]) == 2
    assert run(["tavis", "--n", "0"]) == 2
    assert run(["jc-thermal", "--nbar", "-0.5"]) == 2
    assert run(["ppt-crosscheck", "--dims", "2xx"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_numerical_failure_exit_3(capsys):
    # displacement too large for the requested truncation
    code = run(["dicke", "--input", "coherent:4.0", "--fock-dim", "8"])
    assert code == 3
    assert "population" in capsys.readouterr().err


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tavis", "params": {"n": 3, "grid": 50}}))
    code = run(["tavis", "--config", str(cfg), "--grid", "20", "--dump-config"])
    assert code == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["params"]["n"] == 3  # from the file
    assert resolved["params"]["grid"] == 20  # flag wins


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tavis", "params": {"bogus": 1}}))
    assert run(["tavis", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"experiment": "tavis", "sneaky": True}))
    assert run(["tavis", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"experiment": "dicke"}))
    assert run(["tavis", "--config", str(cfg)]) == 2


def test_json_format_contains_rows_and_config(tmp_path):
    out = tmp_path / "out.json"
    assert run(["tavis", "--n", "1", "--grid", "10", "--format", "json", "--output", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["config"]["params"]["n"] == 1
    assert len(blob["rows"]) == 10
    assert "version" in blob


def test_two_mode_invariant_rows(tmp_path):
    out = tmp_path / "inv.csv"
    assert run(["two-mode-invariant", "--r-values", "0.2,1.1", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    assert all(r["matrix_entangled"] == "true" for r in rows)
    flips = [r["cond1_entangled"] for r in rows]
    assert flips == ["true", "false"]  # plain test dies past tanh r = 1/sqrt(2)


def test_two_mode_invariant_builds_no_unitary(monkeypatch, tmp_path):
    # every state of the run is one column of S(z), so the D x D exponential never runs
    def no_unitary(*args):
        raise AssertionError(f"_checked_exp{args} built a D x D unitary")

    monkeypatch.setattr("entwitness.operators._checked_exp", no_unitary)
    out = tmp_path / "inv.csv"
    argv = ["two-mode-invariant", "--fock-dim", "256", "--r-values", "0.2,0.6,0.9,1.1,1.5"]
    assert run([*argv, "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 5
    for row in rows:
        assert row["matrix_entangled"] == "true"
        assert row["cond1_entangled"] == str(math.tanh(float(row["r"])) < 1 / math.sqrt(2)).lower()


def test_negative_squeeze_is_refused_before_any_state_is_built(monkeypatch, capsys):
    def no_states(*args):
        raise AssertionError("squeezed_pair_sweep ran before the r values were checked")

    monkeypatch.setattr("entwitness.families.squeezed_pair_sweep", no_states)
    assert run(["two-mode-invariant", "--fock-dim", "16", "--r-values", "0.2,-0.1"]) == 2
    assert capsys.readouterr().err == "error: squeeze magnitudes must be nonnegative\n"


def test_a_bad_dicke_group_size_is_refused_before_any_margin_is_computed(monkeypatch, capsys):
    def no_margins(*args):
        raise AssertionError("dicke_conditions ran before k was checked")

    monkeypatch.setattr("entwitness.models.dicke.dicke_conditions", no_margins)
    assert run(["dicke", "--N", "4", "--k", "4"]) == 2
    assert capsys.readouterr().err == "error: group size must satisfy 1 <= k < N\n"


@pytest.mark.parametrize(
    "argv, flag, values",
    [
        (["jc-thermal", "--points", "9"], "--nbar", ["0.03", "0.01", "0.02"]),
        (["beamsplitters", "--simulate", "0", "--fock-dim", "8"], "--epsilon", ["0.1", "-0.02", "0.05"]),
        (["two-mode-invariant", "--fock-dim", "32"], "--r-values", ["0.6", "0.2", "0.4"]),
    ],
    ids=["jc-thermal", "beamsplitters", "two-mode-invariant"],
)
def test_a_run_of_many_values_is_their_single_runs_in_ascending_order(argv, flag, values, capsys):
    def csv_lines(*args):
        assert run([*argv, *args]) == 0
        return capsys.readouterr().out.splitlines()

    many = csv_lines(flag, ",".join(values))
    singles = [csv_lines(flag, v) for v in sorted(values, key=float)]
    assert many == singles[0][:1] + [line for lines in singles for line in lines[1:]]


def test_lur_tmsv_values(tmp_path):
    out = tmp_path / "lur.csv"
    assert run(["lur", "--mode", "tmsv", "--r-values", "0.3", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["value_pi_phase"]) == pytest.approx(math.exp(-0.6), abs=1e-6)
    assert float(row["value_plus_phase"]) == pytest.approx(math.exp(0.6), abs=1e-6)
    assert row["violated_pi_phase"] == "true"


def test_beamsplitters_epsilon_row(tmp_path):
    out = tmp_path / "bs.csv"
    assert run(["beamsplitters", "--epsilon", "-0.02", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert float(row["simple_margin"]) < 0
    assert row["matrix_entangled"] == "true"
    assert row["sim_matrix_entangled"] == "true"


def test_parse_field_spec_errors():
    with pytest.raises(Exception):
        parse_field_spec("wibble:3", 8)
    v = parse_field_spec("amps:0.6,0,0.8", 8)
    assert np.abs(np.linalg.norm(v) - 1) < 1e-12


def test_non_hermitian_runner_exits_3(monkeypatch, capsys):
    from entwitness import linalg

    def runner(params, seed, args):
        raise linalg.NonHermitianError(0.5, 1e-10)

    exp = dataclasses.replace(EXPERIMENTS["noise-threshold"], runner=runner)
    monkeypatch.setitem(EXPERIMENTS, "noise-threshold", exp)
    assert run(["noise-threshold"]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("error", [MemoryError(), MemoryError("Unable to allocate 5.00 GiB")])
def test_out_of_memory_in_a_runner_exits_3(monkeypatch, capsys, tmp_path, error):
    def runner(params, seed, args):
        raise error

    exp = dataclasses.replace(EXPERIMENTS["tavis"], runner=runner)
    monkeypatch.setitem(EXPERIMENTS, "tavis", exp)
    assert run(["tavis", "--output", str(tmp_path / "t.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: out of memory") and str(error) in err
    assert not (tmp_path / "t.csv").exists()


def test_config_file_values_parse_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for nbar, expected in ((0.01, [0.01]), ([0.01, 0.02], [0.01, 0.02]), ("0.03", [0.03])):
        blob = {"experiment": "jc-thermal", "params": {"nbar": nbar, "kt_max": 2}, "seed": 4}
        cfg.write_text(json.dumps(blob))
        assert run(["jc-thermal", "--config", str(cfg), "--dump-config"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["params"]["nbar"] == expected
        assert resolved["params"]["kt_max"] == 2.0
        assert resolved["seed"] == 4


def test_config_file_values_of_the_wrong_type_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    bad = [
        ({"experiment": "jc-thermal", "fock_dim": "abc"}, "fock_dim"),
        ({"experiment": "dicke", "fock_dim": "abc"}, "fock_dim"),
        ({"experiment": "tavis", "seed": 1.5}, "seed"),
        ({"experiment": "tavis", "params": {"n": [1, 2]}}, "'n'"),
        ({"experiment": "noise-threshold", "tolerance": "small"}, "tolerance"),
    ]
    for blob, named in bad:
        cfg.write_text(json.dumps(blob))
        assert run([blob["experiment"], "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert named in err and "config file" in err


def test_zero_truncation_or_tolerance_exits_2(tmp_path, capsys):
    assert run(["lur", "--fock-dim", "0"]) == 2
    assert "fock_dim" in capsys.readouterr().err
    assert run(["jc-thermal", "--fock-dim", "1"]) == 2
    assert run(["noise-threshold", "--tolerance", "0"]) == 2
    assert "tolerance" in capsys.readouterr().err
    assert run(["noise-threshold", "--tolerance", "-1"]) == 2
    assert run(["noise-threshold", "--tolerance", "nan"]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "lur", "fock_dim": 0}))
    assert run(["lur", "--config", str(cfg)]) == 2


def test_a_beamsplitter_truncation_too_small_for_its_input_exits_2(tmp_path, capsys):
    # the |0>/|2> input needs three levels; with three, it leaks (exit 3)
    assert run(["beamsplitters", "--fock-dim", "2"]) == 2
    err = capsys.readouterr().err
    assert "dim >= 3" in err and "dim=2" in err and "Traceback" not in err
    assert run(["beamsplitters", "--fock-dim", "3", "--output", str(tmp_path / "bs.csv")]) == 3


def test_numerical_failures_name_the_truncated_factor(capsys):
    assert run(["lur", "--r-values", "2.5", "--fock-dim", "16"]) == 3
    assert "factor 'two_mode_squeezed(r=2.5) mode 0'" in capsys.readouterr().err
    assert run(["two-mode-invariant", "--r-values", "3.0", "--fock-dim", "16"]) == 3
    assert "factor 'squeeze(z=3.0)'" in capsys.readouterr().err


def test_pair_bilinear_tolerance_reaches_the_scan(monkeypatch, capsys):
    from entwitness import families

    seen = []

    def fake_threshold(tol):
        seen.append(tol)
        return families.XThresholdComparison(0.618, 0.474, 0.618)

    monkeypatch.setattr(families, "psi01_x_threshold", fake_threshold)
    for argv, tol in (([], 1e-3), (["--tolerance", "1e-5"], 1e-5), (["--tolerance", "0.01"], 0.01)):
        assert run(["noise-threshold", "--family", "pair-bilinear", *argv]) == 0
        assert seen.pop() == tol
    capsys.readouterr()


def test_pair_bilinear_explicit_tolerance_narrows_the_bracket(tmp_path):
    s_star = {}
    for tol in ("1e-3", "1e-4"):
        out = tmp_path / f"pair-{tol}.csv"
        argv = ["noise-threshold", "--family", "pair-bilinear", "--tolerance", tol]
        assert run([*argv, "--output", str(out)]) == 0
        header, row = out.read_text().splitlines()
        s_star[tol] = float(dict(zip(header.split(","), row.split(",")))["s_star"])
    assert s_star["1e-3"] != s_star["1e-4"]
    assert abs(s_star["1e-4"] - (math.sqrt(5) - 1) / 2) <= 1e-4


@pytest.mark.parametrize(
    "argv, named",
    [
        (["jc-thermal", "--kt-max", "nan"], "kt_max"),
        (["jc-thermal", "--nbar", "nan"], "nbar"),
        (["jc-thermal", "--nbar", "0.01,inf"], "nbar"),
        (["jc-thermal", "--nbar="], "nbar"),
        (["two-mode-invariant", "--r-values", "nan"], "r_values"),
        (["noise-threshold", "--tolerance", "inf"], "tolerance"),
        (["beamsplitters", "--t1", "nan"], "t1"),
        (["ppt-crosscheck", "--dims", ","], "dims"),
    ],
)
def test_non_finite_or_empty_flags_exit_2(tmp_path, capsys, argv, named):
    out = tmp_path / "out.csv"
    assert run([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "blob, named",
    [
        ({"experiment": "jc-thermal", "params": {"kt_max": "nan"}}, "kt_max"),
        ({"experiment": "jc-thermal", "params": {"nbar": []}}, "nbar"),
        ({"experiment": "two-mode-invariant", "params": {"r_values": [0.2, "inf"]}}, "r_values"),
        ({"experiment": "noise-threshold", "tolerance": "inf"}, "tolerance"),
        ({"experiment": "beamsplitters", "params": {"t2": "-inf"}}, "t2"),
        ({"experiment": "ppt-crosscheck", "params": {"dims": []}}, "dims"),
    ],
)
def test_non_finite_or_empty_config_values_exit_2(tmp_path, capsys, blob, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blob))
    assert run([blob["experiment"], "--config", str(cfg), "--dump-config"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dicke", "--input", "amps:0,0"],
        ["dicke", "--input", "amps:1,1,1,1,1", "--fock-dim", "4"],
    ],
)
def test_bad_amplitude_list_names_itself(tmp_path, capsys, argv):
    # the specific message must not be swallowed by the generic parse failure
    out = tmp_path / "out.csv"
    assert run([*argv, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bad amplitude list in '{argv[2]}'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, dim", [(["dicke", "--input", "fock:30"], 24), (["dicke", "--input", "fock:3", "--fock-dim", "3"], 3)]
)
def test_a_fock_level_above_the_truncation_names_both(tmp_path, capsys, argv, dim):
    out = tmp_path / "out.csv"
    assert run([*argv, "--output", str(out)]) == 2
    level = argv[2].split(":")[1]
    assert capsys.readouterr().err == (
        f"error: field spec '{argv[2]}' asks for Fock level {level}, "
        f"but the truncation {dim} (--fock-dim) holds levels 0 to {dim - 1}\n"
    )
    assert not out.exists()


# one small run of every experiment, and of every mode with columns of its own
CONTRACT_RUNS = [
    ["jc-thermal", "--nbar", "0.02,0.01", "--points", "7"],
    ["tavis", "--grid", "9"],
    ["dicke", "--points", "5"],
    ["beamsplitters", "--epsilon", "0.05,-0.02", "--fock-dim", "8"],
    ["noise-threshold", "--tolerance", "1e-2"],
    ["noise-threshold", "--family", "subspace", "--tolerance", "1e-2"],
    ["noise-threshold", "--family", "pair-bilinear"],
    ["two-mode-invariant", "--r-values", "0.6,0.2", "--fock-dim", "32"],
    ["lur", "--r-values", "0.1,0.2", "--fock-dim", "16"],
    ["lur", "--mode", "atom-field", "--points", "5"],
    ["ppt-crosscheck", "--trials", "9", "--dims", "2x2,2x3"],
]


def test_contract_runs_cover_every_experiment():
    assert {argv[0] for argv in CONTRACT_RUNS} == set(EXPERIMENTS)


@pytest.mark.parametrize("argv", CONTRACT_RUNS, ids=" ".join)
def test_runner_columns_are_typed_arrays_and_json_rows_match_csv(argv, monkeypatch, tmp_path):
    exp = EXPERIMENTS[argv[0]]
    returned = []

    def runner(*args):
        returned.append(exp.runner(*args))
        return returned[-1]

    monkeypatch.setitem(EXPERIMENTS, exp.name, dataclasses.replace(exp, runner=runner))
    assert run([*argv, "--output", str(tmp_path / "out.csv")]) == 0
    assert run([*argv, "--format", "json", "--output", str(tmp_path / "out.json")]) == 0
    columns, _ = returned[0]
    assert type(columns) is dict and columns
    for col in columns.values():
        assert isinstance(col, np.ndarray) and col.ndim == 1 and col.dtype.kind in "fibUO"
    (n_rows,) = {col.size for col in columns.values()}
    with open(tmp_path / "out.csv", newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert len(csv_rows) == len(json_rows) == n_rows
    assert list(csv_rows[0]) == list(columns)
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert csv_row == {key: _format_cell(value) for key, value in json_row.items()}
