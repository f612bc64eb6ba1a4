"""The CLI option table: one parser per process, one resolution per call.

Every option is a ``Param`` read from its flag, else from the config file,
else from its default; a ``--dump-config`` output is itself a config file
that resolves to the same bytes.
"""

import argparse
import json

import pytest

from entwitness.cli import EXPERIMENTS, build_parser, main

# one flag per experiment that moves a parameter off its default
NON_DEFAULT_FLAGS = {
    "jc-thermal": ["--nbar", "0.05,0.07"],
    "tavis": ["--n", "3"],
    "dicke": ["--input", "fock:2"],
    "beamsplitters": ["--simulate", "false"],
    "noise-threshold": ["--family", "subspace"],
    "two-mode-invariant": ["--r-values", "0.3,0.7"],
    "lur": ["--mode", "atom-field"],
    "ppt-crosscheck": ["--dims", "2x2,3x5"],
}


def _dump(capsys, argv) -> str:
    assert main([*argv, "--dump-config"]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("with_flag", [False, True], ids=["defaults", "one-flag"])
@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_dump_config_round_trips_byte_for_byte(tmp_path, capsys, name, with_flag):
    dumped = _dump(capsys, [name, *(NON_DEFAULT_FLAGS[name] if with_flag else [])])
    if with_flag:
        assert dumped != _dump(capsys, [name])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(dumped)
    assert _dump(capsys, [name, "--config", str(cfg)]) == dumped


@pytest.mark.parametrize("params", [None, 5, [1], "n"])
def test_params_that_are_not_an_object_exit_2(tmp_path, capsys, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tavis", "params": params}))
    assert main(["tavis", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "params" in err and "config file" in err


def test_null_means_unset_in_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    blob = {"experiment": "tavis", "params": {"n": None, "grid": 7}, "seed": None, "format": None}
    cfg.write_text(json.dumps(blob))
    resolved = json.loads(_dump(capsys, ["tavis", "--config", str(cfg)]))
    assert (resolved["params"]["n"], resolved["params"]["grid"]) == (2, 7)
    assert (resolved["seed"], resolved["format"]) == (0, "csv")


def test_later_calls_build_no_parser(monkeypatch, capsys):
    assert main(["list"]) == 0
    added = []
    original = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        added.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    for argv in (["list"], ["describe", "lur"], ["tavis", "--dump-config"], ["lur", "--seed", "3", "--dump-config"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert added == []
    assert build_parser() is build_parser()


def test_no_option_carries_over_to_the_next_call(tmp_path, capsys):
    defaults = _dump(capsys, ["tavis"])
    assert json.loads(defaults)["seed"] == 0
    assert json.loads(defaults)["fock_dim"] is None
    _dump(capsys, ["tavis", "--seed", "9", "--fock-dim", "30", "--tolerance", "0.1"])
    assert _dump(capsys, ["tavis"]) == defaults
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tavis", "params": {"n": 3}, "seed": 7, "fock_dim": 40}))
    from_file = json.loads(_dump(capsys, ["tavis", "--config", str(cfg)]))
    assert (from_file["params"]["n"], from_file["seed"], from_file["fock_dim"]) == (3, 7, 40)
    assert _dump(capsys, ["tavis"]) == defaults


def test_an_unknown_format_exits_2_from_a_flag_or_a_file(tmp_path, capsys):
    assert main(["tavis", "--format", "xml"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "format" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tavis", "format": "xml"}))
    assert main(["tavis", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "format" in err


@pytest.mark.parametrize(
    "text, expected",
    [("1", True), ("true", True), ("YES", True), ("True", True), ("0", False), ("false", False), ("No", False)],
)
def test_simulate_reads_the_six_words_in_any_case(tmp_path, capsys, text, expected):
    assert json.loads(_dump(capsys, ["beamsplitters", "--simulate", text]))["params"]["simulate"] is expected
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "beamsplitters", "params": {"simulate": text}}))
    assert json.loads(_dump(capsys, ["beamsplitters", "--config", str(cfg)]))["params"]["simulate"] is expected


@pytest.mark.parametrize("value", [True, False])
def test_simulate_reads_json_booleans(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "beamsplitters", "params": {"simulate": value}}))
    assert json.loads(_dump(capsys, ["beamsplitters", "--config", str(cfg)]))["params"]["simulate"] is value


@pytest.mark.parametrize("text", ["ture", "2", "", "on", "flase"])
def test_simulate_rejects_other_text_naming_it(tmp_path, capsys, text):
    with pytest.raises(SystemExit) as exc:
        main(["beamsplitters", "--simulate", text, "--dump-config"])
    assert exc.value.code == 2
    assert "simulate" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "beamsplitters", "params": {"simulate": text}}))
    assert main(["beamsplitters", "--config", str(cfg), "--dump-config"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and "simulate" in captured.err


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["beamsplitters", "--simulate", "ture"], "could not parse boolean 'ture' (use 1/true/yes or 0/false/no)"),
        (["jc-thermal", "--nbar", "x"], "could not parse float list 'x'"),
    ],
    ids=["simulate", "nbar"],
)
def test_a_bad_flag_value_prints_the_reason_a_config_file_prints(tmp_path, capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--dump-config"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: {reason}" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": argv[0], "params": {argv[1][2:]: argv[2]}}))
    assert main([argv[0], "--config", str(cfg), "--dump-config"]) == 2
    assert reason in capsys.readouterr().err


def test_a_null_experiment_means_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": None, "params": {"grid": 7}}))
    resolved = json.loads(_dump(capsys, ["tavis", "--config", str(cfg)]))
    assert (resolved["experiment"], resolved["params"]["grid"]) == ("tavis", 7)
    assert main(["tavis", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 0
    cfg.write_text(json.dumps({"experiment": "lur"}))
    assert main(["tavis", "--config", str(cfg)]) == 2
    assert "not 'tavis'" in capsys.readouterr().err
