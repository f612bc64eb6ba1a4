"""The CLI option table: one parser per process, one resolution per call.

Every option is a ``Param`` read from its flag, else from the config file,
else from its default; a ``--dump-config`` output is itself a config file
that resolves to the same bytes.
"""

import argparse
import json

import pytest

from entwitness.cli import COMMON_PARAMS, EXPERIMENTS, build_parser, main

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
    defaults = {name: _dump(capsys, [name]) for name in ("jc-thermal", "noise-threshold")}
    assert json.loads(defaults["jc-thermal"])["seed"] == 0
    assert json.loads(defaults["jc-thermal"])["fock_dim"] is None
    assert json.loads(defaults["noise-threshold"])["tolerance"] is None
    _dump(capsys, ["jc-thermal", "--seed", "9", "--fock-dim", "30"])
    _dump(capsys, ["noise-threshold", "--seed", "9", "--tolerance", "0.1"])
    for name, dumped in defaults.items():
        assert _dump(capsys, [name]) == dumped
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "jc-thermal", "params": {"points": 3}, "seed": 7, "fock_dim": 40}))
    from_file = json.loads(_dump(capsys, ["jc-thermal", "--config", str(cfg)]))
    assert (from_file["params"]["points"], from_file["seed"], from_file["fock_dim"]) == (3, 7, 40)
    assert _dump(capsys, ["jc-thermal"]) == defaults["jc-thermal"]


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


# the opt-in common options each experiment's runner reads
READS = {
    "jc-thermal": {"fock_dim"},
    "tavis": set(),
    "dicke": {"fock_dim"},
    "beamsplitters": {"fock_dim"},
    "noise-threshold": {"tolerance"},
    "two-mode-invariant": {"fock_dim"},
    "lur": {"fock_dim"},
    "ppt-crosscheck": set(),
}


def test_each_experiment_takes_the_shared_options_and_only_the_opt_in_ones_it_reads():
    common = {p.name for p in COMMON_PARAMS}
    taken = {name: {p.name for p in exp.options} & common for name, exp in EXPERIMENTS.items()}
    assert taken == {name: {"output", "format", "seed"} | READS[name] for name in EXPERIMENTS}
    assert sum(map(len, taken.values())) == 30
    assert all(set(exp.reads) <= {p.name for p in COMMON_PARAMS if p.opt_in} for exp in EXPERIMENTS.values())


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_describe_and_help_list_the_options_an_experiment_takes(capsys, name):
    assert main(["describe", name]) == 0
    listed = capsys.readouterr().out.splitlines()[-1]
    flags = [f"--{p.name.replace('_', '-')}" for p in EXPERIMENTS[name].options]
    assert listed == "options: " + " ".join(flags) + " --config --dump-config"
    with pytest.raises(SystemExit) as exc:
        main([name, "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    for flag in ("--fock-dim", "--tolerance"):
        assert (flag in usage) == (flag in flags)


UNREAD = [
    (["tavis", "--fock-dim", "7"], "fock_dim"),
    (["tavis", "--tolerance", "0.5"], "tolerance"),
    (["jc-thermal", "--tolerance", "1"], "tolerance"),
    (["ppt-crosscheck", "--fock-dim", "3"], "fock_dim"),
    (["noise-threshold", "--fock-dim", "8"], "fock_dim"),
]


@pytest.mark.parametrize("argv, key", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
def test_an_option_the_runner_does_not_read_exits_2_naming_it(tmp_path, capsys, argv, key):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]} {argv[2]}" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": argv[0], key: json.loads(argv[2])}))
    assert main([argv[0], "--config", str(cfg), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: experiment '{argv[0]}' does not read '{key}'\n"
    assert not out.exists() and list(tmp_path.iterdir()) == [cfg]


def test_lur_atom_field_refuses_a_truncation_it_does_not_read(tmp_path, capsys):
    out = tmp_path / "out.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "lur", "params": {"mode": "atom-field"}, "fock_dim": 7}))
    for argv in (["lur", "--mode", "atom-field", "--fock-dim", "7"], ["lur", "--config", str(cfg)]):
        assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: experiment 'lur' does not read 'fock_dim' in mode 'atom-field'\n"
        assert not out.exists()


def test_a_null_unread_option_in_a_config_file_is_unset(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "tavis", "fock_dim": None, "tolerance": None}))
    assert _dump(capsys, ["tavis", "--config", str(cfg)]) == _dump(capsys, ["tavis"])
    assert main(["tavis", "--grid", "3", "--config", str(cfg), "--output", str(tmp_path / "t.csv")]) == 0
    meta = json.loads((tmp_path / "t.csv.meta.json").read_text())
    assert (meta["config"]["fock_dim"], meta["config"]["tolerance"]) == (None, None)
