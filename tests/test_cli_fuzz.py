"""The option tables, fuzzed through ``cli.main`` in-process.

Each example draws flags for one experiment from its ``Param`` table and
the common options it takes (:data:`DOMAINS`): values in each parser's
domain at small sizes (a few grid points, trials or r-values), and, in the
"any-text" half, values at or past the boundaries of each check, text the
parser cannot read, and perhaps an opt-in common option the experiment
does not take.  The properties:

- the exit code is 0, 2 or 3 (``SystemExit(2)`` from argparse counts as 2),
  and no other exception escapes;
- an option the experiment does not take exits 2 and writes nothing;
- the same argv run twice writes the same bytes, and a run that exits 0
  writes a sidecar and the row count its parameters give;
- the ``--format json`` rows equal the CSV rows;
- ``--dump-config`` round-trips: its output, read back as a config file,
  dumps to the same bytes.

A value that once broke a property is kept in :data:`REGRESSIONS` and
runs as its own case.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entwitness import cli

SETTINGS = settings(derandomize=True, max_examples=20, deadline=None, database=None)


def _floats(valid: bool):
    return st.floats(0.0, 1.5) if valid else st.sampled_from([-1.0, -0.0, 0.0, 1e-300, 2.5])


def _words(valid, invalid):
    return st.sampled_from(valid), st.sampled_from(invalid)


# per option name, else per parser: (text in its domain, text at or past its boundaries),
# kept small so that a run takes milliseconds
DOMAINS = {
    "seed": (st.integers(0, 9).map(str), st.sampled_from(["-1", str(2**32), str(2**64 - 1)])),
    "fock_dim": (st.integers(2, 8).map(str), st.just("1")),
    "family": _words(["bell", "subspace", "pair-bilinear"], ["Bell", "pair"]),
    "mode": _words(["tmsv", "atom-field"], ["atom"]),
    "atom": _words(["excited", "ground"], ["e"]),
    "input": _words(
        ["fock:0", "fock:2", "coherent:0.4", "squeezed:0.3", "amps:1,1"],
        ["fock:30", "fock:-1", "coherent:9", "amps:0", "vac:1"],
    ),
    "dims": _words(["2x2", "2x3,3x2", "4x2"], ["1x2", "2x", "2x2x2"]),
    "format": _words(["csv", "json"], ["xml"]),
    int: (st.integers(1, 5).map(str), st.sampled_from(["-1", "0"])),
    float: (_floats(True).map(repr), _floats(False).map(repr)),
    cli._float_list: tuple(
        st.lists(_floats(valid), min_size=1, max_size=3).map(lambda xs: ",".join(map(repr, xs)))
        for valid in (True, False)
    ),
    cli._bool: _words(["true", "No", "1", "yes"], ["ture", "2"]),
}
# always drawn, so that no run falls back to a default size (600 points, 500 trials, ...)
SIZES = ("--points", "--grid", "--trials", "--fock-dim")
JUNK = st.sampled_from(["", "x", "1.5.2", "nan", "-", "0x1", ",", "1,,2", "inf"])


def _text(param: cli.Param, in_domain: bool):
    """Text for one option's value: in its domain, or also past its boundaries and unreadable."""
    valid, edge = DOMAINS[param.name] if param.name in DOMAINS else DOMAINS[param.parse]
    return valid if in_domain else st.one_of(valid, edge, JUNK)


def _argv(exp: cli.Experiment, in_domain: bool):
    """``(argv, unread)``: ``--flag=value`` for some options ``exp`` takes and, in the
    any-text half, perhaps for one opt-in option it does not take."""
    taken = {cli._flag(p): _text(p, in_domain) for p in exp.options if p.name != "output"}
    sizes = {flag: taken.pop(flag) for flag in SIZES if flag in taken}
    unread = [st.tuples(st.just(cli._flag(p)), _text(p, True)) for p in cli.COMMON_PARAMS if p not in exp.options]

    def argv(chosen):
        flags, extra = chosen
        items = [*flags.items(), *([extra] if extra else [])]
        return [exp.name, *(f"{flag}={value}" for flag, value in items)], extra is not None

    extras = st.none() if in_domain else st.one_of(st.none(), *unread)
    return st.tuples(st.fixed_dictionaries(sizes, optional=taken), extras).map(argv)


def _run(argv) -> tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)``; argparse's ``SystemExit`` gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    return code, out.getvalue(), err.getvalue()


def _written(argv, folder: Path) -> tuple[int, str, dict[str, bytes]]:
    """Exit code, stderr and the files a run with ``--output`` writes in an empty ``folder``."""
    code, _, err = _run([*argv, "--output", str(folder / "out.csv")])
    files = {f.name: f.read_bytes().replace(str(folder).encode(), b"<dir>") for f in folder.iterdir()}
    return code, err, files


# the rows a run writes, from its resolved parameters
ROWS = {
    "jc-thermal": lambda p: len(p["nbar"]) * p["points"],
    "tavis": lambda p: p["grid"],
    "dicke": lambda p: p["points"],
    "beamsplitters": lambda p: len(p["epsilon"]),
    "noise-threshold": lambda p: 1,
    "two-mode-invariant": lambda p: len(p["r_values"]),
    "lur": lambda p: len(p["r_values"]) if p["mode"] == "tmsv" else 2 * p["points"],
    "ppt-crosscheck": lambda p: p["trials"],
}


def check_properties(argv, unread: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        first.mkdir()
        second.mkdir()
        code, err, files = _written(argv, first)
        if unread:
            assert code == 2 and files == {}, (argv, err)
        assert _written(argv, second) == (code, err, files), argv
        dump_code, dumped, _ = _run([*argv, "--dump-config"])
        if dump_code == 0:
            cfg = Path(tmp, "cfg.json")
            cfg.write_text(dumped)
            assert _run([argv[0], "--config", str(cfg), "--dump-config"]) == (0, dumped, ""), argv
        if code == 0:  # the last --format wins
            assert set(files) == {"out.csv", "out.csv.meta.json"}, argv
            csv_code, table, _ = _run([*argv, "--format=csv"])
            json_code, payload, _ = _run([*argv, "--format=json"])
            assert csv_code == json_code == 0, argv
            header, *cells = csv.reader(io.StringIO(table, newline=""))
            rows = json.loads(payload)["rows"]
            assert len(cells) == len(rows) == ROWS[argv[0]](json.loads(dumped)["params"]), argv
            for row, line in zip(rows, cells):  # a JSON row lists its keys sorted
                assert {k: cli._format_cell(v) for k, v in row.items()} == dict(zip(header, line)), argv


@pytest.mark.parametrize("in_domain", [True, False], ids=["in-domain", "any-text"])
@pytest.mark.parametrize("name", sorted(cli.EXPERIMENTS))
def test_the_option_table_holds_its_properties_under_fuzzing(name, in_domain):
    @SETTINGS
    @given(_argv(cli.EXPERIMENTS[name], in_domain))
    def fuzz(drawn):
        check_properties(*drawn)

    fuzz()


# argv that once broke a property, each kept as a case
REGRESSIONS = [
    ["beamsplitters", "--t1=1e-300"],  # (r1 t1 r2)^2 underflowed to 0 and divided the margin
]


@pytest.mark.parametrize("argv", REGRESSIONS, ids=[" ".join(a) for a in REGRESSIONS])
def test_a_fuzzed_regression_holds_its_properties(argv):
    check_properties(argv, unread=False)
