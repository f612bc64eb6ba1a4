"""Committed outputs of fixed CLI configs, regenerated in-process and compared.

Each case under ``tests/golden/`` is a CSV and its ``.meta.json`` sidecar
as the CLI wrote them.  The test runs the same arguments through
``cli.main`` and compares: the header, every text, int and bool cell and
every non-float sidecar field exactly, floats to a relative tolerance of
:data:`RTOL`.  The sidecar's ``config.output`` is the path written to and is
not compared.  Bytes are not compared: numpy and BLAS builds may move the
last digits of a float.

The CSV writer picks its path by the table's float cell count
(``cli.CSV_BYTES_MIN_FLOAT_CELLS``, 200).  ``jc-thermal-nbar2-points50``
(300 float cells), ``jc-thermal-points100`` (1800),
``jc-thermal-ground-nbar0.3-1-points50`` (600),
``jc-thermal-nbar0.01-2-0.02-points40`` (720), ``ppt-crosscheck-defaults``
(500 trials, 1500), ``ppt-crosscheck-trials200-seed1`` (600),
``tavis-defaults`` (1200), ``dicke-defaults`` (480) and ``lur-atom-field``
(328) are written by the byte path; ``two-mode-invariant-fock256`` (16),
``two-mode-invariant-defaults`` (16), ``lur-fock56`` (15), ``lur-defaults``
(15), ``jc-thermal-nbar0-fock2-points5`` (30),
``ppt-crosscheck-trials37-seed3`` (111), ``beamsplitters-defaults`` (8) and
the three ``noise-threshold-*`` cases (3 each; ``subspace`` prints a NaN
``c1``, which matches only a NaN) by the row path.  The two larger
ppt-crosscheck tables hold separable mixtures of every product count from
1 to 16.  The jc cases cover a batch of three nbar at fock_dim 20, a batch
of two whose second config escalates to 40, a start at fock_dim 2 whose
trace escalates to 4, and a batch whose middle config escalates to 40
while the configs on either side keep 20, in config order.

A change that moves an output on purpose rewrites the files with::

    PYTHONPATH=src python tests/test_golden_outputs.py --regenerate

and names the move in CHANGES.md.
"""

import csv
import json
import math
import sys
from pathlib import Path

import pytest

from entwitness import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
CASES = {
    "two-mode-invariant-fock256": ["two-mode-invariant", "--fock-dim", "256"],
    "lur-fock56": ["lur", "--fock-dim", "56", "--r-values", "0.1,0.3,0.5"],
    "jc-thermal-nbar2-points50": ["jc-thermal", "--nbar", "2", "--points", "50"],
    "ppt-crosscheck-trials37-seed3": [
        "ppt-crosscheck", "--trials", "37", "--dims", "4x2,2x2,3x5", "--seed", "3",
    ],
    "ppt-crosscheck-defaults": ["ppt-crosscheck"],
    "ppt-crosscheck-trials200-seed1": [
        "ppt-crosscheck", "--trials", "200", "--dims", "2x4,3x3,4x4,3x5", "--seed", "1",
    ],
    "jc-thermal-points100": ["jc-thermal", "--points", "100"],
    "jc-thermal-ground-nbar0.3-1-points50": [
        "jc-thermal", "--atom", "ground", "--nbar", "0.3,1", "--points", "50",
    ],
    "jc-thermal-nbar0-fock2-points5": ["jc-thermal", "--nbar", "0", "--fock-dim", "2", "--points", "5"],
    "jc-thermal-nbar0.01-2-0.02-points40": ["jc-thermal", "--nbar", "0.01,2,0.02", "--points", "40"],
    "tavis-defaults": ["tavis"],
    "dicke-defaults": ["dicke"],
    "beamsplitters-defaults": ["beamsplitters"],
    "lur-defaults": ["lur"],
    "lur-atom-field": ["lur", "--mode", "atom-field"],
    "two-mode-invariant-defaults": ["two-mode-invariant"],
    "noise-threshold-bell": ["noise-threshold", "--family", "bell"],
    "noise-threshold-subspace": ["noise-threshold", "--family", "subspace"],
    "noise-threshold-pair-bilinear": ["noise-threshold", "--family", "pair-bilinear"],
}


def _run(argv: list[str], csv_path: Path) -> None:
    assert cli.main(argv + ["--output", str(csv_path)]) == 0


def _same_value(got, want) -> bool:
    """Exact for text, bool, int, non-finite floats and containers of them; floats to RTOL."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_value(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same_value, got, want))
    if isinstance(want, float) and math.isfinite(want) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return type(got) is type(want) and got == want


def _cell(text: str):
    """A CSV cell as the value it spells: an int, a float, or the text itself."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _rows(path: Path) -> list[list]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return [header] + [[_cell(c) for c in row] for row in rows]


def _meta(path: Path) -> dict:
    meta = json.loads(path.read_text())
    del meta["config"]["output"]
    return meta


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_the_committed_golden_file(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    _run(CASES[name], out)
    want = GOLDEN / f"{name}.csv"
    got_rows, want_rows = _rows(out), _rows(want)
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    for i, (got, row) in enumerate(zip(got_rows[1:], want_rows[1:])):
        assert _same_value(got, row), f"{name} row {i}: {got} != {row}"
    assert _same_value(_meta(Path(f"{out}.meta.json")), _meta(Path(f"{want}.meta.json")))


def _regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out = GOLDEN / f"{name}.csv"
        _run(argv, out)
        meta_path = Path(f"{out}.meta.json")
        meta = json.loads(meta_path.read_text())
        meta["config"]["output"] = out.name
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    _regenerate()
