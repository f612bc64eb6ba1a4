"""Checks of the workflow's console-script smoke step, run in-process by ``cli.main``.

Each test is one check that the step used to run as an ``entwitness``
command followed by a ``python -c`` assertion on its CSV, with the same
argv and the same assertion.
"""

import csv

from entwitness import cli


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

