"""Benchmark workloads: seeded CLI arguments, item counts and output checks.

Every workload is a closed loop with one client: a single process runs one
pass after another, each pass waiting for the previous one to finish.  A
pass is one or more calls of ``entwitness.cli.main``.  The workload seed is
a benchmark argument; the program only receives the CLI arguments generated
from it (``ppt-crosscheck`` takes it as its ``--seed``).

The checks run on every pass and count failed items.  At
:data:`REFERENCE_SEED` and full size the outputs are also compared against
rows recorded in ``reference.json`` within :data:`REF_RTOL` /
:data:`REF_ATOL` (and :data:`S_STAR_TOL` for located thresholds), so a later
change that only reorders floating-point sums is not counted as a failure.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0
REF_RTOL = 1e-7
REF_ATOL = 1e-9
S_STAR_TOL = 1e-3  # the pair-bilinear scan tolerance: max(default 1e-4, 1e-3)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
PLAIN_FLIP = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Invocation:
    """One ``cli.main`` call: arguments (without ``--output``), items, check.

    ``check(rows, meta)`` returns how many of the call's items failed.
    """

    argv: tuple[str, ...]
    items: int
    check: Callable[[list, dict], int]


@dataclass(frozen=True)
class Workload:
    name: str
    item_unit: str
    why: str
    build: Callable[[random.Random, int, str], tuple[dict, list[Invocation]]]


def _distinct(rng: random.Random, count: int, lo: float, hi: float, digits: int) -> list[float]:
    values: set = set()
    while len(values) < count:
        values.add(round(rng.uniform(lo, hi), digits))
    return sorted(values)


def _csv_floats(values) -> str:
    return ",".join(repr(v) for v in values)


def _count_mismatch(rows: list, items: int) -> int:
    return abs(len(rows) - items)


# --- jc-trace ---------------------------------------------------------------


def _build_jc(rng, seed, size):
    nbar = _distinct(rng, 5 if size == "full" else 2, 0.01, 0.05, 5)
    points = 600 if size == "full" else 20
    items = len(nbar) * points

    def check(rows, meta):
        bad = _count_mismatch(rows, items)
        if sorted({float(r["nbar"]) for r in rows}) != nbar:
            return items
        for r in rows:
            if not (abs(float(r["absM12"])) <= 1e-9 and float(r["M22"]) <= 0.0):
                bad += 1
        return bad

    argv = ("jc-thermal", "--nbar", _csv_floats(nbar), "--points", str(points))
    return {"nbar": nbar, "points": points}, [Invocation(argv, items, check)]


# --- lur-tmsv ---------------------------------------------------------------


def _rel_close(value: float, expected: float, rtol: float = 1e-9) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def _build_lur(rng, seed, size):
    r_values = _distinct(rng, 3, 0.1, 0.6 if size == "full" else 0.3, 4)
    fock_dim = 56 if size == "full" else 12
    items = 2 * len(r_values)

    def check(rows, meta):
        bad = 2 * _count_mismatch(rows, len(r_values))
        for r, row in zip(r_values, rows):
            if float(row["r"]) != r:
                bad += 2
                continue
            bad += not _rel_close(float(row["value_pi_phase"]), math.exp(-2 * r))
            bad += not _rel_close(float(row["value_plus_phase"]), math.exp(2 * r))
        return bad

    argv = ("lur", "--mode", "tmsv", "--fock-dim", str(fock_dim), "--r-values", _csv_floats(r_values))
    return {"r_values": r_values, "fock_dim": fock_dim}, [Invocation(argv, items, check)]


# --- ppt-mc -----------------------------------------------------------------


def _build_ppt(rng, seed, size):
    trials = 2000 if size == "full" else 40
    dims = "2x4,3x3,4x4,3x5"

    def check(rows, meta):
        bad = _count_mismatch(rows, trials)
        for row in rows:
            separable_flagged = row["kind"] == "separable" and row["flagged"] == "true"
            if row["consistent"] != "true" or separable_flagged:
                bad += 1
        return max(bad, int(meta["diagnostics"]["violations"]))

    argv = ("ppt-crosscheck", "--trials", str(trials), "--dims", dims, "--seed", str(seed))
    return {"trials": trials, "dims": dims, "cli_seed": seed}, [Invocation(argv, trials, check)]


# --- squeeze-threshold ------------------------------------------------------


def _build_squeeze(rng, seed, size):
    r_values = _distinct(rng, 5 if size == "full" else 2, 0.1, 1.1 if size == "full" else 0.6, 4)
    fock_dim = 256 if size == "full" else 64

    def check_invariant(rows, meta):
        bad = _count_mismatch(rows, len(r_values))
        for r, row in zip(r_values, rows):
            verdict_ok = (row["cond1_entangled"] == "true") == (math.tanh(r) < PLAIN_FLIP)
            if float(row["r"]) != r or row["matrix_entangled"] != "true" or not verdict_ok:
                bad += 1
        return bad

    def check_threshold(rows, meta):
        if len(rows) != 1:
            return 1
        return int(not abs(float(rows[0]["s_star"]) - GOLDEN) <= S_STAR_TOL)

    calls = [
        Invocation(
            ("two-mode-invariant", "--fock-dim", str(fock_dim), "--r-values", _csv_floats(r_values)),
            len(r_values),
            check_invariant,
        ),
        Invocation(("noise-threshold", "--family", "pair-bilinear"), 1, check_threshold),
    ]
    return {"r_values": r_values, "fock_dim": fock_dim}, calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jc-trace",
            "density-matrix time step",
            "The mixed-state (DensityMatrix) path on a small 40-dim space, walked one "
            "Python call per grid point: spaces operator algebra, operators.delta, "
            "spaces.propagator_family and witnesses.witness_matrix_expand_b do nearly all "
            "of the work. Target of batching over time; barely touches dense embedding "
            "at large D.",
            _build_jc,
        ),
        Workload(
            "lur-tmsv",
            "LUR evaluation (one per phase branch)",
            "The pure-state (StateVector) path at D = 3136: time and memory go to "
            "spaces.embed and LabeledOperator.__add__ on dense DxD matrices, which local "
            "operators remove. Almost no per-point Python calls.",
            _build_lur,
        ),
        Workload(
            "ppt-mc",
            "trial",
            "Thousands of tiny independent problems, half pure and half separable "
            "mixtures, at dims <= 15: per-call overhead in witnesses.cond1/cond2, "
            "witnesses.ppt_min_eig, small embed calls and the runner's input generation. "
            "A gain for large D that costs small D shows here.",
            _build_ppt,
        ),
        Workload(
            "squeeze-threshold",
            "squeeze magnitude evaluated or threshold located",
            "The only workload where linalg.mat_exp/herm_eig at d = 256 (through "
            "operators.squeeze) and the search.threshold_scan + "
            "witnesses.product_vector_scan layers do most of the work; target of a "
            "Gaussian-unitary cache.",
            _build_squeeze,
        ),
    )
}


def build(name: str, seed: int, size: str = "full") -> tuple[dict, list[Invocation]]:
    """Seed-derived parameters and the CLI calls of one pass."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name].build(rng, seed, size)


def read_output(path: Path) -> tuple[list, dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(f"{path}.meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    return rows, meta


def _cell_matches(column: str, got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    atol = S_STAR_TOL if column == "s_star" else REF_ATOL
    return abs(g - w) <= atol + REF_RTOL * abs(w)


def reference_failures(name: str, outputs: list, reference: dict) -> int:
    """Recorded rows of ``reference`` that the pass's outputs do not reproduce.

    ``outputs`` holds the ``(rows, meta)`` of each call, or None for a call
    that failed (its items are already counted as failed).
    """
    bad = 0
    for entry in reference[name]:
        got = outputs[entry["call"]]
        if got is None:
            continue
        rows = got[0]
        if entry["row"] >= len(rows):
            bad += 1
            continue
        row = rows[entry["row"]]
        if any(not _cell_matches(col, row.get(col, ""), want) for col, want in entry["values"].items()):
            bad += 1
    return bad


def reference_rows(name: str, outputs: list) -> list:
    """The subset of a pass's rows kept as the reference for ``name``."""
    stride = {"jc-trace": 100, "ppt-mc": 50}.get(name, 1)
    return [
        {"call": c, "row": i, "values": dict(row)}
        for c, (rows, _) in enumerate(outputs)
        for i, row in enumerate(rows)
        if i % stride == 0
    ]


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)
