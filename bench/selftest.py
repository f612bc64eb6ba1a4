"""Self-tests of the benchmark, kept apart from the repository's test suite.

Run from the root of a checkout (about a minute)::

    python3 bench/selftest.py
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = ROOT / ".bench_out" / "selftest"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


@functools.lru_cache(maxsize=None)
def _tiny_run(trace: int, repeat: int = 0) -> tuple[str, dict]:
    """stdout and result line of a tiny run over every workload."""
    proc = _bench("--all", "--size", "tiny", "--seconds", "0.3", "--seed", "5", "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError(f"tiny run failed:\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def _benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        bench = _benchmark_json()
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [m[:3] for m in tracing.LAYER_METRICS],
        )


class SmokeTest(unittest.TestCase):
    def _assert_metrics(self, trace: int, key: str):
        stdout, result = _tiny_run(trace)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        expected = _benchmark_json()[key]
        names = {f"{w}.{m['name']}" for w in workloads.WORKLOADS for m in expected}
        self.assertEqual(set(result["metrics"]), names)
        for metric in expected:
            printed = re.findall(rf"^{re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}\b", stdout, re.M)
            self.assertEqual(len(printed), len(workloads.WORKLOADS), metric["name"])
            for w in workloads.WORKLOADS:
                got = result["metrics"][f"{w}.{metric['name']}"]
                self.assertEqual(got["unit"], metric["unit"])
                self.assertTrue(math.isfinite(got["value"]))
        self.assertEqual(len(re.findall(r"^fail_ratio = 0 ", stdout, re.M)), len(workloads.WORKLOADS))
        self.assertEqual(len(re.findall(r"^env: nproc=\d+ openblas_threads=", stdout, re.M)), len(workloads.WORKLOADS))

    def test_untraced_run_prints_every_end_to_end_metric(self):
        self._assert_metrics(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self._assert_metrics(1, "per_layer")
        stdout, _ = _tiny_run(1)
        self.assertIn("no waiting time is reported", stdout)

    def test_two_traced_runs_give_identical_counts(self):
        first = _tiny_run(1)[1]["metrics"]
        second = _tiny_run(1, repeat=1)[1]["metrics"]
        counts = [k for k in first if not k.endswith("_s") and not k.endswith("overhead_ratio")]
        self.assertTrue(any(k.endswith(".calls") for k in counts))
        for key in counts:
            self.assertEqual(first[key]["value"], second[key]["value"], key)
        positive = {k.split(".", 1)[1] for k in counts if first[k]["value"] > 0}
        for key in ("spaces.embed.bytes_computed", "linalg.herm_eig.d3_sum", "search.predicate_evals"):
            self.assertIn(key, positive)

    def test_counts_that_differ_between_traced_passes_make_the_run_incorrect(self):
        res = {
            "layers": {m[0]: 0 for m in tracing.LAYER_METRICS},
            "env": {},
            "warm_s": [1.0],
            "traced_s": [1.0],
            "counts_repeat": False,
            "attempted": 3,
            "failed": 0,
        }
        quiet = contextlib.ExitStack()
        quiet.enter_context(contextlib.redirect_stdout(io.StringIO()))
        quiet.enter_context(contextlib.redirect_stderr(io.StringIO()))
        with quiet, mock.patch.object(run, "_worker", return_value=res):
            result = run.run_traced(argparse.Namespace(workload="ppt-mc", seconds=1.0), deadline=0.0)
        self.assertFalse(result["correct"])

    def test_bare_directory_exits_nonzero_without_a_result(self):
        bare = WORK_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "ppt-mc", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


def _rewrite(path: Path, change) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    change(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        out.writeheader()
        out.writerows(rows)


def _first(rows, pick, column, value):
    row = next(r for r in rows if pick(r))
    row[column] = value(row[column])


CORRUPTIONS = {
    "jc-trace": lambda rows: _first(rows, lambda r: True, "M22", lambda v: "1.0"),
    "lur-tmsv": lambda rows: _first(rows, lambda r: True, "value_pi_phase", lambda v: repr(float(v) * 1.001)),
    "ppt-mc": lambda rows: _first(rows, lambda r: r["kind"] == "separable", "flagged", lambda v: "true"),
    "squeeze-threshold": lambda rows: _first(rows, lambda r: True, "matrix_entangled", lambda v: "false"),
}


class CheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(ROOT / "src"))
        import entwitness.cli

        cls.cli = entwitness.cli
        WORK_DIR.mkdir(parents=True, exist_ok=True)

    def _pass(self, name: str):
        _, invocations = workloads.build(name, 3, "tiny")
        _, attempted, failed = worker.run_pass(self.cli, name, invocations, WORK_DIR, None)
        self.assertEqual(failed, 0, name)
        paths = [WORK_DIR / f"{name}-{i}.csv" for i in range(len(invocations))]
        return invocations, paths, attempted

    def test_corrupted_row_raises_fail_ratio(self):
        self.assertEqual(set(CORRUPTIONS), set(workloads.WORKLOADS))
        for name, corrupt in CORRUPTIONS.items():
            invocations, paths, _ = self._pass(name)
            _rewrite(paths[0], corrupt)
            attempted, failed = worker.check_pass(name, invocations, paths, [0] * len(paths), None)
            self.assertGreater(failed / attempted, 0, name)

    def test_failed_call_counts_all_its_items(self):
        invocations, paths, attempted = self._pass("lur-tmsv")
        self.assertEqual(worker.check_pass("lur-tmsv", invocations, paths, [3], None), (attempted, attempted))

    def test_reference_rows_compare_within_tolerance(self):
        name = "squeeze-threshold"
        invocations, paths, _ = self._pass(name)
        outputs = [workloads.read_output(p) for p in paths]
        reference = {name: workloads.reference_rows(name, outputs)}
        self.assertEqual(workloads.reference_failures(name, outputs, reference), 0)
        lam = reference[name][0]["values"]["lambda_max"]
        reference[name][0]["values"]["lambda_max"] = repr(float(lam) * (1 + 1e-12))
        self.assertEqual(workloads.reference_failures(name, outputs, reference), 0)
        reference[name][0]["values"]["lambda_max"] = repr(float(lam) * 1.01)
        self.assertEqual(workloads.reference_failures(name, outputs, reference), 1)

    def test_recorded_reference_covers_every_workload(self):
        reference = workloads.load_reference()
        self.assertEqual(set(reference), set(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            _, invocations = workloads.build(name, workloads.REFERENCE_SEED)
            self.assertTrue(reference[name])
            for entry in reference[name]:
                self.assertLess(entry["row"], invocations[entry["call"]].items)


if __name__ == "__main__":
    unittest.main()
