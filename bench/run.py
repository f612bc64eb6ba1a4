"""entwitness benchmark: one workload per call, measured in fresh processes.

Usage, from the root of a checkout::

    python3 bench/run.py --workload jc-trace --seed 0 --seconds 14 --trace 0
    python3 bench/run.py --workload jc-trace --seed 0 --seconds 14 --trace 1

Workloads (see ``workloads.py`` for why each was chosen): ``jc-trace``,
``lur-tmsv``, ``ppt-mc``, ``squeeze-threshold``.  With ``--all`` the four
run one after another.

``--trace 0`` measures the end-to-end metrics with tracing off, in
:data:`PROCESSES` fresh worker processes run one after another.  Each sets
up (import and cold first pass), then runs warm passes for its share of the
``--seconds`` not yet used by the ones before it, so set-ups are spread over
the run instead of coming first:

* ``items_per_s``: items of one warm pass over the median warm-pass time,
  over the warm passes of all processes;
* ``peak_rss_mb``: the largest ``ru_maxrss`` of the processes;
* ``setup_s``: import of ``entwitness`` (package, ``cli``, ``models``) plus
  the cold first pass, median over the processes;
* ``fail_ratio``: failed items over attempted items, from every pass of
  every process (also given as ``failed``/``attempted`` in the JSON line).

The two times are given at the reference host speed of
``worker.CALIB_REF_S``: each pass time scaled by the calibration kernel run
just before and after it, each set-up time by the median kernel time of its
process.  On a shared 2-vCPU virtual machine the speed of the same code
drifted by up to a third over minutes, for pure Python as for numpy; the
scaling takes most of that drift out of comparisons between runs made at
different times.  The unscaled figures are printed beside the scaled ones.

``--trace 1`` runs one process that alternates untraced and traced warm
passes and reports the per-layer metrics of ``tracing.LAYER_METRICS``, the
tracing overhead, and the end-to-end metric each layer metric should move.
A run whose counts differ between traced passes is not correct.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Nothing but this
script's own processes runs: one worker at a time, each waited for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
PROCESSES = 5
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed item)."""


def _worker(mode: str, args, deadline: float, seconds: float) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--size", args.size,
        "--mode", mode,
        "--out-dir", str(OUT_DIR),
        "--spans", str(OUT_DIR / f"spans-{args.workload}.csv"),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{mode} worker did not finish within the time limit") from err
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _describe(args) -> None:
    wl = workloads.WORKLOADS[args.workload]
    params, invocations = workloads.build(args.workload, args.seed, args.size)
    items = sum(inv.items for inv in invocations)
    print(f"workload: {wl.name} (seed {args.seed}, size {args.size}, {args.seconds:g} s, trace {args.trace})")
    print(f"  loop: closed, one client; {PROCESSES} fresh processes one after another, passes back to back")
    print(f"  item: {wl.item_unit}; {items} items per pass")
    print(f"  params: {json.dumps(params)}")
    for inv in invocations:
        print(f"  argv: {' '.join(inv.argv)}")
    print(f"  why: {wl.why}")


def _env_line(env: dict) -> str:
    return "env: " + " ".join(f"{k}={v}" for k, v in env.items())


def run_untraced(args, deadline: float) -> dict:
    runs = []
    for k in range(PROCESSES):
        spent = sum(sum(r["warm_s"]) for r in runs)
        runs.append(_worker("measure", args, deadline, (args.seconds - spent) / (PROCESSES - k)))
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    items = sum(inv.items for inv in workloads.build(args.workload, args.seed, args.size)[1])
    passes = [t for r in runs for t in r["warm_ref_s"]]
    raw_passes = [t for r in runs for t in r["warm_s"]]
    setups = [r["setup_ref_s"] for r in runs]
    q1, med, q3 = _quartiles(passes)
    rss = max(r["peak_rss_mb"] for r in runs)
    calib = [c for r in runs for c in r["calib_s"]]
    metrics = {
        "items_per_s": {"value": items / med, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    print(_env_line(runs[0]["env"]))
    print(
        f"calibration: kernel median {statistics.median(calib):.4f} s (n={len(calib)}), "
        f"{worker.CALIB_REF_S} s at the reference speed"
    )
    print(
        f"items_per_s = {items / med:.6g} 1/s  (n={len(passes)} warm passes in {PROCESSES} processes; "
        f"scaled pass time p25/p50/p75 = {q1:.4f}/{med:.4f}/{q3:.4f} s; "
        f"unscaled {items / statistics.median(raw_passes):.6g} 1/s)"
    )
    print(f"peak_rss_mb = {rss:.6g} MB  (largest of n={len(runs)} processes)")
    print(
        f"setup_s = {metrics['setup_s']['value']:.6g} s  (median of n={len(setups)} fresh processes, "
        "scaled: "
        + ", ".join(f"{s:.4f}" for s in setups)
        + "; unscaled: "
        + ", ".join(f"{r['setup_s']:.4f}" for r in runs)
        + "; import alone: "
        + ", ".join(f"{r['import_s']:.4f}" for r in runs)
        + ")"
    )
    print(f"fail_ratio = {failed / attempted:.6g}  ({failed} failed of n={attempted} items)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(args, deadline: float) -> dict:
    res = _worker("trace", args, deadline, args.seconds)
    layers = res["layers"]
    metrics = {}
    print(_env_line(res["env"]))
    print(
        f"trace: {len(res['warm_s'])} untraced and {len(res['traced_s'])} traced warm passes; "
        f"per-pass values, self times are medians over the traced passes; "
        f"counts repeat across traced passes: {res['counts_repeat']}"
    )
    print("trace: no layer has a queue or a second thread, so no waiting time is reported")
    print(f"trace: spans of the first traced pass in {OUT_DIR.name}/spans-{args.workload}.csv")
    for name, unit, _, moves in tracing.LAYER_METRICS:
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"{name} = {layers[name]:.6g} {unit}  (should move: {moves})")
    attempted, failed = res["attempted"], res["failed"]
    print(f"fail_ratio = {failed / attempted:.6g}  ({failed} failed of n={attempted} items)")
    if not res["counts_repeat"]:
        print("error: per-layer counts differ between traced passes", file=sys.stderr)
    correct = failed == 0 and res["counts_repeat"]
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="entwitness benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for self-tests")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if not (ROOT / "src" / "entwitness" / "__init__.py").is_file():
        print(f"error: no entwitness sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    names = sorted(workloads.WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        args.workload = name
        deadline = time.monotonic() + TIME_LIMIT_S
        _describe(args)
        try:
            results[name] = run_traced(args, deadline) if args.trace else run_untraced(args, deadline)
        except BenchError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    if args.all:
        # one line for all workloads, metric names prefixed with the workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
