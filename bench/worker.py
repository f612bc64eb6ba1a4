"""One benchmark process: import entwitness, run passes, print a JSON result.

Started by ``run.py`` in a fresh interpreter, one process at a time::

    python3 bench/worker.py --workload jc-trace --seed 0 --seconds 10 --mode measure

Both modes import the package and run the cold first pass (the set-up),
then warm passes:

* ``measure``: warm passes while the next one would end nearer to
  ``--seconds`` than the last one did (at least one), with a run of the
  calibration kernel before the first and after each;
* ``trace``: untraced and traced warm passes in turn until ``--seconds``
  have passed, with the spans of the first traced pass written to
  ``--spans``.

Every pass is checked.  The last line of standard output is one JSON object.

A shared host can change speed by a third over minutes, for pure Python as
much as for numpy, and process CPU time changes with it.  So ``measure``
runs the :func:`calibrate` kernel before the first warm pass and after each
one, and reports every time also scaled to a reference host speed:
multiplied by :data:`CALIB_REF_S` over the kernel time measured next to it.
The kernel is benchmark code, so a change to the program does not change
it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def openblas_threads() -> str:
    """Thread count of each OpenBLAS loaded in this process, read, never set."""
    found = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return "unknown"
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(f"{Path(lib).name.split('-')[0]}={fn()}")
                break
    return ";".join(found) or "unknown"


CALIB_REF_S = 0.1  # calibration kernel time at the reference host speed
_CALIB_INPUTS: list = []


def calibrate() -> float:
    """Seconds taken by a fixed kernel: a Python loop, tiny and d = 256 eigensolves.

    Its three parts, of similar length, are the kinds of work the workloads
    do between them: interpreter overhead, many tiny LAPACK calls and a few
    mid-size ones.  Its inputs take 1.7 MB; with them and the LAPACK
    workspaces it adds about 5 MB to a process's peak RSS, the same on
    every commit.
    """
    import numpy as np

    if not _CALIB_INPUTS:
        rng = np.random.default_rng(0)
        small = rng.standard_normal((1000, 12, 12))
        dense = rng.standard_normal((256, 256))
        _CALIB_INPUTS.extend([small + small.transpose(0, 2, 1), dense + dense.T])
    small, dense = _CALIB_INPUTS
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    for m in small:
        np.linalg.eigvalsh(m)
    for _ in range(4):
        np.linalg.eigh(dense)
    return time.perf_counter() - start


def run_pass(cli, name: str, invocations, out_dir: Path, reference: dict | None):
    """Run one pass; return (wall seconds, attempted items, failed items)."""
    paths = [out_dir / f"{name}-{i}.csv" for i in range(len(invocations))]
    for path in paths:
        path.unlink(missing_ok=True)
    codes = []
    start = time.perf_counter()
    for inv, path in zip(invocations, paths):
        try:
            codes.append(cli.main([*inv.argv, "--output", str(path)]))
        except Exception:  # an exception is a failed call, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            codes.append(None)
    elapsed = time.perf_counter() - start
    attempted, failed = check_pass(name, invocations, paths, codes, reference)
    return elapsed, attempted, failed


def check_pass(name: str, invocations, paths, codes, reference: dict | None):
    """Check the outputs of one pass; return (attempted items, failed items)."""
    attempted = failed = 0
    outputs = []
    for inv, path, code in zip(invocations, paths, codes):
        attempted += inv.items
        got = None
        if code == 0:
            try:
                got = workloads.read_output(path)
                failed += min(inv.items, inv.check(*got))
            except (OSError, KeyError, ValueError) as err:
                print(f"unreadable output {path.name}: {err!r}", file=sys.stderr)
                got = None
                failed += inv.items
        else:
            print(f"{' '.join(inv.argv)} exited with {code}", file=sys.stderr)
            failed += inv.items
        outputs.append(got)
    if reference is not None:
        failed = min(attempted, failed + workloads.reference_failures(name, outputs, reference))
    return attempted, failed


def measure(cli, args, invocations, out_dir, reference):
    """Warm passes for about ``args.seconds``, each between two calibrations.

    Returns [(seconds, attempted, failed)] of the passes and the
    calibration times, one more than there are passes.
    """
    calibrate()  # the first run in a process also pays for loading LAPACK routines
    passes, calib = [], [calibrate()]
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin + passes[-1][0] / 2 < args.seconds:
        passes.append(run_pass(cli, args.workload, invocations, out_dir, reference))
        calib.append(calibrate())
    return passes, calib


def trace(cli, args, invocations, out_dir, reference):
    """Untraced and traced warm passes in turn.

    Returns the untraced and the traced passes, per-layer metrics (self
    times are medians over the traced passes), and whether every count
    repeated exactly across the traced passes.
    """
    import tracing

    tracer = tracing.Tracer()
    warm, traced, layers = [], [], []
    first_spans = None
    begin = time.perf_counter()
    while time.perf_counter() - begin < args.seconds or not traced:
        use_trace = len(traced) < len(warm)
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            done = run_pass(cli, args.workload, invocations, out_dir, reference)
        finally:
            if use_trace:
                tracer.uninstall()
        if use_trace:
            traced.append(done)
            layers.append(tracing.pass_metrics(tracer.spans))
            if first_spans is None:
                first_spans = tracer.spans
        else:
            warm.append(done)
    if args.spans:
        tracing.write_spans(args.spans, first_spans)

    untraced_s = statistics.median(w for w, _, _ in warm)
    overhead = statistics.median(t for t, _, _ in traced) - untraced_s
    metrics = dict(layers[0])
    for key in metrics:
        if key.endswith("_s"):
            metrics[key] = statistics.median(layer[key] for layer in layers)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / untraced_s
    counts_repeat = all(
        layer[k] == layers[0][k] for layer in layers for k in layer if not k.endswith("_s")
    )
    return warm, traced, metrics, counts_repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _, invocations = workloads.build(args.workload, args.seed, args.size)
    reference = None
    if args.seed == workloads.REFERENCE_SEED and args.size == "full":
        reference = workloads.load_reference()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import entwitness
    import entwitness.cli as cli
    import entwitness.models  # noqa: F401  (part of the import cost users pay)

    import_s = time.perf_counter() - t0
    if Path(entwitness.__file__).resolve().parent != SRC / "entwitness":
        print(f"imported entwitness from {entwitness.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cold_s, attempted, failed = run_pass(cli, args.workload, invocations, out_dir, reference)
    result = {"import_s": import_s, "setup_s": import_s + cold_s}
    if args.mode == "measure":
        warm, calib = measure(cli, args, invocations, out_dir, reference)
        scales = [CALIB_REF_S / ((before + after) / 2) for before, after in zip(calib, calib[1:])]
        result["warm_ref_s"] = [w * scale for (w, _, _), scale in zip(warm, scales)]
        result["setup_ref_s"] = result["setup_s"] * CALIB_REF_S / statistics.median(calib)
        result["calib_s"] = calib
        passes = warm
    else:
        warm, traced, layers, counts_repeat = trace(cli, args, invocations, out_dir, reference)
        result.update(traced_s=[t for t, _, _ in traced], layers=layers, counts_repeat=counts_repeat)
        passes = warm + traced
    result["warm_s"] = [w for w, _, _ in warm]
    result["attempted"] = attempted + sum(a for _, a, _ in passes)
    result["failed"] = failed + sum(f for _, _, f in passes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "python": platform.python_version(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
