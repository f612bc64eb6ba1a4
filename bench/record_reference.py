"""Record ``reference.json``: rows of one full-size pass per workload at the reference seed.

Run from the root of a checkout, only when the reference outputs are meant
to change::

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import entwitness.cli as cli

    OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    for name in sorted(workloads.WORKLOADS):
        _, invocations = workloads.build(name, workloads.REFERENCE_SEED)
        outputs = []
        for i, inv in enumerate(invocations):
            path = OUT_DIR / f"reference-{name}-{i}.csv"
            if cli.main([*inv.argv, "--output", str(path)]) != 0:
                print(f"error: {' '.join(inv.argv)} failed", file=sys.stderr)
                return 1
            outputs.append(workloads.read_output(path))
        reference[name] = workloads.reference_rows(name, outputs)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
