#!/usr/bin/env python3
"""Re-record ``digests.json``: the figure2 aggregates digest per grid.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

Runs every grid of the pool for both figure2 workloads through the same
pooled pass the benchmark runs and writes the SHA-256 of each archive's
``aggregates.json``.  The recorded digests are the benchmark's
byte-identity gate, so re-record only when a change to the aggregates
is intended, and say so where the change is reviewed.
"""

import json
import pathlib
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness  # noqa: E402
from wl_figure2 import DIGESTS, GRIDS, SEED_POOL  # noqa: E402


def main() -> int:
    root = pathlib.Path.cwd()
    work_root = root / "perfbench" / "out" / "record-digests"
    table = {}
    for workload in sorted(GRIDS):
        table[workload] = {}
        for k in range(SEED_POOL):
            work = work_root / f"{workload}-{k}"
            r = harness.run_child(root, "pooled", {
                "workload": workload, "grid": k, "dir": str(work)}, work)
            if r["quarantined"] or r["archive_problems"]:
                raise SystemExit(f"{workload} grid {k}: {r['quarantined']} "
                                 f"quarantined, {r['archive_problems']}")
            table[workload][str(k)] = r["digest"]
            print(workload, k, r["digest"], f"{r['wall_s']:.2f}s", flush=True)
    shutil.rmtree(work_root, ignore_errors=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
