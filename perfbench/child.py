"""One fresh-interpreter job of the benchmark (see ``harness.run_child``).

Usage: ``python3 perfbench/child.py JOB ARGS_JSON``.  The job imports
the program and resolves its inputs first — that span, measured from
the parent's launch stamp, is the set-up time — then does its work and
writes one JSON result to ``ARGS_JSON["result_path"]``.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> int:
    job, args = sys.argv[1], json.loads(sys.argv[2])
    workload = str(args["workload"])
    if workload.startswith("figure2"):
        import wl_figure2 as module

        from repro.scenarios import run_pack  # noqa: F401 - the front door

        module.resolve_pack(workload, int(args["grid"]))
    else:
        import wl_continental as module

        module.resolve_preset()
    t_setup = time.time() - float(args["t_launch"])

    if job == "setup":
        result = {"t_setup": t_setup}
    elif job == "pooled":
        result = module.pooled_pass(args, t_setup)
    elif job == "serial":
        result = module.serial_pass(args, t_setup)
    elif job == "continental":
        result = module.run_pass(args, t_setup)
    else:
        raise SystemExit(f"unknown job {job!r}")
    result["peak_rss_mb"] = harness.max_rss_mb()
    pathlib.Path(args["result_path"]).write_text(
        json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
