#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no benchmark spans;
``--trace 1`` is the separate traced run that reports the per-layer
metrics, including the tracing overhead (traced minus untraced wall of
the same work).  Every run checks its outputs; a failed check makes
``correct`` false.  Human-readable lines and a ``RECORD`` line (the full
result: environment, inputs, rationale, per-level detail) precede the
last line, which is the one-object JSON result.  The record, and the
spans of a traced run, are also written to ``perfbench/out/``.

``--seconds`` is the measuring budget.  The pack and continental
workloads make as many fresh-process passes as fit in it at their
nominal pass length (a count fixed by ``--seconds`` alone, so a seed
always gets the same inputs); ``service-wire`` splits it across its
load levels.

Every end-to-end metric is printed on every workload, so each workload
defines ``p50_ms`` over its own unit of work: a request on
``service-wire``, one ``run <pack>`` call on the ``figure2-*`` packs,
one build-and-clear pass on ``continental-t2`` (see :data:`WORKLOADS`).

Times of the batch workloads (``figure2-*``, ``continental-t2``) are in
reference seconds: each measured time divided by the host's slowdown
over the same interval, sampled by :class:`harness.SpeedProbe`.  The
shared host's speed swings by up to 2x within a minute, which moves a
raw batch time as much as a real regression would; the raw times and
the slowdown factors are in the record.  ``service-wire``'s latency and
wall are raw: an open loop's are set by its schedule as much as by the
host's speed.  Its ``setup_s`` (daemon launch to ``listening``, all
CPU work) is in reference seconds too.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import time
from typing import Dict, List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import harness  # noqa: E402

WORKLOADS: Dict[str, Dict[str, str]] = {
    "figure2-lp": {
        "why": (
            "The `run <pack>` front door: figure2-constraints (micro, "
            "constraints 1/2/3, mcf engine, 72 trials per pass, each pass "
            "its own seed-derived grid) supervised on 2 "
            "workers. mcf.solve dominates and the fixed micro topology "
            "shares LP work across trials, so McfModel, HiGHS and "
            "VCG-pivot changes show here."
        ),
        "unit": "pack run: wall_s is the wall of all the run's passes, "
                "p50_ms the median latency of one `run <pack>` call",
    },
    "figure2-greedy": {
        "why": (
            "The same pack with engine=greedy, constraints 2/3 (16 "
            "trials per pass): the greedy multipath oracle does almost "
            "all the work here and almost none in figure2-lp, so a greedy "
            "memo or CSR rewrite moves one and must not move the other."
        ),
        "unit": "pack run: wall_s is the wall of all the run's passes, "
                "p50_ms the median latency of one `run <pack>` call",
    },
    "service-wire": {
        "why": (
            "The only path through transport, admission, batching and "
            "journal fsync: `serve` with CLI defaults on real sockets, "
            "open-loop Poisson at 250 and 500 qps, where every request "
            "is served. The traced run adds a 1000/2000 qps overload "
            "probe that keeps ROADMAP item 1 visible in per-layer "
            "metrics: the collapse past saturation, the "
            "ServiceClient._fail_pending dict mutation, and the "
            "heartbeat KeyError that kills the daemon under load."
        ),
        "unit": "request: p50_ms is due-time-to-reply at 250 qps",
    },
    "continental-t2": {
        "why": (
            "The T2 build (110 BPs, 500+ sites, 200k links), its sparse "
            "view and region fan-out, then a 2-worker sharded clear of "
            "the smoke preset checked against serial: topology, traffic "
            "and memory work with nothing shared between steps."
        ),
        "unit": "pipeline: p50_ms is the median latency of one build, "
                "fan-out and sharded-clear pass",
    },
}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("p50_ms", "ms"),
)

LEVEL_METRICS = (
    ("service.p50_ms", "ms"), ("service.p99_ms", "ms"),
    ("daemon.server_p50_ms", "ms"), ("daemon.server_p99_ms", "ms"),
    ("transport.wire_p50_ms", "ms"), ("transport.retries_reset", "count"),
    ("transport.retries_connect", "count"),
    ("transport.retries_timeout", "count"),
    ("daemon.shed_overloaded", "count"), ("daemon.shed_deadline", "count"),
    ("daemon.goodput_qps", "1/s"), ("journal.records", "count"),
    ("journal.bytes", "B"), ("journal.records_per_request", "ratio"),
    ("loadgen.late_p99_ms", "ms"), ("service.failed_frac", "ratio"),
)


# What each layer metric should move, and on which workload:
# - netflow.mcf_* -> wall_s on figure2-lp; netflow.greedy_* -> wall_s on
#   figure2-greedy (greedy_repeat_ratio is the share a memo could reuse).
# - auction.select_s / pivot_s / pivots and sweeps.* -> wall_s on both
#   figure2 workloads (pool_speedup's base: 2 workers on nproc cores).
# - auction.fanout_s / sharded_clear*, topology.build_s, logical_links,
#   traffic.hierarchy_s, experiments.offers_s -> wall_s on continental-t2;
#   topology.sparse_* -> peak_rss_mb there.
# - service.*, daemon.*, transport.*, journal.* per level -> p50_ms on
#   service-wire at 250 qps; at 1000/2000 qps (the traced overload probe)
#   they and daemon.capacity_qps show the collapse past capacity;
#   loadgen.late_p99_ms only decides whether a level is valid.
# - host.speed_factor moves nothing: it is the host's slowdown that times
#   in reference seconds were divided by.
def per_layer_metrics() -> List[tuple]:
    """Every traced run prints all of these; a layer that the workload
    does not exercise reads 0."""
    from wl_service import LADDER_QPS

    names = [
        ("netflow.mcf_solves", "count"), ("netflow.mcf_solve_s", "s"),
        ("netflow.mcf_cache_hit_ratio", "ratio"),
        ("netflow.greedy_calls", "count"), ("netflow.greedy_s", "s"),
        ("netflow.greedy_repeat_ratio", "ratio"),
        ("auction.select_s", "s"), ("auction.pivot_s", "s"),
        ("auction.pivots", "count"), ("auction.fanout_s", "s"),
        ("auction.sharded_clear_s", "s"),
        ("auction.sharded_clear_serial_s", "s"),
        ("sweeps.trial_p50_ms", "ms"), ("sweeps.trial_p90_ms", "ms"),
        ("sweeps.serial_wall_s", "s"), ("sweeps.pool_speedup", "x"),
        ("sweeps.dispatch_overhead_s", "s"),
        ("topology.build_s", "s"), ("topology.logical_links", "count"),
        ("traffic.hierarchy_s", "s"), ("experiments.offers_s", "s"),
        ("topology.sparse_s", "s"), ("topology.sparse_bytes_per_link", "B"),
    ]
    for rate in LADDER_QPS:
        names += [(f"{name}.r{rate}", unit) for name, unit in LEVEL_METRICS]
    names += [("daemon.capacity_qps", "1/s"), ("failed_frac", "ratio"),
              ("trace.overhead_s", "s"), ("host.speed_factor", "x")]
    return names


#: A workload makes at most this many passes in a run.
MAX_PASSES = 8
#: Nominal length of one pass (seconds on 2 cores, start-up included);
#: a run makes ``round(--seconds / length)`` passes, at least one.
PASS_SECONDS = {"figure2-lp": 8.0, "figure2-greedy": 8.0,
                "continental-t2": 20.0}
#: Set-up time is the median of at least this many fresh processes.
SETUP_SAMPLES = 3


class Run:
    def __init__(self, root: pathlib.Path, workload: str, seed: int,
                 seconds: float, workdir: pathlib.Path) -> None:
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.workdir = seconds, workdir
        self.gates: List[str] = []
        self.attempted = 0
        self.failed = 0

    def child(self, job: str, name: str, **args) -> Dict[str, object]:
        """One fresh-interpreter job, with its times also in reference
        seconds (``ref_setup_s``, ``ref_wall_s``; see harness.SpeedProbe)."""
        with harness.SpeedProbe() as probe:
            r = harness.run_child(
                self.root, job,
                dict(args, workload=self.workload, seed=self.seed,
                     dir=str(self.workdir / name)),
                self.workdir / name,
            )
        r["speed_setup"] = probe.factor(r["t_launch"],
                                        r["t_launch"] + r["t_setup"])
        r["ref_setup_s"] = r["t_setup"] / r["speed_setup"]
        if "wall_s" in r:
            r["speed_work"] = probe.factor(r["t_start"],
                                           r["t_start"] + r["wall_s"])
            r["ref_wall_s"] = r["wall_s"] / r["speed_work"]
        return r

    def n_passes(self) -> int:
        """Passes in a run: fixed by ``--seconds``, never by timing."""
        nominal = PASS_SECONDS[self.workload]
        return min(MAX_PASSES, max(1, round(self.seconds / nominal)))

    def setup_samples(self, results: List[Dict[str, object]],
                      **args) -> List[float]:
        samples = [float(r["ref_setup_s"]) for r in results]
        while len(samples) < SETUP_SAMPLES:
            job = self.child("setup", f"setup{len(samples)}", **args)
            samples.append(float(job["ref_setup_s"]))
        return samples


# -- figure2 ------------------------------------------------------------------


def _check_figure2(run: Run, r: Dict[str, object], label: str,
                   expect_trials: int) -> None:
    if r["digest"] != r["expected_digest"]:
        run.gates.append(f"{label}: aggregates sha256 {r['digest'][:12]}… "
                         f"!= recorded {str(r['expected_digest'])[:12]}…")
    if r["quarantined"]:
        run.gates.append(f"{label}: {r['quarantined']} trial(s) quarantined")
    if r["trials"] != expect_trials:
        run.gates.append(f"{label}: {r['trials']} trials, expected {expect_trials}")
    for problem in r.get("archive_problems", ()):
        run.gates.append(f"{label}: check_archive: {problem}")
    run.attempted += int(r["trials"])
    run.failed += int(r["quarantined"]) + int(r["trials"]) - int(
        r.get("trials_ok", r["trials"]))


def figure2(run: Run, traced: bool) -> Dict[str, object]:
    from wl_figure2 import GRIDS, grid_index

    grid = GRIDS[run.workload]
    n_trials = len(grid["constraints"]) * int(grid["seeds"])
    inputs = {"trials_per_pass": n_trials,
              "constraints": list(grid["constraints"]),
              "seeds_per_constraint": grid["seeds"],
              "engine": grid["engine"] or "mcf", "workers": 2}
    if not traced:
        # Each pass runs its own seed-derived grid: wall_s is the wall of
        # all of them, p50_ms the median `run <pack>` call.
        grids = [grid_index(run.seed, i) for i in range(run.n_passes())]
        results = [run.child("pooled", f"pass{i}", grid=g)
                   for i, g in enumerate(grids)]
        for i, r in enumerate(results):
            _check_figure2(run, r, f"pass{i}", n_trials)
        trials_ms = [t * 1e3 for r in results for t in r["trial_wall_s"]]
        metrics = {
            "setup_s": harness.median(run.setup_samples(results, grid=grids[0])),
            "wall_s": sum(r["ref_wall_s"] for r in results),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "p50_ms": harness.median([r["ref_wall_s"] for r in results]) * 1e3,
        }
        inputs.update(grids=grids, trials=n_trials * len(grids))
        return {"inputs": inputs, "metrics": metrics,
                "trial_latency": harness.tail_summary(trials_ms),
                "passes": [_brief(r) for r in results]}

    g = grid_index(run.seed, 0)
    inputs.update(grids=[g], trials=n_trials)
    plain = run.child("serial", "serial", traced=False, grid=g)
    spans = run.child("serial", "serial-traced", traced=True, grid=g)
    pooled = run.child("pooled", "pooled", grid=g)
    for label, r in (("serial", plain), ("serial-traced", spans),
                     ("pooled", pooled)):
        _check_figure2(run, r, label, n_trials)
    s, c = spans["spans"], spans["counters"]
    solves = c.get("mcf.solves", 0) + c.get("mcf.fallback_solves", 0)
    hits = c.get("mcf.memo_hits", 0)
    pooled_ms = [t * 1e3 for t in pooled["trial_wall_s"]]
    layer = {
        "netflow.mcf_solves": solves,
        "netflow.mcf_solve_s": s["netflow.mcf_solve_s"],
        "netflow.mcf_cache_hit_ratio": hits / (hits + solves) if hits + solves else 0.0,
        "netflow.greedy_calls": s["netflow.greedy_calls"],
        "netflow.greedy_s": s["netflow.greedy_s"],
        "netflow.greedy_repeat_ratio": (
            s["netflow.greedy_repeats"] / s["netflow.greedy_calls"]
            if s["netflow.greedy_calls"] else 0.0),
        "auction.select_s": s["auction.select_s"],
        "auction.pivot_s": s["auction.pivot_s"],
        "auction.pivots": s["auction.pivots"],
        "sweeps.trial_p50_ms": harness.percentile(pooled_ms, 50.0),
        "sweeps.trial_p90_ms": harness.percentile(pooled_ms, 90.0),
        "sweeps.serial_wall_s": plain["ref_wall_s"],
        "sweeps.pool_speedup": plain["ref_wall_s"] / pooled["ref_wall_s"],
        "sweeps.dispatch_overhead_s": (
            pooled["wall_s"] - sum(pooled["trial_wall_s"]) / pooled["workers"]),
        "trace.overhead_s": spans["ref_wall_s"] - plain["ref_wall_s"],
        "host.speed_factor": harness.median(
            [r["speed_work"] for r in (plain, spans, pooled)]),
    }
    return {"inputs": inputs, "metrics": layer,
            "tracing_overhead_s": layer["trace.overhead_s"],
            "pool_speedup_base": f"2 workers on {os.cpu_count()} cores",
            "passes": [_brief(r) for r in (plain, spans, pooled)]}


def _brief(r: Dict[str, object]) -> Dict[str, object]:
    return {k: v for k, v in r.items()
            if k not in ("trial_wall_s", "expected_digest")}


# -- continental ----------------------------------------------------------------


def _check_continental(run: Run, r: Dict[str, object], label: str) -> None:
    run.gates += [f"{label}: {g}" for g in r["gates"]]
    # Operations: the T2 build, the pooled clear, the serial clear.
    run.attempted += 3
    run.failed += len(r["gates"])


def continental(run: Run, traced: bool) -> Dict[str, object]:
    if not traced:
        results = [run.child("continental", f"pass{i}", traced=False)
                   for i in range(run.n_passes())]
        for i, r in enumerate(results):
            _check_continental(run, r, f"pass{i}")
        wall = harness.median([r["ref_wall_s"] for r in results])
        metrics = {
            "setup_s": harness.median(run.setup_samples(results)),
            "wall_s": wall,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
            "p50_ms": wall * 1e3,
        }
        return {"inputs": dict(results[0]["sizes"], offer_seed=run.seed),
                "metrics": metrics, "passes": results}

    plain = run.child("continental", "plain", traced=False)
    spans = run.child("continental", "traced", traced=True)
    _check_continental(run, plain, "untraced")
    _check_continental(run, spans, "traced")
    ph = spans["phases"]
    layer = {
        "topology.build_s": ph["topology.build"],
        "topology.logical_links": spans["sizes"]["links"],
        "traffic.hierarchy_s": ph["traffic.hierarchy"],
        "experiments.offers_s": ph["experiments.offers"],
        "topology.sparse_s": ph["topology.sparse"],
        "topology.sparse_bytes_per_link": spans["sparse_bytes_per_link"],
        "auction.fanout_s": ph["auction.fanout"],
        "auction.sharded_clear_s": ph["auction.sharded_clear"],
        "auction.sharded_clear_serial_s": ph["auction.sharded_clear_serial"],
        "trace.overhead_s": spans["ref_wall_s"] - plain["ref_wall_s"],
        "host.speed_factor": harness.median(
            [r["speed_work"] for r in (plain, spans)]),
    }
    return {"inputs": dict(spans["sizes"], offer_seed=run.seed),
            "metrics": layer, "tracing_overhead_s": layer["trace.overhead_s"],
            "passes": [plain, spans]}


# -- service ------------------------------------------------------------------


def _check_service(run: Run, levels: List[Dict[str, object]],
                   count: bool = True) -> None:
    """Gates hold on every level; only workload levels are operations."""
    for lv in levels:
        run.gates += lv["gates"]
        if count:
            run.attempted += int(lv["requests"])
            run.failed += int(lv["failed"])


def service(run: Run, traced: bool) -> Dict[str, object]:
    import wl_service

    plain = wl_service.run_ladder(run.root, run.workdir / "ladder",
                                  run.seed, run.seconds, traced=False)
    _check_service(run, plain)
    inputs = {"requests_per_level": {f"r{lv['rate_qps']}": lv["requests"]
                                     for lv in plain},
              "level_seconds": {f"r{lv['rate_qps']}": lv["duration_s"]
                                for lv in plain},
              "limit_ms": wl_service.LIMIT_S * 1e3,
              "late_bound_ms": wl_service.LATE_BOUND_S * 1e3,
              "max_failed_frac": wl_service.MAX_FAILED_FRAC}
    if not traced:
        return {"inputs": inputs, "metrics": wl_service.summarize(plain),
                "nominal_latency": plain[0]["tail"], "levels": plain}

    traced_levels = wl_service.run_ladder(
        run.root, run.workdir / "ladder-traced", run.seed, run.seconds,
        traced=True)
    _check_service(run, traced_levels)
    overload = wl_service.run_ladder(
        run.root, run.workdir / "overload", run.seed, run.seconds,
        traced=True, levels=wl_service.OVERLOAD_LEVELS)
    _check_service(run, overload, count=False)
    levels = traced_levels + overload
    inputs["requests_per_level"].update(
        {f"r{lv['rate_qps']}": lv["requests"] for lv in overload})
    inputs["level_seconds"].update(
        {f"r{lv['rate_qps']}": lv["duration_s"] for lv in overload})
    layer: Dict[str, float] = {}
    for lv in levels:
        suffix = f".r{lv['rate_qps']}"
        values = {
            "service.p50_ms": lv["p50_s"] * 1e3,
            "service.p99_ms": lv["p99_s"] * 1e3,
            "daemon.server_p50_ms": lv["server_p50_s"] * 1e3,
            "daemon.server_p99_ms": lv["server_p99_s"] * 1e3,
            "transport.wire_p50_ms": lv["wire_p50_s"] * 1e3,
            "transport.retries_reset": lv["retries"].get("reset", 0),
            "transport.retries_connect": lv["retries"].get("connect", 0),
            "transport.retries_timeout": lv["retries"].get("timeout", 0),
            "daemon.shed_overloaded": lv["statuses"].get("overloaded", 0),
            "daemon.shed_deadline": lv["statuses"].get("deadline-exceeded", 0),
            "daemon.goodput_qps": lv["goodput_qps"],
            "journal.records": lv["journal_records"],
            "journal.bytes": lv["journal_bytes"],
            "journal.records_per_request": lv["journal_records"] / lv["requests"],
            "loadgen.late_p99_ms": lv["late_p99_s"] * 1e3,
            "service.failed_frac": lv["failed_frac"],
        }
        layer.update({name + suffix: v for name, v in values.items()})
    overhead = (sum(lv["wall_s"] for lv in traced_levels)
                - sum(lv["wall_s"] for lv in plain))
    layer["daemon.capacity_qps"] = wl_service.capacity(levels)
    layer["host.speed_factor"] = harness.median(
        [lv["speed_setup"] for lv in levels])
    layer["trace.overhead_s"] = overhead
    return {"inputs": inputs, "metrics": layer, "tracing_overhead_s": overhead,
            "levels": levels, "untraced_levels": plain}


RUNNERS = {"figure2-lp": figure2, "figure2-greedy": figure2,
           "service-wire": service, "continental-t2": continental}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}; run from "
              f"the repository root", file=sys.stderr)
        return 2
    out = harness.protect_stdout()
    sys.path.insert(0, str(root / "src"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"{tag}-{os.getpid()}"
    run = Run(root, args.workload, args.seed, args.seconds, workdir)
    traced = bool(args.trace)
    started = time.perf_counter()
    try:
        detail = RUNNERS[args.workload](run, traced)
        # Keep the benchmark-side spans; the rest of the work dir goes.
        for spans in sorted(workdir.rglob("spans*.jsonl")):
            keep = out_dir / f"{tag}.spans" / "-".join(
                spans.relative_to(workdir).parts)
            keep.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(spans, keep)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = per_layer_metrics() if traced else list(END_TO_END)
    values = detail.pop("metrics")
    failed_frac = run.failed / run.attempted if run.attempted else 0.0
    if traced:
        values["failed_frac"] = failed_frac
    metrics = {}
    for name, unit in names:
        metrics[name] = harness.metric(values.get(name, 0.0), unit)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rationale": WORKLOADS[args.workload],
        "environment": harness.environment(root),
        "elapsed_s": time.perf_counter() - started,
        "gates": run.gates,
        "failed_frac": failed_frac,
        "metrics": metrics, **detail,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{tag}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str),
        encoding="utf-8")

    for name, m in metrics.items():
        out.write(f"{name:<40} {m['value']:>16.6g} {m['unit']}\n")
    out.write(f"gates: {'ok' if not run.gates else run.gates}\n")
    out.write("RECORD " + json.dumps(record, sort_keys=True, default=str) + "\n")
    out.write(json.dumps({
        "correct": not run.gates,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": metrics,
    }, sort_keys=True) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
