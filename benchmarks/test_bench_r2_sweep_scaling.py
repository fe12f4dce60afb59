"""R2 — extension: scenario-sweep engine scaling and cache effectiveness.

A 32-trial Figure-2 grid (micro workload, 32 seeds) is swept three
ways: serially in-process, on a 4-worker process pool, and a second
time against a populated result store.  An untimed serial run warms the
parent first, so both timed arms start from warm caches.  The bench
asserts the sweep engine's two contracts — the aggregate report is
*byte-identical* however the work is spread, and a re-run against the
store executes nothing — and reports the honest wall-clock numbers.  The parallel
speedup floor is asserted only where the hardware can express it
(>= 4 cores in this process's CPU affinity mask); the cache speedup
holds everywhere.

Warm-kernel before/after (8-trial figure2 micro grid, serial, 1-core
container, 2026-08-08; "before" measured on the pre-warm-kernel tree
via git stash; report digests byte-identical across both trees):

    serial sweep           before        after      speedup
    wall                   1.41 s       0.13 s        10.5x
    trial throughput     5.7 tr/s    60.0 tr/s        10.5x

The win stacks three caches: the per-process micro-workload memo
(topology/TM built once, not per trial), the content-addressed LP
model cache (constraint matrix assembled once per workload), and the
per-subset solve memo inside the model.  :func:`test_bench_r2_warm_kernels`
keeps the memo structure but swaps the model's template slicing for the
from-scratch ``linprog`` reference (``tests/netflow/reference_mcf.py``)
and compares the two.
"""

import os
import time

from repro.netflow.model import McfModel, model_cache
from repro.sweeps import Axis, SweepRunner, SweepSpec

from tests.netflow.reference_mcf import reference_solve_fast

TRIALS = 32
WORKERS = 4


def sweep_spec():
    return SweepSpec(
        axes=(Axis("seed", tuple(range(TRIALS))),),
        base={"preset": "micro", "constraints": "1", "method": "add-prune"},
    )


def timed_run(**runner_kwargs):
    runner = SweepRunner("figure2", **runner_kwargs)
    start = time.perf_counter()
    result = runner.run(sweep_spec())
    return time.perf_counter() - start, result


def visible_cores():
    """Cores this process may run on (what a pool can actually use)."""
    return len(os.sched_getaffinity(0))


def test_bench_r2_sweep_scaling(benchmark, report, tmp_path):
    # One untimed serial run warms this process's caches (workload memo,
    # LP model cache), so the timed serial arm and the pool — whose fork
    # workers inherit the warm parent — start from the same state.
    timed_run(workers=0)
    serial_s, serial = timed_run(workers=0)
    pool_s, pooled = benchmark.pedantic(
        lambda: timed_run(workers=WORKERS), rounds=1, iterations=1
    )

    store = str(tmp_path / "results.jsonl")
    cold_s, cold = timed_run(workers=0, store=store)
    cached_s, cached = timed_run(workers=0, store=store)

    serial_report = serial.report_json(group_by=[])
    speedup = serial_s / pool_s if pool_s > 0 else float("inf")
    cache_speedup = cold_s / cached_s if cached_s > 0 else float("inf")
    report(
        "\n".join([
            f"grid: {TRIALS} figure2 trials (micro workload), "
            f"{visible_cores()} cores visible",
            f"{'serial':<18}{serial_s:>8.2f}s",
            f"{'pool ({} workers)'.format(WORKERS):<18}{pool_s:>8.2f}s"
            f"   speedup {speedup:4.2f}x",
            f"{'store, cold':<18}{cold_s:>8.2f}s",
            f"{'store, re-run':<18}{cached_s:>8.2f}s"
            f"   speedup {cache_speedup:4.2f}x"
            f"   cache-hit rate {cached.cache_hit_rate:.0%}",
            f"reports byte-identical across all runs: "
            f"{serial_report == pooled.report_json(group_by=[]) == cached.report_json(group_by=[])}",
        ])
    )

    # Contract 1: identical aggregate bytes however the work was spread.
    assert pooled.report_json(group_by=[]) == serial_report
    assert cold.report_json(group_by=[]) == serial_report
    assert cached.report_json(group_by=[]) == serial_report

    # Contract 2: the re-run executed nothing.
    assert cached.cache_hit_rate == 1.0
    assert cached.executed == 0
    assert cached.cache_hits == TRIALS
    # Skipping all 32 trials must beat re-running them by a wide margin.
    assert cache_speedup >= 2.5

    # Contract 3: parallel scaling, where the hardware can express it.
    if visible_cores() >= WORKERS:
        assert speedup >= 2.5


def test_bench_r2_warm_kernels(report, monkeypatch):
    """Warm LP kernels vs the from-scratch reference, identical aggregates.

    Both runs start from a cleared model cache; the cold run keeps the
    caching *structure* (workload memo, subset memo) but pays the
    reference ``linprog`` assembly for every LP, so the measured ratio
    is a conservative lower bound on the full before/after speedup in
    the module docstring.
    """
    grid = SweepSpec(
        axes=(Axis("seed", tuple(range(8))),),
        base={"preset": "micro", "constraints": "1", "method": "add-prune"},
    )

    with monkeypatch.context() as patch:
        patch.setattr(McfModel, "_solve_fast", reference_solve_fast)
        model_cache().clear()
        start = time.perf_counter()
        cold = SweepRunner("figure2", workers=0).run(grid)
        cold_s = time.perf_counter() - start

    model_cache().clear()
    start = time.perf_counter()
    warm = SweepRunner("figure2", workers=0).run(grid)
    warm_s = time.perf_counter() - start

    ratio = cold_s / warm_s if warm_s > 0 else float("inf")
    report(
        f"8-trial figure2 micro grid: reference LP {cold_s:.2f}s, "
        f"warm {warm_s:.2f}s ({ratio:.1f}x)"
    )
    # The warm path must change the bytes of nothing…
    assert warm.report_json(group_by=[]) == cold.report_json(group_by=[])
    # …and must not be slower than the cold solver it replaces (locally
    # ~2x; generous floor to absorb CI noise).
    assert ratio >= 1.1
