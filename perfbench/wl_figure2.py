"""figure2-lp and figure2-greedy: the ``run <pack>`` front door.

Both run the committed ``figure2-constraints`` pack (micro preset,
``add-prune``) through :func:`repro.scenarios.run_pack`, supervised on
the pack's two workers, into a fresh archive per pass.  Each pass is
its own interpreter, so no cache survives from one pass to the next.

- ``figure2-lp``: constraints 1/2/3, the default ``mcf`` engine, the
  seed axis widened to 24 seeds (72 trials).
- ``figure2-greedy``: ``engine=greedy``, constraints 2/3, 8 seeds
  (16 trials).

Trial seeds come from the benchmark seed.  A run makes several passes,
each over its own grid: pass ``i`` takes pool index
``k = (3 * seed + i) % 32`` (:func:`grid_index`), whose trial seeds are
``1000k .. 1000k + n - 1``, so the seed-to-seed difference in work
averages out over a run's passes.  ``digests.json`` holds the SHA-256 of
the archive's ``aggregates.json`` for every pool index; a byte change in
any aggregate fails the run.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from typing import Dict, List, Optional, Tuple

SEED_POOL = 32

GRIDS: Dict[str, Dict[str, object]] = {
    "figure2-lp": {"constraints": ("1", "2", "3"), "seeds": 24, "engine": None},
    "figure2-greedy": {"constraints": ("2", "3"), "seeds": 8, "engine": "greedy"},
}

DIGESTS = pathlib.Path(__file__).resolve().parent / "digests.json"


#: Pool indices one benchmark seed owns before the next seed's begin.
GRIDS_PER_SEED = 3


def grid_index(seed: int, pass_no: int) -> int:
    """Pool index of pass ``pass_no`` of a run with benchmark seed ``seed``."""
    return (GRIDS_PER_SEED * int(seed) + int(pass_no)) % SEED_POOL


def trial_seeds(workload: str, grid: int) -> Tuple[int, ...]:
    k = int(grid) % SEED_POOL
    return tuple(1000 * k + i for i in range(int(GRIDS[workload]["seeds"])))


def resolve_pack(workload: str, grid: int):
    """Pack resolution as ``repro run`` does it, plus the grid overrides."""
    from repro.scenarios import PackRegistry
    from repro.sweeps.spec import Axis

    spec = GRIDS[workload]
    pack = PackRegistry().get("figure2-constraints")
    sets = {} if spec["engine"] is None else {"engine": spec["engine"]}
    return pack.with_overrides(
        sets=sets,
        axes=[Axis("constraints", spec["constraints"]),
              Axis("seed", trial_seeds(workload, grid))],
    )


def expected_digest(workload: str, grid: int) -> Optional[str]:
    """The recorded aggregates digest of this grid (None if unrecorded)."""
    if not DIGESTS.exists():
        return None
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(int(grid) % SEED_POOL))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _trial_lines(metrics_path: pathlib.Path) -> List[Dict[str, object]]:
    lines = []
    for raw in metrics_path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(raw)
        if entry.get("kind") == "trial":
            lines.append(entry)
    return lines


def _counters(trials: List[Dict[str, object]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for t in trials:
        for name, value in t.get("counters", {}).items():
            total[name] = total.get(name, 0) + int(value)
    return total


def pooled_pass(args: Dict[str, object], t_setup: float) -> Dict[str, object]:
    """One supervised 2-worker ``run_pack`` into a fresh archive."""
    from repro.scenarios import check_archive, run_pack
    from repro.scenarios.archive import AGGREGATES_FILE, METRICS_FILE

    workload, grid = str(args["workload"]), int(args["grid"])
    pack = resolve_pack(workload, grid)
    archive = pathlib.Path(str(args["dir"])) / "archive"
    t_start = time.time()
    start = time.perf_counter()
    result = run_pack(pack, archive)
    wall = time.perf_counter() - start

    trials = _trial_lines(archive / METRICS_FILE)
    digest = _sha256((archive / AGGREGATES_FILE).read_text(encoding="utf-8"))
    return {
        "wall_s": wall,
        "t_start": t_start,
        "t_setup": t_setup,
        "trials": len(result.outcomes),
        "workers": result.workers,
        "quarantined": len(result.quarantined),
        "archive_problems": check_archive(archive),
        "digest": digest,
        "grid": grid,
        "expected_digest": expected_digest(workload, grid),
        "trial_wall_s": [float(t["wall_s"]) for t in trials],
        "trials_ok": sum(1 for t in trials if t.get("ok")),
        "counters": _counters(trials),
    }


def serial_pass(args: Dict[str, object], t_setup: float) -> Dict[str, object]:
    """The grid serially in this process; spans around layer calls if traced.

    Uses the same experiment, store and validation policy as the pack,
    on one in-process runner, so benchmark-side spans see every call.
    """
    from harness import Tracer

    from repro import obs
    from repro.sweeps.runner import SweepRunner

    workload, grid = str(args["workload"]), int(args["grid"])
    traced = bool(args["traced"])
    pack = resolve_pack(workload, grid)
    out = pathlib.Path(str(args["dir"]))
    tracer = Tracer()
    repeat = {"seen": set(), "repeats": 0}
    if traced:
        _install_spans(tracer, repeat)
    obs.configure(metrics_path=str(out / "metrics.jsonl"), propagate=False)
    runner = SweepRunner(
        pack.experiment, workers=1, supervised=False,
        store=str(out / "results.jsonl"), validation=pack.validation,
        quarantine=str(out / "quarantine.jsonl"),
    )
    t_start = time.time()
    start = time.perf_counter()
    with tracer.span("sweeps.serial_run"):
        result = runner.run(pack.spec)
    wall = time.perf_counter() - start
    obs.disable()
    tracer.dump(out / "spans.jsonl")

    trials = _trial_lines(out / "metrics.jsonl")
    greedy_calls = tracer.count("netflow.greedy")
    return {
        "wall_s": wall,
        "t_start": t_start,
        "t_setup": t_setup,
        "trials": len(result.outcomes),
        "quarantined": len(result.quarantined),
        "digest": _sha256(result.report_json(pack.group_by)),
        "grid": grid,
        "expected_digest": expected_digest(workload, grid),
        "trial_wall_s": [float(t["wall_s"]) for t in trials],
        "counters": _counters(trials),
        "spans": {
            "netflow.mcf_solve_s": tracer.total_time("netflow.mcf_solve"),
            "netflow.greedy_s": tracer.total_time("netflow.greedy"),
            "netflow.greedy_calls": greedy_calls,
            "netflow.greedy_repeats": repeat["repeats"],
            "auction.select_s": tracer.total_time("auction.select"),
            "auction.pivot_s": tracer.total_time("auction.pivot"),
            "auction.pivots": tracer.count("auction.pivot"),
        },
    }


def _install_spans(tracer, repeat) -> None:
    """Wrap the public calls of the netflow and auction layers."""
    import repro.auction.vcg as vcg
    import repro.netflow.feasibility as feasibility
    from repro.netflow.model import McfModel

    McfModel.solve = tracer.wrap(McfModel.solve, lambda a, k: "netflow.mcf_solve")

    greedy = feasibility.route_greedy_multipath

    def greedy_name(args, kwargs):
        links = frozenset(args[0].link_ids)
        if links in repeat["seen"]:
            repeat["repeats"] += 1
        else:
            repeat["seen"].add(links)
        return "netflow.greedy"

    feasibility.route_greedy_multipath = tracer.wrap(greedy, greedy_name)
    vcg.select_links = tracer.wrap(
        vcg.select_links,
        lambda a, k: ("auction.pivot" if k.get("exclude_providers")
                      else "auction.select"),
    )
