"""service-wire: the POC daemon on real sockets under an open loop.

Each load level launches a fresh ``poc-repro serve --listen
127.0.0.1:0 --journal J`` (``python3 -m repro.cli``, every other flag at
its CLI default, the 5 s health heartbeat included) and plays a seeded
Poisson plan from :func:`repro.service.loadgen.build_request_plan` at it
over one :class:`ServiceClient` from this process.  Requests are sent on
schedule whether or not earlier ones were answered (independent users),
and each is timed from its *due* time, so a stall also charges every
request queued behind it.

A request fails when it is shed (``overloaded``, ``deadline-exceeded``,
``draining``), answered with ``error``, or lost on the wire — including
a client-side exception or a daemon that died.  Failed requests count
as missing the latency limit.

The workload is the two levels below the daemon's capacity, where every
request is served.  Past capacity the daemon collapses, and how many
requests it loses differs from run to run, so the overload levels are a
probe that only the traced run plays: their per-level numbers and the
capacity search are per-layer metrics, outside the workload's
attempted/failed count.
"""

from __future__ import annotations

import asyncio
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import harness

#: The workload's levels and the share of ``--seconds`` each plays
#: (14 and 6 s of a 24 s run; the nominal level holds three p99 windows).
WORKLOAD_LEVELS: Tuple[Tuple[int, float], ...] = ((250, 14 / 24), (500, 6 / 24))
#: The overload probe of the traced run (6 and 2.5 s of a 24 s run); the
#: 1000 qps level, at the daemon's knee, outlasts its 5 s heartbeat.
OVERLOAD_LEVELS: Tuple[Tuple[int, float], ...] = ((1000, 6 / 24),
                                                  (2000, 2.5 / 24))
#: Every offered rate, lowest first; each level gets a fresh daemon.
LADDER_QPS: Tuple[int, ...] = tuple(
    rate for rate, _ in WORKLOAD_LEVELS + OVERLOAD_LEVELS)

#: Requests per p99 window: the fewest with ten samples beyond p99.
P99_WINDOW = 1000

#: Latency limit on p99 for a level to count toward capacity.
LIMIT_S = 0.100
#: Failed share a level may have and still count toward capacity.
MAX_FAILED_FRAC = 0.01
#: A level whose generator sent its p99 request later than this is invalid.
LATE_BOUND_S = 0.020

#: Seed of the daemon's workload (``serve --seed`` default, micro preset).
SERVE_SEED = 2020

LISTEN_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 20.0


class Daemon:
    """One ``serve`` subprocess; stdout is read on a thread for ``listening``."""

    def __init__(self, root: pathlib.Path, journal: pathlib.Path,
                 log: pathlib.Path) -> None:
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--listen", "127.0.0.1:0", "--journal", str(journal)]
        self._log = open(log, "w", encoding="utf-8")
        self._listening = threading.Event()
        self.endpoint: Optional[Tuple[str, int]] = None
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=str(root), env=harness.program_env(root),
            stdout=subprocess.PIPE, stderr=self._log, stdin=subprocess.DEVNULL,
            text=True, bufsize=1,
        )
        self.t_listening: Optional[float] = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._log.write(line)
            if self.endpoint is None and line.startswith("listening on "):
                host, _, port = line.split()[-1].rpartition(":")
                self.endpoint = (host, int(port))
                self.t_listening = time.perf_counter()
                self._listening.set()
        self._listening.set()

    def wait_listening(self) -> float:
        if not self._listening.wait(LISTEN_TIMEOUT_S) or self.endpoint is None:
            raise RuntimeError("daemon never reported 'listening on'")
        return self.t_listening - self.t_launch

    def stop(self) -> Dict[str, object]:
        """Read peak RSS, drain with SIGTERM, reap; report how it ended."""
        died = self.proc.poll() is not None
        rss = 0.0 if died else harness.proc_hwm_mb(self.proc.pid)
        hung = False
        if not died:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(DRAIN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                hung = True
                self.proc.kill()
                self.proc.wait()
        self._reader.join(5.0)
        self._log.close()
        return {"died": died, "drain_hung": hung,
                "exit_code": self.proc.returncode, "peak_rss_mb": rss}


async def _play(endpoint, plan, seed: int, tracer: Optional[harness.Tracer]
                ) -> Tuple[List[Dict[str, object]], Dict[str, int], float]:
    from repro.exceptions import TransportError
    from repro.service import ServiceClient

    client = ServiceClient([endpoint], seed=seed)
    loop = asyncio.get_running_loop()
    level = tracer.start("loadgen.level") if tracer is not None else None
    # A short lead so building the task list never makes request 0 late.
    start = loop.time() + 0.05
    results: List[Optional[Dict[str, object]]] = [None] * len(plan)

    async def one(i: int, offset: float, kind: str, params) -> None:
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = loop.time()
        status, server = "lost", None
        try:
            resp = await client.request(kind, params)
            status, server = resp.status, resp.latency_s
        except TransportError:
            pass
        except Exception as exc:  # a client-side crash still ends the request
            status = f"lost:{type(exc).__name__}"
        done = loop.time()
        if tracer is not None:
            # Requests overlap, so each is recorded whole under the level.
            tracer.record("transport.request", sent, done, parent=level,
                          request=i, kind=kind, status=status)
        results[i] = {"due": due, "sent": sent, "done": done,
                      "status": status, "server_s": server}

    tasks = [asyncio.ensure_future(one(i, off, kind, params))
             for i, (off, kind, params) in enumerate(plan)]
    await asyncio.gather(*tasks)
    if tracer is not None:
        tracer.end(level)
    wall = max(r["done"] for r in results) - start
    retries = dict(client.retry_counts)
    try:
        await client.close()
    except Exception:  # the known _fail_pending crash must not end the run
        pass
    return results, retries, wall


def run_level(root: pathlib.Path, workdir: pathlib.Path, rate: int,
              duration_s: float, seed: int, traced: bool) -> Dict[str, object]:
    from repro.rand import derive_seed
    from repro.resilience.chaos import micro_scenario
    from repro.service.journal import read_records
    from repro.service.loadgen import LoadgenConfig, build_request_plan
    from repro.service.requests import OK_STATUSES, STATUSES
    from repro.validate.invariants import check_journal

    network, _offers, _tm = micro_scenario(SERVE_SEED)
    plan_seed = derive_seed(seed, "service-wire", rate)
    plan = build_request_plan(
        LoadgenConfig(duration_s=duration_s, base_rate_qps=float(rate)),
        network.node_ids, network.link_ids, plan_seed,
    )
    journal = workdir / f"journal-r{rate}.jsonl"
    daemon = Daemon(root, journal, workdir / f"daemon-r{rate}.log")
    tracer = harness.Tracer() if traced else None
    try:
        # Set-up is CPU-bound (imports, the initial MILP clear), so it is
        # reported in reference seconds like the batch workloads' times.
        with harness.SpeedProbe() as probe:
            raw_setup_s = daemon.wait_listening()
        speed_setup = probe.factor(0.0, float("inf"))
        results, retries, wall = asyncio.run(
            _play(daemon.endpoint, plan, plan_seed, tracer))
    finally:
        ended = daemon.stop()
    if tracer is not None:
        tracer.dump(workdir / f"spans-r{rate}.jsonl")

    gates = []
    if any(r is None for r in results) or len(results) != len(plan):
        gates.append(f"r{rate}: a request has no terminal answer")
    bad = sorted({r["status"] for r in results
                  if r["server_s"] is not None and r["status"] not in STATUSES})
    if bad:
        gates.append(f"r{rate}: statuses outside the closed set: {bad}")
    violations = check_journal(journal)
    if violations:
        gates.append(f"r{rate}: check_journal: {violations[:3]}")
    records, _torn = read_records(journal)

    for r in results:
        r["served"] = r["status"] in OK_STATUSES
    n = len(results)
    served = sum(1 for r in results if r["served"])
    # ``results`` is in plan order, which is due order.
    due = harness.due_latencies(results, LIMIT_S)
    p99, p99_windows = harness.windowed_percentile(due, 99.0, P99_WINDOW)
    late = [r["sent"] - r["due"] for r in results]
    answered = [r for r in results if r["server_s"] is not None]
    server = [float(r["server_s"]) for r in answered]
    wire = [(r["done"] - r["sent"]) - float(r["server_s"]) for r in answered]
    statuses: Dict[str, int] = {}
    for r in results:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    late_p99 = harness.percentile(late, 99.0)
    return {
        "rate_qps": rate,
        "duration_s": duration_s,
        "requests": n,
        "served": served,
        "failed": n - served,
        "failed_frac": (n - served) / n,
        "statuses": statuses,
        "setup_s": raw_setup_s / speed_setup,
        "raw_setup_s": raw_setup_s,
        "speed_setup": speed_setup,
        "wall_s": wall,
        "p50_s": harness.percentile(due, 50.0),
        "p99_s": p99,
        "p99_windows_s": p99_windows,
        "tail": harness.tail_summary(due),
        "late_p99_s": late_p99,
        "valid": late_p99 <= LATE_BOUND_S,
        "backlog_growing": harness.backlog_growing(results),
        "server_p50_s": harness.percentile(server, 50.0) if server else 0.0,
        "server_p99_s": harness.percentile(server, 99.0) if server else 0.0,
        "wire_p50_s": harness.percentile(wire, 50.0) if wire else 0.0,
        "retries": retries,
        "goodput_qps": served / duration_s,
        "journal_records": len(records),
        "journal_bytes": os.path.getsize(journal),
        "daemon": ended,
        "gates": gates,
    }


def run_ladder(root: pathlib.Path, workdir: pathlib.Path, seed: int,
               seconds: float, traced: bool,
               levels: Tuple[Tuple[int, float], ...] = WORKLOAD_LEVELS,
               ) -> List[Dict[str, object]]:
    workdir.mkdir(parents=True, exist_ok=True)
    return [
        run_level(root, workdir, rate, seconds * share, seed, traced)
        for rate, share in levels
    ]


def summarize(levels: List[Dict[str, object]]) -> Dict[str, object]:
    nominal = levels[0]
    return {
        "setup_s": harness.median([lv["setup_s"] for lv in levels]),
        "wall_s": sum(lv["wall_s"] for lv in levels),
        "peak_rss_mb": max(lv["daemon"]["peak_rss_mb"] for lv in levels),
        "p50_ms": nominal["p50_s"] * 1e3,
    }


def capacity(levels: List[Dict[str, object]]) -> float:
    return harness.capacity(levels, limit_s=LIMIT_S,
                            max_failed_frac=MAX_FAILED_FRAC)
