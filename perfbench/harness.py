"""Shared pieces of the benchmark: statistics, spans, child processes.

Everything here is pure Python with no dependency on the program under
test, so the self-tests in ``selftest.py`` can exercise it without
building anything.  The workload modules (``wl_*.py``) import the
program; this module never does.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import time
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

BENCH_DIR = pathlib.Path(__file__).resolve().parent

#: Percentiles the tail rule may pick from, lowest first.
TAIL_PERCENTILES: Tuple[float, ...] = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


# -- statistics ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(n: int) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with >= 10 samples beyond it.

    ``None`` when even the median lacks ten samples above it (n < 20).
    """
    best = None
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def tail_summary(values: Sequence[float]) -> Dict[str, object]:
    """Median, p99, and the tail percentile the sample size supports."""
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0) if values else None,
        "p99": percentile(values, 99.0) if values else None,
        "tail_percentile": p,
        "tail_value": percentile(values, p) if p is not None else None,
        "p99_supported": p is not None and p >= 99.0,
    }


def windowed_percentile(values: Sequence[float], p: float, window: int
                        ) -> Tuple[float, List[float]]:
    """Median over consecutive ``window``-sized chunks of their ``p`` percentile.

    ``values`` are in arrival order.  A host stall lands in one chunk, so
    the median of per-chunk tails is steadier than one tail over all
    samples.  Fewer samples than one window fall back to the plain
    percentile.  Returns the median and the per-chunk values.
    """
    chunks = [values[i:i + window]
              for i in range(0, len(values) - window + 1, window)]
    per_chunk = [percentile(c, p) for c in chunks] or [percentile(values, p)]
    return median(per_chunk), per_chunk


# -- open-loop request accounting ---------------------------------------------


def due_latencies(
    requests: Iterable[Mapping[str, object]], limit_s: float
) -> List[float]:
    """Latency of each request from its *due* time to its terminal answer.

    A request that did not get a served answer (shed, error, lost on the
    wire) counts as missing the limit: its latency is at least
    ``limit_s`` however quickly the refusal came back.
    """
    out = []
    for req in requests:
        latency = float(req["done"]) - float(req["due"])
        if not req["served"]:
            latency = max(latency, limit_s)
        out.append(latency)
    return out


def backlog_growing(
    requests: Sequence[Mapping[str, object]], *, factor: float = 2.0,
    slack_s: float = 0.010,
) -> bool:
    """Did due-time latency climb across the level?

    Compares the median due-time latency of the last quarter of requests
    (by due time) with the first quarter.  A queue that drains keeps them
    alike; a queue that grows without bound makes the late quarter wait
    for everything queued before it.
    """
    if len(requests) < 8:
        return False
    ordered = sorted(requests, key=lambda r: float(r["due"]))
    quarter = len(ordered) // 4
    lat = [float(r["done"]) - float(r["due"]) for r in ordered]
    early = median(lat[:quarter])
    late = median(lat[-quarter:])
    return late > factor * early + slack_s


def level_passes(level: Mapping[str, object], *, limit_s: float,
                 max_failed_frac: float) -> bool:
    """Does one ladder level meet the service's latency/failure limits?"""
    return (
        bool(level["valid"])
        and float(level["p99_s"]) <= limit_s
        and float(level["failed_frac"]) <= max_failed_frac
        and not bool(level["backlog_growing"])
    )


def capacity(levels: Sequence[Mapping[str, object]], *, limit_s: float,
             max_failed_frac: float) -> float:
    """Highest ladder rate meeting the limits; 0.0 when none does."""
    passing = [
        float(level["rate_qps"]) for level in levels
        if level_passes(level, limit_s=limit_s, max_failed_frac=max_failed_frac)
    ]
    return max(passing) if passing else 0.0


# -- host speed ---------------------------------------------------------------

#: CPU seconds one :func:`probe_kernel` call takes at the reference host
#: speed.  Batch timings are reported in seconds at this speed.
PROBE_REFERENCE_S = 0.0015

#: Seconds between probe samples (each costs about 1.5 ms of one core).
PROBE_PERIOD_S = 0.1

#: A window needs this many samples, or the whole probe's samples are used.
PROBE_MIN_SAMPLES = 5


def probe_kernel() -> int:
    """A fixed pure-Python loop: the unit the host's speed is sampled in."""
    x = 0
    for k in range(20_000):
        x += k * k
    return x


class SpeedProbe:
    """Samples the host's CPU speed while a child process does the work.

    The benchmark runs on a few cores of a shared host whose speed swings
    by up to 2x within a minute, and differs from core to core, as other
    tenants come and go; a batch pass lasting seconds then reads up to 2x
    slower for the same work.  One daemon thread per core of this
    process's affinity, pinned to it, times :func:`probe_kernel` in
    thread CPU time every :data:`PROBE_PERIOD_S`, so being descheduled
    does not count, only how fast that core runs.  :meth:`factor` is the
    mean over cores of the median sample in a window, divided by
    :data:`PROBE_REFERENCE_S`: 2.0 means the host ran at half the
    reference speed, and a time divided by it is in reference seconds.
    """

    def __init__(self, period_s: float = PROBE_PERIOD_S) -> None:
        self.period_s = period_s
        self.samples: Dict[int, List[Tuple[float, float]]] = {
            cpu: [] for cpu in sorted(os.sched_getaffinity(0))}
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._sample, args=(cpu,), daemon=True)
            for cpu in self.samples
        ]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _sample(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # this thread only
        out = self.samples[cpu]
        while not self._stop.wait(self.period_s):
            at = time.time()
            spent = time.thread_time()
            probe_kernel()
            out.append((at, time.thread_time() - spent))

    def factor(self, start: float, end: float) -> float:
        """Host slowdown against the reference over ``[start, end]``
        (``time.time()`` stamps)."""
        per_cpu = []
        for samples in self.samples.values():
            inside = [t for at, t in samples if start <= at <= end]
            if len(inside) < PROBE_MIN_SAMPLES:
                inside = [t for _at, t in samples]
            if inside:
                per_cpu.append(median(inside))
        if not per_cpu:
            raise RuntimeError("speed probe took no samples")
        return sum(per_cpu) / len(per_cpu) / PROBE_REFERENCE_S


# -- spans --------------------------------------------------------------------


class Tracer:
    """Benchmark-side spans: name, start, end, parent; kept in memory.

    Times are ``time.monotonic()``, the clock asyncio schedules on, so
    spans recorded from an event loop line up with the rest.

    Spans wrap calls *into* the program's public functions from the
    benchmark's own code.  :meth:`dump` writes them out when the run
    ends.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def start(self, name: str, **tags: object) -> int:
        sid = len(self.spans)
        self.spans.append({
            "id": sid, "name": name, "start": time.monotonic(),
            "end": None, "parent": self._stack[-1] if self._stack else None,
            "tags": tags,
        })
        self._stack.append(sid)
        return sid

    def record(self, name: str, start: float, end: float,
               parent: Optional[int] = None, **tags: object) -> int:
        """A finished span from concurrent code, where no stack applies."""
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                           "parent": parent, "tags": tags})
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid]["end"] = time.monotonic()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order ({popped} open)")

    @contextlib.contextmanager
    def span(self, name: str, **tags: object) -> Iterator[int]:
        sid = self.start(name, **tags)
        try:
            yield sid
        finally:
            self.end(sid)

    def wrap(self, fn, name_of):
        """Wrap ``fn`` so every call is a span named ``name_of(args, kwargs)``."""
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.start(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(sid)

        wrapper.__wrapped__ = fn
        return wrapper

    def total_time(self, name: str) -> float:
        """Σ duration of spans named ``name`` (nested same-name spans once)."""
        by_id = {s["id"]: s for s in self.spans}

        def nested(s):
            parent = s["parent"]
            while parent is not None:
                if by_id[parent]["name"] == name:
                    return True
                parent = by_id[parent]["parent"]
            return False

        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and s["end"] is not None and not nested(s)
        )

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def dump(self, path: pathlib.Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True, default=str) + "\n")


# -- process plumbing ---------------------------------------------------------


def protect_stdout():
    """Send fd 1 to a log so native libraries cannot corrupt the result.

    HiGHS prints from C++ straight to file descriptor 1.  The benchmark
    moves fd 1 onto stderr's target for the whole run and returns a text
    stream on a private duplicate of the original stdout; only lines
    written to that stream reach the caller.
    """
    sys.stdout.flush()
    private = os.dup(1)
    os.dup2(2, 1)
    return os.fdopen(private, "w", buffering=1, encoding="utf-8")


def program_env(root: pathlib.Path) -> Dict[str, str]:
    """Environment for processes that import the program from ``src/``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # The benchmark decides where sidecars go; never inherit a caller's.
    for var in ("REPRO_OBS_METRICS", "REPRO_OBS_TRACE", "REPRO_PACKS",
                "REPRO_MCF_WARM"):
        env.pop(var, None)
    return env


def run_child(root: pathlib.Path, job: str, args: Mapping[str, object],
              workdir: pathlib.Path, *, timeout_s: float = 170.0
              ) -> Dict[str, object]:
    """Run one ``child.py`` job in a fresh interpreter; return its result.

    The result travels through a file, never stdout: the child's fd 1
    and 2 go to a log, where any native solver output lands harmlessly.
    ``t_launch`` is stamped just before the process starts so the child
    can report its set-up time as seen from outside.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / f"{job}.result.json"
    log_path = workdir / f"{job}.log"
    payload = dict(args, result_path=str(result_path), t_launch=time.time())
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), job,
             json.dumps(payload)],
            cwd=str(root), env=program_env(root), stdout=log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"child job {job} exceeded {timeout_s:.0f} s")
    if code != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"child job {job} failed (exit {code}):\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["t_launch"] = payload["t_launch"]
    return result


def max_rss_mb() -> float:
    """Peak RSS of this process and of its waited-for descendants (MB)."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, from /proc (MB)."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"process {pid} reports no VmHWM")


def source_digest(root: pathlib.Path) -> str:
    """SHA-256 over the program's sources (the checkout has no git)."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: pathlib.Path) -> Dict[str, object]:
    """What a result must say about where it was measured."""
    import platform

    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(root), capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    versions = {}
    for module in ("numpy", "scipy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {
        "git_sha": sha,
        "src_sha256": source_digest(root),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "platform": platform.platform(),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
