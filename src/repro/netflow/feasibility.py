"""Feasibility oracles: "can this link set carry this traffic matrix?"

The auction evaluates feasibility of *many* candidate link subsets, so the
oracle is a first-class, swappable object:

- :class:`MCFOracle` — exact, via the node-arc max-concurrent-flow LP
  of a warm, process-wide :class:`repro.netflow.model.McfModel`.
- :class:`PathOracle` — the path-column LP of
  :class:`repro.netflow.pathmcf.PathMcfModel`; exact-equivalent verdicts
  by default (infeasible path verdicts re-checked on the node-arc model)
  at a fraction of the variable count, which is what scales feasibility
  to the continental (T2) link universe.
- :class:`GreedyOracle` — heuristic multipath routing (conservative:
  "feasible" answers are trustworthy, "infeasible" may be false).
- :class:`ShortestPathOracle` — plain IGP routing, the most conservative.

All oracles share a memoization cache keyed by the frozenset of link ids,
because the greedy-drop selection re-tests overlapping subsets constantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional

from repro.exceptions import FlowError
from repro.topology.graph import Network
from repro.netflow.model import get_model
from repro.netflow.pathmcf import PathMcfModel
from repro.netflow.routing import route_greedy_multipath, route_shortest_path
from repro.traffic.matrix import TrafficMatrix


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict plus a diagnostic utilization/slack figure."""

    feasible: bool
    #: max concurrent flow λ (exact oracle) or 1/max-utilization (heuristics);
    #: values >= 1 mean the TM fits with that much headroom.
    headroom: float
    #: Per-link load (Gbps) of one feasible routing of the TM, or None when
    #: infeasible.  Links absent from the dict carry zero flow — the
    #: survivability constraints exploit this: a zero-flow link can fail
    #: without any re-check, because the same routing still works.
    link_loads: Optional[Dict[str, float]] = None


class BaseOracle:
    """Shared caching machinery for all oracles."""

    #: Human-readable engine name (used in reports and ablation benches).
    name: str = "base"

    def __init__(self, network: Network, tm: TrafficMatrix) -> None:
        tm.validate_against(network.node_ids)
        self.network = network
        self.tm = tm
        self._cache: Dict[FrozenSet[str], FeasibilityResult] = {}
        self.evaluations = 0
        self.cache_hits = 0

    def check(self, link_ids: Iterable[str]) -> FeasibilityResult:
        """Evaluate feasibility of the subset, with memoization."""
        key = frozenset(link_ids)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.evaluations += 1
        subnet = self.network.restricted_to_links(key)
        result = self._evaluate(subnet)
        self._cache[key] = result
        return result

    def feasible(self, link_ids: Iterable[str]) -> bool:
        return self.check(link_ids).feasible

    def _evaluate(self, subnet: Network) -> FeasibilityResult:
        raise NotImplementedError


class MCFOracle(BaseOracle):
    """Exact feasibility via the max-concurrent-flow LP.

    Solves run on a warm :class:`repro.netflow.model.McfModel` shared
    process-wide by workload content: the 65+ subset queries a single
    selection makes — and every selection over the same (topology, TM)
    after it — reuse one pre-assembled LP instead of rebuilding it per
    call.  With ``short_circuit`` (the default), subsets whose demand
    provably exceeds a node's incident cut capacity are answered without
    any LP solve; such verdicts carry ``headroom=0.0`` rather than the
    exact (sub-1) λ, which no consumer of infeasible verdicts reads.
    """

    name = "mcf"

    def __init__(
        self,
        network: Network,
        tm: TrafficMatrix,
        *,
        short_circuit: bool = True,
    ) -> None:
        super().__init__(network, tm)
        self.short_circuit = short_circuit
        self._model = get_model(network, tm)
        self.shortcircuits = 0

    def check(self, link_ids: Iterable[str]) -> FeasibilityResult:
        key = frozenset(link_ids)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.evaluations += 1
        if self.short_circuit and self._model.cut_infeasible(key):
            self.shortcircuits += 1
            result = FeasibilityResult(feasible=False, headroom=0.0, link_loads=None)
        else:
            solved = self._model.solve(key)
            result = FeasibilityResult(
                feasible=solved.feasible,
                headroom=solved.lam,
                link_loads=solved.link_loads,
            )
        self._cache[key] = result
        return result


class PathOracle(BaseOracle):
    """Feasibility via the k-diverse-path LP, exact on fallback.

    The path LP is a restriction of the exact MCF, so its "feasible"
    verdicts are sound.  With ``exact_fallback`` (the default) the
    "infeasible" ones are re-checked on the warm node-arc model, making
    verdicts identical to :class:`MCFOracle` while the cheap path solve
    absorbs the common case; with ``exact_fallback=False`` the oracle is
    conservative like :class:`GreedyOracle` but LP-grade at splitting.
    """

    name = "path"

    def __init__(
        self,
        network: Network,
        tm: TrafficMatrix,
        *,
        k_paths: int = 4,
        exact_fallback: bool = True,
    ) -> None:
        super().__init__(network, tm)
        self._model = PathMcfModel(
            network, tm, k_paths=k_paths, exact_fallback=exact_fallback
        )

    @property
    def exact_fallbacks(self) -> int:
        return self._model.exact_fallbacks

    def check(self, link_ids: Iterable[str]) -> FeasibilityResult:
        key = frozenset(link_ids)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.evaluations += 1
        solved = self._model.solve(key)
        result = FeasibilityResult(
            feasible=solved.feasible,
            headroom=solved.lam,
            link_loads=solved.link_loads,
        )
        self._cache[key] = result
        return result


class GreedyOracle(BaseOracle):
    """Heuristic feasibility via greedy multipath routing."""

    name = "greedy"

    def __init__(
        self,
        network: Network,
        tm: TrafficMatrix,
        *,
        max_paths_per_demand: int = 8,
    ) -> None:
        super().__init__(network, tm)
        self.max_paths_per_demand = max_paths_per_demand

    def _evaluate(self, subnet: Network) -> FeasibilityResult:
        outcome = route_greedy_multipath(
            subnet, self.tm, max_paths_per_demand=self.max_paths_per_demand
        )
        max_util = outcome.max_utilization(subnet)
        headroom = (1.0 / max_util) if max_util > 0 else float("inf")
        if not outcome.feasible:
            headroom = min(headroom, 0.0)
        return FeasibilityResult(
            feasible=outcome.feasible,
            headroom=headroom,
            link_loads=outcome.link_load_gbps if outcome.feasible else None,
        )


class ShortestPathOracle(BaseOracle):
    """Most conservative: single shortest path per demand, no splitting."""

    name = "sp"

    def _evaluate(self, subnet: Network) -> FeasibilityResult:
        outcome = route_shortest_path(subnet, self.tm)
        max_util = outcome.max_utilization(subnet)
        headroom = (1.0 / max_util) if max_util > 0 else float("inf")
        if not outcome.feasible:
            headroom = min(headroom, 0.0)
        return FeasibilityResult(
            feasible=outcome.feasible,
            headroom=headroom,
            link_loads=outcome.link_load_gbps if outcome.feasible else None,
        )


_ORACLES: Dict[str, Callable[..., BaseOracle]] = {
    "mcf": MCFOracle,
    "path": PathOracle,
    "greedy": GreedyOracle,
    "sp": ShortestPathOracle,
}


def make_oracle(engine: str, network: Network, tm: TrafficMatrix, **kwargs) -> BaseOracle:
    """Factory: ``engine`` is one of ``"mcf"``, ``"path"``, ``"greedy"``, ``"sp"``."""
    try:
        cls = _ORACLES[engine]
    except KeyError:
        raise FlowError(
            f"unknown feasibility engine {engine!r}; expected one of {sorted(_ORACLES)}"
        ) from None
    return cls(network, tm, **kwargs)
