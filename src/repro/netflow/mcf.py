"""Exact multi-commodity-flow computations via linear programming.

The central quantity is the *max concurrent flow* λ*: the largest uniform
scaling of the traffic matrix the network can carry with splittable
routing.  A link set is feasible for a TM exactly when λ* >= 1.

Formulation (node-arc, commodities aggregated by source):

- each undirected link becomes two directed arcs, each with the link's
  full-duplex capacity;
- for each source ``s`` with positive egress, variables x[a, s] >= 0 give
  the flow of s-sourced traffic on arc ``a``;
- flow conservation at every node v:  out(v,s) - in(v,s) = λ · b(s, v)
  where b(s, s) = Σ_t d(s,t), b(s, t) = -d(s,t);
- capacity:  Σ_s x[a, s] <= cap(a);
- maximize λ.

Aggregating by source keeps the variable count at |arcs| × |sources|
instead of |arcs| × |pairs|, which is what makes exact feasibility
affordable for the auction's inner loop at benchmark scale.

There is one implementation of this LP: :class:`repro.netflow.model.McfModel`,
which orders arcs by sorted link id, so a result depends only on the
network's content, never on the order its links were inserted in.
:func:`max_concurrent_flow` is a full-set solve of a fresh model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import FlowError
from repro.obs import metrics, span
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix

#: λ is capped at this value so the LP stays bounded even for tiny TMs.
LAMBDA_CAP = 64.0


@dataclass(frozen=True)
class MCFResult:
    """Outcome of a max-concurrent-flow solve."""

    lam: float
    feasible: bool
    status: int
    message: str
    #: Total flow·km routed at λ = min(lam, 1) — a cost-of-carriage proxy.
    flow_km: float = 0.0
    #: Per-link load (Gbps, both directions summed) of a routing of the TM
    #: itself (flows rescaled to λ = 1 when λ* > 1).  None when infeasible.
    link_loads: Optional[Dict[str, float]] = None
    #: Raw routing detail for invariant audits, populated only when
    #: ``keep_flows=True``: ``arcs`` lists (arc_id, tail, head, capacity)
    #: and ``arc_flows[(arc_id, source)]`` the *unscaled* flow of
    #: source-sourced traffic on that arc at the solved λ.
    arcs: Optional[Tuple[Tuple[str, str, str, float], ...]] = None
    arc_flows: Optional[Dict[Tuple[str, str], float]] = None

    @property
    def utilization_headroom(self) -> float:
        """How much the TM could grow before saturating (λ* − 1)."""
        return self.lam - 1.0


def max_concurrent_flow(
    network: Network,
    tm: TrafficMatrix,
    *,
    lambda_cap: float = LAMBDA_CAP,
    keep_flows: bool = False,
) -> MCFResult:
    """Solve for the max concurrent flow λ* of ``tm`` on ``network``.

    Raises :class:`FlowError` only on solver breakdown; an unreachable
    demand simply yields λ* = 0 (infeasible).  ``keep_flows=True``
    retains the per-arc, per-source routing on the result so the
    invariant suite (:mod:`repro.validate.invariants`) can audit flow
    conservation and capacity respect against the LP's own solution.

    A full-set solve of a fresh :class:`repro.netflow.model.McfModel`,
    deliberately outside the process-wide model cache: one-off callers
    (planning, chaos, availability, audits) must not evict the warm
    models the auction's oracles depend on.
    """
    from repro.netflow.model import McfModel

    return McfModel(network, tm, lambda_cap=lambda_cap).solve(keep_flows=keep_flows)


def _finish_result(
    x,
    status: int,
    message: str,
    arcs: List[Tuple[str, str, str, float, float]],
    sources: List[str],
    keep_flows: bool,
) -> MCFResult:
    """Turn a raw LP solution over ``arcs`` × ``sources`` into an :class:`MCFResult`.

    Called by :class:`repro.netflow.model.McfModel` after every solve;
    the from-scratch reference LP under ``tests/netflow/`` shares it, so
    identical solver outputs give bit-identical results.
    """
    if status not in (0, 3):  # 3 = unbounded cannot happen with the cap
        metrics().inc("mcf.failures")
        raise FlowError(f"MCF solver failed: status={status} {message}")
    n_arcs, n_src = len(arcs), len(sources)
    n_x = n_arcs * n_src
    lam_col = n_x
    lam = float(x[lam_col]) if x is not None else 0.0

    # Numerical tolerance: HiGHS returns e.g. 0.9999999997 for exactly-tight
    # instances.
    feasible = lam >= 1.0 - 1e-7

    flow_km = 0.0
    link_loads: Optional[Dict[str, float]] = None
    arcs_out: Optional[Tuple[Tuple[str, str, str, float], ...]] = None
    arc_flows: Optional[Dict[Tuple[str, str], float]] = None
    with span("mcf.extract"):
        if keep_flows and x is not None:
            arcs_out = tuple((aid, tail, head, cap) for aid, tail, head, cap, _l in arcs)
            arc_flows = {}
            for a, (aid, _t, _h, _c, _l) in enumerate(arcs):
                for s, source in enumerate(sources):
                    value = float(x[a * n_src + s])
                    if value > 1e-12:
                        arc_flows[(aid, source)] = value
        if x is not None:
            lengths = np.repeat([arc[4] for arc in arcs], n_src)
            flow_km = float(np.dot(x[:n_x], lengths))
            if lam > 1.0:
                flow_km /= lam  # report at the TM's own scale
            if feasible:
                scale = 1.0 / lam if lam > 1.0 else 1.0
                per_arc = x[:n_x].reshape(n_arcs, n_src).sum(axis=1) * scale
                link_loads = {}
                for a, (aid, _t, _h, _c, _l) in enumerate(arcs):
                    if per_arc[a] > 1e-9:
                        lid = aid[:-2]  # strip the ">f"/">r" direction suffix
                        link_loads[lid] = link_loads.get(lid, 0.0) + float(per_arc[a])

    return MCFResult(
        lam=lam,
        feasible=feasible,
        status=status,
        message=message,
        flow_km=flow_km,
        link_loads=link_loads,
        arcs=arcs_out,
        arc_flows=arc_flows,
    )


def mcf_feasible(network: Network, tm: TrafficMatrix) -> bool:
    """Convenience wrapper: can ``network`` carry ``tm``?

    Routed through the warm-started model cache
    (:func:`repro.netflow.model.get_model`) so repeated yes/no queries on
    the same (topology, TM) never rebuild the LP, and trivially
    infeasible demand (egress/ingress exceeding a node's incident cut
    capacity) is answered without any solve at all.
    """
    from repro.netflow.model import get_model

    return get_model(network, tm).feasible()
