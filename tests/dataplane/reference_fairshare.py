"""Reference weighted max-min water-filling: the scalar per-flow loop.

The executable specification of
:func:`repro.dataplane.fairshare.max_min_allocation`.  The production
kernel runs each filling iteration as numpy array operations; this is
the original per-flow Python loop, and the two must agree with exact
float equality (``tests/dataplane/test_fairshare.py``).  Inputs are
assumed valid — the production function validates them.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.dataplane.fairshare import _EPS


def reference_max_min_allocation(
    flow_paths: Mapping[str, Sequence[str]],
    demands: Mapping[str, float],
    weights: Mapping[str, float],
    capacities: Mapping[str, float],
) -> Dict[str, float]:
    """Weighted max-min rates by scalar progressive filling."""
    rates: Dict[str, float] = {fid: 0.0 for fid in flow_paths}
    frozen: Dict[str, bool] = {fid: False for fid in flow_paths}
    residual: Dict[str, float] = dict(capacities)

    flows_on_link: Dict[str, List[str]] = {lid: [] for lid in capacities}
    for fid, path in flow_paths.items():
        for lid in path:
            flows_on_link[lid].append(fid)

    while not all(frozen.values()):
        # The largest uniform water-level increment before something binds.
        delta = float("inf")
        for lid, cap_left in residual.items():
            active_weight = sum(
                weights[fid] for fid in flows_on_link[lid] if not frozen[fid]
            )
            if active_weight > 0:
                delta = min(delta, cap_left / active_weight)
        for fid in flow_paths:
            if not frozen[fid]:
                head = (demands[fid] - rates[fid]) / weights[fid]
                delta = min(delta, head)
        if delta == float("inf"):
            break  # no unfrozen flow crosses any capacitated link
        delta = max(delta, 0.0)

        for fid in flow_paths:
            if frozen[fid]:
                continue
            increment = delta * weights[fid]
            rates[fid] += increment
            for lid in flow_paths[fid]:
                residual[lid] -= increment

        # Freeze demand-satisfied flows and flows on saturated links.
        for fid in flow_paths:
            if frozen[fid]:
                continue
            if rates[fid] >= demands[fid] - _EPS:
                rates[fid] = demands[fid]
                frozen[fid] = True
        for lid, cap_left in residual.items():
            if cap_left <= _EPS:
                for fid in flows_on_link[lid]:
                    frozen[fid] = True

    return rates
