"""Reference node-arc MCF: the from-scratch ``linprog`` assembly.

This is the executable specification that :class:`repro.netflow.model.McfModel`
must match bit for bit.  It assembles the same LP independently — COO
triplets from Python lists, scipy's own ``linprog`` front end — so the
byte-identity suites (``tests/property/test_prop_warm_mcf.py``,
``tests/netflow/test_warm_model.py``) compare the sliced-template solver
against a genuinely separate construction.  Only the result epilogue
(:func:`repro.netflow.mcf._finish_result`) is shared.
"""

from __future__ import annotations

from typing import FrozenSet, List, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.netflow.mcf import LAMBDA_CAP, MCFResult, _finish_result
from repro.obs import metrics, span
from repro.topology.graph import Network
from repro.traffic.matrix import TrafficMatrix


def _directed_arcs(network: Network) -> List[Tuple[str, str, str, float, float]]:
    """Expand undirected links to directed arcs.

    Returns tuples (arc_id, tail, head, capacity, length).
    """
    arcs = []
    for link in network.iter_links():
        arcs.append((f"{link.id}>f", link.u, link.v, link.capacity_gbps, link.length_km))
        arcs.append((f"{link.id}>r", link.v, link.u, link.capacity_gbps, link.length_km))
    return arcs


def reference_max_concurrent_flow(
    network: Network,
    tm: TrafficMatrix,
    *,
    lambda_cap: float = LAMBDA_CAP,
    keep_flows: bool = False,
) -> MCFResult:
    """Max concurrent flow of ``tm`` on ``network``, assembled from scratch.

    Builds the node-arc LP from Python lists in the network's own link
    order and solves it through ``linprog(method="highs")``.  On an
    id-sorted network (any ``restricted_to_links`` subnet) the result is
    byte-identical to :meth:`McfModel.solve` on the same links.
    """
    tm.validate_against(network.node_ids)
    demands = [(pair, v) for pair, v in tm.pairs() if v > 0]
    if not demands:
        return MCFResult(lam=lambda_cap, feasible=True, status=0, message="empty TM")

    sources = sorted({src for (src, _), _ in demands})
    nodes = network.node_ids
    node_idx = {n: i for i, n in enumerate(nodes)}
    src_idx = {s: i for i, s in enumerate(sources)}
    arcs = _directed_arcs(network)
    n_arcs, n_src, n_nodes = len(arcs), len(sources), len(nodes)
    if n_arcs == 0:
        return MCFResult(lam=0.0, feasible=False, status=2, message="no links")

    with span("mcf.build", arcs=n_arcs, sources=n_src, nodes=n_nodes):
        # Net supply b(s, v).
        b = np.zeros((n_src, n_nodes))
        for (src, dst), value in demands:
            b[src_idx[src], node_idx[src]] += value
            b[src_idx[src], node_idx[dst]] -= value

        # Variable layout: x[a, s] at index a * n_src + s; λ last.
        n_x = n_arcs * n_src
        lam_col = n_x

        eq_rows: List[int] = []
        eq_cols: List[int] = []
        eq_vals: List[float] = []
        # Conservation row index: s * n_nodes + v.
        for a, (_aid, tail, head, _cap, _len) in enumerate(arcs):
            ti, hi = node_idx[tail], node_idx[head]
            for s in range(n_src):
                col = a * n_src + s
                eq_rows.append(s * n_nodes + ti)
                eq_cols.append(col)
                eq_vals.append(1.0)
                eq_rows.append(s * n_nodes + hi)
                eq_cols.append(col)
                eq_vals.append(-1.0)
        # -λ·b term.
        for s in range(n_src):
            for v in range(n_nodes):
                if b[s, v] != 0.0:
                    eq_rows.append(s * n_nodes + v)
                    eq_cols.append(lam_col)
                    eq_vals.append(-b[s, v])
        a_eq = coo_matrix(
            (eq_vals, (eq_rows, eq_cols)), shape=(n_src * n_nodes, n_x + 1)
        ).tocsr()
        b_eq = np.zeros(n_src * n_nodes)

        ub_rows: List[int] = []
        ub_cols: List[int] = []
        ub_vals: List[float] = []
        caps = np.empty(n_arcs)
        for a, (_aid, _t, _h, cap, _len) in enumerate(arcs):
            caps[a] = cap
            for s in range(n_src):
                ub_rows.append(a)
                ub_cols.append(a * n_src + s)
                ub_vals.append(1.0)
        a_ub = coo_matrix((ub_vals, (ub_rows, ub_cols)), shape=(n_arcs, n_x + 1)).tocsr()

        c = np.zeros(n_x + 1)
        c[lam_col] = -1.0
        bounds = [(0, None)] * n_x + [(0, lambda_cap)]

    with span("mcf.solve", variables=n_x + 1):
        metrics().inc("mcf.solves")
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=caps,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )
    return _finish_result(res.x, res.status, res.message, arcs, sources, keep_flows)


def reference_solve_fast(model, key: FrozenSet[str], keep_flows: bool) -> MCFResult:
    """Drop-in for ``McfModel._solve_fast`` that solves via the reference.

    Monkeypatch it over the method to run a model's memo and cache
    structure on the from-scratch solver (the cold arm of bench R2).
    """
    return reference_max_concurrent_flow(
        model.network.restricted_to_links(key),
        model.tm,
        lambda_cap=model.lambda_cap,
        keep_flows=keep_flows,
    )
