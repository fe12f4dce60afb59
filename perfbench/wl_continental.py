"""continental-t2: the T2 build, its sparse view and fan-out, a sharded clear.

One pass (one interpreter) builds the T2 workload from the public pieces
of ``continental_workload("t2")`` — zoo, hierarchical traffic, offers,
region partition — then the :class:`SparseTopology` view and the region
fan-out.  It then clears the ``smoke`` preset region-sharded on two
workers, and once serially as the reference.  Nothing is shared between
the steps: this is the no-sharing side for every cache in the program.

The topologies are the stated input size, so their seeds are fixed: T2
is the 110-BP / 538-site / 208k-link build of seed 2026, and smoke is
``continental_workload``'s default.  The benchmark seed draws the offers
(bids) of both markets.
"""

from __future__ import annotations

import gc
import pathlib
import time
from typing import Dict

#: Topology seed of both presets (``continental_workload``'s default).
TOPOLOGY_SEED = 2026

#: The T2 floors (ROADMAP: continental scale).
FLOORS = {"bps": 100, "sites": 500, "links": 100_000}

LOAD_FRACTION = 0.02
INTER_REGION_FRACTION = 0.3


def resolve_preset():
    """Preset resolution: the T2 configuration."""
    from repro.topology.continental import ContinentalConfig

    import repro.auction.sharded  # noqa: F401 - the clear's entry points
    import repro.experiments.pipeline  # noqa: F401 - offers_for_zoo
    import repro.topology.sparse  # noqa: F401
    import repro.traffic.hierarchy  # noqa: F401

    return ContinentalConfig.t2(TOPOLOGY_SEED)


def _rel_close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def run_pass(args: Dict[str, object], t_setup: float) -> Dict[str, object]:
    from harness import Tracer

    from repro.auction.sharded import (
        RegionPartition, clear_sharded_spec, continental_workload,
        split_offers, split_traffic,
    )
    from repro.experiments.pipeline import offers_for_zoo
    from repro.topology.continental import build_continental
    from repro.topology.sparse import SparseTopology
    from repro.traffic.hierarchy import (
        RegionProfile, hierarchical_matrix, profiles_from_catalog,
    )

    seed = int(args["seed"])
    tracer = Tracer()
    timed: Dict[str, float] = {}

    def phase(name, fn):
        # Untraced passes time each step with two clock reads; traced
        # passes also record a span (the difference is the overhead).
        start = time.perf_counter()
        if args["traced"]:
            with tracer.span(name):
                value = fn()
        else:
            value = fn()
        timed[name] = timed.get(name, 0.0) + time.perf_counter() - start
        return value

    config = resolve_preset()
    t_start = time.time()
    start = time.perf_counter()
    zoo = phase("topology.build", lambda: build_continental(config))

    def traffic():
        profiles = profiles_from_catalog(zoo.catalog)
        raw = sum(p.total_gbps for p in profiles)
        target = zoo.offered.total_capacity_gbps() * LOAD_FRACTION
        scale = target / raw if raw > 0 else 0.0
        profiles = [RegionProfile(p.region, p.users_m * scale, p.gbps_per_m_users)
                    for p in profiles]
        return hierarchical_matrix(
            zoo.sites, profiles, catalog=zoo.catalog,
            inter_region_fraction=INTER_REGION_FRACTION,
        )

    tm = phase("traffic.hierarchy", traffic)
    offers = phase("experiments.offers",
                   lambda: offers_for_zoo(zoo, seed=seed))
    partition = phase(
        "topology.partition",
        lambda: RegionPartition.from_sites(zoo.sites, catalog=zoo.catalog),
    )
    sparse = phase("topology.sparse",
                   lambda: SparseTopology.from_network(zoo.offered))
    (by_region, cross_offers), (intra, cross_pairs) = phase(
        "auction.fanout",
        lambda: (split_offers(offers, partition), split_traffic(tm, partition)),
    )

    gates = []
    sizes = {
        "bps": len(zoo.bps), "sites": len(zoo.sites),
        "links": zoo.num_logical_links, "regions": len(partition.regions),
        "sparse_links": sparse.num_links,
    }
    for key, floor in FLOORS.items():
        if sizes[key] < floor:
            gates.append(f"T2 has {sizes[key]} {key}, floor is {floor}")
    if sparse.num_links != zoo.num_logical_links:
        gates.append("sparse view lost links")
    offered_links = sum(len(o.links) for o in offers)
    split_links = (sum(len(o.links) for subs in by_region.values() for o in subs)
                   + sum(len(o.links) for o in cross_offers))
    if split_links != offered_links:
        gates.append(f"fan-out links {split_links} != offered {offered_links}")
    split_gbps = (sum(t.total_gbps() for t in intra.values())
                  + sum(cross_pairs.values()))
    if not _rel_close(split_gbps, tm.total_gbps()):
        gates.append(f"fan-out Gbps {split_gbps!r} != TM {tm.total_gbps()!r}")
    sparse_bytes_per_link = sparse.memory_bytes / sparse.num_links
    del zoo, tm, offers, partition, sparse, by_region, cross_offers, intra
    del cross_pairs
    gc.collect()

    phase("auction.smoke_workload", lambda: continental_workload(
        "smoke", TOPOLOGY_SEED, offer_seed=seed))
    pooled = phase("auction.sharded_clear", lambda: clear_sharded_spec(
        "smoke", TOPOLOGY_SEED, offer_seed=seed, workers=2))
    serial = phase("auction.sharded_clear_serial", lambda: clear_sharded_spec(
        "smoke", TOPOLOGY_SEED, offer_seed=seed, workers=0))
    wall = time.perf_counter() - start
    if pooled.canonical_json() != serial.canonical_json():
        gates.append("2-worker sharded clear differs from the serial clear")

    if args["traced"]:
        tracer.dump(pathlib.Path(str(args["dir"])) / "spans.jsonl")
    return {
        "wall_s": wall,
        "t_start": t_start,
        "t_setup": t_setup,
        "sizes": sizes,
        "gates": gates,
        "phases": timed,
        "sparse_bytes_per_link": sparse_bytes_per_link,
    }
