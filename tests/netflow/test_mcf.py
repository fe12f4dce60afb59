"""Tests for the max-concurrent-flow LP."""

import pytest

from repro.netflow.mcf import LAMBDA_CAP, max_concurrent_flow, mcf_feasible
from repro.topology.graph import Link, Network
from repro.traffic.matrix import TrafficMatrix

from tests.conftest import make_node, square_network, square_tm


def line_network(cap_ab=10.0, cap_bc=10.0):
    net = Network(name="line")
    for n in ("A", "B", "C"):
        net.add_node(make_node(n))
    net.add_link(Link(id="AB", u="A", v="B", capacity_gbps=cap_ab, length_km=100))
    net.add_link(Link(id="BC", u="B", v="C", capacity_gbps=cap_bc, length_km=100))
    return net


class TestBasics:
    def test_single_demand_lambda(self):
        net = line_network(cap_ab=10.0)
        tm = TrafficMatrix.from_dict(["A", "B"], {("A", "B"): 2.0})
        res = max_concurrent_flow(net, tm)
        assert res.feasible
        assert res.lam == pytest.approx(5.0, rel=1e-6)

    def test_bottleneck_lambda(self):
        net = line_network(cap_ab=10.0, cap_bc=4.0)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 2.0})
        res = max_concurrent_flow(net, tm)
        assert res.lam == pytest.approx(2.0, rel=1e-6)

    def test_exactly_tight_is_feasible(self):
        net = line_network(cap_ab=2.0, cap_bc=2.0)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 2.0})
        res = max_concurrent_flow(net, tm)
        assert res.feasible
        assert res.lam == pytest.approx(1.0, rel=1e-6)

    def test_infeasible_when_overloaded(self):
        net = line_network(cap_ab=1.0)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 3.0})
        res = max_concurrent_flow(net, tm)
        assert not res.feasible
        assert res.lam == pytest.approx(1.0 / 3.0, rel=1e-5)

    def test_disconnected_demand_infeasible(self):
        net = line_network()
        net.remove_link("BC")
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 1.0})
        res = max_concurrent_flow(net, tm)
        assert not res.feasible
        assert res.lam == pytest.approx(0.0, abs=1e-9)

    def test_empty_tm_feasible(self):
        net = line_network()
        tm = TrafficMatrix(nodes=["A", "B", "C"])
        res = max_concurrent_flow(net, tm)
        assert res.feasible
        assert res.lam == LAMBDA_CAP

    def test_no_links(self):
        net = Network()
        net.add_node(make_node("A"))
        net.add_node(make_node("B"))
        tm = TrafficMatrix.from_dict(["A", "B"], {("A", "B"): 1.0})
        res = max_concurrent_flow(net, tm)
        assert not res.feasible


class TestSplitting:
    def test_flow_splits_across_parallel_paths(self):
        # A->C demand of 8: direct 5G diagonal + around the ring.
        net = square_network()
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 8.0})
        res = max_concurrent_flow(net, tm)
        assert res.feasible
        # Total A->C capacity: AC (5) + A-B-C (10) + A-D-C (10) = 25.
        assert res.lam == pytest.approx(25.0 / 8.0, rel=1e-6)

    def test_bidirectional_capacity_not_shared(self):
        # Full duplex: A->B and B->A both fit at full capacity.
        net = line_network(cap_ab=10.0)
        tm = TrafficMatrix.from_dict(
            ["A", "B"], {("A", "B"): 10.0, ("B", "A"): 10.0}
        )
        res = max_concurrent_flow(net, tm)
        assert res.feasible
        assert res.lam >= 1.0

    def test_shared_link_capacity_is_shared(self):
        # Two demands both crossing AB in the same direction must share.
        net = line_network(cap_ab=10.0, cap_bc=10.0)
        tm = TrafficMatrix.from_dict(
            ["A", "B", "C"], {("A", "B"): 6.0, ("A", "C"): 6.0}
        )
        res = max_concurrent_flow(net, tm)
        # AB carries 12 total demand over 10 capacity.
        assert res.lam == pytest.approx(10.0 / 12.0, rel=1e-6)
        assert not res.feasible


class TestDiagnostics:
    def test_link_loads_present_when_feasible(self):
        net = line_network()
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 2.0})
        res = max_concurrent_flow(net, tm)
        assert res.link_loads is not None
        assert res.link_loads["AB"] == pytest.approx(2.0, rel=1e-6)
        assert res.link_loads["BC"] == pytest.approx(2.0, rel=1e-6)

    def test_link_loads_scaled_to_tm(self):
        # Even with lam >> 1, reported loads are for the TM itself.
        net = line_network(cap_ab=100.0, cap_bc=100.0)
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 1.0})
        res = max_concurrent_flow(net, tm)
        assert res.lam > 10
        assert sum(res.link_loads.values()) == pytest.approx(2.0, rel=1e-5)

    def test_flow_km_positive(self):
        net = line_network()
        tm = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 2.0})
        res = max_concurrent_flow(net, tm)
        assert res.flow_km == pytest.approx(2.0 * 200.0, rel=1e-5)

    def test_headroom(self):
        net = line_network()
        tm = TrafficMatrix.from_dict(["A", "B"], {("A", "B"): 5.0})
        res = max_concurrent_flow(net, tm)
        assert res.utilization_headroom == pytest.approx(1.0, rel=1e-6)


class TestConvenience:
    def test_mcf_feasible_wrapper(self):
        net = line_network()
        ok = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 5.0})
        bad = TrafficMatrix.from_dict(["A", "C"], {("A", "C"): 50.0})
        assert mcf_feasible(net, ok)
        assert not mcf_feasible(net, bad)

    def test_zoo_scale_solve(self, tiny_zoo):
        from repro.experiments.pipeline import traffic_for_zoo

        tm = traffic_for_zoo(tiny_zoo)
        res = max_concurrent_flow(tiny_zoo.offered, tm)
        assert res.feasible
        assert res.lam > 1.0

    def test_result_independent_of_link_insertion_order(self, tiny_zoo):
        """Arcs follow sorted link ids, so insertion order cannot leak.

        A copy of the tiny zoo's offered network with its links inserted
        in shuffled order must give the same bytes as the id-sorted one:
        the LP is the same problem, and a different arc order would let
        HiGHS round λ differently or return another degenerate optimum.
        """
        import numpy as np

        from repro.experiments.pipeline import traffic_for_zoo

        offered = tiny_zoo.offered
        tm = traffic_for_zoo(tiny_zoo)
        id_sorted = offered.restricted_to_links(offered.link_ids)
        links = sorted(offered.iter_links(), key=lambda link: link.id)
        order = np.random.default_rng(7).permutation(len(links))
        shuffled = Network(name="shuffled")
        for node_id in offered.node_ids:
            shuffled.add_node(offered.node(node_id))
        for i in order:
            shuffled.add_link(links[int(i)])
        assert [link.id for link in shuffled.iter_links()] != [
            link.id for link in links
        ]

        want = max_concurrent_flow(id_sorted, tm, keep_flows=True)
        got = max_concurrent_flow(shuffled, tm, keep_flows=True)
        assert got.lam == want.lam
        assert got.flow_km == want.flow_km
        assert got.link_loads == want.link_loads
        assert got.arc_flows == want.arc_flows
