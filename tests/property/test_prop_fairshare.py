"""Property tests: max-min allocation invariants on random instances."""

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from repro.dataplane.fairshare import is_max_min_fair, max_min_allocation


@st.composite
def instances(draw):
    n_links = draw(st.integers(min_value=1, max_value=5))
    links = [f"l{i}" for i in range(n_links)]
    capacities = {
        lid: draw(st.floats(min_value=0.5, max_value=50.0)) for lid in links
    }
    n_flows = draw(st.integers(min_value=1, max_value=8))
    paths = {}
    demands = {}
    weights = {}
    for i in range(n_flows):
        size = draw(st.integers(min_value=1, max_value=n_links))
        idx = draw(
            st.lists(
                st.integers(0, n_links - 1), min_size=size, max_size=size,
                unique=True,
            )
        )
        paths[f"f{i}"] = [links[j] for j in idx]
        demands[f"f{i}"] = draw(st.floats(min_value=0.1, max_value=40.0))
        weights[f"f{i}"] = draw(st.floats(min_value=0.1, max_value=5.0))
    return paths, demands, weights, capacities


class TestAllocationProperties:
    @given(instances())
    @settings(max_examples=150)
    def test_feasible_and_demand_bounded(self, instance):
        paths, demands, weights, capacities = instance
        rates = max_min_allocation(paths, demands, weights, capacities)
        load = {lid: 0.0 for lid in capacities}
        for fid, path in paths.items():
            assert -1e-9 <= rates[fid] <= demands[fid] + 1e-6
            for lid in path:
                load[lid] += rates[fid]
        for lid, total in load.items():
            assert total <= capacities[lid] + 1e-6

    @given(instances())
    @settings(max_examples=150)
    def test_work_conserving(self, instance):
        """No flow is left hungry with slack everywhere on its path."""
        paths, demands, weights, capacities = instance
        rates = max_min_allocation(paths, demands, weights, capacities)
        load = {lid: 0.0 for lid in capacities}
        for fid, path in paths.items():
            for lid in path:
                load[lid] += rates[fid]
        for fid, path in paths.items():
            if rates[fid] < demands[fid] - 1e-6:
                assert any(
                    load[lid] >= capacities[lid] - 1e-6 for lid in path
                ), fid

    @given(instances())
    @settings(max_examples=150)
    def test_max_min_fairness(self, instance):
        paths, demands, weights, capacities = instance
        rates = max_min_allocation(paths, demands, weights, capacities)
        assert is_max_min_fair(rates, paths, demands, weights, capacities)

    @given(instances(), st.floats(min_value=1.1, max_value=4.0))
    @settings(max_examples=100)
    @example(
        (
            {"f0": ["l1"], "f1": ["l0"], "f2": ["l0", "l1"], "f3": ["l0"],
             "f4": ["l0"], "f5": ["l0"]},
            {"f0": 15.0, "f1": 1.0, "f2": 30.0, "f3": 3.0, "f4": 1.0,
             "f5": 1.0},
            {"f0": 1.0, "f1": 1.0, "f2": 1.5, "f3": 0.125, "f4": 1.0,
             "f5": 1.0},
            {"l0": 32.0, "l1": 41.0},
        ),
        1.109375,
    )
    def test_monotone_in_capacity(self, instance, factor):
        """Scaling all capacities up never makes the allocation leximin-worse.

        The max-min fair point is the leximin-best feasible one, and more
        capacity only enlarges the feasible set, so the weight-normalized
        rates, sorted ascending, can only rise lexicographically.  One
        flow's rate may still fall: in the pinned example f2 reaches its
        demand on the larger ``l0`` and f3 drops from 3.0 to 2.5.
        """
        paths, demands, weights, capacities = instance
        base = max_min_allocation(paths, demands, weights, capacities)
        bigger = max_min_allocation(
            paths, demands, weights,
            {lid: cap * factor for lid, cap in capacities.items()},
        )
        old = sorted(base[fid] / weights[fid] for fid in paths)
        new = sorted(bigger[fid] / weights[fid] for fid in paths)
        for was, now in zip(old, new):
            if now > was + 1e-6:
                break
            assert now >= was - 1e-6

    @given(instances())
    @settings(max_examples=100)
    def test_weight_scaling_invariance(self, instance):
        """Multiplying every weight by the same constant changes nothing."""
        paths, demands, weights, capacities = instance
        base = max_min_allocation(paths, demands, weights, capacities)
        scaled = max_min_allocation(
            paths, demands,
            {fid: w * 3.0 for fid, w in weights.items()},
            capacities,
        )
        for fid in paths:
            assert scaled[fid] == pytest.approx(base[fid], abs=1e-6)
