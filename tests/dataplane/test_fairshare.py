"""Tests for weighted max-min allocation."""

import pytest

from repro.exceptions import FlowError
from repro.dataplane.fairshare import is_max_min_fair, max_min_allocation

from tests.dataplane.reference_fairshare import reference_max_min_allocation


class TestSingleLink:
    def test_equal_split(self):
        rates = max_min_allocation(
            {"a": ["l"], "b": ["l"]},
            {"a": 10.0, "b": 10.0},
            {"a": 1.0, "b": 1.0},
            {"l": 10.0},
        )
        assert rates["a"] == pytest.approx(5.0)
        assert rates["b"] == pytest.approx(5.0)

    def test_weighted_split(self):
        rates = max_min_allocation(
            {"a": ["l"], "b": ["l"]},
            {"a": 10.0, "b": 10.0},
            {"a": 3.0, "b": 1.0},
            {"l": 8.0},
        )
        assert rates["a"] == pytest.approx(6.0)
        assert rates["b"] == pytest.approx(2.0)

    def test_demand_capped_flow_releases_share(self):
        rates = max_min_allocation(
            {"a": ["l"], "b": ["l"]},
            {"a": 2.0, "b": 10.0},
            {"a": 1.0, "b": 1.0},
            {"l": 10.0},
        )
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(8.0)

    def test_uncongested_gives_full_demand(self):
        rates = max_min_allocation(
            {"a": ["l"]}, {"a": 3.0}, {"a": 1.0}, {"l": 100.0}
        )
        assert rates["a"] == pytest.approx(3.0)


class TestMultiLink:
    def test_bottleneck_propagates(self):
        # a crosses l1 (thin) and l2; b crosses only l2 and inherits
        # a's leftover on l2.
        rates = max_min_allocation(
            {"a": ["l1", "l2"], "b": ["l2"]},
            {"a": 10.0, "b": 10.0},
            {"a": 1.0, "b": 1.0},
            {"l1": 2.0, "l2": 10.0},
        )
        assert rates["a"] == pytest.approx(2.0)
        assert rates["b"] == pytest.approx(8.0)

    def test_classic_parking_lot(self):
        # Long flow across both links, one short flow per link.
        rates = max_min_allocation(
            {"long": ["l1", "l2"], "s1": ["l1"], "s2": ["l2"]},
            {"long": 10.0, "s1": 10.0, "s2": 10.0},
            {"long": 1.0, "s1": 1.0, "s2": 1.0},
            {"l1": 10.0, "l2": 10.0},
        )
        assert rates["long"] == pytest.approx(5.0)
        assert rates["s1"] == pytest.approx(5.0)
        assert rates["s2"] == pytest.approx(5.0)

    def test_capacity_respected(self):
        rates = max_min_allocation(
            {"a": ["l1", "l2"], "b": ["l1"], "c": ["l2"]},
            {"a": 100.0, "b": 100.0, "c": 100.0},
            {"a": 1.0, "b": 2.0, "c": 1.0},
            {"l1": 9.0, "l2": 6.0},
        )
        assert rates["a"] + rates["b"] <= 9.0 + 1e-6
        assert rates["a"] + rates["c"] <= 6.0 + 1e-6

    def test_result_is_max_min_fair(self):
        paths = {"a": ["l1", "l2"], "b": ["l1"], "c": ["l2"], "d": ["l2"]}
        demands = {"a": 100.0, "b": 3.0, "c": 100.0, "d": 100.0}
        weights = {"a": 1.0, "b": 1.0, "c": 2.0, "d": 1.0}
        capacities = {"l1": 9.0, "l2": 6.0}
        rates = max_min_allocation(paths, demands, weights, capacities)
        assert is_max_min_fair(rates, paths, demands, weights, capacities)


class TestValidation:
    def test_empty_path_rejected(self):
        with pytest.raises(FlowError):
            max_min_allocation({"a": []}, {"a": 1.0}, {"a": 1.0}, {"l": 1.0})

    def test_repeated_link_rejected(self):
        with pytest.raises(FlowError):
            max_min_allocation(
                {"a": ["l", "l"]}, {"a": 1.0}, {"a": 1.0}, {"l": 1.0}
            )

    def test_unknown_link_rejected(self):
        with pytest.raises(FlowError):
            max_min_allocation({"a": ["x"]}, {"a": 1.0}, {"a": 1.0}, {"l": 1.0})

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(FlowError):
            max_min_allocation({"a": ["l"]}, {"a": 0.0}, {"a": 1.0}, {"l": 1.0})

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(FlowError):
            max_min_allocation({"a": ["l"]}, {"a": 1.0}, {"a": 1.0}, {"l": 0.0})

    def test_no_flows(self):
        assert max_min_allocation({}, {}, {}, {"l": 5.0}) == {}


class TestKernelEquivalence:
    """The numpy kernel equals the scalar reference loop, bit for bit."""

    def _random_case(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        n_links = int(rng.integers(2, 9))
        links = [f"l{i}" for i in range(n_links)]
        capacities = {
            lid: float(np.round(rng.uniform(0.5, 40.0), 3)) for lid in links
        }
        n_flows = int(rng.integers(1, 13))
        flow_paths, demands, weights = {}, {}, {}
        for f in range(n_flows):
            length = int(rng.integers(1, n_links + 1))
            path = [links[int(i)] for i in
                    rng.choice(n_links, size=length, replace=False)]
            fid = f"f{f}"
            flow_paths[fid] = path
            demands[fid] = float(np.round(rng.uniform(0.1, 25.0), 3))
            weights[fid] = float(np.round(rng.uniform(0.2, 5.0), 3))
        return flow_paths, demands, weights, capacities

    @pytest.mark.parametrize("seed", range(60))
    def test_vector_matches_scalar_exactly(self, seed):
        flow_paths, demands, weights, capacities = self._random_case(seed)
        scalar = reference_max_min_allocation(
            flow_paths, demands, weights, capacities
        )
        vector = max_min_allocation(flow_paths, demands, weights, capacities)
        assert vector == scalar  # exact float equality, not approx
