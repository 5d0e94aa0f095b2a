from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqnet.model import Network
from lqnet.structure import architecture_distance, classify, is_nested_split, stats
from lqnet.verifier import graph_atlas

from helpers import oracle_link_distance, oracle_nested_split


def random_network(rng, n, p=0.4):
    m = np.triu(rng.random((n, n)) < p, 1)
    return Network(m | m.T)


def brute_core_periphery(net, min_core=0):
    """Independent exhaustive search: core clique, periphery independent,
    all core-periphery pairs linked."""
    adj = net.adjacency
    n = net.n
    found = []
    for bits in range(1 << n):
        core = [v for v in range(n) if (bits >> v) & 1]
        peri = [v for v in range(n) if not (bits >> v) & 1]
        if len(core) < min_core:
            continue
        if any(not adj[u, v] for u, v in combinations(core, 2)):
            continue
        if any(adj[u, v] for u, v in combinations(peri, 2)):
            continue
        if any(not adj[u, v] for u in core for v in peri):
            continue
        found.append((set(core), set(peri)))
    return found


class TestNestedSplit:
    def test_complete(self):
        for n in (2, 5, 9):
            assert is_nested_split(Network.complete(n))

    def test_star(self):
        assert is_nested_split(Network.star(5))

    def test_four_cycle(self):
        cycle = Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_nested_split(cycle)

    def test_empty(self):
        assert is_nested_split(Network.empty(6))

    def test_implementations_agree_on_five_node_atlas(self):
        atlas = graph_atlas(5)
        assert len(atlas) == 34
        for net in atlas:
            assert is_nested_split(net) == oracle_nested_split(net.adjacency)

    def test_implementations_agree_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            net = random_network(rng, n, p=float(rng.uniform(0.1, 0.9)))
            assert is_nested_split(net) == oracle_nested_split(net.adjacency)


class TestClassify:
    def test_empty(self):
        label = classify(Network.empty(9))
        assert label.label == "Empty"
        assert label.core == frozenset()
        assert label.periphery == frozenset(range(9))

    def test_complete(self):
        label = classify(Network.complete(5))
        assert label.label == "Complete"
        assert label.core == frozenset(range(5))

    def test_star(self):
        label = classify(Network.star(5, center=0))
        assert label.label == "Star"
        assert label.core == frozenset({0})
        assert label.periphery == frozenset({1, 2, 3, 4})

    def test_star_implies_nested_split(self):
        for n in (3, 5, 9):
            for center in range(n):
                net = Network.star(n, center=center)
                assert classify(net).label == "Star"
                assert is_nested_split(net)

    def test_path4_non_nested_no_sizeable_core(self):
        path = Network.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        label = classify(path)
        assert label.label == "NonNestedSplit"
        assert brute_core_periphery(path, min_core=2) == []
        assert label.core is None or len(label.core) < 2

    @staticmethod
    def assert_partition_matches_bruteforce(net):
        label = classify(net)
        brute = brute_core_periphery(net)
        if label.core is None:
            assert brute == []
        else:
            assert (set(label.core), set(label.periphery)) in brute
            assert len(label.core) == max(len(c) for c, _ in brute)

    def test_partition_matches_bruteforce_on_every_labelled_graph(self):
        for n in range(2, 6):
            pairs = list(combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = [pair for k, pair in enumerate(pairs) if (bits >> k) & 1]
                self.assert_partition_matches_bruteforce(Network.from_edges(n, edges))

    def test_partition_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(6, 13))
            net = random_network(rng, n, p=float(rng.uniform(0.2, 0.8)))
            self.assert_partition_matches_bruteforce(net)
        # complete split graphs, and the same with one pair's link status flipped
        for _ in range(40):
            n = int(rng.integers(6, 13))
            core = int(rng.integers(0, n + 1))
            adj = np.zeros((n, n), dtype=bool)
            adj[:core] = adj[:, :core] = True
            np.fill_diagonal(adj, False)
            self.assert_partition_matches_bruteforce(Network(adj))
            i, j = rng.choice(n, 2, replace=False)
            adj[i, j] = adj[j, i] = not adj[i, j]
            self.assert_partition_matches_bruteforce(Network(adj))

    def test_other_nested_split(self):
        net = Network.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        assert classify(net).label == "OtherNestedSplit"


class TestStats:
    def test_complete_n9(self):
        st_ = stats(Network.complete(9))
        assert st_.link_count == 36
        assert st_.link_fraction == 1.0
        assert st_.avg_degree == 8.0
        assert st_.min_degree == 8 and st_.max_degree == 8
        assert st_.clustering == 1.0

    def test_star_n5_hand_count(self):
        st_ = stats(Network.star(5))
        assert st_.link_count == 4
        assert st_.link_fraction == pytest.approx(0.4)
        assert st_.avg_degree == pytest.approx(1.6)
        assert st_.min_degree == 1 and st_.max_degree == 4
        assert st_.clustering == 0.0

    def test_empty_all_zero(self):
        st_ = stats(Network.empty(6))
        assert st_.link_count == 0
        assert st_.link_fraction == 0.0
        assert st_.avg_degree == 0.0
        assert st_.clustering == 0.0

    def test_trees_have_zero_clustering(self):
        path = Network.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        assert stats(path).clustering == 0.0
        assert stats(Network.star(7)).clustering == 0.0

    def test_triangle_plus_pendant(self):
        net = Network.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        # nodes 0,1 fully clustered; node 2 has 1 of 3 neighbor pairs; node 3 degree 1
        assert stats(net).clustering == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


class TestLinkDistance:
    def test_identical(self):
        net = Network.star(5)
        assert oracle_link_distance(net, net) == 0

    def test_one_edge_removed(self):
        full = Network.complete(5)
        minus = Network.from_edges(5, [e for e in full.edges() if e != (0, 1)])
        assert oracle_link_distance(full, minus) == 1

    def test_empty_vs_star(self):
        assert oracle_link_distance(Network.empty(5), Network.star(5)) == 4

    @given(st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=200, deadline=None)
    def test_metric_on_random_triples(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_network(rng, 6) for _ in range(3))
        dab, dbc, dac = oracle_link_distance(a, b), oracle_link_distance(b, c), oracle_link_distance(a, c)
        assert dab >= 0 and dab == oracle_link_distance(b, a)
        assert dac <= dab + dbc
        assert (dab == 0) == np.array_equal(a.adjacency, b.adjacency)


class TestArchitectureDistance:
    def test_matches_link_distance_to_nearest_named_network(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            net = random_network(rng, n, p=float(rng.uniform(0.1, 0.9)))
            assert architecture_distance(net, "Empty") == oracle_link_distance(net, Network.empty(n))
            assert architecture_distance(net, "Complete") == oracle_link_distance(
                net, Network.complete(n)
            )
            assert architecture_distance(net, "Star") == min(
                oracle_link_distance(net, Network.star(n, center=c)) for c in range(n)
            )

    def test_star_uses_best_center(self):
        assert architecture_distance(Network.star(5, center=3), "Star") == 0

    def test_complete_and_empty(self):
        assert architecture_distance(Network.empty(5), "Complete") == 10
        assert architecture_distance(Network.complete(5), "Empty") == 10
