"""Exact decomposition search: kappa maximization and minimum s-cut."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlqr import graphcost, partition, sim
from hlqr.errors import Infeasible
from hlqr.graphcost import CostGraph, Decomposition, kappa, split_graph
from hlqr.partition import ConstraintSet, PartitionProblem, max_kappa, min_scut
from oracles import enumerate_partitions


def random_graph(rng, n, p=0.4):
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return CostGraph.from_edges(n, sorted(edges))


def random_tree(rng, n):
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return CostGraph.from_edges(n, edges)


def cut_weight(graph, dec):
    assign = dec.assignment
    return sum(w for i, j, w in graph.edges() if assign[i] != assign[j])


class TestEnumeration:
    def test_partition_counts(self):
        # Stirling numbers of the second kind
        assert sum(1 for _ in enumerate_partitions(3, 2)) == 3
        assert sum(1 for _ in enumerate_partitions(4, 2)) == 7
        assert sum(1 for _ in enumerate_partitions(5, 3)) == 25

    def test_each_partition_once(self):
        seen = set()
        for dec in enumerate_partitions(5, 3):
            key = dec.assignment
            assert key not in seen
            seen.add(key)
            assert dec.s == 3
            assert all(size >= 1 for size in dec.sizes())

    def test_out_of_range_s(self):
        assert list(enumerate_partitions(3, 4)) == []

    def test_leader_filter(self):
        cons = ConstraintSet(leader_indicator=(1, 0, 0, 1), require_leader=True)
        decs = list(enumerate_partitions(4, 2, constraints=cons))
        assert decs
        for dec in decs:
            for members in dec.clusters():
                assert 0 in members or 3 in members


class TestMaxKappa:
    def test_clique_path_optimum(self):
        graph = sim.clique_path_graph(3, 3)
        res = max_kappa(PartitionProblem(graph, 3))
        assert res.value == 15.0
        assert res.optimal
        assert kappa(graph, res.dec) == 15
        # deterministic lexicographic tie-break among optima
        assert res.dec.assignment == (0, 0, 0, 0, 0, 1, 2, 2, 2)

    def test_three_path_bipartitions(self):
        # every bipartition of a 3-path leaves its two clusters coupled
        graph = CostGraph.from_edges(3, [(0, 1), (1, 2)])
        best = max(kappa(graph, dec) for dec in enumerate_partitions(3, 2))
        res = max_kappa(PartitionProblem(graph, 2))
        assert res.value == best == 0.0
        assert res.dec.assignment == (0, 0, 1)

    def test_single_cluster(self):
        graph = sim.clique_path_graph(2, 2)
        res = max_kappa(PartitionProblem(graph, 1))
        assert res.value == 0.0
        assert res.dec.s == 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(53)
        for _ in range(12):
            n = int(rng.integers(4, 9))
            s = int(rng.integers(2, 4))
            graph = random_graph(rng, n)
            best = max(kappa(graph, dec) for dec in enumerate_partitions(n, s))
            res = max_kappa(PartitionProblem(graph, s))
            assert res.value == best
            assert res.optimal

    def test_nondecreasing_in_cluster_count(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            n = int(rng.integers(5, 9))
            graph = random_graph(rng, n, p=0.3)
            values = [max_kappa(PartitionProblem(graph, s)).value
                      for s in range(1, n + 1)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_budget_exhaustion(self):
        graph = sim.clique_path_graph(3, 3)
        with pytest.raises(Infeasible):
            max_kappa(PartitionProblem(graph, 3, node_budget=5))
        # the search certifies this instance at its 136th node
        res = max_kappa(PartitionProblem(graph, 3, node_budget=100))
        assert not res.optimal
        assert res.value == 15.0

    def test_node_savings(self):
        # the two-part kappa bound certifies this N=16 instance in 16,669
        # nodes; counting every zero-weight pair with an unassigned endpoint
        # took 257,039
        graph = sim.clique_path_graph(4, 4)
        res = max_kappa(PartitionProblem(graph, 4))
        assert res.value == 64.0
        assert res.optimal
        assert res.nodes <= 50_000

    @pytest.mark.parametrize("s, c, best", [(4, 5, 105), (5, 4, 120)])
    def test_twenty_agents_certified(self, s, c, best):
        graph = sim.clique_path_graph(s, c)
        res = max_kappa(PartitionProblem(graph, s))
        assert res.optimal
        assert res.value == kappa(graph, res.dec) == best


class TestMaxKappaProperty:
    """max_kappa is the first maximizer of kappa in enumeration order."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           s=st.integers(1, 4), p=st.floats(0.0, 0.7), path=st.booleans(),
           kind=st.sampled_from(["none", "neighbor", "connected", "leaders"]))
    def test_first_brute_force_maximizer(self, seed, n, s, p, path, kind):
        rng = np.random.default_rng(seed)
        s = min(s, n)
        edges = [(i, j, float(rng.integers(1, 4)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p or (path and j == i + 1)]
        graph = CostGraph.from_edges(n, edges)
        cons = {
            "none": ConstraintSet(),
            "neighbor": ConstraintSet(require_neighbor=True),
            "connected": ConstraintSet(require_connected=True),
            "leaders": ConstraintSet(
                leader_indicator=tuple(int(x) for x in rng.random(n) < 0.6),
                require_leader=True, require_connected=True),
        }[kind]
        problem = PartitionProblem(graph, s, constraints=cons)
        decs = list(enumerate_partitions(n, s, constraints=cons, graph=graph))
        if not decs:
            with pytest.raises(Infeasible):
                max_kappa(problem)
            return
        values = [kappa(graph, dec) for dec in decs]
        best = max(values)
        res = max_kappa(problem)
        assert res.optimal
        assert res.value == best
        # restricted-growth order is lexicographic order of assignments
        assert res.dec == decs[values.index(best)]


class TestMinScut:
    def test_clique_path_cliques_optimal(self):
        graph = sim.clique_path_graph(3, 3)
        res = min_scut(PartitionProblem(graph, 3))
        assert res.value == 2.0
        assert res.optimal
        assert res.dec == sim.clique_decomposition(3, 3)
        parts = split_graph(graph, res.dec)
        assert np.trace(parts.g2) == pytest.approx(4.0)

    def test_node_count(self):
        # the cut bound is unchanged, and so is the search it prunes
        graph = sim.clique_path_graph(3, 3)
        assert min_scut(PartitionProblem(graph, 3)).nodes == 100

    def test_triangle_forced_singletons(self):
        graph = CostGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        res = min_scut(PartitionProblem(graph, 3))
        assert res.value == 3.0
        assert res.dec.sizes() == [1, 1, 1]

    def test_tree_matches_brute_force(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            graph = random_tree(rng, 8)
            best = min(cut_weight(graph, dec)
                       for dec in enumerate_partitions(8, 2))
            res = min_scut(PartitionProblem(graph, 2))
            assert res.value == best
            assert res.optimal

    def test_weighted_matches_brute_force(self):
        rng = np.random.default_rng(67)
        for _ in range(8):
            n = int(rng.integers(4, 8))
            edges = [(i, j, float(rng.integers(1, 5)))
                     for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.6 or j == i + 1]
            graph = CostGraph.from_edges(n, edges)
            best = min(cut_weight(graph, dec)
                       for dec in enumerate_partitions(n, 3))
            res = min_scut(PartitionProblem(graph, 3))
            assert res.value == pytest.approx(best)


class TestConstraints:
    def leaders(self):
        xi = [0] * 12
        for u in (0, 7, 11):
            xi[u] = 1
        return tuple(xi)

    def test_leader_and_connectivity(self):
        scn = sim.default_formation()
        graph = scn.formation_graph
        cons = ConstraintSet(leader_indicator=self.leaders(),
                             require_leader=True, require_connected=True)
        res = max_kappa(PartitionProblem(graph, 3, constraints=cons))
        assert res.optimal
        for members in res.dec.clusters():
            assert any(u in (0, 7, 11) for u in members)
            assert graph.connected(members)

    def test_too_few_leaders(self):
        graph = sim.clique_path_graph(2, 2)
        cons = ConstraintSet(leader_indicator=(1, 0, 0, 0), require_leader=True)
        with pytest.raises(Infeasible):
            max_kappa(PartitionProblem(graph, 2, constraints=cons))

    def test_missing_indicator(self):
        graph = sim.clique_path_graph(2, 2)
        cons = ConstraintSet(require_leader=True)
        with pytest.raises(Infeasible):
            max_kappa(PartitionProblem(graph, 2, constraints=cons))

    def test_neighbor_constraint_sound(self):
        rng = np.random.default_rng(71)
        graph = random_graph(rng, 7, p=0.3)
        cons = ConstraintSet(require_neighbor=True)
        res = max_kappa(PartitionProblem(graph, 3, constraints=cons))
        w = np.abs(graph.laplacian)
        for members in res.dec.clusters():
            for u in members:
                if len(members) > 1:
                    assert any(w[u, v] > 0 for v in members if v != u)

    def test_connected_constraint_sound(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            graph = random_graph(rng, 7, p=0.3)
            cons = ConstraintSet(require_connected=True)
            res = min_scut(PartitionProblem(graph, 3, constraints=cons))
            for members in res.dec.clusters():
                assert graph.connected(members)

    def test_problem_validation(self):
        graph = sim.clique_path_graph(2, 2)
        with pytest.raises(Infeasible):
            PartitionProblem(graph, 0)
        with pytest.raises(Infeasible):
            PartitionProblem(graph, 5)
