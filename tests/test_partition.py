"""Exact decomposition search: kappa maximization and minimum s-cut."""

from fractions import Fraction

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
    """Exact cut weight, summed as fractions."""
    assign = dec.assignment
    return sum((Fraction(w) for i, j, w in graph.edges()
                if assign[i] != assign[j]), Fraction(0))


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
        cons = ConstraintSet(leaders=(0, 3))
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
        # the search certifies this instance at its 130th node
        res = max_kappa(PartitionProblem(graph, 3, node_budget=100))
        assert not res.optimal
        assert res.value == 15.0

    def test_node_savings(self):
        # the two-part kappa bound and twin pruning certify this N=16
        # instance in 8,469 nodes; the bound alone took 16,669, and counting
        # every zero-weight pair with an unassigned endpoint took 257,039
        graph = sim.clique_path_graph(4, 4)
        res = max_kappa(PartitionProblem(graph, 4))
        assert res.value == 64.0
        assert res.optimal
        assert res.nodes <= 8_500

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
           kind=st.sampled_from(["none", "connected", "leaders"]))
    def test_first_brute_force_maximizer(self, seed, n, s, p, path, kind):
        rng = np.random.default_rng(seed)
        s = min(s, n)
        edges = [(i, j, float(rng.integers(1, 4)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p or (path and j == i + 1)]
        graph = CostGraph.from_edges(n, edges)
        cons = {
            "none": ConstraintSet(),
            "connected": ConstraintSet(require_connected=True),
            "leaders": ConstraintSet(
                leaders=tuple(int(u) for u in np.flatnonzero(rng.random(n) < 0.6)),
                require_connected=True),
        }[kind]
        decs = list(enumerate_partitions(n, s, constraints=cons, graph=graph))
        if not decs:
            with pytest.raises(Infeasible):
                max_kappa(PartitionProblem(graph, s, constraints=cons))
            return
        problem = PartitionProblem(graph, s, constraints=cons)
        values = [kappa(graph, dec) for dec in decs]
        best = max(values)
        res = max_kappa(problem)
        assert res.optimal
        assert res.value == best
        # restricted-growth order is lexicographic order of assignments
        assert res.dec == decs[values.index(best)]


def planted_twin_graph(rng, n_max, p):
    """Random graph whose agents come in planted twin classes.

    Each base agent gets up to two clones with its weight row; clones of one
    agent are coupled to each other with weight 0 or w.  Agents are then
    shuffled so that twins are not consecutive.
    """
    sizes = []
    while sum(sizes) < n_max:
        sizes.append(int(rng.integers(1, min(3, n_max - sum(sizes)) + 1)))
    k = len(sizes)
    base = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if rng.random() < p or j == i + 1:
                base[i, j] = base[j, i] = rng.uniform(0.1, 3.0)
    inner = [rng.uniform(0.1, 3.0) if rng.random() < 0.5 else 0.0
             for _ in range(k)]
    cls = [i for i, size in enumerate(sizes) for _ in range(size)]
    cls = [cls[u] for u in rng.permutation(len(cls))]
    n = len(cls)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            w = inner[cls[u]] if cls[u] == cls[v] else base[cls[u], cls[v]]
            if w > 0.0:
                edges.append((u, v, float(w)))
    return CostGraph.from_edges(n, edges)


class TestTwinPruning:
    """Branching only on twin-sorted partitions keeps the first optimum."""

    def test_clique_path_twin_classes(self):
        graph = sim.clique_path_graph(4, 4)
        prev = partition._prev_twins(partition._weight_matrix(graph),
                                     [False] * 16)
        classes = {}
        for u, v in enumerate(prev):
            classes[u] = classes[v] if v >= 0 else {u}
            classes[u].add(u)
        twins = sorted({tuple(sorted(c)) for c in classes.values() if len(c) > 1})
        assert twins == [(0, 1, 2), (5, 6), (9, 10), (13, 14, 15)]

    def test_leader_flag_splits_class(self):
        graph = sim.clique_path_graph(1, 4)
        prev = partition._prev_twins(partition._weight_matrix(graph),
                                     [False, True, False, True])
        assert prev == [-1, -1, 0, 1]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 9),
           s=st.integers(1, 4), p=st.floats(0.0, 0.7),
           kind=st.sampled_from(["none", "connected", "leaders"]))
    def test_first_brute_force_optimum(self, seed, n, s, p, kind):
        rng = np.random.default_rng(seed)
        s = min(s, n)
        graph = planted_twin_graph(rng, n, p)
        cons = {
            "none": ConstraintSet(),
            "connected": ConstraintSet(require_connected=True),
            "leaders": ConstraintSet(
                leaders=tuple(int(u) for u in np.flatnonzero(rng.random(n) < 0.6)),
                require_connected=True),
        }[kind]
        decs = list(enumerate_partitions(n, s, constraints=cons, graph=graph))
        if not decs:
            with pytest.raises(Infeasible):
                max_kappa(PartitionProblem(graph, s, constraints=cons))
            with pytest.raises(Infeasible):
                min_scut(PartitionProblem(graph, s, constraints=cons))
            return
        problem = PartitionProblem(graph, s, constraints=cons)
        kappas = [kappa(graph, dec) for dec in decs]
        res = max_kappa(problem)
        assert res.optimal
        assert res.value == max(kappas)
        assert res.dec == decs[kappas.index(max(kappas))]
        cuts = [cut_weight(graph, dec) for dec in decs]
        res = min_scut(problem)
        assert res.optimal
        assert res.value == float(min(cuts))
        assert res.dec == decs[cuts.index(min(cuts))]


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
        # the cut bound and twin pruning fix the search exactly
        graph = sim.clique_path_graph(3, 3)
        assert min_scut(PartitionProblem(graph, 3)).nodes == 89

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
    def test_leader_and_connectivity(self):
        scn = sim.default_formation()
        graph = scn.formation_graph
        cons = ConstraintSet(leaders=(0, 7, 11), require_connected=True)
        res = max_kappa(PartitionProblem(graph, 3, constraints=cons))
        assert res.optimal
        for members in res.dec.clusters():
            assert any(u in (0, 7, 11) for u in members)
            assert graph.connected(members)

    def test_too_few_leaders(self):
        graph = sim.clique_path_graph(2, 2)
        cons = ConstraintSet(leaders=(0,))
        with pytest.raises(Infeasible):
            max_kappa(PartitionProblem(graph, 2, constraints=cons))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9),
           s=st.integers(1, 3))
    def test_leader_order_and_repeats_ignored(self, seed, n, s):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, n, p=0.3)
        leaders = sorted(int(u) for u in rng.choice(n, size=max(s, n // 2),
                                                    replace=False))
        shuffled = [leaders[i] for i in rng.permutation(len(leaders))]
        messy = tuple(shuffled + shuffled[:2])
        for cons in ({"require_connected": False}, {"require_connected": True}):
            results = []
            for ids in (tuple(leaders), messy):
                problem = PartitionProblem(
                    graph, s, constraints=ConstraintSet(leaders=ids, **cons))
                try:
                    results.append((max_kappa(problem), min_scut(problem)))
                except Infeasible as exc:
                    results.append(str(exc))
            assert results[0] == results[1]

    @pytest.mark.parametrize("leaders", [
        (0, 7, 12), (-1, 7, 11), (0, 7.0, 11), (0, "7", 11), (0, 7.5, 11),
    ])
    def test_bad_leader_ids_rejected(self, leaders):
        graph = sim.default_formation().formation_graph
        with pytest.raises(Infeasible, match="leader ids"):
            PartitionProblem(graph, 3, constraints=ConstraintSet(leaders=leaders))
        assert PartitionProblem(
            graph, 3, constraints=ConstraintSet(leaders=np.array([0, 7, 11]).tolist()))

    def test_repeated_leaders_count_once(self):
        graph = sim.default_formation().formation_graph
        with pytest.raises(Infeasible, match="3 clusters but only 2 leaders"):
            PartitionProblem(graph, 3, constraints=ConstraintSet(leaders=(0, 7, 7, 0)))

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
