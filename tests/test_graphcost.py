"""Coupling graphs, the intra/inter-cluster split, and communication metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlqr import graphcost, sim
from hlqr.errors import DimensionMismatch, InvalidDecomposition, NotALaplacian
from hlqr.graphcost import (
    CostGraph,
    CostSpec,
    Decomposition,
    assemble_q,
    check_assumptions,
    cluster_adjacency,
    cluster_costs,
    comm_links,
    kappa,
    split_graph,
)
from hlqr.partition import PartitionProblem, max_kappa
from oracles import (
    bfs_connected,
    comm_links_loop,
    cost_spec_checks_loop,
    dense_cluster_costs,
    neighbours,
    pbh_stabilizable,
    psd_sqrt,
)
from test_hierctrl import heterogeneous_instance, random_instance


def random_graph(rng, n, p=0.5):
    """Connected unit-weight random graph on n nodes (spanning chain + extras)."""
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return CostGraph.from_edges(n, sorted(edges))


def random_decomposition(rng, n, s):
    while True:
        assignment = rng.integers(0, s, size=n)
        if len(set(assignment.tolist())) == s:
            return Decomposition.from_assignment(assignment.tolist())


def laplacian_invariant(g):
    g = np.asarray(g)
    off = g - np.diag(np.diag(g))
    assert np.allclose(g, g.T, atol=1e-12)
    assert np.all(off <= graphcost.ADJACENCY_TOL)
    assert np.allclose(np.diag(g), np.abs(off).sum(axis=1), atol=1e-9)
    assert np.linalg.eigvalsh((g + g.T) / 2.0)[0] >= -1e-10


class TestCostGraph:
    def test_from_edges_roundtrip(self):
        g = CostGraph.from_edges(3, [(0, 1), (1, 2, 2.0)])
        assert g.edges() == [(0, 1, 1.0), (1, 2, 2.0)]
        laplacian_invariant(g.laplacian)

    def test_positive_offdiagonal_rejected(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotALaplacian):
            CostGraph(2, m)

    def test_wrong_diagonal_rejected(self):
        m = np.array([[2.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(NotALaplacian):
            CostGraph(2, m)

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, -1.0], [0.0, 0.0]])
        with pytest.raises(NotALaplacian):
            CostGraph(2, m)

    def test_bad_edges_rejected(self):
        with pytest.raises(NotALaplacian):
            CostGraph.from_edges(2, [(0, 0)])
        with pytest.raises(NotALaplacian):
            CostGraph.from_edges(2, [(0, 5)])
        with pytest.raises(NotALaplacian):
            CostGraph.from_edges(2, [(0, 1, -1.0)])

    def test_connectivity(self):
        g = CostGraph.from_edges(4, [(0, 1), (2, 3)])
        assert not g.connected()
        assert g.connected([0, 1])
        assert g.connected([2, 3])
        assert not g.connected([1, 2])

    def test_zero_graph_valid(self):
        g = CostGraph(2, np.zeros((2, 2)))
        assert g.edges() == []
        assert not g.connected()


SCALES = [10.0 ** k for k in range(-8, 9, 2)]


def weighted_graph(rng, n, scale):
    """Random connected graph on n agents, weights scale * U(0.5, 2)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.4]
    return [(i, j, scale * rng.uniform(0.5, 2.0)) for i, j in edges]


def psd_block(rng, n, scale, least=0.0):
    """scale times a symmetric n x n matrix in a random basis, eigenvalues
    U(0.5, 2) but the least, which is least."""
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.append(rng.uniform(0.5, 2.0, n - 1), least)
    return scale * (v * w) @ v.T


class TestChecksAtAnyScale:
    """CostGraph and CostSpec accept valid Laplacians and rank-deficient PSD
    weights at any scale, and reject invalid ones at any scale."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_valid_laplacians_accepted(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 8)
        for n in (2, 5, 12, 30):
            edges = weighted_graph(rng, n, scale)
            g = CostGraph.from_edges(n, edges)
            assert CostGraph(n, g.laplacian).edges() == g.edges()

    @pytest.mark.parametrize("scale", SCALES)
    def test_invalid_laplacians_rejected(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 8)
        g = CostGraph.from_edges(6, weighted_graph(rng, 6, scale)).laplacian
        w = -g[0, 1]  # the chain's edge (0, 1)
        asymmetric = g.copy()
        asymmetric[0, 1] -= 1e-3 * w
        asymmetric[0, 0] += 1e-3 * w
        positive = g.copy()
        positive[0, 1] = positive[1, 0] = w
        positive[0, 0] -= 2.0 * w
        positive[1, 1] -= 2.0 * w
        row_sum = g.copy()
        row_sum[2, 2] *= 1.0 + 1e-6
        indefinite = g.copy()
        indefinite[0, 0] = 0.0  # the 2 x 2 minor on agents 0, 1 is negative
        assert np.linalg.eigvalsh(indefinite)[0] < 0.0
        for bad, match in ((asymmetric, "not symmetric"), (positive, "positive off-diagonal"),
                           (row_sum, "row absolute sums"), (indefinite, "row absolute sums")):
            with pytest.raises(NotALaplacian, match=match):
                CostGraph(6, bad)

    @pytest.mark.parametrize("scale", SCALES)
    def test_rank_deficient_weights_accepted(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 8)
        graph = CostGraph.from_edges(3, [(0, 1), (1, 2)])
        for _ in range(50):
            n = int(rng.integers(2, 5))
            qbar = [psd_block(rng, n, scale) for _ in range(3)]
            CostSpec(graph, qbar, psd_block(rng, n, scale), [np.eye(1)] * 3)

    @pytest.mark.parametrize("scale", SCALES)
    def test_indefinite_weights_rejected(self, scale):
        rng = np.random.default_rng(int(np.log10(scale)) + 8)
        graph = CostGraph.from_edges(3, [(0, 1), (1, 2)])
        good = [psd_block(rng, 3, scale) for _ in range(3)]
        # below scale 1 the PSD tolerance is absolute, -1e-10
        bad = psd_block(rng, 3, scale, least=-1e-6 * max(1.0, 1e-3 / scale))
        with pytest.raises(NotALaplacian, match="qtilde not PSD"):
            CostSpec(graph, good, bad, [np.eye(1)] * 3)
        with pytest.raises(NotALaplacian, match="qbar block not PSD"):
            CostSpec(graph, [good[0], bad, good[2]], good[1], [np.eye(1)] * 3)


class TestCouplingRule:
    """Agents are coupled iff their Laplacian entry is nonzero, and every
    nonzero coupling weight exceeds ADJACENCY_TOL."""

    def test_sub_tolerance_edges_rejected(self):
        # accepting these made the search certify kappa 4 for 1,2|3,4 while
        # kappa() read 0 and adjacency() a disconnected graph
        with pytest.raises(NotALaplacian, match="coupling weight"):
            CostGraph.from_edges(
                4, [(0, 1, 1), (2, 3, 1), (1, 2, 6e-13), (0, 3, 6e-13)])
        with pytest.raises(NotALaplacian, match="coupling weight"):
            CostGraph.from_edges(2, [(0, 1, graphcost.ADJACENCY_TOL)])
        g = CostGraph.from_edges(2, [(0, 1, 2 * graphcost.ADJACENCY_TOL)])
        assert g.connected()

    @pytest.mark.parametrize("w", [-5e-13, 5e-13])
    def test_sub_tolerance_laplacian_rejected(self, w):
        # a coupling of magnitude |w| between agents 1 and 2, either sign
        m = np.array([[1.0, -1.0, 0.0],
                      [-1.0, 1.0 + abs(w), w],
                      [0.0, w, abs(w)]])
        with pytest.raises(NotALaplacian):
            CostGraph(3, m)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8),
           s=st.integers(1, 4), p=st.floats(0.0, 0.8))
    def test_structural_queries_read_one_pattern(self, seed, n, s, p):
        rng = np.random.default_rng(seed)
        s = min(s, n)
        weights = (1e-11, 0.25, 1.0, 3.0)
        edges = [(i, j, float(rng.choice(weights)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        graph = CostGraph.from_edges(n, edges)

        res = max_kappa(PartitionProblem(graph, s))
        assert res.value == kappa(graph, res.dec)

        for dec in (res.dec,
                    Decomposition.from_assignment(rng.integers(0, s, n).tolist())):
            g2 = split_graph(graph, dec).g2
            clusters = dec.clusters()
            adj = cluster_adjacency(graph, dec)
            for a in range(dec.s):
                for b in range(dec.s):
                    linked = a != b and np.any(
                        g2[np.ix_(clusters[a], clusters[b])] != 0.0)
                    assert adj[a, b] == linked

        nbrs = neighbours(graph)
        assert graph.connected() == bfs_connected(nbrs, range(n))
        for _ in range(5):
            nodes = np.flatnonzero(rng.random(n) < 0.5).tolist()
            assert graph.connected(nodes) == bfs_connected(nbrs, nodes)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9),
           s=st.integers(1, 5), p=st.floats(0.0, 0.8))
    def test_clusters_connected_matches_bfs(self, seed, n, s, p):
        # one component search over all clusters against a breadth-first
        # search per cluster, with weights down to 1e-11
        rng = np.random.default_rng(seed)
        weights = (1e-11, 1e-6, 0.25, 1.0, 3.0)
        edges = [(i, j, float(rng.choice(weights)))
                 for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        graph = CostGraph.from_edges(n, edges)
        nbrs = neighbours(graph)
        dec = Decomposition.from_assignment(rng.integers(0, s, n).tolist())
        got = graph.clusters_connected(dec.assignment)
        assert got.tolist() == [bfs_connected(nbrs, c) for c in dec.clusters()]


class TestDecomposition:
    def test_canonical_ids(self):
        d1 = Decomposition.from_assignment([2, 2, 0, 1])
        d2 = Decomposition.from_assignment([0, 0, 1, 2])
        assert d1 == d2
        assert d1.sizes() == [2, 1, 1]

    def test_cluster_name(self):
        d = Decomposition.from_assignment([0, 1, 1, 0])
        assert d.label() == "1,4|2,3"
        assert d.cluster_name(1) == "cluster 1 (agents 2,3)"
        assert Decomposition.from_assignment([0, 0, 1]).cluster_name(1) == "cluster 1 (agent 3)"

    def test_non_integral_ids_rejected(self):
        # an id is not truncated to an integer: 0.5 is no cluster 0
        for make in (lambda: Decomposition((0, 0.5)),
                     lambda: Decomposition.from_assignment([0, 0.5])):
            with pytest.raises(InvalidDecomposition, match="0.5 is not an integer"):
                make()
        assert Decomposition.from_assignment(np.array([0, 1, 1])).sizes() == [1, 2]

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(st.integers(-3, 40), min_size=1, max_size=25),
           seed=st.integers(0, 2**32 - 1))
    def test_cluster_count_derived(self, ids, seed):
        # s is the number of distinct ids, whatever their values and order;
        # relabelling the ids one-to-one keeps equality and the hash
        dec = Decomposition.from_assignment(ids)
        assert dec.s == len(set(ids)) == len(dec.clusters())
        assert sorted(u for c in dec.clusters() for u in c) == list(range(len(ids)))
        labels = sorted(set(ids))
        perm = np.random.default_rng(seed).permutation(100)[:len(labels)]
        relabel = dict(zip(labels, perm.tolist()))
        other = Decomposition.from_assignment(relabel[v] for v in ids)
        assert other == dec and hash(other) == hash(dec)
        assert other.s == dec.s

    def test_index_slices(self):
        d = Decomposition.from_assignment([0, 1, 0])
        assert d.state_indices(0, 2).tolist() == [0, 1, 4, 5]
        assert d.state_indices(1, 3).tolist() == [3, 4, 5]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 8),
           s=st.integers(1, 4), rows=st.integers(1, 3), cols=st.integers(1, 3))
    def test_scatter_places_blocks_in_agent_order(self, seed, n_agents, s,
                                                  rows, cols):
        # assignments drawn at random are mostly non-contiguous
        rng = np.random.default_rng(seed)
        dec = Decomposition.from_assignment(rng.integers(0, s, n_agents).tolist())
        blocks = [rng.normal(size=(rows * size, cols * size)) for size in dec.sizes()]
        want = np.zeros((rows * n_agents, cols * n_agents))
        for j, members in enumerate(dec.clusters()):
            six = np.concatenate([np.arange(u * rows, (u + 1) * rows) for u in members])
            iix = np.concatenate([np.arange(u * cols, (u + 1) * cols) for u in members])
            assert dec.state_indices(j, rows).tolist() == six.tolist()
            assert dec.state_indices(j, cols).tolist() == iix.tolist()
            for a, row in enumerate(six):
                for b, col in enumerate(iix):
                    want[row, col] = blocks[j][a, b]
        got = dec.scatter(blocks, rows, cols)
        assert got.tobytes() == want.tobytes()


class TestSplitGraph:
    def test_five_node_cut(self):
        _, spec = sim.five_node_scenario()
        dec = Decomposition.from_assignment([0, 0, 1, 2, 2])
        parts = split_graph(spec.graph, dec)
        assert np.trace(parts.g2) == pytest.approx(6.0)
        assert kappa(spec.graph, dec) == 2

    def test_five_node_all_adjacent(self):
        _, spec = sim.five_node_scenario()
        dec = Decomposition.from_assignment([0, 1, 1, 2, 2])
        assert kappa(spec.graph, dec) == 0
        parts = split_graph(spec.graph, dec)
        assert np.trace(parts.g2) == pytest.approx(6.0)

    def test_single_cluster_trivial(self):
        _, spec = sim.five_node_scenario()
        dec = Decomposition.from_assignment([0] * 5)
        parts = split_graph(spec.graph, dec)
        assert np.allclose(parts.g2, 0.0)
        assert np.allclose(parts.g1, spec.graph.laplacian)
        assert kappa(spec.graph, dec) == 0

    def test_clique_path_rows(self):
        graph = sim.clique_path_graph(3, 3)
        cases = [
            ([0, 0, 1, 1, 1, 1, 1, 2, 2], 4, 8.0),
            ([0, 0, 0, 1, 1, 1, 2, 2, 2], 9, 4.0),
            ([0, 0, 0, 1, 2, 2, 2, 2, 2], 15, 6.0),
        ]
        for assignment, want_kappa, want_tr in cases:
            dec = Decomposition.from_assignment(assignment)
            assert kappa(graph, dec) == want_kappa
            parts = split_graph(graph, dec)
            assert np.trace(parts.g2) == pytest.approx(want_tr)

    def test_exact_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            graph = random_graph(rng, n)
            dec = random_decomposition(rng, n, int(rng.integers(2, min(n, 5))))
            parts = split_graph(graph, dec)
            assert np.array_equal(parts.g1 + parts.g2, graph.laplacian)
            laplacian_invariant(parts.g1)
            laplacian_invariant(parts.g2)

    def test_trace_counts_cut_edges_twice(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            graph = random_graph(rng, n)
            dec = random_decomposition(rng, n, 3)
            parts = split_graph(graph, dec)
            assign = dec.assignment
            cut = sum(1 for i, j, _ in graph.edges() if assign[i] != assign[j])
            assert np.trace(parts.g2) == pytest.approx(2.0 * cut)

    def test_wrong_size_rejected(self):
        _, spec = sim.five_node_scenario()
        with pytest.raises(InvalidDecomposition):
            split_graph(spec.graph, Decomposition.from_assignment([0, 1, 0]))


class TestKappa:
    def test_relabel_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = 8
            graph = random_graph(rng, n)
            dec = random_decomposition(rng, n, 3)
            base = kappa(graph, dec)
            # permute cluster ids
            perm = rng.permutation(dec.s)
            relabeled = Decomposition.from_assignment(
                [int(perm[c]) for c in dec.assignment])
            assert kappa(graph, relabeled) == base
            # permute agents and conjugate the graph accordingly
            p = rng.permutation(n)
            lap = graph.laplacian[np.ix_(p, p)]
            permuted_graph = CostGraph(n, lap)
            permuted_dec = Decomposition.from_assignment(
                [dec.assignment[u] for u in p])
            assert kappa(permuted_graph, permuted_dec) == base

    def test_singletons_count_zero_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            graph = random_graph(rng, n)
            dec = Decomposition.from_assignment(list(range(n)))
            off = graph.laplacian[np.triu_indices(n, 1)]
            zero_pairs = int(np.sum(np.abs(off) <= graphcost.ADJACENCY_TOL))
            assert kappa(graph, dec) == zero_pairs


class TestCommLinks:
    def test_block_diagonal_gain(self):
        k = np.zeros((6, 12))
        k[0:2, 0:4] = 1.0
        k[2:4, 4:8] = 1.0
        k[4:6, 8:12] = 1.0
        edges, n_c = comm_links(k, 4, 2)
        assert edges == []
        assert n_c == 0

    def test_dense_gain(self):
        edges, n_c = comm_links(np.ones((18, 36)), 4, 2)
        assert n_c == 36

    def test_single_cross_block(self):
        k = np.zeros((4, 8))
        k[0, 7] = 1.0
        edges, n_c = comm_links(k, 4, 2)
        assert edges == [(0, 1)]
        assert n_c == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 9),
           n=st.integers(1, 3), m=st.integers(1, 3))
    def test_matches_pair_loop(self, seed, n_agents, n, m):
        # exact-zero blocks, and entries on either side of the 1e-8 cutoff
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((n_agents * m, n_agents * n))
        blocks = k.reshape(n_agents, m, n_agents, n).transpose(0, 2, 1, 3)
        blocks[rng.random((n_agents, n_agents)) < 0.5] = 0.0
        k[0, 0] = 1e3
        tol = 1e-8 * np.abs(k).max()
        for _ in range(int(rng.integers(0, 4))):
            i, j = rng.integers(0, n_agents, 2)
            blocks[i, j] = 0.0
            blocks[i, j, rng.integers(0, m), rng.integers(0, n)] = (
                tol * rng.choice([-0.5, 1.0, 1.0 + 1e-9, -2.0]))
        assert comm_links(k, n, m) == comm_links_loop(k, n, m)

    def test_shape_guard(self):
        with pytest.raises(DimensionMismatch):
            comm_links(np.ones((5, 8)), 4, 2)
        with pytest.raises(DimensionMismatch):
            comm_links(np.ones((4, 12)), 4, 2)


def spec_block(rng, size, least):
    """A size x size block in a random basis (exactly diagonal when least is
    0) whose least eigenvalue is least, nonsymmetric in one draw of four;
    now and then of the wrong shape."""
    if rng.random() < 0.05:
        return np.eye(size + 1)
    w = np.append(rng.uniform(0.5, 2.0, size - 1), least)
    if least == 0.0:
        return np.diag(rng.permutation(w))
    v, _ = np.linalg.qr(rng.normal(size=(size, size)))
    blk = (v * w) @ v.T
    if rng.random() < 0.25:
        skew = rng.normal(size=(size, size))
        blk = blk + (skew - skew.T)
    return blk


class TestCostSpecChecks:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_agents=st.integers(1, 5),
           n=st.integers(1, 3), m=st.integers(1, 2))
    def test_batched_checks_match_block_loop(self, seed, n_agents, n, m):
        # the first failing check, its error type and its message, as the
        # one-block-at-a-time loop finds them: a least eigenvalue down to
        # PSD_TOL max(1, the largest), -1e-10 to -2e-10 here, passes as PSD,
        # so -1e-11 passes and -1e-9 does not; 0 is not PD
        rng = np.random.default_rng(seed)
        levels = [0.3, 0.3, 0.3, -1e-11, -1e-9, 0.0]
        qbar = [spec_block(rng, n, rng.choice(levels)) for _ in range(n_agents)]
        r = [spec_block(rng, m, rng.choice([0.3, 0.3, 0.3, 1e-300, 0.0]))
             for _ in range(n_agents)]
        qtilde = np.eye(n) if rng.random() < 0.9 else -np.eye(n)
        graph = CostGraph.from_edges(n_agents, [])
        try:
            cost_spec_checks_loop(qbar, qtilde, r)
            want = None
        except (DimensionMismatch, NotALaplacian) as exc:
            want = (type(exc), str(exc))
        try:
            CostSpec(graph, qbar, qtilde, r)
            got = None
        except (DimensionMismatch, NotALaplacian) as exc:
            got = (type(exc), str(exc))
        assert got == want


class TestCostAssembly:
    def test_edgeless_graph(self):
        graph = CostGraph(2, np.zeros((2, 2)))
        spec = CostSpec.homogeneous(graph, 0.5 * np.eye(3), np.eye(3), np.eye(1))
        assert np.allclose(assemble_q(spec), 0.5 * np.eye(6))

    def test_uniform_penalties(self):
        _, spec = sim.clique_path_scenario(3, 3)
        q = assemble_q(spec)
        lap = spec.graph.laplacian
        assert np.allclose(q, np.kron(lap, np.eye(4)) + 0.5 * np.eye(36))

    def test_singleton_clusters_strip_coupling(self):
        _, spec = sim.five_node_scenario()
        dec = Decomposition.from_assignment(list(range(5)))
        parts = split_graph(spec.graph, dec)
        assert np.allclose(parts.g1, 0.0)
        qhat = spec.qbar + np.kron(parts.g1, spec.qtilde)
        assert np.allclose(qhat, spec.qbar)

    def test_split_cost_identity(self):
        _, spec = sim.clique_path_scenario(3, 3)
        dec = sim.clique_decomposition(3, 3)
        parts = split_graph(spec.graph, dec)
        q = assemble_q(spec)
        qhat = spec.qbar + np.kron(parts.g1, spec.qtilde)
        assert np.allclose(q, qhat + np.kron(parts.g2, spec.qtilde), atol=1e-12)

    def test_decomposed_cost_never_exceeds_full(self):
        rng = np.random.default_rng(47)
        _, spec = sim.clique_path_scenario(3, 3)
        q = assemble_q(spec)
        for _ in range(10):
            dec = random_decomposition(rng, 9, 3)
            parts = split_graph(spec.graph, dec)
            qhat = spec.qbar + np.kron(parts.g1, spec.qtilde)
            diff = np.linalg.eigvalsh((q - qhat + (q - qhat).T) / 2.0)
            assert diff[0] >= -1e-10

    def test_cluster_blocks_match_full(self):
        _, spec = sim.clique_path_scenario(3, 3)
        dec = sim.clique_decomposition(3, 3)
        parts = split_graph(spec.graph, dec)
        qhat = spec.qbar + np.kron(parts.g1, spec.qtilde)
        for j, (qj, rj) in enumerate(cluster_costs(spec, dec)):
            six = dec.state_indices(j, spec.n)
            iix = dec.state_indices(j, spec.m)
            assert np.allclose(qj, qhat[np.ix_(six, six)], atol=1e-12)
            assert np.allclose(rj, spec.r[np.ix_(iix, iix)], atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cluster_costs_match_dense_slices(self, seed):
        # bit-equal to the blocks sliced out of the whole Qhat, for the
        # instance's decomposition and for a non-contiguous one
        _, spec, dec = heterogeneous_instance(seed)
        n_agents = dec.n_agents
        for d in (dec, Decomposition.from_assignment(
                [u % 2 for u in reversed(range(n_agents))])):
            got = cluster_costs(spec, d)
            want = dense_cluster_costs(spec, d)
            assert len(got) == len(want) == d.s
            for (qj, rj), (qw, rw) in zip(got, want):
                assert qj.tobytes() == qw.tobytes()
                assert rj.tobytes() == rw.tobytes()


class TestAssumptionChecks:
    def test_standard_scenario_passes(self):
        mas, spec = sim.clique_path_scenario(3, 3)
        dec = sim.clique_decomposition(3, 3)
        report = check_assumptions(mas, spec, dec)
        assert report.ok
        assert all(report.stabilizable)
        assert all(report.detectable)
        assert report.graph_connected
        assert all(report.cluster_connected)

    def test_anchorless_cluster_not_observable(self):
        # a cluster with no anchored agent leaves its consensus direction
        # unpenalized: positions drift without showing up in the cost
        mas, spec, _, _ = sim.build_formation(sim.default_formation())
        dec = Decomposition.from_assignment([0, 1, 1] + [2] * 9)
        report = check_assumptions(mas, spec, dec)
        assert report.detectable[0]
        assert not report.detectable[1]
        assert report.cluster_connected[1]

    def test_unreachable_and_unweighted_zero_modes(self):
        # a double integrator is marginal (eigenvalues 0, 0): without an
        # input it is not stabilizable, and without a position cost not
        # detectable, though its velocity is weighted
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        agent = (a, np.zeros((2, 1)))
        spec = CostSpec.homogeneous(CostGraph.from_edges(1, []),
                                    np.diag([0.0, 1.0]), np.eye(2), np.eye(1))
        report = check_assumptions(sim.MasSystem([agent]), spec,
                                   Decomposition.from_assignment([0]))
        assert report.stabilizable == [False] and report.detectable == [False]
        spec = CostSpec.homogeneous(CostGraph.from_edges(1, []), np.eye(2),
                                    np.eye(2), np.eye(1))
        mas = sim.MasSystem([(a, np.array([[0.0], [1.0]]))])
        report = check_assumptions(mas, spec, Decomposition.from_assignment([0]))
        assert report.ok

    def test_disconnected_graph_flagged(self):
        graph = CostGraph.from_edges(4, [(0, 1), (2, 3)])
        mas = sim.MasSystem(sim.example1_agents(4))
        spec = CostSpec.homogeneous(graph, 0.5 * np.eye(4), np.eye(4), np.eye(2))
        dec = Decomposition.from_assignment([0, 0, 1, 1])
        report = check_assumptions(mas, spec, dec)
        assert not report.graph_connected
        assert not report.ok


def random_formation(seed):
    """Formation of 3-7 agents with random graph, leaders and decomposition:
    a cluster is detectable exactly when each of its graph components holds
    a leader, since the consensus position of a component without one is an
    unweighted zero mode."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    graph = random_graph(rng, n, p=0.3)
    leaders = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                      replace=False).tolist()))
    scn = sim.FormationScenario(
        masses=[np.diag([1.0 + u / 2.0, 1.0 + u / 3.0]) for u in range(n)],
        damping=[np.diag([0.5 + u / 4.0, 0.5 + u / 5.0]) for u in range(n)],
        formation_graph=graph,
        leaders=leaders,
        targets=np.zeros((n, 2)),
        initial_positions=np.zeros((n, 2)),
        initial_velocities=np.zeros((n, 2)),
    )
    mas, spec, _, _ = sim.build_formation(scn)
    return mas, spec, random_decomposition(rng, n, int(rng.integers(1, n)))


class TestAssumptionOracle:
    """check_assumptions against the PBH rank test of tests/oracles.py."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), formation=st.booleans())
    def test_agrees_with_pbh(self, seed, formation):
        mas, spec, dec = (random_formation if formation else random_instance)(seed)
        report = check_assumptions(mas, spec, dec)
        for j, (qhat_j, _) in enumerate(cluster_costs(spec, dec)):
            a_j, b_j = mas.cluster(dec, j)
            assert report.stabilizable[j] == pbh_stabilizable(a_j, b_j)
            assert report.detectable[j] == pbh_stabilizable(a_j.T, psd_sqrt(qhat_j))
            if pbh_stabilizable(a_j, b_j, every_mode=True):
                assert report.stabilizable[j]
