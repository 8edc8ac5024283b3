"""Coupling-graph cost structures and the intra/inter-cluster split.

The quadratic state penalty has the form Q = Qbar + G (x) Qtilde where G is a
Laplacian coupling agents through the cost only.  For a cluster decomposition,
G splits as G = G1 + G2 with G1 collecting intra-cluster coupling (so
Qhat = Qbar + G1 (x) Qtilde is block-diagonal cluster by cluster) and G2 the
inter-cluster remainder.  This module owns those structures plus the
communication metrics kappa, tr(G2) and the gain-sparsity link count n_c.

Two agents are coupled exactly when their Laplacian entry is nonzero.
CostGraph rejects any coupling weight in (0, ADJACENCY_TOL], so that every
structural query (adjacency, connectivity, cluster adjacency, kappa, the
split and the decomposition search) reads the same exact nonzero pattern as
the gain's zero blocks.

Agent and cluster indices are 0-based throughout; human-readable labels are
1-based to match the usual tabulated form.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidDecomposition, NotALaplacian
from .matops import PSD_TOL, _components, _pd, block_diag, is_psd, stabilizable, symmetrize

__all__ = [
    "CostGraph",
    "CostSpec",
    "Decomposition",
    "SplitGraphs",
    "AssumptionReport",
    "split_graph",
    "kappa",
    "cluster_adjacency",
    "comm_links",
    "assemble_q",
    "cluster_costs",
    "check_assumptions",
]

#: smallest coupling weight a CostGraph accepts: a weight is zero or above it
ADJACENCY_TOL = 1e-12


@dataclass(frozen=True)
class CostGraph:
    """Laplacian coupling graph on n_agents nodes.

    laplacian has nonpositive off-diagonal entries and diagonal equal to the
    row sums of the off-diagonal magnitudes.  Agents i != j are coupled iff
    laplacian[i, j] != 0; every coupling weight exceeds ADJACENCY_TOL.
    """

    n_agents: int
    laplacian: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.laplacian, dtype=float)
        n = self.n_agents
        if n < 1 or g.shape != (n, n):
            raise NotALaplacian(f"expected {n}x{n} matrix, got {g.shape}")
        if not np.allclose(g, g.T, rtol=0.0, atol=1e-12):
            raise NotALaplacian("matrix is not symmetric")
        g = symmetrize(g)
        off = g - np.diag(np.diag(g))
        if np.any(off > 0.0):
            raise NotALaplacian("positive off-diagonal entry")
        if np.any((off < 0.0) & (off >= -ADJACENCY_TOL)):
            raise NotALaplacian(
                f"coupling weight in (0, {ADJACENCY_TOL:g}]: a weight must be "
                f"zero or above it"
            )
        if not np.allclose(np.diag(g), -off.sum(axis=1), rtol=0.0, atol=1e-9):
            raise NotALaplacian("diagonal does not equal row absolute sums")
        if not is_psd(g):
            raise NotALaplacian("matrix is not PSD")
        object.__setattr__(self, "laplacian", g)

    @classmethod
    def from_edges(cls, n_agents, edges):
        """Build from undirected edges (i, j) or (i, j, weight), 0-based ids."""
        g = np.zeros((n_agents, n_agents))
        for edge in edges:
            i, j = edge[0], edge[1]
            w = float(edge[2]) if len(edge) > 2 else 1.0
            if i == j or not (0 <= i < n_agents and 0 <= j < n_agents):
                raise NotALaplacian(f"bad edge ({i},{j})")
            if w <= 0:
                raise NotALaplacian(f"nonpositive weight on edge ({i},{j})")
            g[i, j] -= w
            g[j, i] -= w
        np.fill_diagonal(g, np.abs(g - np.diag(np.diag(g))).sum(axis=1))
        return cls(n_agents, g)

    def adjacency(self):
        """Boolean matrix: True where agents are coupled (off-diagonal)."""
        a = self.laplacian != 0.0
        np.fill_diagonal(a, False)
        return a

    def edges(self):
        """Sorted list of (i, j, weight) with i < j."""
        rows, cols = np.nonzero(np.triu(self.adjacency()))
        return [(i, j, float(-self.laplacian[i, j]))
                for i, j in zip(rows.tolist(), cols.tolist())]

    def connected(self, nodes=None):
        """True when the induced subgraph on nodes (default: all) is connected."""
        nodes = range(self.n_agents) if nodes is None else sorted(nodes)
        if not nodes:
            return False
        return len(_components(self.adjacency()[np.ix_(nodes, nodes)])) == 1

    def clusters_connected(self, assignment):
        """Boolean array over cluster ids 0..max(assignment): True where the
        cluster's members induce a connected subgraph.  One component search
        on the couplings inside clusters decides every cluster at once."""
        a = np.asarray(assignment)
        comps = _components(self.adjacency() & (a[:, None] == a))
        return np.bincount([a[c[0]] for c in comps], minlength=a.max() + 1) == 1


def _cluster_id(v):
    """v as an int; InvalidDecomposition when it is not an integral value."""
    try:
        i = int(v)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != v:
        raise InvalidDecomposition(f"cluster id {v!r} is not an integer")
    return i


@dataclass(frozen=True)
class Decomposition:
    """Partition of agents into s clusters, stored as an assignment vector.

    assignment[u] is the 0-based cluster id of agent u; ids are canonicalized
    to first-use order (agent 0 is always in cluster 0), so two decompositions
    are equal iff they induce the same partition, and the cluster count s is
    max(assignment) + 1.  Flat vectors are agent-major: agent u owns entries
    u*n .. u*n+n-1 of a vector with n entries per agent.  state_indices is
    the one rule placing a cluster in them, and scatter the one way
    per-cluster blocks reach agent order.
    """

    assignment: tuple

    def __post_init__(self):
        seen = {}
        canon = tuple(seen.setdefault(_cluster_id(v), len(seen)) for v in self.assignment)
        if not canon:
            raise InvalidDecomposition("empty assignment")
        object.__setattr__(self, "assignment", canon)

    @classmethod
    def from_assignment(cls, assignment):
        """Build from any iterable of cluster ids, one per agent."""
        return cls(tuple(assignment))

    @property
    def s(self):
        return max(self.assignment) + 1

    @property
    def n_agents(self):
        return len(self.assignment)

    def clusters(self):
        """List of s agent-index lists, each ascending, in cluster-id order."""
        out = [[] for _ in range(self.s)]
        for u, c in enumerate(self.assignment):
            out[c].append(u)
        return out

    def sizes(self):
        return [len(c) for c in self.clusters()]

    def state_indices(self, j, n):
        """Ascending flat indices of cluster j's entries when each agent
        carries n of them (states, or inputs with n = m)."""
        return np.flatnonzero(np.repeat(np.equal(self.assignment, j), n))

    def scatter(self, blocks, rows, cols):
        """Dense (rows N) x (cols N) matrix holding blocks[j] at cluster j's
        state_indices(j, rows) x state_indices(j, cols), exact zeros
        elsewhere."""
        out = np.zeros((rows * self.n_agents, cols * self.n_agents))
        for j, block in enumerate(blocks):
            out[np.ix_(self.state_indices(j, rows), self.state_indices(j, cols))] = block
        return out

    def label(self):
        """Human-readable 1-based form, e.g. '1,2|3,4,5,6,7|8,9'."""
        return "|".join(",".join(str(u + 1) for u in c) for c in self.clusters())

    def cluster_name(self, j):
        """Cluster j as an error message names it, with 1-based agent ids,
        e.g. 'cluster 1 (agents 2,3)' or 'cluster 1 (agent 11)'."""
        members = self.clusters()[j]
        plural = "s" if len(members) > 1 else ""
        return f"cluster {j} (agent{plural} {','.join(str(u + 1) for u in members)})"


@dataclass(frozen=True)
class SplitGraphs:
    """The split G = g1 + g2 (intra-cluster and inter-cluster Laplacians)."""

    g1: np.ndarray
    g2: np.ndarray


def _check_blocks(blocks, name, size, ok, kind):
    """Raise for the first block, in order, that is not size x size
    (DimensionMismatch) or whose symmetric part has a least eigenvalue that
    fails ok (NotALaplacian): one batched eigvalsh on the leading blocks of
    the right shape."""
    bad = next((i for i, blk in enumerate(blocks) if blk.shape != (size, size)),
               len(blocks))
    if bad and not ok(np.linalg.eigvalsh(symmetrize(np.stack(blocks[:bad])))[:, 0]).all():
        raise NotALaplacian(f"{name} block not {kind}")
    if bad < len(blocks):
        raise DimensionMismatch(
            f"{name} block shape {blocks[bad].shape} != ({size},{size})")


@dataclass(frozen=True)
class CostSpec:
    """Quadratic cost structure Q = Qbar + G (x) Qtilde, R = diag(R_i).

    qbar_blocks are the per-agent n x n diagonal blocks of Qbar, qtilde the
    shared n x n coupling penalty, r_blocks the per-agent m x m input
    penalties (PD).
    """

    graph: CostGraph
    qbar_blocks: list = field(repr=False)
    qtilde: np.ndarray = field(repr=False)
    r_blocks: list = field(repr=False)

    def __post_init__(self):
        n = self.n
        m = self.m
        if len(self.qbar_blocks) != self.graph.n_agents or len(self.r_blocks) != self.graph.n_agents:
            raise DimensionMismatch("need one qbar block and one r block per agent")
        _check_blocks(self.qbar_blocks, "qbar", n, lambda w: w >= PSD_TOL, "PSD")
        if not is_psd(self.qtilde):
            raise NotALaplacian("qtilde not PSD")
        _check_blocks(self.r_blocks, "r", m, lambda w: w > 0, "PD")

    @classmethod
    def homogeneous(cls, graph, qbar_block, qtilde, r_block):
        """Same Qbar/R block for every agent."""
        n_agents = graph.n_agents
        return cls(
            graph,
            [np.asarray(qbar_block, dtype=float)] * n_agents,
            np.asarray(qtilde, dtype=float),
            [np.asarray(r_block, dtype=float)] * n_agents,
        )

    @property
    def n(self):
        return self.qtilde.shape[0]

    @property
    def m(self):
        return self.r_blocks[0].shape[0]

    @property
    def qbar(self):
        return block_diag(*self.qbar_blocks)

    @property
    def r(self):
        return block_diag(*self.r_blocks)


def split_graph(graph, dec):
    """Split G into intra-cluster g1 and inter-cluster g2 with g1 + g2 = G.

    g2 keeps only couplings between agents in different clusters and carries
    its own row-absolute-sum diagonal; g1 is the exact remainder and is
    block-diagonal under any cluster-contiguous ordering.
    """
    if dec.n_agents != graph.n_agents:
        raise InvalidDecomposition(
            f"decomposition covers {dec.n_agents} agents, graph has {graph.n_agents}"
        )
    g = graph.laplacian
    assign = np.asarray(dec.assignment)
    same = assign[:, None] == assign[None, :]
    g2 = np.where(same, 0.0, g)
    np.fill_diagonal(g2, np.abs(g2).sum(axis=1))
    g1 = g - g2
    return SplitGraphs(g1=g1, g2=g2)


def cluster_adjacency(graph, dec):
    """s x s boolean matrix: True where two clusters share any coupling."""
    e = np.eye(dec.s, dtype=int)[list(dec.assignment)]  # agent-to-cluster 0/1
    adj = e.T @ graph.adjacency() @ e > 0
    np.fill_diagonal(adj, False)
    return adj


def kappa(graph, dec):
    """Number of unordered agent pairs spanning non-adjacent clusters.

    Pairs counted by kappa need no communication link under the hierarchical
    gain; n_c = N(N-1)/2 - kappa is the matching link count.
    """
    sizes = np.array(dec.sizes())
    return int(sizes @ np.triu(~cluster_adjacency(graph, dec), 1) @ sizes)


def comm_links(k, n, m):
    """Communication edges implied by a gain matrix.

    The gain is partitioned into m x n agent blocks; the unordered pair
    (i, j) is a link when either cross block has a max-abs entry above 1e-8
    times the gain's own max-abs entry.  Returns (sorted edge list, n_c).
    """
    k = np.asarray(k, dtype=float)
    if k.shape[0] % m or k.shape[1] % n:
        raise DimensionMismatch(f"gain shape {k.shape} not divisible into {m}x{n} blocks")
    n_in, n_st = k.shape[0] // m, k.shape[1] // n
    if n_in != n_st:
        raise DimensionMismatch(f"{n_in} input blocks vs {n_st} state blocks")
    mag = np.abs(k)
    linked = mag.reshape(n_in, m, n_in, n).max(axis=(1, 3)) > 1e-8 * mag.max()
    rows, cols = np.nonzero(np.triu(linked | linked.T, 1))
    edges = list(zip(rows.tolist(), cols.tolist()))
    return edges, len(edges)


def assemble_q(spec):
    """Full state penalty Q = Qbar + G (x) Qtilde."""
    return spec.qbar + np.kron(spec.graph.laplacian, spec.qtilde)


def cluster_costs(spec, dec):
    """Per-cluster (Qhat_j, Rhat_j) blocks of the decomposed cost.

    Qhat_j is the cluster-j block of Qhat = Qbar + g1 (x) Qtilde, built from
    the members' Qbar blocks and g1's cluster block alone: the whole Qhat is
    never formed, and each entry is the same sum of the same two numbers as
    in it.  Rhat_j is the block diagonal of the members' R blocks.  The full
    Q satisfies Q = Qhat + g2 (x) Qtilde exactly.
    """
    g1 = split_graph(spec.graph, dec).g1
    out = []
    for members in dec.clusters():
        qbar_j = block_diag(*[spec.qbar_blocks[u] for u in members])
        qj = symmetrize(qbar_j + np.kron(g1[np.ix_(members, members)], spec.qtilde))
        rj = block_diag(*[spec.r_blocks[u] for u in members])
        out.append((qj, rj))
    return out


@dataclass(frozen=True)
class AssumptionReport:
    """Stabilizability, detectability and connectivity behind the guarantees."""

    stabilizable: list
    detectable: list
    graph_connected: bool
    cluster_connected: list

    @property
    def ok(self):
        return (
            all(self.stabilizable)
            and all(self.detectable)
            and self.graph_connected
        )

    def explain(self, dec, j, cause):
        """cause, named for cluster j and followed by its two verdicts:
        'cluster 1 (agents 2,3): cause; stabilizable holds, detectable fails'."""
        verdicts = ", ".join(
            f"{name} {'holds' if held[j] else 'fails'}" for name, held in
            (("stabilizable", self.stabilizable), ("detectable", self.detectable)))
        return f"{dec.cluster_name(j)}: {cause}; {verdicts}"


def check_assumptions(mas, spec, dec):
    """Report per-cluster stabilizability of (A_j, B_j), detectability of
    (Qhat_j^{1/2}, A_j), and connectivity of the coupling graph and each
    cluster subgraph.  Never raises; the report carries any failures.

    The first two make each cluster Riccati solution stabilizing (Kucera
    1972): stabilizable by matops.stabilizable's verdict on (A_j, B_j),
    detectable when Qhat_j is PD to rounding or (A_j', Qhat_j) is
    stabilizable.
    """
    stab, detect = [], []
    for j, (qhat_j, _) in enumerate(cluster_costs(spec, dec)):
        a_j, b_j = mas.cluster(dec, j)
        stab.append(stabilizable(a_j, b_j))
        detect.append(_pd(np.linalg.eigvalsh(qhat_j)) or stabilizable(a_j.T, qhat_j))
    return AssumptionReport(
        stabilizable=stab,
        detectable=detect,
        graph_connected=spec.graph.connected(),
        cluster_connected=spec.graph.clusters_connected(dec.assignment).tolist(),
    )
