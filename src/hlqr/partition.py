"""Exact decomposition search: maximize kappa or minimize the s-cut weight.

Both solvers run a branch-and-bound over agent-to-cluster assignment vectors
in restricted-growth form (agent 0 is fixed to cluster 0 and a new cluster id
may only be opened in index order), so every set partition is visited at most
once and the first optimum found is the lexicographically smallest one.

Bounds:

* max-kappa: at a node with agents 0..idx-1 assigned, an admissible upper
  bound is (pairs of already-assigned agents in distinct, not-yet-adjacent
  clusters) + (pairs with at least one unassigned endpoint and zero coupling
  weight).  The first term only shrinks as clusters gain edges; a pair with
  nonzero weight can never count (co-clustered pairs never count, split pairs
  make their clusters adjacent), so the second term only over-counts.
* min s-cut: the cut weight already paid by assigned agents is monotonically
  nondecreasing along any branch, so it is a valid lower bound.

Search is exact at desk scale (N up to ~20); a node budget turns the solvers
into anytime methods that return the incumbent flagged non-optimal.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, TooLarge
from .graphcost import ADJACENCY_TOL, Decomposition

__all__ = [
    "ConstraintSet",
    "PartitionProblem",
    "PartitionResult",
    "max_kappa",
    "min_scut",
    "enumerate_partitions",
]

ENUMERATION_GUARD = 12
DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class ConstraintSet:
    """Formation-style decomposition constraints.

    leader_indicator is a 0/1 vector over agents; require_leader demands at
    least one leader per cluster.  require_neighbor demands every member of a
    non-singleton cluster have an intra-cluster neighbor (weight >= min_epsilon);
    require_connected strengthens that to full cluster connectivity.
    min_epsilon defaults to the smallest nonzero coupling weight of the graph.
    """

    leader_indicator: tuple | None = None
    min_epsilon: float | None = None
    require_leader: bool = False
    require_neighbor: bool = False
    require_connected: bool = False


@dataclass(frozen=True)
class PartitionProblem:
    graph: object
    s: int
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        n = self.graph.n_agents
        if not 1 <= self.s <= n:
            raise Infeasible(f"need 1 <= s <= {n}, got s={self.s}")
        if self.constraints is None:
            object.__setattr__(self, "constraints", ConstraintSet())


@dataclass(frozen=True)
class PartitionResult:
    """Solver outcome: the decomposition, its objective value, and search stats.

    For max_kappa, value is kappa; for min_scut, value is the cut weight
    (tr(G2)/2).  optimal is False only when the node budget was exhausted.
    """

    dec: Decomposition
    value: float
    optimal: bool
    nodes: int


def _weight_matrix(graph):
    w = np.abs(graph.laplacian).astype(float)
    np.fill_diagonal(w, 0.0)
    w[w <= ADJACENCY_TOL] = 0.0
    return w


def _constraints_ok(graph, constraints, clusters, weights, eps):
    c = constraints
    if c.require_leader:
        xi = c.leader_indicator
        for members in clusters:
            if not any(xi[u] for u in members):
                return False
    if c.require_connected:
        for members in clusters:
            if len(members) > 1 and not graph.connected(members):
                return False
    elif c.require_neighbor:
        for members in clusters:
            if len(members) == 1:
                continue
            for u in members:
                if not any(weights[u, v] >= eps for v in members if v != u):
                    return False
    return True


def _precheck(problem):
    c = problem.constraints
    n = problem.graph.n_agents
    if c.require_leader:
        if c.leader_indicator is None or len(c.leader_indicator) != n:
            raise Infeasible("require_leader set without a full leader indicator")
        if sum(1 for v in c.leader_indicator if v) < problem.s:
            raise Infeasible(
                f"{problem.s} clusters but only "
                f"{sum(1 for v in c.leader_indicator if v)} leaders"
            )


def _min_eps(graph, constraints):
    if constraints.min_epsilon is not None:
        return constraints.min_epsilon
    w = _weight_matrix(graph)
    nz = w[w > 0.0]
    return float(nz.min()) if nz.size else np.inf


class _Search:
    """Shared DFS state for both objectives."""

    def __init__(self, problem, maximize_kappa):
        self.graph = problem.graph
        self.n = problem.graph.n_agents
        self.s = problem.s
        self.cons = problem.constraints
        self.budget = problem.node_budget
        self.maximize_kappa = maximize_kappa
        self.w = _weight_matrix(problem.graph)
        self.zero = self.w == 0.0
        self.eps = _min_eps(problem.graph, problem.constraints)

        # zs[idx] = number of pairs u < v with v >= idx and zero coupling
        col = np.array(
            [self.zero[:v, v].sum() for v in range(self.n)], dtype=np.int64
        )
        self.zs = np.concatenate([np.cumsum(col[::-1])[::-1], [0]])

        leaders = self.cons.leader_indicator
        self.is_leader = (
            np.asarray(leaders, dtype=bool)
            if (self.cons.require_leader and leaders is not None)
            else np.zeros(self.n, dtype=bool)
        )

        self.assign = np.full(self.n, -1, dtype=np.int64)
        self.sizes = np.zeros(self.s, dtype=np.int64)
        self.adj = np.zeros((self.s, self.s), dtype=bool)
        self.has_leader = np.zeros(self.s, dtype=bool)
        self.nodes = 0
        self.best_value = None
        self.best_assign = None
        self.exhausted = False

    # -- incremental bookkeeping -------------------------------------------

    def _place(self, u, c):
        """Assign agent u to cluster c; return undo record."""
        new_adj = []
        cut_delta = 0.0
        for v in range(u):
            b = self.assign[v]
            if b == c:
                continue
            wuv = self.w[u, v]
            if wuv > 0.0:
                cut_delta += wuv
                if not self.adj[c, b]:
                    self.adj[c, b] = self.adj[b, c] = True
                    new_adj.append(b)
        self.assign[u] = c
        self.sizes[c] += 1
        leader_added = self.is_leader[u] and not self.has_leader[c]
        if leader_added:
            self.has_leader[c] = True
        return new_adj, cut_delta, leader_added

    def _unplace(self, u, c, record):
        new_adj, _, leader_added = record
        for b in new_adj:
            self.adj[c, b] = self.adj[b, c] = False
        if leader_added:
            self.has_leader[c] = False
        self.sizes[c] -= 1
        self.assign[u] = -1

    def _nonadj_pairs(self, n_open):
        total = 0
        for a in range(n_open):
            for b in range(a + 1, n_open):
                if not self.adj[a, b]:
                    total += int(self.sizes[a] * self.sizes[b])
        return total

    def _leader_prune(self, idx, n_open):
        if not self.cons.require_leader:
            return False
        remaining = int(self.is_leader[idx:].sum())
        needed = int((~self.has_leader[:n_open]).sum()) + (self.s - n_open)
        return remaining < needed

    # -- main recursion ------------------------------------------------------

    def run(self):
        self._dfs(0, 0, 0.0)
        return self

    def _leaf_value(self, n_open, cut):
        if self.maximize_kappa:
            return self._nonadj_pairs(n_open)
        return cut

    def _improves(self, value):
        if self.best_value is None:
            return True
        if self.maximize_kappa:
            return value > self.best_value
        return value < self.best_value

    def _dfs(self, idx, n_open, cut):
        if self.exhausted:
            return
        self.nodes += 1
        if self.nodes > self.budget:
            self.exhausted = True
            return

        if idx == self.n:
            if n_open != self.s:
                return
            clusters = [[] for _ in range(self.s)]
            for u, c in enumerate(self.assign):
                clusters[c].append(u)
            if not _constraints_ok(self.graph, self.cons, clusters, self.w, self.eps):
                return
            value = self._leaf_value(n_open, cut)
            if self._improves(value):
                self.best_value = value
                self.best_assign = self.assign.copy()
            return

        # enough agents must remain to open every missing cluster
        remaining = self.n - idx
        if n_open + remaining < self.s:
            return
        if self._leader_prune(idx, n_open):
            return

        if self.best_value is not None:
            if self.maximize_kappa:
                ub = self._nonadj_pairs(n_open) + int(self.zs[idx])
                if ub <= self.best_value:
                    return
            else:
                if cut >= self.best_value:
                    return

        limit = min(n_open + 1, self.s)
        for c in range(limit):
            record = self._place(idx, c)
            self._dfs(idx + 1, max(n_open, c + 1), cut + record[1])
            self._unplace(idx, c, record)
            if self.exhausted:
                return


def _finish(search):
    if search.best_assign is None:
        if search.exhausted:
            raise Infeasible(
                "node budget exhausted before any feasible decomposition was found"
            )
        raise Infeasible("no decomposition satisfies the constraints")
    dec = Decomposition.from_assignment(search.best_assign.tolist())
    return PartitionResult(
        dec=dec,
        value=float(search.best_value),
        optimal=not search.exhausted,
        nodes=search.nodes,
    )


def max_kappa(problem):
    """Decomposition maximizing kappa among all feasible s-part partitions."""
    _precheck(problem)
    search = _Search(problem, maximize_kappa=True).run()
    return _finish(search)


def min_scut(problem):
    """Decomposition minimizing total inter-cluster edge weight (tr(G2)/2)."""
    _precheck(problem)
    search = _Search(problem, maximize_kappa=False).run()
    return _finish(search)


def enumerate_partitions(n_agents, s, constraints=None, graph=None):
    """Yield every partition of {0..N-1} into s nonempty clusters, once each.

    Restricted-growth enumeration; guarded against combinatorial blowup at
    N > 12.  Leader constraints filter directly; neighbor-set and connectivity
    constraints need coupling information and apply only when graph is given.
    """
    if n_agents > ENUMERATION_GUARD:
        raise TooLarge(f"N={n_agents} exceeds enumeration guard {ENUMERATION_GUARD}")
    if not 1 <= s <= n_agents:
        return

    cons = constraints if constraints is not None else ConstraintSet()
    weights = _weight_matrix(graph) if graph is not None else None
    eps = _min_eps(graph, cons) if graph is not None else np.inf

    assign = [0] * n_agents

    def rec(idx, n_open):
        if n_agents - idx < s - n_open:
            return
        if idx == n_agents:
            if n_open == s:
                yield tuple(assign)
            return
        for c in range(min(n_open + 1, s)):
            assign[idx] = c
            yield from rec(idx + 1, max(n_open, c + 1))

    for a in rec(0, 0):
        if cons.require_leader and cons.leader_indicator is not None:
            ok = all(
                any(cons.leader_indicator[u] for u in range(n_agents) if a[u] == c)
                for c in range(s)
            )
            if not ok:
                continue
        if graph is not None and (cons.require_neighbor or cons.require_connected):
            clusters = [[u for u in range(n_agents) if a[u] == c] for c in range(s)]
            if not _constraints_ok(graph, cons, clusters, weights, eps):
                continue
        yield Decomposition.from_assignment(a)
