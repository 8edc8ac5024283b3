"""Exact decomposition search: maximize kappa or minimize the s-cut weight.

Both solvers run a branch-and-bound over agent-to-cluster assignment vectors
in restricted-growth form (agent 0 is fixed to cluster 0 and a new cluster id
may only be opened in index order), so every set partition is visited at most
once and the first optimum found is the lexicographically smallest one.

Twins: agents u and v are twins when their weights to every third agent
are equal and so are their leader flags.  All pairs within a twin class then
share one weight, so twinship is an equivalence, and swapping two twins
preserves kappa, the cut weight and every ConstraintSet rule.  Each agent is
branched only on clusters at or after the cluster of its latest earlier twin.
This keeps the first optimum: if twins t < t' had a[t] > a[t'], swapping them
would give an equally good partition whose restricted-growth form agrees with
a before t and is smaller at t, so a was not the first.  Cut weights are summed
as exact integers (multiples of the finest binary fraction among the weights),
so that twin-swapped partitions tie exactly, not only up to rounding.

Bounds:

* max-kappa: at a node with agents 0..idx-1 assigned, kappa of any
  completion splits into pairs of assigned agents, pairs of unassigned
  agents, and mixed pairs.  The first term is at most its current value
  (pairs in distinct, not-yet-adjacent clusters), since clusters only gain
  edges.  The second is at most the number of zero-weight pairs with both
  endpoints unassigned: a pair with nonzero weight never counts, as it is
  either co-clustered or makes its two clusters adjacent.  For the third,
  take each unassigned agent v and the cluster b it joins.  An assigned
  agent in cluster a counts only if a != b, a is not yet adjacent to b, and no
  member of a is coupled to v, since otherwise v's coupling makes a and b
  adjacent.  So v adds at most the sizes of such open clusters a,
  maximized over the b that v may join (the open clusters and, while one
  remains, an unopened cluster, which is adjacent to nothing).  This bound
  never exceeds the count of all zero-weight pairs with an unassigned
  endpoint.  Pruning only when the bound does not beat the incumbent keeps
  every node on the path to the first optimum, so the lexicographically
  smallest optimum is still the one returned.
* min s-cut: the cut weight already paid by assigned agents is monotonically
  nondecreasing along any branch, so it is a valid lower bound.

Search is exact at desk scale (N up to ~20); a node budget turns the solvers
into anytime methods that return the incumbent flagged non-optimal.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible
from .graphcost import Decomposition

__all__ = [
    "ConstraintSet",
    "PartitionProblem",
    "PartitionResult",
    "max_kappa",
    "min_scut",
]

DEFAULT_NODE_BUDGET = 5_000_000


@dataclass(frozen=True)
class ConstraintSet:
    """Formation-style decomposition constraints.

    leaders, when given, is a tuple of leader agent ids, and every cluster
    must hold at least one of them.  require_connected demands that every
    cluster's members induce a connected subgraph of the coupling graph
    (nonzero Laplacian entries, as everywhere in CostGraph).  admits is the
    one test of a complete assignment against these rules.  Infeasible at
    construction unless every leader id is a non-negative integer; an id
    past the last agent is PartitionProblem's to reject, with the graph.
    """

    leaders: tuple | None = None
    require_connected: bool = False

    def __post_init__(self):
        if self.leaders is not None and not all(
                isinstance(u, (int, np.integer)) and u >= 0 for u in self.leaders):
            raise Infeasible(f"leader ids {self.leaders} are not agent ids 0, 1, ...")

    def admits(self, graph, assignment):
        """True when assignment (a cluster id per agent, ids 0..s-1) meets
        every rule on graph."""
        if self.leaders is not None and not set(assignment) <= {
                assignment[u] for u in self.leaders}:
            return False
        return not self.require_connected or bool(
            graph.clusters_connected(assignment).all())


@dataclass(frozen=True)
class PartitionProblem:
    """An s-part decomposition search; Infeasible at construction unless
    1 <= s <= N and any leader ids are s or more distinct agents 0..N-1."""

    graph: object
    s: int
    constraints: ConstraintSet = field(default_factory=ConstraintSet)
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        n = self.graph.n_agents
        if not 1 <= self.s <= n:
            raise Infeasible(f"need 1 <= s <= {n}, got s={self.s}")
        leaders = self.constraints.leaders
        if leaders is not None:
            if not all(u < n for u in leaders):
                raise Infeasible(f"leader ids {leaders} are not agents 0..{n - 1}")
            if len(set(leaders)) < self.s:
                raise Infeasible(f"{self.s} clusters but only {len(set(leaders))} leaders")


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
    w = np.abs(graph.laplacian)
    np.fill_diagonal(w, 0.0)
    return w


def _mass(mask, sizes):
    """Total size of the clusters whose bits are set in mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += sizes[low.bit_length() - 1]
        mask ^= low
    return total


def _prev_twins(weights, is_leader):
    """prev[u] = the latest agent v < u that is u's twin (module docstring),
    or -1."""
    n = len(weights)
    leader = np.array(is_leader, dtype=bool)
    prev = [-1] * n
    for u in range(1, n):
        differ = weights[:u] != weights[u]
        differ[:, u] = False
        differ[np.arange(u), np.arange(u)] = False
        twins = np.flatnonzero(~differ.any(axis=1) & (leader[:u] == leader[u]))
        if twins.size:
            prev[u] = int(twins[-1])
    return prev


class _Search:
    """Shared DFS state for both objectives.

    Per-node state is plain Python: lists, and one int bitmask of adjacent
    clusters per cluster.  The number of assigned pairs in distinct,
    non-adjacent clusters (kappa of the partial assignment) is kept as a
    running count that _place updates and _unplace restores.
    """

    def __init__(self, problem, maximize_kappa):
        self.graph = problem.graph
        n = self.n = problem.graph.n_agents
        s = self.s = problem.s
        self.cons = problem.constraints
        self.budget = problem.node_budget
        self.maximize_kappa = maximize_kappa
        self.w = _weight_matrix(problem.graph)

        w = self.w.tolist()
        # each weight as an integer multiple of 1/scale, so that a cut sums
        # exactly: twin-swapped partitions then tie, whatever the edge order
        ratios = [[x.as_integer_ratio() for x in row] for row in w]
        self.scale = max(d for row in ratios for _, d in row)
        # coupled agents of u: earlier ones with their weights, later ones
        self.earlier = [[(v, num * (self.scale // den))
                         for v, (num, den) in enumerate(ratios[u][:u]) if num]
                        for u in range(n)]
        self.later = [[v for v in range(u + 1, n) if w[u][v] > 0.0]
                      for u in range(n)]
        # zz[idx] = number of zero-weight pairs u < v with u >= idx
        self.zz = [0] * (n + 1)
        for u in range(n - 1, -1, -1):
            self.zz[u] = self.zz[u + 1] + sum(
                1 for v in range(u + 1, n) if w[u][v] == 0.0
            )

        self.require_leader = self.cons.leaders is not None
        leaders = set(self.cons.leaders or ())
        self.is_leader = [u in leaders for u in range(n)]
        self.prev_twin = _prev_twins(self.w, self.is_leader)
        # leaders_from[idx] = number of leaders among agents idx..n-1
        self.leaders_from = [0] * (n + 1)
        for u in range(n - 1, -1, -1):
            self.leaders_from[u] = self.leaders_from[u + 1] + self.is_leader[u]

        self.assign = [-1] * n
        self.sizes = [0] * s
        self.adj = [0] * s
        self.has_leader = [False] * s
        self.n_led = 0
        # touch[v] has bit b set when cluster b holds an agent coupled to v
        self.touch = [0] * n
        self.touch_count = [[0] * s for _ in range(n)]
        self.nonadj = 0
        self.nodes = 0
        self.best_value = None
        self.best_assign = None
        self.exhausted = False

    # -- incremental bookkeeping -------------------------------------------

    def _place(self, u, c, n_open):
        """Assign agent u to cluster c; return undo record."""
        assign, adj, sizes = self.assign, self.adj, self.sizes
        bit = 1 << c
        new_adj = []
        cut_delta = 0
        for v, wuv in self.earlier[u]:
            b = assign[v]
            if b != c:
                cut_delta += wuv
                if not adj[c] >> b & 1:
                    adj[c] |= 1 << b
                    adj[b] |= bit
                    new_adj.append(b)

        old_nonadj = self.nonadj
        nonadj = old_nonadj
        for b in new_adj:
            nonadj -= sizes[c] * sizes[b]
        apart = adj[c] | bit
        for b in range(n_open):
            if not apart >> b & 1:
                nonadj += sizes[b]
        self.nonadj = nonadj

        for v in self.later[u]:
            count = self.touch_count[v]
            count[c] += 1
            if count[c] == 1:
                self.touch[v] |= bit

        assign[u] = c
        sizes[c] += 1
        leader_added = self.is_leader[u] and not self.has_leader[c]
        if leader_added:
            self.has_leader[c] = True
            self.n_led += 1
        return new_adj, cut_delta, leader_added, old_nonadj

    def _unplace(self, u, c, record):
        new_adj, _, leader_added, old_nonadj = record
        adj = self.adj
        for b in new_adj:
            adj[c] ^= 1 << b
            adj[b] ^= 1 << c
        for v in self.later[u]:
            count = self.touch_count[v]
            count[c] -= 1
            if count[c] == 0:
                self.touch[v] ^= 1 << c
        if leader_added:
            self.has_leader[c] = False
            self.n_led -= 1
        self.nonadj = old_nonadj
        self.sizes[c] -= 1
        self.assign[u] = -1

    def _kappa_bound(self, idx, n_open, slack):
        """The module docstring's bound on the kappa still to come below this
        node: zero-weight pairs of unassigned agents, plus, per unassigned
        agent, the most assigned agents it can still end up apart from.
        Returns early once the sum exceeds slack.
        """
        sizes = self.sizes
        open_mask = (1 << n_open) - 1
        if n_open < self.s:
            apart = None
        else:
            apart = [open_mask & ~(self.adj[b] | 1 << b) for b in range(n_open)]
        total = self.zz[idx]
        seen = {}
        for v in range(idx, self.n):
            if total > slack:
                break
            free = open_mask & ~self.touch[v]
            gain = seen.get(free)
            if gain is None:
                if apart is None:
                    gain = _mass(free, sizes)
                else:
                    gain = max(_mass(free & a, sizes) for a in apart)
                seen[free] = gain
            total += gain
        return total

    # -- main recursion ------------------------------------------------------

    def run(self):
        self._dfs(0, 0, 0)
        return self

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
            if n_open != self.s or not self.cons.admits(self.graph, self.assign):
                return
            value = self.nonadj if self.maximize_kappa else cut
            if self._improves(value):
                self.best_value = value
                self.best_assign = list(self.assign)
            return

        # enough agents must remain to open every missing cluster
        remaining = self.n - idx
        if n_open + remaining < self.s:
            return
        # and enough leaders to lead every cluster that has none yet
        if self.require_leader and self.leaders_from[idx] < self.s - self.n_led:
            return

        if self.best_value is not None:
            if self.maximize_kappa:
                slack = self.best_value - self.nonadj
                if self._kappa_bound(idx, n_open, slack) <= slack:
                    return
            else:
                if cut >= self.best_value:
                    return

        limit = min(n_open + 1, self.s)
        twin = self.prev_twin[idx]
        for c in range(0 if twin < 0 else self.assign[twin], limit):
            record = self._place(idx, c, n_open)
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
    dec = Decomposition.from_assignment(search.best_assign)
    value = search.best_value
    if not search.maximize_kappa:
        value /= search.scale
    return PartitionResult(
        dec=dec,
        value=float(value),
        optimal=not search.exhausted,
        nodes=search.nodes,
    )


def max_kappa(problem):
    """Decomposition maximizing kappa among all feasible s-part partitions."""
    search = _Search(problem, maximize_kappa=True).run()
    return _finish(search)


def min_scut(problem):
    """Decomposition minimizing total inter-cluster edge weight (tr(G2)/2)."""
    search = _Search(problem, maximize_kappa=False).run()
    return _finish(search)
