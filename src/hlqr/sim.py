"""Multi-agent system models, time-domain simulation, and scenario builders.

Systems are block-diagonal compositions of per-agent LTI dynamics
xdot_i = A_i x_i + B_i (u_i + d_i) with an optional measurable disturbance d.
Integration is classical fixed-step RK4 under a state-feedback gain, with
running cost integrals carried on the same grid (see _kernels).  Scenario
builders cover the clique-path benchmark family, a five-node demo graph, and
the 12-agent planar formation maneuver with its baseline stabilization law.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, HlqrError, InvalidConfig, StateBlowup
from .graphcost import CostGraph, CostSpec, Decomposition, assemble_q
from .matops import _hurwitz, block_diag, solve_care
from .partition import ConstraintSet

__all__ = [
    "MasSystem",
    "BlackBoxPlant",
    "Trajectory",
    "FormationScenario",
    "integrate",
    "clique_path_graph",
    "clique_decomposition",
    "clique_path_scenario",
    "five_node_scenario",
    "default_formation",
    "build_formation",
    "initial_gains",
    "cluster_plants",
]

#: State entry magnitude past which integrate and adp.collect raise StateBlowup.
DEFAULT_GUARD = 1e6


@dataclass
class MasSystem:
    """Block-diagonal multi-agent LTI system.

    agents is a list of (A_i, B_i) pairs with uniform per-agent dimensions;
    disturbance, when present, is the stacked (m*N,) input-channel
    disturbance, a signal as BlackBoxPlant takes it.
    The learner sees the system only through black_box() and
    cluster_plants() handles.
    """

    agents: list
    disturbance: object = None

    def __post_init__(self):
        if not self.agents:
            raise InvalidConfig("need at least one agent")
        n, m = self.agents[0][1].shape
        for a_i, b_i in self.agents:
            if a_i.shape != (n, n) or b_i.shape != (n, m):
                raise DimensionMismatch("agents must share dimensions")

    @property
    def n_agents(self):
        return len(self.agents)

    @property
    def n(self):
        return self.agents[0][0].shape[0]

    @property
    def m(self):
        return self.agents[0][1].shape[1]

    @property
    def a_full(self):
        return block_diag(*[a for a, _ in self.agents])

    @property
    def b_full(self):
        return block_diag(*[b for _, b in self.agents])

    def cluster(self, dec, j):
        """(A_j, B_j) of the cluster's agents."""
        members = dec.clusters()[j]
        return (
            block_diag(*[self.agents[u][0] for u in members]),
            block_diag(*[self.agents[u][1] for u in members]),
        )

    def black_box(self):
        """Data-only handle to the full system (hides matrices)."""
        return BlackBoxPlant(self.a_full, self.b_full, self.disturbance)


class BlackBoxPlant:
    """Simulation handle exposing dimensions and trajectory data only.

    Wraps private dynamics matrices and the (measurable) disturbance; the
    learning pipeline interacts with plants exclusively through collect(),
    never reading A or B.  A signal (disturbance or excitation) is None or
    an object whose table(h, n) gives a function rows(i0, i1): the signal
    at the times t_i = i h, i0 <= i < i1 <= n, one row per time.  The
    plant's input channels are the signal's columns, or the columns
    `channels` of the disturbance when given.
    """

    def __init__(self, a, b, disturbance=None, channels=None):
        self._a = np.ascontiguousarray(a, dtype=float)
        self._b = np.ascontiguousarray(b, dtype=float)
        self._dist = disturbance
        self._channels = channels

    @property
    def n_states(self):
        return self._b.shape[0]

    @property
    def n_inputs(self):
        return self._b.shape[1]

    def rollout(self, k, x0, dt, n_steps, q, r, guard=DEFAULT_GUARD):
        """Closed-loop run under u = -K x with running cost x'Qx + u'Ru;
        returns the raw kernel tuple.  The kernel reads the disturbance
        through _half_grid, one chunk of steps at a time."""
        return _kernels.rollout_kernel(
            self._a, self._b, np.ascontiguousarray(k, dtype=float),
            self._half_grid(self._dist, dt, n_steps, self._channels),
            np.ascontiguousarray(x0, dtype=float), float(dt), int(n_steps),
            np.ascontiguousarray(q, dtype=float),
            np.ascontiguousarray(r, dtype=float),
            float(guard),
        )

    def collect(self, k0, exc, x0, dt, steps_per_window, n_windows,
                guard=DEFAULT_GUARD):
        """Learning-data run under u = -K0 x + e; the recorded applied input
        is v = u + d.  The excitation e is a signal like the disturbance, or
        None (zero); the kernel reads both through _half_grid, one chunk of
        steps at a time.  Returns the raw kernel tuple."""
        n_steps = steps_per_window * n_windows
        return _kernels.collect_kernel(
            self._a, self._b, np.ascontiguousarray(k0, dtype=float),
            self._half_grid(exc, dt, n_steps),
            self._half_grid(self._dist, dt, n_steps, self._channels),
            np.ascontiguousarray(x0, dtype=float), float(dt),
            int(steps_per_window), int(n_windows), float(guard),
        )

    def _half_grid(self, f, dt, n_steps, channels=None):
        """Signal f on the RK4 half-grid t_i = i dt/2 of n_steps steps as the
        kernels read it, a function rows(h0, h1) that tabulates rows
        h0..h1-1 when called (tabulate_signal), or None for no signal."""
        if f is not None:
            rows, m = f.table(dt / 2.0, 2 * n_steps + 1), self.n_inputs
            return lambda h0, h1: tabulate_signal(rows, h0, h1, m, channels)


def tabulate_signal(rows, h0, h1, m, channels=None):
    """Rows h0..h1-1 of a signal's grid function rows(i0, i1), restricted to
    the columns `channels` (all when None): an (h1 - h0, m) array."""
    out = np.asarray(rows(h0, h1), dtype=float)
    if channels is not None:
        out = out[:, channels]
    if out.shape != (h1 - h0, m):
        raise DimensionMismatch(f"signal rows shape {out.shape} != {(h1 - h0, m)}")
    return out


def check_steps(n_steps, width):
    """InvalidConfig unless numpy can index (2 * n_steps + 1) * width
    elements, the caller's bound on each array a run of n_steps steps
    allocates.  n_steps may be a float, inf included, checked before int()."""
    if not (2 * n_steps + 1) * width <= np.iinfo(np.intp).max:
        raise InvalidConfig(
            f"{n_steps:.3g} steps need arrays larger than numpy can allocate")


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid simulation record with running cost integrals."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    running_cost: np.ndarray
    running_ju: np.ndarray

    @property
    def cost(self):
        return float(self.running_cost[-1])

    @property
    def ju(self):
        return float(self.running_ju[-1])


def integrate(sys, k, x0, t_final, dt, cost=None):
    """Simulate the MasSystem's closed loop u = -K x and return a Trajectory.

    running_cost integrates x'Qx + u'Ru of the CostSpec cost, or zero when
    cost is None; running_ju accumulates u'u always.  The trajectory has
    n_steps + 1 = round(t_final / dt) + 1 rows; raises InvalidConfig when
    numpy cannot index that many, and StateBlowup when a state entry exceeds
    DEFAULT_GUARD in magnitude.
    """
    x0 = np.asarray(x0, dtype=float)
    if not 0 < dt < np.inf:
        raise InvalidConfig(f"dt={dt} must be positive and finite")
    if not 0 < t_final < np.inf:
        raise InvalidConfig(f"t_final={t_final} must be positive and finite")
    n_steps = round(t_final / dt, 0)
    if n_steps < 1:
        raise InvalidConfig(f"t_final={t_final} shorter than one step dt={dt}")
    plant = sys.black_box()
    check_steps(n_steps, plant.n_states + plant.n_inputs)
    n_steps = int(n_steps)

    if cost is None:
        q = np.zeros((plant.n_states, plant.n_states))
        r = np.zeros((plant.n_inputs, plant.n_inputs))
    else:
        q, r = assemble_q(cost), cost.r
    xs, us, c, ju, status, last = plant.rollout(k, x0, dt, n_steps, q, r)
    if status == _kernels.BLOWUP:
        raise StateBlowup(f"state exceeded guard {DEFAULT_GUARD:g} at step {last}")
    return Trajectory(np.arange(n_steps + 1) * dt, xs, us, c, ju)


# ---------------------------------------------------------------------------
# scenario builders
# ---------------------------------------------------------------------------


def example1_agents(n_agents, n=4, m=2):
    """Benchmark agent family: stable two-block dynamics, heavier actuation
    for later agents.  n=4/m=2 is the base size; n=8/m=4 is its 2x lift."""
    if (n, m) not in ((4, 2), (8, 4)):
        raise InvalidConfig(f"supported agent sizes are (4,2) and (8,4), got ({n},{m})")
    agents = []
    for i in range(1, n_agents + 1):
        gain = i / (i + 1.0)
        a = np.block([
            [-np.eye(2), np.eye(2)],
            [np.zeros((2, 2)), -gain * np.eye(2)],
        ])
        b = np.vstack([np.zeros((2, 2)), gain * np.eye(2)])
        if n == 8:
            a = np.kron(a, np.eye(2))
            b = np.kron(b, np.eye(2))
        agents.append((a, b))
    return agents


def clique_path_graph(s_cliques, c):
    """Chain of s complete graphs on c nodes, joined by single edges from the
    last node of each clique to the first node of the next."""
    if s_cliques < 1 or c < 1:
        raise InvalidConfig("need s_cliques >= 1 and c >= 1")
    n_agents = s_cliques * c
    edges = []
    for k in range(s_cliques):
        base = k * c
        edges.extend((base + i, base + j) for i in range(c) for j in range(i + 1, c))
    for k in range(s_cliques - 1):
        edges.append(((k + 1) * c - 1, (k + 1) * c))
    return CostGraph.from_edges(n_agents, edges)


def clique_decomposition(s_cliques, c):
    """Decomposition whose clusters are the consecutive cliques."""
    return Decomposition.from_assignment(
        [k for k in range(s_cliques) for _ in range(c)]
    )


def clique_path_scenario(s_cliques, c, n=4, m=2):
    """(MasSystem, CostSpec) for the clique-path benchmark.

    Cost: Qbar = 0.5 I, Qtilde = I_n, G = clique-path Laplacian, R = I.
    """
    graph = clique_path_graph(s_cliques, c)
    mas = MasSystem(example1_agents(graph.n_agents, n, m))
    spec = CostSpec.homogeneous(graph, 0.5 * np.eye(n), np.eye(n), np.eye(m))
    return mas, spec


def five_node_scenario():
    """(MasSystem, CostSpec) for the five-node demo graph.

    Unit-weight edges {1-2, 2-3, 1-4, 2-5, 4-5} (1-based); the decomposition
    {1,2},{3},{4,5} leaves clusters {3} and {4,5} uncoupled (kappa = 2,
    tr(G2) = 6), while {1},{2,3},{4,5} couples every cluster pair (kappa = 0).
    """
    graph = CostGraph.from_edges(5, [(0, 1), (1, 2), (0, 3), (1, 4), (3, 4)])
    mas = MasSystem(example1_agents(5))
    spec = CostSpec.homogeneous(graph, 0.5 * np.eye(4), np.eye(4), np.eye(2))
    return mas, spec


@dataclass(frozen=True)
class FormationScenario:
    """Planar point-mass formation maneuver parameters.

    States per agent are (position error, velocity) in the target-relative
    coordinates x_i = (q_i - h_i, qdot_i).  Leaders anchor the formation via
    a unit diagonal weight in the cost.  InvalidConfig at construction unless
    leaders is one or more distinct agent ids 0..N-1.
    """

    masses: list
    damping: list
    formation_graph: CostGraph
    leaders: tuple
    targets: np.ndarray
    initial_positions: np.ndarray
    initial_velocities: np.ndarray
    disturbance_amps: np.ndarray | None = None

    def __post_init__(self):
        n, leaders = self.n_agents, self.leaders
        agents = all(isinstance(u, (int, np.integer)) and 0 <= u < n for u in leaders)
        if not (leaders and agents and len(set(leaders)) == len(leaders)):
            raise InvalidConfig(
                f"leaders {leaders} are not one or more distinct agents 0..{n - 1}")

    @property
    def n_agents(self):
        return self.formation_graph.n_agents

    @property
    def constraints(self):
        """The decomposition rules: a leader in every cluster, and each
        cluster's formation subgraph connected."""
        return ConstraintSet(leaders=self.leaders, require_connected=True)


class _CosDecayDisturbance:
    """d(t) = amps * cos(t)/(t+1), stacked over agents."""

    def __init__(self, amps_flat):
        self.amps = np.asarray(amps_flat, dtype=float)

    def table(self, h, n):
        """rows(i0, i1): d(i h) for i0 <= i < i1, elementwise in time."""

        def rows(i0, i1):
            ts = np.arange(i0, i1) * h
            return np.outer(np.cos(ts) / (ts + 1.0), self.amps)

        return rows


def default_formation(n_cols=4, n_rows=3, leaders=(0, 7, 11)):
    """The documented 12-agent mesh formation.

    Agents sit on an n_cols x n_rows unit grid, numbered column-major (agent 0
    bottom-left, columns left to right).  The mesh has all horizontal and
    vertical grid edges.  The maneuver translates the group +6 in x while
    compressing row spacing to 0.4 (a gathering pass through a narrow gap).
    Masses M_i = diag((i+1)/2, i/2), damping C_i = diag(i/4, i/5), and
    disturbance amplitudes (0.05 i, 0.1 i), all for 1-based agent number i.
    """
    n_agents = n_cols * n_rows

    def node(col, row):
        return col * n_rows + row

    edges = []
    for col in range(n_cols):
        for row in range(n_rows - 1):
            edges.append((node(col, row), node(col, row + 1)))
    for row in range(n_rows):
        for col in range(n_cols - 1):
            edges.append((node(col, row), node(col + 1, row)))
    graph = CostGraph.from_edges(n_agents, edges)

    positions = np.zeros((n_agents, 2))
    targets = np.zeros((n_agents, 2))
    for col in range(n_cols):
        for row in range(n_rows):
            u = node(col, row)
            positions[u] = (1.0 * col, 1.0 * row)
            targets[u] = (1.0 * col + 6.0, 1.0 + (row - 1) * 0.4)

    masses, damping, amps = [], [], np.zeros((n_agents, 2))
    for u in range(n_agents):
        i = u + 1
        masses.append(np.diag([(i + 1) / 2.0, i / 2.0]))
        damping.append(np.diag([i / 4.0, i / 5.0]))
        amps[u] = (0.05 * i, 0.1 * i)

    return FormationScenario(
        masses=masses,
        damping=damping,
        formation_graph=graph,
        leaders=tuple(leaders),
        targets=targets,
        initial_positions=positions,
        initial_velocities=np.zeros((n_agents, 2)),
        disturbance_amps=amps,
    )


def build_formation(scn):
    """Realize a FormationScenario as (MasSystem, CostSpec, baseline_k, x0).

    Dynamics per agent: A_i = [[0, I], [0, -M_i^{-1} C_i]], B_i = [0; M_i^{-1}]
    on the state (q_i - h_i, qdot_i).  Cost: Q = (L + Lambda) (x) I_4 with
    Lambda the diagonal with 1 at each leader and 0 elsewhere, R = I.  The
    baseline stabilization law is position-only feedback over the complete
    graph:
    u = -((L_complete + Lambda) (x) [I 0]) x.
    """
    n_agents = scn.n_agents
    if not scn.formation_graph.connected():
        raise InvalidConfig("formation graph must be connected")

    agents = []
    for m_i, c_i in zip(scn.masses, scn.damping):
        m_inv = np.linalg.inv(m_i)
        a = np.block([
            [np.zeros((2, 2)), np.eye(2)],
            [np.zeros((2, 2)), -m_inv @ c_i],
        ])
        b = np.vstack([np.zeros((2, 2)), m_inv])
        agents.append((a, b))

    lam = np.zeros(n_agents)
    lam[list(scn.leaders)] = 1.0
    qbar_blocks = [lam[u] * np.eye(4) for u in range(n_agents)]
    spec = CostSpec(
        graph=scn.formation_graph,
        qbar_blocks=qbar_blocks,
        qtilde=np.eye(4),
        r_blocks=[np.eye(2)] * n_agents,
    )

    disturbance = None
    if scn.disturbance_amps is not None:
        disturbance = _CosDecayDisturbance(np.asarray(scn.disturbance_amps).reshape(-1))
    mas = MasSystem(agents, disturbance=disturbance)

    complete = CostGraph.from_edges(
        n_agents,
        [(i, j) for i in range(n_agents) for j in range(i + 1, n_agents)],
    )
    s1 = np.hstack([np.eye(2), np.zeros((2, 2))])
    baseline_k = np.kron(complete.laplacian + np.diag(lam), s1)

    x0 = np.zeros(4 * n_agents)
    for u in range(n_agents):
        x0[4 * u:4 * u + 2] = scn.initial_positions[u] - scn.targets[u]
        x0[4 * u + 2:4 * u + 4] = scn.initial_velocities[u]

    return mas, spec, baseline_k, x0


def initial_gains(mas, dec):
    """White-box stabilizing initial gains per cluster, to seed the model-free
    learner: zero when the doubling certificate (matops._hurwitz) proves A_j
    Hurwitz, to the margin matops.CARE_MAX_ITER sets, which refuses a
    marginal mode; else the unit-cost LQR gain, which is stabilizing with
    moderate norm, as aggressive pre-stabilizers flatten the state response
    and degrade the learner's regressor conditioning.  A cluster's HlqrError
    is raised again as the same type, prefixed with the cluster and its agents.
    """
    out = []
    for j in range(dec.s):
        a_j, b_j = mas.cluster(dec, j)
        if _hurwitz(a_j):
            out.append(np.zeros((b_j.shape[1], b_j.shape[0])))
            continue
        try:
            p0 = solve_care(a_j, b_j, np.eye(a_j.shape[0]), np.eye(b_j.shape[1]))
        except HlqrError as exc:
            raise type(exc)(f"{dec.cluster_name(j)}: {exc}") from exc
        out.append(b_j.T @ p0)
    return out


def cluster_plants(mas, dec):
    """Black-box plant handles for each cluster of a white-box system.

    Each handle wraps (A_j, B_j) and the disturbance read at the cluster's
    input channels; downstream callers only see trajectory data.
    """
    plants = []
    for j in range(dec.s):
        a_j, b_j = mas.cluster(dec, j)
        channels = np.asarray(dec.state_indices(j, mas.m), dtype=int)
        plants.append(BlackBoxPlant(a_j, b_j, mas.disturbance, channels))
    return plants
