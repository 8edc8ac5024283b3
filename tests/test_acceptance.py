"""End-to-end acceptance gate.

Twelve numbered criteria, run in order, one test each and two for
criterion 11.  Every test prints a single "criterion NN PASS" line on
success; a failure reads as the criterion number in the pytest report.
Oracles here are kept independent of the library: partitions are
enumerated with a local recursive generator and the graph metrics are
recomputed from the edge list directly.
"""

import numpy as np
import pytest

from hlqr import adp, cli, graphcost, hierctrl, matops, partition, sim
from hlqr.errors import NonStabilizable
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
)
from hlqr.hierctrl import gap_report, hierarchical_gain
from hlqr.partition import PartitionProblem, max_kappa, min_scut
from oracles import evaluate_cost

SQRT2_M1 = 0.41421356237309515


# ---------------------------------------------------------------------------
# independent oracles and generators
# ---------------------------------------------------------------------------


def all_assignments(n_agents, s):
    """Every partition of {0..n-1} into exactly s clusters, first-use labels."""
    out = []
    prefix = []

    def rec(used):
        idx = len(prefix)
        if used + (n_agents - idx) < s:
            return
        if idx == n_agents:
            if used == s:
                out.append(tuple(prefix))
            return
        for c in range(min(used + 1, s)):
            prefix.append(c)
            rec(used + (1 if c == used else 0))
            prefix.pop()

    rec(0)
    return out


def partition_metrics(edges, assign, s):
    """(kappa, cut weight) of one assignment, from the edge list alone."""
    adj = set()
    cut = 0.0
    for i, j, w in edges:
        a, b = assign[i], assign[j]
        if a != b:
            cut += w
            adj.add((a, b) if a < b else (b, a))
    sizes = [0] * s
    for c in assign:
        sizes[c] += 1
    kap = 0
    for a in range(s):
        for b in range(a + 1, s):
            if (a, b) not in adj:
                kap += sizes[a] * sizes[b]
    return kap, cut


def random_connected_graph(rng, n_agents, extra_p=0.35):
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n_agents)}
    for i in range(n_agents):
        for j in range(i + 1, n_agents):
            if rng.random() < extra_p:
                edges.add((i, j))
    return CostGraph.from_edges(n_agents, sorted(edges))


def random_instance(rng, max_agents=6, max_n=4):
    """Random coupled system + decomposition passing the standing checks."""
    while True:
        n_agents = int(rng.integers(2, max_agents + 1))
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(1, n + 1))
        graph = random_connected_graph(rng, n_agents)
        qbar = np.diag(rng.uniform(0.4, 1.6, size=n))
        qtilde = np.diag(rng.uniform(0.2, 1.0, size=n))
        r = np.diag(rng.uniform(0.5, 1.5, size=m))
        agents = [
            (rng.normal(0.0, 0.8, size=(n, n)) - 0.5 * np.eye(n),
             rng.normal(0.0, 1.0, size=(n, m)))
            for _ in range(n_agents)
        ]
        mas = sim.MasSystem(agents)
        spec = CostSpec.homogeneous(graph, qbar, qtilde, r)
        if n_agents < 2:
            continue
        s = int(rng.integers(2, min(4, n_agents) + 1))
        for _ in range(60):
            assignment = rng.integers(0, s, size=n_agents).tolist()
            if len(set(assignment)) != s:
                continue
            dec = Decomposition.from_assignment(assignment)
            if check_assumptions(mas, spec, dec).ok:
                return mas, spec, dec


def random_formation(rng):
    """(graph, leaders, mas, spec, dec): a formation of 4 to 8 agents on a
    random connected graph with random leaders, decomposed into 2 or 3
    nonempty random clusters, whether or not they meet the assumptions."""
    while True:
        n = int(rng.integers(4, 9))
        graph = random_connected_graph(rng, n, extra_p=0.3)
        n_leaders = int(rng.integers(1, n + 1))
        leaders = tuple(sorted(
            rng.choice(n, size=n_leaders, replace=False).tolist()))
        scn = sim.FormationScenario(
            masses=[np.diag([1.0 + u / 2.0, 1.0 + u / 3.0])
                    for u in range(n)],
            damping=[np.diag([0.5 + u / 4.0, 0.5 + u / 5.0])
                     for u in range(n)],
            formation_graph=graph,
            leaders=leaders,
            targets=np.zeros((n, 2)),
            initial_positions=np.zeros((n, 2)),
            initial_velocities=np.zeros((n, 2)),
        )
        mas, spec, _, _ = sim.build_formation(scn)
        s = int(rng.integers(2, min(n, 4)))
        assignment = rng.integers(0, s, size=n).tolist()
        if len(set(assignment)) == s:
            return graph, leaders, mas, spec, Decomposition.from_assignment(assignment)


def closed_loop_value(mas, spec, k):
    a_s = mas.a_full - mas.b_full @ k
    w = assemble_q(spec) + k.T @ spec.r @ k
    return matops.solve_lyapunov(a_s, matops.symmetrize(w))


def components(graph, members):
    adj = graph.adjacency()
    remaining = set(members)
    comps = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        stack = [seed]
        while stack:
            u = stack.pop()
            for v in list(remaining):
                if adj[u, v]:
                    remaining.remove(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_graph_counts_exact():
    mas, spec = sim.clique_path_scenario(3, 3)
    cases = [
        ([0, 0, 1, 1, 1, 1, 1, 2, 2], 4, 8, 32),
        ([0, 0, 0, 1, 1, 1, 2, 2, 2], 9, 4, 27),
        ([0, 0, 0, 1, 2, 2, 2, 2, 2], 15, 6, 21),
    ]
    for assignment, kap_want, trg2_want, n_c_want in cases:
        dec = Decomposition.from_assignment(assignment)
        parts = graphcost.split_graph(spec.graph, dec)
        assert kappa(spec.graph, dec) == kap_want
        assert float(np.trace(parts.g2)) == float(trg2_want)
        gain = hierarchical_gain(mas, spec, dec)
        _, n_c = comm_links(gain.k_h, spec.n, spec.m)
        assert n_c == n_c_want
    print("criterion 01 PASS - kappa {4,9,15}, trace {8,4,6}, links "
          "{32,27,21} exact on the three reference decompositions")


def test_criterion_02_partition_search_optimal():
    rng = np.random.default_rng(211)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(4, 11))
        graph = random_connected_graph(rng, n)
        edges = graph.edges()
        for s in (2, 3, 4):
            if s > n:
                continue
            best_kap, best_cut = -1, float("inf")
            for assign in all_assignments(n, s):
                kap, cut = partition_metrics(edges, assign, s)
                best_kap = max(best_kap, kap)
                best_cut = min(best_cut, cut)
            res_k = max_kappa(PartitionProblem(graph, s))
            res_c = min_scut(PartitionProblem(graph, s))
            assert res_k.optimal and res_c.optimal
            assert res_k.value == float(best_kap)
            assert res_c.value == float(best_cut)
            checked += 1
    print(f"criterion 02 PASS - exact search matches enumeration on "
          f"{checked} graph/size cases")


def test_criterion_03_cost_sandwich():
    rng = np.random.default_rng(223)
    for _ in range(100):
        mas, spec, dec = random_instance(rng)
        gain = hierarchical_gain(mas, spec, dec)
        p_opt = matops.solve_care(mas.a_full, mas.b_full, assemble_q(spec),
                                  spec.r)
        u_mat = closed_loop_value(mas, spec, gain.k_h)
        p_script = dec.scatter(gain.p_blocks, spec.n, spec.n)
        dim = p_opt.shape[0]
        for _ in range(20):
            x0 = rng.standard_normal(dim)
            j_approx = x0 @ p_script @ x0
            j_opt = x0 @ p_opt @ x0
            j_h = x0 @ u_mat @ x0
            assert j_opt - j_approx >= -1e-8 * max(1.0, abs(j_opt))
            assert j_h - j_opt >= -1e-8 * max(1.0, abs(j_h))
    print("criterion 03 PASS - cluster value <= optimal value <= "
          "two-level cost on 100 instances x 20 states")


def test_criterion_04_expected_gap_identity():
    rng = np.random.default_rng(227)
    done = 0
    while done < 10:
        mas, spec, dec = random_instance(rng, max_agents=4, max_n=3)
        gain = hierarchical_gain(mas, spec, dec)
        report, *_ = gap_report(mas, spec, dec, gain)
        if report.trace_v <= 1e-8:
            continue
        p_opt = matops.solve_care(mas.a_full, mas.b_full, assemble_q(spec),
                                  spec.r)
        v_mat = closed_loop_value(mas, spec, gain.k_h) - p_opt
        sigma = float(rng.uniform(0.6, 1.4))
        dim = p_opt.shape[0]
        draws = sigma * rng.standard_normal((100_000, dim))
        mc = float(np.einsum("bi,ij,bj->b", draws, v_mat, draws).mean())
        want = sigma ** 2 * report.trace_v
        assert abs(mc - want) <= 0.05 * want
        done += 1
    print("criterion 04 PASS - Monte-Carlo mean gap within 5% of "
          "sigma^2 * trace on 10 instances")


def test_criterion_05_nonadjacent_zero_blocks():
    rng = np.random.default_rng(229)
    instances = [random_instance(rng) for _ in range(50)]
    mas_cp, spec_cp = sim.clique_path_scenario(3, 3)
    for assignment in ([0, 0, 1, 1, 1, 1, 1, 2, 2],
                       [0, 0, 0, 1, 1, 1, 2, 2, 2],
                       [0, 0, 0, 1, 2, 2, 2, 2, 2]):
        instances.append((mas_cp, spec_cp,
                          Decomposition.from_assignment(assignment)))
    blocks = 0
    for mas, spec, dec in instances:
        gain = hierarchical_gain(mas, spec, dec)
        adj = cluster_adjacency(spec.graph, dec)
        for a in range(dec.s):
            for b in range(a + 1, dec.s):
                if adj[a, b]:
                    continue
                rows = dec.state_indices(a, spec.m)
                cols = dec.state_indices(b, spec.m)
                block = gain.r_tilde[np.ix_(rows, cols)]
                assert np.max(np.abs(block)) <= 1e-10
                blocks += 1
        _, n_c = comm_links(gain.k_h, spec.n, spec.m)
        n_agents = spec.graph.n_agents
        assert n_c <= n_agents * (n_agents - 1) // 2 - kappa(spec.graph, dec)
    print(f"criterion 05 PASS - {blocks} non-adjacent coupling blocks at "
          f"zero; link counts never exceed the pair bound")


def test_criterion_06_closed_loop_stability():
    rng = np.random.default_rng(233)
    failures = 0
    for _ in range(1000):
        mas, spec, dec = random_instance(rng, max_agents=4, max_n=3)
        gain = hierarchical_gain(mas, spec, dec)
        if matops.abscissa(mas.a_full - mas.b_full @ gain.k_h) >= 0.0:
            failures += 1
    assert failures == 0
    print("criterion 06 PASS - 1000/1000 randomized closed loops Hurwitz")


def test_criterion_07_trace_bound_chain():
    rng = np.random.default_rng(239)
    violations = 0
    for _ in range(100):
        mas, spec, dec = random_instance(rng)
        gain = hierarchical_gain(mas, spec, dec)
        report, *_ = gap_report(mas, spec, dec, gain)
        assert not report.vacuous
        if report.trace_w > report.f1 + report.f2 + 1e-9 * max(
                1.0, report.f1 + report.f2):
            violations += 1
        if report.trace_v > report.trace_v_bound + 1e-9 * max(
                1.0, report.trace_v_bound):
            violations += 1
    assert violations == 0
    print("criterion 07 PASS - trace bounds hold on 100 instances, "
          "zero violations")


def test_criterion_08_best_kappa_monotone():
    rng = np.random.default_rng(241)
    for _ in range(30):
        n = int(rng.integers(4, 9))
        graph = random_connected_graph(rng, n, extra_p=0.3)
        edges = graph.edges()
        best = [0.0]
        for s in range(2, n + 1):
            best.append(max(
                partition_metrics(edges, assign, s)[0]
                for assign in all_assignments(n, s)
            ))
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        singleton = tuple(range(n))
        assert best[-1] == partition_metrics(edges, singleton, n)[0]
    print("criterion 08 PASS - best kappa nondecreasing in cluster count "
          "on 30 graphs; all-singleton value attained")


def test_criterion_09_learned_gain_oracle():
    # scalar closed form
    mas = sim.MasSystem([(np.array([[-1.0]]), np.array([[1.0]]))])
    graph = CostGraph.from_edges(1, [])
    spec = CostSpec.homogeneous(graph, np.eye(1), np.eye(1), np.eye(1))
    dec = Decomposition.from_assignment([0])
    plant = sim.cluster_plants(mas, dec)[0]
    res = adp.learn_cluster(plant, np.eye(1), np.eye(1),
                            adp.LearnConfig(seed=3, horizon=10.0))
    assert res.p_hat[0, 0] == pytest.approx(SQRT2_M1, abs=1e-4)

    # reference clusters of 4, 8, and 12 states
    rels = []
    for c in (1, 2, 3):
        mas, spec = sim.clique_path_scenario(3, c)
        dec = sim.clique_decomposition(3, c)
        plant = sim.cluster_plants(mas, dec)[0]
        qhat, rhat = cluster_costs(spec, dec)[0]
        res = adp.learn_cluster(plant, qhat, rhat,
                                adp.LearnConfig(seed=41 + c))
        a_j, b_j = mas.cluster(dec, 0)
        p_star = matops.solve_care(a_j, b_j, qhat, rhat)
        rel = np.linalg.norm(res.p_hat - p_star) / np.linalg.norm(p_star)
        assert rel <= 1e-3
        rels.append(rel)
    print(f"criterion 09 PASS - learned values match the Riccati solve: "
          f"scalar within 1e-4, cluster errors {[f'{r:.1e}' for r in rels]}")


def test_criterion_10_suboptimality_trend():
    rng = np.random.default_rng(251)
    means = []
    for c in (2, 3, 4):
        mas, spec = sim.clique_path_scenario(3, c)
        dec = sim.clique_decomposition(3, c)
        gain = hierarchical_gain(mas, spec, dec)
        p_opt = matops.solve_care(mas.a_full, mas.b_full, assemble_q(spec),
                                  spec.r)
        u_mat = closed_loop_value(mas, spec, gain.k_h)
        dim = p_opt.shape[0]
        x0s = cli.draw_x0("uniform_pm1", rng, dim, 200)
        j_h = np.einsum("bi,ij,bj->b", x0s, u_mat, x0s)
        j_o = np.einsum("bi,ij,bj->b", x0s, p_opt, x0s)
        keep = j_o > 0
        sops = (j_h[keep] - j_o[keep]) / j_o[keep]
        assert np.all(sops >= -1e-12)
        means.append(float(sops.mean()))
    assert means[0] > means[1] > means[2] >= 0.0
    print(f"criterion 10 PASS - mean suboptimality falls with cluster size: "
          f"{[f'{v:.4f}' for v in means]}")


def test_criterion_11_feasibility_observability():
    # The per-cluster detectability check agrees exactly with anchored
    # connected components: every component of the cluster subgraph must
    # contain a leader.  The one-leader-and-connected shortcut is verified
    # sufficient; multi-component clusters whose components are all anchored
    # are the (correctly observable) cases it leaves out.
    rng = np.random.default_rng(257)
    checked = 0
    gap_cases = 0
    while checked < 200:
        graph, leaders, mas, spec, dec = random_formation(rng)
        report = check_assumptions(mas, spec, dec)
        for j, members in enumerate(dec.clusters()):
            anchored = all(
                set(leaders).intersection(comp)
                for comp in components(graph, members)
            )
            stated = bool(set(leaders).intersection(members)) and \
                graph.connected(members)
            assert report.detectable[j] == anchored
            if stated:
                assert report.detectable[j]
            if stated != report.detectable[j]:
                gap_cases += 1
            checked += 1
    print(f"criterion 11 PASS - observability equals component anchoring on "
          f"{checked} clusters; shortcut verdict sufficient, "
          f"{gap_cases} anchored multi-component clusters beyond it")


def test_criterion_11_synthesis_iff_assumptions():
    # Under the standing assumptions the doubling solves every cluster
    # Riccati equation, with a Hurwitz cluster closed loop; outside them
    # synthesis refuses, naming the first cluster check_assumptions fails
    # and its verdicts, rather than returning a marginal gain
    rng = np.random.default_rng(257)
    draws, solved = 300, 0
    for _ in range(draws):
        _, _, mas, spec, dec = random_formation(rng)
        report = check_assumptions(mas, spec, dec)
        if report.ok:
            gain = hierarchical_gain(mas, spec, dec)
            for j, (qhat_j, rhat_j) in enumerate(cluster_costs(spec, dec)):
                a_j, b_j = mas.cluster(dec, j)
                k_j = np.linalg.solve(rhat_j, b_j.T @ gain.p_blocks[j])
                assert matops.abscissa(a_j - b_j @ k_j) < 0.0
            solved += 1
            continue
        first = next(j for j in range(dec.s)
                     if not (report.stabilizable[j] and report.detectable[j]))
        with pytest.raises(NonStabilizable) as exc:
            hierarchical_gain(mas, spec, dec)
        msg = str(exc.value)
        assert msg.startswith(f"{dec.cluster_name(first)}: ")
        for name, held in (("stabilizable", report.stabilizable[first]),
                           ("detectable", report.detectable[first])):
            assert f"{name} {'holds' if held else 'fails'}" in msg
    assert 0 < solved < draws
    print(f"criterion 11 PASS - synthesis succeeds on exactly the {solved} of "
          f"{draws} formation instances that meet the assumptions")


def test_criterion_12_formation_dominance():
    mas, spec, baseline_k, x0 = sim.build_formation(sim.default_formation())
    p = matops.solve_care(mas.a_full, mas.b_full, assemble_q(spec), spec.r)
    k_star = np.linalg.solve(spec.r, mas.b_full.T @ p)

    j_opt, ju_opt = evaluate_cost(mas, spec, k_star, x0)
    j_base, ju_base = evaluate_cost(mas, spec, baseline_k, x0)
    assert j_opt < j_base
    assert ju_opt < ju_base

    # same ordering under the disturbed finite-horizon rollout
    traj_opt = sim.integrate(mas, k_star, x0, 30.0, 1e-3, cost=spec)
    traj_base = sim.integrate(mas, baseline_k, x0, 30.0, 1e-3, cost=spec)
    assert traj_opt.cost < traj_base.cost
    assert traj_opt.ju < traj_base.ju
    print(f"criterion 12 PASS - optimal beats baseline: J {traj_opt.cost:.1f}"
          f" < {traj_base.cost:.1f}, Ju {traj_opt.ju:.1f} < "
          f"{traj_base.ju:.1f} (disturbed rollout)")
