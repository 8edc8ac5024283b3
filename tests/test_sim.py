"""Simulation, cost evaluation, and the bundled benchmark scenarios."""

import numpy as np
import pytest

from hlqr import graphcost, hierctrl, matops, sim
from hlqr.errors import InvalidConfig, NonStabilizable, StateBlowup, UnstableClosedLoop
from hlqr.graphcost import CostGraph, Decomposition, check_assumptions
from hlqr.sim import MasSystem, integrate
from oracles import (
    Pointwise,
    bfs_connected,
    enumerate_partitions,
    evaluate_cost,
    half_grid_table,
    integrate_callable,
    neighbours,
    quadrature_cost,
)


def decay_system(n_agents=2):
    agents = [(-np.eye(2), np.zeros((2, 1))) for _ in range(n_agents)]
    return MasSystem(agents)


class TestIntegrate:
    def test_exponential_decay(self):
        mas = decay_system()
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        traj = integrate(mas, np.zeros((2, 4)), x0, 1.0, 1e-3)
        assert np.allclose(traj.states[-1], np.exp(-1.0) * x0, atol=1e-8)
        assert traj.times[-1] == pytest.approx(1.0)

    def test_callable_matches_gain_path(self):
        mas, spec = sim.clique_path_scenario(2, 2, n=4, m=2)
        k = np.zeros((8, 16))
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(16)
        t1 = integrate(mas, k, x0, 0.5, 1e-3, cost=spec)
        t2 = integrate_callable(mas, lambda t, x: -k @ x, x0, 1e-3, 500,
                                graphcost.assemble_q(spec), spec.r,
                                sim.DEFAULT_GUARD)
        assert np.allclose(t1.states, t2.states, atol=1e-12)
        assert np.allclose(t1.running_cost, t2.running_cost, atol=1e-10)

    def test_running_costs_nondecreasing(self):
        mas, spec = sim.clique_path_scenario(2, 2)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(16)
        traj = integrate(mas, np.zeros((8, 16)), x0, 2.0, 1e-3, cost=spec)
        assert np.all(np.diff(traj.running_cost) >= 0.0)
        assert np.all(np.diff(traj.running_ju) >= 0.0)

    def test_blowup_raises(self):
        agents = [(np.array([[0.5]]), np.array([[1.0]]))]
        mas = MasSystem(agents)
        with pytest.raises(StateBlowup):
            integrate(mas, np.zeros((1, 1)), np.array([1.0]), 60.0, 1e-2)

    def test_disturbance_enters_through_b(self):
        # B = 0 makes the disturbance invisible; B = I makes it act
        quiet = MasSystem([(-np.eye(1), np.zeros((1, 1)))],
                          disturbance=Pointwise(lambda t: np.array([1.0])))
        traj = integrate(quiet, np.zeros((1, 1)), np.array([1.0]), 1.0, 1e-3)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8

        driven = MasSystem([(-np.eye(1), np.eye(1))],
                           disturbance=Pointwise(lambda t: np.array([1.0])))
        traj = integrate(driven, np.zeros((1, 1)), np.array([0.0]), 5.0, 1e-3)
        # step response toward the forced equilibrium: x(t) = 1 - exp(-t)
        assert abs(traj.states[-1, 0] - (1.0 - np.exp(-5.0))) < 1e-8

    def test_zero_feedback_recorded_as_positive_zero(self):
        # K x is exactly zero in channel 1 throughout: u = -K x records it
        # as +0.0, as u = 0 - K x does, never as -0.0
        mas = MasSystem([(-np.eye(2), np.eye(2))])
        k = np.array([[1.0, 0.0], [0.0, 2.0]])
        traj = integrate(mas, k, np.array([1.0, 0.0]), 1.0, 1e-2)
        assert np.all(traj.inputs[:, 0] < 0.0)
        assert not np.any(traj.inputs[:, 1])
        assert not np.any(np.signbit(traj.inputs[:, 1]))

    def test_config_guards(self):
        mas = decay_system()
        with pytest.raises(InvalidConfig):
            integrate(mas, np.zeros((2, 4)), np.ones(4), 1e-5, 1e-3)


class TestCostEvaluation:
    def test_analytic_matches_quadrature(self):
        mas, spec = sim.clique_path_scenario(2, 2)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(16)
        a, b = mas.a_full, mas.b_full
        p = matops.solve_care(a, b, graphcost.assemble_q(spec), spec.r)
        k = np.linalg.solve(spec.r, b.T @ p)
        j, ju = evaluate_cost(mas, spec, k, x0)
        jq, juq = quadrature_cost(mas, spec, k, x0)
        assert jq == pytest.approx(j, rel=1e-3)
        assert juq == pytest.approx(ju, rel=1e-3)

    def test_optimal_gain_value_identity(self):
        mas, spec = sim.clique_path_scenario(2, 2)
        rng = np.random.default_rng(7)
        a, b = mas.a_full, mas.b_full
        p = matops.solve_care(a, b, graphcost.assemble_q(spec), spec.r)
        k = np.linalg.solve(spec.r, b.T @ p)
        for _ in range(5):
            x0 = rng.standard_normal(16)
            j, _ = evaluate_cost(mas, spec, k, x0)
            assert j == pytest.approx(float(x0 @ p @ x0), rel=1e-8)

    def test_unstable_gain_rejected(self):
        mas, spec, _, x0 = sim.build_formation(sim.default_formation())
        with pytest.raises(UnstableClosedLoop):
            evaluate_cost(mas, spec, np.zeros((24, 48)), x0)
        with pytest.raises(UnstableClosedLoop):
            quadrature_cost(mas, spec, np.zeros((24, 48)), x0)


class TestAccessModes:
    def test_plant_handle_dimensions(self):
        mas, _ = sim.clique_path_scenario(2, 3)
        plant = mas.black_box()
        assert plant.n_states == 24
        assert plant.n_inputs == 12
        assert not hasattr(plant, "a_full")

    def test_cluster_plants_slice_disturbance(self):
        mas, spec, _, _ = sim.build_formation(sim.default_formation())
        dec = Decomposition.from_assignment([0] * 6 + [1] * 3 + [2] * 3)
        plants = sim.cluster_plants(mas, dec)
        assert [p.n_states for p in plants] == [24, 12, 12]
        assert [p.n_inputs for p in plants] == [12, 6, 6]
        # each plant reads its own agents' columns of the disturbance
        whole = half_grid_table(mas.disturbance, 1e-3, 100)
        for j, plant in enumerate(plants):
            rows = plant._half_grid(plant._dist, 1e-3, 100, plant._channels)
            want = whole[50:90, dec.state_indices(j, mas.m)]
            assert rows[50:90].tobytes() == want.tobytes()


class TestCliquePathScenario:
    def test_graph_shape(self):
        graph = sim.clique_path_graph(3, 3)
        assert graph.n_agents == 9
        assert len(graph.edges()) == 11
        assert np.trace(graph.laplacian) == pytest.approx(22.0)

    def test_single_clique(self):
        graph = sim.clique_path_graph(1, 4)
        assert len(graph.edges()) == 6
        dec = Decomposition.from_assignment([0] * 4)
        parts = graphcost.split_graph(graph, dec)
        assert np.allclose(parts.g2, 0.0)

    def test_agent_parametrization(self):
        agents = sim.example1_agents(3)
        a1, b1 = agents[0]
        g = 1.0 / 2.0
        assert np.allclose(a1, np.block([
            [-np.eye(2), np.eye(2)],
            [np.zeros((2, 2)), -g * np.eye(2)],
        ]))
        assert np.allclose(b1, np.vstack([np.zeros((2, 2)), g * np.eye(2)]))

    def test_agent_dimension_lift(self):
        agents = sim.example1_agents(2, n=8, m=4)
        assert agents[0][0].shape == (8, 8)
        assert agents[0][1].shape == (8, 4)
        with pytest.raises(InvalidConfig):
            sim.example1_agents(2, n=6, m=3)

    def test_decomposition_helper(self):
        dec = sim.clique_decomposition(3, 3)
        assert dec.clusters() == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]


class TestFormationScenario:
    def test_mesh_geometry(self):
        scn = sim.default_formation()
        assert scn.n_agents == 12
        assert len(scn.formation_graph.edges()) == 17
        assert scn.leaders == (0, 7, 11)
        assert scn.formation_graph.connected()

    def test_state_coordinates(self):
        _, _, _, x0 = sim.build_formation(sim.default_formation())
        # agent 1 starts at (0,0) targeting (6, 0.6); velocities zero
        assert np.allclose(x0[:4], [-6.0, -0.6, 0.0, 0.0])
        assert np.allclose(x0[-4:], [-6.0, 0.6, 0.0, 0.0])

    def test_cost_positive_definite(self):
        _, spec, _, _ = sim.build_formation(sim.default_formation())
        q = graphcost.assemble_q(spec)
        assert np.linalg.eigvalsh(q)[0] == pytest.approx(0.18948120161476234,
                                                         rel=1e-9)

    def test_baseline_stabilizes(self):
        mas, _, baseline_k, _ = sim.build_formation(sim.default_formation())
        alpha = matops.abscissa(mas.a_full - mas.b_full @ baseline_k)
        assert alpha == pytest.approx(-0.12708303743090554, rel=1e-9)

    def test_leaderless_rejected(self):
        scn = sim.default_formation()
        from dataclasses import replace
        with pytest.raises(InvalidConfig):
            sim.build_formation(replace(scn, leaders=()))

    @pytest.mark.parametrize("leaders", [
        (0, 7, 12), (-1, 0, 7), (0, 7, 7), (0, 7.0, 11), (0, "7", 11),
    ])
    def test_bad_leaders_rejected(self, leaders):
        from dataclasses import replace
        with pytest.raises(InvalidConfig, match="distinct agents"):
            replace(sim.default_formation(), leaders=leaders)
        with pytest.raises(InvalidConfig, match="distinct agents"):
            sim.default_formation(leaders=leaders)

    def test_optimal_beats_baseline(self):
        mas, spec, baseline_k, x0 = sim.build_formation(sim.default_formation())
        a, b = mas.a_full, mas.b_full
        p = matops.solve_care(a, b, graphcost.assemble_q(spec), spec.r)
        k_star = np.linalg.solve(spec.r, b.T @ p)
        j_opt, ju_opt = evaluate_cost(mas, spec, k_star, x0)
        j_base, ju_base = evaluate_cost(mas, spec, baseline_k, x0)
        assert j_opt < j_base
        assert ju_opt < ju_base

    def test_decomposition_metrics_frozen(self):
        # model-based reference values for the three documented decompositions
        mas, spec, _, _ = sim.build_formation(sim.default_formation())
        rows = [
            ((6, 3, 3), 18, 12.0, 48, 248.72788320108236),
            ((1, 10, 1), 1, 8.0, 65, 341.2891716520614),
            ((7, 2, 3), 0, 12.0, 66, 279.14262967890676),
        ]
        for sizes, want_kappa, want_tr, want_nc, want_cond in rows:
            labels = []
            for cid, size in enumerate(sizes):
                labels.extend([cid] * size)
            dec = Decomposition.from_assignment(labels)
            assert graphcost.kappa(spec.graph, dec) == want_kappa
            parts = graphcost.split_graph(spec.graph, dec)
            assert np.trace(parts.g2) == pytest.approx(want_tr)
            gain = hierctrl.hierarchical_gain(mas, spec, dec)
            _, n_c = graphcost.comm_links(gain.k_h, 4, 2)
            assert n_c == want_nc
            report, *_ = hierctrl.gap_report(mas, spec, dec, gain)
            assert report.cond_p == pytest.approx(want_cond, rel=1e-6)


def test_initial_gains_failure_names_cluster():
    # agent 2 has an unstable mode and no input: cluster 1 has no gain
    mas = MasSystem([(-np.eye(1), np.eye(1)), (np.eye(1), np.zeros((1, 1)))])
    dec = Decomposition.from_assignment([0, 1])
    with pytest.raises(NonStabilizable, match=r"^cluster 1 \(agent 2\): "):
        sim.initial_gains(mas, dec)


class TestClusterFeasibility:
    def leaders_scn(self):
        return sim.default_formation()

    def test_leader_singletons_feasible(self):
        scn = self.leaders_scn()
        # every cluster anchored: {0}, {7}, {11} plus the rest split between
        dec = Decomposition.from_assignment([0] * 4 + [1] * 4 + [2] * 4)
        assert scn.constraints.admits(scn.formation_graph, dec.assignment)

    def test_no_leader_infeasible(self):
        scn = self.leaders_scn()
        dec = Decomposition.from_assignment([0, 1, 1] + [2] * 9)
        assert not scn.constraints.admits(scn.formation_graph, dec.assignment)

    def test_disconnected_cluster_infeasible(self):
        scn = self.leaders_scn()
        # agents 0 (col 0) and 11 (col 3) share no mesh edge in this cluster
        dec = Decomposition.from_assignment([0] + [1] * 7 + [2] * 3 + [0])
        assert not scn.constraints.admits(scn.formation_graph, dec.assignment)

    def test_matches_brute_force_rules(self):
        # scn.constraints.admits applies the rules the formation
        # search is given; here they are checked from the leaders and the
        # mesh directly, on every 2-cluster partition
        scn = self.leaders_scn()
        nbrs = neighbours(scn.formation_graph)
        verdicts = set()
        for dec in enumerate_partitions(12, 2):
            want = all(set(scn.leaders) & set(members)
                       and bfs_connected(nbrs, members)
                       for members in dec.clusters())
            assert scn.constraints.admits(scn.formation_graph, dec.assignment) == want, \
                dec.label()
            verdicts.add(want)
        assert verdicts == {True, False}

    @staticmethod
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

    def test_matches_cost_observability(self):
        # per-cluster observability of the decomposed cost holds exactly when
        # every connected component of the cluster subgraph holds an anchored
        # agent; the (leader AND connected) verdict is sufficient but leaves
        # out multi-component clusters whose components are each anchored
        rng = np.random.default_rng(83)
        checked = 0
        verdict_gap_seen = 0
        while checked < 200:
            n = int(rng.integers(4, 9))
            edges = {(i, i + 1) for i in range(n - 1)}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        edges.add((i, j))
            graph = CostGraph.from_edges(n, sorted(edges))
            n_leaders = int(rng.integers(1, n + 1))
            leaders = tuple(sorted(rng.choice(n, size=n_leaders,
                                              replace=False).tolist()))
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
            assignment = rng.integers(0, s, size=n)
            if len(set(assignment.tolist())) != s:
                continue
            dec = Decomposition.from_assignment(assignment.tolist())
            report = check_assumptions(mas, spec, dec)
            for j, members in enumerate(dec.clusters()):
                stated = (bool(set(leaders).intersection(members))
                          and graph.connected(members))
                anchored_components = all(
                    comp.intersection(leaders)
                    for comp in self.components(graph, members))
                assert anchored_components == report.detectable[j], (
                    f"leaders={leaders} cluster={members}")
                if stated:
                    assert report.detectable[j]
                elif anchored_components:
                    verdict_gap_seen += 1
                checked += 1
        # the randomized sweep must actually exercise the gap case
        assert verdict_gap_seen > 0
