"""Two-level gain synthesis, coupling-weight structure, and gap reporting."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from hlqr import adp, cli, fileio, graphcost, hierctrl, matops, sim
from hlqr.errors import DimensionMismatch, RankDeficient, UnstableClosedLoop
from hlqr.graphcost import CostGraph, CostSpec, Decomposition
from hlqr.hierctrl import (
    assemble_gain,
    compute_rtilde,
    gap_report,
    hierarchical_gain,
    solve_clusters,
)
from oracles import care_residual, dense_gap_report


def pair_system(n=2, m=1):
    """Two coupled double-integrator-style agents, 4 states total."""
    a_i = np.array([[0.0, 1.0], [0.0, -0.5]])
    b_i = np.array([[0.0], [1.0]])
    graph = CostGraph.from_edges(2, [(0, 1)])
    mas = sim.MasSystem([(a_i, b_i), (a_i, b_i)])
    spec = CostSpec.homogeneous(graph, 0.5 * np.eye(2), np.eye(2), np.eye(1))
    return mas, spec


class TestSolveClusters:
    def test_single_cluster_is_centralized(self):
        mas, spec = sim.clique_path_scenario(2, 2)
        dec = Decomposition.from_assignment([0, 0, 0, 0])
        p_blocks, _ = solve_clusters(mas, spec, dec)
        p_full = matops.solve_care(mas.a_full, mas.b_full,
                                   graphcost.assemble_q(spec), spec.r)
        assert len(p_blocks) == 1
        assert np.allclose(p_blocks[0], p_full, atol=1e-8)

    def test_disconnected_graph_is_exact(self):
        # two uncoupled triangles: the cluster solves satisfy the full
        # Riccati equation because nothing is discarded
        edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        graph = CostGraph.from_edges(6, edges)
        mas = sim.MasSystem(sim.example1_agents(6))
        spec = CostSpec.homogeneous(graph, 0.5 * np.eye(4), np.eye(4),
                                    np.eye(2))
        dec = Decomposition.from_assignment([0, 0, 0, 1, 1, 1])
        parts = graphcost.split_graph(graph, dec)
        assert np.allclose(parts.g2, 0.0)
        gain = hierarchical_gain(mas, spec, dec)
        p_script = dec.scatter(gain.p_blocks, spec.n, spec.n)
        res = care_residual(mas.a_full, mas.b_full,
                            graphcost.assemble_q(spec), spec.r, p_script)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(p_script, "fro"))

    def test_cluster_residuals(self):
        mas, spec = sim.clique_path_scenario(3, 2)
        dec = sim.clique_decomposition(3, 2)
        p_blocks, pb_blocks = solve_clusters(mas, spec, dec)
        costs = graphcost.cluster_costs(spec, dec)
        for j in range(dec.s):
            a_j, b_j = mas.cluster(dec, j)
            qhat_j, rhat_j = costs[j]
            res = care_residual(a_j, b_j, qhat_j, rhat_j, p_blocks[j])
            assert res <= 1e-9 * (1.0 + np.linalg.norm(p_blocks[j], "fro"))
            assert np.allclose(pb_blocks[j], p_blocks[j] @ b_j, atol=1e-12)
            assert matops.is_psd(p_blocks[j])


class TestComputeRtilde:
    def test_no_coupling_gives_zero(self):
        # one cluster leaves G2 = 0: Rtilde and the global term are exactly
        # zero, and k_h is the centralized gain R^{-1} B' P_opt
        for mas, spec in (sim.clique_path_scenario(1, 3),
                          sim.clique_path_scenario(3, 3),
                          sim.five_node_scenario(),
                          sim.build_formation(sim.default_formation())[:2],
                          heterogeneous_instance(0)[:2]):
            dec = Decomposition.from_assignment([0] * mas.n_agents)
            gain = hierarchical_gain(mas, spec, dec)
            assert not gain.r_tilde.any() and not gain.k_global.any()
            a, b = mas.a_full, mas.b_full
            p_opt = matops.solve_care(a, b, graphcost.assemble_q(spec), spec.r)
            k_opt = np.linalg.solve(spec.r, b.T @ p_opt)
            assert np.linalg.norm(gain.k_h - k_opt) <= 1e-12 * np.linalg.norm(k_opt)

    def test_fully_actuated_identity(self):
        # square nonsingular input map: scriptP B Rtilde B' scriptP
        # reproduces the discarded coupling exactly
        a_i = np.array([[-1.0, 0.3], [0.0, -2.0]])
        graph = CostGraph.from_edges(5, [(0, 1), (1, 2), (0, 3), (1, 4),
                                         (3, 4)])
        mas = sim.MasSystem([(a_i, np.eye(2)) for _ in range(5)])
        spec = CostSpec.homogeneous(graph, 0.5 * np.eye(2), np.eye(2),
                                    np.eye(2))
        dec = Decomposition.from_assignment([0, 0, 1, 2, 2])
        gain = hierarchical_gain(mas, spec, dec)
        parts = graphcost.split_graph(graph, dec)
        g2q = np.kron(parts.g2, spec.qtilde)
        p = dec.scatter(gain.p_blocks, spec.n, spec.n)
        b = mas.b_full
        residual = g2q - p @ b @ gain.r_tilde @ b.T @ p
        assert np.linalg.norm(residual, "fro") <= 1e-10 * (
            1.0 + np.linalg.norm(g2q, "fro"))

    def test_tall_input_matches_vectorized_least_squares(self):
        # minimum-norm symmetric solution of (scriptP B) X (scriptP B)' ~ g2q
        mas, spec = pair_system()
        dec = Decomposition.from_assignment([0, 1])
        p_blocks, pb_blocks = solve_clusters(mas, spec, dec)
        parts = graphcost.split_graph(spec.graph, dec)
        g2q = np.kron(parts.g2, spec.qtilde)
        r_tilde = compute_rtilde(pb_blocks, spec, dec)

        pb = np.zeros((4, 2))
        for j, pb_j in enumerate(pb_blocks):
            six = dec.state_indices(j, 2)
            iix = dec.state_indices(j, 1)
            pb[np.ix_(six, iix)] = pb_j
        coeff = np.kron(pb, pb)
        sol, *_ = np.linalg.lstsq(coeff, g2q.reshape(-1), rcond=None)
        assert np.allclose(r_tilde.reshape(-1), sol, atol=1e-8)
        assert matops.is_psd(r_tilde)

    def test_dimension_guards(self):
        _, spec = pair_system()
        dec = Decomposition.from_assignment([0, 1])
        with pytest.raises(DimensionMismatch):
            compute_rtilde([np.ones((3, 3))] * 2, spec, dec)


class TestAssembleGain:
    def test_nonadjacent_blocks_exactly_zero(self):
        mas, spec = sim.five_node_scenario()
        dec = Decomposition.from_assignment([0, 0, 1, 2, 2])
        gain = hierarchical_gain(mas, spec, dec)
        # clusters {3} and {4,5} share no coupling: kappa = 2
        assert graphcost.kappa(spec.graph, dec) == 2
        m, n = spec.m, spec.n
        for i in [2]:
            for j in [3, 4]:
                assert np.all(gain.r_tilde[m * i:m * (i + 1),
                                           m * j:m * (j + 1)] == 0.0)
                assert np.all(gain.k_h[m * i:m * (i + 1),
                                       n * j:n * (j + 1)] == 0.0)
                assert np.all(gain.k_h[m * j:m * (j + 1),
                                       n * i:n * (i + 1)] == 0.0)

    def test_comm_link_counts(self):
        mas, spec = sim.clique_path_scenario(3, 3)
        dec = sim.clique_decomposition(3, 3)
        gain = hierarchical_gain(mas, spec, dec)
        _, n_c = graphcost.comm_links(gain.k_h, spec.n, spec.m)
        assert n_c == 27
        kap = graphcost.kappa(spec.graph, dec)
        assert n_c == 9 * 8 // 2 - kap
        # the centralized gain is dense
        p = matops.solve_care(mas.a_full, mas.b_full,
                              graphcost.assemble_q(spec), spec.r)
        k_star = np.linalg.solve(spec.r, mas.b_full.T @ p)
        _, n_c_star = graphcost.comm_links(k_star, spec.n, spec.m)
        assert n_c_star == 36

    def test_gain_decomposition_identity(self):
        mas, spec = sim.clique_path_scenario(3, 2)
        dec = sim.clique_decomposition(3, 2)
        gain = hierarchical_gain(mas, spec, dec)
        assert np.allclose(gain.k_h, gain.k_local + gain.k_global, atol=1e-14)
        assert np.allclose(gain.k_local,
                           np.linalg.solve(spec.r, gain.bt_p), atol=1e-12)
        assert matops.is_psd(gain.r_tilde)

    def test_closed_loop_stable(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            s = int(rng.integers(2, 4))
            c = int(rng.integers(2, 4))
            mas, spec = sim.clique_path_scenario(s, c)
            dec = sim.clique_decomposition(s, c)
            gain = hierarchical_gain(mas, spec, dec)
            alpha = matops.abscissa(mas.a_full - mas.b_full @ gain.k_h)
            assert alpha < 0.0


class TestGapReport:
    def test_single_cluster_gap_free(self):
        mas, spec = sim.clique_path_scenario(2, 2)
        dec = Decomposition.from_assignment([0] * 4)
        gain = hierarchical_gain(mas, spec, dec)
        report, *_ = gap_report(mas, spec, dec, gain)
        assert report.trace_w <= 1e-10
        assert report.trace_v <= 1e-8
        assert report.expected_gap <= 1e-8
        assert abs(report.delta_j) <= 1e-6 * max(1.0, report.j_opt)
        assert abs(report.sop) <= 1e-7

    def test_cost_sandwich(self):
        # the expected costs of the report, and the costs from single
        # initial states read off the returned P_opt and U and scriptP
        mas, spec = sim.clique_path_scenario(3, 2)
        dec = sim.clique_decomposition(3, 2)
        gain = hierarchical_gain(mas, spec, dec)
        report, p_opt, u = gap_report(mas, spec, dec, gain)
        slack = 1e-9
        assert report.j_approx <= report.j_opt + slack * abs(report.j_opt)
        assert report.j_opt <= report.j_h + slack * abs(report.j_h)
        assert report.delta_j >= -slack
        assert report.sop >= -slack
        p_script = dec.scatter(gain.p_blocks, spec.n, spec.n)
        assert matops.is_psd(p_opt - p_script, tol=-1e-8)
        rng = np.random.default_rng(101)
        for _ in range(20):
            x0 = rng.standard_normal(24)
            j_approx, j_opt, j_h = (x0 @ m @ x0 for m in (p_script, p_opt, u))
            assert j_approx <= j_opt + slack * abs(j_opt)
            assert j_opt <= j_h + slack * abs(j_h)

    def test_expected_gap_monte_carlo(self):
        mas, spec = pair_system()
        dec = Decomposition.from_assignment([0, 1])
        gain = hierarchical_gain(mas, spec, dec)
        for sigma in (1.0, 0.7):
            report, *_ = gap_report(mas, spec, dec, gain, sigma=sigma)
            assert report.expected_gap == pytest.approx(
                sigma ** 2 * report.trace_v, rel=1e-12)
            rng = np.random.default_rng(103)
            draws = sigma * rng.standard_normal((100_000, 4))
            a, b = mas.a_full, mas.b_full
            q = graphcost.assemble_q(spec)
            p_opt = matops.solve_care(a, b, q, spec.r)
            a_s = a - b @ gain.k_h
            u = matops.solve_lyapunov(
                a_s, matops.symmetrize(q + gain.k_h.T @ spec.r @ gain.k_h))
            gaps = np.einsum("ij,jk,ik->i", draws, u - p_opt, draws)
            assert np.mean(gaps) == pytest.approx(report.expected_gap,
                                                  rel=5e-2)

    def test_gap_identity_value_difference(self):
        # tr-based report: j_h - j_opt equals the expected gap exactly
        mas, spec = sim.clique_path_scenario(2, 3)
        dec = sim.clique_decomposition(2, 3)
        gain = hierarchical_gain(mas, spec, dec)
        report, *_ = gap_report(mas, spec, dec, gain)
        assert report.delta_j == pytest.approx(report.trace_v, rel=1e-9)

    def test_error_bound_chain(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            s = int(rng.integers(2, 4))
            c = int(rng.integers(2, 3))
            mas, spec = sim.clique_path_scenario(s, c)
            dec = sim.clique_decomposition(s, c)
            gain = hierarchical_gain(mas, spec, dec)
            report, *_ = gap_report(mas, spec, dec, gain)
            assert not report.vacuous
            assert np.isfinite(report.f1) and report.f1 >= 0.0
            assert np.isfinite(report.f2)
            assert report.trace_w <= report.f1 + report.f2 + 1e-9
            assert report.trace_v <= report.trace_v_bound + 1e-9

    def test_vacuous_flag(self):
        # anchored-agent weights leave Qbar singular: bound is not computable
        mas, spec, _, _ = sim.build_formation(sim.default_formation())
        dec = Decomposition.from_assignment([0] * 6 + [1] * 3 + [2] * 3)
        gain = hierarchical_gain(mas, spec, dec)
        report, *_ = gap_report(mas, spec, dec, gain)
        assert report.vacuous
        assert np.isnan(report.trace_v_bound)
        assert np.isnan(report.f1)
        assert np.isfinite(report.sop)
        assert report.j_opt <= report.j_h

    def test_unstable_gain_rejected(self):
        mas, spec, _, _ = sim.build_formation(sim.default_formation())
        dec = Decomposition.from_assignment([0] * 6 + [1] * 3 + [2] * 3)
        gain = hierarchical_gain(mas, spec, dec)
        doctored = hierctrl.HierarchicalGain(
            p_blocks=gain.p_blocks,
            r_tilde=gain.r_tilde,
            k_local=gain.k_local,
            k_global=gain.k_global,
            k_h=np.zeros_like(gain.k_h),
            bt_p=gain.bt_p,
            dec=gain.dec,
        )
        with pytest.raises(UnstableClosedLoop):
            gap_report(mas, spec, dec, doctored)

    def test_unstable_gain_rejected_before_newton(self, monkeypatch):
        mas, spec, _, _ = sim.build_formation(sim.default_formation())
        dec = Decomposition.from_assignment([0] * 6 + [1] * 3 + [2] * 3)
        gain = dataclasses.replace(
            hierarchical_gain(mas, spec, dec),
            k_h=np.zeros((mas.b_full.shape[1], mas.a_full.shape[0])))
        monkeypatch.setattr(hierctrl, "solve_care", None)
        doubling = matops._doubling

        def lyapunov_only(a, g, q):
            assert g is None, "a Riccati doubling ran"
            return doubling(a, g, q)

        monkeypatch.setattr(matops, "_doubling", lyapunov_only)
        with pytest.raises(UnstableClosedLoop):
            gap_report(mas, spec, dec, gain)

    @pytest.mark.parametrize("scenario, assignment", [
        ("example1", "0,0,0,0,0,0,0,0,0"),
        ("five_node", "0,0,0,0,0"),
    ])
    def test_one_cluster_costs_coincide(self, scenario, assignment, tmp_path):
        # no gap: j_approx <= j_opt <= j_h holds up to the Riccati
        # tolerance, and the three costs agree to rounding
        argv = ["solve", scenario, "--assignment", assignment,
                "--out", str(tmp_path)]
        if scenario == "example1":
            argv += ["--s", "3", "--c", "3"]
        assert cli.main(argv) == 0
        gap = fileio.load_json(tmp_path / "gap_report.json")
        costs = [gap["j_approx"], gap["j_opt"], gap["j_h"]]
        assert max(costs) - min(costs) <= 1e-12 * gap["j_opt"]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_sop_below_sop_hi(self, seed):
        # sop <= sop_hi exactly when j_approx <= j_opt, which holds up to
        # the Riccati tolerance slack |j_opt|; dividing by j_opt j_approx
        # leaves slack j_h / j_approx
        mas, spec, dec = random_instance(seed)
        assume(graphcost.check_assumptions(mas, spec, dec).ok)
        try:
            report, *_ = gap_report(mas, spec, dec, hierarchical_gain(mas, spec, dec))
        except UnstableClosedLoop:
            reject()
        assert report.j_approx > 0.0
        assert report.sop_hi == (report.j_h - report.j_approx) / report.j_approx
        slack = 1e-9
        assert report.sop <= report.sop_hi + slack * report.j_h / report.j_approx


def direct_v_check(mas, spec, dec):
    """(trace_v, tr V, bound) with V from a_s' V + V a_s + W = 0 itself.

    trace_v = tr(U - P_opt) and tr V differ by tr E, where
    a_s' E + E a_s = -Res and Res is the Riccati residual of the report's
    P_opt, so |tr E| <= ||Res||_F ||Y||_F with a_s Y + Y a_s' + I = 0; bound
    is that plus 1e-12 j_h for rounding.  Also checks trace_v against
    delta_j.
    """
    a, b, r = mas.a_full, mas.b_full, spec.r
    q = graphcost.assemble_q(spec)
    gain = hierarchical_gain(mas, spec, dec)
    report, p_opt, _ = hierctrl.gap_report(mas, spec, dec, gain)
    assert abs(report.trace_v - report.delta_j) <= 1e-12 * report.j_h
    assert report.expected_gap == report.trace_v

    dk = gain.k_h - np.linalg.solve(r, b.T @ p_opt)
    a_s = a - b @ gain.k_h
    v = matops.solve_lyapunov(a_s, matops.symmetrize(dk.T @ r @ dk))
    y = matops.solve_lyapunov(a_s.T, np.eye(a.shape[0]))
    bound = (care_residual(a, b, q, r, p_opt) * np.linalg.norm(y)
             + 1e-12 * report.j_h)
    return report.trace_v, float(np.trace(v)), bound


def random_instance(seed):
    """Random coupled agents, connected graph and random decomposition."""
    rng = np.random.default_rng(seed)
    n_agents = int(rng.integers(2, 7))
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, n + 1))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n_agents)}
    edges |= {(i, j) for i in range(n_agents) for j in range(i + 1, n_agents)
              if rng.random() < 0.35}
    graph = CostGraph.from_edges(n_agents, sorted(edges))
    mas = sim.MasSystem([
        (rng.normal(0.0, 0.8, (n, n)) - 0.5 * np.eye(n),
         rng.normal(0.0, 1.0, (n, m)))
        for _ in range(n_agents)
    ])
    spec = CostSpec.homogeneous(graph, np.diag(rng.uniform(0.4, 1.6, n)),
                                np.diag(rng.uniform(0.2, 1.0, n)),
                                np.diag(rng.uniform(0.5, 1.5, m)))
    dec = Decomposition.from_assignment(
        rng.integers(0, int(rng.integers(1, n_agents + 1)), n_agents).tolist())
    return mas, spec, dec


def heterogeneous_instance(seed):
    """random_instance with Qbar and R blocks of each agent's own, at scales
    spread over two decades: dense PD Qbar blocks, or a diagonal one with an
    exact zero, which makes Qbar singular and the bound vacuous, and dense
    PD R blocks.  In one draw of two with m >= 2, every agent's A, B, Qbar
    and R blocks split into two decoupled halves, so P_opt has two
    connected components."""
    mas, spec, dec = random_instance(seed)
    rng = np.random.default_rng([seed, 1])
    n, m = spec.n, spec.m
    keep_x, keep_u = np.ones((n, n), bool), np.ones((m, m), bool)
    keep_xu = np.ones((n, m), bool)
    if m >= 2 and rng.random() < 0.5:
        x_half, u_half = np.arange(n) < n // 2, np.arange(m) < m // 2
        keep_x = x_half[:, None] == x_half
        keep_u = u_half[:, None] == u_half
        keep_xu = x_half[:, None] == u_half
    qbar_blocks, r_blocks = [], []
    for _ in range(dec.n_agents):
        if rng.random() < 0.1:
            qbar = np.diag(np.append(rng.uniform(0.4, 1.6, n - 1), 0.0))
        else:
            f = rng.normal(0.0, 1.0, (n, n))
            qbar = f @ f.T + 0.2 * np.eye(n)
        g = rng.normal(0.0, 1.0, (m, m))
        qbar_blocks.append(10.0 ** rng.uniform(-1, 1) * qbar * keep_x)
        r_blocks.append(10.0 ** rng.uniform(-1, 1) * (g @ g.T + 0.3 * np.eye(m)) * keep_u)
    mas = sim.MasSystem([(a * keep_x, b * keep_xu) for a, b in mas.agents])
    return mas, CostSpec(spec.graph, qbar_blocks, spec.qtilde, r_blocks), dec


class TestBlockSpectra:
    """The report's spectra, read per cluster, agent and component, against
    the dense ones of oracles.dense_gap_report."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_report(self, seed):
        mas, spec, dec = heterogeneous_instance(seed)
        assume(graphcost.check_assumptions(mas, spec, dec).ok)
        gain = hierarchical_gain(mas, spec, dec)
        try:
            got, *_ = gap_report(mas, spec, dec, gain)
        except UnstableClosedLoop:
            reject()
        want = dense_gap_report(mas, spec, dec, gain)
        for key in ("j_opt", "j_h", "j_approx", "trace_v", "trace_w", "vacuous"):
            assert getattr(got, key) == getattr(want, key), key
        # both ways find lambda_min(scriptP) to about n eps lambda_max, so
        # what divides by it agrees to n eps cond_p: up to 0.24 of that past
        # 1e-12 over 3,000 seeds, 2e-8 relative at cond_p = 3.6e8
        rel = max(1e-12, mas.a_full.shape[0] * np.finfo(float).eps * want.cond_p)
        for key in ("cond_p", "f1", "f2", "trace_v_bound"):
            assert getattr(got, key) == pytest.approx(
                getattr(want, key), rel=rel, nan_ok=True), key


class TestAgentInputSize:
    """agent_m is read off k_h; it equals the spec's per-agent input size."""

    @pytest.mark.parametrize("n, m", [(4, 2), (8, 4)])
    def test_model_based(self, n, m):
        mas, spec = sim.clique_path_scenario(2, 2, n, m)
        gain = hierarchical_gain(mas, spec, sim.clique_decomposition(2, 2))
        assert gain.agent_m == spec.m == m

    def test_learned(self):
        mas, spec = sim.clique_path_scenario(2, 2)
        dec = sim.clique_decomposition(2, 2)
        gain, _ = adp.learn_hierarchical(
            sim.cluster_plants(mas, dec), spec, dec, adp.LearnConfig(seed=3),
            k0_list=sim.initial_gains(mas, dec))
        assert gain.agent_m == spec.m == 2


class TestGeneratedSparsity:
    """k_h's structure over generated graphs, agents and decompositions."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_nonadjacent_blocks_and_link_bound(self, seed):
        mas, spec, dec = random_instance(seed)
        assume(graphcost.check_assumptions(mas, spec, dec).ok)
        gain = hierarchical_gain(mas, spec, dec)
        adj = graphcost.cluster_adjacency(spec.graph, dec)
        for i in range(dec.s):
            for j in range(dec.s):
                if i != j and not adj[i, j]:
                    block = gain.k_h[np.ix_(dec.state_indices(i, spec.m),
                                            dec.state_indices(j, spec.n))]
                    assert np.all(block == 0.0)
        n_agents = dec.n_agents
        _, n_c = graphcost.comm_links(gain.k_h, spec.n, spec.m)
        assert n_c <= n_agents * (n_agents - 1) // 2 - graphcost.kappa(spec.graph, dec)


class TestGeneratedLearning:
    """Model-free learning reaches the model-based gain (Jiang & Jiang 2012)."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_learned_gain_matches_model(self, seed):
        # the behavior gain is sim.initial_gains' stabilizing one; the error
        # of the learned k_h is the quadrature error of the data, amplified
        # by the regressor's conditioning: over 1,312 generated instances it
        # stayed below 3.3e-12 times the largest first-pass condition
        # estimate, and below 1e-6 whenever that estimate was below 1e6
        mas, spec, dec = random_instance(seed)
        assume(max(dec.sizes()) * spec.n <= 12)
        assume(graphcost.check_assumptions(mas, spec, dec).ok)
        conds = []

        class Recording(adp._BlockLstsq):
            def __call__(self, k, qk):
                theta, rcond = super().__call__(k, qk)
                conds.append(1.0 / rcond)
                return theta, rcond

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(adp, "_BlockLstsq", Recording)
            try:
                gain, results = adp.learn_hierarchical(
                    sim.cluster_plants(mas, dec), spec, dec,
                    adp.LearnConfig(seed=seed),
                    k0_list=sim.initial_gains(mas, dec))
            except RankDeficient:
                reject()  # the guard refused data that identify too little
        model = hierarchical_gain(mas, spec, dec)
        rel = np.linalg.norm(gain.k_h - model.k_h) / np.linalg.norm(model.k_h)
        assert rel <= max(1e-6, 1e-11 * max(conds))


class TestGapIdentity:
    """trace_v is read off U - P_opt; a direct V solve is the oracle."""

    @pytest.mark.parametrize("size", [5, 8])
    def test_clique_rows(self, size):
        mas, spec = sim.clique_path_scenario(size, size)
        got, want, bound = direct_v_check(
            mas, spec, sim.clique_decomposition(size, size))
        assert abs(got - want) <= 1e-9 * want
        assert abs(got - want) <= bound

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_generated_instances(self, seed):
        # the gap can be small next to j_h here, so tr V is matched to the
        # Riccati residual bound rather than to a fraction of itself
        mas, spec, dec = random_instance(seed)
        assume(graphcost.check_assumptions(mas, spec, dec).ok)
        got, want, bound = direct_v_check(mas, spec, dec)
        assert abs(got - want) <= bound

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_reference_is_u_or_cold_solution(self, seed):
        # the report's P_opt is U, the cost matrix of k_h, when U meets the
        # residual contract, and otherwise the cold solve's bits: a generated
        # (A, B, Q, R) is one component (dense agents on a connected graph),
        # so passing U changes neither the split nor the doubling
        mas, spec, dec = random_instance(seed)
        assume(graphcost.check_assumptions(mas, spec, dec).ok)
        a, b, r = mas.a_full, mas.b_full, spec.r
        q = graphcost.assemble_q(spec)
        gain = hierarchical_gain(mas, spec, dec)
        report, p_opt, u = hierctrl.gap_report(mas, spec, dec, gain)
        if not np.array_equal(p_opt, u):
            assert np.array_equal(p_opt, matops.solve_care(a, b, q, r))
        assert care_residual(a, b, q, r, p_opt) <= matops.TOL_RESIDUAL * (
            1.0 + np.linalg.norm(p_opt, "fro"))
        assert matops.is_psd(u - p_opt)
        slack = 1e-9
        assert report.j_approx <= report.j_opt + slack * abs(report.j_opt)
        assert report.j_opt <= report.j_h + slack * abs(report.j_h)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_stabilizing_solutions(self, seed):
        # the centralized and every cluster CARE of a generated instance:
        # the residual contract, a Hurwitz closed loop, and scipy's
        # Schur-method solution
        mas, spec, dec = random_instance(seed)
        assume(graphcost.check_assumptions(mas, spec, dec).ok)
        solves = [(mas.a_full, mas.b_full, graphcost.assemble_q(spec), spec.r)]
        for j, (qhat_j, rhat_j) in enumerate(graphcost.cluster_costs(spec, dec)):
            solves.append((*mas.cluster(dec, j), qhat_j, rhat_j))
        for a, b, q, r in solves:
            p = matops.solve_care(a, b, q, r)
            assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
                1.0 + np.linalg.norm(p, "fro"))
            assert matops.abscissa(a - b @ np.linalg.solve(r, b.T @ p)) < 0.0
            p_ref = scipy.linalg.solve_continuous_are(a, b, q, r)
            assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
                1.0 + np.linalg.norm(p_ref, "fro"))

    def test_doubled_iterate_polished(self, monkeypatch):
        # seed 178's centralized CARE (|P|_F = 3.6e7): the doubled P misses
        # the residual contract, and Newton-Kleinman steps from it meet it
        mas, spec, dec = random_instance(178)
        a, b, r = mas.a_full, mas.b_full, spec.r
        q = graphcost.assemble_q(spec)
        p_doubled = matops._doubling(a, matops.symmetrize(b @ np.linalg.solve(r, b.T)), q)
        assert not matops._accepted(a, b, q, r, p_doubled, 1.0)[0]
        lyap, steps = matops.solve_lyapunov, []

        def counting(*args):
            steps.append(1)
            return lyap(*args)

        monkeypatch.setattr(matops, "solve_lyapunov", counting)
        p = matops.solve_care(a, b, q, r)
        assert 1 <= len(steps) <= 3
        assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
            1.0 + np.linalg.norm(p, "fro"))
        assert matops.abscissa(a - b @ np.linalg.solve(r, b.T @ p)) < 0.0
        assert np.linalg.norm(p - p_doubled) <= 1e-8 * np.linalg.norm(p)
        p_ref = scipy.linalg.solve_continuous_are(a, b, q, r)
        assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
            1.0 + np.linalg.norm(p_ref, "fro"))

    def test_u_takes_one_correction_step(self):
        # seed 178's U, the cost matrix of k_h: squared Smith's first pass
        # misses the Lyapunov residual contract, and one defect-correction
        # step meets it with five orders of magnitude to spare
        mas, spec, dec = random_instance(178)
        k_h = hierarchical_gain(mas, spec, dec).k_h
        a_s = mas.a_full - mas.b_full @ k_h
        w = matops.symmetrize(graphcost.assemble_q(spec) + k_h.T @ spec.r @ k_h)

        def share_of_contract(v):
            return np.linalg.norm(a_s.T @ v + v @ a_s + w, "fro") / (
                100.0 * matops.TOL_RESIDUAL * (1.0 + np.linalg.norm(v, "fro")))

        assert share_of_contract(matops._doubling(a_s, None, w)) > 1.0
        assert share_of_contract(matops.solve_lyapunov(a_s, w)) <= 1e-4

    @pytest.mark.parametrize("seed", [28, 122, 178, 179, 315])
    def test_poorly_controllable_instances(self, seed):
        # these clusters pass check_assumptions though poorly controllable:
        # a shift of the whole of A gave nearly singular Lyapunov solutions
        # (seed 28: eigenvalues 9.7e-13 to 0.57), once rejected as
        # NonStabilizable
        mas, spec, dec = random_instance(seed)
        assert graphcost.check_assumptions(mas, spec, dec).ok
        a, b, r = mas.a_full, mas.b_full, spec.r
        q = graphcost.assemble_q(spec)
        p_opt = matops.solve_care(a, b, q, r)
        solves = [(a, b, q, r, p_opt)]
        p_blocks, _ = solve_clusters(mas, spec, dec)
        for j, (qhat_j, rhat_j) in enumerate(graphcost.cluster_costs(spec, dec)):
            solves.append((*mas.cluster(dec, j), qhat_j, rhat_j, p_blocks[j]))
        for a_j, b_j, q_j, r_j, p_j in solves:
            res = care_residual(a_j, b_j, q_j, r_j, p_j)
            assert res <= matops.TOL_RESIDUAL * (1.0 + np.linalg.norm(p_j, "fro"))
        k_opt = np.linalg.solve(r, b.T @ p_opt)
        gain = hierarchical_gain(mas, spec, dec)
        assert matops.abscissa(a - b @ k_opt) < 0.0
        assert matops.abscissa(a - b @ gain.k_h) < 0.0
        got, want, bound = direct_v_check(mas, spec, dec)
        assert abs(got - want) <= bound

    def test_zero_input_matrix_vacuous(self, tmp_path):
        a_i = np.array([[-1.0, 1.0], [0.0, -2.0]])
        graph = CostGraph.from_edges(2, [(0, 1)])
        mas = sim.MasSystem([(a_i, np.zeros((2, 1)))] * 2)
        spec = CostSpec.homogeneous(graph, 0.5 * np.eye(2), np.eye(2),
                                    np.eye(1))
        dec = Decomposition.from_assignment([0, 1])
        report, *_ = gap_report(mas, spec, dec, hierarchical_gain(mas, spec, dec))
        assert report.vacuous is True
        assert np.isnan(report.trace_v_bound)
        fields = dataclasses.asdict(report)
        back = fileio.load_json(fileio.save_json(tmp_path / "gap.json", fields))
        assert back.keys() == fields.keys()
        for key, value in fields.items():
            assert type(back[key]) is type(value)
            assert back[key] == value or (np.isnan(value) and np.isnan(back[key]))
