"""Model-free cluster learning: data collection, policy iteration, assembly."""

import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hlqr import _lapack, adp, graphcost, hierctrl, matops, sim
from hlqr.adp import (
    Dataset,
    Excitation,
    LearnConfig,
    collect,
    learn_cluster,
    learn_hierarchical,
    phi,
    policy_iteration,
    svec,
    unsvec,
)
from hlqr.errors import InvalidConfig, NoConvergence, RankDeficient, StateBlowup
from hlqr.graphcost import CostGraph, CostSpec, Decomposition
from oracles import (
    equilibrated_lstsq,
    excitation_table,
    lstsq_svd_oracle,
    policy_iteration_oracle,
    regressor,
)

SQRT2_M1 = 0.41421356237309515


def scalar_system(a=-1.0, b=1.0):
    mas = sim.MasSystem([(np.array([[a]]), np.array([[b]]))])
    graph = CostGraph.from_edges(1, [])
    spec = CostSpec.homogeneous(graph, np.eye(1), np.eye(1), np.eye(1))
    dec = Decomposition.from_assignment([0])
    return mas, spec, dec


def chain_system(edges, n_agents):
    """Agents with one marginal mode each, coupled through the given edges."""
    a_i = np.array([[0.0, 1.0], [0.0, -0.5]])
    b_i = np.array([[0.0], [1.0]])
    graph = CostGraph.from_edges(n_agents, edges)
    mas = sim.MasSystem([(a_i, b_i) for _ in range(n_agents)])
    spec = CostSpec.homogeneous(graph, 0.5 * np.eye(2), np.eye(2), np.eye(1))
    return mas, spec


def exact_dataset(a, b, k0, freqs, amps, x0, n_windows, window):
    """Window integrals computed in closed form via augmented exponentials.

    The behavior loop xdot = (a - b k0) x + b e(t) with e a sum of sinusoids
    is autonomous once the oscillator bank generating e is appended, so every
    window integral of z z' is an integral of e^{Fs} z0 z0' e^{F's}, which the
    block-triangular exponential of [[-F, z0 z0'], [0, F']] yields exactly.
    """
    n, m = b.shape
    blocks = [np.array([[0.0, w], [-w, 0.0]]) for w in freqs]
    s_mat = scipy.linalg.block_diag(*blocks)
    c_w = np.zeros((m, 2 * len(freqs)))
    c_w[0, 0::2] = 1.0
    w0 = np.zeros(2 * len(freqs))
    w0[1::2] = amps

    a_c = a - b @ k0
    f_mat = np.block([[a_c, b @ c_w],
                      [np.zeros((s_mat.shape[0], n)), s_mat]])
    p_v = np.hstack([-k0, c_w])
    nz = f_mat.shape[0]

    z = np.concatenate([x0, w0])
    xs = [x0.copy()]
    i_xx = np.zeros((n_windows, n, n))
    i_xu = np.zeros((n_windows, n, m))
    for w in range(n_windows):
        h_mat = np.block([[-f_mat, np.outer(z, z)],
                          [np.zeros((nz, nz)), f_mat.T]])
        e_big = scipy.linalg.expm(h_mat * window)
        e22 = e_big[nz:, nz:]
        z_int = e22.T @ e_big[:nz, nz:]
        i_xx[w] = 0.5 * (z_int[:n, :n] + z_int[:n, :n].T)
        i_xu[w] = z_int[:n] @ p_v.T
        z = e22.T @ z
        xs.append(z[:n].copy())

    xb = np.asarray(xs)
    phis = phi(xb)
    return Dataset(delta_xx=phis[1:] - phis[:-1], i_xx=i_xx, i_xu=i_xu)


class TestFeatureMaps:
    def test_phi_svec_duality(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5):
            p = rng.standard_normal((n, n))
            p = 0.5 * (p + p.T)
            x = rng.standard_normal(n)
            assert phi(x) @ svec(p) == pytest.approx(x @ p @ x, rel=1e-12)
            assert np.allclose(unsvec(svec(p), n), p)

    def test_phi_stacked(self):
        xs = np.arange(6.0).reshape(3, 2)
        out = phi(xs)
        assert out.shape == (3, 3)
        assert np.allclose(out[1], [4.0, 9.0, 12.0])


def grid_rows():
    """(h, n, i0, i1): a grid t_i = i h of n samples, n up to three groups
    of TABLE_BLOCK-sample blocks, with horizons (n - 1) h up to 160 s, and a
    row range in it of length 1, below TABLE_BLOCK or past it."""
    block = adp.TABLE_BLOCK
    group = adp._TABLE_GROUP * block

    def grid(n, frac, start, length):
        h = frac * 160.0 / max(n - 1, 1)
        i0 = int(start * (n - 1))
        return h, n, i0, min(n, i0 + length)

    lengths = st.one_of(st.just(1), st.integers(2, block - 1),
                        st.integers(block + 1, 4 * block))
    return st.builds(grid, st.integers(1, 3 * group), st.floats(1e-4, 1.0),
                     st.floats(0.0, 1.0), lengths)


class TestExcitationTable:
    """The blocked angle-addition table against pointwise evaluation and
    against the whole-grid table."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
           n_sin=st.integers(1, 12), grid=grid_rows())
    def test_matches_pointwise(self, seed, m, n_sin, grid):
        # |table - pointwise| <= 8 eps a (f_max max|t| + 2 pi), the rounding
        # of the sine arguments; 3,000 random grids gave at most 1.4 times
        # eps a (f_max max|t| + 2 pi), 4.9e-13 absolute at a = 0.5
        h, n, i0, i1 = grid
        exc = Excitation.make(seed, m, n_sin=n_sin)
        table = exc.table(h, n)(i0, i1)
        assert table.shape == (i1 - i0, m)
        ts = np.arange(i0, i1) * h
        want = np.array([exc(t) for t in ts])
        amp = exc.amplitudes.sum(axis=1).max()
        scale = amp * (exc.frequencies.max() * np.abs(ts).max() + 2.0 * np.pi)
        assert np.max(np.abs(table - want)) <= 8.0 * np.finfo(float).eps * scale

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
           n=st.integers(1, 3 * adp._TABLE_GROUP * adp.TABLE_BLOCK),
           h=st.floats(1e-5, 1e-2), cuts=st.lists(st.floats(0.0, 1.0), max_size=8))
    def test_slices_match_whole_grid(self, seed, m, n, h, cuts):
        # rows read in increasing slices, then one earlier slice again, are
        # the whole grid's table bit for bit
        exc = Excitation.make(seed, m)
        rows = exc.table(h, n)
        edges = sorted({0, n, *(int(c * n) for c in cuts)})
        got = np.vstack([rows(i0, i1) for i0, i1 in zip(edges, edges[1:])])
        want = excitation_table(exc, np.arange(n) * h)
        assert got.tobytes() == want.tobytes()
        assert rows(edges[0], edges[1]).tobytes() == want[:edges[1]].tobytes()

    def test_half_grid_matches_pointwise(self):
        exc = Excitation.make(3, 2)
        dt, n_steps = 1e-3, 3 * adp.TABLE_BLOCK + 7
        rows = exc.table(dt / 2.0, 2 * n_steps + 1)
        for i in (0, 1, adp.TABLE_BLOCK - 1, adp.TABLE_BLOCK, 2 * n_steps):
            assert np.allclose(rows(i, i + 1)[0], exc(i * dt / 2.0), rtol=0.0,
                               atol=1e-14)


class TestCollect:
    def test_scalar_dataset_full_rank(self):
        mas, spec, dec = scalar_system()
        plant = sim.cluster_plants(mas, dec)[0]
        exc = Excitation.make(5, 1)
        data = collect(plant, None, exc, 10.0, 1e-3, 0.1)
        assert data.M == 100
        assert data.M >= 1 * 2 // 2 + 1
        assert data.n == 1 and data.m == 1

    def test_zero_excitation_flagged(self):
        mas, spec, dec = scalar_system()
        plant = sim.cluster_plants(mas, dec)[0]
        exc = Excitation.make(5, 1, amplitude=0.0)
        k_opt = np.array([[SQRT2_M1]])
        data = collect(plant, k_opt, exc, 2.0, 1e-3, 0.1, x0=np.zeros(1))
        with pytest.raises(RankDeficient):
            policy_iteration(data, np.eye(1), np.eye(1), k_opt)

    def test_window_count_dominates_unknowns(self):
        mas, spec = sim.clique_path_scenario(1, 2)
        dec = Decomposition.from_assignment([0, 0])
        plant = sim.cluster_plants(mas, dec)[0]
        exc = Excitation.make(11, 4)
        data = collect(plant, None, exc, 10.0, 1e-3, 0.1)
        assert (data.n, data.m) == (8, 4)
        assert data.M == 100
        assert data.M >= 8 * 9 // 2 + 4 * 8

    def test_too_few_windows_rejected(self):
        mas, spec, dec = scalar_system()
        plant = sim.cluster_plants(mas, dec)[0]
        exc = Excitation.make(5, 1)
        data = collect(plant, None, exc, 0.1, 1e-3, 0.1)
        assert data.M == 1
        with pytest.raises(RankDeficient):
            policy_iteration(data, np.eye(1), np.eye(1), np.zeros((1, 1)))

    def test_unstable_behavior_policy_blows_up(self):
        mas, spec, dec = scalar_system(a=1.0)
        plant = sim.cluster_plants(mas, dec)[0]
        exc = Excitation.make(5, 1)
        with pytest.raises(StateBlowup):
            collect(plant, None, exc, 20.0, 1e-3, 0.1, x0=np.ones(1))

    def test_grid_config_guards(self):
        mas, spec, dec = scalar_system()
        plant = sim.cluster_plants(mas, dec)[0]
        exc = Excitation.make(5, 1)
        with pytest.raises(InvalidConfig):
            collect(plant, None, exc, 1.0, 0.3, 0.1)
        with pytest.raises(InvalidConfig):
            collect(plant, None, exc, 0.04, 1e-3, 0.1)
        # a window shorter than half a step rounds to zero steps
        with pytest.raises(InvalidConfig, match="does not divide"):
            collect(plant, None, exc, 1e-9, 1.0, 1e-12)
        for dt, window in [(0.0, 0.1), (-1e-3, 0.1), (np.nan, 0.1),
                           (1e-3, 0.0), (1e-3, -0.1), (1e-3, np.nan)]:
            with pytest.raises(InvalidConfig, match="must be positive"):
                collect(plant, None, exc, 1.0, dt, window)


class TestPolicyIteration:
    def test_scalar_closed_form(self):
        mas, spec, dec = scalar_system()
        plant = sim.cluster_plants(mas, dec)[0]
        result = learn_cluster(plant, np.eye(1), np.eye(1),
                               LearnConfig(seed=3, horizon=10.0))
        assert result.p_hat[0, 0] == pytest.approx(SQRT2_M1, abs=1e-4)
        assert result.k_hat[0, 0] == pytest.approx(SQRT2_M1, abs=1e-4)

    def test_dim4_cluster_care_oracle(self):
        mas, spec = sim.clique_path_scenario(1, 1)
        dec = Decomposition.from_assignment([0])
        plant = sim.cluster_plants(mas, dec)[0]
        qhat = 0.5 * np.eye(4)
        result = learn_cluster(plant, qhat, np.eye(2), LearnConfig(seed=7))
        a_1, b_1 = mas.cluster(dec, 0)
        p_star = matops.solve_care(a_1, b_1, qhat, np.eye(2))
        rel = np.linalg.norm(result.p_hat - p_star) / np.linalg.norm(p_star)
        assert rel <= 1e-3
        k_star = b_1.T @ p_star
        assert np.linalg.norm(result.k_hat - np.linalg.solve(np.eye(2), k_star)
                              ) / np.linalg.norm(k_star) <= 1e-3
        assert result.iterations <= 10
        assert matops.abscissa(a_1 - b_1 @ result.k_hat) < 0.0

    def test_exact_data_matches_riccati(self):
        # integrals computed in closed form, so the fixed point should agree
        # with the Riccati solve to ten times the stop tolerance
        a = np.array([[0.0, 1.0], [0.0, -0.5]])
        b = np.array([[0.0], [1.0]])
        k0 = np.array([[1.0, 1.0]])
        data = exact_dataset(a, b, k0, freqs=(1.0, 2.3, 3.7),
                             amps=(0.5, 0.4, 0.3), x0=np.array([1.0, -0.5]),
                             n_windows=30, window=0.1)
        result = policy_iteration(data, np.eye(2), np.eye(1), k0,
                                  tol_pi=1e-9)
        p_star = matops.solve_care(a, b, np.eye(2), np.eye(1))
        assert np.linalg.norm(result.p_hat - p_star) <= 1e-8 * (
            1.0 + np.linalg.norm(p_star))
        assert result.iterations <= 10
        assert np.allclose(result.btp_hat, b.T @ p_star, atol=1e-8)

    def test_monotone_value_improvement(self):
        mas, spec = sim.clique_path_scenario(1, 1)
        dec = Decomposition.from_assignment([0])
        plant = sim.cluster_plants(mas, dec)[0]
        qhat = 0.5 * np.eye(4)
        result = learn_cluster(plant, qhat, np.eye(2), LearnConfig(seed=9))
        a_1, _ = mas.cluster(dec, 0)
        u0 = matops.solve_lyapunov(a_1, qhat)
        assert matops.is_psd(u0 - result.p_hat, tol=-1e-6)
        rng = np.random.default_rng(12)
        for _ in range(20):
            x0 = rng.standard_normal(4)
            assert x0 @ result.p_hat @ x0 <= x0 @ u0 @ x0 + 1e-6

    def test_recovered_coupling_input_consistency(self):
        mas, spec = sim.clique_path_scenario(1, 2)
        dec = Decomposition.from_assignment([0, 0])
        plant = sim.cluster_plants(mas, dec)[0]
        qhat, rhat = graphcost.cluster_costs(spec, dec)[0]
        result = learn_cluster(plant, qhat, rhat, LearnConfig(seed=13))
        assert np.array_equal(result.btp_hat, rhat @ result.k_hat)
        a_j, b_j = mas.cluster(dec, 0)
        btp_star = b_j.T @ matops.solve_care(a_j, b_j, qhat, rhat)
        rel = np.linalg.norm(result.btp_hat - btp_star) / np.linalg.norm(
            btp_star)
        assert rel <= 1e-3
        rel_self = np.linalg.norm(result.btp_hat - b_j.T @ result.p_hat
                                  ) / np.linalg.norm(result.btp_hat)
        assert rel_self <= 1e-3


def two_agent_clique_problem():
    """(plant, qhat, rhat) of the 8-state, 4-input two-agent clique."""
    mas, spec = sim.clique_path_scenario(1, 2)
    dec = Decomposition.from_assignment([0, 0])
    qhat, rhat = graphcost.cluster_costs(spec, dec)[0]
    return sim.cluster_plants(mas, dec)[0], qhat, rhat


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its arguments to a list."""
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestConditioningGuard:
    """The guard is the first policy-iteration pass's condition estimate."""

    def test_one_factorization_per_pass(self, monkeypatch):
        # the delta_xx block (36 columns) is factored once per dataset, and
        # its reflectors applied once; each pass then factors only the B'P
        # tail (4 x 8 + 1 columns)
        plant, qhat, rhat = two_agent_clique_problem()
        svds = count_calls(monkeypatch, np.linalg, "svd")
        geqrts = count_calls(monkeypatch, _lapack, "dgeqrt")
        gemqrts = count_calls(monkeypatch, _lapack, "dgemqrt")
        result = learn_cluster(plant, qhat, rhat, LearnConfig(seed=13))
        assert len(svds) == 0
        assert [args[1].shape[1] for args, _ in geqrts] == (
            [36] + [33] * result.iterations)
        assert len(gemqrts) == 1

    def test_too_few_windows_regrow(self, monkeypatch):
        # 60 windows for 36 + 32 = 68 unknowns; one regrowth gives 90, and
        # the refused dataset is freed before the second collect starts
        plant, qhat, rhat = two_agent_clique_problem()
        inner = adp.collect
        horizons, datasets, held = [], [], []

        def spy(*args, **kwargs):
            horizons.append(args[3])
            held.append([ref() is not None for ref in datasets])
            data = inner(*args, **kwargs)
            datasets.append(weakref.ref(data))
            return data

        monkeypatch.setattr(adp, "collect", spy)
        learn_cluster(plant, qhat, rhat, LearnConfig(seed=13, horizon=6.0))
        assert horizons == [6.0, 9.0]
        assert held == [[], [False]]

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "before Python 3.11 a caller's evaluation stack holds its call's "
        "arguments until the call returns"))
    def test_dataset_freed_before_first_pass(self, monkeypatch):
        # learn_cluster hands collect's dataset to policy_iteration unnamed,
        # and policy_iteration lets go of it once _BlockLstsq has read it,
        # so no pass, and none of the buffers only the passes use, runs
        # beside it.  A wrapper that holds its call's arguments, such as
        # perfbench/spans.py's traced policy_iteration, keeps it alive, so
        # the saving shows in the untraced peak_rss_mb only
        plant, qhat, rhat = two_agent_clique_problem()
        inner = adp.collect
        datasets, alive = [], []

        def spy(*args, **kwargs):
            data = inner(*args, **kwargs)
            datasets.append([weakref.ref(obj) for obj in (
                data, data.delta_xx, data.i_xx, data.i_xu)])
            return data

        class Recording(adp._BlockLstsq):
            def __call__(self, k, qk):
                alive.append([ref() is not None for ref in datasets[-1]])
                return super().__call__(k, qk)

        monkeypatch.setattr(adp, "collect", spy)
        monkeypatch.setattr(adp, "_BlockLstsq", Recording)
        result = learn_cluster(plant, qhat, rhat, LearnConfig(seed=13))
        assert len(datasets) == 1
        assert alive == [[False] * 4] * result.iterations

    def test_tripped_guard_regrows_three_times(self, monkeypatch):
        plant, qhat, rhat = two_agent_clique_problem()
        monkeypatch.setattr(adp, "COND_GUARD", 0.0)
        collects = count_calls(monkeypatch, adp, "collect")
        with pytest.raises(RankDeficient, match="exceeds guard"):
            learn_cluster(plant, qhat, rhat, LearnConfig(seed=13))
        assert [args[3] for args, _ in collects] == pytest.approx(
            [9.2, 13.8, 20.7, 31.05])


def two_agent_clique_dataset():
    """The 8-state, 4-input dataset of test_window_count_dominates_unknowns."""
    plant, qhat, rhat = two_agent_clique_problem()
    data = collect(plant, None, Excitation.make(11, 4), 10.0, 1e-3, 0.1)
    return data, qhat, rhat


def example1_clique_dataset():
    """Data of the first 12-state clique cluster of example1 (3 x 3)."""
    mas, spec = sim.clique_path_scenario(3, 3)
    dec = sim.clique_decomposition(3, 3)
    plant = sim.cluster_plants(mas, dec)[0]
    cfg = LearnConfig(seed=1)
    n, m = plant.n_states, plant.n_inputs
    data = collect(plant, None, Excitation.make(cfg.seed, m),
                   adp._auto_horizon(cfg, n, m), cfg.dt, cfg.window)
    qhat, rhat = graphcost.cluster_costs(spec, dec)[0]
    return data, qhat, rhat


def conditioned_matrix(rng, n_rows, n_cols, log_cond, log_spread):
    """Tall, full-rank matrix with singular values spread over log_cond
    decades, then columns scaled over log_spread decades."""
    u_mat, _ = np.linalg.qr(rng.standard_normal((n_rows, n_cols)))
    v_mat, _ = np.linalg.qr(rng.standard_normal((n_cols, n_cols)))
    sv = np.logspace(0.0, -log_cond, n_cols)
    col_scale = 10.0 ** rng.uniform(-log_spread / 2, log_spread / 2, n_cols)
    return (u_mat * sv) @ v_mat.T * col_scale


def equilibrated_cond(a_mat):
    """(column norms, 2-norm condition number of the equilibrated matrix)."""
    scale = np.linalg.norm(a_mat, axis=0)
    scale[scale == 0.0] = 1.0
    return scale, np.linalg.cond(a_mat / scale)


def assert_solves_agree(got, want, scale, cond):
    # compared in the equilibrated unknowns, which both solvers factor
    err = np.linalg.norm((got - want) * scale)
    assert err <= 1e3 * np.finfo(float).eps * cond * np.linalg.norm(
        want * scale)


def check_block_solve(seed, n, m, extra_rows, log_cond, log_spread,
                      zero_column):
    # data whose regressor at the first gain is a generated matrix, then
    # two more gains (tails) on the same factored delta_xx block; I_xx is
    # scaled to the smallest column of A2 = -2 (I_xu' + K I_xx), so that
    # forming A2 from the data cancels no more than a few digits
    rng = np.random.default_rng(seed)
    n_sym = n * (n + 1) // 2
    n_rows = n_sym + m * n + extra_rows
    a_mat = conditioned_matrix(rng, n_rows, n_sym + m * n, log_cond,
                               log_spread)
    gains = rng.standard_normal((3, m, n))
    i_xx = rng.standard_normal((n_rows, n, n))
    i_xx += i_xx.transpose(0, 2, 1)
    i_xx *= np.linalg.norm(a_mat[:, n_sym:], axis=0).min() / (
        n * np.linalg.norm(i_xx, axis=0).max())
    k_ixx = np.einsum("an,wnb->wab", gains[0], i_xx)
    i_xu = (-0.5 * a_mat[:, n_sym:].reshape(n_rows, m, n) - k_ixx
            ).transpose(0, 2, 1)
    delta_xx = a_mat[:, :n_sym].copy()
    if zero_column == "delta_xx":
        delta_xx[:, rng.integers(n_sym)] = 0.0
    elif zero_column == "a2":
        # B'P unknown (a, b) has the column
        # -2 (I_xu[:, b, a] + K[a] I_xx[:, :, b])
        a, b = rng.integers(m), rng.integers(n)
        i_xu[:, b, a] = 0.0
        gains[:, a] = 0.0
    data = Dataset(delta_xx=delta_xx, i_xx=i_xx, i_xu=i_xu)
    solve = adp._BlockLstsq(data)
    for tail, k in enumerate(gains):
        qk = rng.standard_normal((n, n))
        qk += qk.T
        a_k, rhs = regressor(data, k, qk)
        if zero_column is not None:
            with pytest.raises(RankDeficient):
                equilibrated_lstsq(a_k, rhs)
            with pytest.raises(RankDeficient):
                solve(k, qk)
            continue
        scale, cond = equilibrated_cond(a_k)
        want, rcond_want = equilibrated_lstsq(a_k, rhs)
        got, rcond = solve(k, qk)
        assert_solves_agree(got, want, scale, cond)
        if tail == 0:
            # both estimate from R factors that differ by rounding, so
            # they agree to about eps * cond (at most 5.3 times that in
            # 3,000 generated cases); 1e-10 relative up to cond 4.5e3
            assert rcond == pytest.approx(
                rcond_want, rel=1e2 * np.finfo(float).eps * cond)


class TestLeastSquaresSolve:
    @pytest.mark.parametrize("make_data", [two_agent_clique_dataset,
                                           example1_clique_dataset])
    def test_policy_iteration_matches_svd_oracle(self, make_data):
        # the block solve against the full regressor of every pass, solved
        # by Householder QR and by SVD
        data, qhat, rhat = make_data()
        k0 = np.zeros((data.m, data.n))
        result = policy_iteration(data, qhat, rhat, k0)
        for lstsq in (equilibrated_lstsq, lstsq_svd_oracle):
            oracle = policy_iteration_oracle(data, qhat, rhat, k0, lstsq)
            assert result.iterations == oracle.iterations
            for got, want in [(result.p_hat, oracle.p_hat),
                              (result.k_hat, oracle.k_hat)]:
                assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(
                    want)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_cols=st.integers(1, 40),
           extra_rows=st.integers(0, 60), log_cond=st.floats(0.0, 7.0),
           log_spread=st.floats(0.0, 8.0))
    def test_solve_matches_svd_oracle(self, seed, n_cols, extra_rows,
                                      log_cond, log_spread):
        rng = np.random.default_rng(seed)
        a_mat = conditioned_matrix(rng, n_cols + extra_rows, n_cols,
                                   log_cond, log_spread)
        rhs = rng.standard_normal(n_cols + extra_rows)
        scale, cond = equilibrated_cond(a_mat)
        got, rcond = equilibrated_lstsq(a_mat, rhs)
        want, _ = lstsq_svd_oracle(a_mat, rhs)
        assert_solves_agree(got, want, scale, cond)
        # dtrcon's estimate bounds |R^-1|_1 from below, and the 1-norm
        # condition number of R is at most n_cols times the 2-norm one
        assert 1.0 / rcond <= 1.01 * n_cols * cond

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
           m=st.integers(1, 3), extra_rows=st.integers(0, 60),
           log_cond=st.floats(0.0, 7.0), log_spread=st.floats(0.0, 8.0),
           zero_column=st.sampled_from([None, "delta_xx", "a2"]))
    def test_block_solve_matches_full_qr(self, seed, n, m, extra_rows,
                                         log_cond, log_spread, zero_column):
        check_block_solve(seed, n, m, extra_rows, log_cond, log_spread,
                          zero_column)

    @pytest.mark.parametrize("seed, extra_rows, zero_column", [
        (5, 0, None), (6, 200, None), (7, 0, "a2")])
    def test_block_solve_past_one_qr_block(self, seed, extra_rows,
                                           zero_column):
        # n = 16 and m = 8: delta_xx has 136 columns and the tail 129, more
        # than adp.QR_BLOCK; with no extra rows the tail is 128 x 129
        assert 16 * 8 + 1 > adp.QR_BLOCK
        check_block_solve(seed, 16, 8, extra_rows, 3.0, 4.0, zero_column)

    @pytest.mark.parametrize("seed, n, m, extra_rows", [
        (8, 1, 3, 0), (9, 1, 1, 5), (10, 4, 1, 0), (11, 5, 1, 30)])
    def test_block_solve_degenerate_shapes(self, seed, n, m, extra_rows):
        # n = 1 has n^2 = n_sym, so the spread of the I_xx columns moves
        # nothing, and m = 1 has a one-row gain
        check_block_solve(seed, n, m, extra_rows, 3.0, 4.0, None)

    def test_set_up_memory(self):
        # _BlockLstsq(data) holds A1 (M x n_sym) and the one buffer
        # (M x (m n + n^2)) together: the dataset's M x (n_sym + n^2 + m n)
        # entries, 1x its bytes.  dgeqrt's block reflector (nb x n_sym,
        # nb = min(QR_BLOCK, n_sym)) and dgemqrt's workspace
        # (nb x (n_sym + m n)) add 0.32x on this dataset (M = 190,
        # n_sym = nb = 78, m n = 72), so the set-up peaks at 1.33x; R and
        # the pass buffers wait for the first pass.  A layout that holds R
        # ((n_sym + m n)^2), the unique columns apart and the head and tail
        # pass buffers at set-up peaks at 1.91x here
        data, _, _ = example1_clique_dataset()
        data_bytes = sum(a.nbytes for a in (data.delta_xx, data.i_xx, data.i_xu))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            adp._BlockLstsq(data)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * data_bytes

    def test_zero_regressor_column_raises_in_loop(self):
        # input channel 1 never moves and k0 has a zero row for it, so the
        # B'P unknowns of that channel multiply an all-zero column
        data, qhat, rhat = two_agent_clique_dataset()
        i_xu = data.i_xu.copy()
        i_xu[:, :, 1] = 0.0
        data = replace(data, i_xu=i_xu)
        k0 = np.random.default_rng(3).standard_normal((data.m, data.n))
        k0[1] = 0.0
        with pytest.raises(RankDeficient):
            policy_iteration(data, qhat, rhat, k0)


class TestLearnHierarchical:
    def test_decoupled_matches_local_lqr(self):
        mas, spec = chain_system([(0, 1), (2, 3)], 4)
        dec = Decomposition.from_assignment([0, 0, 1, 1])
        plants = sim.cluster_plants(mas, dec)
        k0_list = sim.initial_gains(mas, dec)
        gain, results = learn_hierarchical(plants, spec, dec,
                                           LearnConfig(seed=23),
                                           k0_list=k0_list)
        assert np.all(gain.r_tilde == 0.0)
        assert np.all(gain.k_global == 0.0)
        model = hierctrl.hierarchical_gain(mas, spec, dec)
        rel = np.linalg.norm(gain.k_h - model.k_h) / np.linalg.norm(model.k_h)
        assert rel <= 2e-3

    def test_coupled_chain_against_model(self):
        mas, spec = chain_system([(0, 1), (1, 2), (2, 3)], 4)
        dec = Decomposition.from_assignment([0, 0, 1, 1])
        plants = sim.cluster_plants(mas, dec)
        k0_list = sim.initial_gains(mas, dec)
        gain, results = learn_hierarchical(plants, spec, dec,
                                           LearnConfig(seed=29),
                                           k0_list=k0_list)
        model = hierctrl.hierarchical_gain(mas, spec, dec)
        rel = np.linalg.norm(gain.k_h - model.k_h) / np.linalg.norm(model.k_h)
        assert rel <= 5e-3
        assert np.linalg.norm(gain.r_tilde - model.r_tilde) <= 5e-3 * (
            1.0 + np.linalg.norm(model.r_tilde))
        assert matops.abscissa(mas.a_full - mas.b_full @ gain.k_h) < 0.0

    def test_formation_learned_vs_model(self):
        mas, spec, _, _ = sim.build_formation(sim.default_formation())
        dec = Decomposition.from_assignment([0] * 6 + [1] * 3 + [2] * 3)
        plants = sim.cluster_plants(mas, dec)
        k0_list = sim.initial_gains(mas, dec)
        gain, results = learn_hierarchical(plants, spec, dec,
                                           LearnConfig(seed=0),
                                           k0_list=k0_list)
        assert all(res.wall_time > 0.0 for res in results)
        model = hierctrl.hierarchical_gain(mas, spec, dec)
        rel = np.linalg.norm(gain.k_h - model.k_h) / np.linalg.norm(model.k_h)
        assert rel <= 5e-3

    def test_failure_names_cluster(self):
        # a cluster's error keeps its type, prefixed with the cluster
        mas, spec = sim.clique_path_scenario(2, 2)
        dec = sim.clique_decomposition(2, 2)
        with pytest.raises(NoConvergence, match=r"^cluster 0 \(agents 1,2\): policy"):
            learn_hierarchical(sim.cluster_plants(mas, dec), spec, dec,
                               LearnConfig(max_iter=1),
                               k0_list=sim.initial_gains(mas, dec))

    def test_plant_count_guard(self):
        mas, spec = chain_system([(0, 1), (2, 3)], 4)
        dec = Decomposition.from_assignment([0, 0, 1, 1])
        plants = sim.cluster_plants(mas, dec)
        with pytest.raises(InvalidConfig):
            learn_hierarchical(plants[:1], spec, dec)


class TestProblemSizeOrdering:
    def test_cluster_unknowns_below_centralized(self):
        for s, c in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            dec = sim.clique_decomposition(s, c)
            n, m = 4, 2
            per_cluster = sum(
                (sz * n) * (sz * n + 1) // 2 + (sz * m) * (sz * n)
                for sz in dec.sizes())
            big_n, big_m = s * c * n, s * c * m
            central = big_n * (big_n + 1) // 2 + big_m * big_n
            assert per_cluster < central

    def test_single_cluster_matches_centralized(self):
        dec = Decomposition.from_assignment([0, 0, 0])
        n, m = 4, 2
        per_cluster = sum(
            (sz * n) * (sz * n + 1) // 2 + (sz * m) * (sz * n)
            for sz in dec.sizes())
        assert per_cluster == 12 * 13 // 2 + 6 * 12

    def test_auto_horizon_scales_with_unknowns(self):
        cfg = LearnConfig()
        assert adp._auto_horizon(cfg, 1, 1) == pytest.approx(1.3)
        assert adp._auto_horizon(cfg, 8, 4) > adp._auto_horizon(cfg, 4, 2)
