"""Riccati/Lyapunov solvers and pseudoinverse."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hlqr import _lapack, graphcost, hierctrl, matops, sim
from hlqr.errors import IterationDiverged, NonStabilizable, UnstableMatrix
from oracles import (care_residual, lu_doubling, pbh_stabilizable, split_care,
                     split_lyapunov, split_pinv, svd_pinv)

SQRT2_M1 = 0.41421356237309515


def random_controllable(rng, n, m):
    """Draw (A, B) and retry until the controllability matrix has full rank."""
    while True:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
        if np.linalg.matrix_rank(ctrb) == n:
            return a, b


def hidden_blocks(rng, n_blocks):
    """Block-diagonal (A, B, Q, R) with the blocks hidden by random state and
    input permutations, and the block label of each state and input.

    A block has 0-4 states and 0-2 inputs, at least one of either.
    (A_c, B_c) is controllable, and A_c is Hurwitz when the block has no
    inputs.
    """
    sizes = []
    while len(sizes) < n_blocks or not (sum(n for n, _ in sizes) and sum(m for _, m in sizes)):
        n_c, m_c = int(rng.integers(0, 5)), int(rng.integers(0, 3))
        if n_c + m_c:
            sizes = (sizes + [(n_c, m_c)])[-n_blocks:]
    a, b, q, r = (scipy.linalg.block_diag(*x) for x in zip(*[
        _block(rng, n_c, m_c) for n_c, m_c in sizes]))
    s_lab = np.repeat(np.arange(n_blocks), [n for n, _ in sizes])
    u_lab = np.repeat(np.arange(n_blocks), [m for _, m in sizes])
    ps, pu = rng.permutation(s_lab.size), rng.permutation(u_lab.size)
    return (a[np.ix_(ps, ps)], b[np.ix_(ps, pu)], q[np.ix_(ps, ps)],
            r[np.ix_(pu, pu)], s_lab[ps], u_lab[pu])


def _block(rng, n, m):
    if m == 0:
        a = rng.standard_normal((n, n))
        a -= (matops.abscissa(a) + 0.5) * np.eye(n) if n else 0.0
        b = np.zeros((n, 0))
    elif n == 0:
        a, b = np.zeros((0, 0)), np.zeros((0, m))
    else:
        a, b = random_controllable(rng, n, m)
    q_half = rng.standard_normal((n, n))
    r_half = rng.standard_normal((m, m))
    return a, b, q_half @ q_half.T + np.eye(n), r_half @ r_half.T + np.eye(m)


def random_hurwitz(rng, n, kind):
    """A Hurwitz n x n matrix of one of three kinds.

    similar: S D S^{-1} with cond(S) from 1 to 1e4 and D real block
    diagonal, real parts in [-2, -0.01] and complex pairs up to 5i;
    stiff: eigenvalues -1e-3 to -1e3, log spaced, in an orthonormal basis;
    triangular: upper triangular, diagonal in [-2, -0.1] and N(0, 25)
    couplings above it.
    """
    if kind == "similar":
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        s = u @ np.diag(np.logspace(0.0, -rng.uniform(0.0, 4.0), n)) @ v.T
        d = np.diag(-rng.uniform(0.01, 2.0, n))
        for i in range(0, n - 1, 2):
            if rng.random() < 0.5:
                im = rng.uniform(0.1, 5.0)
                d[i:i + 2, i:i + 2] = [[d[i, i], im], [-im, d[i, i]]]
        return s @ d @ np.linalg.inv(s)
    if kind == "stiff":
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        return basis @ np.diag(-np.logspace(-3.0, 3.0, n)) @ basis.T
    return (np.diag(-rng.uniform(0.1, 2.0, n))
            + np.triu(rng.normal(0.0, 5.0, (n, n)), 1))


def lyapunov_tol(a_s):
    """10 kappa eps, the relative forward-error bound of a Lyapunov solve on
    A_s: kappa = 2 |A_s|_2 |Y|_2 is the relative condition number of the
    Lyapunov operator of A_s, Y solving A_s' Y + Y A_s + I = 0."""
    y = scipy.linalg.solve_continuous_lyapunov(a_s.T, -np.eye(len(a_s)))
    kappa = 2.0 * np.linalg.norm(a_s, 2) * np.linalg.norm(y, 2)
    return 10.0 * kappa * np.finfo(float).eps


def cross(lab_rows, lab_cols):
    """Mask of the entries between different blocks."""
    return lab_rows[:, None] != lab_cols[None, :]


def couple(rng, m, lab_rows, lab_cols):
    """Set one entry of m between blocks 0 and 1 (either way round) to 0.5;
    returns the row and column masks of that off-diagonal block."""
    c, d = rng.permutation(2)
    m[rng.choice(np.flatnonzero(lab_rows == c)),
      rng.choice(np.flatnonzero(lab_cols == d))] = 0.5
    return lab_rows == c, lab_cols == d


class TestSymmetrize:
    def test_symmetric_part(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        s = matops.symmetrize(m)
        assert np.array_equal(s, s.T)
        assert np.allclose(s, [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            matops.symmetrize(np.zeros((2, 3)))


class TestSolveCare:
    def test_scalar_closed_form(self):
        # p**2 + 2p - 1 = 0, stabilizing root sqrt(2) - 1
        p = matops.solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                              np.array([[1.0]]), np.array([[1.0]]))
        assert abs(p[0, 0] - SQRT2_M1) < 1e-9

    def test_scalar_integrator(self):
        # a = 0: p**2 = 1, stabilizing root p = 1
        p = matops.solve_care(np.array([[0.0]]), np.array([[1.0]]),
                              np.array([[1.0]]), np.array([[1.0]]))
        assert abs(p[0, 0] - 1.0) < 1e-9

    def test_residual_contract_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, m = 6, 2
            a, b = random_controllable(rng, n, m)
            q = np.eye(n)
            r = np.eye(m)
            p = matops.solve_care(a, b, q, r)
            assert np.array_equal(p, p.T)
            assert matops.is_psd(p)
            res = care_residual(a, b, q, r, p)
            assert res <= 1e-9 * (1.0 + np.linalg.norm(p, "fro"))
            k = np.linalg.solve(r, b.T @ p)
            assert matops.abscissa(a - b @ k) < 0.0

    def test_matches_schur_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = 5, 2
            a, b = random_controllable(rng, n, m)
            q = np.eye(n)
            r = np.eye(m)
            p = matops.solve_care(a, b, q, r)
            p_ref = scipy.linalg.solve_continuous_are(a, b, q, r)
            assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
                1.0 + np.linalg.norm(p_ref, "fro"))

    def test_monotone_in_state_cost(self):
        # Q1 <= Q2 (Loewner) implies P1 <= P2 for the same (A, B, R).
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_controllable(rng, 4, 2)
            q1 = np.eye(4)
            bump = rng.standard_normal((4, 4))
            q2 = q1 + bump @ bump.T
            p1 = matops.solve_care(a, b, q1, np.eye(2))
            p2 = matops.solve_care(a, b, q2, np.eye(2))
            assert matops.is_psd(p2 - p1, tol=-1e-8)

    def test_not_stabilizable(self):
        # an unstable or marginal mode decoupled from the input channel, in
        # the given basis or a random one, or a component without inputs,
        # weighted by Q = I or (last two) left unweighted: the doubling
        # yields no stabilizing P, or a polish step's gain is not Hurwitz
        # (the random-basis diag(1, -1, 2) case), with no overflow warning
        rng = np.random.default_rng(71)
        s = rng.standard_normal((3, 3))
        cases = [(a, b, np.eye(len(a))) for a, b in [
            (np.diag([1.0, -1.0]), np.array([[0.0], [1.0]])),
            (np.diag([0.0, -1.0]), np.array([[0.0], [1.0]])),
            (np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
             np.array([[0.0], [0.0], [1.0]])),
            (s @ np.diag([1.0, -1.0, 2.0]) @ np.linalg.inv(s),
             s @ np.array([[0.0], [1.0], [1.0]])),
            (scipy.linalg.block_diag([[-1.0]], [[0.5, 1.0], [0.0, -1.0]]),
             np.array([[1.0], [0.0], [0.0]])),
        ]] + [
            (np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]), np.diag([0.0, 1.0])),
            (np.eye(1), np.zeros((1, 1)), np.zeros((1, 1))),
        ]
        for a, b, q in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonStabilizable):
                    matops.solve_care(a, b, q, np.eye(b.shape[1]))

    def test_blind_marginal_mode_in_any_basis(self):
        # diag(0, -1, 2) in a random orthonormal basis, B reaching only the
        # unstable mode and Q blind to the zero mode: no stabilizing P
        # exists.  The Riccati doubling stops with H still, and gives up
        # there; squaring E on until |E|_1 <= 1/2, as squared Smith does,
        # would return a P for 19 of these 20 bases
        rng = np.random.default_rng(71)
        for _ in range(20):
            s = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            a = s @ np.diag([0.0, -1.0, 2.0]) @ s.T
            b = s @ np.array([[0.0], [0.0], [1.0]])
            q = s @ np.diag([0.0, 1.0, 1.0]) @ s.T
            with pytest.raises((NonStabilizable, IterationDiverged)):
                matops.solve_care(a, b, q, np.eye(1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matops.solve_care(np.eye(3), np.ones((2, 1)), np.eye(3), np.eye(1))

    def test_unweighted_unstable_mode(self):
        # Q = 0 leaves the unstable mode unweighted, outside the
        # detectability assumption: the doubled P stays 0 and leaves
        # A - B K = 1, so the solve refuses although 2p - p**2 = 0 has the
        # stabilizing root 2.  p0 = 0 solves the equation exactly but leaves
        # A - B K = 1: ignored too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p0 in (None, [[0.0]]):
                with pytest.raises(NonStabilizable):
                    matops.solve_care([[1.0]], [[1.0]], [[0.0]], [[1.0]], p0=p0)

    def test_unweighted_unstable_block_property(self):
        # A = [[A11, A12], [0, A22]] with A11 unstable and Q = diag(0, I),
        # in a random orthonormal basis: Q sees none of A11's modes, which
        # B stabilizes.  The solve refuses, or, where rounding gives Q a
        # small weight on them, returns a P that meets the residual
        # contract, stabilizes and is scipy's Schur-method solution
        rng = np.random.default_rng(29)
        for _ in range(20):
            n1, n2, m = 2, 3, 2
            a, b = random_controllable(rng, n1 + n2, m)
            a[n1:, :n1] = 0.0
            a[:n1, :n1] += (1.0 - np.linalg.eigvals(a[:n1, :n1]).real.min()) * np.eye(n1)
            basis, _ = np.linalg.qr(rng.standard_normal((n1 + n2, n1 + n2)))
            a, b = basis @ a @ basis.T, basis @ b
            q = basis @ np.diag([0.0] * n1 + [1.0] * n2) @ basis.T
            r = np.eye(m)
            try:
                p = matops.solve_care(a, b, q, r)
            except NonStabilizable:
                continue
            assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
                1.0 + np.linalg.norm(p, "fro"))
            assert matops.abscissa(a - b @ np.linalg.solve(r, b.T @ p)) < 0.0
            p_ref = scipy.linalg.solve_continuous_are(a, b, q, r)
            assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
                1.0 + np.linalg.norm(p_ref, "fro"))

    def test_warm_start_from_stabilizing_cost(self, monkeypatch):
        # p0 = cost matrix of a stabilizing K0 other than the optimum misses
        # the residual contract, so it is ignored: the same bits as the cold
        # solve, with no stabilizable call, and below p0
        rng = np.random.default_rng(53)
        for _ in range(20):
            n, m = 6, 2
            a, b = random_controllable(rng, n, m)
            q, r = np.eye(n), np.eye(m)
            p_cold = matops.solve_care(a, b, q, r)
            k0 = np.linalg.solve(r, b.T @ p_cold) + 0.3 * rng.standard_normal((m, n))
            assert matops.abscissa(a - b @ k0) < 0.0
            p0 = matops.solve_lyapunov(a - b @ k0, q + k0.T @ r @ k0)
            with monkeypatch.context() as mp:
                mp.setattr(matops, "stabilizable", None)
                p_warm = matops.solve_care(a, b, q, r, p0=p0)
            assert care_residual(a, b, q, r, p_warm) <= (
                1e-9 * (1.0 + np.linalg.norm(p_warm, "fro")))
            assert np.array_equal(p_warm, p_cold)
            assert matops.is_psd(p0 - p_warm)

    def test_warm_start_at_solution_makes_no_solve(self, monkeypatch):
        rng = np.random.default_rng(59)
        a, b = random_controllable(rng, 5, 2)
        q, r = np.eye(5), np.eye(2)
        p = matops.solve_care(a, b, q, r)
        doubling, calls = matops._doubling, []

        def lyapunov_only(a, g, q):
            assert g is None, "a Riccati doubling ran"
            calls.append(1)
            return doubling(a, g, q)

        monkeypatch.setattr(matops, "_doubling", lyapunov_only)
        monkeypatch.setattr(matops, "solve_lyapunov", None)
        assert np.array_equal(matops.solve_care(a, b, q, r, p0=p), p)
        assert len(calls) == 1  # squared Smith certifies the gain Hurwitz

    def test_destabilizing_warm_start_ignored(self):
        # p0 = 0, whose gain K = 0 leaves A = I unstable, misses the
        # contract; p0 = (1 - sqrt 2) I, the other root of p**2 - 2p - 1 = 0,
        # meets it but leaves A - B K = sqrt(2) I unstable.  Both are
        # ignored: the stabilizing root 1 + sqrt(2), the cold solve's bits
        args = np.eye(2), np.eye(2), np.eye(2), np.eye(2)
        for p0 in (np.zeros((2, 2)), (1.0 - np.sqrt(2.0)) * np.eye(2)):
            p = matops.solve_care(*args, p0=p0)
            assert np.array_equal(p, matops.solve_care(*args))
            assert np.allclose(p, (1.0 + np.sqrt(2.0)) * np.eye(2), rtol=1e-12)
        assert matops._accepted(*args, p0, 1.0)[0]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12),
           m=st.integers(1, 4))
    def test_stabilizing_solution_property(self, seed, n, m):
        # random controllable (A, B) with random PD Q and R: the residual
        # contract, a Hurwitz closed loop, and scipy's Schur-method solution
        rng = np.random.default_rng(seed)
        a, b = random_controllable(rng, n, m)
        q_half, r_half = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        q, r = q_half @ q_half.T + 0.1 * np.eye(n), r_half @ r_half.T + 0.1 * np.eye(m)
        p = matops.solve_care(a, b, q, r)
        assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
            1.0 + np.linalg.norm(p, "fro"))
        assert matops.abscissa(a - b @ np.linalg.solve(r, b.T @ p)) < 0.0
        p_ref = scipy.linalg.solve_continuous_are(a, b, q, r)
        assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
            1.0 + np.linalg.norm(p_ref, "fro"))

    def test_no_schur_form_on_example1(self, monkeypatch):
        # the 100-state example1 system, cold and from the cost matrix of a
        # gain that is not optimal: doubling alone, no dgees
        mas, spec = sim.clique_path_scenario(5, 5)
        a, b, r = mas.a_full, mas.b_full, spec.r
        q = graphcost.assemble_q(spec)
        k0 = hierctrl.hierarchical_gain(mas, spec, sim.clique_decomposition(5, 5)).k_h
        u = matops.solve_lyapunov(a - b @ k0, q + k0.T @ r @ k0)
        monkeypatch.setattr(matops, "_schur", None)
        for p0 in (None, u):
            p = matops.solve_care(a, b, q, r, p0=p0)
            assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
                1.0 + np.linalg.norm(p, "fro"))

    def test_warm_start_shape_mismatch(self):
        with pytest.raises(ValueError):
            matops.solve_care(-np.eye(3), np.ones((3, 1)), np.eye(3),
                              np.eye(1), p0=np.eye(2))


class TestStabilizingGain:
    """matops.stabilizable's verdicts on (A, B)."""

    def test_hurwitz_is_stabilizable(self):
        assert matops.stabilizable(-np.eye(3) + np.triu(np.ones((3, 3)), 1),
                                   np.ones((3, 2)))

    def test_marginal_modes_stabilized(self):
        # double integrators: every eigenvalue is 0, none counts as stable
        mas = sim.build_formation(sim.default_formation())[0]
        assert matops.stabilizable(mas.a_full, mas.b_full)

    def test_uncontrollable_mode_in_any_basis(self):
        # an unstable mode without input, in a random basis, so Z2' B is
        # rounding rather than zero
        rng = np.random.default_rng(71)
        for _ in range(10):
            s = rng.standard_normal((3, 3))
            a = s @ np.diag([1.0, -1.0, 2.0]) @ np.linalg.inv(s)
            b = s @ np.array([[0.0], [1.0], [1.0]])
            assert not matops.stabilizable(a, b)

    def test_uncontrollable_marginal_mode(self):
        # an exact zero eigenvalue is not stable, with or without a coupled
        # stable part
        a = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        b = np.array([[0.0], [1.0], [1.0]])
        assert not matops.stabilizable(a, b)
        a[0, 0] = -0.5
        assert matops.stabilizable(a, b)

    @staticmethod
    def reordering_fails(monkeypatch, info, sort=True):
        """Patch matops.dgees to report info, the ordering done (sort) or
        never started."""
        dgees = matops.dgees

        def failing(select, a, sort_t=0, lwork=None):
            out = dgees(select, a, sort_t=sort_t if sort else 0, lwork=lwork)
            return (*out[:-1], info(a.shape[0]))

        monkeypatch.setattr(matops, "dgees", failing)

    def test_reordering_reported_failed_keeps_verdicts(self, monkeypatch):
        # info n + 2 on an ordered T: the stable eigenvalues ahead of the
        # first other one are all of them, so every verdict stands
        rng = np.random.default_rng(71)
        mas = sim.build_formation(sim.default_formation())[0]
        pairs = [(mas.a_full, mas.b_full),
                 (np.diag([1.0, -1.0, 2.0]), np.array([[1.0], [0.0], [1.0]])),
                 (np.diag([1.0, -1.0, 2.0]), np.array([[1.0], [1.0], [0.0]]))]
        for _ in range(5):
            s = rng.standard_normal((4, 4))
            pairs.append((s @ np.diag([0.5, -1.0, -2.0, 0.0]) @ np.linalg.inv(s),
                          rng.standard_normal((4, 1))))
        want = [matops.stabilizable(a, b) for a, b in pairs]
        self.reordering_fails(monkeypatch, lambda n: n + 2)
        assert [matops.stabilizable(a, b) for a, b in pairs] == want
        assert want[:3] == [True, True, False]

    def test_unordered_schur_form(self, monkeypatch):
        # info n + 1 before any swap: T11 is the stable run ahead of the
        # first other eigenvalue; a stable mode after it must be driven too
        self.reordering_fails(monkeypatch, lambda n: n + 1, sort=False)
        a = np.diag([-1.0, 1.0])
        assert matops.stabilizable(a, np.array([[0.0], [1.0]]))
        assert not matops.stabilizable(a, np.array([[1.0], [0.0]]))
        assert not matops.stabilizable(a[::-1, ::-1], np.array([[1.0], [0.0]]))
        assert matops.stabilizable(a[::-1, ::-1], np.array([[1.0], [1.0]]))
        self.reordering_fails(monkeypatch, lambda n: 1)
        with pytest.raises(np.linalg.LinAlgError):
            matops.stabilizable(a, np.array([[0.0], [1.0]]))

    def test_fourfold_zero_eigenvalue(self):
        # eigenvalues 0, 0, 0, 0 and 1e-3 in a random basis: computed as
        # +-1e-19 and below, and reordering them by sign fails (dgees info
        # n + 2 with scipy-openblas 0.3.31).  The zero eigenvalue has four
        # independent eigenvectors, so B needs rank 4
        s = np.random.default_rng(0).standard_normal((5, 5))
        a = s @ np.diag([0.0, 0.0, 0.0, 0.0, 1e-3]) @ np.linalg.inv(s)
        for m in (1, 3, 4, 5):
            b = np.random.default_rng(m).standard_normal((5, m))
            assert matops.stabilizable(a, b) == pbh_stabilizable(a, b) == (m >= 4)


class TestSolveLyapunov:
    def test_scalar(self):
        v = matops.solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert abs(v[0, 0] - 1.0) < 1e-12

    def test_zero_forcing(self):
        v = matops.solve_lyapunov(np.array([[-3.0]]), np.array([[0.0]]))
        assert abs(v[0, 0]) < 1e-14

    def test_decoupled_diagonal(self):
        v = matops.solve_lyapunov(np.diag([-1.0, -2.0]), np.eye(2))
        assert np.allclose(v, np.diag([0.5, 0.25]), atol=1e-12)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableMatrix):
            matops.solve_lyapunov(np.array([[1e-3]]), np.array([[1.0]]))

    def test_unstable_complex_pair_rejected(self):
        # eigenvalues 0.1 +/- 5i and -3: only the 2x2 Schur block is unstable
        rng = np.random.default_rng(43)
        d = np.array([[0.1, 5.0, 0.0], [-5.0, 0.1, 0.0], [0.0, 0.0, -3.0]])
        s = rng.standard_normal((3, 3))
        with pytest.raises(UnstableMatrix):
            matops.solve_lyapunov(s @ d @ np.linalg.inv(s), np.eye(3))

    def test_marginal_formation_rejected(self):
        # double-integrator agents: abscissa exactly 0
        mas = sim.build_formation(sim.default_formation())[0]
        a = mas.a_full
        with pytest.raises(UnstableMatrix):
            matops.solve_lyapunov(a, np.eye(a.shape[0]))

    @staticmethod
    def defective_instance(monkeypatch, defective_calls):
        """A dense 6-state (a_s, W), its solution V, a symmetric defect D of
        1e-4 |V|, and the list of _doubling calls, patched so that calls
        number defective_calls (from 1) return their answer plus D."""
        rng = np.random.default_rng(61)
        a_s = random_hurwitz(rng, 6, "similar")
        w_half = rng.standard_normal((6, 6))
        w = w_half @ w_half.T
        v = matops.solve_lyapunov(a_s, w)
        d = matops.symmetrize(rng.standard_normal((6, 6)))
        d *= 1e-4 * np.linalg.norm(v) / np.linalg.norm(d)
        doubling, calls = matops._doubling, []

        def defective(a, g, q):
            calls.append(q)
            h = doubling(a, g, q)
            return h + d if len(calls) in defective_calls else h

        monkeypatch.setattr(matops, "_doubling", defective)
        return a_s, w, v, d, calls

    def test_defect_corrected_in_one_step(self, monkeypatch):
        # the first pass returns V + D, which misses the residual contract;
        # the correction solves for -D from the residual and meets it
        a_s, w, v_true, d, calls = self.defective_instance(monkeypatch, {1})

        def share_of_contract(v):
            return np.linalg.norm(a_s.T @ v + v @ a_s + w, "fro") / (
                100.0 * matops.TOL_RESIDUAL * (1.0 + np.linalg.norm(v, "fro")))

        assert share_of_contract(v_true + d) > 1.0
        v = matops.solve_lyapunov(a_s, w)
        assert len(calls) == 2
        assert share_of_contract(v) <= 1.0
        assert np.linalg.norm(v - v_true) <= lyapunov_tol(a_s) * np.linalg.norm(v_true)

    def test_defect_twice_diverges(self, monkeypatch):
        # the correction is off by D too, so V + D is returned again
        a_s, w, *_, calls = self.defective_instance(monkeypatch, {1, 2})
        with pytest.raises(IterationDiverged, match="out of contract"):
            matops.solve_lyapunov(a_s, w)
        assert len(calls) == 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
           kind=st.sampled_from(["similar", "stiff", "triangular"]))
    def test_matches_scipy_property(self, seed, n, kind):
        # the residual contract, and scipy's Bartels-Stewart solution within
        # what the two residuals allow: for Hurwitz a_s and symmetric C the
        # X solving a_s' X + X a_s = C has |X|_2 <= |Y|_2 |C|_2, Y solving
        # a_s' Y + Y a_s + I = 0 (Hewer & Kenney 1988), and computing each
        # residual adds at most n eps (2 |a_s| |V| + |W|)
        rng = np.random.default_rng(seed)
        a_s = random_hurwitz(rng, n, kind)
        w_half = rng.standard_normal((n, n))
        w = w_half @ w_half.T
        v = matops.solve_lyapunov(a_s, w)
        assert np.array_equal(v, v.T)
        assert np.linalg.norm(a_s.T @ v + v @ a_s + w, "fro") <= (
            100.0 * matops.TOL_RESIDUAL * (1.0 + np.linalg.norm(v, "fro")))
        want = matops.symmetrize(scipy.linalg.solve_continuous_lyapunov(a_s.T, -w))
        y = scipy.linalg.solve_continuous_lyapunov(a_s.T, -np.eye(n))
        d_res = (a_s.T @ v + v @ a_s) - (a_s.T @ want + want @ a_s)
        rounding = n * np.finfo(float).eps * (
            2.0 * np.linalg.norm(a_s, 2) * np.linalg.norm(v, 2) + np.linalg.norm(w, 2))
        assert np.linalg.norm(v - want, 2) <= np.linalg.norm(y, 2) * (
            np.linalg.norm(d_res, 2) + rounding)

    def test_trace_matches_quadrature(self):
        # tr(V) = integral of tr(exp(As' t) W exp(As t)) dt on [0, inf)
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = 4
            a_s = rng.standard_normal((n, n))
            a_s -= (matops.abscissa(a_s) + 1.0) * np.eye(n)
            w_half = rng.standard_normal((n, n))
            w = w_half @ w_half.T
            v = matops.solve_lyapunov(a_s, w)
            dt, t_final, blk = 1e-3, 40.0, 200
            # midpoint rule at t = dt/2, 3dt/2, ...: a block of blk nodes is
            # expm(a_s t0) @ e_mid, e_mid[j] = expm(a_s (dt/2 + j dt))
            e_step = scipy.linalg.expm(a_s * dt)
            e_mid = np.empty((blk, n, n))
            e_mid[0] = scipy.linalg.expm(a_s * (dt / 2.0))
            for j in range(1, blk):
                e_mid[j] = e_mid[j - 1] @ e_step
            e_blk = np.linalg.matrix_power(e_step, blk)
            e0, total = np.eye(n), 0.0
            for _ in range(int(round(t_final / dt)) // blk):
                e = e0 @ e_mid
                total += np.einsum("kji,jl,kli->", e, w, e) * dt
                e0 = e0 @ e_blk
            assert abs(total - np.trace(v)) <= 1e-2 * np.trace(v)


class TestPinv:
    def test_diagonal_truncation(self):
        assert np.allclose(matops.pinv(np.diag([2.0, 0.0])),
                           np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        assert np.allclose(matops.pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_left_inverse_full_column_rank(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((6, 3))
        assert np.allclose(matops.pinv(m) @ m, np.eye(3), atol=1e-10)

    def test_four_defining_identities(self):
        rng = np.random.default_rng(23)
        for shape in [(4, 4), (6, 3), (3, 6)]:
            m = rng.standard_normal(shape)
            mp = matops.pinv(m)
            assert np.allclose(m @ mp @ m, m, atol=1e-10)
            assert np.allclose(mp @ m @ mp, mp, atol=1e-10)
            assert np.allclose((m @ mp).T, m @ mp, atol=1e-10)
            assert np.allclose((mp @ m).T, mp @ m, atol=1e-10)

    def test_involution_on_full_rank(self):
        rng = np.random.default_rng(29)
        m = rng.standard_normal((5, 5))
        assert np.allclose(matops.pinv(matops.pinv(m)), m, atol=1e-8)

    def test_rank_deficient_projection(self):
        # rank-1 outer product: pinv projects onto the single direction
        u = np.array([[1.0], [2.0]])
        m = u @ u.T
        mp = matops.pinv(m)
        assert np.allclose(m @ mp @ m, m, atol=1e-12)
        assert np.linalg.matrix_rank(mp) == 1


class TestHiddenBlocks:
    """solve_care, solve_lyapunov and pinv on block-diagonal inputs behind
    random permutations: exact zeros between blocks and the dense solvers'
    answers; and once one entry couples two blocks, the dense path's bits."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(2, 4))
    def test_care_split(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        a, b, q, r, s_lab, _ = hidden_blocks(rng, n_blocks)
        p = matops.solve_care(a, b, q, r)
        assert np.all(p[cross(s_lab, s_lab)] == 0.0)
        assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
            1.0 + np.linalg.norm(p, "fro"))
        p_ref = scipy.linalg.solve_continuous_are(a, b, q, r)
        assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
            1.0 + np.linalg.norm(p_ref, "fro"))
        # from its own solution every block is accepted at once
        assert np.array_equal(matops.solve_care(a, b, q, r, p0=p), p)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_care_coupled(self, seed):
        # one entry of A between two blocks with states: A is block
        # triangular, so still stabilizable, and the problem one component.
        # A block without inputs (and Hurwitz A_c) is a stable part that is
        # not controllable; wherever scipy finds the stabilizing solution,
        # solve_care finds it too
        rng = np.random.default_rng(seed)
        s_lab = np.zeros(0)
        while set(s_lab) != {0, 1}:
            a, b, q, r, s_lab, _ = hidden_blocks(rng, 2)
        rows, cols = couple(rng, a, s_lab, s_lab)
        try:
            p_ref = scipy.linalg.solve_continuous_are(a, b, q, r)
        except (np.linalg.LinAlgError, ValueError):
            reject()
        p = matops.solve_care(a, b, q, r)
        assert np.array_equal(p, matops._care_component(a, b, q, r, None, 1.0))
        assert np.any(p[np.ix_(rows, cols)] != 0.0)
        assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
            1.0 + np.linalg.norm(p, "fro"))
        assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
            1.0 + np.linalg.norm(p_ref, "fro"))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(2, 4))
    def test_lyapunov_split(self, seed, n_blocks):
        # Bartels-Stewart's answer to the forward-error bound lyapunov_tol:
        # over seeds 0-399 at 2-4 blocks the largest share of it used was
        # 0.22, where a fixed 1e-12 failed 19 of the 1,200 draws
        rng = np.random.default_rng(seed)
        a, b, q, r, s_lab, _ = hidden_blocks(rng, n_blocks)
        a_s = a - b @ np.linalg.solve(r, b.T @ matops.solve_care(a, b, q, r))
        v = matops.solve_lyapunov(a_s, q)
        assert np.all(v[cross(s_lab, s_lab)] == 0.0)
        want = matops.symmetrize(scipy.linalg.solve_continuous_lyapunov(a_s.T, -q))
        assert np.linalg.norm(v - want, "fro") <= (
            lyapunov_tol(a_s) * np.linalg.norm(want, "fro"))
        n = a_s.shape[0]
        with pytest.raises(ValueError, match="shape"):
            matops.solve_lyapunov(a_s, np.eye(n + 1))
        with pytest.raises(ValueError, match="finite"):
            matops.solve_lyapunov(np.where(a_s == a_s[0, 0], np.nan, a_s), q)

        # one entry between blocks 0 and 1 of the closed loop: block
        # triangular, so still Hurwitz, and one component
        keep = s_lab < 2
        a_s, s_lab = a_s[np.ix_(keep, keep)], s_lab[keep]
        if set(s_lab) == {0, 1}:
            rows, cols = couple(rng, a_s, s_lab, s_lab)
            v = matops.solve_lyapunov(a_s, q[np.ix_(keep, keep)])
            assert np.any(v[np.ix_(rows, cols)] != 0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(2, 4))
    def test_pinv_split(self, seed, n_blocks):
        # blocks of 0-3 rows and columns, some of rank one
        rng = np.random.default_rng(seed)
        shapes = rng.integers(0, 4, (n_blocks, 2))
        m = scipy.linalg.block_diag(*[
            rng.standard_normal((i, 1)) @ rng.standard_normal((1, j))
            if rng.random() < 0.3 else rng.standard_normal((i, j))
            for i, j in shapes])
        r_lab = np.repeat(np.arange(n_blocks), shapes[:, 0])
        c_lab = np.repeat(np.arange(n_blocks), shapes[:, 1])
        pr, pc = rng.permutation(r_lab.size), rng.permutation(c_lab.size)
        m, r_lab, c_lab = m[np.ix_(pr, pc)], r_lab[pr], c_lab[pc]
        mp = matops.pinv(m)
        assert mp.shape == m.shape[::-1]
        assert np.all(mp[cross(c_lab, r_lab)] == 0.0)
        if m.size:
            want = np.linalg.pinv(m, rcond=max(m.shape) * np.finfo(float).eps)
            assert np.allclose(mp, want, rtol=0.0, atol=1e-10 * np.abs(want).max())

        # one entry between blocks 0 and 1, both with rows and columns
        keep_r, keep_c = r_lab < 2, c_lab < 2
        m, r_lab, c_lab = m[np.ix_(keep_r, keep_c)], r_lab[keep_r], c_lab[keep_c]
        if set(r_lab) == set(c_lab) == {0, 1}:
            rows, cols = couple(rng, m, r_lab, c_lab)
            mp = matops.pinv(m)
            assert np.array_equal(mp, svd_pinv(m))
            assert np.any(mp[np.ix_(cols, rows)] != 0.0)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestEqualComponents:
    """solve_care, solve_lyapunov and pinv solve each set of components
    with bit-equal input blocks once, by _solve_once, and give the bits of
    oracles.split_*, which solve every component."""

    def test_solve_once(self):
        x = np.arange(16.0).reshape(4, 4)
        x[2:, 2:] = x[:2, :2]  # x[2, 2] == x[0, 0] == 0.0
        comps = [(np.arange(2),), (np.arange(2, 4),), (np.array([1]),),
                 (np.array([2]),), (np.array([0]),)]
        solved = []

        def solve(block):
            solved.append(block)
            return block

        def blocks(c):
            return (matops._block(x, c, c),)

        # equal blocks share a solve; blocks of unequal sizes do not
        answers = matops._solve_once(comps, blocks, solve)
        assert len(solved) == 3
        assert answers[1] is answers[0] and answers[4] is answers[3]
        assert [a.shape for a in answers] == [(2, 2)] * 2 + [(1, 1)] * 3
        solved.clear()
        x[2, 2] = -0.0  # equal to 0.0, but not bit-equal
        answers = matops._solve_once(comps, blocks, solve)
        assert len(solved) == 5
        assert np.array_equal(answers[0], answers[1]) and answers[3] == answers[4]
        solved.clear()
        y = np.array([[0.0, 1.0], [4.0, 5.0], [1.0, 0.0], [4.0, 5.0]])
        answers = matops._solve_once([(np.arange(2),), (np.arange(2, 4),)],
                                     lambda r: (y.take(r, 0),), solve)
        assert len(solved) == 2  # the same XOR of bit patterns, not the same bits

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3))
    def test_lifted_matches_split_oracle(self, seed, d):
        # (A, B, Q, R) (x) I_d: d bit-equal components, interleaved as
        # example1's axes are, state i of axis k at index i d + k
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))

        def lift(x):
            return np.kron(x, np.eye(d))

        a, b, q, r = map(lift, _block(rng, n, m))
        p = matops.solve_care(a, b, q, r)
        assert same_bits(p, split_care(a, b, q, r))
        assert same_bits(matops.solve_care(a, b, q, r, p0=p), split_care(a, b, q, r, p0=p))
        k = np.linalg.solve(r, b.T @ p)
        a_s, w = a - b @ k, q + k.T @ r @ k
        assert same_bits(matops.solve_lyapunov(a_s, w), split_lyapunov(a_s, w))
        for mat in (p @ b, lift(rng.standard_normal((n, 1)) @ rng.standard_normal((1, m)))):
            assert same_bits(matops.pinv(mat), split_pinv(mat))

    def test_example1_axes_share_one_solve(self, monkeypatch):
        # the cost matrix U of example1's 5 x 5 hierarchical gain: one
        # squared-Smith run for both axes, and one each once an entry of
        # the x axis changes
        mas, spec = sim.clique_path_scenario(5, 5)
        k_h = hierctrl.hierarchical_gain(mas, spec, sim.clique_decomposition(5, 5)).k_h
        a_s = mas.a_full - mas.b_full @ k_h
        w = graphcost.assemble_q(spec) + k_h.T @ spec.r @ k_h
        doubling, calls = matops._doubling, []
        monkeypatch.setattr(matops, "_doubling",
                            lambda a, g, q: calls.append(a.shape) or doubling(a, g, q))
        u = matops.solve_lyapunov(a_s, w)
        assert calls == [(50, 50)]
        assert same_bits(u, split_lyapunov(a_s, w))
        w[0, 0] += 1e-3
        calls.clear()
        u = matops.solve_lyapunov(a_s, w)
        assert calls == [(50, 50)] * 2
        assert same_bits(u, split_lyapunov(a_s, w))

    def test_correction_shared_by_equal_components(self, monkeypatch):
        # TestSolveLyapunov's defect in the first solve, on (a_s, W) (x) I_2:
        # the twin copies V + D, both miss the contract, and the twin takes
        # its residual-equal twin's corrected V rather than adding it
        a_s, w, v_true, _, calls = TestSolveLyapunov.defective_instance(monkeypatch, {1})
        for lift, axes in ((lambda x: np.kron(x, np.eye(2)), (np.s_[0::2], np.s_[1::2])),
                           (lambda x: np.kron(np.eye(2), x), (np.s_[:6], np.s_[6:]))):
            calls.clear()
            v = matops.solve_lyapunov(lift(a_s), lift(w))
            assert len(calls) == 2
            x, y = (v[ax, ax] for ax in axes)
            assert same_bits(x, y)
            assert np.linalg.norm(x - v_true) <= lyapunov_tol(a_s) * np.linalg.norm(v_true)


    def test_correction_own_component_only(self, monkeypatch):
        # TestSolveLyapunov's defect in the first solve, on a_s beside a
        # second, distinct component: only the defective component is
        # solved again, and the assembled V meets the global contract
        a_s, w, v_true, _, calls = TestSolveLyapunov.defective_instance(monkeypatch, {1})
        rng = np.random.default_rng(62)
        a_2 = random_hurwitz(rng, 4, "similar")
        big_a, big_w = matops.block_diag(a_s, a_2), matops.block_diag(w, np.eye(4))
        v = matops.solve_lyapunov(big_a, big_w)
        assert len(calls) == 3  # two components, one correction
        assert [q.shape for q in calls] == [(6, 6), (6, 6), (4, 4)]
        assert np.linalg.norm(v[:6, :6] - v_true) <= lyapunov_tol(a_s) * np.linalg.norm(v_true)
        assert np.all(v[:6, 6:] == 0.0)
        assert same_bits(v[6:, 6:], matops._doubling(a_2, None, np.eye(4)))
        res = big_a.T @ v + v @ big_a + big_w
        assert np.linalg.norm(res, "fro") <= 100.0 * matops.TOL_RESIDUAL * (
            1.0 + np.linalg.norm(v, "fro"))


class TestFactorOnceDoubling:
    """_doubling inverts A_g, V and each W once, by LAPACK dgetrf and
    dgetri, and applies the inverses by GEMM; oracles.lu_doubling, the
    reference, takes an LU solve per use.  solve_care and solve_lyapunov
    run on either agree to lyapunov_tol of the (closed loop) matrix A_s,
    relative.  Over 1500 draws of each generator, the largest share of that
    tolerance used was 0.37."""

    @staticmethod
    def assert_agree(solve, args, a_s=None):
        x = solve(*args)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matops, "_doubling", lu_doubling)
            x_ref = solve(*args)
        if a_s is None:  # the Riccati closed loop
            a, b, _, r = args
            a_s = a - b @ np.linalg.solve(r, b.T @ x_ref)
        assert np.linalg.norm(x - x_ref, "fro") <= (
            lyapunov_tol(a_s) * np.linalg.norm(x_ref, "fro"))
        return x

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(1, 4),
           coupled=st.booleans())
    def test_care_matches_lu_doubling(self, seed, n_blocks, coupled):
        # coupled: one entry of A between blocks 0 and 1, as in
        # TestHiddenBlocks.test_care_coupled
        rng = np.random.default_rng(seed)
        a, b, q, r, s_lab, _ = hidden_blocks(rng, n_blocks)
        if coupled and {0, 1} <= set(s_lab):
            couple(rng, a, s_lab, s_lab)
        self.assert_agree(matops.solve_care, (a, b, q, r))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 24),
           kind=st.sampled_from(["similar", "stiff", "triangular"]))
    def test_lyapunov_matches_lu_doubling(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        a_s = random_hurwitz(rng, n, kind)
        w_half = rng.standard_normal((n, n))
        self.assert_agree(matops.solve_lyapunov, (a_s, w_half @ w_half.T), a_s)

    def test_benchmark_component_size(self):
        # example1 with 10 cliques of 10 agents: the 400-state reference
        # CARE and its cost matrix U split into two 200-state components
        mas, spec = sim.clique_path_scenario(10, 10)
        a, b, q, r = mas.a_full, mas.b_full, graphcost.assemble_q(spec), spec.r
        p = self.assert_agree(matops.solve_care, (a, b, q, r))
        k = np.linalg.solve(r, b.T @ p)
        a_s = a - b @ k
        self.assert_agree(matops.solve_lyapunov, (a_s, q + k.T @ r @ k), a_s)

    def test_one_factorization_per_matrix(self, monkeypatch):
        # CARE_MAX_ITER doublings, too few to converge: A_g, V and each W
        # are factored once; squared Smith factors A_g alone.  No np.linalg
        # solve or inverse is called
        factored = []
        dgetrf = matops.dgetrf
        monkeypatch.setattr(matops, "dgetrf", lambda m: factored.append(m) or dgetrf(m))
        for name in ("solve", "inv"):
            monkeypatch.setattr(np.linalg, name, None)
        a, g, q = np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]])
        for k in (1, 2, 3):
            monkeypatch.setattr(matops, "CARE_MAX_ITER", k)
            factored.clear()
            assert matops._doubling(a, g, q) is None
            assert len(factored) == 2 + k
            factored.clear()
            matops._doubling(a, None, q)
            assert len(factored) == 1

    def test_singular_inverse_breaks_down(self, monkeypatch):
        for m in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]])):
            with pytest.raises(np.linalg.LinAlgError, match="singular"):
                matops._inv(m)
        assert matops._inv(np.zeros((0, 0))).shape == (0, 0)
        # a singular W in the second doubling: no P, and no warning
        inv, calls = matops._inv, []

        def failing(m):
            calls.append(m)
            if len(calls) == 4:
                raise np.linalg.LinAlgError("singular matrix")
            return inv(m)

        monkeypatch.setattr(matops, "_inv", failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert matops._doubling(np.array([[-1.0]]), np.array([[1.0]]),
                                    np.array([[1.0]])) is None
        assert len(calls) == 4


class TestScipyBits:
    """matops' block_diag and solve_continuous_lyapunov, and the LAPACK
    routines hlqr._lapack loads, give scipy.linalg's bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 24, 48, 100, 150])
    def test_solve_continuous_lyapunov(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, 3))
        q = rng.standard_normal((n, n))
        shifted = a + (np.linalg.norm(a, "fro") + 0.5) * np.eye(n)
        for a_x, q_x in ((shifted, 2.0 * b @ b.T), (a, q)):
            assert np.array_equal(
                matops.solve_continuous_lyapunov(a_x, q_x),
                scipy.linalg.solve_continuous_lyapunov(a_x, q_x))
        q[0, -1] = np.inf
        with pytest.raises(ValueError, match="infs or NaNs"):
            matops.solve_continuous_lyapunov(a, q)

    @pytest.mark.parametrize("seed", range(4))
    def test_block_diag(self, seed):
        rng = np.random.default_rng(seed)
        shapes = rng.integers(0, 40, (int(rng.integers(1, 8)), 2))
        blocks = [rng.standard_normal(tuple(s)) for s in shapes]
        assert np.array_equal(matops.block_diag(*blocks),
                              scipy.linalg.block_diag(*blocks))
        ints = [np.arange(6).reshape(2, 3), np.ones((1, 1), dtype=int)]
        got, want = matops.block_diag(*ints), scipy.linalg.block_diag(*ints)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 200])
    def test_dgetrf_dgetri(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        got = _lapack.dgetrf(a)
        want = scipy.linalg.lapack.dgetrf(a)
        assert got[-1] == want[-1] == 0
        for x, y in zip(got[:-1], want[:-1]):
            assert np.array_equal(x, y)
        lwork = int(_lapack.dgetri_lwork(n)[0])
        assert lwork == int(scipy.linalg.lapack.dgetri_lwork(n)[0])
        got = _lapack.dgetri(*got[:2], lwork=lwork)
        want = scipy.linalg.lapack.dgetri(*want[:2], lwork=lwork)
        assert got[-1] == want[-1] == 0
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(matops._inv(a), want[0])

    @pytest.mark.parametrize("n", [1, 2, 9, 64, 150])
    def test_dgees(self, n):
        a = np.random.default_rng(n).standard_normal((n, n))
        lwork = int(_lapack.dgees(matops._no_select, a, lwork=-1)[-2][0])
        got = _lapack.dgees(matops._no_select, a, lwork=lwork)
        want = scipy.linalg.lapack.dgees(matops._no_select, a, lwork=lwork)
        assert got[-1] == want[-1] == 0
        for x, y in zip(got[:-1], want[:-1]):
            assert np.array_equal(x, y)


class TestResidualGuards:
    def test_lyapunov_residual_guard_untriggered(self):
        # well-posed instances must not trip the IterationDiverged contract
        rng = np.random.default_rng(37)
        for _ in range(10):
            a_s = rng.standard_normal((3, 3)) - 4.0 * np.eye(3)
            w = np.eye(3)
            try:
                matops.solve_lyapunov(a_s, w)
            except IterationDiverged as exc:  # pragma: no cover
                pytest.fail(f"unexpected residual failure: {exc}")
