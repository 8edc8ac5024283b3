"""Riccati/Lyapunov solvers and pseudoinverse."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hlqr import _lapack, matops, sim
from hlqr.errors import IterationDiverged, NonStabilizable, UnstableMatrix
from oracles import care_residual, svd_pinv

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
        # unstable mode decoupled from the input channel
        a = np.diag([1.0, -1.0])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(NonStabilizable):
            matops.solve_care(a, b, np.eye(2), np.eye(1))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matops.solve_care(np.eye(3), np.ones((2, 1)), np.eye(3), np.eye(1))

    def test_warm_start_from_stabilizing_cost(self, monkeypatch):
        # p0 = cost matrix of a stabilizing K0 is Newton-Kleinman's first
        # iterate from K0: no stabilizing_gain start, and the same solution
        # to within the residual tolerance
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
                mp.setattr(matops, "stabilizing_gain", None)
                p_warm = matops.solve_care(a, b, q, r, p0=p0)
            assert care_residual(a, b, q, r, p_warm) <= (
                1e-9 * (1.0 + np.linalg.norm(p_warm, "fro")))
            assert np.linalg.norm(p_warm - p_cold, "fro") <= 1e-7 * (
                1.0 + np.linalg.norm(p_cold, "fro"))
            assert matops.is_psd(p0 - p_warm)

    def test_warm_start_at_solution_makes_no_solve(self, monkeypatch):
        rng = np.random.default_rng(59)
        a, b = random_controllable(rng, 5, 2)
        q, r = np.eye(5), np.eye(2)
        p = matops.solve_care(a, b, q, r)
        monkeypatch.setattr(matops, "_kleinman_step", None)
        assert np.array_equal(matops.solve_care(a, b, q, r, p0=p), p)

    def test_destabilizing_iterate_diverges(self):
        # p0 = 0 gives K = 0, which leaves A = I unstable: the Newton-Kleinman
        # step reports divergence instead of heading for the anti-stabilizing
        # solution 1 - sqrt(2)
        with pytest.raises(IterationDiverged, match="lost stability"):
            matops.solve_care(np.eye(2), np.eye(2), np.eye(2), np.eye(2),
                              p0=np.zeros((2, 2)))

    def test_warm_start_shape_mismatch(self):
        with pytest.raises(ValueError):
            matops.solve_care(-np.eye(3), np.ones((3, 1)), np.eye(3),
                              np.eye(1), p0=np.eye(2))


class TestStabilizingGain:
    def test_hurwitz_gets_zero_gain(self):
        k = matops.stabilizing_gain(-np.eye(3) + np.triu(np.ones((3, 3)), 1),
                                    np.ones((3, 2)))
        assert k.shape == (2, 3) and not k.any()

    def test_stabilizes_and_keeps_stable_modes(self):
        # the stable eigenvalues of A stay in A - B K, the others move
        # left of -beta
        rng = np.random.default_rng(67)
        for _ in range(30):
            n, m = 6, 2
            a, b = random_controllable(rng, n, m)
            k = matops.stabilizing_gain(a, b)
            lam = np.linalg.eigvals(a)
            lam_cl = np.linalg.eigvals(a - b @ k)
            assert lam_cl.real.max() < 0.0
            for mu in lam[lam.real < 0.0]:
                assert np.abs(lam_cl - mu).min() <= 1e-8 * (1.0 + abs(mu))

    def test_marginal_modes_stabilized(self):
        # double integrators: every eigenvalue is 0, none counts as stable
        mas = sim.build_formation(sim.default_formation())[0]
        a, b = mas.a_full, mas.b_full
        assert matops.abscissa(a - b @ matops.stabilizing_gain(a, b)) < 0.0

    def test_uncontrollable_mode_in_any_basis(self):
        # an unstable mode without input, in a random basis, so Z2' B is
        # rounding rather than zero
        rng = np.random.default_rng(71)
        for _ in range(10):
            s = rng.standard_normal((3, 3))
            a = s @ np.diag([1.0, -1.0, 2.0]) @ np.linalg.inv(s)
            b = s @ np.array([[0.0], [1.0], [1.0]])
            with pytest.raises(NonStabilizable):
                matops.stabilizing_gain(a, b)

    def test_uncontrollable_marginal_mode(self):
        # an exact zero eigenvalue is not stable, with or without a coupled
        # stable part
        a = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
        b = np.array([[0.0], [1.0], [1.0]])
        with pytest.raises(NonStabilizable):
            matops.stabilizing_gain(a, b)
        a[0, 0] = -0.5
        k = matops.stabilizing_gain(a, b)
        assert matops.abscissa(a - b @ k) < 0.0


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

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            for _ in range(3):
                a_s = rng.standard_normal((n, n))
                a_s -= (matops.abscissa(a_s) + 0.5) * np.eye(n)
                w_half = rng.standard_normal((n, n))
                w = w_half @ w_half.T
                want = matops.symmetrize(
                    scipy.linalg.solve_continuous_lyapunov(a_s.T, -w))
                assert np.array_equal(matops.solve_lyapunov(a_s, w), want)
        # the random draws above have complex pairs; check one explicitly
        assert np.iscomplex(np.linalg.eigvals(a_s)).any()

    def test_shared_factor_bit_identical(self):
        # one schur_factor serves every right-hand side, and each solve is
        # the same bits as factoring a_s afresh and as scipy's solver
        rng = np.random.default_rng(61)
        for n in (1, 3, 8, 21):
            a_s = rng.standard_normal((n, n))
            a_s -= (matops.abscissa(a_s) + 0.5) * np.eye(n)
            f = matops.schur_factor(a_s)
            for _ in range(3):
                w_half = rng.standard_normal((n, n))
                w = w_half @ w_half.T
                got = matops.solve_lyapunov(f, w)
                assert np.array_equal(got, matops.solve_lyapunov(a_s, w))
                assert np.array_equal(got, matops.symmetrize(
                    scipy.linalg.solve_continuous_lyapunov(a_s.T, -w)))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.integers(matops._LEAF + 1, 4 * matops._LEAF))
    def test_blocked_solve_with_pair_at_split(self, seed, n):
        # above _LEAF the triangular solve is split in the middle; a 2x2
        # Schur block across the middle index moves the split, never cut
        rng = np.random.default_rng(seed)
        k = n // 2
        t = np.triu(rng.standard_normal((n, n)), 1) / n
        i = 0
        while i < n:
            if i == k - 1 or (i + 1 < n and i + 1 != k - 1 and rng.random() < 0.5):
                # LAPACK's standard form: equal diagonal, opposite off-diagonals
                re, (b, c) = -rng.uniform(0.01, 2.0), rng.uniform(0.2, 1.0, 2)
                t[i:i + 2, i:i + 2] = [[re, b], [-c, re]]
                i += 2
            else:
                t[i, i] = -rng.uniform(0.01, 2.0)
                i += 1
        assert t[k, k - 1] != 0.0 and matops._split(t) == k + 1
        z = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a_s = z @ t.T @ z.T
        w_half = rng.standard_normal((n, n))
        w = w_half @ w_half.T

        v = matops.solve_lyapunov(matops.SchurFactor(a_s, t, z), w)
        res = np.linalg.norm(a_s.T @ v + v @ a_s + w, "fro")
        eps = np.finfo(float).eps
        assert res <= 100 * n * eps * (
            2.0 * np.linalg.norm(a_s, "fro") * np.linalg.norm(v, "fro")
            + np.linalg.norm(w, "fro"))
        # every draw has abscissa <= -0.01
        want = matops.symmetrize(scipy.linalg.solve_continuous_lyapunov(a_s.T, -w))
        assert np.linalg.norm(v - want, "fro") <= 1e-12 * np.linalg.norm(want, "fro")
        assert np.array_equal(matops.solve_lyapunov(matops.schur_factor(a_s), w),
                              matops.solve_lyapunov(a_s, w))

    def test_dtrsyl_scale_refused(self, monkeypatch):
        # dtrsyl solves T X + X T' = scale C and lowers scale below 1 only to
        # avoid overflow; a scaled leaf is refused, in a blocked solve too
        dtrsyl = matops.dtrsyl

        def scaled(*args, **kwargs):
            x, _, info = dtrsyl(*args, **kwargs)
            return x, 0.5, info

        monkeypatch.setattr(matops, "dtrsyl", scaled)
        for n in (3, matops._LEAF + 6):
            with pytest.raises(IterationDiverged, match="overflow"):
                matops.solve_lyapunov(-np.eye(n), np.eye(n))

    def test_factor_rejects_unstable_and_wrong_shape(self):
        with pytest.raises(UnstableMatrix):
            matops.schur_factor(np.array([[0.0, 1.0], [0.0, 0.0]]))
        f = matops.schur_factor(-np.eye(3))
        with pytest.raises(ValueError):
            matops.solve_lyapunov(f, np.eye(2))

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
    """solve_care, schur_factor and pinv on block-diagonal inputs behind
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
        assert np.array_equal(p, matops._newton_kleinman(a, b, q, r, None, 1.0))
        assert np.any(p[np.ix_(rows, cols)] != 0.0)
        assert care_residual(a, b, q, r, p) <= matops.TOL_RESIDUAL * (
            1.0 + np.linalg.norm(p, "fro"))
        assert np.linalg.norm(p - p_ref, "fro") <= 1e-7 * (
            1.0 + np.linalg.norm(p_ref, "fro"))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_blocks=st.integers(2, 4))
    def test_schur_factor_split(self, seed, n_blocks):
        rng = np.random.default_rng(seed)
        a, b, q, r, s_lab, _ = hidden_blocks(rng, n_blocks)
        a_s = a - b @ np.linalg.solve(r, b.T @ matops.solve_care(a, b, q, r))
        f = matops.schur_factor(a_s)
        n = a_s.shape[0]
        assert np.all(np.tril(f.t, -2) == 0.0)
        assert np.allclose(f.z.T @ f.z, np.eye(n), rtol=0.0, atol=1e-13)
        assert np.allclose(f.z @ f.t @ f.z.T, a_s.T, rtol=0.0,
                           atol=1e-13 * np.linalg.norm(a_s, "fro"))
        v = matops.solve_lyapunov(f, q)
        assert np.all(v[cross(s_lab, s_lab)] == 0.0)
        want = matops.symmetrize(scipy.linalg.solve_continuous_lyapunov(a_s.T, -q))
        assert np.linalg.norm(v - want, "fro") <= 1e-12 * np.linalg.norm(want, "fro")

        # one entry between blocks 0 and 1 of the closed loop: block
        # triangular, so still Hurwitz, and the dense Schur form
        keep = s_lab < 2
        a_s, s_lab = a_s[np.ix_(keep, keep)], s_lab[keep]
        if set(s_lab) == {0, 1}:
            rows, cols = couple(rng, a_s, s_lab, s_lab)
            f = matops.schur_factor(a_s)
            t, z = scipy.linalg.schur(a_s.T, output="real")
            assert np.array_equal(f.t, t) and np.array_equal(f.z, z)
            v = matops.solve_lyapunov(f, q[np.ix_(keep, keep)])
            assert np.any(v[np.ix_(rows, cols)] != 0.0)

    @pytest.mark.parametrize("n_blocks", [1, 4])
    def test_schur_factor_bits_of_scipy(self, n_blocks):
        # dgees called directly returns scipy.linalg.schur's factors, of the
        # whole matrix or of each component
        rng = np.random.default_rng(11)
        sizes = [1, 2, 5, 8][:n_blocks] if n_blocks > 1 else [9]
        a_s = scipy.linalg.block_diag(*[
            rng.standard_normal((k, k)) - 2.0 * k * np.eye(k) for k in sizes])
        perm = rng.permutation(a_s.shape[0])
        a_s = a_s[np.ix_(perm, perm)]
        f = matops.schur_factor(a_s)
        comps = matops._components((a_s != 0) | (a_s != 0).T)
        assert len(comps) == n_blocks
        assert np.any(np.diag(f.t, -1))  # a complex pair's 2x2 block
        i = 0
        for c in comps:
            t, z = scipy.linalg.schur(a_s[np.ix_(c, c)].T, output="real")
            assert np.array_equal(f.t[i:i + c.size, i:i + c.size], t)
            assert np.array_equal(f.z[c, i:i + c.size], z)
            i += c.size
        with pytest.raises(ValueError, match="finite"):
            matops.schur_factor(np.where(a_s == a_s[0, 0], np.nan, a_s))

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
