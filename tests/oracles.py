"""Reference solvers that the library's faster paths are checked against.

svd_pinv is matops.pinv without the split at connected components: one SVD
of the whole matrix.  split_care, split_lyapunov and split_pinv are
matops.solve_care, solve_lyapunov and pinv with every connected component
solved on its own, where the library solves each set of components with
bit-equal input blocks once and shares the answer (matops._solve_once).  lu_doubling is matops._doubling with each linear
solve done by np.linalg.solve or np.linalg.inv, a fresh LU factorization
per use, where the library inverts each matrix once by LAPACK dgetri and
applies the inverse by GEMM.  care_residual is the Riccati residual of a
candidate P, with its gain formed from R.  comm_links_loop tests
graphcost.comm_links' agent pairs one at a time.  pbh_stabilizable is the
Popov-Belevitch-Hautus rank test that graphcost.check_assumptions replaces
by one Riccati doubling with Q = I (matops.stabilizable), and abscissa the
eigenvalue (LAPACK dgeev) test of a Hurwitz matrix that the library's
doubling certificate (matops._hurwitz) replaces.  is_psd tests a
symmetric part PSD by its least eigenvalue, and svec lists a symmetric
matrix's unique entries in the order adp.unsvec reads them; the library
calls neither.

Pointwise gives a test signal written as a function of time the
.table(h, n) form that the simulator reads.  half_grid_table is the
simulator's former signal path: the whole RK4 half-grid tabulated before a
kernel runs, with excitation_table, the former adp.Excitation.table(ts),
for excitations.  The library tabulates each kernel chunk's rows instead,
and its outputs must equal the whole-table ones bit for bit.  table_rows
gives such a table the rows(h0, h1) form in which the kernels read signals.

integrate_callable is an RK4 step loop that evaluates a state-feedback
callable at every stage; it is the reference for the rollout kernel behind
sim.integrate.  stage_quadrature is the rollout kernel's former cost path:
the stage states and inputs of a state record as batched products, and the
RK4 quadrature of x'Qx + u'Ru and u'u summed stage by stage, where the
kernel takes each step's increments as squared norms of one product.  evaluate_cost gives the analytic closed-loop costs of a gain
by two Lyapunov solves of scipy's, not hlqr's, and quadrature_cost the same
costs integrated in time.

cost_spec_checks_loop is CostSpec's validation of its blocks, one block
at a time.

dense_cluster_costs is graphcost.cluster_costs sliced out of the whole
dense Qhat = Qbar + G1 (x) Qtilde, which the library never forms.

dense_gap_report is hierctrl.gap_report with every spectrum taken of the
dense matrix: scriptP, B, Qbar, R and P_opt whole, where the library reads
them from their cluster, agent and component blocks.

enumerate_partitions lists every set partition once, by brute force, for
the branch-and-bound searches of hlqr.partition to be checked against.  It
applies the ConstraintSet rules itself, from the graph's nonzero Laplacian
entries, with bfs_connected as its connectivity test.

The policy-iteration oracles build the full joint regressor of every pass
and solve it from scratch, by one Householder QR (equilibrated_lstsq) or by
SVD (lstsq_svd_oracle).  adp.policy_iteration factors the pass-invariant
delta_xx block once per dataset instead, and must agree with both.  They
read a dataset as WindowArrays: delta_xx, the window integrals i_xx
(M, n, n) and i_xu (M, n, m) as whole arrays, the layout adp.Dataset had
before collection wrote the least squares' buffers.  WindowArrays maps
between the two, both ways, and reads collect_kernel's integrals buffer.
"""

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from hlqr import _kernels
from hlqr.adp import _TABLE_GROUP, TABLE_BLOCK, Dataset, Excitation, LearnResult, unsvec
from hlqr.errors import (
    DimensionMismatch,
    NoConvergence,
    NotALaplacian,
    RankDeficient,
    StateBlowup,
    UnstableClosedLoop,
)
from hlqr.graphcost import Decomposition, assemble_q, split_graph
from hlqr.hierctrl import GapReport, _cond
from hlqr.matops import (CARE_MAX_ITER, PSD_TOL, _bipartite, _care_component,
                         _components, _doubling, _lyapunov_component, solve_care,
                         solve_lyapunov, symmetrize)
from hlqr.partition import ConstraintSet
from hlqr.sim import MasSystem, Trajectory, integrate



class WindowArrays(NamedTuple):
    """A dataset as whole arrays: delta_xx (M, n_sym), i_xx (M, n, n) and
    i_xu (M, n, m); delta_xx is None when only integrals are read.

    of(ints, n) reads collect_kernel's integrals buffer (column a n + b is
    i_xu[:, b, a], then the upper triangle of i_xx in row-major order), the
    lower triangle of i_xx mirrored from it; from_dataset reads an
    adp.Dataset; dataset() writes a new one.  All three copy.
    """

    delta_xx: np.ndarray | None
    i_xx: np.ndarray
    i_xu: np.ndarray

    @property
    def M(self):
        return self.i_xx.shape[0]

    @property
    def n(self):
        return self.i_xx.shape[1]

    @property
    def m(self):
        return self.i_xu.shape[2]

    @classmethod
    def of(cls, ints, n, delta_xx=None):
        n_rows, m = ints.shape[0], ints.shape[1] // n - n
        cols = ints.T
        i_xu = cols[:m * n].reshape(m, n, n_rows).transpose(2, 1, 0).copy()
        i_xx = np.empty((n_rows, n, n))
        upper = np.triu_indices(n)
        unique = cols[m * n:m * n + len(upper[0])].T
        i_xx[:, upper[1], upper[0]] = unique
        i_xx[:, upper[0], upper[1]] = unique
        return cls(None if delta_xx is None else np.array(delta_xx), i_xx, i_xu)

    @classmethod
    def from_dataset(cls, data):
        return cls.of(data.ints, data.n, data.delta_xx)

    def dataset(self):
        n, m = self.n, self.m
        ints = np.zeros((self.M, m * n + n * n), order="F")
        ints.T[:m * n] = self.i_xu.transpose(2, 1, 0).reshape(m * n, -1)
        upper = np.triu_indices(n)
        ints.T[m * n:m * n + len(upper[0])] = self.i_xx[:, upper[0], upper[1]].T
        return Dataset(delta_xx=np.array(self.delta_xx, order="F"), ints=ints)


def regressor(data, k, qk):
    """(A, rhs) of the joint least-squares system at policy gain k, for
    WindowArrays data."""
    m_windows = data.M
    ixv_t = data.i_xu.transpose(0, 2, 1)
    k_ixx = np.einsum("an,wnb->wab", k, data.i_xx)
    a2 = -2.0 * (ixv_t + k_ixx).reshape(m_windows, -1)
    a_mat = np.hstack([data.delta_xx, a2])
    rhs = -np.einsum("wij,ij->w", data.i_xx, qk)
    return a_mat, rhs


def equilibrated_lstsq(a_mat, rhs):
    """Column-equilibrated least squares by one Householder QR: (theta, rcond).

    Only R of the augmented system [A/s | b] is formed; its last column is
    Q'b.  Raises RankDeficient when the LAPACK 1-norm reciprocal condition
    estimate of R (dtrcon) is not above gelsd's default cutoff
    eps * max(M, N), the rule adp.policy_iteration applies to each pass.
    """
    n_rows, n_cols = a_mat.shape
    scale = np.linalg.norm(a_mat, axis=0)
    scale[scale == 0.0] = 1.0
    aug = np.empty((n_rows, n_cols + 1), order="F")
    np.divide(a_mat, scale, out=aug[:, :n_cols])
    aug[:, n_cols] = rhs
    (r_aug,) = scipy.linalg.qr(aug, mode="r", overwrite_a=True,
                               check_finite=False)
    r_mat = r_aug[:n_cols, :n_cols]
    rcond, _ = scipy.linalg.lapack.dtrcon(r_mat)
    cutoff = np.finfo(float).eps * max(n_rows, n_cols)
    if not rcond > cutoff:
        raise RankDeficient(
            f"joint regressor of {n_cols} unknowns is rank deficient: "
            f"reciprocal condition estimate {rcond:.3g} <= {cutoff:.3g}"
        )
    theta = scipy.linalg.solve_triangular(r_mat, r_aug[:n_cols, n_cols],
                                          check_finite=False)
    return theta / scale, rcond


def lstsq_svd_oracle(a_mat, rhs):
    """Column-equilibrated least squares by SVD (LAPACK gelsd): (theta, rcond).

    Mirrors equilibrated_lstsq's return with the exact reciprocal 2-norm
    condition number; it raises RankDeficient when gelsd's default cutoff
    finds fewer than N singular values.
    """
    scale = np.linalg.norm(a_mat, axis=0)
    scale[scale == 0.0] = 1.0
    theta, _, rank, sv = np.linalg.lstsq(a_mat / scale, rhs, rcond=None)
    if rank < a_mat.shape[1]:
        raise RankDeficient(
            f"joint regressor rank {rank} < {a_mat.shape[1]} unknowns")
    return theta / scale, sv[-1] / sv[0]


def policy_iteration_oracle(data, qhat, rhat, k0, lstsq=equilibrated_lstsq,
                            tol_pi=1e-8, max_iter=30):
    """adp.policy_iteration's loop on the full regressor of every pass, for
    WindowArrays data.

    The stopping rule and the policy update are the library's; only the
    least-squares solve differs, and the conditioning guard is left out.
    """
    n, m = data.n, data.m
    n_sym = n * (n + 1) // 2
    k = np.asarray(k0, dtype=float)
    p_prev = None
    for it in range(1, max_iter + 1):
        theta, _ = lstsq(*regressor(data, k, qhat + k.T @ rhat @ k))
        p_hat = unsvec(theta[:n_sym], n)
        k = np.linalg.solve(rhat, theta[n_sym:].reshape(m, n))
        if p_prev is not None and np.linalg.norm(p_hat - p_prev) < tol_pi * max(
                1.0, np.linalg.norm(p_hat)):
            return LearnResult(p_hat=p_hat, k_hat=k, btp_hat=rhat @ k,
                               iterations=it)
        p_prev = p_hat
    raise NoConvergence(f"policy iteration did not converge in {max_iter} passes")


def svd_pinv(m):
    """Pseudoinverse by one SVD, singular values at or below
    max(shape) * eps * sigma_max cut to zero."""
    m = np.asarray(m, dtype=float)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    tol = max(m.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    s_inv = np.where(s > tol, np.divide(1.0, s, out=np.zeros_like(s), where=s > tol), 0.0)
    return (vt.T * s_inv) @ u.T


def split_pinv(m):
    """matops.pinv with one SVD per component of the row/column nonzero
    pattern, every component its own, all cut off at the global sigma_max."""
    m = np.asarray(m, dtype=float)
    rows = m.shape[0]
    svds = []
    for c in _components(_bipartite(m != 0)):
        i, j = c[c < rows], c[c >= rows] - rows
        if i.size and j.size:
            svds.append((i, j, np.linalg.svd(m[np.ix_(i, j)], full_matrices=False)))
    s_max = max((s[0] for _, _, (_, s, _) in svds), default=0.0)
    tol = max(m.shape) * np.finfo(float).eps * s_max
    out = np.zeros(m.shape[::-1])
    for i, j, (u, s, vt) in svds:
        s_inv = np.where(s > tol, np.divide(1.0, s, out=np.zeros_like(s), where=s > tol), 0.0)
        out[np.ix_(j, i)] = (vt.T * s_inv) @ u.T
    return out


def split_lyapunov(a_s, w):
    """matops.solve_lyapunov with every component solved, checked and
    corrected on its own block, each accepted at the same floor k^{-1/2}."""
    a_s = np.asarray(a_s, dtype=float)
    w = symmetrize(w)
    nz = (a_s != 0) | (w != 0)
    blocks = [np.ix_(c, c) for c in _components(nz | nz.T)]
    floor = max(len(blocks), 1) ** -0.5
    v = np.zeros(a_s.shape)
    for c2 in blocks:
        v[c2] = _lyapunov_component(a_s[c2], w[c2], floor)
    return v


def split_care(a, b, q, r, p0=None):
    """matops.solve_care with every component with states solved on its own,
    each accepted at the same floor k^{-1/2}; p0's block warm-starts its
    component."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    q, r = symmetrize(q), symmetrize(r)
    p0 = None if p0 is None else symmetrize(p0)
    n = a.shape[0]
    ss = (a != 0) | (q != 0)
    adj = _bipartite(b != 0)
    adj[:n, :n] = ss | ss.T
    adj[n:, n:] = r != 0
    blocks = [(c[c < n], c[c >= n] - n) for c in _components(adj) if c[0] < n]
    floor = max(len(blocks), 1) ** -0.5
    p = np.zeros((n, n))
    for s, u in blocks:
        s2 = np.ix_(s, s)
        p[s2] = _care_component(a[s2], b[np.ix_(s, u)], q[s2], r[np.ix_(u, u)],
                                None if p0 is None else p0[s2], floor)
    return p


def pbh_stabilizable(a, b, every_mode=False, tol=1e-7):
    """PBH test: [lambda I - A, B] has full row rank at every eigenvalue
    lambda of A with Re lambda >= 0, or at every eigenvalue when every_mode
    (controllability).  Rank counts the singular values above
    tol * max(1, sigma_max), one complex SVD per eigenvalue.  (C, A) is
    detectable when (A', C') is stabilizable."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    for lam in np.linalg.eigvals(a):
        if lam.real < 0.0 and not every_mode:
            continue
        stacked = np.hstack([lam * np.eye(n) - a, np.asarray(b, dtype=complex)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[n - 1] <= tol * max(1.0, sv[0]):
            return False
    return True


def is_psd(m, tol=PSD_TOL):
    """True when all eigenvalues of the symmetric part are >= tol."""
    return bool(np.linalg.eigvalsh(symmetrize(m))[0] >= tol)


def svec(p):
    """[P_11..P_nn, P_12, P_13, .., P_{n-1,n}] vector of a symmetric matrix."""
    p = np.asarray(p, dtype=float)
    iu, ju = np.triu_indices(p.shape[0], 1)
    return np.concatenate([np.diag(p), p[iu, ju]])


def psd_sqrt(m):
    """Symmetric square root of a PSD matrix, negative rounding clipped."""
    w, v = np.linalg.eigh(symmetrize(m))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def comm_links_loop(k, n, m):
    """graphcost.comm_links by a loop over agent pairs: (edges, n_c)."""
    n_agents = k.shape[0] // m
    tol = 1e-8 * np.abs(k).max()
    edges = []
    for i in range(n_agents):
        for j in range(i + 1, n_agents):
            bij = k[i * m:(i + 1) * m, j * n:(j + 1) * n]
            bji = k[j * m:(j + 1) * m, i * n:(i + 1) * n]
            if np.abs(bij).max() > tol or np.abs(bji).max() > tol:
                edges.append((i, j))
    return edges, len(edges)


class Pointwise:
    """A signal t -> (m,) given pointwise, with the .table(h, n) that the
    simulator reads: one call per sample time."""

    def __init__(self, f):
        self.f = f

    def table(self, h, n):
        def rows(i0, i1):
            return np.asarray([np.atleast_1d(self.f(i * h)) for i in range(i0, i1)],
                              dtype=float)

        return rows


def excitation_table(exc, ts):
    """An Excitation's values on the uniform grid ts from ts[0], shape
    (len(ts), channels), in one pass: blocks of TABLE_BLOCK samples anchored
    at ts[block start], sample i at tau_i = ts[i] - ts[0] past it, by angle
    addition, one batched GEMM per _TABLE_GROUP blocks."""
    ts = np.asarray(ts, dtype=float)
    n = len(ts)
    out = np.empty((n, exc.n_channels))
    amp, freq = exc.amplitudes[:, None, :], exc.frequencies[:, None, :]
    theta = freq * ts[::TABLE_BLOCK, None] + exc.phases[:, None, :]
    left = np.concatenate([amp * np.sin(theta), amp * np.cos(theta)], axis=2)
    w_tau = freq.transpose(0, 2, 1) * (ts[:TABLE_BLOCK] - ts[0])
    right = np.concatenate([np.cos(w_tau), np.sin(w_tau)], axis=1)
    rows = _TABLE_GROUP * TABLE_BLOCK
    for r0 in range(0, n, rows):
        g0 = r0 // TABLE_BLOCK
        vals = np.matmul(left[:, g0:g0 + _TABLE_GROUP], right)
        r1 = min(n, r0 + rows)
        out[r0:r1] = vals.reshape(exc.n_channels, -1)[:, :r1 - r0].T
    return out


def half_grid_table(f, dt, n_steps, channels=None):
    """Signal f on the whole RK4 half-grid t_i = i dt/2, i <= 2 n_steps, in
    one table, restricted to the columns `channels` when given; None for
    None."""
    if f is None:
        return None
    n_half = 2 * n_steps + 1
    if isinstance(f, Excitation):
        table = excitation_table(f, np.arange(n_half) * (dt / 2.0))
    else:
        table = np.asarray(f.table(dt / 2.0, n_half)(0, n_half), dtype=float)
    return table if channels is None else table[:, channels]


def table_rows(table):
    """A half-grid table as the kernels read a signal: rows(h0, h1) is
    table[h0:h1]; None for None."""
    if table is not None:
        return lambda h0, h1: table[h0:h1]


def lu_doubling(a, g, q):
    """matops._doubling's iterates, certificate and stop rule, with
    A_g^{-T} Q and the G_0 term by np.linalg.solve, V^{-1} by np.linalg.inv
    and W^{-1} [E | G_k] by one np.linalg.solve per doubling."""
    n = a.shape[0]
    eye = np.eye(n)
    with np.errstate(all="ignore"):
        gamma = 1.01 * np.linalg.norm(a, 1)
        if g is not None:
            gamma = max(gamma, 0.1 * np.sqrt(np.linalg.norm(g, 1) * np.linalg.norm(q, 1)))
        gamma = gamma or 1.0
        a_g = a - gamma * eye
        try:
            y = np.linalg.solve(a_g.T, q)
            v_inv = np.linalg.inv(a_g if g is None else a_g + g @ y)
            e = eye + 2.0 * gamma * v_inv
            h = symmetrize(2.0 * gamma * (y @ v_inv).T)
            if g is not None:
                g_k = symmetrize(-2.0 * gamma * np.linalg.solve(a_g, g @ v_inv.T))
            for _ in range(CARE_MAX_ITER):
                if g is not None:
                    x = np.linalg.solve(eye - g_k @ h, np.hstack([e, g_k]))
                w_e = e if g is None else x[:, :n]
                step = e.T @ (h @ w_e)
                h = h + symmetrize(step)
                moved = np.linalg.norm(step, 1)
                if not np.isfinite(moved):
                    return None
                if moved <= np.sqrt(np.finfo(float).eps) * np.linalg.norm(h, 1):
                    if np.linalg.norm(w_e, 1) <= 0.5:
                        return h
                    if g is not None:
                        return None
                if g is not None:
                    g_k = symmetrize(g_k + (e @ x[:, n:]) @ e.T)
                e = e @ w_e
        except np.linalg.LinAlgError:
            return None
    return None


def care_residual(a, b, q, r, p):
    """Frobenius norm of P A + A' P + Q - P B R^{-1} B' P."""
    k = np.linalg.solve(r, b.T @ p)
    return float(np.linalg.norm(p @ a + a.T @ p + q - (p @ b) @ k, "fro"))


def integrate_callable(sys, controller, x0, dt, n_steps, q, r, guard):
    """RK4 step loop with a state-feedback callable u(t, x) at every stage.

    Returns the Trajectory sim.integrate would; raises StateBlowup when a
    state entry exceeds guard in magnitude.
    """
    plant = sys.black_box() if isinstance(sys, MasSystem) else sys
    a, b = plant._a, plant._b
    n, m = b.shape
    if q is None:
        q = np.zeros((n, n))
        r = np.zeros((m, m))
    d_tab = half_grid_table(plant._dist, dt, n_steps, plant._channels)
    if d_tab is None:
        d_tab = np.zeros((2 * n_steps + 1, m))

    xs = np.zeros((n_steps + 1, n))
    us = np.zeros((n_steps + 1, m))
    cost = np.zeros(n_steps + 1)
    ju = np.zeros(n_steps + 1)
    x = np.asarray(x0, dtype=float).copy()
    xs[0] = x
    us[0] = controller(0.0, x)

    def stage(xst, tst, tix):
        u = np.asarray(controller(tst, xst), dtype=float)
        f = a @ xst + b @ (u + d_tab[tix])
        c = float(xst @ q @ xst + u @ r @ u)
        return f, c, float(u @ u)

    for step in range(n_steps):
        t = step * dt
        f1, c1, j1 = stage(x, t, 2 * step)
        f2, c2, j2 = stage(x + 0.5 * dt * f1, t + 0.5 * dt, 2 * step + 1)
        f3, c3, j3 = stage(x + 0.5 * dt * f2, t + 0.5 * dt, 2 * step + 1)
        f4, c4, j4 = stage(x + dt * f3, t + dt, 2 * step + 2)

        x = x + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        xs[step + 1] = x
        us[step + 1] = controller(t + dt, x)
        cost[step + 1] = cost[step] + (dt / 6.0) * (c1 + 2 * c2 + 2 * c3 + c4)
        ju[step + 1] = ju[step] + (dt / 6.0) * (j1 + 2 * j2 + 2 * j3 + j4)

        if not np.all(np.isfinite(x)) or np.abs(x).max() > guard:
            raise StateBlowup(f"state exceeded guard {guard:g} at step {step + 1}")

    return Trajectory(np.arange(n_steps + 1) * dt, xs, us, cost, ju)


def stage_quadrature(a, b, k, exo_dist, states, dt, q, r):
    """(cost, ju) running integrals over the steps of a rollout's state record
    states (steps + 1 rows) under u = -K x, with exo_dist the half-grid table
    of d or None: each stage state and input formed, x'Qx + u'Ru and u'u
    summed with the RK4 weights, and the step sums accumulated."""
    n, m = b.shape
    steps = len(states) - 1
    if exo_dist is None:
        exo_dist = np.zeros((2 * steps + 1, m))
    s_map = _kernels._rk4_maps(a, b, k, dt)[2]
    drive = np.hstack([exo_dist[0:2 * steps:2], exo_dist[1:2 * steps:2],
                       exo_dist[2:2 * steps + 1:2]])
    xst = np.empty((steps, 4 * n))
    xst[:, :n] = states[:-1]
    xst[:, n:] = np.hstack([states[:-1], drive]) @ s_map[n:].T
    xst = xst.reshape(-1, n)
    ust = xst @ (-k).T
    cst = np.sum((xst @ q.T) * xst, axis=1) + np.sum((ust @ r.T) * ust, axis=1)
    jst = np.sum(ust * ust, axis=1)
    weights = (dt / 6.0) * np.array([1.0, 2.0, 2.0, 1.0])
    return tuple(np.concatenate([[0.0], np.cumsum(vals.reshape(steps, 4) @ weights)])
                 for vals in (cst, jst))


def abscissa(m):
    """Largest real part of the eigenvalues of a square matrix."""
    return float(np.linalg.eigvals(np.asarray(m, dtype=float)).real.max())


def evaluate_cost(sys, spec, k, x0):
    """Analytic closed-loop costs (J, J_u) for the gain K from x0.

    J = x0' X x0 with (A-BK)' X + X (A-BK) + Q + K'RK = 0 and J_u likewise
    with K'K, both by scipy's Bartels-Stewart solver, which shares no code
    with hlqr's.  Raises UnstableClosedLoop when A - BK is not Hurwitz.
    """
    a, b = sys.a_full, sys.b_full
    k = np.asarray(k, dtype=float)
    a_s = a - b @ k
    if abscissa(a_s) >= 0.0:
        raise UnstableClosedLoop("A - BK is not Hurwitz")
    x = scipy.linalg.solve_continuous_lyapunov(
        a_s.T, -symmetrize(assemble_q(spec) + k.T @ spec.r @ k))
    x_u = scipy.linalg.solve_continuous_lyapunov(a_s.T, -symmetrize(k.T @ k))
    x0 = np.asarray(x0, dtype=float)
    return float(x0 @ x @ x0), float(x0 @ x_u @ x0)


def quadrature_cost(sys, spec, k, x0, dt=1e-3, tail=1e-6):
    """Time-domain (J, J_u) cross-check of evaluate_cost.

    The horizon is chosen so exp(abscissa * T) < tail, making the truncated
    integral agree with the analytic value to well under 0.1%.
    """
    alpha = abscissa(sys.a_full - sys.b_full @ np.asarray(k, dtype=float))
    if alpha >= 0.0:
        raise UnstableClosedLoop("A - BK is not Hurwitz")
    traj = integrate(sys, k, x0, math.log(tail) / alpha, dt, cost=spec)
    return traj.cost, traj.ju


def cost_spec_checks_loop(qbar_blocks, qtilde, r_blocks):
    """CostSpec's block checks in order, one eigvalsh per block: each Qbar
    block n x n and PSD, Qtilde PSD, each R block m x m and PD.  PSD is a
    least eigenvalue of at least PSD_TOL max(1, the largest)."""
    n, m = qtilde.shape[0], r_blocks[0].shape[0]

    def psd(blk):
        w = np.linalg.eigvalsh(symmetrize(blk))
        return w[0] >= PSD_TOL * max(1.0, w[-1])

    for blk in qbar_blocks:
        if blk.shape != (n, n):
            raise DimensionMismatch(f"qbar block shape {blk.shape} != ({n},{n})")
        if not psd(blk):
            raise NotALaplacian("qbar block not PSD")
    if not psd(qtilde):
        raise NotALaplacian("qtilde not PSD")
    for blk in r_blocks:
        if blk.shape != (m, m):
            raise DimensionMismatch(f"r block shape {blk.shape} != ({m},{m})")
        if np.linalg.eigvalsh(symmetrize(blk))[0] <= 0:
            raise NotALaplacian("r block not PD")


def dense_gap_report(mas, spec, dec, gain, sigma=1.0):
    """hierctrl.gap_report by its dense formulas: the same U and P_opt
    solves, with the trace and eigenvalues of the dense scriptP, the
    eigenvalues of the dense Qbar, R and P_opt, the singular values of the
    dense B, and tr(B R^{-1} B') of the dense product."""
    a, b = mas.a_full, mas.b_full
    q = assemble_q(spec)
    r = spec.r
    k_h = gain.k_h
    u = solve_lyapunov(a - b @ k_h, symmetrize(q + k_h.T @ r @ k_h))
    p_opt = solve_care(a, b, q, r, p0=u)
    dk = k_h - np.linalg.solve(r, b.T @ p_opt)
    trace_w = float(np.sum(dk * (r @ dk)))
    trace_v = float(np.trace(u - p_opt))

    p_script = dec.scatter(gain.p_blocks, spec.n, spec.n)
    j_opt, j_h, j_approx = (float(np.trace(m)) for m in (p_opt, u, p_script))
    trace_g2 = float(np.trace(split_graph(spec.graph, dec).g2))

    lam_p = np.linalg.eigvalsh(p_script)
    lam_min_p, lam_max_p = float(lam_p[0]), float(lam_p[-1])
    cond_p = _cond(lam_p)
    sv_b = np.linalg.svd(b, compute_uv=False)
    sig_max_b = float(sv_b[0])
    nonzero = sv_b[sv_b > max(b.shape) * np.finfo(float).eps * sig_max_b]
    sigma_l_b = float(nonzero[-1]) if nonzero.size else 0.0
    lam_min_qbar = float(np.linalg.eigvalsh(symmetrize(spec.qbar)).min())

    vacuous = sigma_l_b <= 0.0 or lam_min_qbar <= 0.0 or lam_min_p <= 0.0
    if vacuous:
        f1 = f2 = trace_v_bound = float("nan")
    else:
        tr_g2q = trace_g2 * float(np.trace(spec.qtilde))
        denom = lam_min_p ** 2 * sigma_l_b ** 2
        f1 = tr_g2q ** 2 * float(np.linalg.eigvalsh(r)[-1]) / denom
        f2 = (float(np.linalg.eigvalsh(p_opt)[-1]) - lam_min_p) * (
            float(np.trace(b @ np.linalg.solve(r, b.T)))
            + sig_max_b ** 2 * tr_g2q / denom
        )
        trace_v_bound = lam_max_p * cond_p * (f1 + f2) / lam_min_qbar

    delta_j = j_h - j_opt
    return GapReport(
        j_opt=j_opt, j_h=j_h, j_approx=j_approx, delta_j=delta_j,
        expected_gap=float(sigma ** 2 * trace_v), f1=f1, f2=f2, cond_p=cond_p,
        trace_g2=trace_g2, sop=delta_j / j_opt if j_opt > 0 else 0.0,
        sop_hi=(j_h - j_approx) / j_approx if j_approx > 0 else 0.0,
        trace_v=trace_v, trace_w=trace_w, trace_v_bound=trace_v_bound,
        vacuous=vacuous,
    )


def dense_cluster_costs(spec, dec):
    """Per-cluster (Qhat_j, Rhat_j), each Qhat_j sliced out of the dense Qhat."""
    qhat = spec.qbar + np.kron(split_graph(spec.graph, dec).g1, spec.qtilde)
    out = []
    for members in dec.clusters():
        six = np.concatenate([np.arange(u * spec.n, (u + 1) * spec.n) for u in members])
        rj = scipy.linalg.block_diag(*[spec.r_blocks[u] for u in members])
        out.append((symmetrize(qhat[np.ix_(six, six)]), rj))
    return out


def neighbours(graph):
    """neighbours(graph)[u] is the set of agents v != u with L[u, v] != 0."""
    lap = graph.laplacian
    return [{v for v in range(graph.n_agents) if v != u and lap[u, v] != 0.0}
            for u in range(graph.n_agents)]


def bfs_connected(nbrs, nodes):
    """True when nodes is nonempty and induces a connected subgraph, by
    breadth-first search over the neighbour sets nbrs."""
    nodes = set(nodes)
    if not nodes:
        return False
    start = min(nodes)
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [v for u in frontier for v in nbrs[u] & nodes if v not in seen]
        seen.update(frontier)
    return seen == nodes


def enumerate_partitions(n_agents, s, constraints=None, graph=None):
    """Yield every partition of {0..N-1} into s nonempty clusters, once each.

    Restricted-growth enumeration.  Leader constraints filter directly;
    the connectivity constraint needs coupling information and applies only
    when graph is given: a connected cluster passes bfs_connected.
    """
    if not 1 <= s <= n_agents:
        return
    cons = constraints if constraints is not None else ConstraintSet()
    nbrs = neighbours(graph) if graph is not None else None

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
        clusters = [[u for u in range(n_agents) if a[u] == c] for c in range(s)]
        if cons.leaders is not None:
            if not all(any(u in cons.leaders for u in members)
                       for members in clusters):
                continue
        if graph is not None and cons.require_connected:
            if not all(bfs_connected(nbrs, members) for members in clusters):
                continue
        yield Decomposition.from_assignment(a)
