"""Model-free per-cluster LQR learning via off-policy integral policy
iteration, and the two-level orchestration that assembles the hierarchical
gain from learned pieces.

The learner never reads plant matrices.  A behavior policy u = -k0 x + e(t)
excites the plant while window integrals of x (x) x and x (x) v (v = applied
input, including any measurable disturbance) are recorded.  Each policy
evaluation then solves one linear least-squares problem jointly for the value
matrix P (symmetric basis) and for B'P, from the identity

  x'Px|window ends = -int x'(Q + K'RK)x dtau + 2 int (v + Kx)'(B'P)x dtau,

followed by the policy update K <- R^{-1}(B'P).  Since B'P = R K at the fixed
point, the coupling stage needs no separate estimate of B.  The columns of P
in that problem (the delta_xx block) do not depend on K, so their Householder
QR is computed once per dataset, and each pass factors only what remains;
both are LAPACK's blocked compact-WY QR (dgeqrt) at block size QR_BLOCK.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, _lapack
from .errors import HlqrError, InvalidConfig, NoConvergence, RankDeficient, StateBlowup
from .graphcost import cluster_costs
from .hierctrl import assemble_gain, compute_rtilde
from .sim import check_steps

__all__ = [
    "Excitation",
    "Dataset",
    "LearnResult",
    "LearnConfig",
    "unknown_count",
    "window_steps",
    "collect",
    "policy_iteration",
    "learn_cluster",
    "learn_hierarchical",
]

COND_GUARD = 1e8

#: Sinusoids per excitation channel, and the range their frequencies are
#: drawn from (rad/s).
N_SIN = 10
FREQ_RANGE = (0.5, 20.0)

#: Collected windows per unknown of a cluster's least-squares problem, before
#: the margin of 10 windows (see _auto_horizon).
OVERSAMPLE = 1.2

#: Samples per block of Excitation.table.  Each block is anchored at an
#: exact grid time, so the angle-addition offsets never exceed TABLE_BLOCK
#: steps.
TABLE_BLOCK = 512

#: Blocks per batched GEMM of Excitation.table: the grid is evaluated in
#: groups of this many blocks, each into the one buffer of its table.
_TABLE_GROUP = 16

#: Block size of the least squares' compact-WY Householder QR (dgeqrt and
#: dgemqrt), clamped to min(rows, cols) as dgeqrt requires.  On the 36-state
#: learn (one BLAS thread) policy_iteration took 259, 244, 233 and 244 ms at
#: 32, 64, 128 and 256, and applying Q1' to its 1,314 columns 68, 63, 56 and
#: 54 ms.
QR_BLOCK = 128


@dataclass(frozen=True)
class LearnConfig:
    """Knobs for the data collection and learning pipeline."""

    seed: int = 0
    dt: float = 1e-3
    window: float = 0.1
    horizon: float | None = None
    tol_pi: float = 1e-8
    max_iter: int = 30
    amplitude: float = 0.5

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfig(f"seed={self.seed} must be nonnegative")
        if not (self.tol_pi > 0 and math.isfinite(self.tol_pi)):
            raise InvalidConfig(f"tol_pi={self.tol_pi} must be positive and finite")
        if self.max_iter < 1:
            raise InvalidConfig(f"max_iter={self.max_iter} must be at least 1")


@dataclass(frozen=True)
class Excitation:
    """Per-channel sum-of-sinusoids exploration signal.

    Frequencies and phases are drawn deterministically from the seed; the
    amplitude bounds each channel's peak value.  Evaluates pointwise, or on
    the simulator's half-grid with table(h, n).
    """

    seed: int
    amplitudes: np.ndarray
    frequencies: np.ndarray
    phases: np.ndarray

    @classmethod
    def make(cls, seed, m, n_sin=N_SIN, amplitude=LearnConfig.amplitude):
        rng = np.random.default_rng(seed)
        freqs = rng.uniform(FREQ_RANGE[0], FREQ_RANGE[1], size=(m, n_sin))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(m, n_sin))
        amps = np.full((m, n_sin), amplitude / n_sin)
        return cls(seed=int(seed), amplitudes=amps, frequencies=freqs,
                   phases=phases)

    @property
    def n_channels(self):
        return self.frequencies.shape[0]

    def __call__(self, t):
        return np.sum(
            self.amplitudes * np.sin(self.frequencies * t + self.phases),
            axis=1,
        )

    def table(self, h, n):
        """rows(i0, i1): the values at t_i = i h, i0 <= i < i1 <= n, shape
        (i1 - i0, n_channels); see _GridTable."""
        return _GridTable(self, h, n)


class _GridTable:
    """An excitation on the grid t_i = i h, i < n, evaluated by GEMMs.

    The grid is cut into blocks of TABLE_BLOCK samples.  Sample i of the
    block anchored at t_b = b TABLE_BLOCK h is taken at t_b + tau_i with
    tau_i = i h, so by angle addition each channel is a GEMM

        [a sin(w t_b + phi), a cos(w t_b + phi)] @ [cos(w tau); sin(w tau)]

    of (blocks, 2 n_sin) by (2 n_sin, TABLE_BLOCK), batched over the
    channels.  Blocks are evaluated _TABLE_GROUP at a time, in the groups of
    rows [g G, (g + 1) G) cut at n, G = _TABLE_GROUP TABLE_BLOCK, into one
    buffer that holds the last group evaluated.  Every row is thus one
    group's GEMM, whichever calls read it, and calls over increasing rows
    evaluate each group once.  Only
    blocks * n_sin and TABLE_BLOCK * n_sin sines and cosines are evaluated
    per channel.
    """

    def __init__(self, exc, h, n):
        self.exc, self.h, self.n = exc, h, n
        self.right = self.vals = self.group = None

    def _group(self, g):
        """Channel-major values (channels, rows) of group g's rows."""
        exc, rows = self.exc, _TABLE_GROUP * TABLE_BLOCK
        # left: (channels, blocks, 2 n_sin); right: (channels, 2 n_sin, block)
        amp, freq = exc.amplitudes[:, None, :], exc.frequencies[:, None, :]
        if self.right is None:
            tau = np.arange(min(TABLE_BLOCK, self.n)) * self.h
            w_tau = freq.transpose(0, 2, 1) * tau
            self.right = np.concatenate([np.cos(w_tau), np.sin(w_tau)], axis=1)
            # one group's values, which each group's GEMM overwrites
            blocks = min(_TABLE_GROUP, -(-self.n // TABLE_BLOCK))
            self.vals = np.empty((exc.n_channels, blocks, self.right.shape[2]))
        t_b = np.arange(g * rows, min(self.n, (g + 1) * rows), TABLE_BLOCK) * self.h
        vals = self.vals[:, :len(t_b)]
        if g != self.group:
            theta = freq * t_b[:, None] + exc.phases[:, None, :]
            left = np.concatenate([amp * np.sin(theta), amp * np.cos(theta)], axis=2)
            np.matmul(left, self.right, out=vals)
            self.group = g
        return vals.reshape(exc.n_channels, -1)

    def __call__(self, i0, i1):
        out = np.empty((i1 - i0, self.exc.n_channels))
        rows = _TABLE_GROUP * TABLE_BLOCK
        for g in range(i0 // rows, -(-i1 // rows)):
            lo, hi = max(i0, g * rows), min(i1, (g + 1) * rows)
            out[lo - i0:hi - i0] = self._group(g)[:, lo - g * rows:hi - g * rows].T
        return out


def _sym_indices(n):
    return np.triu_indices(n, 1)


def phi(x):
    """Quadratic feature map: [x_i^2 ...; 2 x_i x_j (i<j) ...].

    Satisfies phi(x) . v = x'Px for P = unsvec(v, n); accepts
    a single state or a stack of states (rows).
    """
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    iu, ju = _sym_indices(arr.shape[1])
    out = np.hstack([arr ** 2, 2.0 * arr[:, iu] * arr[:, ju]])
    return out[0] if single else out


def unsvec(v, n):
    """Symmetric n x n matrix from the vector of its unique entries,
    [P_11..P_nn, P_12, P_13, .., P_{n-1,n}]."""
    p = np.zeros((n, n))
    np.fill_diagonal(p, v[:n])
    iu, ju = _sym_indices(n)
    p[iu, ju] = v[n:]
    p[ju, iu] = v[n:]
    return p


@dataclass(frozen=True)
class Dataset:
    """Window integrals recorded during the data collection phase.

    delta_xx[w] = phi(x(t_{w+1})) - phi(x(t_w)); i_xx[w] = int x x' dtau and
    i_xu[w] = int x v' dtau over window w with v the applied input.  Whether
    the data identify the unknowns is judged by policy_iteration's first pass.
    """

    delta_xx: np.ndarray
    i_xx: np.ndarray
    i_xu: np.ndarray

    @property
    def M(self):
        return self.delta_xx.shape[0]

    @property
    def n(self):
        return self.i_xx.shape[1]

    @property
    def m(self):
        return self.i_xu.shape[2]


def _qr(a):
    """Factor the Fortran-ordered a in place by dgeqrt: R in its upper
    triangle, the reflectors V below it.  Returns the block reflector T."""
    _, t, _ = _lapack.dgeqrt(min(QR_BLOCK, *a.shape), a, overwrite_a=1)
    return t


class _BlockLstsq:
    """The joint least squares of every policy-iteration pass on one dataset.

    At gain K the column-equilibrated regressor is [A1 | A2] with
    A1 = delta_xx, the same in every pass, and A2 = -2 (I_xu' + K I_xx); the
    right side is -I_xx : (Q + K'RK).  Householder QR of [A1 | A2 | rhs]
    takes its first n_sym reflectors Q1 from A1 alone, so A1 is factored
    once (R11) and Q1' is applied once, to one Fortran buffer over all
    windows holding the unique columns of I_xu and I_xx.  Only that reads
    the data; the first pass spreads the buffer in place to all n^2 I_xx
    columns and allocates R and its own buffers.  A pass forms Q1'[A2 | rhs]
    over all rows by one GEMM with K and one matrix-vector product with
    Q + K'RK, scales each A2 column by its norm (Q1 is orthogonal, so that
    of Q1'A2), and factors in place only the rows below the first n_sym,
    copied into one reused Fortran buffer, which gives R22 and the tail of
    Q'rhs.  Both QRs are LAPACK's blocked compact-WY form (dgeqrt, applied
    by dgemqrt) at block size QR_BLOCK.  Without pivoting, diag(R) does not
    reveal the rank, so identifiability is judged by the LAPACK 1-norm
    reciprocal condition estimate (dtrcon) of R = [R11 R12; 0 R22] against
    gelsd's default cutoff eps * max(M, N); below it RankDeficient is raised.
    """

    def __init__(self, data):
        n, m, n_rows = data.n, data.m, data.M
        n_sym = n * (n + 1) // 2
        n_cols = n_sym + m * n

        scale_xx = np.linalg.norm(data.delta_xx, axis=0)
        scale_xx[scale_xx == 0.0] = 1.0
        a1 = np.empty((n_rows, n_sym), order="F")
        np.divide(data.delta_xx, scale_xx, out=a1)
        t1 = _qr(a1)
        self.r11 = a1[:n_sym]  # which keeps a1 until the first pass

        # its leading columns: I_xu columns (a, b) holding I_xu[:, b, a],
        # then I_xx columns (i, j), i <= j, in row-major order
        self.cols = np.empty((n_rows, m * n + n * n), order="F")
        cols = self.cols[:, :n_cols]
        cols.T[:m * n].reshape(m, n, n_rows).transpose(2, 0, 1)[...] = (
            data.i_xu.transpose(0, 2, 1))
        starts = m * n + np.cumsum([0] + list(range(n, 0, -1)))
        for i in range(n):
            cols[:, starts[i]:starts[i + 1]] = data.i_xx[:, i, i:]
        _lapack.dgemqrt(a1, t1, cols, side="L", trans="T", overwrite_c=1)

        self.scale = np.concatenate([scale_xx, np.empty(m * n)])
        self.n_sym = n_sym
        self.cutoff = np.finfo(float).eps * max(n_rows, n_cols)
        self.op_t = None

    def _spread(self, n):
        """Spread the I_xx columns in place to cols.T[m n + c n + b] =
        Q1' I_xx[:, c, b], one column at a time from the last, so that none
        overlaps its target; then allocate the pass buffers."""
        n_sym, (n_rows, n_all), cols_t = self.n_sym, self.cols.shape, self.cols.T
        n_a2 = n_all - n * n
        ixx = cols_t[n_a2:].reshape(n, n, n_rows)
        for i in reversed(range(n)):
            for j in reversed(range(i, n)):
                ixx[i, j] = cols_t[n_a2 + i * n + j - i * (i + 1) // 2]
            ixx[i + 1:, i] = ixx[i, i + 1:]

        # dtrcon and dtrtrs read only the upper triangle of r_mat
        self.r_mat = np.zeros((n_sym + n_a2,) * 2, order="F")
        self.r_mat[:n_sym, :n_sym] = self.r11
        del self.r11
        self.op_t = np.empty((n_a2 + 1, n_rows))  # [A2 | rhs], transposed
        self.tail = np.empty((n_rows - n_sym, n_a2 + 1), order="F")

    def __call__(self, k, qk):
        """(theta, rcond) of the pass at gain k with state weight qk."""
        if self.op_t is None:
            self._spread(k.shape[1])
        n_sym, r_mat, op_t, tail = self.n_sym, self.r_mat, self.op_t, self.tail
        n_a2 = op_t.shape[0] - 1
        ixx = self.cols.T[n_a2:]

        a2_t = op_t[:n_a2]
        np.matmul(k, ixx.reshape(k.shape[1], -1),
                  out=a2_t.reshape(k.shape[0], -1))
        a2_t += self.cols.T[:n_a2]
        a2_t *= -2.0
        np.matmul(ixx.T, -qk.ravel(), out=op_t[n_a2])
        scale = self.scale[n_sym:]
        np.sqrt(np.einsum("ij,ij->i", a2_t, a2_t), out=scale)
        scale[scale == 0.0] = 1.0
        a2_t /= scale[:, None]

        tail[:] = op_t[:, n_sym:].T
        _qr(tail)
        r_mat[:n_sym, n_sym:] = a2_t[:, :n_sym].T
        r_mat[n_sym:, n_sym:] = tail[:n_a2, :n_a2]
        rcond, _ = _lapack.dtrcon(r_mat)
        if not rcond > self.cutoff:
            raise RankDeficient(
                f"joint regressor of {r_mat.shape[0]} unknowns is rank deficient: "
                f"reciprocal condition estimate {rcond:.3g} <= "
                f"{self.cutoff:.3g}"
            )
        qt_rhs = np.concatenate([op_t[n_a2, :n_sym], tail[:n_a2, n_a2]])
        theta, info = _lapack.dtrtrs(r_mat, qt_rhs)
        if info:
            raise np.linalg.LinAlgError(f"dtrtrs: info {info} on R")
        return theta / self.scale, rcond


def window_steps(dt, window, horizon=None, width=1):
    """(steps per window, windows) of a collection, the windows None without
    a horizon.  Raises InvalidConfig unless dt, window and the horizon are
    positive and finite, dt divides window, the horizon holds a window, and
    numpy can index the arrays of that many steps at width (check_steps)."""
    if not (0 < dt < np.inf and 0 < window < np.inf):
        raise InvalidConfig(f"dt={dt} and window={window} must be positive and finite")
    if horizon is not None and not 0 < horizon < np.inf:
        raise InvalidConfig(f"horizon={horizon} must be positive and finite")
    # step counts stay floats (inf when a ratio overflows) until checked;
    # an overflowed window / dt is a step-count error, not a divisibility one
    steps_per_window = round(window / dt, 0)
    check_steps(steps_per_window, width)
    if steps_per_window < 1 or abs(steps_per_window * dt - window) > 1e-9 * max(1.0, window):
        raise InvalidConfig(f"dt={dt} does not divide window={window}")
    if horizon is None:
        return int(steps_per_window), None
    n_windows = round(horizon / window, 0)
    if n_windows < 1:
        raise InvalidConfig("horizon shorter than one window")
    check_steps(steps_per_window * n_windows, width)
    return int(steps_per_window), int(n_windows)


def collect(plant, k0, exc, horizon, dt, window, x0=None):
    """Run the behavior policy u = -k0 x + e(t) and record window integrals.

    horizon and window are in seconds; dt, window and horizon must be
    positive and finite, dt must divide window, and numpy must be able to
    index arrays of horizon / dt steps.  When a measurable disturbance is
    attached to the plant, the recorded applied input is u + d.  x0 defaults
    to a standard normal draw from the excitation seed.  Only the window
    integrals and boundary states are kept, not the per-step samples.
    Raises StateBlowup when a state entry exceeds sim.DEFAULT_GUARD.
    """
    n, m = plant.n_states, plant.n_inputs
    k0 = np.zeros((m, n)) if k0 is None else np.asarray(k0, dtype=float)
    # per step: signal rows, the kernel's buffers and one window's integrals
    steps_per_window, n_windows = window_steps(dt, window, horizon, (n + 4) * (n + m))
    if x0 is None:
        x0 = np.random.default_rng(exc.seed).standard_normal(n)

    xb, i_xx, i_xv, _, _, status, done = plant.collect(
        k0, exc, x0, dt, steps_per_window, n_windows,
    )
    if status == _kernels.BLOWUP:
        raise StateBlowup(
            f"collection diverged in window {done}: behavior gain not "
            f"stabilizing or excitation too large"
        )

    phis = phi(xb)
    return Dataset(delta_xx=phis[1:] - phis[:-1], i_xx=i_xx, i_xu=i_xv)


@dataclass(frozen=True)
class LearnResult:
    """Converged policy-iteration output for one cluster."""

    p_hat: np.ndarray
    k_hat: np.ndarray
    btp_hat: np.ndarray
    iterations: int
    wall_time: float = 0.0


def unknown_count(n, m):
    """Unknowns of a cluster's least-squares problem with n states and m
    inputs: the n(n+1)/2 entries of symmetric P and the m n of B'P."""
    return n * (n + 1) // 2 + m * n


def policy_iteration(data, qhat, rhat, k0, tol_pi=LearnConfig.tol_pi,
                     max_iter=LearnConfig.max_iter):
    """Off-policy integral policy iteration on recorded data.

    Each pass solves one least-squares system jointly for P and B'P
    (_BlockLstsq, which factors the delta_xx block once for all passes),
    then updates K = Rhat^{-1} (B'P).  Stops when |P_k - P_{k-1}|_F <
    tol_pi * max(1, |P_k|_F); the scale factor keeps the tolerance meaningful
    for large value matrices whose data-driven iterates plateau at a relative
    accuracy floor.  Raises RankDeficient for too few windows, for a first
    pass (at the behavior gain k0) whose condition estimate is not below
    COND_GUARD, or for an unidentifiable regressor in any pass, and
    NoConvergence when max_iter passes go by without meeting tol_pi.
    """
    n, m = data.n, data.m
    n_unknowns = unknown_count(n, m)
    if data.M < n_unknowns:
        raise RankDeficient(
            f"{data.M} windows < {n_unknowns} unknowns; collect more data"
        )
    qhat = np.asarray(qhat, dtype=float)
    rhat = np.asarray(rhat, dtype=float)
    k = np.asarray(k0, dtype=float)
    solve = _BlockLstsq(data)
    del data  # so that a caller holding no other reference frees it here
    n_sym = n * (n + 1) // 2
    p_prev = None
    for it in range(1, max_iter + 1):
        theta, rcond = solve(k, qhat + k.T @ rhat @ k)
        if it == 1 and not 1.0 / rcond < COND_GUARD:
            raise RankDeficient(f"regressor condition estimate {1.0 / rcond:.3g}"
                                f" at k0 exceeds guard {COND_GUARD:g}")
        p_hat = unsvec(theta[:n_sym], n)
        btp = theta[n_sym:].reshape(m, n)
        k = np.linalg.solve(rhat, btp)
        if p_prev is not None and np.linalg.norm(p_hat - p_prev) < tol_pi * max(
                1.0, np.linalg.norm(p_hat)):
            return LearnResult(p_hat=p_hat, k_hat=k, btp_hat=rhat @ k,
                               iterations=it)
        p_prev = p_hat
    raise NoConvergence(f"policy iteration did not converge in {max_iter} passes")


def _auto_horizon(cfg, n, m):
    """Windows needed: a 20% oversample of the unknown count plus margin."""
    windows = math.ceil(OVERSAMPLE * unknown_count(n, m)) + 10
    return windows * cfg.window


def learn_cluster(plant, qhat, rhat, cfg, k0=None, tag=0):
    """Collect data and run policy iteration for one black-box cluster.

    On RankDeficient from any pass of policy iteration, the horizon is grown
    by 50% and both repeat, up to three times, before giving up.
    """
    t0 = time.perf_counter()
    n, m = plant.n_states, plant.n_inputs
    horizon = cfg.horizon if cfg.horizon is not None else _auto_horizon(cfg, n, m)
    exc = Excitation.make(cfg.seed + 7919 * tag, m, amplitude=cfg.amplitude)
    k0 = np.zeros((m, n)) if k0 is None else np.asarray(k0, dtype=float)
    for attempt in range(4):
        try:
            # the dataset is not named here, so that policy_iteration frees it
            result = policy_iteration(
                collect(plant, k0, exc, horizon, cfg.dt, cfg.window), qhat, rhat,
                k0, tol_pi=cfg.tol_pi, max_iter=cfg.max_iter)
            break
        except RankDeficient:
            if attempt == 3:
                raise
            horizon *= 1.5
    return replace(result, wall_time=time.perf_counter() - t0)


def learn_hierarchical(plants, spec, dec, cfg=None, k0_list=None):
    """Learn every cluster model-free, then assemble the hierarchical gain.

    plants are black-box cluster handles ordered like dec's clusters, and
    clusters are learned one after another.  Returns (HierarchicalGain, list
    of LearnResult).  cfg's dt, window and horizon are checked once, before
    the first cluster; a cluster's HlqrError is raised again as the same
    type, its message prefixed with the cluster and its agents.
    """
    cfg = cfg if cfg is not None else LearnConfig()
    window_steps(cfg.dt, cfg.window, cfg.horizon)  # before any cluster is named
    if len(plants) != dec.s:
        raise InvalidConfig(f"{len(plants)} plants for {dec.s} clusters")
    if k0_list is None:
        k0_list = [None] * dec.s
    costs = cluster_costs(spec, dec)
    results = []
    for j in range(dec.s):
        try:
            results.append(learn_cluster(plants[j], *costs[j], cfg, k0=k0_list[j], tag=j))
        except HlqrError as exc:
            raise type(exc)(f"{dec.cluster_name(j)}: {exc}") from exc
    pb_blocks = [res.btp_hat.T for res in results]
    r_tilde = compute_rtilde(pb_blocks, spec, dec)
    p_blocks = [res.p_hat for res in results]
    return assemble_gain(p_blocks, pb_blocks, r_tilde, spec, dec), results
