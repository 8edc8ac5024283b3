"""Hot numerical loops: RK4 rollout with cost quadrature, ADP data collection.

For a fixed gain the closed loop xdot = (A - BK) x + B w is LTI, where w is
the disturbance d in a rollout and the excitation plus disturbance e + d in a
collect.  One classical RK4 step of length h is then an exact linear map

    x+ = T x + G0 w(t) + Gh w(t + h/2) + G1 w(t + h),

and every stage state x1..x4 is likewise linear in z = [x; w(t); w(t + h/2);
w(t + h)].  The maps are built once per call by pushing identity blocks
through the RK4 stage formulas.  Both kernels work per chunk of steps in one
buffer of rows z', allocated once; the state columns run the recurrence.

A rollout step adds |F z|^2 to a running cost, F'F = sum_i c_i^2 S_i'C'C S_i,
with S_i z the stage states, c_i^2 = dt/6 * (1, 2, 2, 1)_i the RK4 weights,
and C = K for u'u or, for the cost, C'C the symmetric part of Q + K'RK (Q and
R may be nonsymmetric).  F is the R of one QR of the stacked c_i C S_i (at
most n + 3m rows), so a chunk's costs are one GEMM of the buffer with
[F_cost; F_u]' and two row sums of squares, never negative.  The collect
kernel keeps no per-step record: a sample map Y sends a row to c_i [x_i, v_i],
the weighted stage states and applied inputs, and one GEMM of the buffer with
Y' and one batched product Y_x' Y give [I_xx | I_xv] of every window, which
go straight into the columns adp's least squares reads (collect_kernel).

The state recurrence runs in blocks of BLOCK steps with the powers
T, T^2, .., T^BLOCK, built once per call.  Within a block starting at x_p,

    x_{p+j} = T^j x_p + z_j,    z_j = T z_{j-1} + d_{p+j-1},  z_0 = 0,

where d_s = G w_s is the step's drive.  The zero-state responses z_j of all
blocks of a chunk are BLOCK GEMMs, the block starts are stepped with T^BLOCK,
one matrix-vector product per block, and the block interiors are one GEMM.
Temporaries are O(chunk * n); nothing of full length is allocated besides
the outputs.

Both kernels run one chunk loop, _chunks, and keep only their consumers of
its rows: the cost quadrature, or the window integrals.  Exogenous signals
(excitation, disturbance) reach it as functions rows(h0, h1) that give rows
h0..h1-1 of the signal's table on the half-step grid t_i = i dt/2
(2*n_steps + 1 rows), such as sim.BlackBoxPlant tabulates, or as None for a
missing signal, which drives nothing.  A chunk of steps s0..s1-1 reads rows
2 s0 .. 2 s1 of each signal, so RK4 stage evaluations see exact signal
values and no signal is held over the whole horizon.

The state guard is one reduction per chunk, and the outputs are cut at the
first offending step, so status, last step and the zero tail of every output
array are those of a per-step loop.

Status codes: 0 = ran to completion, 1 = state guard exceeded (blowup).
"""

import numpy as np

from . import _lapack

__all__ = ["USING_NUMBA", "OK", "BLOWUP", "rollout_kernel", "collect_kernel"]

#: There is one numpy backend; the flag stays for records that log it.
USING_NUMBA = False

OK = 0
BLOWUP = 1

#: Steps per chunk of the rollout kernel.  The 30,000-step 48-state formation
#: rollout took 47.7, 44.0, 43.5 and 41.6 ms (one BLAS thread) at 128, 192,
#: 256 and 512, and its command's peak RSS rose 0.15, 0.29 and 1.7 MB over 128.
CHUNK = 192

#: Steps per chunk of the collect kernel, rounded down to whole windows (at
#: least one window per chunk).  On the 36-state learn (100-step windows, one
#: BLAS thread) the kernel took 0.51, 0.45, 0.43 and 0.43 s at 256, 512, 1024
#: and 2048 steps, with temporaries of about 1, 2, 4 and 8 MB.
COLLECT_CHUNK = 1024

#: Steps per block of the state recurrence.  A chunk of L steps costs BLOCK
#: GEMMs, ceil(L / BLOCK) matrix-vector products and one GEMM, instead of L
#: matrix-vector products.
BLOCK = 16

_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])

_FMAX = np.finfo(float).max


def _rk4_maps(a, b, k, dt):
    """(_powers(T), G, S) of one RK4 step of xdot = A x + B(-K x + w).

    With z = [x; w(t); w(t+h/2); w(t+h)], the step is x+ = T x + G z[n:] and
    the four stage states x1..x4 are the n-row blocks of S z.
    """
    n, m = b.shape
    f_cl = a - b @ k
    eye = np.eye(n + 3 * m)
    x = eye[:n]
    bw0, bwh, bw1 = (b @ eye[n + i * m:n + (i + 1) * m] for i in range(3))

    f1 = f_cl @ x + bw0
    x2 = x + 0.5 * dt * f1
    f2 = f_cl @ x2 + bwh
    x3 = x + 0.5 * dt * f2
    f3 = f_cl @ x3 + bwh
    x4 = x + dt * f3
    f4 = f_cl @ x4 + bw1
    step = x + (dt / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return _powers(step[:, :n]), step[:, n:], np.vstack([x, x2, x3, x4])


def _sample_map(s_map, k0, dt):
    """Y with Y z = [c_i x_i, c_i v_i], i = 1..4, for one step's z.

    x_i is stage i's state (the n-row blocks of S z), v_i = w_i - K0 x_i the
    input applied there, and c_i = sqrt(dt/6 * (1, 2, 2, 1)_i), so that the
    product of a step's rows Y_x' Y is its RK4 quadrature of [x x' | x v'].
    """
    m, n = k0.shape
    cols = s_map.shape[1]
    stage_x = s_map.reshape(4, n, cols)
    stage_v = -(k0 @ stage_x)
    for i, j in enumerate((0, 1, 1, 2)):  # w(t), w(t+h/2) twice, w(t+h)
        stage_v[i, :, n + j * m:n + (j + 1) * m] += np.eye(m)
    c = np.sqrt((dt / 6.0) * _RK4_WEIGHTS)[:, None, None]
    return (c * np.concatenate([stage_x, stage_v], axis=1)).reshape(-1, cols)


def _psd_root(w):
    """C with C'C = (W + W')/2, PSD, by pivoted Cholesky cut at its rank."""
    u, piv, rank, _ = _lapack.dpstrf((w + w.T) / 2.0)  # reads one triangle
    root = np.empty((rank, w.shape[0]))
    root[:, piv - 1] = np.triu(u[:rank])
    return root


def _powers(t_map):
    """Transposed powers (T^j)', j = 1..BLOCK, as a (BLOCK, n, n) stack, so
    that row states x' map to (T^j x)' = x' (T^j)'."""
    pows = np.empty((BLOCK,) + t_map.shape)
    pows[0] = t_map.T
    for j in range(1, BLOCK):
        np.matmul(pows[j - 1], t_map.T, out=pows[j])
    return pows


def _advance(t_pows, g_map, xs, wz):
    """Fill xs[1 .. steps] by x+ = T x + G w from xs[0], BLOCK steps at a
    time, for the steps' drive rows wz; t_pows is _powers(T)."""
    n = xs.shape[1]
    steps = len(wz)
    n_blocks = -(-steps // BLOCK)
    drive = np.zeros((n_blocks * BLOCK, n))
    np.matmul(wz, g_map.T, out=drive[:steps])
    # z[j, q] is step q * BLOCK + j + 1; the last block is padded past the
    # chunk with zero drive
    z = np.ascontiguousarray(drive.reshape(n_blocks, BLOCK, n).transpose(1, 0, 2))
    for j in range(1, BLOCK):
        z[j] += z[j - 1] @ t_pows[0]
    # block ends x_{p+BLOCK} = T^BLOCK x_p + z_BLOCK, in order
    x = xs[0]
    for end in z[-1]:
        end += x @ t_pows[-1]
        x = end
    starts = np.vstack([xs[0], z[-1, :-1]])
    z[:-1] += np.matmul(starts, t_pows[:-1])
    xs[1:steps + 1] = z.transpose(1, 0, 2).reshape(-1, n)[:steps]


def _first_bad(x_rows, guard):
    """Index of the first row with an entry that is not finite or is above
    guard, or None.  One reduction decides; the rows are searched only when
    it fails."""
    limit = min(guard, _FMAX)
    if np.abs(x_rows).max() <= limit:  # false also for NaN and inf
        return None
    return int(np.flatnonzero(~(np.abs(x_rows) <= limit).all(axis=1))[0])


def _chunks(t_pows, g_map, signals, x0, n_steps, chunk, guard):
    """The chunk loop of both kernels: x+ = T x + G w over n_steps steps
    from x0, chunk steps at a time; t_pows is _powers(T).

    signals are half-grid rows(h0, h1) functions, None for a missing one,
    each read once per chunk; the drive w is the sum of the present ones
    (e + d in a collect), added into the first's copy, or zero.
    Yields (s0, z, bad) for the chunk of steps s0 .. s0 + steps - 1: z holds
    its steps + 1 rows, x_s then the drive [w(t) w(t+h/2) w(t+h)] of the
    step from it, and bad is the first row of z[1:] past the guard, or
    None.  A chunk with a blowup is the last; otherwise its last state
    starts the next.
    """
    n, m = g_map.shape[0], g_map.shape[1] // 3
    buf = np.empty((min(chunk, n_steps) + 1, n + 3 * m))
    xs, drive = buf[:, :n], buf[:, n:]
    xs[0] = x0
    for s0 in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - s0)
        halves = [rows(2 * s0, 2 * (s0 + steps) + 1) for rows in signals
                  if rows is not None]
        for j in range(3):  # w(t + i h/2), i = 0 .. 2 steps, one row per step
            cols = drive[:steps, j * m:(j + 1) * m]
            cols[...] = halves[0][j:j + 2 * steps:2] if halves else 0.0
            for half in halves[1:]:
                cols += half[j:j + 2 * steps:2]
        _advance(t_pows, g_map, xs, drive[:steps])
        bad = _first_bad(xs[1:steps + 1], guard)
        yield s0, buf[:steps + 1], bad
        if bad is not None:
            return
        xs[0] = xs[steps]


@np.errstate(over="ignore", invalid="ignore")  # the guard reports overflow
def rollout_kernel(a, b, k, exo_dist, x0, dt, n_steps, q, r, guard):
    """Closed-loop RK4 rollout of xdot = A x + B(u + d), u = -K x.

    exo_dist gives the disturbance d as a function rows(h0, h1) of rows
    h0..h1-1 of its (2*n_steps+1, m) half-grid table, or is None for no
    disturbance.  Returns (states, inputs, cost, ju, status, last_step);
    cost and ju carry the RK4-quadrature running integrals of x'Qx + u'Ru
    and u'u.
    """
    n, m = b.shape
    # u = x (-K)': negating the gain, not the product, records u = +0.0
    # where K x is zero
    k_neg = -k
    xs, us = np.zeros((n_steps + 1, n)), np.zeros((n_steps + 1, m))
    cost, ju = np.zeros(n_steps + 1), np.zeros(n_steps + 1)
    xs[0] = x0
    us[0] = x0 @ k_neg.T
    status, last = OK, n_steps
    t_pows, g_map, s_map = _rk4_maps(a, b, k, dt)
    stages = np.sqrt((dt / 6.0) * _RK4_WEIGHTS)[:, None, None] * s_map.reshape(4, n, -1)
    f_cost, f_u = (np.linalg.qr((c @ stages).reshape(-1, n + 3 * m), mode="r")
                   for c in (_psd_root(q + k.T @ r @ k), k))
    f_t, split = np.vstack([f_cost, f_u]).T, len(f_cost)
    del s_map, stages, f_cost, f_u  # not held through the loop: peak RSS
    squares = np.empty((min(CHUNK, n_steps), f_t.shape[1]))

    for s0, z, bad in _chunks(t_pows, g_map, (exo_dist,), x0, n_steps,
                              CHUNK, guard):
        keep = len(z) - 1
        if bad is not None:
            status, keep, last = BLOWUP, bad + 1, s0 + bad + 1
        sq = np.matmul(z[:keep], f_t, out=squares[:keep])
        np.square(sq, out=sq)
        for acc, cols in ((cost, sq[:, :split]), (ju, sq[:, split:])):
            run = acc[s0:s0 + keep + 1]
            np.sum(cols, axis=1, out=run[1:])
            np.cumsum(run, out=run)
        xs[s0 + 1:s0 + keep + 1] = z[1:keep + 1, :n]
        np.matmul(xs[s0 + 1:s0 + keep + 1], k_neg.T, out=us[s0 + 1:s0 + keep + 1])

    return xs, us, cost, ju, status, last


@np.errstate(over="ignore", invalid="ignore")  # the guard reports overflow
def collect_kernel(a, b, k0, exo_cmd, exo_dist, x0, dt, steps_per_window,
                   n_windows, guard):
    """Learning-data rollout under u = -K0 x + e with applied input v = u + d.

    exo_cmd and exo_dist give e and d as functions rows(h0, h1) of their
    half-grid tables, like rollout_kernel's, each None for no signal.
    Accumulates per-window RK4 quadratures of x x' and x v' and records
    window boundary states.  Returns (boundaries, cols, None, None, None,
    status, windows_done).  cols is the Fortran (n_windows, m n + n^2)
    buffer of adp's least squares: column a n + b holds int x_b v_a, then
    column m n + c holds int x_i x_j for the c-th pair i <= j in row-major
    order, and the last n (n - 1) / 2 columns are left zero.  No per-step
    record is kept; slots 2 to 4 stay empty for callers that read
    windows_done by position.
    """
    n, m = b.shape
    spw = steps_per_window
    xb = np.zeros((n_windows + 1, n))
    cols = np.zeros((n_windows, m * n + n * n), order="F")
    # rows of cols.T, which is C-ordered: the I_xv columns as (a, b), then
    # the upper triangle of I_xx
    ixv_t = cols.T[:m * n].reshape(m, n, n_windows)
    ixx_t = cols.T[m * n:m * n + n * (n + 1) // 2]
    upper = np.triu_indices(n)
    xb[0] = x0
    status, done = OK, 0
    t_pows, g_map, s_map = _rk4_maps(a, b, k0, dt)
    y_map = _sample_map(s_map, k0, dt).T
    chunk = max(1, COLLECT_CHUNK // spw) * spw

    for s0, z, bad in _chunks(t_pows, g_map, (exo_cmd, exo_dist), x0,
                              n_windows * spw, chunk, guard):
        steps = len(z) - 1
        if bad is not None:
            # whole windows only: the window holding a blowup is dropped
            status, steps = BLOWUP, bad // spw * spw
        w0, n_win = s0 // spw, steps // spw
        samples = (z[:steps] @ y_map).reshape(n_win, 4 * spw, n + m)
        ints = samples[:, :, :n].transpose(0, 2, 1) @ samples
        ixv_t[:, :, w0:w0 + n_win] = ints[:, :, n:].transpose(2, 1, 0)
        ixx_t[:, w0:w0 + n_win] = ints[:, upper[0], upper[1]].T
        xb[w0 + 1:w0 + n_win + 1] = z[spw:steps + 1:spw, :n]
        done = w0 + n_win

    return xb, cols, None, None, None, status, done
