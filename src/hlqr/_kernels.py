"""Hot numerical loops: RK4 rollout with cost quadrature, ADP data collection.

For a fixed gain the closed loop xdot = (A - BK) x + B w is LTI, so one
classical RK4 step of length h is an exact linear map

    x+ = T x + G0 w(t) + Gh w(t + h/2) + G1 w(t + h),

and every stage state x1..x4 is likewise linear in z = [x; w(t); w(t + h/2);
w(t + h)].  The maps are built once per call by pushing identity blocks
through the RK4 stage formulas.  Both kernels then work per chunk of steps:
the exogenous drive of the chunk is one GEMM, and the stage values of the
chunk are batched GEMMs over it.

The rollout kernel reads stage 1 from its state record and takes stages 2-4,
the inputs and the cost quadratures from batched products.  The collect
kernel keeps no per-step record.  Its chunk is one buffer of rows
[x | w(t) w(t + h/2) w(t + h)], and one sample map Y sends such a row to the
weighted stage states and applied inputs c_i [x_i, v_i], i = 1..4, with
c_i^2 the RK4 quadrature weights.  One GEMM of the buffer with Y' and one
batched product Y_x' Y then give [I_xx | I_xv] of every window of the chunk.

The state recurrence runs in blocks of BLOCK steps with the powers
T, T^2, .., T^BLOCK, built once per call.  Within a block starting at x_p,

    x_{p+j} = T^j x_p + z_j,    z_j = T z_{j-1} + d_{p+j-1},  z_0 = 0,

where d_s = G w_s is the step's drive.  The zero-state responses z_j of all
blocks of a chunk are BLOCK GEMMs, the block starts are stepped with T^BLOCK,
one matrix-vector product per block, and the block interiors are one GEMM.
Temporaries are O(chunk * n); nothing of full length is allocated besides
the outputs.

Exogenous signals (excitation, disturbance) are tabulated on the half-step
grid (2*n_steps + 1 samples) so RK4 stage evaluations see exact signal values.

The state guard is one reduction per chunk, and the outputs are cut at the
first offending step, so status, last step and the zero tail of every output
array are those of a per-step loop.

Status codes: 0 = ran to completion, 1 = state guard exceeded (blowup).
"""

import numpy as np

__all__ = [
    "USING_NUMBA",
    "OK",
    "BLOWUP",
    "rollout_kernel",
    "collect_kernel",
]

#: There is one numpy backend; the flag stays for records that log it.
USING_NUMBA = False

OK = 0
BLOWUP = 1

#: Steps per chunk of the rollout kernel.  256 keeps the temporaries near
#: 1 MB at 48 states; 1024 ran the 30,000-step formation rollout no faster and
#: raised its tracemalloc peak from 18.7 to 22.6 MB.
CHUNK = 256

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
    """(T, G, S) of one RK4 step of xdot = A x + B(-K x + w).

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
    return step[:, :n], step[:, n:], np.vstack([x, x2, x3, x4])


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


def _step_drive(w):
    """Per-step rows [w(t), w(t+h/2), w(t+h)], shape (L, 3m), of a
    (2L+1, m) half-grid slice."""
    return np.hstack([w[0:-1:2], w[1::2], w[2::2]])


def _stage_rows(half):
    """Values at the four RK4 stages of a (2L+1, m) half-grid slice, as
    (4L, m) rows, row 4s + i at stage i + 1 of step s."""
    stacked = np.stack([half[0:-1:2], half[1::2], half[1::2], half[2::2]], axis=1)
    return stacked.reshape(-1, half.shape[1])


def _powers(t_map):
    """Transposed powers (T^j)', j = 1..BLOCK, as a (BLOCK, n, n) stack, so
    that row states x' map to (T^j x)' = x' (T^j)'."""
    pows = np.empty((BLOCK,) + t_map.shape)
    pows[0] = t_map.T
    for j in range(1, BLOCK):
        np.matmul(pows[j - 1], t_map.T, out=pows[j])
    return pows


def _advance(t_pows, g_map, xs, wz, s0, s1):
    """Fill xs[s0+1 .. s1] by x+ = T x + G w from xs[s0], BLOCK steps at a
    time; t_pows is _powers(T)."""
    n = xs.shape[1]
    steps = s1 - s0
    n_blocks = -(-steps // BLOCK)
    drive = np.zeros((n_blocks * BLOCK, n))
    np.matmul(wz, g_map.T, out=drive[:steps])
    # z[j, q] is step s0 + q * BLOCK + j + 1; the last block is padded past
    # s1 with zero drive
    z = np.ascontiguousarray(drive.reshape(n_blocks, BLOCK, n).transpose(1, 0, 2))
    for j in range(1, BLOCK):
        z[j] += z[j - 1] @ t_pows[0]
    # block ends x_{p+BLOCK} = T^BLOCK x_p + z_BLOCK, in order
    x = xs[s0]
    for end in z[-1]:
        end += x @ t_pows[-1]
        x = end
    starts = np.vstack([xs[s0], z[-1, :-1]])
    z[:-1] += np.matmul(starts, t_pows[:-1])
    xs[s0 + 1:s1 + 1] = z.transpose(1, 0, 2).reshape(-1, n)[:steps]


def _first_bad(x_rows, guard):
    """Index of the first row with an entry that is not finite or is above
    guard, or None.  One reduction decides; the rows are searched only when
    it fails."""
    limit = min(guard, _FMAX)
    if np.abs(x_rows).max() <= limit:  # false also for NaN and inf
        return None
    return int(np.flatnonzero(~(np.abs(x_rows) <= limit).all(axis=1))[0])


def rollout_kernel(a, b, k, exo_cmd, exo_dist, x0, dt, n_steps, q, r, guard):
    """Closed-loop RK4 rollout of xdot = A x + B(u + d), u = -K x + e.

    exo_cmd/exo_dist are (2*n_steps+1, m) half-grid tables for e and d.
    Returns (states, inputs, cost, ju, status, last_step); cost and ju carry
    the RK4-quadrature running integrals of x'Qx + u'Ru and u'u.
    """
    n = a.shape[0]
    m = b.shape[1]
    xs = np.zeros((n_steps + 1, n))
    us = np.zeros((n_steps + 1, m))
    cost = np.zeros(n_steps + 1)
    ju = np.zeros(n_steps + 1)
    xs[0] = x0
    us[0] = -np.dot(k, x0) + exo_cmd[0]
    status = OK
    last = n_steps
    t_map, g_map, s_map = _rk4_maps(a, b, k, dt)
    t_pows = _powers(t_map)
    later_stages = s_map[n:].T  # stage 1 is x itself
    weights = (dt / 6.0) * _RK4_WEIGHTS

    with np.errstate(over="ignore", invalid="ignore"):
        for s0 in range(0, n_steps, CHUNK):
            s1 = min(s0 + CHUNK, n_steps)
            e = exo_cmd[2 * s0:2 * s1 + 1]
            wz = _step_drive(e + exo_dist[2 * s0:2 * s1 + 1])
            _advance(t_pows, g_map, xs, wz, s0, s1)
            keep = s1 - s0
            bad = _first_bad(xs[s0 + 1:s1 + 1], guard)
            if bad is not None:
                status = BLOWUP
                keep = bad + 1
                last = s0 + keep

            x_rows = xs[s0:s0 + keep]
            xst = np.empty((keep, 4 * n))
            xst[:, :n] = x_rows
            np.matmul(np.hstack([x_rows, wz[:keep]]), later_stages, out=xst[:, n:])
            xst = xst.reshape(-1, n)
            ust = _stage_rows(e[:2 * keep + 1]) - xst @ k.T
            cst = np.sum((xst @ q.T) * xst, axis=1) + np.sum((ust @ r.T) * ust, axis=1)
            jst = np.sum(ust * ust, axis=1)
            for acc, stage_vals in ((cost, cst), (ju, jst)):
                run = acc[s0:s0 + keep + 1]
                run[1:] = stage_vals.reshape(keep, 4) @ weights
                np.cumsum(run, out=run)
            us[s0 + 1:s0 + keep + 1] = e[2:2 * keep + 1:2] - xs[s0 + 1:s0 + keep + 1] @ k.T
            if status == BLOWUP:
                for arr in (xs, us, cost, ju):
                    arr[last + 1:] = 0.0
                break

    return xs, us, cost, ju, status, last


def collect_kernel(a, b, k0, exo_cmd, exo_dist, x0, dt, steps_per_window,
                   n_windows, guard):
    """Learning-data rollout under u = -K0 x + e with applied input v = u + d.

    Accumulates per-window RK4 quadratures of x x' and x v' and records window
    boundary states.  Returns (boundaries, i_xx, i_xv, None, None, status,
    windows_done).  No per-step record is kept; slots 3 and 4 are empty and
    stay only for callers that read windows_done by position.
    """
    n = a.shape[0]
    m = b.shape[1]
    spw = steps_per_window
    xb = np.zeros((n_windows + 1, n))
    ixx = np.zeros((n_windows, n, n))
    ixv = np.zeros((n_windows, n, m))
    xb[0] = x0
    status = OK
    done = 0
    t_map, g_map, s_map = _rk4_maps(a, b, k0, dt)
    t_pows = _powers(t_map)
    y_map = _sample_map(s_map, k0, dt).T
    per_chunk = max(1, COLLECT_CHUNK // spw)
    # row s: the chunk's state x_s, then the drive [w(t) w(t+h/2) w(t+h)] of
    # the step from it; the state columns run the recurrence
    buf = np.empty((min(per_chunk, n_windows) * spw + 1, n + 3 * m))
    xs = buf[:, :n]
    xs[0] = x0

    with np.errstate(over="ignore", invalid="ignore"):
        for w0 in range(0, n_windows, per_chunk):
            w1 = min(w0 + per_chunk, n_windows)
            s0, s1 = w0 * spw, w1 * spw
            steps = s1 - s0
            for j in range(3):
                np.add(exo_cmd[2 * s0 + j:2 * s1 + j:2], exo_dist[2 * s0 + j:2 * s1 + j:2],
                       out=buf[:steps, n + j * m:n + (j + 1) * m])
            _advance(t_pows, g_map, xs, buf[:steps, n:], 0, steps)
            bad = _first_bad(xs[1:steps + 1], guard)
            if bad is not None:
                # whole windows only: the window holding a blowup is dropped
                status = BLOWUP
                steps = bad // spw * spw

            n_win = steps // spw
            samples = (buf[:steps] @ y_map).reshape(n_win, 4 * spw, n + m)
            ints = samples[:, :, :n].transpose(0, 2, 1) @ samples
            ixx[w0:w0 + n_win] = ints[:, :, :n]
            ixv[w0:w0 + n_win] = ints[:, :, n:]
            xb[w0 + 1:w0 + n_win + 1] = xs[spw:steps + 1:spw]
            done = w0 + n_win
            if status == BLOWUP:
                break
            xs[0] = xs[steps]

    return xb, ixx, ixv, None, None, status, done
