"""Integration kernels: parity with step-loop oracles, order, guards."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlqr import _kernels, sim
from hlqr.adp import _TABLE_GROUP, TABLE_BLOCK, Excitation
from hlqr.graphcost import assemble_q
from hlqr.sim import BlackBoxPlant
from oracles import Pointwise, half_grid_table, integrate_callable, stage_quadrature


def damped_rotation():
    a = np.array([[-0.5, 1.0], [-1.0, -0.5]])
    b = np.array([[0.0], [1.0]])
    return a, b


def zero_table(n_steps, m):
    return np.zeros((2 * n_steps + 1, m))


def zero_tables(n_steps, m):
    return zero_table(n_steps, m), zero_table(n_steps, m)


def assert_rel(actual, expected, tol=1e-12):
    """max |actual - expected| <= tol * max |expected| over the array."""
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= tol * scale


def collect_step_loop(a, b, k0, exo_cmd, exo_dist, x0, dt, steps_per_window,
                      n_windows, guard):
    """Per-step RK4 reference for collect_kernel: same arguments, one stage
    evaluation at a time.  Returns the kernel's tuple with the per-step state
    and applied-input records raw_x, raw_v in slots 3 and 4, which the
    kernel leaves empty."""
    n = a.shape[0]
    m = b.shape[1]
    total = steps_per_window * n_windows
    xb = np.zeros((n_windows + 1, n))
    ixx = np.zeros((n_windows, n, n))
    ixv = np.zeros((n_windows, n, m))
    raw_x = np.zeros((total + 1, n))
    raw_v = np.zeros((total + 1, m))

    x = x0.copy()
    xb[0] = x
    raw_x[0] = x
    raw_v[0] = -k0 @ x + exo_cmd[0] + exo_dist[0]
    status = _kernels.OK
    done = 0
    h6 = dt / 6.0

    def v_at(xst, i):
        return -k0 @ xst + exo_cmd[i] + exo_dist[i]

    for w in range(n_windows):
        acc_xx = np.zeros((n, n))
        acc_xv = np.zeros((n, m))
        for inner in range(steps_per_window):
            step = w * steps_per_window + inner
            v1 = v_at(x, 2 * step)
            f1 = a @ x + b @ v1
            x2 = x + 0.5 * dt * f1
            v2 = v_at(x2, 2 * step + 1)
            f2 = a @ x2 + b @ v2
            x3 = x + 0.5 * dt * f2
            v3 = v_at(x3, 2 * step + 1)
            f3 = a @ x3 + b @ v3
            x4 = x + dt * f3
            v4 = v_at(x4, 2 * step + 2)
            f4 = a @ x4 + b @ v4
            acc_xx += h6 * (np.outer(x, x) + 2.0 * np.outer(x2, x2)
                            + 2.0 * np.outer(x3, x3) + np.outer(x4, x4))
            acc_xv += h6 * (np.outer(x, v1) + 2.0 * np.outer(x2, v2)
                            + 2.0 * np.outer(x3, v3) + np.outer(x4, v4))
            x = x + h6 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
            raw_x[step + 1] = x
            raw_v[step + 1] = v_at(x, 2 * step + 2)
            if not np.all(np.isfinite(x)) or np.abs(x).max() > guard:
                status = _kernels.BLOWUP
                break
        if status == _kernels.BLOWUP:
            break
        xb[w + 1] = x
        ixx[w] = acc_xx
        ixv[w] = acc_xv
        done = w + 1

    return xb, ixx, ixv, raw_x, raw_v, status, done


def rollout_oracle(a, b, k, disturbance, x0, dt, n_steps, q, r):
    """The callable-controller RK4 loop with u = -K x and the disturbance
    signal d entering as B(u + d)."""
    plant = BlackBoxPlant(a, b, disturbance)
    return integrate_callable(plant, lambda t, x: -k @ x, x0, dt, n_steps, q, r,
                              np.inf)


def assert_rollout_matches(out, traj, last):
    xs, us, cost, ju, _, _ = out
    end = last + 1
    assert_rel(xs[:end], traj.states[:end])
    assert_rel(us[:end], traj.inputs[:end])
    assert_rel(cost[:end], traj.running_cost[:end])
    assert_rel(ju[:end], traj.running_ju[:end])
    for arr in (xs, us, cost, ju):
        assert not np.any(arr[end:])


def assert_collect_matches(out, ref):
    """Boundary states and window integrals against collect_step_loop, equal
    status and windows done, and zero rows past the last whole window."""
    assert out[5] == ref[5] and out[6] == ref[6]
    done = ref[6]
    for got, want in zip(out[:3], ref[:3]):
        assert_rel(got, want)
    for tail in (out[0][done + 1:], out[1][done:], out[2][done:]):
        assert not np.any(tail)


def first_blowup_step(raw_x, guard):
    """The step at which the oracle's state record first exceeds guard."""
    return int(np.flatnonzero(np.abs(raw_x).max(axis=1) > guard)[0])


class TestBackendParity:
    """The chunked linear-map kernels against per-step RK4 loops."""

    def test_rollout_matches_step_loop(self):
        a, b = damped_rotation()
        k = np.array([[0.3, 0.4]])
        n_steps = 400
        signal = Pointwise(lambda t: np.array([0.2 * np.sin(3.0 * t)]))
        dist = half_grid_table(signal, 1e-2, n_steps)
        x0 = np.array([1.0, -1.0])
        out = _kernels.rollout_kernel(a, b, k, dist, x0, 1e-2, n_steps,
                                      np.eye(2), np.eye(1), 1e6)
        assert out[4] == _kernels.OK and out[5] == n_steps
        traj = rollout_oracle(a, b, k, signal, x0, 1e-2, n_steps,
                              np.eye(2), np.eye(1))
        assert_rollout_matches(out, traj, n_steps)

    def test_formation_rollout_with_disturbance(self):
        mas, spec, baseline_k, x0 = sim.build_formation(sim.default_formation())
        plant = mas.black_box()
        dt, n_steps = 1e-3, 2 * _kernels.CHUNK + 300
        dist = half_grid_table(mas.disturbance, dt, n_steps)
        assert plant.n_states == 48 and np.any(dist)
        q, r = assemble_q(spec), spec.r
        out = _kernels.rollout_kernel(plant._a, plant._b, baseline_k, dist,
                                      x0, dt, n_steps, q, r, 1e6)
        assert out[4] == _kernels.OK
        traj = rollout_oracle(plant._a, plant._b, baseline_k, mas.disturbance,
                              x0, dt, n_steps, q, r)
        assert_rollout_matches(out, traj, n_steps)

    def test_rollout_blowup_mid_chunk(self):
        a, b = damped_rotation()
        k = np.array([[0.0, -1.5]])  # destabilizing: closed-loop poles at +0.25
        dt, n_steps = 1e-2, 3000
        signal = Pointwise(lambda t: np.array([0.1 * np.cos(2.0 * t)]))
        dist = half_grid_table(signal, dt, n_steps)
        x0 = np.array([1.0, 0.0])
        traj = rollout_oracle(a, b, k, signal, x0, dt, n_steps,
                              np.eye(2), np.eye(1))
        guard = 50.0
        last = int(np.flatnonzero(np.abs(traj.states).max(axis=1) > guard)[0])
        assert _kernels.CHUNK < last < n_steps and last % _kernels.CHUNK
        out = _kernels.rollout_kernel(a, b, k, dist, x0, dt, n_steps,
                                      np.eye(2), np.eye(1), guard)
        assert out[4] == _kernels.BLOWUP and out[5] == last
        assert_rollout_matches(out, traj, last)

    def test_collect_matches_step_loop(self):
        a, b = damped_rotation()
        k0 = np.array([[0.1, 0.2]])
        steps, windows = 20, 15
        n_steps = steps * windows
        cmd = half_grid_table(Pointwise(lambda t: np.array([0.3 * np.cos(2.0 * t)])),
                              1e-2, n_steps)
        dist = np.zeros_like(cmd)
        x0 = np.array([0.5, 0.5])
        args = (a, b, k0, cmd, dist, x0, 1e-2, steps, windows, 1e6)
        out = _kernels.collect_kernel(*args)
        assert out[5] == _kernels.OK and out[6] == windows
        assert_collect_matches(out, collect_step_loop(*args))

    def test_collect_with_excitation_and_disturbance(self):
        mas, _ = sim.clique_path_scenario(3, 3)
        a, b = mas.cluster(sim.clique_decomposition(3, 3), 0)
        n, m = b.shape
        dt, steps, windows = 1e-3, 100, 25
        n_steps = steps * windows
        assert n_steps > 2 * _kernels.COLLECT_CHUNK
        cmd = half_grid_table(Excitation.make(5, m), dt, n_steps)
        amps = 0.2 * np.arange(1, m + 1)
        dist = half_grid_table(Pointwise(lambda t: amps * np.cos(3.0 * t) / (t + 1.0)),
                               dt, n_steps)
        k0 = 0.05 * np.ones((m, n))
        x0 = np.random.default_rng(1).standard_normal(n)
        args = (a, b, k0, cmd, dist, x0, dt, steps, windows, 1e6)
        out = _kernels.collect_kernel(*args)
        assert out[5] == _kernels.OK and out[6] == windows
        assert_collect_matches(out, collect_step_loop(*args))

    def test_collect_blowup_mid_chunk(self):
        a = np.array([[0.3, 1.0], [0.0, 0.2]])
        b = np.array([[0.0], [1.0]])
        k0 = np.array([[0.0, 0.0]])  # open loop unstable
        dt, steps, windows = 1e-2, 30, 200
        cmd = half_grid_table(Pointwise(lambda t: np.array([0.2 * np.sin(t)])), dt,
                              steps * windows)
        dist = 0.5 * cmd
        guard = 1e3
        args = (a, b, k0, cmd, dist, np.array([1.0, 1.0]), dt, steps,
                windows, guard)
        ref = collect_step_loop(*args)
        assert ref[5] == _kernels.BLOWUP
        per_chunk = _kernels.COLLECT_CHUNK // steps
        assert ref[6] > per_chunk and ref[6] % per_chunk
        out = _kernels.collect_kernel(*args)
        assert_collect_matches(out, ref)
        assert (first_blowup_step(ref[3], guard) - 1) // steps == ref[6]


@st.composite
def collect_cases(draw):
    """A small stable or unstable pair with a nonzero behavior gain, an
    excitation and a disturbance, a window length that does not divide the
    collect chunk, more than one chunk of steps, and a guard between |x0|
    and 1e4 times it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    shift = draw(st.floats(-0.5, 1.5))  # small shifts leave many draws unstable
    a = rng.uniform(-1.0, 1.0, (n, n)) - shift * np.eye(n)
    b = rng.uniform(-1.0, 1.0, (n, m))
    k0 = rng.uniform(-0.5, 0.5, (m, n))
    spw = draw(st.integers(3, 60).filter(lambda s: _kernels.COLLECT_CHUNK % s))
    per_chunk = _kernels.COLLECT_CHUNK // spw
    windows = per_chunk + draw(st.integers(1, per_chunk))
    dt, n_steps = 10.0 ** draw(st.floats(-3.0, -2.0)), spw * windows
    freq, phase = rng.uniform(0.5, 5.0, m), rng.uniform(0.0, np.pi, m)
    cmd = half_grid_table(Pointwise(lambda t: 0.3 * np.sin(freq * t + phase)),
                          dt, n_steps)
    amps = rng.uniform(0.05, 0.5, m)
    dist = half_grid_table(Pointwise(lambda t: amps * np.cos(1.3 * t)), dt, n_steps)
    x0 = rng.standard_normal(n)
    guard = float(np.abs(x0).max() * 10.0 ** draw(st.floats(0.0, 4.0)))
    return a, b, k0, cmd, dist, x0, dt, spw, windows, guard


class TestCollectProperty:
    @settings(max_examples=20, deadline=None)
    @given(args=collect_cases())
    def test_matches_step_loop(self, args):
        ref = collect_step_loop(*args)
        guard = args[-1]
        peaks = np.abs(ref[3]).max(axis=1)
        assume(np.all(np.abs(peaks - guard) > 1e-9 * guard))  # no near-tie
        out = _kernels.collect_kernel(*args)
        assert_collect_matches(out, ref)
        assert_rel(out[1], out[1].transpose(0, 2, 1), 1e-15)


@st.composite
def rollout_cases(draw):
    """A small pair under a gain that is zero in some draws, Q and R whose
    symmetric parts are PSD of any rank (R = 0 included), nonsymmetric in some
    draws, a disturbance or None, more than one chunk of steps, and a guard
    between |x0| and 1e4 times it, which unstable draws trip."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    shift = draw(st.floats(-0.3, 1.5))
    a = rng.uniform(-1.0, 1.0, (n, n)) - shift * np.eye(n)
    b = rng.uniform(-1.0, 1.0, (n, m))
    k = rng.uniform(-1.0, 1.0, (m, n)) * draw(st.sampled_from([0.0, 1.0]))
    q_root = rng.standard_normal((draw(st.integers(0, n)), n))
    r_root = rng.standard_normal((draw(st.integers(0, m)), m))
    dt = 10.0 ** draw(st.floats(-3.0, -1.5))
    n_steps = _kernels.CHUNK + draw(st.integers(1, 2 * _kernels.CHUNK))
    dist = None
    if draw(st.booleans()):
        dist = rng.uniform(-0.5, 0.5, (2 * n_steps + 1, m))
    x0 = rng.standard_normal(n)
    guard = float(np.abs(x0).max() * 10.0 ** draw(st.floats(0.0, 4.0)))
    q, r = q_root.T @ q_root, r_root.T @ r_root
    if draw(st.booleans()):
        # x'Qx and u'Ru read only the symmetric parts
        q_skew, r_skew = rng.standard_normal((n, n)), rng.standard_normal((m, m))
        q, r = q + q_skew - q_skew.T, r + r_skew - r_skew.T
    return a, b, k, dist, x0, dt, n_steps, q, r, guard


class TestRolloutCosts:
    """The running costs as squared norms of one product per chunk, against
    the stage-by-stage quadrature of the same state record."""

    @settings(max_examples=40, deadline=None)
    @given(args=rollout_cases())
    def test_match_stage_quadrature(self, args):
        # within 1e-13 of the final value, plus the rounding of the stage
        # sums: eps times the quadrature of |W| |x|^2 (W = Q + K'RK or K'K),
        # which dominates when the states lie mostly outside the range of W
        a, b, k, dist, _, dt, _, q, r, _ = args
        n, m = b.shape
        xs, _, cost, ju, _, last = _kernels.rollout_kernel(*args)
        ref = stage_quadrature(a, b, k, dist, xs[:last + 1], dt, q, r)
        x_sq = stage_quadrature(a, b, k, dist, xs[:last + 1], dt, np.eye(n),
                                np.zeros((m, m)))[0][-1]
        k_sq = np.linalg.norm(k, 2) ** 2
        sizes = (np.linalg.norm(q, 2) + k_sq * np.linalg.norm(r, 2), k_sq)
        for got, want, size in zip((cost, ju), ref, sizes):
            tol = 1e-13 * want[-1] + np.finfo(float).eps * size * x_sq
            assert np.all(np.abs(got[:last + 1] - want) <= tol)
            assert np.all(np.diff(got[:last + 1]) >= 0.0)
            assert not np.any(got[last + 1:])
        if not np.any(k):
            assert not np.any(ju)

    def test_formation_costs(self):
        mas, spec, baseline_k, x0 = sim.build_formation(sim.default_formation())
        plant = mas.black_box()
        dt, n_steps = 1e-3, 3 * _kernels.CHUNK + 50
        dist = half_grid_table(mas.disturbance, dt, n_steps)
        q, r = assemble_q(spec), spec.r
        xs, _, cost, ju, status, _ = _kernels.rollout_kernel(
            plant._a, plant._b, baseline_k, dist, x0, dt, n_steps, q, r, 1e6)
        assert status == _kernels.OK
        ref = stage_quadrature(plant._a, plant._b, baseline_k, dist, xs, dt, q, r)
        for got, want in zip((cost, ju), ref):
            assert_rel(got, want, 1e-14)

    def test_nonsymmetric_weights(self):
        # Q = I + a skew part has x'Qx = |x|^2, but its upper triangle
        # mirrored, [[1, 2], [2, 1]], is indefinite
        a, b = damped_rotation()
        k = np.array([[0.3, 0.4]])
        x0 = np.array([1.0, -1.0])
        skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
        args = (None, x0, 1e-2, 2 * _kernels.CHUNK + 7)
        got = _kernels.rollout_kernel(a, b, k, *args, np.eye(2) + skew,
                                      np.array([[1.0]]), 1e6)
        want = _kernels.rollout_kernel(a, b, k, *args, np.eye(2), np.array([[1.0]]), 1e6)
        assert_rel(got[2], want[2], 1e-14)
        assert got[3].tobytes() == want[3].tobytes()

    def test_no_disturbance_is_a_zero_table(self):
        # None and a table of zeros give the same bits, in both kernels
        a, b = damped_rotation()
        k = np.array([[0.3, 0.4]])
        x0 = np.array([1.0, -1.0])
        n_steps, steps = 2 * _kernels.CHUNK + 7, 20
        with_table = _kernels.rollout_kernel(a, b, k, zero_table(n_steps, 1), x0, 1e-2,
                                             n_steps, np.eye(2), np.eye(1), 1e6)
        without = _kernels.rollout_kernel(a, b, k, None, x0, 1e-2, n_steps,
                                          np.eye(2), np.eye(1), 1e6)
        for got, want in zip(without, with_table):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        windows = 3 * _kernels.COLLECT_CHUNK // steps
        cmd = half_grid_table(Excitation.make(3, 1), 1e-2, steps * windows)
        for exc in (cmd, None):
            table = zero_table(steps * windows, 1) if exc is None else exc
            with_table = _kernels.collect_kernel(a, b, k, table, np.zeros_like(table), x0,
                                                 1e-2, steps, windows, 1e6)
            without = _kernels.collect_kernel(a, b, k, exc, None, x0, 1e-2, steps,
                                              windows, 1e6)
            assert with_table[5:] == without[5:] == (_kernels.OK, windows)
            for got, want in zip(without[:3], with_table[:3]):
                assert got.tobytes() == want.tobytes()


def growing_pair():
    """Open-loop unstable pair whose states grow monotonically from x0 > 0,
    so a guard between two consecutive peaks trips at a chosen step."""
    a = np.array([[0.5, 1.0], [0.0, 0.3]])
    b = np.array([[0.0], [1.0]])
    return a, b, np.zeros((1, 2)), np.array([1.0, 0.5])


def guard_before(states, step):
    """A guard that the peak |x| first exceeds at `step`."""
    peak = np.abs(states).max(axis=1)
    assert np.all(np.diff(peak[:step + 1]) > 0.0)
    return float(np.sqrt(peak[step - 1] * peak[step]))


class TestBlockedRecurrence:
    """Chunk lengths and blowup rows against the blocks of BLOCK steps."""

    B = _kernels.BLOCK

    @pytest.mark.parametrize("n_steps", [1, _kernels.BLOCK - 3, _kernels.CHUNK + 1,
                                         _kernels.CHUNK + 2 * _kernels.BLOCK + 5])
    def test_rollout_chunk_lengths(self, n_steps):
        assert n_steps % self.B
        a, b = damped_rotation()
        k = np.array([[0.3, 0.4]])
        dt = 1e-2
        signal = Pointwise(lambda t: np.array([0.2 * np.sin(3.0 * t)]))
        dist = half_grid_table(signal, dt, n_steps)
        x0 = np.array([1.0, -1.0])
        out = _kernels.rollout_kernel(a, b, k, dist, x0, dt, n_steps,
                                      np.eye(2), np.eye(1), 1e6)
        assert out[4] == _kernels.OK and out[5] == n_steps
        traj = rollout_oracle(a, b, k, signal, x0, dt, n_steps,
                              np.eye(2), np.eye(1))
        assert_rollout_matches(out, traj, n_steps)

    @pytest.mark.parametrize("steps, windows", [
        (1, 1),                           # a single one-step chunk
        (1, _kernels.COLLECT_CHUNK + 1),  # the last chunk is one step
        (7, 160),                         # chunks of 1022 and 98 steps
    ])
    def test_collect_chunk_lengths(self, steps, windows):
        per_chunk = max(1, _kernels.COLLECT_CHUNK // steps)
        tail = (windows % per_chunk or per_chunk) * steps
        assert tail == 1 or tail % self.B
        a, b = damped_rotation()
        k0 = np.array([[0.1, 0.2]])
        dt = 1e-2
        cmd = half_grid_table(Pointwise(lambda t: np.array([0.3 * np.cos(2.0 * t)])),
                              dt, steps * windows)
        dist = 0.05 * np.sin(np.arange(len(cmd)))[:, None]
        args = (a, b, k0, cmd, dist, np.array([0.5, 0.5]), dt, steps, windows, 1e6)
        out = _kernels.collect_kernel(*args)
        assert out[5] == _kernels.OK and out[6] == windows
        assert_collect_matches(out, collect_step_loop(*args))

    @pytest.mark.parametrize("row", [0, _kernels.BLOCK - 1])
    def test_rollout_blowup_on_block_edge(self, row):
        # second chunk, block 3: its first row, or its last
        a, b, k, x0 = growing_pair()
        dt, n_steps = 1e-2, 2 * _kernels.CHUNK
        step = _kernels.CHUNK + 3 * self.B + row + 1
        traj = rollout_oracle(a, b, k, None, x0, dt, n_steps,
                              np.eye(2), np.eye(1))
        guard = guard_before(traj.states, step)
        out = _kernels.rollout_kernel(a, b, k, zero_table(n_steps, 1), x0, dt,
                                      n_steps, np.eye(2), np.eye(1), guard)
        assert out[4] == _kernels.BLOWUP and out[5] == step
        assert_rollout_matches(out, traj, step)

    @pytest.mark.parametrize("row", [0, _kernels.BLOCK - 1])
    def test_collect_blowup_on_block_edge(self, row):
        # chunks of 1020 steps; second chunk, block 3: its first row, or its last
        a, b, k0, x0 = growing_pair()
        dt, steps, windows = 1e-2, 10, 120
        s0 = (_kernels.COLLECT_CHUNK // steps) * steps
        step = s0 + 3 * self.B + row + 1
        assert s0 == 1020 and step < steps * windows
        cmd, dist = zero_tables(steps * windows, 1)
        args = [a, b, k0, cmd, dist, x0, dt, steps, windows, np.inf]
        free = collect_step_loop(*args)
        args[-1] = guard_before(free[3], step)
        ref = collect_step_loop(*args)
        assert ref[5] == _kernels.BLOWUP and ref[6] == (step - 1) // steps
        out = _kernels.collect_kernel(*args)
        assert_collect_matches(out, ref)
        assert first_blowup_step(ref[3], args[-1]) == step

    def test_overflow_without_guard(self):
        # with an infinite guard the first non-finite row is the blowup
        a, b, k = np.array([[50.0]]), np.zeros((1, 1)), np.zeros((1, 1))
        n_steps, steps = 300, 10
        cmd, dist = zero_tables(n_steps, 1)
        xs, *_, status, last = _kernels.rollout_kernel(
            a, b, k, dist, np.array([1.0]), 1.0, n_steps,
            np.eye(1), np.eye(1), np.inf)
        assert status == _kernels.BLOWUP and 0 < last < n_steps
        assert np.all(np.isfinite(xs[:last])) and not np.isfinite(xs[last, 0])
        assert not np.any(xs[last + 1:])
        out = _kernels.collect_kernel(a, b, k, cmd, dist, np.array([1.0]), 1.0,
                                      steps, n_steps // steps, np.inf)
        done = out[6]
        assert out[5] == _kernels.BLOWUP and done == (last - 1) // steps
        assert np.array_equal(out[0][:done + 1], xs[:done * steps + 1:steps])
        assert not np.any(out[0][done + 1:])


class TestKernelInterface:
    """perfbench reads out[5] of rollouts and out[6] of collects, and the
    steps_per_window argument by position; these fix that interface."""

    def test_rollout_tuple(self):
        a, b, k, x0 = growing_pair()
        n_steps = 300
        for out in (
            _kernels.rollout_kernel(a, b, k, zero_table(n_steps, 1), x0, 1e-2,
                                    n_steps, np.eye(2), np.eye(1), 5.0),
            BlackBoxPlant(a, b).rollout(k, x0, 1e-2, n_steps,
                                        np.eye(2), np.eye(1), guard=5.0),
        ):
            assert len(out) == 6
            xs, us, cost, ju, status, last = out
            assert xs.shape == (n_steps + 1, 2) and us.shape == (n_steps + 1, 1)
            assert cost.shape == ju.shape == (n_steps + 1,)
            assert status == _kernels.BLOWUP
            assert isinstance(last, int) and 0 < last < n_steps
            assert np.abs(xs[last]).max() > 5.0 and not np.any(xs[last + 1:])

    def test_collect_tuple(self):
        a, b, k0, x0 = growing_pair()
        steps, windows = 10, 40
        cmd, dist = zero_tables(steps * windows, 1)
        raw_x = collect_step_loop(a, b, k0, cmd, dist, x0, 1e-2, steps, windows,
                                  5.0)[3]
        for out in (
            _kernels.collect_kernel(a, b, k0, cmd, dist, x0, 1e-2, steps,
                                    windows, 5.0),
            BlackBoxPlant(a, b).collect(k0, None, x0, 1e-2, steps, windows,
                                        guard=5.0),
        ):
            assert len(out) == 7
            xb, ixx, ixv, no_x, no_v, status, done = out
            assert xb.shape == (windows + 1, 2)
            assert ixx.shape == (windows, 2, 2) and ixv.shape == (windows, 2, 1)
            assert no_x is None and no_v is None
            assert status == _kernels.BLOWUP
            assert isinstance(done, int) and 0 < done < windows
            assert_rel(xb[:done + 1], raw_x[:done * steps + 1:steps])

    def test_positional_arguments(self):
        # perfbench reads steps_per_window as args[7] of collect_kernel and
        # args[5] of the bound BlackBoxPlant.collect (args[0] is the plant),
        # the last step as out[5] of rollout_kernel and BlackBoxPlant.rollout,
        # and the windows done as out[6] of collect_kernel
        kernel = list(inspect.signature(_kernels.collect_kernel).parameters)
        plant = list(inspect.signature(BlackBoxPlant.collect).parameters)
        assert kernel[7] == "steps_per_window" and plant[5] == "steps_per_window"
        rollout = list(inspect.signature(_kernels.rollout_kernel).parameters)
        assert rollout[:2] == ["a", "b"]

        a, b, k, x0 = growing_pair()
        dt, n_steps, last, steps = 1e-2, 2 * _kernels.CHUNK, _kernels.CHUNK + 5, 10
        free = rollout_oracle(a, b, k, None, x0, dt, n_steps, np.eye(2), np.eye(1))
        guard = guard_before(free.states, last)
        for out in (
            _kernels.rollout_kernel(a, b, k, None, x0, dt, n_steps, np.eye(2),
                                    np.eye(1), guard),
            BlackBoxPlant(a, b).rollout(k, x0, dt, n_steps, np.eye(2), np.eye(1),
                                        guard=guard),
        ):
            assert type(out[5]) is int and out[5] == last
        out = _kernels.collect_kernel(a, b, k, zero_table(n_steps, 1), None, x0, dt,
                                      steps, n_steps // steps, guard)
        assert type(out[6]) is int and out[6] == (last - 1) // steps


class TestIntegrationAccuracy:
    def test_exponential_decay(self):
        # xdot = -x from 1.0: compare against exp(-t) at t = 1
        a = np.array([[-1.0]])
        b = np.zeros((1, 1))
        k = np.zeros((1, 1))
        n_steps = 1000
        xs, _, _, _, status, last = _kernels.rollout_kernel(
            a, b, k, zero_table(n_steps, 1), np.array([1.0]), 1e-3, n_steps,
            np.eye(1), np.eye(1), 1e6)
        assert status == _kernels.OK
        assert abs(xs[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_fourth_order_convergence(self):
        # halving dt must shrink the endpoint error by about 2**4
        a, b = damped_rotation()
        k = np.zeros((1, 2))
        x0 = np.array([1.0, 0.0])

        def endpoint(dt, n_steps):
            xs, *_ = _kernels.rollout_kernel(
                a, b, k, zero_table(n_steps, 1), x0, dt, n_steps, np.eye(2),
                np.eye(1), 1e6)
            return xs[-1]

        import scipy.linalg
        exact = scipy.linalg.expm(a * 1.0) @ x0
        err_coarse = np.linalg.norm(endpoint(1e-2, 100) - exact)
        err_fine = np.linalg.norm(endpoint(5e-3, 200) - exact)
        ratio = err_coarse / err_fine
        assert 12.0 < ratio < 20.0

    def test_cost_quadrature_accuracy(self):
        # scalar closed loop xdot = -x, cost int x^2 = x0^2/2
        a = np.array([[-1.0]])
        b = np.zeros((1, 1))
        k = np.zeros((1, 1))
        n_steps = 20000
        _, _, cost, _, status, _ = _kernels.rollout_kernel(
            a, b, k, zero_table(n_steps, 1), np.array([2.0]), 1e-3, n_steps,
            np.eye(1), np.eye(1), 1e6)
        assert status == _kernels.OK
        assert abs(cost[-1] - 2.0) < 1e-6


class TestGuards:
    def test_blowup_detected(self):
        a = np.array([[2.0]])
        b = np.zeros((1, 1))
        k = np.zeros((1, 1))
        n_steps = 5000
        xs, _, _, _, status, last = _kernels.rollout_kernel(
            a, b, k, zero_table(n_steps, 1), np.array([1.0]), 1e-2, n_steps,
            np.eye(1), np.eye(1), 1e3)
        assert status == _kernels.BLOWUP
        assert last < n_steps
        assert np.all(np.abs(xs[: last + 1]) < np.inf)

    def test_collect_blowup(self):
        a = np.array([[1.5]])
        b = np.array([[1.0]])
        k0 = np.array([[0.0]])  # not stabilizing
        steps, windows = 100, 50
        cmd, dist = zero_tables(steps * windows, 1)
        *_, status, done = _kernels.collect_kernel(
            a, b, k0, cmd, dist, np.array([1.0]), 1e-2, steps, windows, 1e4)
        assert status == _kernels.BLOWUP
        assert done < windows

    def test_rollout_blowup_on_chunk_end(self):
        # the guard trips at the last step of the first chunk: the cut is
        # that step, and nothing of the second chunk is kept
        a, b, k = np.array([[0.5]]), np.zeros((1, 1)), np.zeros((1, 1))
        dt, n_steps = 1e-2, 2 * _kernels.CHUNK
        dist = zero_table(n_steps, 1)
        free = _kernels.rollout_kernel(a, b, k, dist, np.array([1.0]), dt,
                                       n_steps, np.zeros((1, 1)), np.zeros((1, 1)),
                                       np.inf)[0][:, 0]
        end = _kernels.CHUNK
        guard = np.sqrt(free[end - 1] * free[end])
        out = _kernels.rollout_kernel(a, b, k, dist, np.array([1.0]), dt,
                                      n_steps, np.zeros((1, 1)), np.zeros((1, 1)),
                                      guard)
        assert out[4] == _kernels.BLOWUP and out[5] == end
        assert not np.any(out[0][end + 1:])

    def test_collect_blowup_on_window_end(self):
        # the guard trips exactly at a window's last step: that window is
        # dropped like any other incomplete window
        a, b, k0 = np.array([[0.5]]), np.array([[1.0]]), np.zeros((1, 1))
        dt, steps, windows = 1e-2, 40, 100
        cmd, dist = zero_tables(steps * windows, 1)
        args = [a, b, k0, cmd, dist, np.array([1.0]), dt, steps, windows, np.inf]
        free = collect_step_loop(*args)[3][:, 0]
        end = 7 * steps
        args[-1] = np.sqrt(free[end - 1] * free[end])
        out = _kernels.collect_kernel(*args)
        assert_collect_matches(out, collect_step_loop(*args))
        assert out[5] == _kernels.BLOWUP and out[6] == 6


class TestCollectIntegrals:
    def test_window_quadratures_match_reference(self):
        # integrate x x' and x v' with an independent fine-grid trapezoid
        a, b = damped_rotation()
        k0 = np.array([[0.2, 0.1]])
        dt, steps, windows = 1e-3, 100, 5

        def exc(t):
            return np.array([0.4 * np.sin(5.0 * t) + 0.2 * np.cos(1.7 * t)])

        n_steps = steps * windows
        cmd = half_grid_table(Pointwise(exc), dt, n_steps)
        dist = np.zeros_like(cmd)
        x0 = np.array([1.0, 0.0])
        args = (a, b, k0, cmd, dist, x0, dt, steps, windows, 1e6)
        xb, ixx, ixv, _, _, status, done = _kernels.collect_kernel(*args)
        assert status == _kernels.OK and done == windows
        raw_x, raw_v = collect_step_loop(*args)[3:5]

        # reference: trapezoid over the oracle's per-step samples
        for w in range(windows):
            lo, hi = w * steps, (w + 1) * steps
            xs = raw_x[lo:hi + 1]
            vs = raw_v[lo:hi + 1]
            ref_xx = np.zeros((2, 2))
            ref_xv = np.zeros((2, 1))
            for i in range(steps):
                ref_xx += 0.5 * dt * (np.outer(xs[i], xs[i])
                                      + np.outer(xs[i + 1], xs[i + 1]))
                ref_xv += 0.5 * dt * (np.outer(xs[i], vs[i])
                                      + np.outer(xs[i + 1], vs[i + 1]))
            assert np.allclose(ixx[w], ref_xx, atol=5e-7)
            assert np.allclose(ixv[w], ref_xv, atol=5e-7)
        # boundary states match the oracle's per-step record
        for w in range(windows + 1):
            assert np.allclose(xb[w], raw_x[w * steps], atol=1e-14)


class TestSignalTables:
    def test_half_grid_layout(self):
        # row i is the signal at i dt/2, whichever slices read it
        plant = BlackBoxPlant(np.zeros((1, 1)), np.ones((1, 1)))
        grid = plant._half_grid(Pointwise(lambda t: np.array([t])), 0.1, 4)
        table = grid[0:9]
        assert table.shape == (9, 1)
        assert np.allclose(table[:, 0], np.arange(9) * 0.05)
        assert grid[3:7].tobytes() == table[3:7].tobytes()

    def test_vectorized_protocol(self):
        class Sig:
            def table(self, h, n):
                return lambda i0, i1: np.sin(np.arange(i0, i1) * h)[:, None]

        rows = sim.tabulate_signal(Sig().table(0.05, 21), 4, 21, 1)
        assert np.allclose(rows[:, 0], np.sin(np.arange(4, 21) * 0.05))

    def test_channels_and_width(self):
        rows = sim._CosDecayDisturbance([1.0, 2.0, 3.0]).table(0.05, 21)
        picked = sim.tabulate_signal(rows, 2, 9, 2, channels=np.array([2, 0]))
        assert picked.tobytes() == rows(2, 9)[:, [2, 0]].tobytes()
        with pytest.raises(sim.DimensionMismatch):
            sim.tabulate_signal(rows, 2, 9, 2)


#: steps whose half-grid fills one group of Excitation.table's GEMMs
GROUP_STEPS = _TABLE_GROUP * TABLE_BLOCK // 2


@st.composite
def chunk_table_cases(draw):
    """A small pair and gain, a horizon whose half-grid ends in the first
    group of excitation blocks or one or two groups past it (with a one-block
    tail when the extra steps are under TABLE_BLOCK / 2), a window length, and
    an excitation and a disturbance, each absent, an Excitation, or the
    formation's cosine decay, read at a random subset of its channels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = rng.uniform(-1.0, 1.0, (n, n)) - draw(st.floats(0.0, 2.0)) * np.eye(n)
    b = rng.uniform(-1.0, 1.0, (n, m))
    k = rng.uniform(-0.5, 0.5, (m, n))
    dt = 10.0 ** draw(st.floats(-4.0, -2.0))
    n_steps = draw(st.one_of(
        st.integers(1, 300),
        st.builds(lambda g, t: g * GROUP_STEPS + t, st.integers(1, 2),
                  st.integers(0, TABLE_BLOCK))))
    spw = draw(st.integers(1, 8))
    width = m + draw(st.integers(0, 2))
    channels = rng.permutation(width)[:m]

    def signal(cols):
        kind = draw(st.sampled_from(["none", "excitation", "decay"]))
        if kind == "excitation":
            return Excitation.make(draw(st.integers(0, 2**16)), cols,
                                   n_sin=draw(st.integers(1, 12)))
        if kind == "decay":
            return sim._CosDecayDisturbance(rng.uniform(0.05, 0.5, cols))
        return None

    q_root, r_root = rng.standard_normal((n, n)), rng.standard_normal((m, m))
    return dict(a=a, b=b, k=k, x0=rng.standard_normal(n), dt=dt,
                n_steps=n_steps, spw=spw, exc=signal(m), dist=signal(width),
                channels=channels, q=q_root.T @ q_root, r=r_root.T @ r_root)


def same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


class TestChunkTables:
    """The kernels read signals one chunk of half-grid rows at a time; their
    outputs are those of the whole-horizon tables, bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(case=chunk_table_cases())
    def test_match_whole_tables(self, case):
        a, b, k, x0, dt = (case[key] for key in ("a", "b", "k", "x0", "dt"))
        n_steps, spw, channels = case["n_steps"], case["spw"], case["channels"]
        exc, dist = case["exc"], case["dist"]
        plant = BlackBoxPlant(a, b, dist, channels)

        got = plant.rollout(k, x0, dt, n_steps, case["q"], case["r"])
        want = _kernels.rollout_kernel(
            a, b, k, half_grid_table(dist, dt, n_steps, channels), x0, dt,
            n_steps, case["q"], case["r"], sim.DEFAULT_GUARD)
        same_bits(got, want)

        windows = max(1, n_steps // spw)
        got = plant.collect(k, exc, x0, dt, spw, windows)
        want = _kernels.collect_kernel(
            a, b, k, half_grid_table(exc, dt, spw * windows),
            half_grid_table(dist, dt, spw * windows, channels), x0, dt, spw,
            windows, sim.DEFAULT_GUARD)
        same_bits(got, want)

    def test_rollout_memory_is_per_chunk(self):
        # run formation's 30,000-step rollout: its disturbance over the whole
        # half-grid would be an 11.5 MB table; per chunk, the rollout holds
        # little besides its outputs
        mas, spec, baseline_k, x0 = sim.build_formation(sim.default_formation())
        plant, q = mas.black_box(), assemble_q(spec)
        tracemalloc.start()
        try:
            out = plant.rollout(baseline_k, x0, 1e-3, 30_000, q, spec.r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out[4] == _kernels.OK
        outputs = sum(arr.nbytes for arr in out[:4])
        assert outputs > 17e6 and peak - outputs < 2e6
