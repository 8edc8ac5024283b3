"""Dense symmetric linear-algebra kernels.

Continuous-time Riccati and Lyapunov solvers and an SVD pseudoinverse with
an explicit rank cutoff.  Controller synthesis, the suboptimality bounds, and
the learning-oracle checks are all built on these three operations.

The Riccati solver is the structure-preserving doubling algorithm, one LU
solve and a few GEMMs per doubling and no Schur form; a doubled solution
that misses the residual contract is polished by Newton-Kleinman steps in
correction form, each one Lyapunov solve.  A Lyapunov solve is squared
Smith, the same doubling without the input term, whose last power of the
Cayley transform also certifies the matrix Hurwitz.  When the doubling
breaks down, does not stabilize or cannot be polished, Newton-Kleinman
starts over from stabilizing_gain, whose ordered Schur form also decides
stabilizability.

solve_care, solve_lyapunov and pinv first split their input at the
connected components of its exact nonzero pattern (_components) and solve
one block per component: a decoupled problem's solution is block diagonal
in the same permutation, and the factorizations and doublings cost a
quarter as much for two equal blocks.  Only an exactly zero entry separates
two components; an input with one component takes the dense path unchanged.

Conventions: symmetric matrices are plain float64 ndarrays, symmetrized as
(M + M.T)/2 at every operation boundary.
"""

import numpy as np

from ._lapack import dgees, dtrsyl
from .errors import IterationDiverged, NonStabilizable, UnstableMatrix

__all__ = [
    "symmetrize",
    "is_psd",
    "pinv",
    "solve_lyapunov",
    "stabilizing_gain",
    "solve_care",
]

#: mixed absolute-relative residual tolerance of the matrix solvers
TOL_RESIDUAL = 1e-9

#: doublings (of the Riccati or the squared-Smith Lyapunov iteration), and
#: then Newton-Kleinman polishing steps, taken on one component before
#: giving up
CARE_MAX_ITER = 60

#: eigenvalues down to this value are accepted as numerically PSD
PSD_TOL = -1e-10


def symmetrize(m):
    """Return the symmetric part (m + m.T)/2 as a float64 array."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return (m + m.T) / 2.0


def is_psd(m, tol=PSD_TOL):
    """True when all eigenvalues of the symmetric part are >= tol."""
    w = np.linalg.eigvalsh(symmetrize(m))
    return bool(w[0] >= tol)


def _pd(w, scale=0.0):
    """True when w, the ascending eigenvalues of a symmetric matrix, show it
    PD to rounding: w[0] > n eps max(w[-1], scale)."""
    return bool(w[0] > w.size * np.finfo(float).eps * max(w[-1], scale))


def abscissa(m):
    """Largest real part of the eigenvalues of a square matrix."""
    return float(np.linalg.eigvals(np.asarray(m, dtype=float)).real.max())


def block_diag(*blocks):
    """Matrix with the 2-D blocks on its diagonal and zeros elsewhere."""
    rows = sum(b.shape[0] for b in blocks)
    cols = sum(b.shape[1] for b in blocks)
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    i = j = 0
    for b in blocks:
        out[i:i + b.shape[0], j:j + b.shape[1]] = b
        i, j = i + b.shape[0], j + b.shape[1]
    return out


def _components(adj):
    """Connected components of the undirected graph with boolean adjacency adj.

    adj is square and symmetric.  Returns one increasing index array per
    component, the components ordered by their smallest index.
    """
    unseen = np.ones(adj.shape[0], dtype=bool)
    comps = []
    while unseen.any():
        front = np.flatnonzero(unseen)[:1]
        reached = ~unseen
        reached[front] = True
        while front.size:  # breadth first, one level per pass
            front = np.flatnonzero(adj[front].any(axis=0) & ~reached)
            reached[front] = True
        comps.append(np.flatnonzero(reached & unseen))
        unseen &= ~reached
    return comps


def _bipartite(nz):
    """Adjacency on rows then columns of a boolean pattern nz (rows x cols)."""
    rows, cols = nz.shape
    adj = np.zeros((rows + cols, rows + cols), dtype=bool)
    adj[:rows, rows:] = nz
    adj[rows:, :rows] = nz.T
    return adj


def pinv(m):
    """Moore-Penrose pseudoinverse by SVD with an explicit rank cutoff.

    Singular values at or below max(shape) * machine_eps * sigma_max are
    treated as zero.  The zero matrix maps to the zero matrix.  One SVD per
    connected component of the row/column nonzero pattern, all cut off at
    the global sigma_max, so the blocks of the result between components
    are exactly zero.
    """
    m = np.asarray(m, dtype=float)
    rows = m.shape[0]
    svds = []
    for c in _components(_bipartite(m != 0)):
        i, j = c[c < rows], c[c >= rows] - rows
        if i.size and j.size:  # a zero row or column maps to zero
            svds.append((i, j, np.linalg.svd(m[np.ix_(i, j)], full_matrices=False)))
    s_max = max((s[0] for _, _, (_, s, _) in svds), default=0.0)
    tol = max(m.shape) * np.finfo(float).eps * s_max
    out = np.zeros(m.shape[::-1])
    for i, j, (u, s, vt) in svds:
        s_inv = np.where(s > tol, np.divide(1.0, s, out=np.zeros_like(s), where=s > tol), 0.0)
        out[np.ix_(j, i)] = (vt.T * s_inv) @ u.T
    return out


def _no_select(wr, wi):
    return 0


def _stable(wr, wi):
    return wr < 0.0


def _schur(a, select=_no_select):
    """Real Schur form (T, Z, k), a = Z T Z', by LAPACK dgees with its
    workspace query: the call scipy.linalg.schur makes, without its argument
    checks.  Given select(wr, wi), T is ordered with the k eigenvalues it
    selects first (a complex pair counts twice); by default k = 0."""
    lwork = int(dgees(select, a, lwork=-1)[-2][0])
    t, k, _, _, z, _, info = dgees(select, a, sort_t=int(select is not _no_select),
                                   lwork=lwork)
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found")
    return t, z, k


def solve_lyapunov(a_s, w):
    """Solve a_s' V + V a_s + W = 0 for Hurwitz a_s and symmetric W.

    Squared Smith (_smith) on each connected component of the graph whose
    edges are the nonzeros of a_s, a_s' and W, so V is exactly zero between
    components.  A V that misses the residual contract
    100 TOL_RESIDUAL (1 + |V|_F) takes one defect-correction step: V += D
    with a_s' D + D a_s + Res(V) = 0, Res(V) = a_s' V + V a_s + W.

    Raises UnstableMatrix when a_s is not certified Hurwitz,
    IterationDiverged when the corrected V still fails the contract.
    """
    a_s = np.asarray(a_s, dtype=float)
    w = symmetrize(w)
    if a_s.shape != w.shape:
        raise ValueError(f"shape mismatch: a_s {a_s.shape} vs w {w.shape}")
    if not (np.isfinite(a_s).all() and np.isfinite(w).all()):
        raise ValueError("solve_lyapunov needs finite matrices")
    nz = (a_s != 0) | (w != 0)
    blocks = [np.ix_(c, c) for c in _components(nz | nz.T)]
    v, e = np.zeros(a_s.shape), w
    for _ in range(2):  # the solve, then at most one correction
        for c2 in blocks:
            v[c2] += _smith(a_s[c2], e[c2])
        e = v @ a_s  # a_s' V is its transpose, since V is symmetric
        e += e.T
        e += w
        res = np.linalg.norm(e, "fro")
        if res <= TOL_RESIDUAL * (1.0 + np.linalg.norm(v, "fro")) * 100.0:
            return v
    raise IterationDiverged(f"Lyapunov residual {res:.3e} out of contract")


def _smith(a, w):
    """V solving a' V + V a + W = 0 by squared Smith (Smith 1968): _doubling
    with G = 0, so W = I and there is nothing to solve per doubling.

    E starts at the Cayley transform I + 2 gamma A_g^{-1} of a and H at
    2 gamma A_g^{-T} W A_g^{-1}; each doubling sets H <- H + E' H E and
    E <- E^2.  The doublings stop only when H moves by at most
    sqrt(eps) |H|_1 and |E|_1 <= 1/2, which certifies a Hurwitz as in
    _doubling; a non-normal E can fall below 1/2 only well after H has
    stopped.  Raises UnstableMatrix when that takes more than CARE_MAX_ITER
    doublings or H stops being finite.
    """
    n = a.shape[0]
    gamma = 1.01 * np.linalg.norm(a, 1) or 1.0
    with np.errstate(all="ignore"):
        a_g = a - gamma * np.eye(n)
        y = np.linalg.solve(a_g.T, w)  # A_g^{-T} W
        a_g_inv = np.linalg.inv(a_g)
        e = np.eye(n) + 2.0 * gamma * a_g_inv
        h = symmetrize(2.0 * gamma * (y @ a_g_inv).T)
        for _ in range(CARE_MAX_ITER):
            step = e.T @ (h @ e)
            h = h + symmetrize(step)
            moved = np.linalg.norm(step, 1)
            if not np.isfinite(moved):
                break
            if (moved <= np.sqrt(np.finfo(float).eps) * np.linalg.norm(h, 1)
                    and np.linalg.norm(e, 1) <= 0.5):
                return h
            e = e @ e
    raise UnstableMatrix(f"{n}x{n} matrix not certified Hurwitz by squared Smith")


def _hurwitz(a):
    """True when _smith certifies a Hurwitz."""
    try:
        _smith(a, np.zeros(a.shape))
    except UnstableMatrix:
        return False
    return True


def solve_continuous_lyapunov(a, q):
    """X solving A X + X A' = Q for any A without eigenvalue pair summing
    to zero: scipy.linalg.solve_continuous_lyapunov's steps and bits, one
    dtrsyl call on the whole Schur form."""
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(q).all()):
        raise ValueError("array must not contain infs or NaNs")
    t, z, _ = _schur(a)
    y, scale, info = dtrsyl(t, t, z.T.dot(q.dot(z)), tranb="T")
    if info < 0:
        raise ValueError(f"dtrsyl: illegal value in argument {-info}")
    y *= scale
    return z.dot(y).dot(z.T)


def stabilizing_gain(a, b):
    """Gain K with A - B K Hurwitz, by one ordered Schur form (Varga 1981).

    A = Z T Z', T = [T11 T12; 0 T22], with the eigenvalues of negative real
    part (a strict test) in T11, so B2 = Z2' B alone drives the unstable
    and marginal modes in T22.  With beta = |T22|_F + 0.5, X solves
    (T22 + beta I) X + X (T22 + beta I)' = 2 B2 B2' (solve_continuous_lyapunov,
    by its module-level name, which perfbench/spans.py wraps to count calls);
    then K2 = B2' X^{-1} gives (T22 - B2 K2) X + X (T22 - B2 K2)' = -2 beta X,
    Hurwitz for PD X, and K = K2 Z2' leaves T11 in place.  Returns the zero
    gain when A is Hurwitz.  Raises NonStabilizable unless X is PD to
    rounding, its least eigenvalue above n eps times its largest or
    |B|_F^2 / beta: B2's rounding alone gives an X of order eps^2 that.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n, m = b.shape
    t, z, k = _schur(a, _stable)
    if k == n:
        return np.zeros((m, n))
    t22, z2t = t[k:, k:], z[:, k:].T
    b2 = z2t @ b
    beta = np.linalg.norm(t22, "fro") + 0.5
    w, v = np.linalg.eigh(solve_continuous_lyapunov(
        t22 + beta * np.eye(n - k), 2.0 * b2 @ b2.T))
    if not _pd(w, np.linalg.norm(b) ** 2 / beta):
        raise NonStabilizable(f"{n - k} unstable or marginal modes not stabilizable")
    return (v.T @ b2 / w[:, None]).T @ (v.T @ z2t)


def solve_care(a, b, q, r, p0=None):
    """Stabilizing solution of A'P + PA + Q - P B R^{-1} B' P = 0.

    The structure-preserving doubling algorithm (_doubling), polished by
    Newton-Kleinman steps (Kleinman 1968), one Lyapunov solve each, when
    the doubled P misses the residual contract TOL_RESIDUAL * (1 + |P|_F).
    p0, when given, is the cost matrix of a stabilizing gain; it is returned
    unchanged if it meets the contract and _smith certifies its closed loop
    A - B R^{-1} B' p0 Hurwitz, and is otherwise ignored.

    The solve runs once per connected component of the graph on states
    and inputs whose edges are the nonzeros of A, A', Q, B, R and p0: P is
    zero between components.  Each of the k components with states is
    accepted at TOL_RESIDUAL * (k^{-1/2} + |P_c|_F), which keeps the assembled
    P within the global contract.  A component without inputs doubles to its
    Lyapunov solution (squared Smith) when it is Hurwitz and is
    NonStabilizable otherwise; one without states adds nothing.

    When the doubling breaks down, its H does not stabilize (Q leaves an
    unstable or marginal mode unweighted) or its polish fails,
    Newton-Kleinman starts over from the cost matrix of
    stabilizing_gain(A, B), which raises NonStabilizable when (A, B) is not
    stabilizable.  Raises IterationDiverged when that iterate's gain is not
    stabilizing or the residual fails to contract within CARE_MAX_ITER
    iterates.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = symmetrize(q)
    r = symmetrize(r)
    n, m = b.shape
    if a.shape != (n, n) or q.shape != (n, n) or r.shape != (m, m):
        raise ValueError(
            f"inconsistent shapes: a {a.shape}, b {b.shape}, q {q.shape}, r {r.shape}"
        )
    ss = (a != 0) | (q != 0)
    if p0 is not None:
        p0 = symmetrize(p0)
        if p0.shape != (n, n):
            raise ValueError(f"inconsistent shapes: p0 {p0.shape}, a {a.shape}")
        ss |= p0 != 0
    adj = _bipartite(b != 0)
    adj[:n, :n] = ss | ss.T
    adj[n:, n:] = r != 0
    comps = _components(adj)
    if len(comps) == 1:  # the arrays as given: a copy can change GEMM's bits
        return _care_component(a, b, q, r, p0, 1.0)
    blocks = [(c[c < n], c[c >= n] - n) for c in comps if c[0] < n]
    floor = max(len(blocks), 1) ** -0.5
    p = np.zeros((n, n))
    for s, u in blocks:
        s2 = np.ix_(s, s)
        p[s2] = _care_component(a[s2], b[np.ix_(s, u)], q[s2], r[np.ix_(u, u)],
                                None if p0 is None else p0[s2], floor)
    return p


def _care_component(a, b, q, r, p0, floor):
    """solve_care on one component, accepted at residual
    TOL_RESIDUAL * (floor + |P|_F): p0 if it is accepted and its gain
    stabilizing, else the doubled P, polished when it is not.  When the
    doubling yields no stabilizing P or its polish fails, Newton-Kleinman
    starts over from the cost matrix of stabilizing_gain(a, b)."""
    if p0 is not None:
        ok, _, k = _accepted(a, b, q, r, p0, floor)
        if ok and _hurwitz(a - b @ k):
            return p0
    p = _doubling(a, b, q, r)
    if p is not None:
        try:
            return _newton_kleinman(a, b, q, r, p, floor)
        except IterationDiverged:
            pass
    k = stabilizing_gain(a, b)  # raises NonStabilizable
    try:
        p = solve_lyapunov(a - b @ k, q + k.T @ r @ k)
    except UnstableMatrix:
        raise NonStabilizable("Schur-method gain leaves A - B K unstable") from None
    return _newton_kleinman(a, b, q, r, p, floor)


def _accepted(a, b, q, r, p, floor):
    """(accepted, residual, K) of a Riccati iterate P: K = R^{-1} B' P and the
    residual P A + A' P + Q - P B K, accepted when its Frobenius norm is at
    most TOL_RESIDUAL * (floor + |P|_F)."""
    k = np.linalg.solve(r, b.T @ p)
    res = p @ a + a.T @ p + q - (p @ b) @ k
    ok = np.linalg.norm(res, "fro") <= TOL_RESIDUAL * (floor + np.linalg.norm(p, "fro"))
    return ok, res, k


def _doubling(a, b, q, r):
    """Stabilizing Riccati solution by the structure-preserving doubling
    algorithm (SDA; Chu, Fan & Lin 2005), or None when it breaks down.

    With G = B R^{-1} B', A_g = A - gamma I and V = A_g + G A_g^{-T} Q, the
    Cayley transform of the Hamiltonian starts E = I + 2 gamma V^{-1},
    G_0 = -2 gamma A_g^{-1} G V^{-T} and H = 2 gamma V^{-T} Q A_g^{-1}.  Each
    doubling, with W = I - G_k H, sets E <- E W^{-1} E, G_k <- G_k +
    E W^{-1} G_k E' and H <- H + E' H W^{-1} E; H converges quadratically
    to P, so the doublings stop once H moves by at most sqrt(eps) |H|_1.
    For a solution X, (I - G_k X)^{-1} E is the 2^k-th power of the Cayley
    transform (A_X - gamma I)^{-1} (A_X + gamma I) of A_X = A - G X, whose
    eigenvalues lie inside the unit disc exactly when A_X is Hurwitz; so H
    is returned only when W^{-1} E has 1-norm at most 1/2 at the stop.  It
    has not when Q leaves an unstable or marginal mode unweighted: H is zero
    in that direction from the start and stops moving at once.
    gamma > |A|_1 keeps A_g invertible, |A_g^{-1}|_1 <= 1 / (gamma - |A|_1),
    and V = A_g (I + A_g^{-1} G A_g^{-T} Q) with it, the second factor's
    eigenvalues being >= 1; the floor 0.1 sqrt(|G|_1 |Q|_1) sets the scale
    when A is small beside G and Q.  Breakdown (a singular W, a non-finite
    H, or CARE_MAX_ITER doublings) raises no floating-point warning.
    """
    n = a.shape[0]
    g = symmetrize(b @ np.linalg.solve(r, b.T))
    gamma = max(1.01 * np.linalg.norm(a, 1),
                0.1 * np.sqrt(np.linalg.norm(g, 1) * np.linalg.norm(q, 1))) or 1.0
    eye = np.eye(n)
    a_g = a - gamma * eye
    with np.errstate(all="ignore"):
        try:
            y = np.linalg.solve(a_g.T, q)  # A_g^{-T} Q
            v_inv = np.linalg.inv(a_g + g @ y)
            e = eye + 2.0 * gamma * v_inv
            g_k = symmetrize(-2.0 * gamma * np.linalg.solve(a_g, g @ v_inv.T))
            h = symmetrize(2.0 * gamma * (y @ v_inv).T)
            for _ in range(CARE_MAX_ITER):
                x = np.linalg.solve(eye - g_k @ h, np.hstack([e, g_k]))
                step = e.T @ (h @ x[:, :n])
                h = h + symmetrize(step)
                moved = np.linalg.norm(step, 1)
                if not np.isfinite(moved):
                    return None
                if moved <= np.sqrt(np.finfo(float).eps) * np.linalg.norm(h, 1):
                    return h if np.linalg.norm(x[:, :n], 1) <= 0.5 else None
                g_k = symmetrize(g_k + (e @ x[:, n:]) @ e.T)
                e = e @ x[:, :n]
        except np.linalg.LinAlgError:
            return None
    return None


def _newton_kleinman(a, b, q, r, p, floor):
    """Newton-Kleinman steps from the iterate p until it is accepted at
    residual TOL_RESIDUAL * (floor + |P|_F), in correction form: with
    K = R^{-1} B' P, the next iterate is P + X for (A - B K)' X +
    X (A - B K) + Res(P) = 0, with Res(P) the residual of _accepted, by
    solve_lyapunov, whose error is then relative to X rather than P.  In
    exact arithmetic P + X is Kleinman's iterate, the cost matrix of K."""
    best_res = np.inf
    for _ in range(CARE_MAX_ITER):
        ok, e, k = _accepted(a, b, q, r, p, floor)
        if ok:
            return p
        res = np.linalg.norm(e, "fro")
        if res < best_res:
            best_res = res
        elif res > 100.0 * best_res:
            raise IterationDiverged(f"Riccati residual diverging: {res:.3e}")
        try:
            p = symmetrize(p + solve_lyapunov(a - b @ k, e))
        except UnstableMatrix as exc:
            raise IterationDiverged(
                f"Newton-Kleinman gain lost stability: {exc}") from None
    raise IterationDiverged(
        f"Riccati residual {best_res:.3e} above tolerance after {CARE_MAX_ITER} iterations"
    )
