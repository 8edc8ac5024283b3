"""Dense symmetric linear-algebra kernels.

Continuous-time Riccati and Lyapunov solvers and an SVD pseudoinverse with
an explicit rank cutoff.  Controller synthesis, the suboptimality bounds, and
the learning-oracle checks are all built on these three operations.

A Lyapunov solve is Bartels-Stewart on one real Schur form (schur_factor),
which callers keep when several right-hand sides share a closed loop.  The
triangular equation is solved by recursive blocking (Jonsson & Kagstrom's
RECSY): LAPACK's dtrsyl on blocks of at most _LEAF rows, GEMM updates
between them, and only the upper off-diagonal blocks of the symmetric
solution.  The Riccati solver is Newton-Kleinman, each iterate one such
Lyapunov solve; it starts from the cost matrix of a given stabilizing gain or
from stabilizing_gain, whose ordered Schur form also decides stabilizability.

solve_care, schur_factor and pinv first split their input at the connected
components of its exact nonzero pattern (_components) and solve one block
per component: a decoupled problem's solution is block diagonal in the same
permutation, and the Schur forms cost a quarter as much for two equal
blocks.  Only an exactly zero entry separates two components; an input with
one component takes the dense path unchanged.

Conventions: symmetric matrices are plain float64 ndarrays, symmetrized as
(M + M.T)/2 at every operation boundary.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import dgees, dtrsyl
from .errors import IterationDiverged, NonStabilizable, UnstableMatrix

__all__ = [
    "symmetrize",
    "is_psd",
    "pinv",
    "SchurFactor",
    "schur_factor",
    "solve_lyapunov",
    "stabilizing_gain",
    "solve_care",
]

#: mixed absolute-relative residual tolerance of the matrix solvers
TOL_RESIDUAL = 1e-9

#: Newton-Kleinman iterates solve_care checks before giving up
CARE_MAX_ITER = 60

#: eigenvalues down to this value are accepted as numerically PSD
PSD_TOL = -1e-10

#: largest triangular block solved by one dtrsyl call.  48 and 64 were the
#: fastest of 32-128 at 256, 400 and 784 states on one BLAS thread; 64 keeps
#: every solve of up to 64 states, such as a 48-state formation, the same bits
#: as scipy's solver.
_LEAF = 64


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


@dataclass(frozen=True)
class SchurFactor:
    """Real Schur form a_s' = Z T Z' of a Hurwitz matrix a_s."""

    a_s: np.ndarray
    t: np.ndarray
    z: np.ndarray


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


def schur_factor(a_s):
    """Factor a Hurwitz a_s for solve_lyapunov, once for any number of W.

    The abscissa is the largest diagonal entry of T (LAPACK's standardized
    form puts the common real part of a complex pair on both diagonal
    entries of its 2x2 block).  Raises UnstableMatrix when a_s is not
    Hurwitz.

    One Schur form per connected component of a_s's nonzero pattern: T is
    the block diagonal of the T_c in component order, and Z scatters each
    Z_c to its component's rows.
    """
    a_s = np.asarray(a_s, dtype=float)
    if not np.isfinite(a_s).all():
        raise ValueError("schur_factor needs a finite matrix")
    nz = a_s != 0
    comps = _components(nz | nz.T)
    if len(comps) == 1:  # Fortran-ordered factors, the same bits as scipy's
        t, z, _ = _schur(a_s.T)
    else:
        n = a_s.shape[0]
        t, z = np.zeros((n, n)), np.zeros((n, n))
        i = 0
        for c in comps:
            t_c, z_c, _ = _schur(a_s[np.ix_(c, c)].T)
            t[i:i + c.size, i:i + c.size] = t_c
            z[c, i:i + c.size] = z_c
            i += c.size
    alpha = float(np.diag(t).max())
    if alpha >= 0.0:
        raise UnstableMatrix(f"spectral abscissa {alpha:.3e} >= 0")
    return SchurFactor(a_s, t, z)


def solve_lyapunov(a_s, w):
    """Solve a_s' V + V a_s + W = 0 for stable a_s and PSD W.

    a_s is the matrix or its schur_factor.  Bartels-Stewart: T Y + Y T' =
    Z'(-W)Z is solved by _lyap_tri, in solve_continuous_lyapunov's order, so
    up to _LEAF states V is bit-identical to it and to scipy's.

    Raises UnstableMatrix when a_s is not Hurwitz, IterationDiverged when the
    solve fails its residual contract.
    """
    f = a_s if isinstance(a_s, SchurFactor) else schur_factor(a_s)
    w = symmetrize(w)
    if f.a_s.shape != w.shape:
        raise ValueError(f"shape mismatch: a_s {f.a_s.shape} vs w {w.shape}")
    z = f.z
    y = z.T.dot(w.dot(z))
    np.negative(y, out=y)  # the same bits as Z'(-W)Z, without forming -W
    _lyap_tri(f.t, y)
    v = symmetrize(z.dot(y).dot(z.T))
    e = v @ f.a_s  # a_s' V is its transpose, since V is symmetric
    e += e.T
    e += w
    res = np.linalg.norm(e, "fro")
    if res > TOL_RESIDUAL * (1.0 + np.linalg.norm(v, "fro")) * 100.0:
        raise IterationDiverged(f"Lyapunov residual {res:.3e} out of contract")
    return v


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


def _split(t):
    """Middle index of a quasi-triangular t that cuts no 2x2 block."""
    k = t.shape[0] // 2
    return k + 1 if t[k, k - 1] != 0.0 else k


def _trsyl(t1, t2, c):
    """Overwrite c with X solving T1 X + X T2' = C by one dtrsyl call."""
    x, scale, info = dtrsyl(t1, t2, c, tranb="T")
    if info < 0:
        raise ValueError(f"dtrsyl: illegal value in argument {-info}")
    if scale < 1.0:
        raise IterationDiverged(
            f"dtrsyl scaled the right-hand side by {scale:.3e} to guard "
            "against overflow")
    c[...] = x


def _lyap_tri(t, c):
    """Overwrite c with Y solving T Y + Y T' = C.

    t is upper quasi-triangular and c symmetric.  Above _LEAF rows, with
    T = [T11 T12; 0 T22]: solve the trailing block Y22, then the Sylvester
    equation T11 Y12 + Y12 T22' = C12 - T12 Y22, then the leading block
    against C11 - T12 Y12' - Y12 T12'.  C21 is not read; Y21 = Y12'.
    """
    n = t.shape[0]
    if n <= _LEAF:
        _trsyl(t, t, c)
        return
    k = _split(t)
    t12 = t[:k, k:]
    _lyap_tri(t[k:, k:], c[k:, k:])
    c[:k, k:] -= t12 @ c[k:, k:]
    _sylv_tri(t[:k, :k], t[k:, k:], c[:k, k:])
    g = t12 @ c[:k, k:].T
    c[:k, :k] -= g
    c[:k, :k] -= g.T
    c[k:, :k] = c[:k, k:].T
    _lyap_tri(t[:k, :k], c[:k, :k])


def _sylv_tri(t1, t2, c):
    """Overwrite c with X solving T1 X + X T2' = C, both t quasi-triangular.

    Splits the larger side in two and solves the trailing half first.
    """
    m, n = c.shape
    if m <= _LEAF and n <= _LEAF:
        _trsyl(t1, t2, c)
    elif m >= n:
        k = _split(t1)
        _sylv_tri(t1[k:, k:], t2, c[k:])
        c[:k] -= t1[:k, k:] @ c[k:]
        _sylv_tri(t1[:k, :k], t2, c[:k])
    else:
        k = _split(t2)
        _sylv_tri(t1, t2[k:, k:], c[:, k:])
        c[:, :k] -= c[:, k:] @ t2[:k, k:].T
        _sylv_tri(t1, t2[:k, :k], c[:, :k])


def _residual(a, b, q, p, k):
    """Frobenius norm of P A + A' P + Q - P B K, K = R^{-1} B' P."""
    return float(np.linalg.norm(p @ a + a.T @ p + q - (p @ b) @ k, "fro"))


def stabilizing_gain(a, b):
    """Gain K with A - B K Hurwitz, by one ordered Schur form (Varga 1981).

    A = Z T Z', T = [T11 T12; 0 T22], with the eigenvalues of negative real
    part (schur_factor's Hurwitz test) in T11, so B2 = Z2' B alone drives the
    unstable and marginal modes in T22.  With beta = |T22|_F + 0.5, X solves
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


def _kleinman_step(a, b, q, r, k):
    """Cost matrix P of the stabilizing gain K: one Newton-Kleinman iterate.

    (A - B K)' P + P (A - B K) + Q + K' R K = 0, by solve_lyapunov: each
    iterate has a new closed loop, so no Schur factor is kept.  Raises
    UnstableMatrix when A - B K is not Hurwitz.
    """
    return solve_lyapunov(a - b @ k, q + k.T @ r @ k)


def solve_care(a, b, q, r, p0=None):
    """Stabilizing solution of A'P + PA + Q - P B R^{-1} B' P = 0.

    Newton-Kleinman iteration (Kleinman 1968): check the iterate P's
    residual, set K = R^{-1} B' P, and take the cost matrix of K as the next
    iterate.  Quadratically convergent with monotonically decreasing iterates.
    The first iterate is p0 when given, which must be the cost matrix of a
    stabilizing gain K0 (so (A - B K0)' p0 + p0 (A - B K0) + Q + K0' R K0
    = 0), and otherwise that of stabilizing_gain(A, B).  P is accepted at
    residual TOL_RESIDUAL * (1 + |P|_F).

    The iteration runs once per connected component of the graph on states
    and inputs whose edges are the nonzeros of A, A', Q, B, R and p0: P is
    zero between components.  Each of the k components with states starts
    from its block of p0 or its own stabilizing_gain, and is accepted
    at TOL_RESIDUAL * (k^{-1/2} + |P_c|_F), which keeps the assembled P
    within the global contract.  A component without inputs is a Lyapunov
    solve when it is Hurwitz and NonStabilizable otherwise; one without
    states adds nothing.

    Raises NonStabilizable when (A, B) is not stabilizable and
    IterationDiverged when an iterate's gain is not stabilizing or the
    residual fails to contract within CARE_MAX_ITER iterates.
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
        return _newton_kleinman(a, b, q, r, p0, 1.0)
    blocks = [(c[c < n], c[c >= n] - n) for c in comps if c[0] < n]
    floor = max(len(blocks), 1) ** -0.5
    p = np.zeros((n, n))
    for s, u in blocks:
        s2 = np.ix_(s, s)
        p[s2] = _newton_kleinman(a[s2], b[np.ix_(s, u)], q[s2], r[np.ix_(u, u)],
                                 None if p0 is None else p0[s2], floor)
    return p


def _newton_kleinman(a, b, q, r, p, floor):
    """solve_care's iteration on one component, accepted at residual
    TOL_RESIDUAL * (floor + |P|_F); p is the first iterate, or None for the
    cost matrix of stabilizing_gain(a, b)."""
    if p is None:
        try:
            p = _kleinman_step(a, b, q, r, stabilizing_gain(a, b))
        except UnstableMatrix:
            raise NonStabilizable(
                "Schur-method gain leaves A - B K unstable") from None

    best_res = np.inf
    for _ in range(CARE_MAX_ITER):
        k = np.linalg.solve(r, b.T @ p)
        res = _residual(a, b, q, p, k)
        if res <= TOL_RESIDUAL * (floor + np.linalg.norm(p, "fro")):
            return p
        if res < best_res:
            best_res = res
        elif res > 100.0 * best_res:
            raise IterationDiverged(f"Riccati residual diverging: {res:.3e}")
        try:
            p = _kleinman_step(a, b, q, r, k)
        except UnstableMatrix as exc:
            raise IterationDiverged(
                f"Newton-Kleinman gain lost stability: {exc}") from None
    raise IterationDiverged(
        f"Riccati residual {best_res:.3e} above tolerance after {CARE_MAX_ITER} iterations"
    )
