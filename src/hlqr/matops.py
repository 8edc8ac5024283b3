"""Dense symmetric linear-algebra kernels.

Continuous-time Riccati and Lyapunov solvers and an SVD pseudoinverse with
an explicit rank cutoff.  Controller synthesis, the suboptimality bounds, and
the learning-oracle checks are all built on these three operations.

Both solvers run one doubling loop (_doubling), with no Schur form.  Each
matrix it divides by is factored once, by LU, inverted from its factors by
LAPACK (_inv) and applied by GEMM.  A Riccati solve is the
structure-preserving doubling algorithm, one inverse and eight GEMMs per
doubling; a doubled solution that misses the residual contract is polished
by Newton-Kleinman steps in correction form, each one Lyapunov solve.  A
Lyapunov solve is squared Smith, the same loop without the input term,
three GEMMs per doubling and one inverse in all, whose last power of the
Cayley transform also certifies the matrix Hurwitz (_hurwitz, which
sim.initial_gains asks too).  A Riccati solve raises when the doubling
breaks down or does not stabilize, or a polish step's gain is not Hurwitz,
as happens outside the standing assumptions of a stabilizable (A, B) and a
detectable (Q^{1/2}, A).  stabilizable decides the first for
graphcost.check_assumptions by the same Riccati solve with Q = I and R = I,
so the doubling's certificate, with the margin CARE_MAX_ITER sets, is the
library's one test of a Hurwitz matrix and of a stabilizing solution.

solve_care, solve_lyapunov, pinv and eigvalsh_max first split their input
at the connected components of its exact nonzero pattern (_components) and
solve one block per component: a decoupled problem's solution is block
diagonal in the same permutation, and the factorizations and doublings of
two blocks of half the size cost a quarter as much.  Only an exactly zero
entry separates two components.  _solve_once decides which blocks are
solved: components whose input blocks are equal bit for bit share one solve,
which gives the bits a solve of each would: example1 and five_node have the
same dynamics and weights on both axes, so their two blocks are one solve;
formation's axes differ.  Each Riccati and Lyapunov component is checked
and corrected on its own block, against a share of the global residual
contract.

Conventions: symmetric matrices are plain float64 ndarrays, symmetrized as
(M + M.T)/2 at every operation boundary.
"""

import numpy as np

from ._lapack import dgetrf, dgetri, dgetri_lwork
from .errors import IterationDiverged, NonStabilizable, UnstableMatrix

__all__ = [
    "symmetrize",
    "pinv",
    "eigvalsh_max",
    "solve_lyapunov",
    "stabilizable",
    "solve_care",
]

#: mixed absolute-relative residual tolerance of the matrix solvers
TOL_RESIDUAL = 1e-9

#: doublings (of the Riccati or the squared-Smith Lyapunov iteration), and
#: then Newton-Kleinman polishing steps, taken on one component before
#: giving up.  The cap sets the certificate's margin (_doubling), in units
#: of the doubling's shift gamma >= 1.01 |A|_1: a certified matrix has
#: abscissa at most -(1 - 4^(-2^(1 - CARE_MAX_ITER))) gamma / 4, about
#: -gamma ln 2 / 2^CARE_MAX_ITER = -2.6e-9 gamma, so a marginal mode is
#: refused, and a normal one with abscissa at most about
#: -gamma ln(eps^(-1/2)) / 2^CARE_MAX_ITER = -6.7e-8 gamma is always
#: accepted.  At 24, solve_lyapunov refuses some of the Hurwitz matrices
#: that TestSolveLyapunov checks against scipy; at 60, rounding's stable
#: eigenvalues near 0 get certified (diag(0, -1, -2) in half of 200 dense
#: bases).
CARE_MAX_ITER = 28

#: least eigenvalue accepted as PSD (graphcost scales it by max(1, the largest))
PSD_TOL = -1e-10


def symmetrize(m):
    """Return the symmetric part (m + m')/2 as a float64 array, of a square
    matrix or of each matrix in a stack of them."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return (m + m.swapaxes(-1, -2)) / 2.0


def _pd(w):
    """True when w, the ascending eigenvalues of a symmetric matrix, show it
    PD to rounding: w[0] > n eps w[-1]."""
    return bool(w[0] > w.size * np.finfo(float).eps * w[-1])


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


def _solve_once(comps, blocks, solve):
    """[solve(*blocks(*comp)) for comp in comps], each set of components
    whose input blocks are equal bit for bit solved once and its answer
    shared: a solve of equal blocks gives the same bits.  comps lists the
    components, each a tuple of index arrays, and blocks(*comp) returns a
    component's input blocks, C-ordered float64 arrays.  A component is
    compared only with the first one of its shapes and XOR of each block's
    bit patterns, as uint64 patterns (so 0.0 and -0.0 differ), whose blocks
    are extracted again for that; no block is kept past its solve."""
    answers, first = [], {}
    for k, comp in enumerate(comps):
        mine = blocks(*comp)
        key = tuple((x.shape, int(np.bitwise_xor.reduce(x.view(np.uint64), axis=None)))
                    for x in mine)
        t = first.setdefault(key, k)
        if t < k and all(np.array_equal(x.view(np.uint64), y.view(np.uint64))
                         for x, y in zip(mine, blocks(*comps[t]))):
            answers.append(answers[t])
        else:
            answers.append(solve(*mine))
    return answers


def _block(x, i, j):
    """x[np.ix_(i, j)], as a C-ordered copy with the same bits, by two takes:
    about twice as fast on example1's interleaved axes."""
    return x.take(i, 0).take(j, 1)


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
    connected component of the row/column nonzero pattern, each set of
    bit-equal blocks once (_solve_once), all cut off at the global
    sigma_max, so the blocks of the result between components are exactly
    zero.
    """
    m = np.asarray(m, dtype=float)
    rows = m.shape[0]
    comps = [(c[c < rows], c[c >= rows] - rows) for c in _components(_bipartite(m != 0))]
    comps = [(i, j) for i, j in comps if i.size and j.size]  # a zero row or column maps to zero
    svds = _solve_once(comps, lambda i, j: (_block(m, i, j),),
                       lambda x: np.linalg.svd(x, full_matrices=False))
    s_max = max((s[0] for _, s, _ in svds), default=0.0)
    tol = max(m.shape) * np.finfo(float).eps * s_max
    out = np.zeros(m.shape[::-1])
    for (i, j), (u, s, vt) in zip(comps, svds):
        s_inv = np.where(s > tol, np.divide(1.0, s, out=np.zeros_like(s), where=s > tol), 0.0)
        out[np.ix_(j, i)] = (vt.T * s_inv) @ u.T
    return out


def eigvalsh_max(m):
    """Largest eigenvalue of a nonempty symmetric matrix: the largest of one
    eigvalsh per connected component of its nonzero pattern, each set of
    bit-equal blocks once (_solve_once)."""
    m = np.asarray(m, dtype=float)
    nz = m != 0
    comps = [(c,) for c in _components(nz | nz.T)]
    return max(_solve_once(comps, lambda c: (_block(m, c, c),),
                           lambda x: float(np.linalg.eigvalsh(x)[-1])))


def solve_lyapunov(a_s, w):
    """Solve a_s' V + V a_s + W = 0 for Hurwitz a_s and symmetric W.

    One _lyapunov_component per connected component of the graph whose
    edges are the nonzeros of a_s, a_s' and W, each set of bit-equal blocks
    once (_solve_once), so V is exactly zero between components.  Each of
    the k components is accepted at 100 TOL_RESIDUAL (k^{-1/2} + |V_c|_F)
    on its own block; the residual is zero between components, so the
    assembled V meets 100 TOL_RESIDUAL (1 + |V|_F).

    Raises UnstableMatrix when a_s is not certified Hurwitz,
    IterationDiverged when a corrected component still fails its contract.
    """
    a_s = np.asarray(a_s, dtype=float)
    w = symmetrize(w)
    if a_s.shape != w.shape:
        raise ValueError(f"shape mismatch: a_s {a_s.shape} vs w {w.shape}")
    if not (np.isfinite(a_s).all() and np.isfinite(w).all()):
        raise ValueError("solve_lyapunov needs finite matrices")
    nz = (a_s != 0) | (w != 0)
    comps = [(c,) for c in _components(nz | nz.T)]
    floor = max(len(comps), 1) ** -0.5
    v = np.zeros(a_s.shape)
    for (c,), v_c in zip(comps, _solve_once(
            comps, lambda c: (_block(a_s, c, c), _block(w, c, c)),
            lambda a_c, w_c: _lyapunov_component(a_c, w_c, floor))):
        v[np.ix_(c, c)] = v_c
    return v


def solve_continuous_lyapunov(a, q):
    """X solving A X + X A' = Q for anti-Hurwitz A and symmetric Q:
    solve_lyapunov(-A', Q), with its contract and exceptions.  Nothing in
    hlqr calls it.  It stays, by this name, because the benchmark harness
    (perfbench/spans.py) wraps it and counts its calls; it goes in the
    benchmark revision that stops doing so."""
    return solve_lyapunov(-np.asarray(a, dtype=float).T, q)


def stabilizable(a, b):
    """True when (A, B) is stabilizable: when the Riccati equation with
    Q = I and R = I has a stabilizing solution P, which is then PD.

    A and B, whose positive scale does not change the verdict, are taken at
    unit Frobenius norm, and P is solved as solve_care solves one component
    (_care_component): doubled and certified to the margin CARE_MAX_ITER
    sets, then polished by Newton-Kleinman steps, whose gains are certified
    Hurwitz too, when it misses the residual contract.  The polish is part
    of the verdict, since the doubling can stop short of the fixed point
    with a certificate: for a zero mode that B reaches only through
    rounding, diag(0, -1, -2) in a dense basis, its closed loop was at
    +1.6e-8.  P must also be PD to rounding (_pd), as a stabilizing P with
    Q = I is: the doubled P of an unstable mode that B reaches only through
    rounding came out indefinite.  Never raises.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a = a / (np.linalg.norm(a) or 1.0)
    b = b / (np.linalg.norm(b) or 1.0)
    try:
        p = _care_component(a, b, np.eye(a.shape[0]), np.eye(b.shape[1]))
    except (NonStabilizable, IterationDiverged):
        return False
    return _pd(np.linalg.eigvalsh(p))


def solve_care(a, b, q, r, p0=None):
    """Stabilizing solution of A'P + PA + Q - P B R^{-1} B' P = 0.

    The structure-preserving doubling algorithm (_doubling), polished by
    Newton-Kleinman steps (Kleinman 1968), one Lyapunov solve each, when
    the doubled P misses the residual contract TOL_RESIDUAL * (1 + |P|_F).

    The solve runs once per connected component of the graph on states
    and inputs whose edges are the nonzeros of A, A', Q, B and R, each set
    of bit-equal blocks once (_solve_once): P is zero between components.
    Each of the k components with states is accepted at TOL_RESIDUAL *
    (k^{-1/2} + |P_c|_F), which keeps the assembled P within the global
    contract.  A component without inputs, G = 0, yields its Lyapunov
    solution when it is Hurwitz and is NonStabilizable otherwise; one
    without states adds nothing.  p0, when given, only warm-starts: it is
    the cost matrix of a stabilizing gain, and a component's block of it is
    returned unchanged if it meets the component's contract and squared
    Smith certifies its closed loop A - B R^{-1} B' p0 Hurwitz, and is
    otherwise ignored.

    Raises NonStabilizable when the doubling breaks down or its H does not
    stabilize, as when (A, B) is not stabilizable or Q leaves an unstable
    or marginal mode unweighted, and when a polish step's gain is not
    Hurwitz; IterationDiverged when the polish residual diverges or fails
    to contract within CARE_MAX_ITER iterates.
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
    adj = _bipartite(b != 0)
    adj[:n, :n] = ss | ss.T
    adj[n:, n:] = r != 0
    comps = [(c[c < n], c[c >= n] - n) for c in _components(adj) if c[0] < n]
    floor = max(len(comps), 1) ** -0.5

    def inputs(s, u):  # (A, B, Q, R), and p0 when given
        return (_block(a, s, s), _block(b, s, u), _block(q, s, s), _block(r, u, u),
                *(() if p0 is None else (_block(p0, s, s),)))

    p = np.zeros((n, n))
    for (s, _), p_c in zip(comps, _solve_once(
            comps, inputs, lambda *x: _care_component(*x, floor=floor))):
        p[np.ix_(s, s)] = p_c
    return p


def _care_component(a, b, q, r, p0=None, floor=1.0):
    """solve_care on one component, accepted at residual
    TOL_RESIDUAL * (floor + |P|_F): p0 if it is accepted and its gain
    stabilizing, else the doubled P, polished when it is not."""
    if p0 is not None:
        ok, _, k = _accepted(a, b, q, r, p0, floor)
        if ok and _hurwitz(a - b @ k):
            return p0
    p = _doubling(a, symmetrize(b @ np.linalg.solve(r, b.T)), q)
    if p is None:
        raise NonStabilizable(f"{a.shape[0]}-state block: doubling found no stabilizing P")
    return _newton_kleinman(a, b, q, r, p, floor)


def _lyapunov_component(a_s, w, floor=1.0):
    """solve_lyapunov on one component, accepted at residual
    100 TOL_RESIDUAL (floor + |V|_F): squared Smith (_doubling with
    G = None), and when V misses that, one defect-correction step V += D
    with a_s' D + D a_s + Res(V) = 0, Res(V) = a_s' V + V a_s + W."""
    v, e = np.zeros(a_s.shape), w
    for _ in range(2):  # the solve, then at most one correction
        h = _doubling(a_s, None, e)  # squared Smith
        if h is None:
            raise UnstableMatrix(f"{a_s.shape[0]}-state block not certified Hurwitz")
        v += h
        e = v @ a_s  # a_s' V is its transpose, since V is symmetric
        e += e.T
        e += w
        res = np.linalg.norm(e, "fro")
        if res <= TOL_RESIDUAL * (floor + np.linalg.norm(v, "fro")) * 100.0:
            return v
    raise IterationDiverged(f"Lyapunov residual {res:.3e} out of contract")


def _accepted(a, b, q, r, p, floor):
    """(accepted, residual, K) of a Riccati iterate P: K = R^{-1} B' P and the
    residual P A + A' P + Q - P B K, accepted when its Frobenius norm is at
    most TOL_RESIDUAL * (floor + |P|_F)."""
    k = np.linalg.solve(r, b.T @ p)
    res = p @ a + a.T @ p + q - (p @ b) @ k
    ok = np.linalg.norm(res, "fro") <= TOL_RESIDUAL * (floor + np.linalg.norm(p, "fro"))
    return ok, res, k


def _hurwitz(a):
    """Whether squared Smith (_doubling with Q = 0) certifies A Hurwitz."""
    return _doubling(a, None, np.zeros(a.shape)) is not None


def _doubling(a, g, q):
    """Stabilizing solution X of A'X + XA + Q - X G X = 0 by doubling, or
    None when the doubling breaks down or cannot certify X.  With
    G = B R^{-1} B' this is the structure-preserving doubling algorithm for
    a Riccati equation (SDA; Chu, Fan & Lin 2005); G None is squared Smith
    for the Lyapunov equation A'X + XA + Q = 0 (Smith 1968), three GEMMs
    per doubling and no solve.

    With A_g = A - gamma I and V = A_g + G A_g^{-T} Q (V = A_g for G None),
    the Cayley transform of the Hamiltonian starts E = I + 2 gamma V^{-1},
    G_0 = -2 gamma A_g^{-1} G V^{-T} and H = 2 gamma V^{-T} Q A_g^{-1}.  Each
    doubling, with W = I - G_k H (W = I for G None), sets E <- E W^{-1} E,
    G_k <- G_k + E W^{-1} G_k E' and H <- H + E' H W^{-1} E.  H converges
    quadratically to X and has stopped once a doubling moves it by at most
    sqrt(eps) |H|_1.

    Each of A_g, V and W is inverted once (_inv) and its inverse applied by
    GEMM: A_g^{-1} gives both A_g^{-T} Q and the G_0 term, and W^{-1} gives
    W^{-1} E and W^{-1} G_k, so a doubling takes one inverse and eight
    GEMMs.

    (I - G_k X)^{-1} E is the 2^k-th power of the Cayley transform
    (A_X - gamma I)^{-1} (A_X + gamma I) of A_X = A - G X, whose eigenvalues
    lie inside the unit disc exactly when A_X is Hurwitz.  After k
    doublings, |W^{-1} E|_1 <= 1/2 bounds each of them in modulus by
    2^(-2^-k), and H is returned only at a stop where that holds.  For
    G None, E is that power whatever H is, so the doublings go on until it
    holds (a non-normal E can fall below 1/2 well after H has stopped).
    With a G, even a zero one, W^{-1} E is that power only at the fixed
    point, so the first stop without it returns None.  That happens when Q
    leaves an unstable or marginal mode unweighted: H is zero in that
    direction from the start and stops moving at once.

    The margin follows from the two stop rules and the cap.  A Cayley image
    mu of an eigenvalue lambda = x + iy of A_X has |mu|^2 =
    ((gamma + x)^2 + y^2) / ((gamma - x)^2 + y^2), so |mu| < 1 needs x < 0,
    and then (gamma - x)^2 + y^2 >= gamma^2.  The norm rule at k <
    CARE_MAX_ITER doublings gives |mu|^2 <= 4^(-2^-k), so it proves
    x <= -(1 - 4^(-2^-k)) gamma / 4, at worst about
    -gamma ln 2 / 2^CARE_MAX_ITER.  The move rule bounds what is accepted:
    for a normal A_X with spectral radius rho of the Cayley image, the
    doubling after k moves H by about rho^(2^(k+1)) |H|, so H stops within
    the cap once rho^(2^CARE_MAX_ITER) <= sqrt(eps), and |W^{-1} E|_1 is
    then about eps^(1/4), far below 1/2.  As rho <= exp(-|x| / (gamma + |x|))
    when |lambda| <= gamma (exp(-2 |x| / gamma) when lambda is real), an
    abscissa of at most -gamma ln(eps^(-1/2)) / 2^CARE_MAX_ITER, up to the
    log of a factor n from the norms, is certified (half that when the
    slowest modes are real).  The proof holds for G None as it stands, and
    with a G at the fixed point, which solve_care's residual contract and
    polish make sure of.

    gamma > |A|_1 keeps A_g invertible, |A_g^{-1}|_1 <= 1 / (gamma - |A|_1),
    and V = A_g (I + A_g^{-1} G A_g^{-T} Q) with it, the second factor's
    eigenvalues being >= 1; the floor 0.1 sqrt(|G|_1 |Q|_1) sets the scale
    when A is small beside G and Q.  Breakdown (a singular A_g, V or W, a
    non-finite H, or CARE_MAX_ITER doublings) raises no floating-point
    warning.
    """
    n = a.shape[0]
    eye = np.eye(n)
    with np.errstate(all="ignore"):
        gamma = 1.01 * np.linalg.norm(a, 1)
        if g is not None:
            gamma = max(gamma, 0.1 * np.sqrt(np.linalg.norm(g, 1) * np.linalg.norm(q, 1)))
        gamma = gamma or 1.0
        a_g = a - gamma * eye
        try:
            a_g_inv = _inv(a_g)
            y = a_g_inv.T @ q  # A_g^{-T} Q
            v_inv = a_g_inv if g is None else _inv(a_g + g @ y)
            e = eye + 2.0 * gamma * v_inv
            h = symmetrize(2.0 * gamma * (y @ v_inv).T)
            if g is not None:
                g_k = symmetrize(-2.0 * gamma * (a_g_inv @ (g @ v_inv.T)))
            del a_g, a_g_inv, y, v_inv  # not needed by the doublings
            for _ in range(CARE_MAX_ITER):
                if g is not None:
                    w_inv = _inv(eye - g_k @ h)
                w_e = e if g is None else w_inv @ e  # W^{-1} E
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
                    g_k = symmetrize(g_k + (e @ (w_inv @ g_k)) @ e.T)
                e = e @ w_e
        except np.linalg.LinAlgError:
            return None
    return None


def _inv(m):
    """Inverse of a square matrix by one LU factorization, LAPACK dgetrf,
    inverted in place by dgetri, so that applying it is a GEMM: on 100- to
    800-state matrices, one-threaded scipy-openblas 0.3.31 on an AVX-512
    Xeon ran the triangular solves (dgetrs) at about a quarter of GEMM's
    rate.  Raises LinAlgError when the matrix is exactly singular."""
    if not m.size:  # LAPACK rejects an empty matrix
        return np.zeros(m.shape)
    lu, piv, info = dgetrf(m)
    if info == 0:
        lwork = int(dgetri_lwork(m.shape[0])[0])
        inv, info = dgetri(lu, piv, lwork=lwork, overwrite_lu=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix (LAPACK info {info})")
    return inv


def _newton_kleinman(a, b, q, r, p, floor):
    """Newton-Kleinman steps from the iterate p until it is accepted at
    residual TOL_RESIDUAL * (floor + |P|_F), in correction form: with
    K = R^{-1} B' P, the next iterate is P + X for (A - B K)' X +
    X (A - B K) + Res(P) = 0, with Res(P) the residual of _accepted, by
    solve_lyapunov, whose error is then relative to X rather than P.  In
    exact arithmetic P + X is Kleinman's iterate, the cost matrix of K.
    Raises NonStabilizable when a step's gain is not certified Hurwitz, as
    then the doubled P was not stabilizing; IterationDiverged when the
    residual diverges or stalls."""
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
        except UnstableMatrix:
            raise NonStabilizable(f"{a.shape[0]}-state block: doubled P not stabilizing, "
                                  f"Newton-Kleinman gain not Hurwitz") from None
    raise IterationDiverged(
        f"Riccati residual {best_res:.3e} above tolerance after {CARE_MAX_ITER} iterations"
    )
