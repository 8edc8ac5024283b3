"""Hierarchical LQR synthesis and suboptimality reporting.

Pipeline: solve one Riccati equation per cluster (block-diagonal value matrix
scriptP), compute the coupling weight Rtilde = (scriptP B)^+ (G2 (x) Qtilde)
((scriptP B)^+)^T in closed form, and assemble the two-level gain
K_h = (R^{-1} + Rtilde) B^T scriptP.  The local term -R^{-1} B^T scriptP x
needs only in-cluster state; the global term routes through Rtilde, whose
block sparsity matches the inter-cluster adjacency, so non-adjacent clusters
never exchange state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HlqrError, UnstableClosedLoop, UnstableMatrix
from .graphcost import assemble_q, check_assumptions, cluster_costs, split_graph
from .matops import _pd, eigvalsh_max, pinv, solve_care, solve_lyapunov, symmetrize

__all__ = [
    "HierarchicalGain",
    "GapReport",
    "solve_clusters",
    "compute_rtilde",
    "assemble_gain",
    "hierarchical_gain",
    "gap_report",
]


@dataclass(frozen=True)
class HierarchicalGain:
    """Assembled two-level gain with its building blocks.

    k_h = k_local + k_global where k_local = R^{-1} bt_p and
    k_global = r_tilde bt_p; bt_p is B^T scriptP in the original agent
    ordering and p_blocks are the per-cluster value matrices.  agent_m, the
    input count per agent, is read off k_h's shape.
    """

    p_blocks: list
    r_tilde: np.ndarray
    k_local: np.ndarray
    k_global: np.ndarray
    k_h: np.ndarray
    bt_p: np.ndarray
    dec: object

    @property
    def agent_m(self):
        return self.k_h.shape[0] // self.dec.n_agents


def solve_clusters(mas, spec, dec):
    """Per-cluster Riccati solutions.

    Returns (p_blocks, pb_blocks) where p_blocks[j] solves the cluster
    Riccati equation for (A_j, B_j, Qhat_j, Rhat_j) and pb_blocks[j] is
    scriptP_j B_j (the only cluster quantity the coupling stage needs).

    A cluster whose solve fails raises the same HlqrError type, its message
    naming the cluster, its agents and the stabilizable and detectable
    verdicts of check_assumptions, which runs only then.
    """
    costs = cluster_costs(spec, dec)
    p_blocks, pb_blocks = [], []
    for j in range(dec.s):
        a_j, b_j = mas.cluster(dec, j)
        qhat_j, rhat_j = costs[j]
        try:
            p_j = solve_care(a_j, b_j, qhat_j, rhat_j)
        except HlqrError as exc:
            check = check_assumptions(mas, spec, dec)
            raise type(exc)(check.explain(dec, j, exc)) from exc
        p_blocks.append(p_j)
        pb_blocks.append(p_j @ b_j)
    return p_blocks, pb_blocks


def compute_rtilde(pb_blocks, spec, dec):
    """Minimum-norm PSD coupling weight Rtilde.

    Rtilde = Xi (G2 (x) Qtilde) Xi^T with G2 the inter-cluster Laplacian of
    split_graph and Xi the block-diagonal (per cluster) scatter of
    (scriptP_j B_j)^+ into the original agent ordering.  Because G2 carries
    zero blocks between non-adjacent clusters and Xi is cluster-block-diagonal,
    the same blocks of Rtilde are exactly zero.
    """
    n, m = spec.n, spec.m
    sizes = dec.sizes()
    for j, pb_j in enumerate(pb_blocks):
        want = (n * sizes[j], m * sizes[j])
        if pb_j.shape != want:
            raise DimensionMismatch(
                f"cluster {j}: scriptP_j B_j shape {pb_j.shape} != {want}")
    xi = dec.scatter([pinv(pb_j) for pb_j in pb_blocks], m, n)
    g2q = np.kron(split_graph(spec.graph, dec).g2, spec.qtilde)
    return symmetrize(xi @ g2q @ xi.T)


def assemble_gain(p_blocks, pb_blocks, r_tilde, spec, dec):
    """Assemble the hierarchical gain from cluster solutions and Rtilde."""
    n, m = spec.n, spec.m
    bt_p = dec.scatter([pb_j.T for pb_j in pb_blocks], m, n)
    k_local = np.linalg.solve(spec.r, bt_p)
    k_global = r_tilde @ bt_p
    return HierarchicalGain(
        p_blocks=list(p_blocks),
        r_tilde=r_tilde,
        k_local=k_local,
        k_global=k_global,
        k_h=k_local + k_global,
        bt_p=bt_p,
        dec=dec,
    )


def hierarchical_gain(mas, spec, dec):
    """One-call synthesis: cluster solves, coupling weight, assembly."""
    p_blocks, pb_blocks = solve_clusters(mas, spec, dec)
    r_tilde = compute_rtilde(pb_blocks, spec, dec)
    return assemble_gain(p_blocks, pb_blocks, r_tilde, spec, dec)


@dataclass(frozen=True)
class GapReport:
    """Optimal-vs-hierarchical cost comparison for one instance.

    j_opt, j_h and j_approx are expected costs over initial states with
    covariance I: the traces of P_opt, of U and of scriptP, the last summed
    from the cluster blocks' diagonals without forming scriptP.
    j_approx <= j_opt <= j_h holds up to the Riccati residual tolerance.
    When the decomposition leaves no gap (one cluster) the three costs
    coincide to rounding: U then meets the Riccati residual contract, so
    solve_care returns it as P_opt and j_opt == j_h, and j_approx, from the
    cluster solve of the same equation, may sit an ulp above them.
    sop = delta_j / j_opt is the relative suboptimality, and sop_hi =
    (j_h - j_approx) / j_approx its upper bound that needs no P_opt (0.0
    when the denominator is not positive).
    expected_gap = sigma^2 tr(V) is the mean excess cost over random
    initial states with covariance
    sigma^2 I; f1 + f2 upper-bound tr(W) with W = (k_h - k_opt)' R
    (k_h - k_opt) (vacuous=True when B has no nonzero singular value, or
    Qbar or scriptP is not PD, in which case the bound divides by zero and is
    skipped).  cond_p is lambda_max/lambda_min of scriptP, +inf when
    lambda_min <= n eps lambda_max.

    No spectrum is taken of a dense block-diagonal matrix.  lambda(scriptP)
    comes from the per-cluster gain.p_blocks; sigma(B), lambda(Qbar),
    lambda(R) and tr(B R^{-1} B') from the per-agent blocks of mas.agents,
    spec.qbar_blocks and spec.r_blocks, with the smallest nonzero sigma(B)
    cut at max(B.shape) eps sigma_max of the whole B; lambda_max(P_opt)
    by matops.eigvalsh_max, per connected component of P_opt's nonzeros.
    Only their rounding differs from the dense spectra's.

    V = U - P_opt exactly, with U the cost matrix of k_h: B' P_opt = R k_opt
    turns the Riccati equation into a_s' P_opt + P_opt a_s + Q + k_h' R k_h
    = W for a_s = A - B k_h, and subtracting it from U's Lyapunov equation
    leaves a_s' V + V a_s + W = 0.  So trace_v equals delta_j, and its
    accuracy is that of delta_j, set by the Riccati residual
    tolerance (6e-10 relative at 100 agents, where solving for V directly
    gave 2e-11).  For a gap-free decomposition it is rounding noise and may
    be slightly negative.
    """

    j_opt: float
    j_h: float
    j_approx: float
    delta_j: float
    expected_gap: float
    f1: float
    f2: float
    cond_p: float
    trace_g2: float
    sop: float
    sop_hi: float
    trace_v: float
    trace_w: float
    trace_v_bound: float
    vacuous: bool


def _cond(lam):
    """lam[-1] / lam[0] of ascending eigenvalues, +inf if lam[0] <= n eps lam[-1]."""
    return float(lam[-1] / lam[0]) if _pd(lam) else float("inf")


def gap_report(mas, spec, dec, gain, sigma=1.0):
    """Quantify the suboptimality of a hierarchical gain.

    Returns (report, p_opt, u): the GapReport, the centralized Riccati
    solution P_opt and the cost matrix U of k_h.  The j_* fields are
    expected costs over x0 with covariance I, the traces of P_opt, U and
    scriptP; the cost from one x0 is x0' X x0 with X one of the returned
    matrices or scriptP.  Raises UnstableClosedLoop when either closed loop
    is not Hurwitz.

    U is solved on the hierarchical closed loop a_s = A - B k_h and
    warm-starts solve_care as p0: each component of P_opt is U's block when
    that block meets the component's residual contract and its gain is
    stabilizing, as for a gap-free decomposition, and is otherwise solved
    from scratch.
    """
    a, b = mas.a_full, mas.b_full
    q = assemble_q(spec)
    r = spec.r

    k_h = gain.k_h
    try:
        u = solve_lyapunov(a - b @ k_h, q + k_h.T @ r @ k_h)
    except UnstableMatrix as exc:
        raise UnstableClosedLoop(
            "hierarchical closed loop is not Hurwitz") from exc
    p_opt = solve_care(a, b, q, r, p0=u)
    k_opt = np.linalg.solve(r, b.T @ p_opt)

    dk = k_h - k_opt
    trace_w = float(np.sum(dk * (r @ dk)))
    trace_v = float(np.trace(u - p_opt))

    j_opt = float(np.trace(p_opt))
    j_h = float(np.trace(u))
    # tr(scriptP) from the cluster blocks, its diagonal summed in agent
    # order, the order np.trace of the scattered scriptP sums it in
    n = spec.n
    diag_p = np.empty(n * dec.n_agents)
    for j, p_j in enumerate(gain.p_blocks):
        diag_p[dec.state_indices(j, n)] = np.diagonal(p_j)
    j_approx = float(diag_p.sum())

    split = split_graph(spec.graph, dec)
    trace_g2 = float(np.trace(split.g2))

    # each spectrum from its blocks, as GapReport says
    lam_p = np.sort(np.concatenate([np.linalg.eigvalsh(p_j) for p_j in gain.p_blocks]))
    lam_min_p, lam_max_p = float(lam_p[0]), float(lam_p[-1])
    cond_p = _cond(lam_p)
    b_blocks = np.stack([b_u for _, b_u in mas.agents])
    sv_b = np.linalg.svd(b_blocks, compute_uv=False)
    sig_max_b = float(sv_b.max())
    nonzero = sv_b[sv_b > max(b.shape) * np.finfo(float).eps * sig_max_b]
    sigma_l_b = float(nonzero.min()) if nonzero.size else 0.0
    lam_min_qbar = float(np.linalg.eigvalsh(symmetrize(np.stack(spec.qbar_blocks))).min())

    vacuous = sigma_l_b <= 0.0 or lam_min_qbar <= 0.0 or lam_min_p <= 0.0
    if vacuous:
        f1 = f2 = trace_v_bound = float("nan")
    else:
        r_blocks = np.stack(spec.r_blocks)
        tr_brb = float(np.einsum(  # tr(B R^{-1} B'), agent by agent
            "uij,uji->", b_blocks, np.linalg.solve(r_blocks, b_blocks.swapaxes(1, 2))))
        lam_max_opt = eigvalsh_max(p_opt)
        tr_g2q = trace_g2 * float(np.trace(spec.qtilde))
        denom = lam_min_p ** 2 * sigma_l_b ** 2
        f1 = tr_g2q ** 2 * float(np.linalg.eigvalsh(r_blocks).max()) / denom
        f2 = (lam_max_opt - lam_min_p) * (tr_brb + sig_max_b ** 2 * tr_g2q / denom)
        trace_v_bound = lam_max_p * cond_p * (f1 + f2) / lam_min_qbar

    delta_j = j_h - j_opt
    report = GapReport(
        j_opt=j_opt,
        j_h=j_h,
        j_approx=j_approx,
        delta_j=delta_j,
        expected_gap=float(sigma ** 2 * trace_v),
        f1=f1,
        f2=f2,
        cond_p=cond_p,
        trace_g2=trace_g2,
        sop=delta_j / j_opt if j_opt > 0 else 0.0,
        sop_hi=(j_h - j_approx) / j_approx if j_approx > 0 else 0.0,
        trace_v=trace_v,
        trace_w=trace_w,
        trace_v_bound=trace_v_bound,
        vacuous=vacuous,
    )
    return report, p_opt, u
