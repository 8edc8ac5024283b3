"""Reference solvers that the library's faster paths are checked against.

svd_pinv is matops.pinv without the split at connected components: one SVD
of the whole matrix.

The policy-iteration oracles build the full joint regressor of every pass
and solve it from scratch, by one Householder QR (equilibrated_lstsq) or by
SVD (lstsq_svd_oracle).  adp.policy_iteration factors the pass-invariant
delta_xx block once per dataset instead, and must agree with both.
"""

import numpy as np
import scipy.linalg

from hlqr.adp import LearnResult, unsvec
from hlqr.errors import NoConvergence, RankDeficient


def regressor(data, k, qk):
    """(A, rhs) of the joint least-squares system at policy gain k."""
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
    """adp.policy_iteration's loop on the full regressor of every pass.

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
                               iterations=it, converged=True)
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
