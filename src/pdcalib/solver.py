"""6-DOF pose estimation from correspondences by the closed-form rigid fit.

The pose minimizes sum_i ||F_i||^2 with ``F_i(beta) = p_O,i - (R(phi,
theta, psi) @ p_L,i + T)`` over beta = (phi, theta, psi, dx, dy, dz). This
unweighted point-to-point registration has an exact minimizer (Arun, Huang &
Blostein, IEEE TPAMI 1987): with the centered cross-covariance ``H = sum
(p_L - c_L)(p_O - c_O)^T = U S V^T``, ``R = V diag(1, 1, d) U^T`` and
``T = c_O - R c_L``, where ``d = sign(det(V U^T))`` rules out a reflection
(Umeyama, IEEE TPAMI 1991). No iteration can lower the cost further.

``solve_groups`` fits many correspondence sets at once: the cross-covariances
are summed per block of rows with ``np.add.reduceat`` and one
``np.linalg.svd`` call factors the stack. ``solve`` is its one-block case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose6DOF, rotation_matrix


class DegenerateCorrespondences(ValueError):
    """Fewer than 3 correspondences, or collinear (rank-deficient) ones: the
    pose is not determined."""


@dataclass
class SolveReport:
    """Solver output: pose, fit statistics and per-correspondence residuals.

    ``converged`` is True: the pose is the exact minimizer of the cost.
    ``iterations`` is 1: the closed-form fit is one step.
    """

    beta: Pose6DOF
    final_cost: float          # sum of squared residual components, m^2
    iterations: int
    converged: bool
    residuals: np.ndarray      # (N, 3) at the solution
    covariance: np.ndarray     # (6, 6), scaled (J^T J)^-1
    correspondence_count: int = 0

    @property
    def rms_residual(self) -> float:
        if self.residuals.size == 0:
            return 0.0
        return float(np.sqrt(np.mean(np.sum(self.residuals ** 2, axis=1))))


def residuals(beta: Pose6DOF, p_l: np.ndarray, p_o: np.ndarray) -> np.ndarray:
    """Stacked (N, 3) residuals ``p_O - (R p_L + T)``."""
    return p_o - (p_l @ rotation_matrix(beta).T + beta.translation)


def _jacobian_blocks(rot: np.ndarray, phi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(N, 3, 6) residual Jacobian per correspondence from each row's rotation
    R (N, 3, 3), yaw phi (N,) and rotated point q = R p_L (N, 3).

    ``R = Rz(phi) Ry(theta) Rx(psi)`` turns by each angle about an axis w
    fixed in frame O, so dR/dangle = [w]x R and the rotation columns are
    -(w x q): w is z for phi, Rz(phi) y = (-sin phi, cos phi, 0) for theta
    and R x (R's first column) for psi.
    """
    axes = np.stack([
        np.broadcast_to([0.0, 0.0, 1.0], q.shape),
        np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=1),
        rot[:, :, 0],
    ], axis=1)
    j = np.empty((len(q), 3, 6))
    j[:, :, :3] = -np.swapaxes(np.cross(axes, q[:, None, :]), 1, 2)
    j[:, :, 3:] = -np.eye(3)
    return j


def jacobian(beta: Pose6DOF, p_l: np.ndarray) -> np.ndarray:
    """(3N, 6) Jacobian of the stacked residual w.r.t. the pose vector.

    The translation block is -I for every correspondence; rotation columns
    are -(dR/dangle) p_L.
    """
    rot = rotation_matrix(beta)
    n = len(p_l)
    blocks = _jacobian_blocks(np.broadcast_to(rot, (n, 3, 3)), np.full(n, beta.phi), p_l @ rot.T)
    return blocks.reshape(-1, 6)


def solve_groups(p_l: np.ndarray, p_o: np.ndarray, starts) -> list:
    """Closed-form pose of every block of correspondence rows, in one stack.

    ``starts`` (from 0, increasing) opens each block of the (N, 3)
    ``p_l``/``p_o`` rows; a block runs to the next start. Returns one ``(SolveReport, "")`` per block, or
    ``(None, reason)`` for a block of fewer than 3 rows or of collinear
    points (second singular value of H below 1e-12 of the first). A
    degenerate block does not affect the others.
    """
    starts = np.asarray(starts, dtype=int)
    sizes = np.diff(np.append(starts, len(p_l)))
    out = [(None, f"need >= 3 correspondences, got {n}") for n in sizes]
    keep = np.flatnonzero(sizes >= 3)
    if keep.size == 0:
        return out
    rows = np.repeat(sizes >= 3, sizes)
    p_l, p_o, n = p_l[rows], p_o[rows], sizes[keep]
    first = np.cumsum(n) - n
    block = np.repeat(np.arange(len(n)), n)

    c_l = np.add.reduceat(p_l, first) / n[:, None]
    c_o = np.add.reduceat(p_o, first) / n[:, None]
    d_l, d_o = p_l - c_l[block], p_o - c_o[block]
    h = np.add.reduceat(d_l[:, :, None] * d_o[:, None, :], first)
    u, s, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, 1, 2).copy(), np.swapaxes(u, 1, 2)
    v[:, :, 2] *= np.sign(np.linalg.det(v @ ut))[:, None]
    r = v @ ut
    t = c_o - (r @ c_l[:, :, None])[:, :, 0]

    # Z-Y-X Euler angles of each R (valid away from |theta| = pi/2), and
    # the residuals at the rotation the angles rebuild
    betas = [
        Pose6DOF(math.atan2(m[1][0], m[0][0]), -math.asin(max(-1.0, min(1.0, m[2][0]))),
                 math.atan2(m[2][1], m[2][2]), *tk)
        for m, tk in zip(r.tolist(), t.tolist())
    ]
    rot = np.array([rotation_matrix(b) for b in betas])[block]
    q = np.einsum("nij,nj->ni", rot, p_l)
    f = p_o - (q + t[block])
    cost = np.add.reduceat(np.sum(f * f, axis=1), first)

    # (J^T J)^-1 sigma^2 with sigma^2 = cost / (3n - 6); a degenerate
    # block's J^T J is singular, and its entry is not a report anyway
    degenerate = s[:, 1] < 1e-12 * np.maximum(s[:, 0], 1e-300)
    j = _jacobian_blocks(rot, np.array([b.phi for b in betas])[block], q)
    jtj = np.add.reduceat(np.einsum("nai,naj->nij", j, j), first)
    jtj[degenerate] = np.eye(6)
    cov = (cost / np.maximum(3 * n - 6, 1))[:, None, None] * np.linalg.inv(jtj)

    for g, k in enumerate(keep):
        if degenerate[g]:
            out[k] = (None, f"collinear or rank-deficient correspondences ({n[g]} points)")
            continue
        report = SolveReport(
            beta=betas[g],
            final_cost=float(cost[g]),
            iterations=1,
            converged=True,
            residuals=f[first[g] : first[g] + n[g]],
            covariance=cov[g],
            correspondence_count=int(n[g]),
        )
        out[k] = (report, "")
    return out


def solve(p_l: np.ndarray, p_o: np.ndarray) -> SolveReport:
    """Estimate the sensor pose from >= 3 non-collinear correspondences:
    the (N, 3) sensor-frame points ``p_l`` and their board-frame ``p_o``.

    The one-block case of ``solve_groups``; deterministic for fixed inputs.

    Raises
    ------
    DegenerateCorrespondences
        For fewer than 3 correspondences or collinear ones.
    """
    ((report, reason),) = solve_groups(p_l, p_o, [0])
    if report is None:
        raise DegenerateCorrespondences(reason)
    return report
