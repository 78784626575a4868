"""6-DOF pose estimation from correspondences via Levenberg-Marquardt.

Minimizes the squared norm of the per-correspondence residual

    F_i(beta) = p_O,i - (R(phi, theta, psi) @ p_L,i + T)

over beta = (phi, theta, psi, dx, dy, dz), with the damped normal-equation
update ``beta <- beta - (J^T J + lambda diag(J^T J))^-1 J^T F``. The
damping starts at ``LAMBDA0``, halves on accepted steps and doubles on
rejected ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Pose6DOF, matrix_to_pose, polar_to_cartesian_array, rotation_matrix


LAMBDA0 = 0.3          # initial damping
MAX_ITERS = 200
GRAD_TOL = 1e-10       # converged when max |J^T F| falls below this
STEP_TOL = 1e-12       # converged when the step norm falls below this
LAMBDA_CAP = 1e8       # damping beyond this means no downhill step is left


class SolverFailure(RuntimeError):
    """Damped normal matrix stayed singular up to the damping cap."""


@dataclass
class SolveReport:
    """Solver output: pose, convergence info and per-correspondence residuals."""

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


def _beam_points(correspondences) -> tuple[np.ndarray, np.ndarray]:
    """(p_L, p_O) arrays for a correspondence list."""
    n = len(correspondences)
    omega = np.empty(n)
    alpha = np.empty(n)
    r = np.empty(n)
    p_o = np.empty((n, 3))
    for i, c in enumerate(correspondences):
        omega[i], alpha[i], r[i] = c.beam.omega, c.beam.alpha, c.beam.r
        p_o[i] = c.p_o
    return polar_to_cartesian_array(omega, alpha, r), p_o


def residuals(beta: Pose6DOF, correspondences) -> np.ndarray:
    """Stacked (N, 3) residuals."""
    p_l, p_o = _beam_points(correspondences)
    r = rotation_matrix(beta)
    return p_o - (p_l @ r.T + beta.translation)


def _rotation_partials(beta: Pose6DOF) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    cf, sf = math.cos(beta.phi), math.sin(beta.phi)
    ct, st = math.cos(beta.theta), math.sin(beta.theta)
    cp, sp = math.cos(beta.psi), math.sin(beta.psi)
    rz = np.array([[cf, -sf, 0], [sf, cf, 0], [0, 0, 1.0]])
    ry = np.array([[ct, 0, st], [0, 1.0, 0], [-st, 0, ct]])
    rx = np.array([[1.0, 0, 0], [0, cp, -sp], [0, sp, cp]])
    drz = np.array([[-sf, -cf, 0], [cf, -sf, 0], [0, 0, 0.0]])
    dry = np.array([[-st, 0, ct], [0, 0.0, 0], [-ct, 0, -st]])
    drx = np.array([[0.0, 0, 0], [0, -sp, -cp], [0, cp, -sp]])
    return drz @ ry @ rx, rz @ dry @ rx, rz @ ry @ drx


def jacobian(beta: Pose6DOF, correspondences) -> np.ndarray:
    """(3N, 6) Jacobian of the stacked residual w.r.t. the pose vector.

    The translation block is -I for every correspondence; rotation columns
    are -(dR/dangle) p_L.
    """
    n = len(correspondences)
    p_l, _ = _beam_points(correspondences)
    d_phi, d_theta, d_psi = _rotation_partials(beta)
    j = np.zeros((3 * n, 6))
    j[:, 0] = -(p_l @ d_phi.T).ravel()
    j[:, 1] = -(p_l @ d_theta.T).ravel()
    j[:, 2] = -(p_l @ d_psi.T).ravel()
    eye = -np.eye(3)
    j[:, 3:] = np.tile(eye, (n, 1))
    return j


def rigid_fit_initializer(correspondences) -> Pose6DOF:
    """Closed-form SVD rigid fit of the correspondence pairs as a start pose.

    Falls back to the zero pose for degenerate (collinear) configurations.
    """
    p_l, p_o = _beam_points(correspondences)
    cl, co_ = p_l.mean(axis=0), p_o.mean(axis=0)
    h = (p_l - cl).T @ (p_o - co_)
    u, s, vt = np.linalg.svd(h)
    if s[1] < 1e-12 * max(s[0], 1e-300):
        return Pose6DOF()
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return matrix_to_pose(np.column_stack([r, co_ - r @ cl]))


def solve(correspondences, beta0: Pose6DOF | None = None) -> SolveReport:
    """Estimate the sensor pose from >= 3 non-collinear correspondences.

    Deterministic for fixed inputs. ``beta0`` defaults to the closed-form
    rigid fit (zero pose if degenerate). ``converged`` is False when the
    iteration cap is reached or when the damping passes ``LAMBDA_CAP``
    without finding a downhill step (a stall).

    Raises
    ------
    ValueError
        For fewer than 3 correspondences.
    SolverFailure
        If the damped system stays singular up to ``LAMBDA_CAP``.
    """
    if len(correspondences) < 3:
        raise ValueError(f"need >= 3 correspondences, got {len(correspondences)}")

    beta = beta0 if beta0 is not None else rigid_fit_initializer(correspondences)
    f = residuals(beta, correspondences).ravel()
    cost = float(f @ f)
    lam = LAMBDA0
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERS + 1):
        j = jacobian(beta, correspondences)
        g = j.T @ f
        if np.max(np.abs(g)) < GRAD_TOL:
            converged = True
            break
        h = j.T @ j
        dh = np.maximum(np.diag(h), 1e-300)
        while True:
            try:
                step = -np.linalg.solve(h + lam * np.diag(dh), g)
                break
            except np.linalg.LinAlgError:
                lam *= 10.0
                if lam > LAMBDA_CAP:
                    raise SolverFailure("damped normal matrix singular at every damping level")
        if np.linalg.norm(step) < STEP_TOL:
            converged = True
            break
        candidate = Pose6DOF.from_vector(beta.as_vector() + step)
        f_new = residuals(candidate, correspondences).ravel()
        cost_new = float(f_new @ f_new)
        if cost_new <= cost:
            beta, f, cost = candidate, f_new, cost_new
            lam = max(lam * 0.5, 1e-12)
        else:
            lam *= 2.0
            if lam > LAMBDA_CAP:
                break  # stalled: no downhill step at machine precision

    j = jacobian(beta, correspondences)
    h = j.T @ j
    n = len(correspondences)
    dof = max(3 * n - 6, 1)
    sigma_sq = cost / dof
    try:
        cov = sigma_sq * np.linalg.inv(h)
    except np.linalg.LinAlgError:
        cov = sigma_sq * np.linalg.pinv(h)
    return SolveReport(
        beta=beta,
        final_cost=cost,
        iterations=iterations,
        converged=converged,
        residuals=f.reshape(n, 3),
        covariance=cov,
        correspondence_count=n,
    )
