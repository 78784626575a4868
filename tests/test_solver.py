import itertools
import math

import numpy as np
import pytest

from oracles import central_difference_jacobian, rigid_fit_svd
from pdcalib.correspondence import Correspondence
from pdcalib.geometry import PolarBeam, Pose6DOF, pose_to_matrix
from pdcalib import solver
from pdcalib.solver import (
    jacobian,
    residuals,
    rigid_fit_initializer,
    solve,
)

DEG = math.pi / 180.0
MM = 1e-3


def expanded_residual_rows(beta, r, alpha, omega, p_o):
    """Trig expansion of the residual rows, written out coefficient by
    coefficient the way the solver's cost function is usually printed.

    The direction vector is (cos w sin a, cos w cos a, sin w); published
    versions of these rows swap the sine arguments in the first and third
    direction components, and inline the always-zero board-frame y of the
    measured point. With those misprints corrected the rows equal
    p_O - [R|T] p_L exactly.
    """
    cf, sf = math.cos(beta.phi), math.sin(beta.phi)
    ct, st = math.cos(beta.theta), math.sin(beta.theta)
    cp, sp = math.cos(beta.psi), math.sin(beta.psi)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cw, sw = math.cos(omega), math.sin(omega)
    x, y, z = r * cw * sa, r * cw * ca, r * sw
    row1 = (
        p_o[0]
        + y * (cp * sf - cf * sp * st)
        - z * (sp * sf + cp * cf * st)
        - x * (ct * cf)
        - beta.dx
    )
    row2 = (
        p_o[1]
        + z * (cf * sp - cp * st * sf)
        - y * (cp * cf + sp * st * sf)
        - x * ct * sf
        - beta.dy
    )
    row3 = p_o[2] + x * st - z * cp * ct - y * ct * sp - beta.dz
    return np.array([row1, row2, row3])


def make_correspondences_from_pose(pose, points_l, noise=0.0, rng=None):
    """Exact (or noised) correspondences consistent with ``pose``."""
    m = pose_to_matrix(pose)
    out = []
    for i, p in enumerate(np.atleast_2d(points_l)):
        r = np.linalg.norm(p)
        omega = math.asin(p[2] / r)
        alpha = math.atan2(p[0], p[1]) % (2 * math.pi)
        p_o = m[:, :3] @ p + m[:, 3]
        if noise and rng is not None:
            p_o = p_o + rng.normal(0, noise, 3)
        out.append(
            Correspondence(
                pd_id=f"pd{i}",
                scan_id=0,
                p_o=p_o,
                beam=PolarBeam(omega=omega, alpha=alpha, r=float(r), channel=i),
            )
        )
    return out


BOARD_POINTS_L = np.array(
    [
        [0.32, 2.50, 0.22],
        [1.08, 2.52, 0.21],
        [0.30, 2.49, -0.23],
        [1.06, 2.51, -0.20],
    ]
)

TRUTH = Pose6DOF(1 * DEG, 0.5 * DEG, -0.3 * DEG, 0.010, -0.005, 0.002)


class TestResidual:
    def test_zero_at_ground_truth(self):
        for c in make_correspondences_from_pose(TRUTH, BOARD_POINTS_L):
            np.testing.assert_allclose(residuals(TRUTH, [c])[0], 0.0, atol=1e-12)

    def test_pure_translation_row(self):
        pose = Pose6DOF(dx=0.010)
        c = make_correspondences_from_pose(pose, BOARD_POINTS_L[:1])[0]
        res = residuals(Pose6DOF(), [c])[0]
        assert res[0] == pytest.approx(0.010, abs=1e-12)
        assert abs(res[1]) < 1e-12 and abs(res[2]) < 1e-12

    def test_rows_equal_trig_expansion(self):
        # matrix form vs the written-out rows, over random poses and beams
        rng = np.random.default_rng(42)
        for _ in range(200):
            beta = Pose6DOF(*rng.uniform(-math.pi / 2, math.pi / 2, 3), *rng.uniform(-1, 1, 3))
            r = rng.uniform(0.5, 5.0)
            alpha = rng.uniform(0, 2 * math.pi)
            omega = rng.uniform(-0.4, 0.4)
            p_o = rng.uniform(-1, 1, 3)
            c = Correspondence(
                "x", 0, p_o, PolarBeam(omega=omega, alpha=alpha, r=r)
            )
            np.testing.assert_allclose(
                residuals(beta, [c])[0],
                expanded_residual_rows(beta, r, alpha, omega, p_o),
                atol=1e-10,
            )


class TestJacobian:
    def test_translation_block_is_negative_identity(self):
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        j = jacobian(Pose6DOF(0.3, -0.2, 0.1, 1, 2, 3), cs)
        for i in range(len(cs)):
            np.testing.assert_array_equal(j[3 * i : 3 * i + 3, 3:], -np.eye(3))

    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        for _ in range(100):
            beta = Pose6DOF(*rng.uniform(-1.2, 1.2, 3), *rng.uniform(-2, 2, 3))
            ja = jacobian(beta, cs)
            jf = central_difference_jacobian(beta, cs)
            assert np.max(np.abs(ja - jf)) < 1e-5

    def test_small_angle_rotation_columns(self):
        # at beta = 0 the yaw column is -dRz/dphi @ p = (p_y, -p_x, 0)
        c = make_correspondences_from_pose(Pose6DOF(), BOARD_POINTS_L[:1])[0]
        j = jacobian(Pose6DOF(), [c])
        r, alpha, omega = c.beam.r, c.beam.alpha, c.beam.omega
        x = r * math.cos(omega) * math.sin(alpha)
        y = r * math.cos(omega) * math.cos(alpha)
        z = r * math.sin(omega)
        np.testing.assert_allclose(j[:, 0], [y, -x, 0], atol=1e-12)       # phi
        np.testing.assert_allclose(j[:, 1], [-z, 0, x], atol=1e-12)       # theta
        np.testing.assert_allclose(j[:, 2], [0, z, -y], atol=1e-12)       # psi


class TestSolve:
    def test_exact_recovery_from_zero_start(self):
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        report = solve(cs, beta0=Pose6DOF())
        assert report.converged
        np.testing.assert_allclose(report.beta.angles, TRUTH.angles, atol=1e-6 * DEG)
        np.testing.assert_allclose(report.beta.translation, TRUTH.translation, atol=1e-6)
        assert report.final_cost < 1e-18

    def test_identity_truth_converges_fast(self):
        cs = make_correspondences_from_pose(Pose6DOF(), BOARD_POINTS_L)
        report = solve(cs, beta0=Pose6DOF())
        assert report.iterations <= 3
        assert report.final_cost < 1e-24

    def test_noisy_correspondences_paper_scale(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([BOARD_POINTS_L + rng.normal(0, 0.2, 3) for _ in range(50)])
        cs = make_correspondences_from_pose(TRUTH, pts, noise=2e-3, rng=rng)
        assert len(cs) == 200
        report = solve(cs)
        err = report.beta.as_vector() - TRUTH.as_vector()
        assert np.max(np.abs(err[:3])) <= 0.1 * DEG
        assert abs(err[3]) <= 3e-3

    def test_matches_svd_oracle(self):
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        report = solve(cs, beta0=Pose6DOF())
        m_oracle = rigid_fit_svd(BOARD_POINTS_L, np.array([c.p_o for c in cs]))
        m_lm = pose_to_matrix(report.beta)
        assert np.linalg.norm(m_lm[:, :3] - m_oracle[:, :3]) < 1e-8
        assert np.linalg.norm(m_lm[:, 3] - m_oracle[:, 3]) < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = np.vstack([BOARD_POINTS_L, BOARD_POINTS_L + rng.normal(0, 0.1, (4, 3))])
        cs = make_correspondences_from_pose(TRUTH, pts, noise=1e-3, rng=rng)
        a = solve(cs).beta.as_vector()
        order = rng.permutation(len(cs))
        b = solve([cs[i] for i in order]).beta.as_vector()
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_basin_of_attraction(self):
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        offsets_angle = (-5 * DEG, 0.0, 5 * DEG)
        offsets_trans = (-0.050, 0.0, 0.050)
        for da, dt, kind in itertools.product(offsets_angle, offsets_trans, range(3)):
            v = TRUTH.as_vector()
            v[kind] += da
            v[kind + 3] += dt
            report = solve(cs, beta0=Pose6DOF.from_vector(v))
            np.testing.assert_allclose(report.beta.as_vector(), TRUTH.as_vector(), atol=1e-6)

    def test_cost_not_worse_than_start(self):
        rng = np.random.default_rng(13)
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L, noise=5e-3, rng=rng)
        start = Pose6DOF(0.05, -0.03, 0.02, 0.1, -0.1, 0.05)
        f0 = residuals(start, cs).ravel()
        report = solve(cs, beta0=start)
        assert report.final_cost <= float(f0 @ f0)

    def test_too_few_correspondences(self):
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L[:2])
        with pytest.raises(ValueError):
            solve(cs)

    def test_initializer_matches_truth_on_exact_data(self):
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        beta0 = rigid_fit_initializer(cs)
        np.testing.assert_allclose(beta0.as_vector(), TRUTH.as_vector(), atol=1e-10)

    def test_degenerate_initializer_falls_back(self):
        line = np.outer(np.linspace(1, 2, 4), np.array([0.1, 2.5, 0.0]))
        cs = make_correspondences_from_pose(TRUTH, line)
        beta0 = rigid_fit_initializer(cs)
        assert beta0 == Pose6DOF()

    def test_covariance_shape_and_scale(self):
        rng = np.random.default_rng(21)
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L, noise=2e-3, rng=rng)
        report = solve(cs)
        assert report.covariance.shape == (6, 6)
        assert np.all(np.diag(report.covariance) >= 0)

    def test_stall_at_damping_cap_not_converged(self, monkeypatch):
        # every candidate step raises the cost, so the damping doubles past
        # the cap without an accepted step: a stall, not convergence
        cs = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        start = Pose6DOF(0.05, -0.03, 0.02, 0.1, -0.1, 0.05)

        def rising(beta, correspondences):
            f = residuals(beta, correspondences)
            return f if beta == start else f + 10.0

        monkeypatch.setattr(solver, "residuals", rising)
        report = solve(cs, beta0=start)
        assert not report.converged
        assert report.beta == start
        assert report.iterations < solver.MAX_ITERS
