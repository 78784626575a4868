import itertools
import math

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from oracles import central_difference_jacobian, levenberg_marquardt, rigid_fit_svd
from pdcalib.geometry import Pose6DOF, polar_to_cartesian_array, pose_to_matrix, transform_array
from pdcalib.solver import (
    DegenerateCorrespondences,
    SolveReport,
    jacobian,
    residuals,
    solve,
    solve_groups,
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
    """(p_l, p_o) of exact (or noised) correspondences consistent with ``pose``."""
    p_l = np.atleast_2d(np.asarray(points_l, dtype=float))
    p_o = transform_array(pose_to_matrix(pose), p_l)
    if noise and rng is not None:
        p_o = p_o + rng.normal(0, noise, p_o.shape)
    return p_l, p_o


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
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        np.testing.assert_allclose(residuals(TRUTH, p_l, p_o), 0.0, atol=1e-12)

    def test_pure_translation_row(self):
        pose = Pose6DOF(dx=0.010)
        p_l, p_o = make_correspondences_from_pose(pose, BOARD_POINTS_L[:1])
        res = residuals(Pose6DOF(), p_l, p_o)[0]
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
            p_l = polar_to_cartesian_array([omega], [alpha], [r])
            np.testing.assert_allclose(
                residuals(beta, p_l, p_o[None])[0],
                expanded_residual_rows(beta, r, alpha, omega, p_o),
                atol=1e-10,
            )


class TestJacobian:
    def test_translation_block_is_negative_identity(self):
        p_l, _ = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        j = jacobian(Pose6DOF(0.3, -0.2, 0.1, 1, 2, 3), p_l)
        for i in range(len(p_l)):
            np.testing.assert_array_equal(j[3 * i : 3 * i + 3, 3:], -np.eye(3))

    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        for _ in range(100):
            beta = Pose6DOF(*rng.uniform(-1.2, 1.2, 3), *rng.uniform(-2, 2, 3))
            ja = jacobian(beta, p_l)
            jf = central_difference_jacobian(beta, p_l, p_o)
            assert np.max(np.abs(ja - jf)) < 1e-5

    def test_small_angle_rotation_columns(self):
        # at beta = 0 the yaw column is -dRz/dphi @ p = (p_y, -p_x, 0)
        p_l, _ = make_correspondences_from_pose(Pose6DOF(), BOARD_POINTS_L[:1])
        j = jacobian(Pose6DOF(), p_l)
        x, y, z = p_l[0]
        np.testing.assert_allclose(j[:, 0], [y, -x, 0], atol=1e-12)       # phi
        np.testing.assert_allclose(j[:, 1], [-z, 0, x], atol=1e-12)       # theta
        np.testing.assert_allclose(j[:, 2], [0, z, -y], atol=1e-12)       # psi


def perturbed_starts(beta):
    """Start poses 5 degrees and 50 mm off ``beta``, one angle and one
    translation axis at a time, plus ``beta`` itself."""
    for da, dt, kind in itertools.product((-5 * DEG, 0.0, 5 * DEG), (-0.050, 0.0, 0.050), range(3)):
        v = beta.as_vector()
        v[kind] += da
        v[kind + 3] += dt
        yield Pose6DOF(*v)


class TestSolve:
    def test_exact_recovery_from_zero_start(self):
        # the closed form and the LM oracle started at the zero pose agree on
        # the truth
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        report = solve(p_l, p_o)
        beta_lm, _, _, converged = levenberg_marquardt(p_l, p_o, Pose6DOF())
        assert report.converged and converged
        for beta in (report.beta, beta_lm):
            np.testing.assert_allclose(beta.as_vector()[:3], TRUTH.as_vector()[:3], atol=1e-6 * DEG)
            np.testing.assert_allclose(beta.translation, TRUTH.translation, atol=1e-6)
        assert report.final_cost < 1e-18

    def test_identity_truth_converges_fast(self):
        p_l, p_o = make_correspondences_from_pose(Pose6DOF(), BOARD_POINTS_L)
        report = solve(p_l, p_o)
        assert report.iterations == 1 and report.converged
        assert report.final_cost < 1e-24
        _, _, iterations, _ = levenberg_marquardt(p_l, p_o, Pose6DOF())
        assert iterations <= 3

    def test_noisy_correspondences_paper_scale(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([BOARD_POINTS_L + rng.normal(0, 0.2, 3) for _ in range(50)])
        p_l, p_o = make_correspondences_from_pose(TRUTH, pts, noise=2e-3, rng=rng)
        assert len(p_l) == 200
        report = solve(p_l, p_o)
        err = report.beta.as_vector() - TRUTH.as_vector()
        assert np.max(np.abs(err[:3])) <= 0.1 * DEG
        assert abs(err[3]) <= 3e-3

    def test_matches_svd_oracle(self):
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        report = solve(p_l, p_o)
        m_oracle = rigid_fit_svd(BOARD_POINTS_L, p_o)
        m_fit = pose_to_matrix(report.beta)
        assert np.linalg.norm(m_fit[:, :3] - m_oracle[:, :3]) < 1e-8
        assert np.linalg.norm(m_fit[:, 3] - m_oracle[:, 3]) < 1e-8

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        pts = np.vstack([BOARD_POINTS_L, BOARD_POINTS_L + rng.normal(0, 0.1, (4, 3))])
        p_l, p_o = make_correspondences_from_pose(TRUTH, pts, noise=1e-3, rng=rng)
        a = solve(p_l, p_o).beta.as_vector()
        order = rng.permutation(len(p_l))
        b = solve(p_l[order], p_o[order]).beta.as_vector()
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_basin_of_attraction(self):
        # LM started anywhere in the basin lands on the closed-form pose
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        np.testing.assert_allclose(solve(p_l, p_o).beta.as_vector(), TRUTH.as_vector(), atol=1e-10)
        for start in perturbed_starts(TRUTH):
            beta, _, _, converged = levenberg_marquardt(p_l, p_o, start)
            assert converged
            np.testing.assert_allclose(beta.as_vector(), TRUTH.as_vector(), atol=1e-6)

    def test_cost_not_worse_than_start(self):
        # the closed form is the minimizer: no start pose, and nothing LM
        # reaches from it, has a lower cost
        rng = np.random.default_rng(13)
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L, noise=5e-3, rng=rng)
        report = solve(p_l, p_o)
        start = Pose6DOF(0.05, -0.03, 0.02, 0.1, -0.1, 0.05)
        f0 = residuals(start, p_l, p_o).ravel()
        _, cost_lm, _, _ = levenberg_marquardt(p_l, p_o, start)
        assert report.final_cost <= float(f0 @ f0)
        assert report.final_cost <= cost_lm * (1 + 1e-12)

    def test_too_few_correspondences(self):
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L[:2])
        with pytest.raises(DegenerateCorrespondences, match="need >= 3 correspondences, got 2"):
            solve(p_l, p_o)
        with pytest.raises(ValueError):
            solve(np.zeros((0, 3)), np.zeros((0, 3)))

    def test_closed_form_matches_truth_on_exact_data(self):
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        np.testing.assert_allclose(solve(p_l, p_o).beta.as_vector(), TRUTH.as_vector(), atol=1e-10)

    def test_collinear_input_raises_typed_error(self):
        line = np.outer(np.linspace(1, 2, 4), np.array([0.1, 2.5, 0.0]))
        p_l, p_o = make_correspondences_from_pose(TRUTH, line)
        with pytest.raises(DegenerateCorrespondences, match="collinear"):
            solve(p_l, p_o)

    def test_covariance_shape_and_scale(self):
        rng = np.random.default_rng(21)
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L, noise=2e-3, rng=rng)
        report = solve(p_l, p_o)
        assert report.covariance.shape == (6, 6)
        assert np.all(np.diag(report.covariance) >= 0)


def board_block(draw, coplanar: bool):
    """(p_L, p_O) of one block: 3-8 board points seen from a sensor about
    2.5 m off, with p_O on the board plane y = 0 or spread over 0.2 m in y,
    and 1 mm of noise on p_L."""
    n = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    p_o = np.column_stack([
        rng.uniform(-0.5, 0.5, n),
        np.zeros(n) if coplanar else rng.uniform(-0.1, 0.1, n),
        rng.uniform(-0.4, 0.4, n),
    ])
    spread = np.linalg.svd(p_o - p_o.mean(axis=0), compute_uv=False)
    assume(spread[1] > 0.1 * spread[0])
    pose = Pose6DOF(*rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.5, 0.5), rng.uniform(-3.0, -2.0),
                    rng.uniform(-0.3, 0.3))
    m = pose_to_matrix(pose)
    p_l = (p_o - m[:, 3]) @ m[:, :3] + rng.normal(0, 1e-3, (n, 3))
    return p_l, p_o


@st.composite
def stacked_blocks(draw):
    """Blocks of correspondence rows with each block's rows permuted, the
    blocks in drawn order, and the index of the one collinear block among
    them, or None."""
    blocks = [board_block(draw, draw(st.booleans())) for _ in range(draw(st.integers(1, 5)))]
    bad = draw(st.none() | st.integers(0, len(blocks)))
    if bad is not None:
        n = draw(st.integers(3, 8))
        direction = np.array([0.6, 0.0, 0.8])
        p_o = np.outer(np.linspace(-0.4, 0.4, n), direction)
        blocks.insert(bad, (p_o + np.array([0.2, 2.5, 0.1]), p_o))
    order = [np.random.default_rng(k).permutation(len(b[0])) for k, b in enumerate(blocks)]
    return [(p_l[o], p_o[o]) for (p_l, p_o), o in zip(blocks, order)], blocks, bad


def stack(blocks):
    sizes = [len(p_l) for p_l, _ in blocks]
    p_l = np.concatenate([b[0] for b in blocks])
    p_o = np.concatenate([b[1] for b in blocks])
    return p_l, p_o, np.cumsum(sizes) - sizes


class TestStackedFit:
    @settings(max_examples=40, deadline=None)
    @given(stacked_blocks())
    def test_blocks_match_per_block_fits(self, case):
        # every block's pose equals the SVD fit of its rows in drawn order
        # and LM started 5 degrees and 50 mm off; only the collinear block
        # fails. LM runs to a 1e-14 gradient: at its 1e-10 default, a
        # 3-point block with 1 mm noise stops about 2e-8 short of the minimum.
        blocks, drawn, bad = case
        fits = solve_groups(*stack(blocks))
        assert len(fits) == len(blocks)
        for k, ((p_l, p_o), (fit, reason)) in enumerate(zip(blocks, fits)):
            if k == bad:
                assert fit is None
                assert reason.startswith("collinear or rank-deficient correspondences")
                continue
            assert isinstance(fit, SolveReport) and reason == ""
            assert fit.converged and fit.iterations == 1
            assert fit.correspondence_count == len(p_l)
            m_fit = pose_to_matrix(fit.beta)
            np.testing.assert_allclose(m_fit, rigid_fit_svd(*drawn[k]), atol=1e-10)
            start = fit.beta.as_vector() + np.array([5 * DEG, -5 * DEG, 5 * DEG, 0.05, -0.05, 0.05])
            beta_lm, cost_lm, _, converged = levenberg_marquardt(
                p_l, p_o, Pose6DOF(*start), grad_tol=1e-14
            )
            assert converged
            m_lm = pose_to_matrix(beta_lm)
            assert np.linalg.norm(m_fit[:, :3] - m_lm[:, :3]) < 1e-8
            assert np.linalg.norm(m_fit[:, 3] - m_lm[:, 3]) < 1e-8
            assert fit.final_cost <= cost_lm * (1 + 1e-9)
            np.testing.assert_allclose(fit.residuals, residuals(fit.beta, p_l, p_o), atol=1e-14)

    def test_ill_conditioned_block_matches_lm(self):
        # a generic 4-point block with cond(J^T J) about 4.9e3, drawn by the
        # test above: LM's damped steps fall below its step tolerance at
        # max |J^T F| 1.3e-10, short of the 1e-14 asked and 1.06e-8 m from
        # the closed form; undamped steps from there reach the minimum
        p_l = np.array([
            [0.5188284187984125, 2.4545949572673873, 0.35719135535596147],
            [0.33802774371727373, 2.367510764391741, 0.6649440734874549],
            [0.3222660767403918, 2.345636483506563, 0.5598784486367768],
            [0.8940483476496914, 2.318316923447092, 0.4966459094230637],
        ])
        p_o = np.array([
            [0.14371487242319947, 0.058756599703032486, -0.07748289783559559],
            [-0.07870019876114154, -0.029452213874479743, 0.20025408767019093],
            [-0.06150959171070369, -0.0672033563560922, 0.09943156689392252],
            [0.49698790901380774, 0.06021852170395223, 0.15647200531702354],
        ])
        fit = solve(p_l, p_o)
        start = fit.beta.as_vector() + np.array([5 * DEG, -5 * DEG, 5 * DEG, 0.05, -0.05, 0.05])
        beta_lm, cost_lm, _, converged = levenberg_marquardt(p_l, p_o, Pose6DOF(*start), grad_tol=1e-14)
        assert converged
        m_fit, m_lm = pose_to_matrix(fit.beta), pose_to_matrix(beta_lm)
        assert np.linalg.norm(m_fit[:, :3] - m_lm[:, :3]) < 1e-8
        assert np.linalg.norm(m_fit[:, 3] - m_lm[:, 3]) < 1e-8
        assert fit.final_cost <= cost_lm * (1 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(stacked_blocks())
    def test_covariance_matches_per_block_formula(self, case):
        # each block's covariance is its own (J^T J)^-1 sigma^2, with
        # sigma^2 = cost / (3n - 6), at the block's pose
        blocks, _, bad = case
        for k, ((p_l, p_o), (fit, _)) in enumerate(zip(blocks, solve_groups(*stack(blocks)))):
            if k == bad:
                continue
            j = jacobian(fit.beta, p_l)
            f = residuals(fit.beta, p_l, p_o).ravel()
            expected = float(f @ f) / max(3 * len(p_l) - 6, 1) * np.linalg.inv(j.T @ j)
            gap = np.max(np.abs(fit.covariance - expected)) / np.max(np.abs(expected))
            assert gap < 1e-10

    def test_short_blocks_fail_alone(self):
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        (short, reason), (fit, _) = solve_groups(np.vstack([p_l[:2], p_l]), np.vstack([p_o[:2], p_o]), [0, 2])
        assert short is None and reason == "need >= 3 correspondences, got 2"
        np.testing.assert_allclose(fit.beta.as_vector(), TRUTH.as_vector(), atol=1e-10)

    def test_one_block_is_solve(self):
        rng = np.random.default_rng(8)
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L, noise=1e-3, rng=rng)
        ((fit, _),) = solve_groups(p_l, p_o, [0])
        report = solve(p_l, p_o)
        assert fit.beta == report.beta and fit.final_cost == report.final_cost
        np.testing.assert_array_equal(fit.covariance, report.covariance)
