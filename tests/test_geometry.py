import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import cartesian_to_polar
from pdcalib.geometry import (
    PolarBeam,
    Pose6DOF,
    polar_rays,
    polar_to_cartesian_array,
    pose_to_matrix,
    rotation_matrix,
    transform_array,
    wrap_angle,
)
from pdcalib.solver import solve_groups

DEG = math.pi / 180.0


def to_cartesian(omega, alpha, r):
    """One point through the array conversion, as an (x, y, z) tuple."""
    return tuple(polar_to_cartesian_array([omega], [alpha], [r])[0])


class TestPolarConversion:
    def test_boresight(self):
        assert to_cartesian(0.0, 0.0, 2.5) == (0.0, 2.5, 0.0)

    def test_axis_permutation(self):
        x, y, z = to_cartesian(0.0, math.pi / 2, 1.0)
        assert x == pytest.approx(1.0, abs=1e-15)
        assert y == pytest.approx(0.0, abs=1e-15)
        assert z == 0.0

    def test_round_trip_spec_case(self):
        omega, alpha, r = cartesian_to_polar(*to_cartesian(2 * DEG, 0.2 * DEG, 2.5))
        assert omega == pytest.approx(2 * DEG, abs=1e-12)
        assert alpha == pytest.approx(0.2 * DEG, abs=1e-12)
        assert r == pytest.approx(2.5, abs=1e-12)

    @given(
        omega=st.floats(-80 * DEG, 80 * DEG),
        alpha=st.floats(0.0, 2 * math.pi, exclude_max=True),
        r=st.floats(0.1, 200.0),
    )
    def test_round_trip_property(self, omega, alpha, r):
        o2, a2, r2 = cartesian_to_polar(*to_cartesian(omega, alpha, r))
        assert o2 == pytest.approx(omega, abs=1e-9)
        assert r2 == pytest.approx(r, rel=1e-12)
        # azimuth is degenerate at the poles, compare via wrapped difference
        assert abs(wrap_angle(a2 - alpha)) < 1e-9

    def test_range_preserved(self):
        # the sin(omega) z-row keeps |p| == r; the misprinted sin(alpha) would not
        assert np.linalg.norm(to_cartesian(10 * DEG, 30 * DEG, 3.7)) == pytest.approx(3.7, abs=1e-12)

    @given(
        returns=st.lists(
            st.tuples(st.floats(-89 * DEG, 89 * DEG), st.floats(-20.0, 20.0), st.floats(0.01, 300.0)),
            max_size=40,
        )
    )
    def test_rays_equal_the_conversion_bitwise(self, returns):
        # azimuths outside [0, 2 pi) too: the pipeline converts what a frame holds
        omega, alpha, r = np.array(returns, dtype=float).reshape(-1, 3).T.copy()
        points, dirs = polar_rays(omega, alpha, r)
        for got, want in ((points, polar_to_cartesian_array(omega, alpha, r)),
                          (dirs, polar_to_cartesian_array(omega, alpha, 1.0))):
            assert got.shape == want.shape == (len(returns), 3)
            assert np.ascontiguousarray(got).view(np.uint64).tolist() == want.view(np.uint64).tolist()
            assert all(got[:, c].flags.c_contiguous for c in range(3))

    def test_rays_equal_the_conversion_bitwise_on_a_batch(self):
        # a batch long enough for every vectorised loop and its tail
        rng = np.random.default_rng(5)
        n = 10_007
        omega, alpha, r = rng.uniform(-1.5, 1.5, n), rng.uniform(-4 * math.pi, 6 * math.pi, n), rng.uniform(0.1, 100, n)
        points, dirs = polar_rays(omega, alpha, r)
        assert np.array_equal(np.ascontiguousarray(points).view(np.uint64),
                              polar_to_cartesian_array(omega, alpha, r).view(np.uint64))
        assert np.array_equal(np.ascontiguousarray(dirs).view(np.uint64),
                              polar_to_cartesian_array(omega, alpha, 1.0).view(np.uint64))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            PolarBeam(omega=0.0, alpha=0.0, r=-1.0)
        with pytest.raises(ValueError):
            PolarBeam(omega=float("nan"), alpha=0.0, r=1.0)


class TestPose:
    def test_zero_pose_identity(self):
        m = pose_to_matrix(Pose6DOF())
        np.testing.assert_allclose(m[:, :3], np.eye(3), atol=0)
        np.testing.assert_allclose(m[:, 3], 0.0, atol=0)

    def test_quarter_yaw(self):
        r = rotation_matrix(Pose6DOF(phi=math.pi / 2))
        np.testing.assert_allclose(r @ [0, 1, 0], [-1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-15)

    def test_rotation_orthonormal_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pose = Pose6DOF(*rng.uniform(-math.pi, math.pi, 3), *rng.uniform(-2, 2, 3))
            r = rotation_matrix(pose)
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_matches_elementwise_expansion(self):
        # entries against the direct trig expansion of Rz(phi)Ry(theta)Rx(psi),
        # the same form the solver's residual rows are derived from
        rng = np.random.default_rng(11)
        for _ in range(20):
            phi, theta, psi = rng.uniform(-math.pi, math.pi, 3)
            cf, sf = math.cos(phi), math.sin(phi)
            ct, st_ = math.cos(theta), math.sin(theta)
            cp, sp = math.cos(psi), math.sin(psi)
            expected = np.array(
                [
                    [cf * ct, cf * st_ * sp - sf * cp, cf * st_ * cp + sf * sp],
                    [sf * ct, sf * st_ * sp + cf * cp, sf * st_ * cp - cf * sp],
                    [-st_, ct * sp, ct * cp],
                ]
            )
            got = rotation_matrix(Pose6DOF(phi, theta, psi))
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_solve_groups_recovers_random_poses(self):
        # the stacked fit reads back the Z-Y-X angles and translation of
        # every pose that maps a fixed non-collinear point set exactly
        rng = np.random.default_rng(3)
        p_l = np.array([[0.3, 2.5, 0.2], [1.1, 2.5, 0.2], [0.3, 2.5, -0.2], [1.1, 2.4, -0.2]])
        poses = [
            Pose6DOF(*rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 3), *rng.uniform(-3, 3, 3))
            for _ in range(100)
        ]
        p_o = np.concatenate([transform_array(pose_to_matrix(pose), p_l) for pose in poses])
        fits = solve_groups(np.tile(p_l, (len(poses), 1)), p_o, np.arange(len(poses)) * len(p_l))
        for pose, (fit, _) in zip(poses, fits):
            np.testing.assert_allclose(fit.beta.as_vector(), pose.as_vector(), atol=1e-10)

    def test_angle_normalization(self):
        p = Pose6DOF(phi=3 * math.pi)
        assert p.phi == pytest.approx(math.pi)
        with pytest.raises(ValueError):
            Pose6DOF(phi=float("inf"))


class TestTransform:
    def test_identity(self):
        p = np.array([[0.3, 1.2, -0.7], [-2.0, 0.5, 4.0]])
        np.testing.assert_array_equal(transform_array(pose_to_matrix(Pose6DOF()), p), p)

    def test_pure_translation(self):
        m = pose_to_matrix(Pose6DOF(dx=1, dy=2, dz=3))
        np.testing.assert_array_equal(transform_array(m, np.zeros((1, 3))), [[1.0, 2.0, 3.0]])

    def test_rigidity_preserves_distances(self):
        rng = np.random.default_rng(9)
        m = pose_to_matrix(Pose6DOF(1.1, -0.6, 0.4, 3.0, -1.0, 0.2))
        pts = rng.uniform(-5, 5, (10, 3))
        out = transform_array(m, pts)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        np.testing.assert_allclose(d_out, d_in, atol=1e-12)
