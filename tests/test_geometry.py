import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdcalib.geometry import (
    CartesianPoint,
    FrameMismatchError,
    PolarBeam,
    Pose6DOF,
    cartesian_to_polar,
    matrix_to_pose,
    polar_to_cartesian,
    pose_to_matrix,
    rotation_matrix,
    transform_array,
    transform_point,
    wrap_angle,
)

DEG = math.pi / 180.0


class TestPolarConversion:
    def test_boresight(self):
        p = polar_to_cartesian(PolarBeam(omega=0.0, alpha=0.0, r=2.5))
        assert (p.x, p.y, p.z) == (0.0, 2.5, 0.0)
        assert p.frame == "L"

    def test_axis_permutation(self):
        p = polar_to_cartesian(PolarBeam(omega=0.0, alpha=math.pi / 2, r=1.0))
        assert p.x == pytest.approx(1.0, abs=1e-15)
        assert p.y == pytest.approx(0.0, abs=1e-15)
        assert p.z == 0.0

    def test_round_trip_spec_case(self):
        b = PolarBeam(omega=2 * DEG, alpha=0.2 * DEG, r=2.5)
        omega, alpha, r = cartesian_to_polar(polar_to_cartesian(b))
        assert omega == pytest.approx(b.omega, abs=1e-12)
        assert alpha == pytest.approx(b.alpha, abs=1e-12)
        assert r == pytest.approx(b.r, abs=1e-12)

    @given(
        omega=st.floats(-80 * DEG, 80 * DEG),
        alpha=st.floats(0.0, 2 * math.pi, exclude_max=True),
        r=st.floats(0.1, 200.0),
    )
    def test_round_trip_property(self, omega, alpha, r):
        b = PolarBeam(omega=omega, alpha=alpha, r=r)
        o2, a2, r2 = cartesian_to_polar(polar_to_cartesian(b))
        assert o2 == pytest.approx(omega, abs=1e-9)
        assert r2 == pytest.approx(r, rel=1e-12)
        # azimuth is degenerate at the poles, compare via wrapped difference
        assert abs(wrap_angle(a2 - alpha)) < 1e-9

    def test_range_preserved(self):
        # the sin(omega) z-row keeps |p| == r; the misprinted sin(alpha) would not
        b = PolarBeam(omega=10 * DEG, alpha=30 * DEG, r=3.7)
        assert np.linalg.norm(polar_to_cartesian(b).as_array()) == pytest.approx(3.7, abs=1e-12)

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

    def test_matrix_pose_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            pose = Pose6DOF(
                *rng.uniform(-math.pi / 2 + 0.05, math.pi / 2 - 0.05, 3),
                *rng.uniform(-3, 3, 3),
            )
            back = matrix_to_pose(pose_to_matrix(pose))
            np.testing.assert_allclose(back.as_vector(), pose.as_vector(), atol=1e-10)

    def test_angle_normalization(self):
        p = Pose6DOF(phi=3 * math.pi)
        assert p.phi == pytest.approx(math.pi)
        with pytest.raises(ValueError):
            Pose6DOF(phi=float("inf"))

    def test_bad_matrix_rejected(self):
        with pytest.raises(ValueError):
            matrix_to_pose(np.ones((3, 3)))


class TestTransform:
    def test_identity(self):
        p = CartesianPoint(0.3, 1.2, -0.7, frame="L")
        q = transform_point(pose_to_matrix(Pose6DOF()), p)
        assert (q.x, q.y, q.z) == (p.x, p.y, p.z)
        assert q.frame == "O"

    def test_pure_translation(self):
        m = pose_to_matrix(Pose6DOF(dx=1, dy=2, dz=3))
        q = transform_point(m, CartesianPoint(0, 0, 0, frame="L"))
        assert (q.x, q.y, q.z) == (1.0, 2.0, 3.0)

    def test_rigidity_preserves_distances(self):
        rng = np.random.default_rng(9)
        m = pose_to_matrix(Pose6DOF(1.1, -0.6, 0.4, 3.0, -1.0, 0.2))
        pts = rng.uniform(-5, 5, (10, 3))
        out = transform_array(m, pts)
        d_in = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        np.testing.assert_allclose(d_out, d_in, atol=1e-12)

    def test_frame_mismatch_rejected(self):
        m = pose_to_matrix(Pose6DOF())
        with pytest.raises(FrameMismatchError):
            transform_point(m, CartesianPoint(0, 0, 0, frame="O"))
        with pytest.raises(FrameMismatchError):
            CartesianPoint(0, 0, 0, "L").distance_to(CartesianPoint(0, 0, 0, "O"))
