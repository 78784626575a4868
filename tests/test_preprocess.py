import math

import numpy as np
import pytest

from pdcalib.geometry import Pose6DOF, polar_to_cartesian_array, pose_to_matrix
from pdcalib.preprocess import (
    PlaneModel,
    SegmentationError,
    fit_plane,
    range_to_plane,
    refine_plane_ranges,
    segment_target,
)
from pdcalib.scene import AfeConfig, BoardModel, LidarModel, ScanFrame, simulate_scan

DEG = math.pi / 180.0

QUIET = LidarModel(range_noise_sigma=0.0, azimuth_jitter_sigma_deg=0.0)
AFE0 = AfeConfig(voltage_noise_sigma=0.0)
POSE = Pose6DOF(0, 0, 0, -0.7, -2.5, 0)


def true_plane_in_sensor_frame(pose):
    m = pose_to_matrix(pose)
    n = m[:, :3].T @ np.array([0.0, 1.0, 0.0])
    d = float(n @ (m[:, :3].T @ -m[:, 3]))
    if n[1] > 0:
        n, d = -n, -d
    return n, d


class TestSegmentation:
    def test_board_only_scene_keeps_every_beam(self):
        frame = simulate_scan(BoardModel(), QUIET, POSE, seed=0, afe=AFE0)
        roi = segment_target(frame, 1.0, 0.54)
        assert len(roi) == len(frame.beams)

    def test_wall_behind_is_excluded(self):
        frame = simulate_scan(
            BoardModel(), LidarModel(), POSE, seed=0, background_depth=5.0
        )
        roi = segment_target(frame, 1.0, 0.54)
        assert np.all(frame.truth.is_board[roi])
        assert len(roi) == int(frame.truth.is_board.sum())

    def test_empty_frame_rejected(self):
        frame = ScanFrame(scan_id=0, beams=[], pd_records=[])
        with pytest.raises(SegmentationError):
            segment_target(frame, 1.0, 0.54)

    def test_no_matching_extent_rejected(self):
        frame = simulate_scan(BoardModel(), QUIET, POSE, seed=0, afe=AFE0)
        with pytest.raises(SegmentationError) as err:
            segment_target(frame, 5.0, 3.0)
        assert "clusters" in str(err.value)


class TestPlaneFit:
    def test_four_corners_of_xy_plane(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]])
        plane = fit_plane(pts)
        assert abs(plane.normal[2]) == pytest.approx(1.0, abs=1e-12)
        assert plane.d == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_board_recovers_true_plane(self):
        pose = Pose6DOF(2 * DEG, -1 * DEG, 0.5 * DEG, -0.7, -2.5, 0.05)
        frame = simulate_scan(BoardModel(), QUIET, pose, seed=0, afe=AFE0)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        plane = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        n_true, d_true = true_plane_in_sensor_frame(pose)
        np.testing.assert_allclose(plane.normal, n_true, atol=1e-9)
        assert plane.d == pytest.approx(d_true, abs=1e-9)
        assert math.acos(min(1.0, abs(plane.normal @ n_true))) < 1e-6

    def test_noisy_rms_in_expected_band(self):
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=11)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        plane = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        assert plane.inlier_count > 500
        assert 0.007 <= plane.inlier_rms <= 0.013

    def test_rigid_invariance(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 60), np.zeros(60)])
        pts += 0.001 * rng.normal(size=pts.shape)
        plane_a = fit_plane(pts)
        pose = Pose6DOF(0.7, -0.3, 0.2, 1.0, 2.0, -0.5)
        m = pose_to_matrix(pose)
        pts_b = pts @ m[:, :3].T + m[:, 3]
        plane_b = fit_plane(pts_b)
        n_mapped = m[:, :3] @ plane_a.normal
        assert abs(abs(n_mapped @ plane_b.normal) - 1.0) < 1e-9
        # d transforms consistently: pick a point on plane a
        p_on = plane_a.d * plane_a.normal
        p_mapped = m[:, :3] @ p_on + m[:, 3]
        assert plane_b.signed_distance(p_mapped[None, :])[0] == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_plane(np.zeros((2, 3)))
        line = np.outer(np.arange(10.0), np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            fit_plane(line)

    def test_plane_model_validation(self):
        with pytest.raises(ValueError):
            PlaneModel(normal=np.array([1.0, 1.0, 0.0]), d=0.0, inlier_rms=0.0, inlier_count=5)
        with pytest.raises(ValueError):
            PlaneModel(normal=np.array([1.0, 0.0, 0.0]), d=0.0, inlier_rms=0.0, inlier_count=2)


class TestRangeRefinement:
    def test_range_correction_lands_on_plane(self):
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=5)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        plane = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        r_corr = range_to_plane(omega, alpha, plane)
        pts = polar_to_cartesian_array(omega, alpha, r_corr)
        assert np.max(np.abs(plane.signed_distance(pts))) < 1e-9

    def test_refinement_removes_tls_yaw_bias(self):
        # ray-aligned range noise tilts the TLS normal deterministically
        # (the tilt grows with sigma^2: ~2.5e-3 rad at 30 mm noise on this
        # geometry); the range-space refit stays unbiased. 40 frames at the
        # amplified noise level give ~4 sigma of separation.
        n_true, _ = true_plane_in_sensor_frame(POSE)
        lidar = LidarModel(range_noise_sigma=0.030)
        tls_errs, ref_errs = [], []
        for seed in range(40):
            frame = simulate_scan(BoardModel(), lidar, POSE, seed=7000 + seed)
            omega, alpha, r, _, _, _ = frame.beam_arrays()
            tls = fit_plane(polar_to_cartesian_array(omega, alpha, r))
            ref = refine_plane_ranges(omega, alpha, r, tls)
            for plane, acc in ((tls, tls_errs), (ref, ref_errs)):
                yaw = math.atan2(plane.normal[0], -plane.normal[1]) - math.atan2(
                    n_true[0], -n_true[1]
                )
                acc.append(yaw)
        assert abs(np.mean(tls_errs)) > 1.2e-3    # the deterministic tilt
        assert abs(np.mean(ref_errs)) < 1.2e-3    # gone after refinement

    def test_refinement_noiseless_is_exact(self):
        frame = simulate_scan(BoardModel(), QUIET, POSE, seed=0, afe=AFE0)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        tls = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        ref = refine_plane_ranges(omega, alpha, r, tls)
        n_true, d_true = true_plane_in_sensor_frame(POSE)
        np.testing.assert_allclose(ref.normal, n_true, atol=1e-10)
        assert ref.d == pytest.approx(d_true, abs=1e-10)
