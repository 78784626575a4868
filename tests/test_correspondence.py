import math

import numpy as np
import pytest

from pdcalib.correspondence import (
    AzimuthCenterModel,
    DetectionMiss,
    ModelError,
    build_azimuth_center_model,
    find_pd_beam,
    make_correspondences,
    pd_measurement_to_board,
)
from pdcalib.geometry import PolarBeam, polar_to_cartesian_array, pose_to_matrix, transform_array
from pdcalib.pipeline import calibrate_frames
from pdcalib.scene import PdPlacement

DEG = math.pi / 180.0
MM = 1e-3


def _beam(alpha_deg, reflectivity, idx=0):
    return PolarBeam(
        omega=0.05, alpha=alpha_deg * DEG, r=2.6, channel=3,
        azimuth_index=idx, reflectivity=reflectivity,
    )


class TestFindPdBeam:
    PD = PdPlacement("pd", offset=(0.1, 0.05))

    def _row(self, reflectivities, x0=0.06, dx=0.009):
        pos = np.array([[x0 + dx * i, 0.0, 0.05] for i in range(len(reflectivities))])
        return np.asarray(reflectivities, dtype=float), pos

    def test_simulated_row_returns_marked_beam(self, horizontal_scene, horizontal_batch):
        frame = horizontal_batch[0]
        omega, alpha, r, ch, az, refl = frame.beam_arrays()
        m = pose_to_matrix(horizontal_scene.base_pose)
        pts = transform_array(m, polar_to_cartesian_array(omega, alpha, r))
        for pd in horizontal_scene.board.pd_modules:
            truth_idx = frame.truth.on_pd_beam[pd.pd_id]
            if truth_idx is None:
                continue
            row = np.nonzero(ch == ch[truth_idx])[0]
            found = find_pd_beam(refl[row], pts[row], pd)
            assert az[row[found]] == az[truth_idx]

    def test_uniform_row_misses(self):
        refl, pos = self._row([20.0] * 9)
        with pytest.raises(DetectionMiss):
            find_pd_beam(refl, pos, self.PD)

    def test_two_elevated_takes_higher(self):
        refl, pos = self._row([20, 20, 20, 55, 70, 20, 20, 20, 20])
        assert find_pd_beam(refl, pos, self.PD) == 4

    def test_tie_takes_nearer_to_pd(self):
        refl, pos = self._row([20, 20, 20, 70, 70, 20, 20, 20, 20])
        # positions: beam 4 sits at 0.096, nearer the PD center x=0.1
        assert find_pd_beam(refl, pos, self.PD) == 4

    def test_empty_row(self):
        with pytest.raises(DetectionMiss):
            find_pd_beam([], np.zeros((0, 3)), self.PD)


class TestAzimuthCenterModel:
    def test_exact_line_recovered(self):
        a = np.linspace(5.0, 6.0, 50)
        mu = 3.0 + 42.0 * a
        model = build_azimuth_center_model(a, mu)
        assert model.nu == pytest.approx(3.0, abs=1e-9)
        assert model.tau == pytest.approx(42.0, abs=1e-9)
        assert model.inlier_mask.all()
        assert model.fit_rms < 1e-9

    def test_injected_jumps_flagged_slope_kept(self):
        rng = np.random.default_rng(0)
        a = np.linspace(5.0, 6.0, 50)
        mu = 3.0 + 42.0 * a
        out = rng.choice(50, size=5, replace=False)
        mu2 = mu.copy()
        mu2[out] += 9.7
        model = build_azimuth_center_model(a, mu2)
        assert set(np.nonzero(~model.inlier_mask)[0]) == set(out)
        assert abs(model.tau - 42.0) / 42.0 < 0.01

    def test_constant_azimuth_degenerates_to_mean(self):
        a = np.full(12, 5.4)
        mu = np.full(12, 7.1) + 0.01 * np.arange(12)
        model = build_azimuth_center_model(a, mu)
        assert model.tau == 0.0
        assert model.nu == pytest.approx(mu.mean(), abs=1e-9)

    def test_too_few_pairs(self):
        with pytest.raises(ModelError):
            build_azimuth_center_model(np.arange(4.0), np.arange(4.0))

    def test_majority_outliers_rejected(self):
        rng = np.random.default_rng(1)
        a = np.linspace(5.0, 6.0, 20)
        mu = rng.uniform(-50, 50, 20)  # no consistent line
        with pytest.raises(ModelError):
            build_azimuth_center_model(a, mu, threshold=0.5)

    def test_refit_beats_raw_fit_with_outliers(self):
        rng = np.random.default_rng(2)
        a = np.linspace(5.0, 6.0, 40)
        mu = 1.0 + 40.0 * a + rng.normal(0, 0.2, 40)
        mu[[3, 17]] += 9.7
        model = build_azimuth_center_model(a, mu)
        raw_tau, raw_nu = np.polyfit(a, mu, 1)
        raw_rms = float(np.sqrt(np.mean((mu - (raw_nu + raw_tau * a)) ** 2)))
        assert model.fit_rms < raw_rms

    def test_model_prediction(self):
        model = AzimuthCenterModel(nu=2.0, tau=40.0, inlier_mask=np.ones(5, bool), fit_rms=0.1)
        assert model.predict(0.1) == pytest.approx(6.0)


class TestBoardConversion:
    def test_centered_pd_maps_array_center_to_origin(self):
        pd = PdPlacement("c", offset=(0.0, 0.0))
        np.testing.assert_allclose(
            pd_measurement_to_board(pd, 7.5 * MM), [0.0, 0.0, 0.0], atol=1e-15
        )

    def test_horizontal_varies_along_x(self):
        pd = PdPlacement("h", offset=(0.2, -0.1), orientation="horizontal")
        a = pd_measurement_to_board(pd, 2.0 * MM)
        b = pd_measurement_to_board(pd, 12.0 * MM)
        assert b[0] - a[0] == pytest.approx(10 * MM, abs=1e-15)
        assert a[2] == b[2] == pytest.approx(-0.1)
        assert a[1] == 0.0

    def test_vertical_varies_along_z(self):
        pd = PdPlacement("v", offset=(0.2, -0.1), orientation="vertical")
        a = pd_measurement_to_board(pd, 2.0 * MM)
        b = pd_measurement_to_board(pd, 12.0 * MM)
        assert b[2] - a[2] == pytest.approx(10 * MM, abs=1e-15)
        assert a[0] == b[0] == pytest.approx(0.2)


class TestMakeCorrespondences:
    def test_full_simulation_claims_near_truth(self, horizontal_scene, horizontal_batch, horizontal_result):
        # 4 PDs x 50 scans: every claim within 1 mm of the true spot position
        result = horizontal_result
        assert len(result.correspondences) == 200
        by_key = {}
        for frame in horizontal_batch:
            _, _, _, ch, az, _ = frame.beam_arrays()
            for i in range(len(frame.beams)):
                by_key[(frame.scan_id, ch[i], az[i])] = frame.truth.board_positions[i]
        for c in result.correspondences:
            truth = by_key[(c.scan_id, c.beam.channel, c.beam.azimuth_index)]
            assert np.linalg.norm(c.p_o - truth) < 1.0 * MM

    def test_detected_beams_satisfy_reflectivity_rule(self, horizontal_scene, horizontal_batch, horizontal_result):
        frames = {f.scan_id: f for f in horizontal_batch}
        for c in horizontal_result.correspondences:
            frame = frames[c.scan_id]
            _, _, _, ch, _, refl = frame.beam_arrays()
            row_median = np.median(refl[ch == c.beam.channel])
            assert c.beam.reflectivity > row_median + 10

    def test_missing_model_skips_pd(self):
        pd_a = PdPlacement("a", offset=(-0.2, 0.0))
        pd_b = PdPlacement("b", offset=(0.2, 0.0))
        model = AzimuthCenterModel(nu=7.5, tau=0.0, inlier_mask=np.ones(5, bool), fit_rms=0.0)
        beams = {"a": _beam(5.0, 80), "b": _beam(6.0, 80)}
        out = make_correspondences({"a": model}, beams, [pd_a, pd_b], min_count=1)
        assert [c.pd_id for c in out] == ["a"]
        with pytest.raises(ModelError):
            make_correspondences({"a": model}, beams, [pd_a, pd_b], min_count=3)


class TestYawShiftConsistency:
    def test_slope_consistent_between_yaw_steps(self, horizontal_scene):
        # the azimuth-to-position gain at a module (~44-52 mm/deg here) is a
        # property of the rig geometry and must not move between small yaw
        # steps. The physical slope (regressing the true spot position on
        # the reported azimuth) is stable well under 5 %. The FITTED slope
        # carries an extra scale compression from the 0.1 V anchor samples
        # that varies with where the key-beam cluster sits (measured up to
        # ~-17 %), so it is only sanity-bounded against the geometric value.
        import dataclasses

        from pdcalib.geometry import Pose6DOF
        from pdcalib.scene import AfeConfig, simulate_scan

        scene = dataclasses.replace(horizontal_scene, afe=AfeConfig(voltage_noise_sigma=0.02))
        geo_tau: dict = {}
        fit_tau: dict = {}
        for step, yaw_deg in enumerate((0.0, 0.5)):
            base = scene.base_pose
            pose = Pose6DOF(base.phi + yaw_deg * DEG, base.theta, base.psi, base.dx, base.dy, base.dz)
            frames = [
                simulate_scan(scene.board, scene.lidar, pose, seed=3000 + 300 * step + k, scan_id=k, afe=scene.afe)
                for k in range(100)
            ]
            result = calibrate_frames(frames, scene, pose)
            fit_tau[yaw_deg] = {k: m.tau for k, m in result.models.items()}
            geo_tau[yaw_deg] = {}
            for pd in scene.board.pd_modules:
                a_list, x_list = [], []
                for frame, ft in zip(frames, result.features):
                    beam = ft.key_beams.get(pd.pd_id)
                    if beam is None:
                        continue
                    _, _, _, ch, az, _ = frame.beam_arrays()
                    bi = np.flatnonzero((ch == beam.channel) & (az == beam.azimuth_index))[0]
                    a_list.append(beam.alpha / DEG)
                    x_list.append(frame.truth.board_positions[bi][0] / MM)
                geo_tau[yaw_deg][pd.pd_id] = float(np.polyfit(a_list, x_list, 1)[0])
        for pd_id in geo_tau[0.0]:
            g0, g1 = geo_tau[0.0][pd_id], geo_tau[0.5][pd_id]
            assert abs(g1 - g0) / abs(g0) < 0.05
            for yaw_deg in (0.0, 0.5):
                assert abs(fit_tau[yaw_deg][pd_id] - geo_tau[yaw_deg][pd_id]) / abs(
                    geo_tau[yaw_deg][pd_id]
                ) < 0.20
