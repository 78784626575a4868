import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import azimuth_center_model_scalar, event_cell
from pdcalib import correspondence
from pdcalib.correspondence import (
    KEY_DTYPE,
    AzimuthCenterModel,
    ModelError,
    build_azimuth_center_model,
    find_pd_beam,
    make_correspondences,
    pd_measurement_to_board,
)
from pdcalib.pipeline import calibrate_frames
from pdcalib.scene import BEAM_DTYPE, LidarModel, PdPlacement

DEG = math.pi / 180.0
MM = 1e-3


def _keys(rows):
    """A key table of (scan, pd index, azimuth in degrees) rows."""
    keys = np.zeros(len(rows), dtype=KEY_DTYPE)
    keys["omega"], keys["r"], keys["channel"], keys["reflectivity"] = 0.05, 2.6, 3, 80.0
    keys["scan"], keys["pd"], keys["alpha"] = np.array(rows).T
    keys["alpha"] *= DEG
    return keys


class TestFindPdBeam:
    LIDAR = LidarModel()
    FP, PBP = LIDAR.firing_period, LIDAR.pulse_burst_period

    def _table(self, cells):
        """A batch table holding one return per (scan, channel, azimuth index)."""
        table = np.zeros(len(cells), dtype=BEAM_DTYPE)
        scan = np.array([c[0] for c in cells], dtype=int)
        table["channel"] = [c[1] for c in cells]
        table["azimuth_index"] = [c[2] for c in cells]
        return table, scan

    def _time(self, channel, azimuth_index, slip=0.0):
        return azimuth_index * self.FP + (channel + slip) * self.PBP

    def test_simulated_events_join_their_beams(self, horizontal_batch, horizontal_scene):
        frames = horizontal_batch[:10]
        table = np.concatenate([f.beams for f in frames])
        table_scan = np.repeat(np.arange(len(frames)), [len(f.beams) for f in frames])
        starts = np.cumsum([len(f.beams) for f in frames]) - [len(f.beams) for f in frames]
        times, scans, want = [], [], []
        for k, frame in enumerate(frames):
            for rec in frame.pd_records:
                times.extend(rec.sample_times)
                scans.extend([k] * rec.n_events)
                want.extend(starts[k] + np.array(frame.truth.pd_event_beams[rec.pd_id]))
        rows = find_pd_beam(np.array(times), np.array(scans), table, table_scan, horizontal_scene.lidar)
        assert want and rows.tolist() == want

    def test_time_names_channel_and_azimuth_index(self):
        table, scan = self._table([(0, 3, 40), (0, 4, 40), (0, 3, 41), (0, 0, -2), (0, 15, 7)])
        times = [self._time(3, 41), self._time(3, 40), self._time(4, 40), self._time(0, -2), self._time(15, 7)]
        rows = find_pd_beam(np.array(times), np.zeros(5, int), table, scan, self.LIDAR)
        assert rows.tolist() == [2, 0, 1, 3, 4]

    def test_quarter_burst_tolerance(self):
        table, scan = self._table([(0, 5, 12)])
        slips = [-0.24, -0.1, 0.0, 0.1, 0.24, -0.26, 0.26, 0.5]
        times = np.array([self._time(5, 12, slip) for slip in slips])
        rows = find_pd_beam(times, np.zeros(len(slips), int), table, scan, self.LIDAR)
        assert rows.tolist() == [0, 0, 0, 0, 0, -1, -1, -1]

    def test_channel_outside_sensor(self):
        # channel 16 of a 16-channel sensor and a time before channel 0's
        # slot name no beam, even where the table has such a cell
        table, scan = self._table([(0, 16, 3), (0, 0, 3)])
        times = np.array([self._time(16, 3), self._time(-1, 4)])
        rows = find_pd_beam(times, np.zeros(2, int), table, scan, self.LIDAR)
        assert rows.tolist() == [-1, -1]

    def test_zero_burst_period_names_no_channel(self):
        # every channel fires at once: a time names no channel
        table, scan = self._table([(0, 0, 3), (0, 1, 3)])
        rows = find_pd_beam(np.array([3 * self.FP]), np.zeros(1, int), table, scan,
                            LidarModel(pulse_burst_period=0.0))
        assert rows.tolist() == [-1]

    def test_no_return_in_cell(self):
        table, scan = self._table([(0, 2, 10), (1, 2, 11), (1, 3, 10)])
        times = np.array([self._time(2, 11), self._time(2, 10), self._time(2, 11), self._time(2, 12)])
        rows = find_pd_beam(times, np.array([0, 0, 1, 1]), table, scan, self.LIDAR)
        assert rows.tolist() == [-1, 0, 1, -1]

    def test_empty_inputs(self):
        table, scan = self._table([(0, 2, 10)])
        assert find_pd_beam(np.zeros(0), np.zeros(0, int), table, scan, self.LIDAR).tolist() == []
        empty, empty_scan = self._table([])
        rows = find_pd_beam(np.array([self._time(2, 10)]), np.zeros(1, int), empty, empty_scan, self.LIDAR)
        assert rows.tolist() == [-1]

    def test_shapes_checked(self):
        table, scan = self._table([(0, 2, 10)])
        with pytest.raises(ValueError, match="one scan id"):
            find_pd_beam(np.zeros(2), np.zeros(1, int), table, scan, self.LIDAR)
        with pytest.raises(ValueError, match="one scan id"):
            find_pd_beam(np.zeros(1), np.zeros(1, int), table, np.zeros(2, int), self.LIDAR)

    @settings(max_examples=150, deadline=None)
    @given(
        cells=st.sets(st.tuples(st.integers(0, 3), st.integers(0, 17), st.integers(-5, 30)), max_size=40),
        events=st.lists(
            st.tuples(st.integers(0, 3), st.integers(-2, 18), st.integers(-6, 31),
                      st.sampled_from([0.0, 0.1, -0.24, 0.26, 0.5, -0.5])),
            max_size=30,
        ),
    )
    def test_matches_dict_lookup(self, cells, events):
        cells = sorted(cells)
        table, scan = self._table(cells)
        times = np.array([self._time(c, j, slip) for _, c, j, slip in events])
        scans = np.array([k for k, *_ in events], dtype=int)
        rows = find_pd_beam(times, scans, table, scan, self.LIDAR)
        lookup = {cell: i for i, cell in enumerate(cells)}
        for row, t, k in zip(rows, times, scans):
            named = event_cell(float(t), self.LIDAR)
            assert row == (-1 if named is None else lookup.get((int(k), *named), -1))


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

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        n=st.integers(5, 60),
        steps=st.integers(1, 12),            # distinct azimuths: equal-azimuth pairs
        outliers=st.floats(0.0, 0.7),
        threshold=st.sampled_from([0.5, 2.0]),
        iterations=st.sampled_from([0, 1, 5, 200]),
    )
    def test_matches_one_hypothesis_at_a_time(self, seed, n, steps, outliers, threshold, iterations):
        rng = np.random.default_rng(seed)
        a = 5.0 + 0.2 * rng.integers(0, steps, n) + rng.choice([0.0, 1e-13], n)
        mu = 3.0 + 42.0 * a + rng.normal(0, 0.3, n)
        mu[rng.random(n) < outliers] += rng.choice([-9.7, 9.7, 30.0])
        if np.ptp(a) < 1e-12:
            return
        want = azimuth_center_model_scalar(a, mu, threshold, iterations)
        other = np.arange(float(n))
        # the second pass reuses the first one's draw, after a draw for
        # the same pair count and another iteration count
        for _ in range(2):
            try:
                model = build_azimuth_center_model(a, mu, threshold=threshold, iterations=iterations)
            except ModelError as exc:
                assert str(exc) == want
            else:
                nu, tau, mask, rms = want
                assert (model.nu, model.tau, model.fit_rms) == (nu, tau, rms)
                assert np.array_equal(model.inlier_mask, mask)
            build_azimuth_center_model(other, other, iterations=iterations + 1)

    def test_shared_draw_is_read_only(self):
        pairs = correspondence._ransac_pairs(50, 200, 0)
        assert pairs.shape == (200, 2)
        assert not pairs.flags.writeable
        with pytest.raises(ValueError):
            pairs[0, 0] = 1

    def test_batch_calibrated_twice_gives_identical_models(self, horizontal_scene, horizontal_batch):
        correspondence._ransac_pairs.cache_clear()
        first, second = (calibrate_frames(horizontal_batch, horizontal_scene) for _ in range(2))
        assert correspondence._ransac_pairs.cache_info().hits > 0
        assert first.models.keys() == second.models.keys()
        for pd_id, model in first.models.items():
            again = second.models[pd_id]
            assert (model.nu, model.tau, model.fit_rms) == (again.nu, again.tau, again.fit_rms)
            assert np.array_equal(model.inlier_mask, again.inlier_mask)

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
        assert len(result.correspondences) == len(result.p_o) == 200
        by_key = {}
        for k, frame in enumerate(horizontal_batch):
            _, _, _, ch, az, _ = frame.beam_arrays()
            for i in range(len(frame.beams)):
                by_key[(k, ch[i], az[i])] = frame.truth.board_positions[i]
        for row, p_o in zip(result.correspondences, result.p_o):
            truth = by_key[(row["scan"], row["channel"], row["azimuth_index"])]
            assert np.linalg.norm(p_o - truth) < 1.0 * MM

    def test_detected_beams_satisfy_reflectivity_rule(self, horizontal_scene, horizontal_batch, horizontal_result):
        for row in horizontal_result.correspondences:
            _, _, _, ch, _, refl = horizontal_batch[row["scan"]].beam_arrays()
            row_median = np.median(refl[ch == row["channel"]])
            assert row["reflectivity"] > row_median + 10

    def test_missing_model_skips_pd(self):
        pd_a = PdPlacement("a", offset=(-0.2, 0.0))
        pd_b = PdPlacement("b", offset=(0.2, 0.0))
        model = AzimuthCenterModel(nu=7.5, tau=0.0, inlier_mask=np.ones(5, bool), fit_rms=0.0)
        keys = _keys([(0, 1, 6.0), (0, 0, 5.0), (1, 1, 6.5), (1, 0, 5.5)])
        rows, p_o = make_correspondences({"a": model}, keys, [pd_a, pd_b])
        assert rows.tolist() == keys[[1, 3]].tolist()
        np.testing.assert_allclose(p_o, [pd_measurement_to_board(pd_a, 7.5 * MM)] * 2, atol=1e-15)
        rows, p_o = make_correspondences({}, keys, [pd_a, pd_b])
        assert len(rows) == 0 and p_o.shape == (0, 3)

    def test_positions_follow_each_pds_model(self):
        # the smoothed center at each row's azimuth, on its module's
        # centerline, as the one-point conversion gives it
        pds = [PdPlacement("h", offset=(-0.2, 0.1)), PdPlacement("v", offset=(0.2, -0.1), orientation="vertical")]
        models = {
            "h": AzimuthCenterModel(nu=2.0, tau=40.0, inlier_mask=np.ones(5, bool), fit_rms=0.0),
            "v": AzimuthCenterModel(nu=9.0, tau=-3.0, inlier_mask=np.ones(5, bool), fit_rms=0.0),
        }
        keys = _keys([(0, 0, 5.0), (0, 1, 6.0), (3, 0, 5.1), (3, 1, 6.1)])
        rows, p_o = make_correspondences(models, keys, pds)
        assert rows.tolist() == keys.tolist()
        for row, got in zip(rows, p_o):
            pd = pds[row["pd"]]
            mu = float(models[pd.pd_id].predict(row["alpha"] / DEG)) * MM
            np.testing.assert_array_equal(got, pd_measurement_to_board(pd, mu))


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
            result = calibrate_frames(frames, scene)
            fit_tau[yaw_deg] = {k: m.tau for k, m in result.models.items()}
            geo_tau[yaw_deg] = {}
            for p, pd in enumerate(scene.board.pd_modules):
                a_list, x_list = [], []
                for key in result.keys[result.keys["pd"] == p]:
                    frame = frames[key["scan"]]
                    _, _, _, ch, az, _ = frame.beam_arrays()
                    bi = np.flatnonzero((ch == key["channel"]) & (az == key["azimuth_index"]))[0]
                    a_list.append(key["alpha"] / DEG)
                    x_list.append(frame.truth.board_positions[bi][0] / MM)
                geo_tau[yaw_deg][pd.pd_id] = float(np.polyfit(a_list, x_list, 1)[0])
        for pd_id in geo_tau[0.0]:
            g0, g1 = geo_tau[0.0][pd_id], geo_tau[0.5][pd_id]
            assert abs(g1 - g0) / abs(g0) < 0.05
            for yaw_deg in (0.0, 0.5):
                assert abs(fit_tau[yaw_deg][pd_id] - geo_tau[yaw_deg][pd_id]) / abs(
                    geo_tau[yaw_deg][pd_id]
                ) < 0.20
