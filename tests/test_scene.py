import dataclasses
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from oracles import element_currents_scalar, simulate_scan_reference
from pdcalib import io, scene
from pdcalib.afe import EventGroup, EventTable, PdSignalRecord
from pdcalib.bench import DEFAULT_BASE_POSE, make_bench_scene
from pdcalib.geometry import PolarBeam, Pose6DOF, polar_to_cartesian_array, pose_to_matrix, transform_array
from pdcalib.io import frames_to_text, read_frames
from pdcalib.scene import (
    AfeConfig,
    BoardModel,
    FrameBatch,
    LidarModel,
    PdPlacement,
    ScanFrame,
    SimulationError,
    _element_currents,
    corner_error_bound,
    simulate_scan,
    simulate_scans,
)

DEG = math.pi / 180.0
MM = 1e-3

FRONTAL = Pose6DOF(0, 0, 0, 0.0, -2.5, 0.0)


def quiet_lidar(**kw):
    kw.setdefault("range_noise_sigma", 0.0)
    kw.setdefault("azimuth_jitter_sigma_deg", 0.0)
    return LidarModel(**kw)


class TestModels:
    def test_pd_within_board_enforced(self):
        pd = PdPlacement("p", offset=(0.495, 0.0))
        with pytest.raises(ValueError):
            BoardModel(pd_modules=(pd,))

    def test_repeated_pd_id_refused(self):
        pds = (PdPlacement("h_tl", offset=(-0.2, 0.1)), PdPlacement("h_tl", offset=(0.2, 0.1)))
        with pytest.raises(ValueError, match="'h_tl' is used by more than one module"):
            BoardModel(pd_modules=pds)

    @pytest.mark.parametrize("pd_id", ["h,tl", "h\ntl", "h\r", "h\u2028tl"])
    def test_pd_id_that_splits_a_frame_row_refused(self, pd_id):
        with pytest.raises(ValueError, match="comma or a line break"):
            BoardModel(pd_modules=(PdPlacement(pd_id, offset=(0.0, 0.0)),))

    def test_pd_reflectivity_ordering(self):
        with pytest.raises(ValueError):
            BoardModel(surround_reflectivity=80, pd_reflectivity=40)

    @pytest.mark.parametrize(
        "surround, pd", [(-1.0, 80.0), (10.0, 255.5), (float("nan"), 80.0), (10.0, float("inf"))]
    )
    def test_reflectivities_on_the_sensor_scale(self, surround, pd):
        with pytest.raises(ValueError, match="0-255 intensity scale"):
            BoardModel(surround_reflectivity=surround, pd_reflectivity=pd)
        BoardModel(surround_reflectivity=0.0, pd_reflectivity=255.0)

    def test_sampled_channel_validation(self):
        with pytest.raises(ValueError):
            PdPlacement("p", offset=(0, 0), sampled_channels=(5, 0))
        with pytest.raises(ValueError):
            PdPlacement("p", offset=(0, 0), sampled_channels=(0, 16))

    def test_lidar_validation(self):
        for angles in [(1.0, 1.0), ()]:  # () would be a lidar of no channels
            with pytest.raises(ValueError, match="non-empty and strictly increasing"):
                LidarModel(vertical_angles_deg=angles)
        with pytest.raises(ValueError):
            LidarModel(azimuth_step_deg=0.0)
        with pytest.raises(ValueError):
            LidarModel(range_noise_sigma=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("firing_period", 0.0), ("firing_period", -55e-6), ("pulse_burst_period", -1e-9)],
    )
    def test_lidar_timing_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            LidarModel(**{field: value})
        LidarModel(pulse_burst_period=0.0)  # no intra-cycle skew is allowed

    def test_duplicate_beam_keys_rejected(self):
        b = (0.01, 0.0, 1.0, 0, 0, 0.0)  # omega, alpha, r, channel, azimuth_index, reflectivity
        with pytest.raises(ValueError):
            ScanFrame(scan_id=0, beams=[b, b], pd_records=[])
        rows = [(0.01, 0.0, 1.0, 1, 3, 0.0), (0.01, 0.0, 1.0, 0, 5, 0.0), (0.01, 0.1, 2.0, 1, 3, 1.0)]
        with pytest.raises(ValueError, match=r"duplicate beam \(channel, azimuth_index\) \(1, 3\)"):
            ScanFrame(scan_id=0, beams=rows, pd_records=[])

    @pytest.mark.parametrize("fault", [None, "duplicate", "range", "omega", "reflectivity"])
    def test_batch_checks_as_one_frame_at_a_time(self, fault):
        # azimuths outside [0, 2 pi) to wrap; frames 0 and 1 meet at one
        # cell, which is no duplicate; frame 1 breaks one rule and frame 2,
        # later, a rule checked first within a frame
        frames = [
            [(0.1, -0.5, 2.0, 1, 2, 5.0)],
            [(0.1, 0.2, 2.0, 1, 2, 5.0), (0.1, 7.0, 2.0, 1, 3, 5.0)],
            [(0.1, 0.3, 2.0, 0, 1, 5.0), (0.1, 0.2, 2.0, 0, 0, 5.0)],
        ]
        if fault is not None:
            frames[2][1] = (0.1, 0.2, float("nan"), 0, 0, 5.0)
            edit = {
                "duplicate": lambda rows: rows + [(0.1, 0.4, 2.0, 1, 3, 6.0)],
                "range": lambda rows: [(0.1, 0.2, -1.0, 1, 2, 5.0), rows[1]],
                "omega": lambda rows: [rows[0], (2.0, 7.0, 2.0, 1, 3, 5.0)],
                "reflectivity": lambda rows: [(0.1, 0.2, 2.0, 1, 2, float("inf")), rows[1]],
            }[fault]
            frames[1] = edit(frames[1])
        scan_ids = [10, 11, 12]
        alone = []
        for scan_id, rows in zip(scan_ids, frames):
            try:
                alone.append(ScanFrame(scan_id, rows, []).beams)
            except ValueError as exc:
                alone = str(exc)
                break
        table = np.array(
            [row for rows in frames for row in sorted(rows, key=lambda row: row[3:5])], dtype=scene.BEAM_DTYPE
        )
        bounds = np.cumsum([0] + [len(rows) for rows in frames])
        no_events = EventTable.of_events([], [])
        if fault is None:
            batch = FrameBatch(scan_ids, table, bounds, no_events)
            assert [f.beams.tobytes() for f in batch] == [b.tobytes() for b in alone]
            assert all(f.beams.base is table for f in batch)
        else:
            assert "scan 11" in alone
            with pytest.raises(ValueError) as err:
                FrameBatch(scan_ids, table, bounds, no_events)
            assert str(err.value) == alone

    def test_batch_refuses_rows_or_records_out_of_order(self):
        # the batch's tables come in (frame, channel, azimuth_index) order and
        # its records by (frame, pd) cell, with ascending pd_ids; an empty
        # frame 0 shifts nothing, and a tied cell is a second record of one PD
        rows = [(0.1, 0.2, 2.0, 0, 1, 5.0), (0.1, 0.2, 2.0, 1, 0, 5.0), (0.1, 0.2, 2.0, 0, 3, 5.0)]
        table = np.array(rows, dtype=scene.BEAM_DTYPE)
        no_events = EventTable.of_events([], [])
        with pytest.raises(ValueError, match=r"^scan 9: beams not in \(channel, azimuth_index\) order$"):
            FrameBatch([7, 8, 9], table.copy(), [0, 0, 1, 3], no_events)
        assert len(FrameBatch([7, 8, 9], table.copy(), [0, 0, 2, 3], no_events)) == 3
        group = EventGroup(np.arange(2), np.zeros(2), np.ones((2, 1)))

        def events(frames, pd, pd_ids=("a", "b")):
            return EventTable(np.array(frames), np.array(pd), pd_ids, [(0,), (0,)], np.full(2, 0.1), (group,))

        assert len(FrameBatch([7, 8, 9], table.copy(), [0, 0, 2, 3], events([1, 1], [0, 1]))) == 3
        for bad in (events([1, 0], [0, 1]), events([0, 3], [0, 1]), events([1, 1], [1, 0]), events([1, 1], [0, 2]),
                    events([1, 2], [0, 1], ("b", "a")), events([1, 2], [0, 1], ("a", "a"))):
            with pytest.raises(ValueError, match="^PD records must come by frame and then by pd_id, each of a frame "
                                                 "and a PD of the batch$"):
                FrameBatch([7, 8, 9], table.copy(), [0, 0, 2, 3], bad)
        with pytest.raises(ValueError, match="^scan 8: PD 'b' has more than one record$"):
            FrameBatch([7, 8, 9], table.copy(), [0, 0, 2, 3], events([1, 1], [1, 1]))

    def test_beams_held_in_cell_order(self):
        rows = [(0.1, 0.2, 2.0, 1, 3, 5.0), (0.1, 0.1, 2.0, 0, 9, 6.0), (0.1, 0.3, 2.0, 1, -2, 7.0),
                (0.1, 0.4, 2.0, 0, 4, 8.0)]
        frame = ScanFrame(scan_id=0, beams=rows, pd_records=[])
        cells = list(zip(frame.beams["channel"].tolist(), frame.beams["azimuth_index"].tolist()))
        assert cells == [(0, 4), (0, 9), (1, -2), (1, 3)]
        assert frame.beams["reflectivity"].tolist() == [8.0, 6.0, 7.0, 5.0]

    def test_simulated_truth_rows_match_the_held_beams(self, horizontal_scene):
        # the truth indexes the returns in the order the simulator casts
        # them; the frame's cell order must be that order, so each truth
        # landing point lies along its return's ray
        sc = horizontal_scene
        for pose, wall in ((sc.base_pose, None), (Pose6DOF(6 * DEG, 0.02, -0.03, -0.9, -1.8, 0.05), 1.0)):
            m = pose_to_matrix(pose)
            for frame in simulate_scans(sc.board, sc.lidar, pose, seeds=[3, 4], scan_ids=[0, 1],
                                        afe=sc.afe, background_depth=wall):
                b = frame.beams
                ray = (frame.truth.board_positions - m[:, 3]) @ m[:, :3]
                ray /= np.linalg.norm(ray, axis=1)[:, None]
                np.testing.assert_allclose(ray, polar_to_cartesian_array(b["omega"], b["alpha"], 1.0), atol=1e-9)

    def test_vectorized_checks_follow_the_polar_beam_rule(self, tmp_path):
        # PolarBeam checks one return at a time; ScanFrame must accept,
        # reject and wrap exactly as it does, and the frame reader accept
        # and reject the same rows
        rng = np.random.default_rng(4)
        alpha = np.concatenate([rng.uniform(-10.0, 10.0, 200), [0.0, 2 * math.pi, -1e-300, -0.0]])
        rows = [(0.1, a, 2.0, 0, k, 5.0) for k, a in enumerate(alpha)]
        frame = ScanFrame(scan_id=0, beams=rows, pd_records=[])
        expected = [PolarBeam(*row).alpha for row in rows]
        assert frame.beam_arrays()[1].tolist() == expected
        nan, inf = float("nan"), float("inf")
        cases = [
            ((0.1, 0.0, 0.0, 0, 0, 5.0), False), ((0.1, 0.0, nan, 0, 0, 5.0), False),
            ((math.pi / 2, 0.0, 2.0, 0, 0, 5.0), False), ((-2.0, 0.0, 2.0, 0, 0, 5.0), False),
            ((0.1, inf, 2.0, 0, 0, 5.0), False), ((0.1, 0.2, 2.0, 0, 0, nan), False),
            ((0.1, 0.2, 2.0, 0, 0, -inf), False), ((0.1, 0.2, inf, 0, 0, 5.0), False),
            ((-1.5, 7.0, 1e-300, 0, 0, 0.0), True), ((0.1, -0.2, 2.0, 3, -4, 255.0), True),
        ]
        path = tmp_path / "frame.csv"
        for row, accepted in cases:
            omega, alpha, r, channel, azimuth_index, reflectivity = row
            path.write_text(
                f"{io.FRAME_MAGIC}\nbeam,0,{channel},{azimuth_index},{alpha / DEG!r},{omega / DEG!r},{r!r},"
                f"{reflectivity!r}\n"
            )
            for build in (lambda: PolarBeam(*row), lambda: ScanFrame(0, [row], []), lambda: read_frames(path)):
                if accepted:
                    build()
                else:
                    with pytest.raises(ValueError):
                        build()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), float("1e999")])
    def test_non_finite_reflectivity_refused(self, value):
        rows = [(0.1, 0.01 * k, 2.0, 0, k, 5.0) for k in range(9)]
        ScanFrame(scan_id=0, beams=rows, pd_records=[])
        rows[7] = rows[7][:5] + (value,)
        message = f"scan 0: beam (channel, azimuth_index) (0, 7): reflectivity {value!r} is not a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ScanFrame(scan_id=0, beams=rows, pd_records=[])

    def test_frame_offset_round_trip(self):
        # a PD at the board center maps its array-center measurement (7.5 mm)
        # to the board origin: o_p = d_p - frame_offset
        pd = PdPlacement("c", offset=(0.0, 0.0))
        d_p = np.array([7.5 * MM, 0.0, 0.0])
        np.testing.assert_allclose(d_p - pd.frame_offset, 0.0, atol=1e-15)


class TestResolutionGeometry:
    def test_horizontal_spacing_at_2p5m(self):
        board = BoardModel()
        frame = simulate_scan(board, quiet_lidar(), FRONTAL, seed=0)
        omega, alpha, r, ch, az, _ = frame.beam_arrays()
        pts = frame.truth.board_positions
        row = ch == 8  # the +1 deg channel in the default angle table
        x = np.sort(pts[row][:, 0])
        near_center = np.abs(x) < 0.05
        spacing = np.diff(x)[near_center[:-1]]
        assert spacing.mean() == pytest.approx(2.5 * math.tan(0.2 * DEG), abs=0.1 * MM)
        assert spacing.mean() == pytest.approx(8.73 * MM, abs=0.1 * MM)

    def test_vertical_spacing_at_2p5m(self):
        board = BoardModel()
        frame = simulate_scan(board, quiet_lidar(), FRONTAL, seed=0)
        _, _, _, ch, az, _ = frame.beam_arrays()
        pts = frame.truth.board_positions
        # z of the two innermost channels near the board center
        z_lo = pts[(ch == 7) & (np.abs(pts[:, 0]) < 0.02)][:, 2].mean()
        z_hi = pts[(ch == 8) & (np.abs(pts[:, 0]) < 0.02)][:, 2].mean()
        assert z_hi - z_lo == pytest.approx(2 * 2.5 * math.tan(1.0 * DEG), abs=0.1 * MM)
        assert z_hi - z_lo == pytest.approx(87.27 * MM, abs=0.1 * MM)

    def test_boresight_depth_exact(self):
        # with zero noise every return lies on the y = -T_y plane; the beam
        # fired straight down the boresight reads exactly 2.5 m of range
        # (channel 0 carries no firing-order azimuth skew)
        lidar = quiet_lidar(vertical_angles_deg=(0.0, 1.0, 2.0))
        frame = simulate_scan(BoardModel(), lidar, FRONTAL, seed=0)
        omega, alpha, r, ch, az, _ = frame.beam_arrays()
        pts = polar_to_cartesian_array(omega, alpha, r)
        np.testing.assert_allclose(pts[:, 1], 2.5, atol=1e-12)
        boresight = (ch == 0) & (az == 0)
        assert boresight.sum() == 1
        assert r[boresight][0] == pytest.approx(2.5, abs=1e-12)

    def test_beam_count_matches_resolution(self):
        board = BoardModel()
        frame = simulate_scan(board, quiet_lidar(), FRONTAL, seed=0)
        n = int(frame.truth.is_board.sum())
        h_res = 2.5 * math.tan(0.2 * DEG)
        v_res = 2.5 * math.tan(2.0 * DEG)
        predicted = (board.width / h_res) * (board.height / v_res)
        assert abs(n - predicted) / predicted < 0.10


class TestSimulation:
    def test_zero_noise_points_on_plane(self):
        sc = make_bench_scene("horizontal", lidar=quiet_lidar(), afe=AfeConfig(voltage_noise_sigma=0.0))
        frame = simulate_scan(sc.board, sc.lidar, sc.base_pose, seed=1, afe=sc.afe)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        pts_o = transform_array(
            pose_to_matrix(sc.base_pose), polar_to_cartesian_array(omega, alpha, r)
        )
        np.testing.assert_allclose(pts_o[:, 1], 0.0, atol=1e-12)

    def test_seeded_determinism(self):
        sc = make_bench_scene("horizontal")
        a = simulate_scan(sc.board, sc.lidar, sc.base_pose, seed=7, afe=sc.afe)
        b = simulate_scan(sc.board, sc.lidar, sc.base_pose, seed=7, afe=sc.afe)
        assert frames_to_text([a]) == frames_to_text([b])
        c = simulate_scan(sc.board, sc.lidar, sc.base_pose, seed=8, afe=sc.afe)
        assert frames_to_text([a]) != frames_to_text([c])

    def test_at_most_three_beams_per_horizontal_pd(self):
        sc = make_bench_scene("horizontal")
        for seed in range(8):
            frame = simulate_scan(sc.board, sc.lidar, sc.base_pose, seed=seed, afe=sc.afe)
            for rec in frame.pd_records:
                assert rec.n_events <= 3

    def test_on_pd_reflectivity_elevated(self):
        # the strict beam of each PD (its spot center inside the active
        # rectangle) is the oracle's: the simulator does not compute it
        sc = make_bench_scene("horizontal")
        frame = simulate_scan(sc.board, sc.lidar, sc.base_pose, seed=3, afe=sc.afe)
        strict = simulate_scan_reference(sc.board, sc.lidar, sc.base_pose, seed=3, afe=sc.afe).truth.on_pd_beam
        _, _, _, _, _, refl = frame.beam_arrays()
        board_refl = refl[frame.truth.is_board]
        assert strict.keys() == {pd.pd_id for pd in sc.board.pd_modules}
        for pd_id, idx in strict.items():
            assert idx is not None
            assert refl[idx] > np.median(board_refl) + 10

    def test_board_behind_sensor_rejected(self):
        with pytest.raises(SimulationError):
            simulate_scan(BoardModel(), quiet_lidar(), Pose6DOF(0, 0, 0, 0, 2.5, 0), seed=0)

    def test_edge_on_board_rejected(self):
        with pytest.raises(SimulationError):
            simulate_scan(
                BoardModel(), quiet_lidar(), Pose6DOF(math.pi / 2 * 0.99, 0, 0, 0, -2.5, 0), seed=0
            )

    def test_background_wall_beams_labeled(self):
        frame = simulate_scan(
            BoardModel(), quiet_lidar(), FRONTAL, seed=0, background_depth=5.0
        )
        assert np.any(~frame.truth.is_board)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        wall = ~frame.truth.is_board
        assert np.all(r[wall] > 5.0)


class TestBeamIntegration:
    # _element_currents takes the spot position (along, cross) from the array
    # center; for a horizontal PD at the board center that is board (x, z)

    def test_boundary_symmetry(self):
        pd = PdPlacement("p", offset=(0.0, 0.0))
        # element 7 / element 8 boundary sits at 7.5 mm, i.e. board x = 0 for
        # a centered PD
        currents = _element_currents(0.0, 0.0, 4.9 * MM, pd, 100e-6, ndtr)
        for j in range(8):
            assert currents[7 - j] == pytest.approx(currents[8 + j], rel=1e-9)

    def test_far_field_negligible(self):
        pd = PdPlacement("p", offset=(0.0, 0.0))
        currents = _element_currents(50 * MM + pd.half_span, 0.0, 4.9 * MM, pd, 100e-6, ndtr)
        assert np.all(currents < 1e-12)

    def test_centered_hit_peak_current(self):
        pd = PdPlacement("p", offset=(0.0, 0.0))
        # spot dead on element 3 (position 3 mm -> board x = 3 - 7.5 mm)
        currents = _element_currents((3 - 7.5) * MM, 0.0, 4.9 * MM, pd, 100e-6, ndtr)
        assert currents[3] == pytest.approx(100e-6, rel=1e-12)
        assert np.argmax(currents) == 3

    def test_argmax_matches_dense_integration_oracle(self):
        pd = PdPlacement("p", offset=(0.0, 0.0))
        sigma = 19.6 * MM / 4
        spot_local = 7.3 * MM  # inside element 7's [6.5, 7.5) mm cell
        currents = _element_currents(spot_local - pd.center_local, 0.0, sigma, pd, 100e-6, ndtr)

        # brute-force Riemann integration at 10 um resolution
        def dense_current(k):
            xs = np.arange(k - 0.5, k + 0.5, 0.01) * MM + 0.005 * MM
            zs = np.arange(-0.725, 0.725, 0.01) * MM + 0.005 * MM
            gx = np.exp(-((xs - spot_local) ** 2) / (2 * sigma ** 2))
            gz = np.exp(-(zs ** 2) / (2 * sigma ** 2))
            return gx.sum() * gz.sum()

        dense = np.array([dense_current(k) for k in range(16)])
        assert np.argmax(currents) == np.argmax(dense) == 7
        np.testing.assert_allclose(
            currents / currents.max(), dense / dense.max(), atol=1e-4
        )

    def test_event_rows_match_one_spot_at_a_time(self):
        pd = PdPlacement("p", offset=(0.1, -0.05), orientation="vertical")
        rng = np.random.default_rng(8)
        along = rng.uniform(-15 * MM, 15 * MM, 40)
        cross = rng.uniform(-8 * MM, 8 * MM, 40)
        sigma = rng.uniform(3 * MM, 8 * MM, 40)
        rows = _element_currents(along, cross, sigma, pd, 100e-6, ndtr)
        assert rows.shape == (40, pd.n_elements)
        for k in range(40):
            one = element_currents_scalar(along[k], cross[k], sigma[k], pd, 100e-6)
            assert rows[k].tobytes() == one.tobytes()
        assert _element_currents(along[:0], cross[:0], sigma[:0], pd, 100e-6, ndtr).shape == (0, 16)

    def test_invalid_sigma(self):
        # the spot sigma is range * beam_divergence / 4, so a non-positive
        # divergence is refused where it enters the program
        for divergence in (0.0, -19.6e-3 / 2.5):
            with pytest.raises(ValueError, match="beam_divergence"):
                LidarModel(beam_divergence=divergence)


class TestCornerErrorBound:
    def test_reference_values(self):
        ex, ez = corner_error_bound(2.5, LidarModel())
        assert ex == pytest.approx(8.73 * MM, abs=0.005 * MM)
        assert ez == pytest.approx(87.3 * MM, abs=0.05 * MM)

    def test_zero_range_limit(self):
        ex, ez = corner_error_bound(0.0, LidarModel())
        assert (ex, ez) == (0.0, 0.0)

    def test_linear_in_range(self):
        lidar = LidarModel()
        e1 = corner_error_bound(2.0, lidar)
        e2 = corner_error_bound(4.0, lidar)
        assert e2[0] == pytest.approx(2 * e1[0], rel=1e-12)
        assert e2[1] == pytest.approx(2 * e1[1], rel=1e-12)


class TestBenchScene:
    @pytest.mark.parametrize("orientation", ["horizontal", "vertical", "all"])
    def test_matches_committed_golden_scene(self, tmp_path, orientation):
        # the scene.json `pdcalib simulate --pd-orientation <orientation>`
        # writes; floats are written with repr, so a 1-ulp drift of a
        # module offset fails
        path = tmp_path / "scene.json"
        io.save_scene(make_bench_scene(orientation), path)
        golden = Path(__file__).parent / "golden" / f"bench_scene_{orientation}.json"
        assert path.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize(
        "pose",
        [Pose6DOF(dx=-0.7, dy=2.5), dataclasses.replace(DEFAULT_BASE_POSE, phi=1.5)],
        ids=["board behind", "1.5 rad yaw"],
    )
    def test_pose_the_simulator_refuses_is_refused_at_build_time(self, pose):
        with pytest.raises(SimulationError, match="behind or beside"):
            make_bench_scene("horizontal", base_pose=pose)

    def test_module_row_off_the_board_is_refused(self):
        # at dz +0.2 m the sensor sees the board 0.2 m lower: no beam of the
        # +3 deg row the top modules sit on lands on it
        with pytest.raises(SimulationError, match=r"module h_tl: no beam of its \+3 deg channel row .*dz=0\.2\)"):
            make_bench_scene("horizontal", base_pose=Pose6DOF(0, 0, 0, -0.7, -2.5, 0.2))

    def test_unknown_arrangement_rejected_before_casting(self):
        with pytest.raises(ValueError, match="unknown pd_orientation 'diagonal'"):
            make_bench_scene("diagonal", base_pose=Pose6DOF(dx=-0.7, dy=2.5))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_frames(frames, reference):
    """Equal frame text, beam bits, records in pd_id order and SimTruth
    fields, scan for scan."""
    assert len(frames) == len(reference)
    # first differing line only: a diff of whole frame files is slow and long
    text, ref_text = frames_to_text(frames).splitlines(), frames_to_text(reference).splitlines()
    bad = next((k for k, (a, b) in enumerate(zip(text, ref_text)) if a != b), None)
    assert bad is None, f"line {bad}: {text[bad]!r} != {ref_text[bad]!r}"
    assert len(text) == len(ref_text)
    for f, r in zip(frames, reference):
        assert f.scan_id == r.scan_id
        assert _same_bits(f.beams, r.beams)
        by_id = sorted(r.pd_records, key=lambda rec: rec.pd_id)  # the reference keeps board order
        assert [rec.pd_id for rec in f.pd_records] == [rec.pd_id for rec in by_id]
        for a, b in zip(f.pd_records, by_id):
            assert _same_bits(a.element_voltages, b.element_voltages)
            assert _same_bits(a.sample_times, b.sample_times)
        if r.truth is None:
            assert f.truth is None
            continue
        assert _same_bits(f.truth.board_positions, r.truth.board_positions)
        assert _same_bits(f.truth.is_board, r.truth.is_board)
        assert f.truth.pd_event_beams == r.truth.pd_event_beams
        assert all(type(i) is int for beams in f.truth.pd_event_beams.values() for i in beams)


def _bench_case(orientation, **kw):
    sc = make_bench_scene(orientation)
    return dict(board=sc.board, lidar=sc.lidar, pose=sc.base_pose, afe=sc.afe, **kw)


def _moved_case(orientation, dy, surround, pd_reflectivity, **kw):
    """A bench case at another range, with other board reflectivities."""
    case = _bench_case(orientation, **kw)
    case["board"] = dataclasses.replace(
        case["board"], surround_reflectivity=surround, pd_reflectivity=pd_reflectivity
    )
    case["pose"] = dataclasses.replace(case["pose"], dy=dy)
    return case


def _widths_case():
    """The mixed bench with modules of three sample widths, interleaved in board order."""
    case = _bench_case("all")
    widths = [(0, 5, 10, 15), (0, 3, 6, 9, 12, 15), (0, 15), (0, 5, 10, 15)]
    modules = [dataclasses.replace(pd, sampled_channels=ch) for pd, ch in zip(case["board"].pd_modules, widths)]
    case["board"] = dataclasses.replace(case["board"], pd_modules=tuple(modules))
    return case


# the bound on the reflectivity boost (scene._reach_sigmas) depends on the
# surround (its spacing) and on the spot size (the range); at 6 m the PD
# rows of the 2.5 m bench catch no events, at 1.2 m some modules do
CASES = {
    "horizontal": lambda: _bench_case("horizontal"),
    "near board, black surround": lambda: _moved_case("all", -1.2, 0.0, 255.0),
    "near board, grey surround, wall": lambda: _moved_case(
        "horizontal", -1.2, 120.0, 255.0, background_depth=0.6, background_reflectivity=200.0
    ),
    "far board, grey surround": lambda: _moved_case("all", -6.0, 120.0, 255.0),
    "far board, black surround, wall": lambda: _moved_case("vertical", -6.0, 0.0, 255.0, background_depth=1.5),
    "vertical": lambda: _bench_case("vertical"),
    "all PDs": lambda: _bench_case("all"),
    "modules of several sample widths": _widths_case,
    "background wall": lambda: _bench_case("all", background_depth=0.4, background_reflectivity=55.0),
    "no noise": lambda: dict(
        _bench_case("horizontal"),
        lidar=quiet_lidar(),
        afe=AfeConfig(voltage_noise_sigma=0.0),
    ),
}


class TestSimulateScansOracle:
    # simulate_scans must give, scan for scan, the frames of the per-scan
    # reference simulator, whatever the block a scan falls in

    @pytest.mark.parametrize("n_scans", [1, scene._SCANS_PER_PASS, scene._SCANS_PER_PASS + 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocks_match_the_per_scan_reference(self, case, n_scans):
        kw = CASES[case]()
        seeds = [901 + 13 * k for k in range(n_scans)]
        scan_ids = [5 + k for k in range(n_scans)]
        frames = simulate_scans(seeds=seeds, scan_ids=scan_ids, **kw)
        reference = [
            simulate_scan_reference(seed=s, scan_id=i, **kw) for s, i in zip(seeds, scan_ids)
        ]
        assert_same_frames(frames, reference)
        assert_same_frames([simulate_scan(seed=seeds[-1], scan_id=scan_ids[-1], **kw)], reference[-1:])

    def test_without_truth(self):
        kw = CASES["all PDs"]()
        frames = simulate_scans(seeds=[3, 4], scan_ids=[0, 1], with_truth=False, **kw)
        reference = [simulate_scan_reference(seed=s, scan_id=s - 3, with_truth=False, **kw) for s in (3, 4)]
        assert all(f.truth is None for f in frames)
        assert_same_frames(frames, reference)

    def test_block_size_does_not_change_the_output(self, monkeypatch):
        kw = CASES["horizontal"]()
        seeds = list(range(40, 47))
        whole = frames_to_text(simulate_scans(seeds=seeds, scan_ids=range(7), **kw))
        monkeypatch.setattr(scene, "_SCANS_PER_PASS", 3)
        assert frames_to_text(simulate_scans(seeds=seeds, scan_ids=range(7), **kw)) == whole

    def test_one_record_per_scan_and_pd_with_events(self):
        # each frame keeps one record per PD with events in its scan, in
        # pd_id order; a PD without events in a scan has no record there
        for case in ("all PDs", "near board, black surround"):
            kw = CASES[case]()
            frames = simulate_scans(seeds=range(12), scan_ids=range(12), **kw)
            board_order = [pd.pd_id for pd in kw["board"].pd_modules]
            for f in frames:
                beams = f.truth.pd_event_beams
                with_events = [pd_id for pd_id in sorted(board_order) if beams[pd_id]]
                assert [r.pd_id for r in f.pd_records] == with_events
                assert [r.n_events for r in f.pd_records] == [len(beams[pd_id]) for pd_id in with_events]
                assert all(isinstance(r, PdSignalRecord) for r in f.pd_records)
        assert any(len(f.pd_records) < len(board_order) for f in frames)

    @pytest.mark.parametrize("with_truth", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_is_a_fixed_point_of_its_file(self, tmp_path, case, with_truth):
        """The batch a file of simulated scans reads back as is the simulated
        batch, table for table and bit for bit, its angles taken through
        the file's degrees."""
        batch = simulate_scans(seeds=range(30, 41), scan_ids=range(3, 14), with_truth=with_truth, **CASES[case]())
        io.write_frames(batch, tmp_path / "frames.csv")
        back = read_frames(tmp_path / "frames.csv")
        beams = batch.beams.copy()
        for name in ("omega", "alpha"):
            beams[name] = beams[name] / DEG * DEG
        scene.wrap_azimuths(beams["alpha"])

        def tables(b, beams):
            ev = b.events
            arrays = [beams, ev.frames, ev.pd, ev.floors, *(a for group in ev.groups for a in group)]
            return b.scan_ids, b.bounds, ev.pd_ids, ev.channels, [(a.dtype, a.shape, a.tobytes()) for a in arrays]

        assert tables(back, back.beams) == tables(batch, beams)

    def test_no_event_in_a_block(self):
        kw = CASES["far board, grey surround"]()
        frames = simulate_scans(seeds=range(3), scan_ids=range(3), **kw)
        assert [f.pd_records for f in frames] == [[], [], []]

    def test_scan_without_a_return_fails_its_block(self):
        # one channel at the horizon and a board narrower than the azimuth
        # spacing: with a wide azimuth jitter, some scans miss the board
        kw = dict(
            board=BoardModel(width=0.004, height=0.05),
            lidar=LidarModel(vertical_angles_deg=(0.0,), azimuth_jitter_sigma_deg=0.2),
            pose=FRONTAL,
        )
        hit, miss = [], []
        for seed in range(30):
            try:
                simulate_scan_reference(seed=seed, **kw)
                hit.append(seed)
            except SimulationError:
                miss.append(seed)
        assert hit and miss
        assert_same_frames(
            simulate_scans(seeds=hit, scan_ids=range(len(hit)), **kw),
            [simulate_scan_reference(seed=s, scan_id=k, **kw) for k, s in enumerate(hit)],
        )
        with pytest.raises(SimulationError, match="no ray reaches the board"):
            simulate_scans(seeds=hit[:3] + miss[:1], scan_ids=range(4), **kw)
        with pytest.raises(SimulationError, match="no ray reaches the board"):
            simulate_scan(seed=miss[0], **kw)

    def test_block_without_a_board_return(self):
        # one channel passing above a small board with a PD: every return
        # is the wall's, and no board return bounds the boost
        kw = dict(
            board=BoardModel(width=0.02, height=0.05, pd_modules=(PdPlacement("p", offset=(0.0, 0.0)),)),
            lidar=LidarModel(vertical_angles_deg=(2.0,)),
            pose=FRONTAL,
            background_depth=1.0,
        )
        seeds = list(range(3))
        assert not any(simulate_scan_reference(seed=s, **kw).truth.is_board.any() for s in seeds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frames = simulate_scans(seeds=seeds, scan_ids=range(len(seeds)), **kw)
        assert_same_frames(frames, [simulate_scan_reference(seed=s, scan_id=k, **kw) for k, s in enumerate(seeds)])

    def test_arguments(self):
        kw = CASES["horizontal"]()
        assert list(simulate_scans(seeds=[], scan_ids=[], **kw)) == []
        with pytest.raises(ValueError, match="2 seeds for 1 scan ids"):
            simulate_scans(seeds=[1, 2], scan_ids=[0], **kw)


class TestReflectivityBound:
    # scene._reach_sigmas leaves a board return out of a module's boost when
    # the boost provably rounds away in surround + boost

    def test_ndtr_saturates_where_the_proof_says(self):
        x = np.linspace(8.3, 80.0, 20001)
        assert np.all(ndtr(x) == 1.0)
        assert np.all(ndtr(-x[x >= 37.7]) == 0.0)
        assert 0.0 < ndtr(-scene._REACH_SIGMAS) < 1e-23
        assert np.all(np.diff(ndtr(-x[x >= scene._REACH_SIGMAS])) <= 0.0)

    def test_reach(self):
        size, sigma = (8e-3, 0.725e-3), LidarModel().spot_sigma(6.0)
        for surround in (10.0, 120.0, 254.0):
            board = BoardModel(surround_reflectivity=surround, pd_reflectivity=255.0)
            assert scene._reach_sigmas(board, size, sigma, ndtr) == scene._REACH_SIGMAS
        # the spacing of doubles above 0 is the smallest subnormal
        board = BoardModel(surround_reflectivity=0.0, pd_reflectivity=255.0)
        assert scene._reach_sigmas(board, size, sigma, ndtr) == scene._ZERO_REACH_SIGMAS

    @pytest.mark.parametrize("case", ["all PDs", "near board, black surround", "far board, grey surround"])
    def test_boost_beyond_the_reach_rounds_away(self, case):
        kw = CASES[case]()
        board, lidar = kw["board"], kw["lidar"]
        m = pose_to_matrix(kw["pose"])
        rot, t = m[:, :3], m[:, 3]
        j = scene._azimuth_window(board, lidar, rot, t)
        _, _, is_board, ranges, points = scene._cast_rays(board, lidar, rot, t, j, np.zeros(3), None)
        sigma, x, z = lidar.spot_sigma(ranges[is_board]), points[is_board, 0], points[is_board, 2]
        s, p = board.surround_reflectivity, board.pd_reflectivity
        beyond_any = 0
        for pd in board.pd_modules:
            along, cross = pd.along_cross(x, z)
            size = (pd.half_span, 0.5 * pd.active_width)
            reach = scene._reach_sigmas(board, size, sigma.max(), ndtr) * sigma
            beyond = (np.abs(along) > size[0] + reach) | (np.abs(cross) > size[1] + reach)
            e = scene._gauss_rect_fraction(along, cross, *size, sigma, ndtr)
            e_ref = np.maximum(scene._gauss_rect_fraction(0.0, 0.0, *size, sigma, ndtr), 1e-300)
            boost = (p - s) * e / e_ref
            assert np.all(s + boost[beyond] == s)
            assert np.any(s + boost[~beyond] > s)
            beyond_any += beyond.sum()
        assert beyond_any > 0
