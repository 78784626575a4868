import copy
import dataclasses
import itertools
import logging
import math
import time

import numpy as np
import pytest

from hypothesis import example, given, settings, strategies as st
from scipy.special import ndtr

from pdcalib import preprocess
from pdcalib.afe import peak_voltages
from pdcalib.bench import make_bench_scene
from pdcalib.correspondence import KEY_DTYPE
from pdcalib.geometry import Pose6DOF, polar_rays, polar_to_cartesian_array, pose_to_matrix, transform_array
from pdcalib.harness import simulate_point
from pdcalib.io import read_frames, write_frames
from pdcalib.pipeline import (
    STAGES, PipelineError, _row_medians, board_plane, calibrate_frames, extract_frame_features, miss_reasons,
)
from pdcalib.scene import (
    BoardModel, FrameBatch, PdPlacement, ScanFrame, _element_currents, simulate_scan, simulate_scans,
)
from pdcalib.solver import DegenerateCorrespondences
from oracles import (
    bits, calibrate_frames_by_stage, event_cell, frame_features, frame_features_full_fit, guo_fit_scalar,
    row_medians_lexsort,
)

DEG = math.pi / 180.0
MM = 1e-3


def batch_roi(frames, board):
    """The ROI table of a batch, the frame of each row and the board plane,
    from one segmentation pass and one plane fit as ``calibrate_frames``
    makes them."""
    beams = np.concatenate([f.beams for f in frames])
    sizes = [len(f.beams) for f in frames]
    points, dirs = polar_rays(beams["omega"], beams["alpha"], beams["r"])
    rows = preprocess.segment_frames(beams, points, sizes, board.width, board.height)
    table = beams[rows]
    return table, np.repeat(np.arange(len(frames)), sizes)[rows], board_plane(points[rows], dirs[rows], table["r"])


class TestFullBatch:
    def test_every_scan_solves(self, horizontal_result):
        assert len(horizontal_result.scan_reports) == 50
        assert all(rep is not None for _, rep, _ in horizontal_result.scan_reports)

    def test_base_pose_recovered(self, horizontal_scene, horizontal_result):
        truth = horizontal_scene.base_pose.as_vector()
        est = np.array([rep.beta.as_vector() for _, rep, _ in horizontal_result.scan_reports if rep])
        bias = est.mean(axis=0) - truth
        assert np.max(np.abs(bias[:3])) < 0.05 * DEG
        assert np.max(np.abs(bias[3:])) < 1.5 * MM
        joint_err = horizontal_result.joint.beta.as_vector() - truth
        assert np.max(np.abs(joint_err[:3])) < 0.05 * DEG

    def test_models_have_physical_slopes(self, horizontal_result):
        # azimuth-to-position gain ~ range * pi / 180 per degree: 40-55 mm/deg
        for model in horizontal_result.models.values():
            assert 35.0 < model.tau < 55.0
            assert model.fit_rms < 1.0

    def test_sub_resolution_center_estimates(self, horizontal_scene, horizontal_batch, horizontal_result):
        # fitted centers track the true spot centers an order of magnitude
        # below the ~9 mm azimuth quantization
        errs = []
        pds = horizontal_scene.board.pd_modules
        for key in horizontal_result.keys:
            frame = horizontal_batch[key["scan"]]
            _, _, _, ch, az, _ = frame.beam_arrays()
            bi = np.flatnonzero((ch == key["channel"]) & (az == key["azimuth_index"]))[0]
            truth_x = frame.truth.board_positions[bi][0]
            pd = pds[key["pd"]]
            errs.append(abs(pd.offset[0] + key["mu"] - pd.center_local - truth_x))
        assert len(errs) == 200
        assert np.median(errs) < 0.5 * MM

    def test_noiseless_spot_centers_unbiased(self, horizontal_scene, horizontal_batch):
        # noiseless spots -6..6 mm off the array center at 2.3, 2.5 and 2.7 m,
        # made by the simulator's element currents and the AFE's peak
        # voltages, replace the first module's voltages in copies of one
        # frame: the batch pass centers each within 0.05 mm of the truth.
        # Anchor samples at -5 and 20 mm would pull a spot 3 mm off center
        # at 2.5 m by 0.21 mm.
        scene = horizontal_scene
        pd, afe = scene.board.pd_modules[0], scene.afe
        along = np.tile(np.arange(-6.0, 6.0 + 1e-9, 1.5) * MM, 3)
        ranges = np.repeat([2.3, 2.5, 2.7], len(along) // 3)
        currents = _element_currents(along, np.zeros_like(along), scene.lidar.spot_sigma(ranges), pd,
                                     afe.peak_current, ndtr)
        volts = peak_voltages(currents[:, list(pd.sampled_channels)], afe.tia, afe.pulse_width)
        frame = horizontal_batch[0]
        (rec,) = [r for r in frame.pd_records if r.pd_id == pd.pd_id]
        frames = [
            ScanFrame(k, frame.beams, [dataclasses.replace(rec, element_voltages=np.tile(v, (rec.n_events, 1)))])
            for k, v in enumerate(volts)
        ]
        keys, _ = extract_frame_features(FrameBatch.of_frames(frames), *batch_roi(frames, scene.board), scene, {})
        np.testing.assert_array_equal(keys["scan"], np.arange(len(frames)))
        bias = np.abs(keys["mu"] - (pd.center_local + along))
        assert np.max(bias) <= 0.05 * MM, f"worst |bias| {np.max(bias) / MM:.3f} mm at {along[np.argmax(bias)] / MM} mm"

    def test_vertical_scene_solves(self, vertical_scene):
        frames = [
            simulate_scan(
                vertical_scene.board, vertical_scene.lidar, vertical_scene.base_pose,
                seed=500 + k, scan_id=k, afe=vertical_scene.afe,
            )
            for k in range(12)
        ]
        result = calibrate_frames(frames, vertical_scene)
        solved = [rep for _, rep, _ in result.scan_reports if rep is not None]
        assert len(solved) == 12


class TestOptionsAndErrors:
    def test_no_pd_board_fails_at_correspondence_stage(self):
        scene = make_bench_scene("horizontal")
        bare = dataclasses.replace(scene, board=BoardModel(pd_modules=()))
        frames = [
            simulate_scan(bare.board, bare.lidar, bare.base_pose, seed=k, scan_id=k, afe=bare.afe)
            for k in range(6)
        ]
        with pytest.raises(PipelineError) as err:
            calibrate_frames(frames, bare)
        assert err.value.stage == "correspondence"

    def test_collinear_modules_fail_at_solve_stage(self, horizontal_scene):
        # four modules on one row of the board give collinear board points:
        # every scan's fit is degenerate, and so is the joint one
        z = horizontal_scene.board.pd_modules[0].offset[1]
        row = tuple(PdPlacement(f"h{k}", (x, z)) for k, x in enumerate((-0.38, -0.1, 0.2, 0.37)))
        scene = dataclasses.replace(
            horizontal_scene, board=dataclasses.replace(horizontal_scene.board, pd_modules=row)
        )
        frames = [
            simulate_scan(scene.board, scene.lidar, scene.base_pose, seed=k, scan_id=k, afe=scene.afe)
            for k in range(8)
        ]
        with pytest.raises(PipelineError, match=r"\[solve\] joint solve over 24 correspondences: collinear") as err:
            calibrate_frames(frames, scene)
        assert err.value.stage == "solve"
        assert isinstance(err.value.__cause__, DegenerateCorrespondences)

    def test_no_model_names_each_pds_detections(self, horizontal_scene, horizontal_batch):
        # two scans are too few pairs for any PD's model; the error says so
        # per PD, with its detection count
        with pytest.raises(PipelineError, match="no PD produced an azimuth-center model") as err:
            calibrate_frames(horizontal_batch[:2], horizontal_scene)
        for pd in horizontal_scene.board.pd_modules:
            assert f"{pd.pd_id} detected in 2/2 scans (need at least 5 scan pairs, got 2)" in str(err.value)

    def test_empty_batch_fails(self, horizontal_scene):
        with pytest.raises(PipelineError):
            calibrate_frames([], horizontal_scene)

    def test_small_batch_solves_every_scan(self, horizontal_scene, horizontal_batch):
        result = calibrate_frames(horizontal_batch[:8], horizontal_scene)
        assert sum(1 for _, rep, _ in result.scan_reports if rep is not None) == 8

    def test_segments_each_batch_once(self, horizontal_scene, horizontal_batch, monkeypatch):
        calls = []
        segment = preprocess.segment_frames

        def counted(beams, points, sizes, *args, **kwargs):
            calls.append(list(sizes))
            return segment(beams, points, sizes, *args, **kwargs)

        monkeypatch.setattr(preprocess, "segment_frames", counted)
        monkeypatch.setattr(preprocess, "segment_target", None)
        frames = horizontal_batch[:8]
        calibrate_frames(frames, horizontal_scene)
        assert calls == [[len(f.beams) for f in frames]]

    def test_feature_extraction_misses_recorded(self, horizontal_scene, horizontal_batch):
        frames = horizontal_batch[:4]
        board = horizontal_scene.board
        table, scan, plane = batch_roi(frames, board)
        keys, miss = extract_frame_features(FrameBatch.of_frames(frames), table, scan, plane, horizontal_scene, {})
        misses = miss_reasons(miss, board.pd_modules)
        n_pd = len(board.pd_modules)
        assert keys["scan"].tolist() == np.repeat(np.arange(4), n_pd).tolist()
        assert keys["pd"].tolist() == list(range(n_pd)) * 4
        assert misses == [{}] * 4
        assert np.all(np.bincount(scan) > 500)

    def test_detection_counts_logged(self, horizontal_scene, horizontal_batch, caplog):
        frames = [copy.copy(f) for f in horizontal_batch[:5]]
        for g in frames:
            g.pd_records = [r for r in g.pd_records if r.pd_id != "h_br"]
        with caplog.at_level(logging.DEBUG, logger="pdcalib"):
            calibrate_frames(frames, horizontal_scene)
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "pdcalib"]
        assert "h_br detected in 0/5 scans; misses {'no voltage events': 5}" in lines
        assert "h_tl detected in 5/5 scans; misses {}" in lines

    def test_misses_counted_by_code(self, horizontal_scene, horizontal_batch, caplog):
        # one burst period late, every PD time names the next channel's dim
        # return; each dim miss reads its own level, yet they are one cause
        frames = []
        for k, f in enumerate(horizontal_batch[:20]):
            g = copy.copy(f)
            g.pd_records = [
                dataclasses.replace(r, sample_times=r.sample_times + horizontal_scene.lidar.pulse_burst_period)
                for r in f.pd_records if not (r.pd_id == "h_tl" and k < 3)
            ]
            frames.append(g)
        dim = "h_tl: struck beam reads below its row median + 10; PD clock offset?"
        with caplog.at_level(logging.DEBUG, logger="pdcalib"), pytest.raises(PipelineError) as err:
            calibrate_frames(frames, horizontal_scene)
        assert "h_tl detected in 0/20 scans" in str(err.value)
        assert f"most often missed as {dim!r}" in str(err.value)
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "pdcalib"]
        assert f"h_tl detected in 0/20 scans; misses {{'no voltage events': 3, {dim!r}: 17}}" in lines

    def test_silent_by_default(self, horizontal_scene, horizontal_batch, caplog):
        calibrate_frames(horizontal_batch[:5], horizontal_scene)
        assert not [rec for rec in caplog.records if rec.name == "pdcalib"]

    def test_key_centers_match_per_event_fits(self, horizontal_scene, horizontal_batch, horizontal_result):
        # the batched fit gives the key event the same center, bit for bit,
        # as a fit of that event alone; the key event is the one whose
        # firing time names the key beam
        pds = horizontal_scene.board.pd_modules
        keys = horizontal_result.keys
        for key in keys[keys["scan"] < 10]:
            pd = pds[key["pd"]]
            (rec,) = [r for r in horizontal_batch[key["scan"]].pd_records if r.pd_id == pd.pd_id]
            cells = [event_cell(t, horizontal_scene.lidar) for t in rec.sample_times]
            (e,) = [e for e, cell in enumerate(cells) if cell == (key["channel"], key["azimuth_index"])]
            positions = pd.element_positions()[list(rec.sampled_channels)]
            mu = guo_fit_scalar(positions, rec.element_voltages[e], noise_floor=rec.noise_floor)
            assert key["mu"] == mu

    def test_unsegmentable_frame_names_its_scan(self, horizontal_scene, horizontal_batch):
        frame = horizontal_batch[3]
        stub = ScanFrame(scan_id=frame.scan_id, beams=frame.beams[:30], pd_records=[])
        with pytest.raises(PipelineError, match=r"\[segmentation\] scan 3: ") as err:
            calibrate_frames([horizontal_batch[0], stub], horizontal_scene)
        assert err.value.stage == "segmentation"

    def test_three_point_scans_flagged_low_confidence(self, horizontal_scene, horizontal_batch):
        # drop one module's voltages in every scan: 3 correspondences still
        # solve, flagged; drop two in scan 5: that scan gets no report and
        # a note, and its 2 rows stay out of the joint solve
        frames = []
        for k, f in enumerate(horizontal_batch[:8]):
            g = copy.copy(f)
            dropped = ("h_br", "h_tl") if k == 5 else ("h_br",)
            g.pd_records = [r for r in f.pd_records if r.pd_id not in dropped]
            frames.append(g)
        result = calibrate_frames(frames, horizontal_scene)
        notes = [note for _, rep, note in result.scan_reports if rep is not None]
        assert len(notes) == 7
        assert all(n == "low-confidence (3 points)" for n in notes)
        assert result.scan_reports[5] == (5, None, "need >= 3 correspondences, got 2")
        assert result.joint.correspondence_count == 21
        assert 5 not in result.correspondences["scan"]
        assert len(result.keys) == 23


SCENES = {o: make_bench_scene(o) for o in ("horizontal", "vertical", "all")}


RECORD_FAULTS = ("delete", "flat-volts", "clock", "drop-channel", "same-time", "no-events", "off-board")


def _faulty_records(r, kind, lidar, held):
    """The records that replace PD record ``r`` of a frame whose records
    hold the pd_ids ``held`` under a record fault; a copy off the board
    takes the first ``off-board j`` that no record of the frame holds."""
    if kind == "delete":
        return []
    if kind == "flat-volts":
        return [dataclasses.replace(r, element_voltages=np.full_like(r.element_voltages, r.noise_floor))]
    if kind == "clock":
        return [dataclasses.replace(r, sample_times=r.sample_times + lidar.firing_period / 2)]
    if kind == "drop-channel" and len(r.sampled_channels) > 2:  # a second sample width in the batch
        return [dataclasses.replace(r, element_voltages=np.delete(r.element_voltages, 1, axis=1),
                                    sampled_channels=r.sampled_channels[:1] + r.sampled_channels[2:])]
    if kind == "same-time" and r.n_events > 1:  # both events name the second one's beam
        return [dataclasses.replace(r, sample_times=np.r_[r.sample_times[1], r.sample_times[1:]])]
    if kind == "no-events":
        return [dataclasses.replace(r, element_voltages=r.element_voltages[:0], sample_times=r.sample_times[:0])]
    if kind == "off-board":
        free = next(f"off-board {j}" for j in itertools.count() if f"off-board {j}" not in held)
        return [r, dataclasses.replace(r, pd_id=free)]
    return [r]


def _inject(frame, pose, pd, kind, lidar):
    """One fault on one PD of a frame: its record deleted, its voltages flat
    at the noise floor, its clock half a firing period late, one element
    unsampled, two events at one time, no events, a copy under an id not on
    the board, the beams around it flattened to their row median, or its two
    brightest row beams tied at one level."""
    if kind in RECORD_FAULTS:
        held = {r.pd_id for r in frame.pd_records}
        frame.pd_records = [
            out for r in frame.pd_records
            for out in (_faulty_records(r, kind, lidar, held) if r.pd_id == pd.pd_id else [r])
        ]
        return
    b = frame.beams
    pts = transform_array(pose_to_matrix(pose), polar_to_cartesian_array(b["omega"], b["alpha"], b["r"]))
    d = np.hypot(pts[:, 0] - pd.offset[0], pts[:, 2] - pd.offset[1])
    if kind == "flatten":
        for ch in np.unique(b["channel"][d < 0.04]):
            row = b["channel"] == ch
            b["reflectivity"][row & (d < 0.04)] = np.median(b["reflectivity"][row])
        return
    ch = b["channel"][np.argmin(d)]
    near = np.flatnonzero((b["channel"] == ch) & (d < 0.03))
    if len(near) > 1:
        top = near[np.argsort(b["reflectivity"][near])[::-1][:2]]
        b["reflectivity"][top[1]] = b["reflectivity"][top[0]]


class TestBatchFeaturePass:
    @settings(max_examples=60, deadline=None)
    @given(
        orientation=st.sampled_from(sorted(SCENES)),
        seed=st.integers(0, 2 ** 16),
        n=st.integers(1, 5),
        jitter=st.tuples(
            st.floats(-1.0, 1.0),     # yaw, deg
            st.floats(-0.02, 0.02),   # dx, m
            st.floats(-0.05, 0.05),   # dy, m
            st.floats(-0.02, 0.02),   # dz, m
        ),
        dropout=st.floats(0.0, 0.2),
        faults=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 7),
                      st.sampled_from([*RECORD_FAULTS, "flatten", "tie"])),
            max_size=6,
        ),
    )
    @example(  # a deletion frees an id that an off-board copy took
        orientation="all", seed=0, n=1, jitter=(0.0, 0.0, 0.0, 0.0), dropout=0.0,
        faults=[(0, 0, "off-board"), (0, 0, "delete"), (0, 1, "off-board")],
    )
    def test_batch_pass_matches_per_frame_oracle(self, orientation, seed, n, jitter, dropout, faults):
        scene = SCENES[orientation]
        base = scene.base_pose
        yaw, dx, dy, dz = jitter
        pose = Pose6DOF(base.phi + yaw * DEG, base.theta, base.psi, base.dx + dx, base.dy + dy, base.dz + dz)
        rng = np.random.default_rng(seed)
        frames = []
        for k in range(n):
            f = simulate_scan(scene.board, scene.lidar, pose, seed=seed + k, scan_id=k,
                              afe=scene.afe, with_truth=False)
            frames.append(ScanFrame(k, f.beams[rng.random(len(f.beams)) >= dropout], f.pd_records))
        pds = scene.board.pd_modules
        for k, p, kind in faults:
            _inject(frames[k % n], pose, pds[p % len(pds)], kind, scene.lidar)
        table, scan, plane = batch_roi(frames, scene.board)
        rois = [preprocess.segment_target(f, scene.board.width, scene.board.height) for f in frames]

        keys, miss = extract_frame_features(FrameBatch.of_frames(frames), table, scan, plane, scene, {})
        misses = miss_reasons(miss, pds)
        assert len(misses) == n
        want = [frame_features(f, roi, plane, scene, scan=k) for k, (f, roi) in enumerate(zip(frames, rois))]
        assert keys.dtype == KEY_DTYPE
        assert keys.tolist() == np.concatenate([rows for rows, _ in want]).tolist()
        assert [list(m.items()) for m in misses] == [list(m.items()) for _, m in want]


def test_two_records_of_one_pd_in_a_frame_refused(tmp_path, horizontal_scene, horizontal_batch):
    """A frame holds one record per PD: a second one, here a dimmer copy,
    is refused by the calibration and the writer alike, naming its scan
    and PD."""
    frames = [copy.copy(f) for f in horizontal_batch[:3]]
    r = frames[1].pd_records[0]
    frames[1].pd_records = [*frames[1].pd_records, dataclasses.replace(r, element_voltages=r.element_voltages * 0.9)]
    message = f"^scan {frames[1].scan_id}: PD {r.pd_id!r} has more than one record$"
    with pytest.raises(ValueError, match=message):
        calibrate_frames(frames, horizontal_scene)
    with pytest.raises(ValueError, match=message):
        write_frames(frames, tmp_path / "frames.csv")


class TestBlindCalibration:
    """The pipeline is told nothing of the pose: frames taken away from the
    scene's base pose calibrate as well as frames taken at it."""

    SEED = 12

    def _joint_error(self, orientation, yaw_deg=0.0, dx_mm=0.0):
        scene = SCENES[orientation]
        base = scene.base_pose
        pose = Pose6DOF(base.phi + yaw_deg * DEG, base.theta, base.psi, base.dx + dx_mm * MM, base.dy, base.dz)
        frames = simulate_point(scene, pose, 50, self.SEED, with_truth=False)
        result = calibrate_frames(frames, scene)
        assert all(rep is not None for _, rep, _ in result.scan_reports)
        return result.joint.beta.as_vector() - pose.as_vector()

    @pytest.mark.parametrize("orientation", sorted(SCENES))
    @pytest.mark.parametrize("yaw_deg", [-3.0, -1.0, 1.0, 3.0])
    def test_yaw_offsets_solve(self, orientation, yaw_deg):
        err = self._joint_error(orientation, yaw_deg=yaw_deg)
        assert abs(err[0]) < 0.05 * DEG
        assert abs(err[3]) < 1.0 * MM

    @pytest.mark.parametrize("orientation", sorted(SCENES))
    @pytest.mark.parametrize(
        "offset", [{"dx_mm": -5.0}, {"dx_mm": 5.0}, {"yaw_deg": 0.75}], ids=["dx-5mm", "dx+5mm", "yaw+0.75deg"]
    )
    def test_off_grid_offsets_keep_dx(self, orientation, offset):
        # a 5 mm shift or a yaw between azimuth steps moves the struck
        # columns; the event times still name them
        assert abs(self._joint_error(orientation, **offset)[3]) < 1.0 * MM

    def test_half_period_clock_offset_misses(self, horizontal_scene, horizontal_batch):
        # a PD whose clock runs half a firing period late names no board
        # return that PD lit: every scan misses it for a clock offset
        late = "h_tl"
        frames = []
        for f in horizontal_batch[:12]:
            g = copy.copy(f)
            g.pd_records = [
                r if r.pd_id != late else dataclasses.replace(
                    r, sample_times=r.sample_times + horizontal_scene.lidar.firing_period / 2)
                for r in f.pd_records
            ]
            frames.append(g)
        result = calibrate_frames(frames, horizontal_scene)
        assert late not in result.models
        p = [pd.pd_id for pd in horizontal_scene.board.pd_modules].index(late)
        assert p not in result.keys["pd"]
        for ft in result.features:
            assert len(ft.key_beams) == 3
            assert "PD clock offset" in ft.misses[late]
        assert all(rep is not None for _, rep, _ in result.scan_reports)


class TestStageTimings:
    def test_every_stage_timed_within_the_wall_time(self, horizontal_scene, horizontal_batch, caplog):
        start = time.perf_counter()
        with caplog.at_level(logging.DEBUG, logger="pdcalib"):
            result = calibrate_frames(horizontal_batch[:8], horizontal_scene)
        wall = time.perf_counter() - start
        assert tuple(result.timings) == STAGES
        assert all(t >= 0.0 for t in result.timings.values())
        assert sum(result.timings.values()) <= wall
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "pdcalib"]
        assert sum(line.startswith("stage times (ms): segment ") for line in lines) == 1


class TestRowMedians:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_runs_match_lexsort_oracle(self, data):
        # runs of 1 and 2 returns, tied and signed-zero levels, several key
        # rows in one run, and always the first and the last run; runs past
        # 16 returns too, where an unstable sort would reorder equal levels
        sizes = data.draw(st.lists(st.one_of(st.integers(1, 6), st.integers(17, 120)), min_size=1, max_size=10))
        gaps = data.draw(st.lists(st.integers(1, 3), min_size=len(sizes), max_size=len(sizes)))
        row = np.repeat(np.cumsum(gaps), sizes)
        levels = st.sampled_from([-0.0, 0.0, 1.0, 2.5, 40.0, 255.0])
        refl = np.array(data.draw(st.lists(levels, min_size=len(row), max_size=len(row))), dtype=float)
        picks = data.draw(st.lists(st.integers(0, len(row) - 1), max_size=8))
        at = np.array([0, len(row) - 1, *picks], dtype=np.intp)
        got = _row_medians(refl, row, at)
        assert got.view(np.uint64).tolist() == row_medians_lexsort(refl, row, at).view(np.uint64).tolist()


# the voltages an edited event carries: its own event's, flat at 0 V (a dead
# module), U-shaped (a non-concave log fit), or a spot 40 mm along the module
# (a center outside the usable window)
EVENT_VOLTS = ("own", "dead", "non-concave", "outside")


def _event_volts(kind, rec, e, pd):
    x = pd.element_positions()[list(rec.sampled_channels)]
    if kind == "own":
        return rec.element_voltages[e]
    if kind == "dead":
        return np.zeros(len(x))
    if kind == "non-concave":
        return 1.0 + 16.0 * ((x - x.mean()) / (x.max() - x.min())) ** 2
    return 9.0 * np.exp(-((x - 40 * MM) ** 2) / (2 * (15 * MM) ** 2))


def _beam_at(frame, t, lidar):
    """Index of the frame's return that the firing time ``t`` names, or None."""
    cell = event_cell(t, lidar)
    b = frame.beams
    hit = np.flatnonzero((b["channel"] == cell[0]) & (b["azimuth_index"] == cell[1])) if cell else []
    return hit[0] if len(hit) else None


class TestKeyFirstFit:
    """Fitting each (scan, PD)'s first event in key order, and the others only
    where that fit is unusable, gives the key table and miss codes of fitting
    every joined event."""

    @settings(max_examples=40, deadline=None)
    @given(
        orientation=st.sampled_from(sorted(SCENES)),
        seed=st.integers(0, 2 ** 16),
        n=st.integers(1, 3),
        edits=st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 7),
                st.booleans(),  # drop an element: a second sample width in the batch
                st.lists(st.tuples(
                    st.integers(0, 9),           # which of the record's events
                    st.integers(-1, 1),          # the beam it names: that event's, or an azimuth neighbour
                    st.sampled_from(EVENT_VOLTS),
                    st.booleans(),               # tie its beam's level to the first edited event's
                ), min_size=1, max_size=5),
            ),
            max_size=6,
        ),
    )
    @example(orientation="horizontal", seed=1, n=2, edits=[
        (0, 0, False, [(0, 0, "dead", False), (0, 0, "own", False)]),
        (1, 1, True, [(0, 0, "outside", False), (0, 1, "own", True), (0, 0, "own", False)]),
        (0, 2, False, [(0, 0, "non-concave", False), (0, -1, "own", True), (0, 1, "own", True)]),
    ])
    def test_matches_fitting_every_event(self, orientation, seed, n, edits):
        scene = SCENES[orientation]
        lidar, pds = scene.lidar, scene.board.pd_modules
        frames = [
            simulate_scan(scene.board, lidar, scene.base_pose, seed=seed + k, scan_id=k, afe=scene.afe,
                          with_truth=False)
            for k in range(n)
        ]
        for k, p, narrow, events in edits:
            frame, pd = frames[k % n], pds[p % len(pds)]
            mine = [r for r in frame.pd_records if r.pd_id == pd.pd_id]
            if not mine or mine[-1].n_events == 0:
                continue
            rec = mine[-1]
            times, volts = [], []
            for e, shift, kind, tie in events:
                e %= rec.n_events
                times.append(rec.sample_times[e] + shift * lidar.firing_period)
                volts.append(_event_volts(kind, rec, e, pd))
                first, beam = _beam_at(frame, times[0], lidar), _beam_at(frame, times[-1], lidar)
                if tie and first is not None and beam is not None:
                    frame.beams["reflectivity"][beam] = frame.beams["reflectivity"][first]
            new = dataclasses.replace(rec, sample_times=np.array(times), element_voltages=np.array(volts))
            if narrow and len(new.sampled_channels) > 2:  # a record narrowed by an earlier edit keeps two
                new = dataclasses.replace(new, element_voltages=np.delete(new.element_voltages, 1, axis=1),
                                          sampled_channels=new.sampled_channels[:1] + new.sampled_channels[2:])
            frame.pd_records = [r for r in frame.pd_records if r.pd_id != pd.pd_id] + [new]
        table, scan, plane = batch_roi(frames, scene.board)
        keys, miss = extract_frame_features(FrameBatch.of_frames(frames), table, scan, plane, scene, {})
        want_keys, want_miss = frame_features_full_fit(frames, table, scan, plane, scene)
        assert keys.tobytes() == want_keys.tobytes()
        assert miss.tobytes() == want_miss.tobytes()


def _wall_batch(scene):
    """12 scans with a wall behind the board, whose returns segmentation drops."""
    return simulate_scans(scene.board, scene.lidar, scene.base_pose, seeds=range(500, 512), scan_ids=range(12),
                          afe=scene.afe, background_depth=0.4, background_reflectivity=55.0, with_truth=False)


class TestSharedRayGeometry:
    def test_background_wall_batch_matches_stage_oracle(self):
        # a wall behind the board: segmentation keeps a strict subset of the
        # returns, so the ROI gather of the shared geometry is exercised
        scene = SCENES["all"]
        frames = _wall_batch(scene)
        table, _, _ = batch_roi(frames, scene.board)
        assert len(table) < sum(len(f.beams) for f in frames)
        result = calibrate_frames(frames, scene)
        want = calibrate_frames_by_stage(frames, scene)
        assert bits([report for _, report, _ in result.scan_reports]) == bits(want.pop("scan_reports"))
        for name, value in want.items():
            assert bits(getattr(result, name)) == bits(value), name

    def test_background_wall_batch_through_a_file(self, tmp_path):
        # the wall batch written and read back calibrates bit for bit as the
        # batch in memory. The file holds azimuths in degrees, so the batch
        # compared is the one whose azimuths went through degrees alike; the
        # reader's batch holds exactly its tables
        scene = SCENES["all"]
        batch = _wall_batch(scene)
        path = tmp_path / "wall.csv"
        write_frames(batch, path)
        back = read_frames(path)
        beams = batch.beams.copy()
        beams["alpha"] = beams["alpha"] / DEG * DEG
        memory = FrameBatch(batch.scan_ids, beams, batch.bounds, batch.events)
        assert back.beams.tobytes() == memory.beams.tobytes()
        table, _, _ = batch_roi(back, scene.board)
        assert len(table) < len(back.beams)
        got, want = calibrate_frames(back, scene), calibrate_frames(memory, scene)
        for name in ("keys", "correspondences", "joint", "scan_reports"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name
