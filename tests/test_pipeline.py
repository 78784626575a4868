import copy
import dataclasses
import logging
import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from pdcalib import beam_center, preprocess
from pdcalib.bench import make_bench_scene
from pdcalib.correspondence import KEY_DTYPE
from pdcalib.geometry import Pose6DOF, polar_to_cartesian_array, pose_to_matrix, transform_array
from pdcalib.harness import simulate_point
from pdcalib.pipeline import (
    PipelineError, board_plane, calibrate_frames, extract_frame_features, miss_reasons,
)
from pdcalib.scene import BoardModel, PdPlacement, ScanFrame, simulate_scan
from pdcalib.solver import DegenerateCorrespondences
from oracles import event_cell, frame_features, guo_fit_scalar

DEG = math.pi / 180.0
MM = 1e-3


def batch_roi(frames, board):
    """The ROI table of a batch and the frame of each row, from one
    segmentation pass as ``calibrate_frames`` makes it."""
    beams = np.concatenate([f.beams for f in frames])
    sizes = [len(f.beams) for f in frames]
    rows = preprocess.segment_frames(beams, sizes, board.width, board.height)
    return beams[rows], np.repeat(np.arange(len(frames)), sizes)[rows]


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

        def counted(beams, sizes, *args, **kwargs):
            calls.append(list(sizes))
            return segment(beams, sizes, *args, **kwargs)

        monkeypatch.setattr(preprocess, "segment_frames", counted)
        monkeypatch.setattr(preprocess, "segment_target", None)
        frames = horizontal_batch[:8]
        calibrate_frames(frames, horizontal_scene)
        assert calls == [[len(f.beams) for f in frames]]

    def test_feature_extraction_misses_recorded(self, horizontal_scene, horizontal_batch):
        frames = horizontal_batch[:4]
        board = horizontal_scene.board
        table, scan = batch_roi(frames, board)
        plane = board_plane(table)
        keys, miss = extract_frame_features(frames, table, scan, plane, horizontal_scene)
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
            mu = guo_fit_scalar(
                *beam_center.augment_samples(positions, rec.element_voltages[e]),
                noise_floor=rec.noise_floor,
            )
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


RECORD_FAULTS = ("delete", "flat-volts", "clock", "drop-channel", "same-time", "no-events", "off-board", "repeat")


def _faulty_records(r, kind, lidar):
    """The records that replace PD record ``r`` under a record fault."""
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
        return [r, dataclasses.replace(r, pd_id="off-board")]
    if kind == "repeat":  # the later record, dimmer, is the one that counts
        return [r, dataclasses.replace(r, element_voltages=r.element_voltages * 0.9)]
    return [r]


def _inject(frame, pose, pd, kind, lidar):
    """One fault on one PD of a frame: its record deleted, its voltages flat
    at the noise floor, its clock half a firing period late, one element
    unsampled, two events at one time, no events, a copy under an id not on
    the board, the record repeated, the beams around it flattened to their
    row median, or its two brightest row beams tied at one level."""
    if kind in RECORD_FAULTS:
        frame.pd_records = [
            out for r in frame.pd_records for out in (_faulty_records(r, kind, lidar) if r.pd_id == pd.pd_id else [r])
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
        table, scan = batch_roi(frames, scene.board)
        plane = board_plane(table)
        rois = [preprocess.segment_target(f, scene.board.width, scene.board.height) for f in frames]

        keys, miss = extract_frame_features(frames, table, scan, plane, scene)
        misses = miss_reasons(miss, pds)
        assert len(misses) == n
        want = [frame_features(f, roi, plane, scene, scan=k) for k, (f, roi) in enumerate(zip(frames, rois))]
        assert keys.dtype == KEY_DTYPE
        assert keys.tolist() == np.concatenate([rows for rows, _ in want]).tolist()
        assert [list(m.items()) for m in misses] == [list(m.items()) for _, m in want]


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
