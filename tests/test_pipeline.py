import dataclasses
import math

import numpy as np
import pytest

from pdcalib import beam_center, preprocess
from pdcalib.bench import make_bench_scene
from pdcalib.pipeline import (
    PipelineError,
    board_plane,
    calibrate_frames,
    extract_frame_features,
)
from pdcalib.scene import BoardModel, ScanFrame, simulate_scan
from oracles import guo_fit_scalar

DEG = math.pi / 180.0
MM = 1e-3


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
        for frame, ft in zip(horizontal_batch, horizontal_result.features):
            for pd in horizontal_scene.board.pd_modules:
                beam = ft.key_beams.get(pd.pd_id)
                if beam is None:
                    continue
                _, _, _, ch, az, _ = frame.beam_arrays()
                bi = np.flatnonzero((ch == beam.channel) & (az == beam.azimuth_index))[0]
                truth_x = frame.truth.board_positions[bi][0]
                claim = (
                    pd.offset[0] + ft.key_centers[pd.pd_id] - pd.center_local
                )
                errs.append(abs(claim - truth_x))
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

    def test_empty_batch_fails(self, horizontal_scene):
        with pytest.raises(PipelineError):
            calibrate_frames([], horizontal_scene)

    def test_small_batch_solves_every_scan(self, horizontal_scene, horizontal_batch):
        result = calibrate_frames(horizontal_batch[:8], horizontal_scene)
        assert sum(1 for _, rep, _ in result.scan_reports if rep is not None) == 8

    def test_segments_each_frame_once(self, horizontal_scene, horizontal_batch, monkeypatch):
        calls = []
        segment = preprocess.segment_target

        def counted(frame, *args, **kwargs):
            calls.append(frame.scan_id)
            return segment(frame, *args, **kwargs)

        monkeypatch.setattr(preprocess, "segment_target", counted)
        frames = horizontal_batch[:8]
        calibrate_frames(frames, horizontal_scene)
        assert sorted(calls) == [f.scan_id for f in frames]

    def test_feature_extraction_misses_recorded(self, horizontal_scene, horizontal_batch):
        frame = horizontal_batch[0]
        roi = preprocess.segment_target(frame, horizontal_scene.board.width, horizontal_scene.board.height)
        plane = board_plane([frame], [roi])
        ft = extract_frame_features(frame, roi, plane, horizontal_scene, horizontal_scene.base_pose)
        assert set(ft.key_beams) == {pd.pd_id for pd in horizontal_scene.board.pd_modules}
        assert ft.misses == {}
        assert ft.roi_count > 500

    def test_key_centers_match_per_event_fits(self, horizontal_scene, horizontal_batch, horizontal_result):
        # the batched fit over a frame's events picks the same key center,
        # bit for bit, as the per-event reference loop
        pds = {pd.pd_id: pd for pd in horizontal_scene.board.pd_modules}
        for frame, ft in zip(horizontal_batch[:10], horizontal_result.features):
            assert ft.key_centers
            for rec in frame.pd_records:
                if rec.pd_id not in ft.key_centers:
                    continue
                positions = pds[rec.pd_id].element_positions()[list(rec.sampled_channels)]
                centers = []
                for _, volts in beam_center.beams_on_pd(rec, horizontal_scene.lidar.firing_period):
                    mu = guo_fit_scalar(
                        *beam_center.augment_samples(positions, volts), noise_floor=rec.noise_floor
                    )
                    centers.append(math.nan if mu is None else mu)
                key = beam_center.select_key_beam(centers)
                assert ft.key_centers[rec.pd_id] == centers[key]

    def test_unsegmentable_frame_names_its_scan(self, horizontal_scene, horizontal_batch):
        frame = horizontal_batch[3]
        stub = ScanFrame(scan_id=frame.scan_id, beams=frame.beams[:30], pd_records=[])
        with pytest.raises(PipelineError, match=r"\[segmentation\] scan 3: ") as err:
            calibrate_frames([horizontal_batch[0], stub], horizontal_scene)
        assert err.value.stage == "segmentation"

    def test_three_point_scans_flagged_low_confidence(self, horizontal_scene, horizontal_batch):
        # drop one module's voltages: 3 correspondences still solve, flagged
        import copy

        frames = []
        for f in horizontal_batch[:8]:
            g = copy.copy(f)
            g.pd_records = [r for r in f.pd_records if r.pd_id != "h_br"]
            frames.append(g)
        result = calibrate_frames(frames, horizontal_scene)
        notes = [note for _, rep, note in result.scan_reports if rep is not None]
        assert all(n == "low-confidence (3 points)" for n in notes)
