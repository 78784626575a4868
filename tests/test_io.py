import json

import numpy as np
import pytest

from pdcalib import io
from pdcalib.bench import make_bench_scene
from pdcalib.geometry import Pose6DOF
from pdcalib.io import FrameParseError, frames_to_text, read_frames, write_frames
from pdcalib.scene import AfeConfig, LidarModel, simulate_scan


@pytest.fixture(scope="module")
def small_batch(horizontal_scene):
    return [
        simulate_scan(
            horizontal_scene.board,
            horizontal_scene.lidar,
            horizontal_scene.base_pose,
            seed=40 + k,
            scan_id=k,
            afe=horizontal_scene.afe,
        )
        for k in range(3)
    ]


class TestSceneConfig:
    def test_round_trip(self, tmp_path, horizontal_scene):
        path = tmp_path / "scene.json"
        io.save_scene(horizontal_scene, path)
        loaded = io.load_scene(path)
        assert loaded.board == horizontal_scene.board
        assert loaded.lidar == horizontal_scene.lidar
        assert loaded.afe == horizontal_scene.afe
        assert loaded.base_pose == horizontal_scene.base_pose
        assert loaded.seed == horizontal_scene.seed

    def test_round_trip_nondefault(self, tmp_path):
        scene = make_bench_scene(
            "vertical",
            lidar=LidarModel(range_noise_sigma=0.004, azimuth_jitter_sigma_deg=0.01),
            afe=AfeConfig(voltage_noise_sigma=0.05),
            base_pose=Pose6DOF(0.01, -0.02, 0.005, -0.6, -2.4, 0.03),
            seed=99,
        )
        path = tmp_path / "scene.json"
        io.save_scene(scene, path)
        loaded = io.load_scene(path)
        assert loaded == scene

    @pytest.mark.parametrize(
        "key, value",
        [("beam_divergence_rad", -0.0078), ("firing_period_s", 0.0), ("pulse_burst_period_s", -1e-9)],
    )
    def test_bad_lidar_value_rejected(self, tmp_path, horizontal_scene, key, value):
        data = io.scene_to_dict(horizontal_scene)
        data["lidar"][key] = value
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="bad scene config"):
            io.load_scene(path)

    def test_bad_config_raises(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            io.load_scene(path)


class TestFrameSerialization:
    def test_round_trip(self, tmp_path, small_batch):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        loaded = read_frames(path)
        assert len(loaded) == len(small_batch)
        # serialization of the loaded frames is byte-identical
        assert frames_to_text(loaded) == frames_to_text(small_batch)
        for orig, back in zip(small_batch, loaded):
            assert back.scan_id == orig.scan_id
            assert len(back.beams) == len(orig.beams)
            assert len(back.pd_records) == len(orig.pd_records)
            for ro, rb in zip(
                sorted(orig.pd_records, key=lambda r: r.pd_id),
                sorted(back.pd_records, key=lambda r: r.pd_id),
            ):
                np.testing.assert_array_equal(ro.element_voltages, rb.element_voltages)
                np.testing.assert_array_equal(ro.sample_times, rb.sample_times)

    def test_deterministic_text(self, small_batch):
        assert frames_to_text(small_batch) == frames_to_text(small_batch)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("not-a-frame-file\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.field == "magic"

    def test_error_names_line_and_field(self, tmp_path, small_batch):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        beam_line = next(i for i, l in enumerate(lines) if l.startswith("beam,"))
        parts = lines[beam_line].split(",")
        parts[6] = "abc"  # range_m
        lines[beam_line] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(bad)
        assert err.value.line_no == beam_line + 1
        assert err.value.field == "range_m"
        assert str(bad) in str(err.value)

    @pytest.mark.parametrize(
        "field, index, token",
        [
            ("range_m", 6, "0.0"),
            ("range_m", 6, "-2.5"),
            ("range_m", 6, "nan"),
            ("omega_deg", 5, "90.0"),
            ("omega_deg", 5, "-91.5"),
        ],
    )
    def test_bad_beam_value_rejected(self, tmp_path, small_batch, field, index, token):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("beam,"))
        parts = lines[i].split(",")
        parts[index] = token
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_frames(path)

    def test_duplicate_beam_in_scan_rejected(self, tmp_path, small_batch):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("beam,"))
        parts = lines[i].split(",")
        parts[7] = "99.0"  # same scan, channel and azimuth index; other reflectivity
        lines.insert(i + 1, ",".join(parts))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_frames(path)

    def test_pd_rows_of_a_scan_without_beams_rejected(self, tmp_path, small_batch):
        # keep only scan 0's beam rows: the PD rows of scans 1 and 2 belong
        # to no frame and must not vanish silently
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = [
            line for line in path.read_text().splitlines()
            if not line.startswith("beam,") or line.split(",")[1] == "0"
        ]
        path.write_text("\n".join(lines) + "\n")
        orphan = next(
            k for k, line in enumerate(lines)
            if line.startswith("pd,") and line.split(",")[2] != "0"
        )
        with pytest.raises(FrameParseError, match="scan 1") as err:
            read_frames(path)
        assert err.value.line_no == orphan + 1
        assert err.value.field == "scan_id"

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("sampled_channels", lambda parts: parts[:6] + ["0|6|10|15"] + parts[7:]),
            ("noise_floor_v", lambda parts: parts[:5] + ["0.2"] + parts[6:]),
            ("sampled_channels", lambda parts: parts[:6] + ["0|5|10"] + parts[7:10]),
        ],
        ids=["other channels", "other noise floor", "shorter channel list"],
    )
    def test_pd_row_disagreeing_with_its_record_rejected(self, tmp_path, small_batch, field, edit):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        # second row of a (scan, PD) record: the record's first row set the
        # channels and the noise floor
        i = next(
            k for k in range(1, len(lines))
            if lines[k].startswith("pd,") and lines[k - 1].split(",")[:3] == lines[k].split(",")[:3]
        )
        lines[i] = ",".join(edit(lines[i].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.line_no == i + 1
        assert err.value.field == field
        assert f"{path}:{i + 1}:" in str(err.value)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(io.FRAME_MAGIC + "\nbeam,0,1\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.field == "beam"

    def test_voltage_count_mismatch(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(
            io.FRAME_MAGIC + "\npd,h,0,0,0.0,0.1,0|5|10|15,1.0,2.0\n"
        )
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.field == "voltages"

    def test_unknown_record(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(io.FRAME_MAGIC + "\nwhat,1,2\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.field == "record"


class TestDumps:
    def test_correspondence_dump(self, horizontal_scene, horizontal_result):
        text = io.correspondence_dump(horizontal_result, horizontal_scene.board)
        lines = text.strip().splitlines()
        assert lines[0] == "pd_id,scan_id,alpha_deg,mu_mm,op_x_m,op_y_m,op_z_m,inlier"
        assert len(lines) == 1 + sum(
            len(v[0]) for v in horizontal_result.pairs.values()
        )
        assert all(line.split(",")[7] in ("0", "1") for line in lines[1:])

    def test_solve_report_text(self, horizontal_result):
        text = io.solve_report_text(horizontal_result.joint)
        assert "correspondences : 200" in text
        assert "yaw" in text and "dx" in text

    def test_residual_table(self, horizontal_result):
        text = io.residual_table(horizontal_result.joint)
        lines = text.strip().splitlines()
        assert lines[0] == "index,res_x_mm,res_y_mm,res_z_mm"
        assert len(lines) == 1 + horizontal_result.joint.correspondence_count
