import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import read_frames_reference
from pdcalib import io
from pdcalib.afe import TiaParams
from pdcalib.bench import DEFAULT_BASE_POSE, Scene, make_bench_scene
from pdcalib.geometry import DEG, Pose6DOF
from pdcalib.io import FrameParseError, frames_to_text, read_frames, write_frames
from pdcalib.scene import AfeConfig, BoardModel, LidarModel, PdPlacement, ScanFrame, simulate_scan

INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
HALF_PI_BELOW = math.nextafter(math.pi / 2, 0.0)


def _floats(lo, hi, *edges):
    """Floats in [lo, hi) (17 significant digits, subnormals) plus edge values."""
    return st.floats(lo, hi, exclude_max=True, allow_subnormal=True) | st.sampled_from(edges)


@st.composite
def _scan_frames(draw):
    keys = draw(st.lists(st.tuples(INT64, INT64), min_size=1, max_size=12, unique=True))
    beams = [
        (
            draw(_floats(-HALF_PI_BELOW, math.pi / 2, -HALF_PI_BELOW, HALF_PI_BELOW, -0.0)),
            draw(_floats(0.0, 2 * math.pi, math.nextafter(2 * math.pi, 0.0), 5e-324)),
            draw(_floats(5e-324, 1e300, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)),
            channel,
            azimuth_index,
            draw(st.floats(allow_nan=False, allow_infinity=False)),
        )
        for channel, azimuth_index in keys
    ]
    return ScanFrame(scan_id=draw(INT64), beams=beams, pd_records=[])


def _mid_beam_row(lines):
    rows = [k for k, line in enumerate(lines) if line.startswith("beam,")]
    return rows[len(rows) // 2]


def _frame_bits(frames) -> list:
    return [
        (
            f.scan_id,
            f.beams.tobytes(),
            [
                (
                    r.pd_id,
                    r.scan_id,
                    r.element_voltages.dtype.str,
                    r.element_voltages.shape,
                    r.element_voltages.tobytes(),
                    r.sample_times.tobytes(),
                    r.sampled_channels,
                    r.noise_floor,
                )
                for r in f.pd_records
            ],
        )
        for f in frames
    ]


def _outcome(reader, path):
    """The frames' bits, or the error's type, line, field and message."""
    try:
        return _frame_bits(reader(path))
    except ValueError as exc:
        return type(exc), getattr(exc, "line_no", None), getattr(exc, "field", None), str(exc)


TOKENS = ["abc", "1_0", "5.0", "\u0662"]


@st.composite
def _rewritten_frame_text(draw, text):
    """A written frame file reshuffled into other valid forms, plus at most one fault.

    Beam and PD rows are interleaved in a random order; blank lines,
    comments and maybe a bare ``beam`` line are inserted; some lines are
    padded with whitespace or end in CRLF. The fault, if any, sets one
    field of one row to a token the reader must refuse or read alike, drops
    or adds a field, or repeats a PD row.
    """
    magic, *body = text.splitlines()
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rnd.shuffle(body)
    fault = draw(st.sampled_from(["none", "missing field", "extra field", "repeated event"] + TOKENS))
    kind = draw(st.sampled_from(["beam,", "pd,"]))  # PD rows are few: pick the kind first
    k = rnd.choice([k for k, row in enumerate(body) if row.startswith(kind)])
    parts = body[k].split(",")
    i = rnd.randrange(len(parts))
    if fault == "missing field":
        del parts[i]
    elif fault == "extra field":
        parts.insert(i, "1.0")
    elif fault in TOKENS:
        parts[i] = fault
    body[k] = ",".join(parts)
    if fault == "repeated event":
        body.insert(rnd.randrange(len(body) + 1), rnd.choice([row for row in body if row.startswith("pd,")]))
    bare_beam = draw(st.sampled_from([False, False, True]))
    extras = ["", "#", "# beam,scan_id", "   "] + (["beam"] if bare_beam else [])
    for line in extras:
        body.insert(rnd.randrange(len(body) + 1), line)
    lines = [magic] + [
        rnd.choice(["", " ", "\t "]) + line + rnd.choice(["", " ", " \t"]) if rnd.random() < 0.1 else line
        for line in body
    ]
    return "".join(line + rnd.choice(["\n", "\r\n"]) for line in lines)


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

    @pytest.mark.parametrize(
        "edit",
        [
            lambda pds: pds.__setitem__(1, {**pds[1], "pd_id": pds[0]["pd_id"]}),
            lambda pds: pds[0].__setitem__("pd_id", "h,tl"),
        ],
        ids=["repeated id", "id with a comma"],
    )
    def test_bad_pd_id_rejected(self, tmp_path, horizontal_scene, edit):
        data = io.scene_to_dict(horizontal_scene)
        edit(data["board"]["pd_modules"])
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="bad scene config .*PD id"):
            io.load_scene(path)

    def test_bad_config_raises(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            io.load_scene(path)

    def test_absent_keys_take_the_model_defaults(self):
        pd = PdPlacement(pd_id="a", offset=(0.1, -0.1))
        data = {"board": {"pd_modules": [{"pd_id": "a", "offset_m": [0.1, -0.1]}]}}
        assert io.scene_from_dict(data) == Scene(
            board=BoardModel(pd_modules=(pd,)),
            lidar=LidarModel(),
            afe=AfeConfig(tia=TiaParams()),
            base_pose=DEFAULT_BASE_POSE,
            seed=0,
        )
        # a base pose given in part keeps the bench's pose for the rest
        data["base_pose"] = {"phi_deg": 2, "dz_m": 0.1}
        pose = io.scene_from_dict(data).base_pose
        assert pose == Pose6DOF(2 * DEG, 0.0, 0.0, DEFAULT_BASE_POSE.dx, DEFAULT_BASE_POSE.dy, 0.1)


def test_bench_scene_loads_no_json_io_or_scipy():
    # the config reader (and json with it) loads only when a file is read
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, pdcalib\n"
        "pdcalib.make_bench_scene('all')\n"
        "print(sorted(m for m in sys.modules if m in ('json', 'pdcalib.io') or m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


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

    @pytest.mark.parametrize(
        "field, token",
        [(field, "abc") for field in io.BEAM_FIELDS]
        + [(field, "5.0") for field in ("scan_id", "channel", "azimuth_index")]
        + [("range_m", "1_0"), ("channel", "1_0"), ("reflectivity", "\u0661\u0660")],
    )
    def test_error_names_line_and_field(self, tmp_path, small_batch, field, token):
        # a row in the middle of the beam block, so the line number is not
        # simply the first beam row's
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = _mid_beam_row(lines)
        parts = lines[i].split(",")
        parts[1 + io.BEAM_FIELDS.index(field)] = token
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.line_no == i + 1
        assert err.value.field == field
        assert f"{path}:{i + 1}:" in str(err.value)

    @pytest.mark.parametrize(
        "edit", [lambda parts: parts + ["1.0"], lambda parts: parts[:-1]], ids=["9 fields", "7 fields"]
    )
    def test_beam_row_with_wrong_field_count_rejected(self, tmp_path, small_batch, edit):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = _mid_beam_row(lines)
        lines[i] = ",".join(edit(lines[i].split(",")))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.line_no == i + 1
        assert err.value.field == "beam"

    @pytest.mark.parametrize("pd_first", [False, True], ids=["beam row first", "pd row first"])
    def test_first_malformed_line_is_named(self, tmp_path, pd_first):
        beam = "beam,0,5,22,4.4,-5.0,abc,10.7"
        pd = "pd,h_tl,0,0,abc,0.1,0|5|10|15,2.66,1.11,0.146,0.0"
        rows = [pd, beam] if pd_first else [beam, pd]
        path = tmp_path / "f.csv"
        path.write_text("\n".join([io.FRAME_MAGIC, "beam,0,5,21,4.2,-5.0,2.5,10.7"] + rows) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.line_no == 3
        assert err.value.field == ("time_s" if pd_first else "range_m")

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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("field", ["azimuth_deg", "omega_deg", "range_m", "reflectivity"])
    def test_non_finite_beam_value_names_line_and_field(self, tmp_path, small_batch, field, token):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = _mid_beam_row(lines)
        parts = lines[i].split(",")
        parts[1 + io.BEAM_FIELDS.index(field)] = token
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError, match="not a finite number") as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (i + 1, field)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("field, index", [("time_s", 4), ("noise_floor_v", 5), ("v2", 9)])
    def test_non_finite_pd_value_names_line_and_field(self, tmp_path, small_batch, field, index, token):
        # the last row of a record, so an equal noise floor on its earlier
        # rows does not decide the error
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(
            k for k in range(1, len(lines) - 1)
            if lines[k].startswith("pd,") and lines[k + 1].split(",")[:3] != lines[k].split(",")[:3]
        )
        for k in ([i] if field != "noise_floor_v" else
                  [k for k, line in enumerate(lines) if line.split(",")[:3] == lines[i].split(",")[:3]]):
            parts = lines[k].split(",")
            parts[index] = token
            lines[k] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError, match="not a finite number") as err:
            read_frames(path)
        first = min(k for k, line in enumerate(lines) if token in line.split(","))
        assert (err.value.line_no, err.value.field) == (first + 1, field)

    def test_non_finite_pd_row_above_a_malformed_line_comes_first(self, tmp_path):
        pd = "pd,h_tl,0,{event},{time},0.1,0|5|10|15,2.66,1.11,0.146,0.0"
        path = tmp_path / "f.csv"
        path.write_text("\n".join([
            io.FRAME_MAGIC, "beam,0,5,21,4.2,-5.0,2.5,10.7",
            pd.format(event=0, time="nan"), pd.format(event=1, time="0.5"), "beam,0,5,22,4.4,-5.0,abc,10.7",
        ]) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (3, "time_s")
        path.write_text(path.read_text().replace(",0,1,0.5,", ",0,0,0.5,"))
        with pytest.raises(FrameParseError) as err:  # a repeated event below it
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (3, "time_s")

    def test_voltage_off_the_rails_names_line_and_field(self, tmp_path, small_batch):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("pd,"))
        parts = lines[i].split(",")
        parts[8] = "10.5"
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError, match="outside the 0-10 V supply range") as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (i + 1, "v1")

    @pytest.mark.parametrize(
        "field, token", [("channel", "1_0"), ("azimuth_index", str(2 ** 70)), ("reflectivity", "abc")]
    )
    def test_late_bad_beam_row_found_in_log_calls(self, tmp_path, monkeypatch, small_batch, field, token):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = max(k for k, line in enumerate(lines) if line.startswith("beam,"))
        parts = lines[i].split(",")
        parts[1 + io.BEAM_FIELDS.index(field)] = token
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        expected = _outcome(read_frames_reference, path)
        assert expected[1:3] == (i + 1, field)
        calls = []
        loadtxt = io._loadtxt

        def counting(rows, dtype):
            calls.append(len(rows))
            return loadtxt(rows, dtype)

        monkeypatch.setattr(io, "_loadtxt", counting)
        assert _outcome(read_frames, path) == expected
        n = sum(line.startswith("beam,") for line in lines)
        assert len(calls) <= 2 * math.ceil(math.log2(n)) + 4
        assert sum(calls) <= 3 * n

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

    def test_pd_event_not_an_integer_rejected(self, tmp_path, small_batch):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("pd,"))
        parts = lines[i].split(",")
        parts[3] = "zz"
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert err.value.line_no == i + 1
        assert err.value.field == "event"

    @pytest.mark.parametrize(
        "field, index, token",
        [
            ("scan_id", 2, "0_0"),
            ("event", 3, "0_0"),
            ("time_s", 4, "0.0_1"),
            ("noise_floor_v", 5, "0.1_0"),
            ("sampled_channels", 6, "0|5_0|10|15"),
            ("v0", 7, "\u0662.0"),
        ],
        ids=["scan_id", "event", "time_s", "noise_floor_v", "sampled_channels", "v0"],
    )
    def test_pd_field_not_plain_ascii_rejected(self, tmp_path, small_batch, field, index, token):
        # Python's int() and float() would read each of these tokens
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("pd,"))
        parts = lines[i].split(",")
        parts[index] = token
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError, match="plain ASCII") as err:
            read_frames(path)
        assert err.value.line_no == i + 1
        assert err.value.field == field

    def test_repeated_pd_event_rejected(self, tmp_path, small_batch):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("pd,"))
        lines.insert(i + 1, lines[i])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError, match=f"repeats line {i + 1}$") as err:
            read_frames(path)
        assert err.value.line_no == i + 2
        assert err.value.field == "event"

    @settings(max_examples=40, deadline=None)
    @given(frames=st.lists(_scan_frames(), max_size=3, unique_by=lambda f: f.scan_id))
    def test_beams_read_back_bit_for_bit(self, tmp_path_factory, frames):
        """The reader returns the written bits; angles pass through degrees."""
        path = tmp_path_factory.mktemp("frames") / "frames.csv"
        write_frames(frames, path)
        expected = []
        for frame in sorted(frames, key=lambda f: f.scan_id):
            b = frame.beams[np.lexsort((frame.beams["azimuth_index"], frame.beams["channel"]))]
            b["omega"] = b["omega"] / DEG * DEG
            b["alpha"] = b["alpha"] / DEG * DEG
            expected.append(ScanFrame(frame.scan_id, b, []).beams)  # wraps alpha as the reader does
        back = read_frames(path)
        assert [f.scan_id for f in back] == sorted(f.scan_id for f in frames)
        assert [f.beams.tobytes() for f in back] == [b.tobytes() for b in expected]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_line_by_line_reader(self, tmp_path_factory, small_batch, data):
        """The same frames bit for bit, or the same error on the same line and field."""
        text = data.draw(_rewritten_frame_text(frames_to_text(small_batch[:2])))
        path = tmp_path_factory.mktemp("frames") / "frames.csv"
        path.write_bytes(text.encode())
        assert _outcome(read_frames, path) == _outcome(read_frames_reference, path)

    def test_interleaved_scans_keep_file_order(self, tmp_path):
        rows = [
            "beam,1,3,7,1.0,0.0,2.0,10.0",
            "beam,0,5,9,1.0,0.0,2.0,10.0",
            "beam,1,0,2,1.0,0.0,2.0,10.0",
            "beam,0,1,4,1.0,0.0,2.0,10.0",
            "beam,1,3,1,1.0,0.0,2.0,10.0",
            "beam,0,5,3,1.0,0.0,2.0,10.0",
        ]
        path = tmp_path / "f.csv"
        path.write_text("\n".join([io.FRAME_MAGIC] + rows) + "\n")
        frames = read_frames(path)
        assert [f.scan_id for f in frames] == [0, 1]
        keys = [list(zip(f.beams["channel"].tolist(), f.beams["azimuth_index"].tolist())) for f in frames]
        # each scan gets its own rows, which its frame holds in (channel, azimuth index) order
        assert keys == [[(1, 4), (5, 3), (5, 9)], [(0, 2), (3, 1), (3, 7)]]

    def test_interleaved_pd_rows_come_back_in_pd_id_order(self, tmp_path):
        rows = [
            "beam,0,0,0,1.0,0.0,2.0,10.0",
            "beam,1,0,0,1.0,0.0,2.0,10.0",
            "pd,v,1,0,0.5,0.1,0|5,1.0,2.0",
            "pd,h2,0,0,0.3,0.1,0|5,1.0,2.0",
            "pd,h1,1,0,0.2,0.1,0|5,5.0,6.0",
            "pd,h2,0,1,0.1,0.1,0|5,3.0,4.0",
            "pd,a,0,0,0.4,0.1,0|5,7.0,8.0",
            "pd,h1,1,1,0.1,0.1,0|5,1.5,2.5",
        ]
        path = tmp_path / "f.csv"
        path.write_text("\n".join([io.FRAME_MAGIC] + rows) + "\n")
        frames = read_frames(path)
        assert [f.scan_id for f in frames] == [0, 1]
        assert [[r.pd_id for r in f.pd_records] for f in frames] == [["a", "h2"], ["h1", "v"]]
        h2, h1 = frames[0].pd_records[1], frames[1].pd_records[0]
        assert h2.sample_times.tolist() == [0.1, 0.3]
        assert h2.element_voltages.tolist() == [[3.0, 4.0], [1.0, 2.0]]
        assert h1.sample_times.tolist() == [0.1, 0.2]
        assert h1.element_voltages.tolist() == [[1.5, 2.5], [5.0, 6.0]]

    @pytest.mark.filterwarnings("error")
    def test_magic_only_file_has_no_frames(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(io.FRAME_MAGIC + "\n# beam," + ",".join(io.BEAM_FIELDS) + "\n")
        assert read_frames(path) == []

    @pytest.mark.filterwarnings("error")
    def test_pd_only_file_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(io.FRAME_MAGIC + "\npd,h,0,0,0.0,0.1,0|5,1.0,2.0\n")
        with pytest.raises(FrameParseError, match="no beam rows") as err:
            read_frames(path)
        assert err.value.line_no == 2

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
        assert len(lines) == 1 + len(horizontal_result.keys)
        assert all(line.split(",")[7] in ("0", "1") for line in lines[1:])

    def test_solve_report_text(self, horizontal_result):
        text = io.solve_report_text(horizontal_result.joint)
        assert "correspondences : 200" in text
        assert "yaw" in text and "dx" in text

    def test_residual_table_prints_no_negative_zero(self):
        # the board-normal residual is 0 up to rounding noise of either sign
        report = SimpleNamespace(residuals=np.array([[1.25e-3, -1e-15, 1e-15], [-4e-9, 0.0, -2.5e-6]]))
        assert io.residual_table(report).splitlines()[1:] == [
            "0,1.25000,0.00000,0.00000",
            "1,0.00000,0.00000,-0.00250",
        ]

    def test_residual_table(self, horizontal_result):
        text = io.residual_table(horizontal_result.joint)
        lines = text.strip().splitlines()
        assert lines[0] == "index,res_x_mm,res_y_mm,res_z_mm"
        assert len(lines) == 1 + horizontal_result.joint.correspondence_count
