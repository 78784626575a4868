import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import bits, frames_to_text_reference, read_frames_reference
from pdcalib import io
from pdcalib.afe import EventTable, PdSignalRecord, TiaParams
from pdcalib.bench import DEFAULT_BASE_POSE, Scene, make_bench_scene
from pdcalib.geometry import DEG, Pose6DOF
from pdcalib.harness import POINT_FIELDS, simulate_point
from pdcalib.io import FrameParseError, frames_to_text, read_frames, write_frames
from pdcalib.pipeline import calibrate_frames
from pdcalib.scene import (
    BEAM_DTYPE, AfeConfig, BoardModel, FrameBatch, LidarModel, PdPlacement, ScanFrame, simulate_scan,
)

GOLDEN = Path(__file__).parent / "golden"

INT64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
HALF_PI_BELOW = math.nextafter(math.pi / 2, 0.0)


def _floats(lo, hi, *edges):
    """Floats in [lo, hi) (17 significant digits, subnormals) plus edge values."""
    return st.floats(lo, hi, exclude_max=True, allow_subnormal=True) | st.sampled_from(edges)


@st.composite
def _batch(draw, frame):
    """0 to 3 frames, each drawn by ``frame(scan_id)``, with strictly
    ascending scan ids, as a frame file holds them."""
    return [draw(frame(scan_id)) for scan_id in sorted(draw(st.sets(INT64, max_size=3)))]


@st.composite
def _scan_frames(draw, scan_id):
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
    return ScanFrame(scan_id=scan_id, beams=beams, pd_records=[])


# elevations that the written frames share between rows, so that rows form
# runs; 0.0 and -0.0 are equal but print apart
ELEVATIONS = [0.0, -0.0, 0.1, -0.25, -HALF_PI_BELOW]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _signal_record(draw):
    """A valid PD record of 1 to 5 sampled channels and 0 to 3 events, with a
    pd_id that may hold ``%``."""
    channels = tuple(sorted(draw(st.sets(st.integers(0, 99), min_size=1, max_size=5))))
    n = draw(st.integers(0, 3))
    volts = [[draw(st.floats(0.0, 10.0)) for _ in channels] for _ in range(n)]
    return PdSignalRecord(
        pd_id=draw(st.text(max_size=6) | st.sampled_from(["%", "%d", "%%", "h_%r%s"])),
        element_voltages=np.array(volts, dtype=float).reshape(n, len(channels)),
        sample_times=np.array([draw(FINITE) for _ in range(n)], dtype=float),
        sampled_channels=channels,
        noise_floor=draw(FINITE),
    )


@st.composite
def _written_frame(draw, scan_id):
    """A frame of 1 to 30 returns on a few channels, whose elevation changes
    inside a channel and may recur in runs that are not adjacent, and 0 to 4
    PD records of distinct pd_ids."""
    keys = draw(st.lists(st.tuples(st.sampled_from([-3, 0, 7, 2 ** 40]), INT64), min_size=1, max_size=30,
                         unique=True))
    beams = [
        (
            draw(st.sampled_from(ELEVATIONS) | _floats(-HALF_PI_BELOW, math.pi / 2, HALF_PI_BELOW)),
            draw(_floats(0.0, 2 * math.pi, 5e-324)),
            draw(_floats(5e-324, 1e300, 1.7976931348623157e308)),
            channel,
            azimuth_index,
            draw(FINITE),
        )
        for channel, azimuth_index in keys
    ]
    records = draw(st.lists(_signal_record(), max_size=4, unique_by=lambda r: r.pd_id))
    return ScanFrame(scan_id=scan_id, beams=beams, pd_records=records)


def _record(pd_id, channels, n):
    return PdSignalRecord(pd_id, np.full((n, len(channels)), 0.5), np.arange(n) * 1e-3, channels)


# the writer's edge cases, by scan id as a file holds them: the extreme scan
# ids, first and last; a frame with one return; a channel whose elevation
# changes between its rows, -0.0 and 0.0 among them, and recurs in runs that
# are not adjacent; PD records with no events and of several sample widths
EDGE_FRAMES = [
    ScanFrame(scan_id=-(2 ** 63), beams=[(0.0, 1.0, 2.0, 0, 0, 10.0)], pd_records=[]),
    ScanFrame(scan_id=-1, beams=[(0.1, 1.0, 2.0, 3, 4, 10.0)], pd_records=[]),
    ScanFrame(
        scan_id=5,
        beams=[(omega, 1.0 + k, 2.0, 2, k, 10.0) for k, omega in enumerate([0.1, 0.1, -0.0, 0.0, 0.1, -0.0])]
        + [(0.1, 1.0, 2.0, 3, 0, 10.0)],
        pd_records=[],
    ),
    ScanFrame(
        scan_id=2 ** 63 - 1,
        beams=[(0.0, 1.0, 2.0, 0, 0, 10.0)],
        pd_records=[_record("b", (0, 5), 0), _record("a%d", (0,), 2), _record("c", (0, 1, 2, 3, 4), 3)],
    ),
]


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


# tokens the reader must refuse or read alike in any field of either row
# kind, number forms that numpy's reader and int() / float() might read
# apart among them
TOKENS = ["abc", "1_0", "5.0", "\u0662", "15|10|5|0", "+5", "05", "5e0", "0x10", "-0.0", "nan", "inf", "1e999"]
# characters that numpy's reader strips from a number as spaces
PADDING = ["\xa0", "\u2003", "\x1f"]
# wider than any field of the rows it joins
LONG_PD_ID = "h_" * 150
FAULTS = ["none", "missing field", "extra field", "repeated event", "long pd_id", "padded"] + TOKENS


@st.composite
def _rewritten_frame_text(draw, text):
    """A written frame file reshuffled into other valid forms, plus one to three faults.

    Beam and PD rows are interleaved in a random order; blank lines,
    comments and maybe a bare ``beam`` line are inserted; some lines are
    padded with whitespace or end in CRLF. A fault ("none" is one) sets one
    field of one row to a token of ``TOKENS`` (or the pd_id of a PD row to
    ``LONG_PD_ID``), pads it with a character of ``PADDING``, drops or adds
    a field, or repeats a PD row.
    """
    magic, *body = text.splitlines()
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rnd.shuffle(body)
    for fault in draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3)):
        if fault == "repeated event":
            body.insert(rnd.randrange(len(body) + 1), rnd.choice([row for row in body if row.startswith("pd,")]))
            continue
        # PD rows are few: pick the kind first
        kind = "pd," if fault == "long pd_id" else draw(st.sampled_from(["beam,", "pd,"]))
        k = rnd.choice([k for k, row in enumerate(body) if row.startswith(kind)])
        parts = body[k].split(",")
        i = 1 if fault == "long pd_id" else rnd.randrange(len(parts))
        if fault == "missing field":
            del parts[i]
        elif fault == "extra field":
            parts.insert(i, "1.0")
        elif fault == "padded":
            pad = rnd.choice(PADDING)
            parts[i] = rnd.choice([pad + parts[i], parts[i] + pad])
        elif fault == "long pd_id":
            parts[i] = LONG_PD_ID
        elif fault != "none":
            parts[i] = fault
        body[k] = ",".join(parts)
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

    @pytest.mark.parametrize("orientation", ["horizontal", "vertical", "all"])
    def test_file_with_the_retired_keys_loads(self, tmp_path, orientation):
        # scene.json once held the channel count, each PD's active length and
        # the op-amp's open-loop gain; such a file loads to the same scene
        data = json.loads((GOLDEN / f"bench_scene_{orientation}.json").read_text())
        data["lidar"]["n_channels"] = 16
        data["afe"]["tia"]["a_ol_db"] = 106.0
        for pd in data["board"]["pd_modules"]:
            pd["active_length_m"] = 0.016
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        assert io.load_scene(path) == make_bench_scene(orientation)

    def test_channel_count_and_active_length_follow_the_config(self, tmp_path):
        # 8 vertical angles make 8 channels, and 8 elements at a 2 mm pitch
        # make a 16 mm active length, with no key of their own
        data = {
            "board": {"pd_modules": [{
                "pd_id": "p", "offset_m": [0.2, 0.044], "n_elements": 8, "element_pitch_m": 0.002,
                "sampled_channels": [0, 2, 5, 7],
            }]},
            "lidar": {"vertical_angles_deg": [float(a) for a in range(-7, 8, 2)]},
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data))
        scene = io.load_scene(path)
        (pd,) = scene.board.pd_modules
        assert scene.lidar.n_channels == 8
        assert pd.half_span == 8e-3
        io.save_scene(scene, path)
        saved = json.loads(path.read_text())
        assert "n_channels" not in saved["lidar"] and "a_ol_db" not in saved["afe"]["tia"]
        assert "active_length_m" not in saved["board"]["pd_modules"][0]
        assert io.load_scene(path) == scene
        frame = simulate_scan(scene.board, scene.lidar, scene.base_pose, seed=1, afe=scene.afe)
        assert 0 <= frame.beams["channel"].min() and frame.beams["channel"].max() < 8
        (record,) = frame.pd_records
        assert record.n_events > 0 and record.element_voltages.shape[1] == 4


def test_bench_scenes_load_no_scipy_json_or_io():
    # building the bench scenes casts rays but simulates no scan, so the
    # simulator's scipy normal CDF stays unloaded, and the radius graph lives
    # in the test oracles; the config reader (and json with it) loads only
    # when a file is read
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, pdcalib\n"
        "for o in ('horizontal', 'vertical', 'all'):\n"
        "    pdcalib.make_bench_scene(o)\n"
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
        + [("range_m", "1_0"), ("channel", "1_0"), ("reflectivity", "\u0661\u0660")]
        # numpy's reader strips these pads as spaces; the plain-decimal rule refuses them
        + [("azimuth_index", "\xa022"), ("range_m", "2.5\u2003"), ("channel", "\x1f5")],
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

    def test_bad_beam_value_above_a_bad_pd_row_comes_first(self, tmp_path):
        # numpy's reader refuses the beam row below the PD row, so the beam
        # rows above the PD row are checked for values alone
        path = tmp_path / "f.csv"
        path.write_text("\n".join([
            io.FRAME_MAGIC, "beam,0,5,21,4.2,-5.0,2.5,10.7", "beam,0,5,22,4.4,-5.0,nan,10.7",
            "pd,h_tl,0,0,abc,0.1,0|5|10|15,2.66,1.11,0.146,0.0", "beam,0,5,23,4.6,-5.0,abc,10.7",
        ]) + "\n")
        with pytest.raises(FrameParseError, match="'nan' is not a finite number") as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (3, "range_m")

    @pytest.mark.parametrize(
        "token, message, later, field, bad",
        [
            ("nan", "is not a finite number", -1, "reflectivity", "abc"),
            ("-1.0", "is not a positive range", 4, "azimuth_index", str(2 ** 70)),
        ],
        ids=["nan range, later abc", "negative range, later 2**70"],
    )
    def test_bad_beam_value_above_a_refused_beam_row_comes_first(
        self, tmp_path, small_batch, token, message, later, field, bad
    ):
        # numpy's reader refuses the later beam row; the early row parses and
        # breaks only a value rule, and its line comes first
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        beam_lines = [k for k, line in enumerate(lines) if line.startswith("beam,")]
        for k, index, value in ((beam_lines[0], "range_m", token), (beam_lines[later], field, bad)):
            parts = lines[k].split(",")
            parts[1 + io.BEAM_FIELDS.index(index)] = value
            lines[k] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError, match=re.escape(f"{token!r} {message}")) as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (beam_lines[0] + 1, "range_m")
        assert _outcome(read_frames_reference, path)[1:3] == (beam_lines[0] + 1, "range_m")

    @pytest.mark.parametrize(
        "field, token, message",
        [
            pytest.param(field, token, "is not a finite number", id=f"{field}-{token}")
            for field in ("azimuth_deg", "omega_deg", "range_m", "reflectivity")
            for token in ("nan", "inf", "-inf", "1e999")
        ]
        + [
            pytest.param("range_m", "0.0", "is not a positive range", id="range_m-0.0"),
            pytest.param("range_m", "-1.0", "is not a positive range", id="range_m--1.0"),
            pytest.param("range_m", "-2.5", "is not a positive range", id="range_m--2.5"),
            pytest.param("omega_deg", "90.0", "is not an elevation inside (-90, 90) deg", id="omega_deg-90.0"),
            pytest.param("omega_deg", "-91.5", "is not an elevation inside (-90, 90) deg", id="omega_deg--91.5"),
        ],
    )
    def test_non_finite_beam_value_names_line_and_field(self, tmp_path, small_batch, field, token, message):
        # the first beam row and one in the middle of the beam block
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        first = next(k for k, line in enumerate(lines) if line.startswith("beam,"))
        for i in (first, _mid_beam_row(lines)):
            parts = lines[i].split(",")
            parts[1 + io.BEAM_FIELDS.index(field)] = token
            path.write_text("\n".join(lines[:i] + [",".join(parts)] + lines[i + 1:]) + "\n")
            with pytest.raises(FrameParseError, match=re.escape(f"{token!r} {message}")) as err:
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

    @pytest.mark.parametrize(
        "field, index, token", [("event", 3, "1_0"), ("time_s", 4, "abc"), ("sampled_channels", 6, "15|10|5|0")]
    )
    def test_late_bad_pd_row_found_without_a_second_beam_read(
        self, tmp_path, monkeypatch, small_batch, field, index, token
    ):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = max(k for k, line in enumerate(lines) if line.startswith("pd,")) - 1
        parts = lines[i].split(",")
        parts[index] = token
        lines[i] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        expected = _outcome(read_frames_reference, path)
        assert expected[1:3] == (i + 1, field)
        beam_rows, pd_rows = [], []
        loadtxt = io._loadtxt

        def counting(rows, dtype):
            (beam_rows if np.dtype(dtype) == io._BEAM_ROW else pd_rows).append(len(rows))
            return loadtxt(rows, dtype)

        monkeypatch.setattr(io, "_loadtxt", counting)
        assert _outcome(read_frames, path) == expected
        # at most two calls, and no beam row read twice
        assert len(beam_rows) <= 2 and sum(beam_rows) <= sum(line.startswith("beam,") for line in lines)
        assert sum(pd_rows) <= sum(line.startswith("pd,") for line in lines)

    def test_duplicate_beam_in_scan_rejected(self, tmp_path, small_batch):
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("beam,"))
        parts = lines[i].split(",")
        parts[7] = "99.0"  # same scan, channel and azimuth index; other reflectivity
        lines.insert(i + 1, ",".join(parts))
        path.write_text("\n".join(lines) + "\n")
        cell = f"({parts[2]}, {parts[3]})"
        message = f"{path}:{i + 2}: field 'azimuth_index': beam (channel, azimuth_index) {cell} of scan 0 repeats line"
        with pytest.raises(FrameParseError, match=f"^{re.escape(message)} {i + 1}$") as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (i + 2, "azimuth_index")
        assert _outcome(read_frames_reference, path) == _outcome(read_frames, path)

    def test_repeated_beam_row_comes_ahead_of_a_later_bad_pd_row(self, tmp_path, small_batch):
        # the repeat is a malformed line of its own, so it competes with the
        # PD rows by line
        path = tmp_path / "frames.csv"
        write_frames(small_batch, path)
        lines = path.read_text().splitlines()
        k = next(k for k, line in enumerate(lines) if line.startswith("pd,"))
        parts = lines[k].split(",")
        parts[4] = "nan"
        lines[k] = ",".join(parts)
        i = next(k for k, line in enumerate(lines) if line.startswith("beam,"))
        lines.insert(i + 2, lines[i])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError, match=f"repeats line {i + 1}$") as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (i + 3, "azimuth_index")
        assert _outcome(read_frames_reference, path) == _outcome(read_frames, path)
        del lines[i + 2]  # without the repeat, the PD row is named
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (k + 1, "time_s")

    @pytest.mark.parametrize("token", [str(2 ** 70), str(-(2 ** 63) - 1), str(2 ** 63)])
    def test_sampled_channel_beyond_int64_rejected(self, tmp_path, small_batch, token):
        # int64, as every other integer field; in the one-check column pass
        # and in the field-by-field read of a refused voltage-count group
        for refused_group in (False, True):
            path = tmp_path / "frames.csv"
            write_frames(small_batch, path)
            lines = path.read_text().splitlines()
            i = next(k for k, line in enumerate(lines) if line.startswith("pd,"))
            parts = lines[i].split(",")
            parts[6] = "0|" + token
            lines[i] = ",".join(parts[:9])
            if refused_group:  # a row of the same voltage count that numpy's reader refuses
                row = lines[i].split(",")
                row[3], row[8] = "99", "abc"
                lines.append(",".join(row))
            path.write_text("\n".join(lines) + "\n")
            message = f"{path}:{i + 1}: field 'sampled_channels': {token!r} is not a plain ASCII decimal that fits"
            with pytest.raises(FrameParseError, match=f"^{re.escape(message)} int64$"):
                read_frames(path)
            assert _outcome(read_frames_reference, path) == _outcome(read_frames, path)

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
            ("scan_id", 2, str(2 ** 70)),
            ("event", 3, str(2 ** 70)),
        ],
        ids=["scan_id", "event", "time_s", "noise_floor_v", "sampled_channels", "v0", "scan_id-2**70", "event-2**70"],
    )
    def test_pd_field_not_plain_ascii_rejected(self, tmp_path, small_batch, field, index, token):
        # Python's int() and float() would read each of these tokens; an
        # int64 column, as for a beam row, cannot hold 2**70
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
    @given(frames=_batch(_scan_frames))
    def test_beams_read_back_bit_for_bit(self, tmp_path_factory, frames):
        """The reader returns the written bits; angles pass through degrees."""
        path = tmp_path_factory.mktemp("frames") / "frames.csv"
        write_frames(frames, path)
        expected = []
        for frame in frames:
            b = frame.beams[np.lexsort((frame.beams["azimuth_index"], frame.beams["channel"]))]
            b["omega"] = b["omega"] / DEG * DEG
            b["alpha"] = b["alpha"] / DEG * DEG
            expected.append(ScanFrame(frame.scan_id, b, []).beams)  # wraps alpha as the reader does
        back = read_frames(path)
        assert [f.scan_id for f in back] == [f.scan_id for f in frames]
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
        assert list(read_frames(path)) == []

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


def _event_bits(events) -> tuple:
    """An ``EventTable`` as its fields' dtypes, shapes and bytes."""
    arrays = [events.frames, events.pd, events.floors, *(a for group in events.groups for a in group)]
    return events.pd_ids, events.channels, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _unwritable(frames):
    """The error that writing ``frames`` raises, or None: for the first
    record, by frame and then pd_id, whose pd_id cannot be a frame file's
    field (it holds a comma or a line break), else for the first frame that
    the file would not give back, one with no returns or whose scan id is
    not above the one before; a record with no events writes no rows and is
    dropped."""
    for f in frames:
        for r in sorted(f.pd_records, key=lambda r: r.pd_id):
            if r.n_events and ("," in r.pd_id or "".join(r.pd_id.splitlines()) != r.pd_id):
                return f"scan {f.scan_id}: PD id {r.pd_id!r} holds a comma or a line break"
    for before, f in zip([None, *frames], frames):
        if not len(f.beams):
            return f"scan {f.scan_id}: has no returns, so a frame file would not read it back as written"
        if before is not None and f.scan_id <= before.scan_id:
            return f"scan {f.scan_id}: follows scan {before.scan_id}, so a frame file would not read it back as written"
    return None


class TestFrameText:
    @settings(max_examples=60, deadline=None)
    @given(frames=_batch(_written_frame))
    @example(frames=EDGE_FRAMES)
    def test_writer_matches_row_by_row_oracle(self, frames):
        refused = _unwritable(frames)
        if refused:
            with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
                frames_to_text(frames)
        else:
            assert frames_to_text(frames) == frames_to_text_reference(frames)

    @settings(max_examples=60, deadline=None)
    @given(frames=_batch(_written_frame))
    @example(frames=EDGE_FRAMES)
    @example(frames=[  # a record written in the order given and read back by time
        ScanFrame(0, [(0.0, 1.0, 2.0, 0, 0, 10.0)], [PdSignalRecord("p", [[1.0], [2.0]], [5e-3, 1e-3], (0,))])
    ])
    @example(frames=[  # a pd_id the file would split into two fields
        ScanFrame(3, [(0.0, 1.0, 2.0, 0, 0, 10.0)], [PdSignalRecord("a,b", [[1.0]], [0.0], (0,))])
    ])
    @example(frames=[  # a frame with no returns, which the file would drop, and then refuse its record
        ScanFrame(0, [(0.0, 1.0, 2.0, 0, 0, 10.0)], []), ScanFrame(1, np.empty(0, BEAM_DTYPE), [_record("p", (0,), 1)])
    ])
    @example(frames=[  # scan ids the file would read back sorted
        ScanFrame(5, [(0.0, 1.0, 2.0, 0, 0, 10.0)], []), ScanFrame(2, [(0.0, 1.0, 2.0, 0, 0, 10.0)], [])
    ])
    @example(frames=[  # one scan id twice, whose frames the file would read back as one
        ScanFrame(5, [(0.0, 1.0, 2.0, 0, 0, 10.0)], []), ScanFrame(5, [(0.0, 1.0, 2.0, 1, 0, 10.0)], [])
    ])
    def test_file_round_trip_is_a_fixed_point(self, tmp_path_factory, frames):
        """A batch of frames is the batch its file reads back as, its scan
        ids, frame bounds and event table field by field and bit for bit
        (events by time, records with no events dropped), and that batch
        writes the file's text again; a batch that the file would not give
        back (a pd_id the file cannot hold, a frame with no returns, scan ids
        that do not strictly ascend) is refused before anything is written."""
        path = tmp_path_factory.mktemp("frames") / "frames.csv"
        refused = _unwritable(frames)
        if refused:
            with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
                write_frames(frames, path)
            assert not path.exists()
            return
        write_frames(frames, path)
        back, batch = read_frames(path), FrameBatch.of_frames(frames)
        assert (back.scan_ids, back.bounds) == (batch.scan_ids, batch.bounds)
        assert _event_bits(back.events) == _event_bits(batch.events)
        assert frames_to_text(back) == path.read_text(encoding="utf-8")

    def test_rewriting_a_read_file_gives_its_bytes(self, tmp_path):
        """The written bytes of a mixed-PD batch come back from the frames
        read from them, and from those of the file with its body reversed:
        the writer's row order is canonical."""
        scene = make_bench_scene("all")
        path = tmp_path / "frames.csv"
        write_frames(simulate_point(scene, scene.base_pose, 4, 7, with_truth=False), path)
        written = path.read_bytes()
        assert frames_to_text(read_frames(path)).encode() == written
        magic, *body = written.decode().splitlines()
        path.write_bytes(("\n".join([magic, *reversed(body)]) + "\n").encode())
        assert frames_to_text(read_frames(path)).encode() == written

    ROWS = [
        io.FRAME_MAGIC.encode(),
        b"beam,0,5,23,4.6,0.0,2.5,10.0",
        b"beam,0,5,24,4.8,0.0,2.5,10.0",
        b"pd,h,0,0,0.0,0.1,0|5,1.0,2.0",
    ]

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
    @pytest.mark.parametrize(
        "edits, line_no, field",
        [
            ({3: b"beam,0,5,24,4.8\xff,0.0,2.5,10.0"}, 3, "encoding"),
            ({4: b"pd,h\xe9,0,0,0.0,0.1,0|5,1.0,2.0"}, 4, "encoding"),  # a pd_id in Latin-1
            ({1: b"pdcalib-scanframe,v=1\xff"}, 1, "encoding"),
            ({2: b"beam,0,5,23,abc,0.0,2.5,10.0", 4: b"pd,h\xe9,0,0,0.0,0.1,0|5,1.0,2.0"}, 2, "azimuth_deg"),
            ({2: b"beam,0,5,23,4.6\xff,0.0,2.5,10.0", 4: b"pd,h,0,0,abc,0.1,0|5,1.0,2.0"}, 2, "encoding"),
        ],
    )
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, newline, edits, line_no, field):
        """A frame file is UTF-8 whatever the locale: a line with a byte that
        is not is malformed, named in its place among the others."""
        rows = [edits.get(k, row) for k, row in enumerate(self.ROWS, 1)]
        path = tmp_path / "f.csv"
        path.write_bytes(newline.join(rows) + newline)
        with pytest.raises(FrameParseError) as err:
            read_frames(path)
        assert (err.value.line_no, err.value.field) == (line_no, field)
        if field == "encoding":
            assert "is not UTF-8" in str(err.value)

    def test_points_csv_byte_that_is_not_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "points.csv"
        row = ",".join(["1"] * len(POINT_FIELDS)).encode()
        path.write_bytes(b"\n".join([",".join(POINT_FIELDS).encode(), row, row[:-1] + b"\xff", row]) + b"\n")
        with pytest.raises(FrameParseError) as err:
            io.read_sweep_points(path)
        assert (err.value.line_no, err.value.field) == (3, "encoding")

    def test_frame_files_name_their_encoding(self, tmp_path):
        """Writing and reading a frame file, and every file the CLI reads or
        writes, opens no file in the locale's encoding (EncodingWarning is an
        error here), and a non-ASCII pd_id is written as UTF-8."""
        path = tmp_path / "frames.csv"
        # the horizontal bench scene with non-ASCII pd_ids, as raw UTF-8 JSON
        config = io.scene_to_dict(make_bench_scene("horizontal"))
        for pd in config["board"]["pd_modules"]:
            pd["pd_id"] = pd["pd_id"].replace("h_", "h\u00e9_")
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text('{"start": -1, "stop": 1, "step": 1, "scans_per_point": 8}', encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from pdcalib.afe import PdSignalRecord\n"
            "from pdcalib.cli import main\n"
            "from pdcalib.io import read_frames, write_frames\n"
            "from pdcalib.scene import ScanFrame\n"
            "record = PdSignalRecord('h\\u00e9', [[1.0]], [0.0], (0,))\n"
            "write_frames([ScanFrame(0, [(0.0, 1.0, 2.0, 0, 0, 10.0)], [record])], sys.argv[1])\n"
            "print(read_frames(sys.argv[1])[0].pd_records[0].pd_id == 'h\\u00e9')\n"
            "scene, sweep, out = sys.argv[2:]\n"
            "for argv in (\n"
            "    ['simulate', '--scene', scene, '--scans', '8', '--out', out],\n"
            "    ['calibrate', '--frames', out + '/frames.csv', '--scene', out + '/scene.json', '--out', out],\n"
            "    ['sweep', '--scene', scene, '--sweep', sweep, '--out', out],\n"
            "    ['report', out + '/sweep_yaw_horizontal_pd_points.csv', '--out', out + '/report.txt'],\n"
            "):\n"
            "    if main(argv):\n"
            "        sys.exit(f'{argv[0]} failed')\n"
        )
        out = tmp_path / "cli"
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", code,
             str(path), str(scene_path), str(sweep_path), str(out)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == "True"
        assert "pd,h\u00e9,0,".encode("utf-8") in path.read_bytes()
        assert "\nh\u00e9_tl,".encode("utf-8") in (out / "correspondences.csv").read_bytes()
        assert io.load_scene(out / "scene.json").board.pd_modules[0].pd_id == "h\u00e9_tl"
        assert "Accuracy" in (out / "report.txt").read_text(encoding="utf-8")


def _mostly(good, bad):
    """A value of ``good`` four times in five, else one of ``bad``."""
    return st.integers(0, 4 * len(good) + len(bad) - 1).map(lambda k: [*good * 4, *bad][k])


@st.composite
def _checked_batch(draw):
    """A batch of 1 to 3 frames as its raw tables, and the frames' rows and
    records one by one: 1 to 4 returns per frame and 0 to 3 records, whose
    values may break a return or record rule (a repeated cell, a range not
    above 0, an elevation off +-90 deg, a non-finite reflectivity; channels
    not increasing from 0, a voltage count unlike the channel count, a
    non-finite time or floor, a voltage off the rails). Azimuths may lie
    outside [0, 2 pi), to wrap."""
    frames, records = [], []
    faulty = draw(st.booleans())  # whether the returns may break a rule; the records may in any case
    for k in range(draw(st.integers(1, 3))):
        cell = st.tuples(st.integers(0, 2), st.integers(0, 3))
        cells = draw(st.lists(cell, min_size=1, max_size=4, unique=not faulty))
        rows = [
            (
                draw(_mostly([0.1, -0.2], [2.0] if faulty else [])),
                draw(st.sampled_from([0.5, -0.5, 7.0])),
                draw(_mostly([2.0, 3.5], [-1.0, math.nan] if faulty else [])),
                channel,
                azimuth_index,
                draw(_mostly([10.0, 80.0], [math.inf] if faulty else [])),
            )
            for channel, azimuth_index in cells
        ]
        frames.append(rows)
        for _ in range(draw(st.integers(0, 3))):
            m, n = draw(st.integers(1, 3)), draw(st.integers(0, 2))
            right = tuple(range(0, 5 * m, 5))
            records.append((
                k, f"p{len(records)}", draw(_mostly([right], [right + (99,), right[::-1], ()])),
                draw(_mostly([0.1], [math.nan])),
                np.array([draw(_mostly([0.0, 1e-3], [math.inf])) for _ in range(n)]),
                np.array([draw(_mostly([0.0, 1.0, 10.0], [-0.5, 10.5, math.nan])) for _ in range(n * m)]).reshape(n, m),
            ))
    return frames, records


def _batch_or_error(build):
    try:
        frames = list(build())
    except ValueError as exc:
        return str(exc)
    return _frame_bits(frames)


class TestFrameBatch:
    """A list of frames becomes a batch once, and the batch's tables give
    what the frames give: the same checks, text and calibration."""

    @settings(max_examples=150, deadline=None)
    @given(case=_checked_batch())
    @example(case=(  # a bad record in the last of 6 frames: its error names scan 15
        [[(0.1, 0.5, 2.0, 0, 0, 10.0)]] * 6, [(5, "p0", (0,), 0.1, np.array([math.inf]), np.array([[1.0]]))]
    ))
    def test_batch_checks_as_frames_and_records_one_by_one(self, case):
        """The batch's frames, or the error of the first bad return (frames
        in order, a frame's returns in cell order), or else of the first bad
        record with events, as ``ScanFrame`` and ``PdSignalRecord`` raise
        them for its events by time, a record's error after its scan."""
        frames, records = case
        scan_ids = [10 + k for k in range(len(frames))]

        def record(k, pd_id, channels, floor, times, volts):
            order = np.argsort(times, kind="stable")
            try:
                return PdSignalRecord(pd_id, volts[order], times[order], channels, floor)
            except ValueError as exc:
                raise ValueError(f"scan {scan_ids[k]}: {exc}") from None

        def one_by_one():  # each record's events by time; a record with none is dropped
            beams = [ScanFrame(scan_id, rows, []).beams for scan_id, rows in zip(scan_ids, frames)]
            made = [(r[0], record(*r)) for r in records if len(r[4])]
            by_frame = [[r for j, r in made if j == k] for k in range(len(frames))]
            return [ScanFrame(scan_id, b, mine) for scan_id, b, mine in zip(scan_ids, beams, by_frame)]

        def batch():
            table = np.array(
                [row for rows in frames for row in sorted(rows, key=lambda row: row[3:5])], dtype=BEAM_DTYPE
            )
            bounds = np.cumsum([0, *(len(rows) for rows in frames)])
            parts = [
                (np.full(len(times), k), np.full(len(times), key), times, volts, [channels] * len(times),
                 np.full(len(times), floor))
                for key, (k, _, channels, floor, times, volts) in enumerate(records)
            ]
            return FrameBatch(scan_ids, table, bounds, EventTable.of_events(parts, [r[1] for r in records]))

        assert _batch_or_error(batch) == _batch_or_error(one_by_one)

    def test_one_conversion_gives_one_result(self, tmp_path):
        """A batch read from a file, the list of its frames and the batch
        read from the file with its body reversed calibrate bit for bit
        alike; the reversed file reads into the same tables, and the batch
        and its list write the same text."""
        scene = make_bench_scene("all")
        path, reversed_path = tmp_path / "frames.csv", tmp_path / "reversed.csv"
        write_frames(simulate_point(scene, scene.base_pose, 12, 5, with_truth=False), path)
        magic, *body = path.read_text().splitlines()
        reversed_path.write_text("\n".join([magic, *reversed(body)]) + "\n")
        batch, back = read_frames(path), read_frames(reversed_path)
        assert back.scan_ids == batch.scan_ids and back.bounds == batch.bounds
        assert back.beams.tobytes() == batch.beams.tobytes()
        assert _frame_bits(back) == _frame_bits(batch)
        assert frames_to_text(batch) == frames_to_text(list(batch)) == path.read_text()
        results = [_result_bits(calibrate_frames(frames, scene)) for frames in (batch, list(batch), back)]
        assert results[0] == results[1] == results[2]


def _result_bits(result) -> dict:
    """A ``BatchResult`` as bytes and hex floats, all but its stage times."""
    return {name: value for name, value in bits(result).items() if name != "timings"}


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
