"""File formats: scene/sweep configs (JSON), scan frames and dumps (CSV text).

Scan-frame files are line-oriented delimited text with a fixed field order:

    pdcalib-scanframe,v=1
    # beam,scan_id,channel,azimuth_index,azimuth_deg,omega_deg,range_m,reflectivity
    beam,0,5,22,4.4,-5.0,2.53,10.7
    # pd,pd_id,scan_id,event,time_s,noise_floor_v,sampled_channels,v0,v1,...
    pd,h_tl,0,0,0.0019457,0.1,0|5|10|15,2.66,1.11,0.146,0.0

Beams are sorted by (channel, azimuth index) and PD events by (pd_id, time),
so a frame always serializes byte-identically. Angles are stored in degrees
at this boundary; everything in memory is radians. Numbers are plain ASCII
decimals as Python's ``repr`` writes them; a beam or PD row holding
``1_0``, non-ASCII digits or a number that is not finite is refused. A PD's
event indices are unique within its scan.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np

from .afe import SUPPLY_RAIL_V, PdSignalRecord, TiaParams
from .bench import Scene
from .geometry import DEG, MM, Pose6DOF
from .scene import BEAM_DTYPE, AfeConfig, BoardModel, LidarModel, PdPlacement, ScanFrame

FRAME_MAGIC = "pdcalib-scanframe,v=1"

BEAM_FIELDS = ("scan_id", "channel", "azimuth_index", "azimuth_deg", "omega_deg", "range_m", "reflectivity")
PD_FIELDS = ("pd_id", "scan_id", "event", "time_s", "noise_floor_v", "sampled_channels")


class FrameParseError(ValueError):
    """Malformed frame file; carries the offending line and field."""

    def __init__(self, path, line_no: int, field: str, message: str):
        super().__init__(f"{path}:{line_no}: field {field!r}: {message}")
        self.line_no = line_no
        self.field = field


def _fmt(x: float) -> str:
    """Shortest round-trip decimal form; deterministic for a given value."""
    return repr(float(x))


# ---------------------------------------------------------------- scene config

def scene_to_dict(scene: Scene) -> dict:
    return {
        "board": {
            "width_m": scene.board.width,
            "height_m": scene.board.height,
            "surround_reflectivity": scene.board.surround_reflectivity,
            "pd_reflectivity": scene.board.pd_reflectivity,
            "pd_modules": [
                {
                    "pd_id": pd.pd_id,
                    "offset_m": list(pd.offset),
                    "orientation": pd.orientation,
                    "n_elements": pd.n_elements,
                    "element_pitch_m": pd.element_pitch,
                    "active_length_m": pd.active_length,
                    "active_width_m": pd.active_width,
                    "sampled_channels": list(pd.sampled_channels),
                }
                for pd in scene.board.pd_modules
            ],
        },
        "lidar": {
            "n_channels": scene.lidar.n_channels,
            "vertical_angles_deg": list(scene.lidar.vertical_angles_deg),
            "azimuth_step_deg": scene.lidar.azimuth_step_deg,
            "range_noise_sigma_m": scene.lidar.range_noise_sigma,
            "azimuth_jitter_sigma_deg": scene.lidar.azimuth_jitter_sigma_deg,
            "beam_divergence_rad": scene.lidar.beam_divergence,
            "firing_period_s": scene.lidar.firing_period,
            "pulse_burst_period_s": scene.lidar.pulse_burst_period,
        },
        "afe": {
            "tia": {
                "r_f_ohm": scene.afe.tia.r_f,
                "c_f_farad": scene.afe.tia.c_f,
                "r_sh_ohm": scene.afe.tia.r_sh,
                "c_pd_farad": scene.afe.tia.c_pd,
                "c_i_amp_farad": scene.afe.tia.c_i_amp,
                "gbwp_hz": scene.afe.tia.gbwp,
                "a_ol_db": scene.afe.tia.a_ol,
            },
            "pulse_width_s": scene.afe.pulse_width,
            "voltage_noise_sigma_v": scene.afe.voltage_noise_sigma,
            "noise_floor_v": scene.afe.noise_floor,
            "peak_current_a": scene.afe.peak_current,
        },
        "base_pose": {
            "phi_deg": scene.base_pose.phi / DEG,
            "theta_deg": scene.base_pose.theta / DEG,
            "psi_deg": scene.base_pose.psi / DEG,
            "dx_m": scene.base_pose.dx,
            "dy_m": scene.base_pose.dy,
            "dz_m": scene.base_pose.dz,
        },
        "seed": scene.seed,
    }


NUMBER = (int, float)
_KIND_NAMES = {  # singular, plural
    NUMBER: ("a number", "numbers"),
    int: ("an integer", "integers"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
}
_REQUIRED = object()


def config_reader(data, where: str = ""):
    """A reader of the fields of the JSON object ``data``, the section
    ``where`` of its document; ValueError if ``data`` is not an object.

    ``read(key, kind, default, many)`` is ``data[key]`` checked to be of type
    ``kind`` (with ``many``, a list of them; a bool is never a number), or
    ``default`` where the key is absent. It raises ValueError naming the key
    if the key is absent with no default or holds a value of another type.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")

    def read(key: str, kind, default=_REQUIRED, many: bool = False):
        name = f"{where}.{key}" if where else key
        if key not in data:
            if default is _REQUIRED:
                raise ValueError(f"missing key {name!r}")
            return default
        value = data[key]
        items = value if many and isinstance(value, list) else [value]
        if (many and not isinstance(value, list)) or not all(
            isinstance(v, kind) and not isinstance(v, bool) for v in items
        ):
            one, several = _KIND_NAMES[kind]
            raise ValueError(f"{name!r} must be {'a list of ' + several if many else one}, got {value!r}")
        return value

    return read


def scene_from_dict(data: dict) -> Scene:
    """A scene from its config; every key but the board and its PD ids and
    offsets takes a default.

    Raises ValueError naming the key for a document or section that is not
    an object, a missing required key or a field of the wrong type.
    """
    doc = config_reader(data)
    b = config_reader(doc("board", dict), "board")
    pds = []
    for k, p in enumerate(b("pd_modules", dict, [], many=True)):
        pd = config_reader(p, f"board.pd_modules[{k}]")
        pds.append(PdPlacement(
            pd_id=pd("pd_id", str),
            offset=tuple(pd("offset_m", NUMBER, many=True)),
            orientation=pd("orientation", str, "horizontal"),
            n_elements=pd("n_elements", int, 16),
            element_pitch=pd("element_pitch_m", NUMBER, 1e-3),
            active_length=pd("active_length_m", NUMBER, 16e-3),
            active_width=pd("active_width_m", NUMBER, 1.45e-3),
            sampled_channels=tuple(pd("sampled_channels", int, (0, 5, 10, 15), many=True)),
        ))
    board = BoardModel(
        width=b("width_m", NUMBER, 1.0),
        height=b("height_m", NUMBER, 0.54),
        pd_modules=tuple(pds),
        surround_reflectivity=b("surround_reflectivity", NUMBER, 10.0),
        pd_reflectivity=b("pd_reflectivity", NUMBER, 80.0),
    )
    ld = config_reader(doc("lidar", dict, {}), "lidar")
    lidar = LidarModel(
        n_channels=ld("n_channels", int, 16),
        vertical_angles_deg=tuple(
            ld("vertical_angles_deg", NUMBER, tuple(float(a) for a in range(-15, 16, 2)), many=True)
        ),
        azimuth_step_deg=ld("azimuth_step_deg", NUMBER, 0.2),
        range_noise_sigma=ld("range_noise_sigma_m", NUMBER, 0.010),
        azimuth_jitter_sigma_deg=ld("azimuth_jitter_sigma_deg", NUMBER, 0.02),
        beam_divergence=ld("beam_divergence_rad", NUMBER, 19.6e-3 / 2.5),
        firing_period=ld("firing_period_s", NUMBER, 55e-6),
        pulse_burst_period=ld("pulse_burst_period_s", NUMBER, 2.3e-6),
    )
    af = config_reader(doc("afe", dict, {}), "afe")
    tia = config_reader(af("tia", dict, {}), "afe.tia")
    afe = AfeConfig(
        tia=TiaParams(
            r_f=tia("r_f_ohm", NUMBER, 1e5),
            c_f=tia("c_f_farad", NUMBER, 68e-12),
            r_sh=tia("r_sh_ohm", NUMBER, 250e9),
            c_pd=tia("c_pd_farad", NUMBER, 200e-12),
            c_i_amp=tia("c_i_amp_farad", NUMBER, 1.4e-12),
            gbwp=tia("gbwp_hz", NUMBER, 1e6),
            a_ol=tia("a_ol_db", NUMBER, 106.0),
        ),
        pulse_width=af("pulse_width_s", NUMBER, 2.3e-6),
        voltage_noise_sigma=af("voltage_noise_sigma_v", NUMBER, 0.1),
        noise_floor=af("noise_floor_v", NUMBER, 0.1),
        peak_current=af("peak_current_a", NUMBER, 100e-6),
    )
    p = config_reader(doc("base_pose", dict, {}), "base_pose")
    pose = Pose6DOF(
        p("phi_deg", NUMBER, 0.0) * DEG,
        p("theta_deg", NUMBER, 0.0) * DEG,
        p("psi_deg", NUMBER, 0.0) * DEG,
        p("dx_m", NUMBER, -0.7),
        p("dy_m", NUMBER, -2.5),
        p("dz_m", NUMBER, 0.0),
    )
    return Scene(board=board, lidar=lidar, afe=afe, base_pose=pose, seed=doc("seed", int, 0))


def save_scene(scene: Scene, path):
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n")


def load_scene(path) -> Scene:
    try:
        return scene_from_dict(json.loads(Path(path).read_text()))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad scene config {path}: {exc}") from exc


# ---------------------------------------------------------------- scan frames

def frames_to_text(frames) -> str:
    """Serialize frames to the delimited-text format (deterministic)."""
    lines = [FRAME_MAGIC]
    lines.append("# beam," + ",".join(BEAM_FIELDS))
    for frame in frames:
        omega, alpha, r, channel, azimuth_index, refl = frame.beam_arrays()
        order = np.lexsort((azimuth_index, channel))
        columns = (channel, azimuth_index, alpha / DEG, omega / DEG, r, refl)
        # tolist() gives Python ints and floats, whose repr is the file form
        rows = zip(*(c[order].tolist() for c in columns))
        for ch, az, alpha_deg, omega_deg, range_m, reflectivity in rows:
            lines.append(
                f"beam,{frame.scan_id},{ch},{az},{alpha_deg!r},{omega_deg!r},{range_m!r},{reflectivity!r}"
            )
    lines.append("# pd," + ",".join(PD_FIELDS) + ",v0,v1,...")
    for frame in frames:
        for rec in sorted(frame.pd_records, key=lambda r: r.pd_id):
            for e in range(rec.n_events):
                lines.append(
                    ",".join(
                        [
                            "pd",
                            rec.pd_id,
                            str(frame.scan_id),
                            str(e),
                            _fmt(rec.sample_times[e]),
                            _fmt(rec.noise_floor),
                            "|".join(str(c) for c in rec.sampled_channels),
                        ]
                        + [_fmt(v) for v in rec.element_voltages[e]]
                    )
                )
    return "\n".join(lines) + "\n"


def write_frames(frames, path):
    Path(path).write_text(frames_to_text(frames))


def _check_plain(path, line_no, field, token):
    # Python's int() and float() also take "1_0" and non-ASCII digits, which
    # numpy's reader, and so the beam rows, refuse
    if not token.isascii() or "_" in token:
        raise FrameParseError(path, line_no, field, f"{token!r} is not a plain ASCII decimal")


def _parse_float(path, line_no, field, token):
    _check_plain(path, line_no, field, token)
    try:
        return float(token)
    except ValueError:
        raise FrameParseError(path, line_no, field, f"not a number: {token!r}")


def _parse_int(path, line_no, field, token):
    _check_plain(path, line_no, field, token)
    try:
        return int(token)
    except ValueError:
        raise FrameParseError(path, line_no, field, f"not an integer: {token!r}")


# A beam row as numpy's text reader parses it. All eight fields are read, so
# a row with a field too many or too few is refused instead of cut to fit.
_BEAM_ROW = np.dtype(
    [
        ("kind", "U4"),
        ("scan_id", int),
        ("channel", int),
        ("azimuth_index", int),
        ("azimuth_deg", float),
        ("omega_deg", float),
        ("range_m", float),
        ("reflectivity", float),
    ]
)


# what _loadtxt raises for a field it cannot read
_REFUSED = (ValueError, DeprecationWarning)


def _loadtxt(lines, dtype):
    """``np.loadtxt`` of comma-separated lines; raises one of ``_REFUSED``."""
    with warnings.catch_warnings():
        # numpy 1.23-1.26 reads an int field such as "5.0" through float and
        # only warns; refuse it, as later numpy does
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _beam_row_error(path, rows, exc) -> FrameParseError:
    """The error for the first malformed beam row, in file order.

    ``rows`` are the beam rows as (line_no, line), which numpy's reader
    refuses together. A row is malformed when it has the wrong field count,
    when a field fails the PD rows' number checks (which refuse ``1_0`` and
    non-ASCII digits), or when numpy's reader refuses a field that those
    accept (an int beyond 64 bits). The first row the reader refuses is
    found by bisection: each call parses the first half of the window known
    to hold it, so about log2(n) calls parse n rows in all. A row above it,
    which the reader takes, can fail only the number checks, and none does
    when the text of them all is plain ASCII without ``_``; otherwise they
    are checked row by row.
    """
    lines = [line for _, line in rows]
    lo, hi = 0, len(lines)  # lines[:lo] parse; lines[lo:hi] hold one that does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(lines[lo:mid], _BEAM_ROW)
            lo = mid
        except _REFUSED:
            hi = mid
    above = "\n".join(lines[:lo])
    first = 0 if not above.isascii() or "_" in above else lo
    for line_no, line in rows[first:lo + 1]:
        parts = line.split(",")
        if len(parts) != len(_BEAM_ROW.names):
            return FrameParseError(
                path, line_no, "beam", f"expected {len(BEAM_FIELDS)} fields, got {len(parts) - 1}"
            )
        tokens = list(zip(BEAM_FIELDS, parts[1:]))
        for field, token in tokens:
            parse = _parse_int if _BEAM_ROW[field].kind == "i" else _parse_float
            parse(path, line_no, field, token)
    for field, token in tokens:  # of row lo, which the reader refuses
        try:
            _loadtxt([token], _BEAM_ROW[field])
        except _REFUSED:
            return FrameParseError(
                path, line_no, field,
                f"{token!r} is not a plain ASCII decimal that fits {_BEAM_ROW[field]}",
            )
    return FrameParseError(path, line_no, "beam", str(exc))


_BEAM_FLOATS = [field for field in BEAM_FIELDS if _BEAM_ROW[field].kind == "f"]


def _parse_beam_rows(path, rows) -> np.ndarray:
    """The beam rows among ``rows``, the stripped lines from line 2 on, as ``_BEAM_ROW`` records.

    A row holding a number that parses but is not finite (``nan``, ``inf``,
    ``1e999``) is refused too.
    """
    lines = [row for row in rows if row.startswith("beam,")]
    if not lines:
        return np.empty(0, _BEAM_ROW)  # numpy's reader warns on empty input
    try:
        raw = _loadtxt(lines, _BEAM_ROW)
    except _REFUSED as exc:
        numbered = [(line_no, row) for line_no, row in enumerate(rows, 2) if row.startswith("beam,")]
        raise _beam_row_error(path, numbered, exc) from None
    if not all(np.isfinite(raw[field]).all() for field in _BEAM_FLOATS):
        bad = np.column_stack([~np.isfinite(raw[field]) for field in _BEAM_FLOATS])
        k, f = divmod(int(np.argmax(bad)), len(_BEAM_FLOATS))  # the first row, then its first field
        line_no = [n for n, row in enumerate(rows, 2) if row.startswith("beam,")][k]
        field = _BEAM_FLOATS[f]
        token = lines[k].split(",")[1 + BEAM_FIELDS.index(field)]
        raise FrameParseError(path, line_no, field, f"{token!r} is not a finite number")
    return raw


def _beams_by_scan(raw) -> dict:
    """Parsed beam rows to ``BEAM_DTYPE`` arrays by scan id; each scan's rows keep their file order."""
    beams = np.empty(len(raw), BEAM_DTYPE)
    beams["omega"] = raw["omega_deg"] * DEG
    beams["alpha"] = raw["azimuth_deg"] * DEG
    beams["r"] = raw["range_m"]
    beams["channel"] = raw["channel"]
    beams["azimuth_index"] = raw["azimuth_index"]
    beams["reflectivity"] = raw["reflectivity"]
    order = np.argsort(raw["scan_id"], kind="stable")
    scan_ids, starts = np.unique(raw["scan_id"][order], return_index=True)
    return dict(zip(scan_ids.tolist(), np.split(beams[order], starts[1:])))


def _pd_numbers(path, line_no, parts) -> tuple:
    """(scan_id, event, time_s, noise_floor_v, sampled_channels, voltages) of a PD row.

    ``parts`` is the row split at commas. One check finds the fields after
    the pd_id plain ASCII without ``_``. When that check or ``int()`` and
    ``float()`` refuse the row, the field-by-field walk refuses it too and
    names the first bad field.
    """
    numbers = ",".join(parts[2:])
    if numbers.isascii() and "_" not in numbers:
        try:
            return (
                int(parts[2]),
                int(parts[3]),
                float(parts[4]),
                float(parts[5]),
                tuple(map(int, parts[6].split("|"))),
                list(map(float, parts[7:])),
            )
        except ValueError:
            pass
    return (
        _parse_int(path, line_no, "scan_id", parts[2]),
        _parse_int(path, line_no, "event", parts[3]),
        _parse_float(path, line_no, "time_s", parts[4]),
        _parse_float(path, line_no, "noise_floor_v", parts[5]),
        tuple(_parse_int(path, line_no, "sampled_channels", c) for c in parts[6].split("|")),
        [_parse_float(path, line_no, f"v{i}", tok) for i, tok in enumerate(parts[7:])],
    )


def _pd_value_error(path, pd_records):
    """The error for the first PD row, in file order, holding a number that
    parses but is not finite (``nan``, ``inf``, ``1e999``) or a voltage off
    the supply rails, or None."""
    found = []
    for floor, _, events in pd_records.values():
        for time_s, volts, line_no in events:
            bad = [(f, v) for f, v in (("time_s", time_s), ("noise_floor_v", floor)) if not math.isfinite(v)]
            bad += [(f"v{i}", v) for i, v in enumerate(volts) if not 0.0 <= v <= SUPPLY_RAIL_V]
            if bad:
                field, value = bad[0]
                why = "lies outside the 0-10 V supply range" if math.isfinite(value) else "is not a finite number"
                found.append((line_no, field, f"{value!r} {why}"))
    return FrameParseError(path, *min(found)) if found else None


def _signal_records(path, pd_records) -> dict:
    """The PD records by scan id, each scan's in pd_id order, their events by time."""
    by_scan: dict = {}
    try:
        for (sid, pd_id), (floor, channels, events) in sorted(pd_records.items()):
            events.sort(key=lambda r: r[0])
            by_scan.setdefault(sid, []).append(
                PdSignalRecord(
                    pd_id=pd_id,
                    scan_id=sid,
                    element_voltages=np.array([r[1] for r in events]),
                    sample_times=np.array([r[0] for r in events]),
                    sampled_channels=channels,
                    noise_floor=floor,
                )
            )
    except ValueError:
        error = _pd_value_error(path, pd_records)
        if error is None:
            raise
        raise error from None
    return by_scan


def read_frames(path) -> list:
    """Parse a scan-frame file back into ScanFrame objects (no sim truth).

    Raises FrameParseError for a malformed line, for a PD row whose scan
    has no beam rows, for a PD row that repeats the (scan, PD, event) of an
    earlier row, and for a PD row whose sampled channels or noise floor
    differ from the earlier rows of its (scan, PD) record. When several lines
    are malformed, the error names the first. A row holding a number that
    parses but is not finite (``nan``, ``inf``, ``1e999``), or a PD row
    holding a voltage off the supply rails, is malformed too.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0].strip() != FRAME_MAGIC:
        raise FrameParseError(path, 1, "magic", f"expected {FRAME_MAGIC!r}")
    rows = [line.strip() for line in lines[1:]]  # rows[k] is line k + 2
    other_rows = [(line_no, row) for line_no, row in enumerate(rows, 2) if not row.startswith("beam,")]
    pd_records: dict = {}  # (scan_id, pd_id) -> (noise floor, channels, [(time, volts)])
    first_pd_line: dict = {}  # scan_id -> line of its first PD row
    event_lines: dict = {}  # (scan_id, pd_id, event) -> line of its row
    try:
        for line_no, row in other_rows:
            kind = row.partition(",")[0]
            if kind == "pd":
                parts = row.split(",")
                if len(parts) < 1 + len(PD_FIELDS) + 1:
                    raise FrameParseError(path, line_no, "pd", "missing voltage fields")
                pd_id = parts[1]
                sid, event, time_s, floor, channels, volts = _pd_numbers(path, line_no, parts)
                if len(volts) != len(channels):
                    raise FrameParseError(
                        path, line_no, "voltages",
                        f"{len(volts)} voltages for {len(channels)} sampled channels",
                    )
                earlier = event_lines.setdefault((sid, pd_id, event), line_no)
                if earlier != line_no:
                    raise FrameParseError(
                        path, line_no, "event",
                        f"event {event} of PD {pd_id!r}, scan {sid} repeats line {earlier}",
                    )
                rec = pd_records.setdefault((sid, pd_id), (floor, channels, []))
                if channels != rec[1]:
                    raise FrameParseError(
                        path, line_no, "sampled_channels",
                        f"{parts[6]!r} differs from {'|'.join(map(str, rec[1]))!r} "
                        f"in earlier rows of PD {pd_id!r}, scan {sid}",
                    )
                # a nan floor is refused as not finite, not as differing from itself
                if floor != rec[0] and not (math.isnan(floor) and math.isnan(rec[0])):
                    raise FrameParseError(
                        path, line_no, "noise_floor_v",
                        f"{floor!r} differs from {rec[0]!r} in earlier rows of PD {pd_id!r}, scan {sid}",
                    )
                rec[2].append((time_s, volts, line_no))
                first_pd_line.setdefault(sid, line_no)
            elif kind == "beam":  # a beam row with no fields
                raise FrameParseError(path, line_no, "beam", f"expected {len(BEAM_FIELDS)} fields, got 0")
            elif row and not row.startswith("#"):
                raise FrameParseError(path, line_no, "record", f"unknown record type {kind!r}")
        records = _signal_records(path, pd_records)
    except FrameParseError as exc:
        # the PD rows parsed so far lie above this line, and so does a bad value among them
        error = _pd_value_error(path, pd_records) or exc
        _parse_beam_rows(path, rows[: error.line_no - 2])  # a malformed beam row above it comes first
        raise error from None
    beams = _beams_by_scan(_parse_beam_rows(path, rows))

    orphans = [(line_no, sid) for sid, line_no in first_pd_line.items() if sid not in beams]
    if orphans:
        line_no, sid = min(orphans)
        raise FrameParseError(path, line_no, "scan_id", f"PD row of scan {sid}, which has no beam rows")
    frames = []
    for sid in sorted(beams):
        try:
            frames.append(ScanFrame(scan_id=sid, beams=beams[sid], pd_records=records.get(sid, [])))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return frames


# ---------------------------------------------------------------- dumps

def correspondence_dump(result, board) -> str:
    """CSV of the per-scan (azimuth, center) detections for offline inspection.

    One row per PD per detected scan: the raw measurement, the model-smoothed
    board-frame position, and whether the RANSAC kept the pair.
    """
    from .correspondence import pd_measurement_to_board

    scan_ids = [ft.scan_id for ft in result.features]
    lines = ["pd_id,scan_id,alpha_deg,mu_mm,op_x_m,op_y_m,op_z_m,inlier"]
    for p, pd in enumerate(board.pd_modules):
        keys = result.keys[result.keys["pd"] == p]
        alpha_deg, mu_mm = keys["alpha"] / DEG, keys["mu"] / MM
        model = result.models.get(pd.pd_id)
        if model is not None:
            p_o = pd_measurement_to_board(pd, model.predict(alpha_deg) * 1e-3)
            inlier = model.inlier_mask.astype(int)
        else:
            p_o = pd_measurement_to_board(pd, mu_mm * 1e-3)
            inlier = np.zeros(len(keys), dtype=int)
        for k, key in enumerate(keys):
            lines.append(
                ",".join(
                    [
                        pd.pd_id,
                        str(scan_ids[key["scan"]]),
                        f"{alpha_deg[k]:.6f}",
                        f"{mu_mm[k]:.4f}",
                        f"{p_o[k, 0]:.6f}",
                        f"{p_o[k, 1]:.6f}",
                        f"{p_o[k, 2]:.6f}",
                        str(inlier[k]),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def solve_report_text(report, label: str = "calibration") -> str:
    """Human-readable solver report."""
    b = report.beta
    lines = [
        f"pdcalib {label} report",
        f"  correspondences : {report.correspondence_count}",
        f"  converged       : {report.converged} ({report.iterations} iterations)",
        f"  final cost      : {report.final_cost:.6e} m^2",
        f"  rms residual    : {report.rms_residual * 1e3:.4f} mm",
        "  pose (target frame <- sensor frame):",
        f"    yaw   phi   : {b.phi / DEG:+.5f} deg",
        f"    tilt  theta : {b.theta / DEG:+.5f} deg",
        f"    roll  psi   : {b.psi / DEG:+.5f} deg",
        f"    dx          : {b.dx:+.5f} m",
        f"    dy          : {b.dy:+.5f} m",
        f"    dz          : {b.dz:+.5f} m",
    ]
    return "\n".join(lines) + "\n"


def _mm5(x: float) -> str:
    """Meters as millimeters to 5 decimals; a value that rounds to zero is
    ``0.00000`` whatever its sign, so rounding noise cannot flip the line."""
    text = f"{x * 1e3:.5f}"
    return "0.00000" if text == "-0.00000" else text


def residual_table(report) -> str:
    """CSV of per-correspondence residuals at the solution."""
    lines = ["index,res_x_mm,res_y_mm,res_z_mm"]
    for i, row in enumerate(report.residuals):
        lines.append(f"{i}," + ",".join(_mm5(x) for x in row))
    return "\n".join(lines) + "\n"
