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
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from .afe import SUPPLY_RAIL_V, PdSignalRecord, TiaParams
from .bench import Scene
from .geometry import DEG, MM, Pose6DOF
from .harness import SweepSpec
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


# ---------------------------------------------------------------- configs

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


# number kinds beyond config_reader's, each with its file-to-model conversion:
# float takes any number as a float, DEGREES takes degrees to radians
DEGREES = "degrees"
_NUMBERS = {float: float, DEGREES: lambda deg: deg * DEG}

# One table per config section, keyed by its model dataclass, with one row
# per field: (JSON key, field name, kind, list or not). A kind is one of
# config_reader's or of _NUMBERS, or a model of this table (a nested
# section). A list is a tuple in the model.
_KEYS = {
    PdPlacement: (
        ("pd_id", "pd_id", str, False),
        ("offset_m", "offset", NUMBER, True),
        ("orientation", "orientation", str, False),
        ("n_elements", "n_elements", int, False),
        ("element_pitch_m", "element_pitch", NUMBER, False),
        ("active_length_m", "active_length", NUMBER, False),
        ("active_width_m", "active_width", NUMBER, False),
        ("sampled_channels", "sampled_channels", int, True),
    ),
    BoardModel: (
        ("pd_modules", "pd_modules", PdPlacement, True),
        ("width_m", "width", NUMBER, False),
        ("height_m", "height", NUMBER, False),
        ("surround_reflectivity", "surround_reflectivity", NUMBER, False),
        ("pd_reflectivity", "pd_reflectivity", NUMBER, False),
    ),
    LidarModel: (
        ("n_channels", "n_channels", int, False),
        ("vertical_angles_deg", "vertical_angles_deg", NUMBER, True),
        ("azimuth_step_deg", "azimuth_step_deg", NUMBER, False),
        ("range_noise_sigma_m", "range_noise_sigma", NUMBER, False),
        ("azimuth_jitter_sigma_deg", "azimuth_jitter_sigma_deg", NUMBER, False),
        ("beam_divergence_rad", "beam_divergence", NUMBER, False),
        ("firing_period_s", "firing_period", NUMBER, False),
        ("pulse_burst_period_s", "pulse_burst_period", NUMBER, False),
    ),
    TiaParams: (
        ("r_f_ohm", "r_f", NUMBER, False), ("c_f_farad", "c_f", NUMBER, False),
        ("r_sh_ohm", "r_sh", NUMBER, False), ("c_pd_farad", "c_pd", NUMBER, False),
        ("c_i_amp_farad", "c_i_amp", NUMBER, False),
        ("gbwp_hz", "gbwp", NUMBER, False), ("a_ol_db", "a_ol", NUMBER, False),
    ),
    AfeConfig: (
        ("tia", "tia", TiaParams, False),
        ("pulse_width_s", "pulse_width", NUMBER, False),
        ("voltage_noise_sigma_v", "voltage_noise_sigma", NUMBER, False),
        ("noise_floor_v", "noise_floor", NUMBER, False),
        ("peak_current_a", "peak_current", NUMBER, False),
    ),
    Pose6DOF: (
        ("phi_deg", "phi", DEGREES, False), ("theta_deg", "theta", DEGREES, False),
        ("psi_deg", "psi", DEGREES, False),
        ("dx_m", "dx", NUMBER, False), ("dy_m", "dy", NUMBER, False), ("dz_m", "dz", NUMBER, False),
    ),
    Scene: (
        ("board", "board", BoardModel, False),
        ("lidar", "lidar", LidarModel, False),
        ("afe", "afe", AfeConfig, False),
        ("base_pose", "base_pose", Pose6DOF, False),
        ("seed", "seed", int, False),
    ),
    SweepSpec: (
        ("parameter", "parameter", str, False),
        ("start", "start", float, False), ("stop", "stop", float, False), ("step", "step", float, False),
        ("scans_per_point", "scans_per_point", int, False),
        ("seed", "seed", int, False),
    ),
}


def _to_dict(obj) -> dict:
    out = {}
    for key, name, kind, many in _KEYS[type(obj)]:
        value = getattr(obj, name)
        if kind in _KEYS:
            value = [_to_dict(v) for v in value] if many else _to_dict(value)
        out[key] = list(value) if many else value / DEG if kind is DEGREES else value
    return out


def _from_dict(data, model, where: str = "", base=None):
    """A ``model`` from its JSON object ``data``, the section ``where`` of
    its document. An absent key takes its field's value in ``base``, or else
    its field's default; a field with neither is required. A nested
    section's base is its field's default value, if it has one.
    """
    read = config_reader(data, where)
    spec = {f.name: f for f in fields(model)}
    values = {}
    for key, name, kind, many in _KEYS[model]:
        default = spec[name].default
        if key not in data and (default is not MISSING or spec[name].default_factory is not MISSING):
            continue
        at = f"{where}.{key}" if where else key
        if kind in _KEYS and many:
            items = read(key, dict, many=True)
            values[name] = tuple(_from_dict(item, kind, f"{at}[{k}]") for k, item in enumerate(items))
        elif kind in _KEYS:
            values[name] = _from_dict(read(key, dict), kind, at, None if default is MISSING else default)
        else:
            value = read(key, NUMBER if kind in _NUMBERS else kind, many=many)
            values[name] = tuple(value) if many else _NUMBERS[kind](value) if kind in _NUMBERS else value
    return model(**values) if base is None else replace(base, **values)


def scene_to_dict(scene: Scene) -> dict:
    return _to_dict(scene)


def scene_from_dict(data: dict) -> Scene:
    """A scene from its config; every key but the board and its PD ids and
    offsets takes the model's default, and a base pose's keys take those of
    ``bench.DEFAULT_BASE_POSE``.

    Raises ValueError naming the key for a document or section that is not
    an object, a missing required key or a field of the wrong type.
    """
    return _from_dict(data, Scene)


def sweep_to_dict(spec: SweepSpec) -> dict:
    return _to_dict(spec)


def sweep_from_dict(data: dict) -> SweepSpec:
    """A sweep spec from its JSON object; a missing key takes its default.

    Raises ValueError naming the key for a document that is not an object or
    a field of the wrong type.
    """
    return _from_dict(data, SweepSpec)


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
        columns = (channel, azimuth_index, alpha / DEG, omega / DEG, r, refl)
        # tolist() gives Python ints and floats, whose repr is the file form
        rows = zip(*(c.tolist() for c in columns))
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
