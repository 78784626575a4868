"""File formats: scene/sweep configs (JSON), scan frames and dumps (CSV text).

Scan-frame files are line-oriented delimited text with a fixed field order:

    pdcalib-scanframe,v=1
    # beam,scan_id,channel,azimuth_index,azimuth_deg,omega_deg,range_m,reflectivity
    beam,0,5,22,4.4,-5.0,2.53,10.7
    # pd,pd_id,scan_id,event,time_s,noise_floor_v,sampled_channels,v0,v1,...
    pd,h_tl,0,0,0.0019457,0.1,0|5|10|15,2.66,1.11,0.146,0.0

A file holds one batch of scans, a ``scene.FrameBatch``. The writer
formats the batch's tables in their order, beams by (channel, azimuth
index) and PD records as ``afe.EventTable.of_events`` orders them, so a
frame always serializes byte-identically; it refuses a batch that the file
would not give back. The reader takes rows in any order, scans, PDs and
row kinds mixed, and builds the batch straight from its column tables: the
beams, sorted only when their rows are out of order, and the PD events by
``EventTable.of_events``, as the simulator and ``FrameBatch.of_frames`` do,
so a batch is the batch its file reads back as. Angles are stored in
degrees at this boundary; everything in memory is radians.

Both row kinds are parsed by numpy's text reader under one rule: numbers are
plain ASCII decimals as Python's ``repr`` writes them, and a row holding
``1_0``, non-ASCII digits, a number padded with ``\x1f`` or a non-ASCII
space, or a number that is not finite is refused. The value rules of a row
are those of the type it fills, each written once in its module and checked
once, on the columns of one row kind, and they are the batch's checks: no
rule runs again on the batch. The error names the line and field of the
first malformed line of either kind. ``_row_values`` names the field of a
row that numpy's reader refuses.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np

from .afe import EventTable, TiaParams, element_indices, event_faults
from .bench import Scene
from .geometry import DEG, MM, RETURN_VALUES, Pose6DOF, return_fault, return_faults
from .harness import POINT_FIELDS, POINT_FLOORS, SweepSpec, point_faults
from .scene import (
    BEAM_DTYPE, AfeConfig, BoardModel, FrameBatch, LidarModel, PdPlacement, cell_descents, repeated_returns,
    wrap_azimuths,
)

FRAME_MAGIC = "pdcalib-scanframe,v=1"

# A beam row after its scan_id, one (file field, BEAM_DTYPE column, divisor
# from the column's unit to the file's) per field, in file order.
_BEAM_COLUMNS = (
    ("channel", "channel", 1),
    ("azimuth_index", "azimuth_index", 1),
    ("azimuth_deg", "alpha", DEG),
    ("omega_deg", "omega", DEG),
    ("range_m", "r", 1),
    ("reflectivity", "reflectivity", 1),
)
# A PD row after its pd_id, one (field, type) per field, in file order. The
# sampled channels are "|"-separated int64s, and the voltages v0, v1, ...
# (floats) follow them, one per sampled channel.
_PD_NUMBERS = (
    ("scan_id", np.int64), ("event", np.int64), ("time_s", float), ("noise_floor_v", float),
    ("sampled_channels", np.int64),
)
BEAM_FIELDS = ("scan_id", *(field for field, _, _ in _BEAM_COLUMNS))
PD_FIELDS = ("pd_id", *(field for field, _ in _PD_NUMBERS))


class FrameParseError(ValueError):
    """Malformed frame file or sweep points CSV; carries the offending line and field."""

    def __init__(self, path, line_no: int, field: str, message: str):
        super().__init__(f"{path}:{line_no}: field {field!r}: {message}")
        self.line_no = line_no
        self.field = field


# ---------------------------------------------------------------- configs

NUMBER = (int, float)
_KIND_NAMES = {  # the kinds a value is checked to be, each named singular and plural
    NUMBER: ("a number", "numbers"),
    int: ("an integer", "integers"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
}

# number kinds beyond those of _KIND_NAMES, each with its file-to-model
# conversion: float takes any number as a float, DEGREES takes degrees to radians
DEGREES = "degrees"
_NUMBERS = {float: float, DEGREES: lambda deg: deg * DEG}

# One table per config section, keyed by its model dataclass, with one row
# per field: (JSON key, field name, kind, list or not). A kind is one of
# _KIND_NAMES or of _NUMBERS, or a model of this table (a nested section).
# A list is a tuple in the model.
_KEYS = {
    PdPlacement: (
        ("pd_id", "pd_id", str, False),
        ("offset_m", "offset", NUMBER, True),
        ("orientation", "orientation", str, False),
        ("n_elements", "n_elements", int, False),
        ("element_pitch_m", "element_pitch", NUMBER, False),
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
        ("gbwp_hz", "gbwp", NUMBER, False),
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
# keys an older format held and this one ignores, so that its files still load
_RETIRED = {LidarModel: ("n_channels",), PdPlacement: ("active_length_m",), TiaParams: ("a_ol_db",)}


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
    section's base is its field's default value, if it has one. A key
    outside the format, other than a retired one, is refused.

    Raises ValueError if ``data`` is not an object, and naming the key for a
    key outside the format, a missing required key or a value of another
    kind than its row's (with ``many``, a list of them; a bool is never a
    number).
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {row[0] for row in _KEYS[model]} - set(_RETIRED.get(model, ())))
    if unknown:
        name = f"{where}.{unknown[0]}" if where else unknown[0]
        raise ValueError(f"unknown key {name!r}")
    spec = {f.name: f for f in fields(model)}
    values = {}
    for key, name, kind, many in _KEYS[model]:
        default = spec[name].default
        at = f"{where}.{key}" if where else key
        if key not in data:
            if default is MISSING and spec[name].default_factory is MISSING:
                raise ValueError(f"missing key {at!r}")
            continue
        value = data[key]
        want = dict if kind in _KEYS else NUMBER if kind in _NUMBERS else kind
        items = value if many and isinstance(value, list) else [value]
        if (many and not isinstance(value, list)) or not all(
            isinstance(v, want) and not isinstance(v, bool) for v in items
        ):
            one, several = _KIND_NAMES[want]
            raise ValueError(f"{at!r} must be {'a list of ' + several if many else one}, got {value!r}")
        if kind in _KEYS and many:
            values[name] = tuple(_from_dict(item, kind, f"{at}[{k}]") for k, item in enumerate(value))
        elif kind in _KEYS:
            values[name] = _from_dict(value, kind, at, None if default is MISSING else default)
        else:
            values[name] = tuple(value) if many else _NUMBERS[kind](value) if kind in _NUMBERS else value
    return model(**values) if base is None else replace(base, **values)


def scene_to_dict(scene: Scene) -> dict:
    return _to_dict(scene)


def scene_from_dict(data: dict) -> Scene:
    """A scene from its config; every key but the board and its PD ids and
    offsets takes the model's default, and a base pose's keys take those of
    ``bench.DEFAULT_BASE_POSE``.

    Raises ValueError naming the key for a document or section that is not
    an object, a missing required key, a key outside the format or a field
    of the wrong type. The keys an older format held (``lidar.n_channels``,
    a module's ``active_length_m`` and ``afe.tia.a_ol_db``) are ignored.
    """
    return _from_dict(data, Scene)


def sweep_to_dict(spec: SweepSpec) -> dict:
    return _to_dict(spec)


def sweep_from_dict(data: dict) -> SweepSpec:
    """A sweep spec from its JSON object; a missing key takes its default.

    Raises ValueError naming the key for a document that is not an object, a
    key outside the format or a field of the wrong type.
    """
    return _from_dict(data, SweepSpec)


def save_scene(scene: Scene, path):
    Path(path).write_text(json.dumps(scene_to_dict(scene), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_scene(path) -> Scene:
    try:
        return scene_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad scene config {path}: {exc}") from exc


def load_sweep(path) -> SweepSpec:
    """The sweep spec of a JSON file; ValueError for a file that cannot be read or is not a spec."""
    try:
        return sweep_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (OSError, ValueError) as exc:
        raise ValueError(f"bad sweep spec: {exc}") from exc


# ---------------------------------------------------------------- scan frames

def _interleaved(*columns) -> list:
    """The values of the equal-length ``columns``, row after row."""
    flat = [None] * (len(columns) * len(columns[0]))
    for j, column in enumerate(columns):
        flat[j::len(columns)] = column
    return flat


def frames_to_text(frames) -> str:
    """Serialize a ``FrameBatch``, or a list of ``ScanFrame``s made into
    one, to the delimited-text format (deterministic). Raises ValueError for
    what ``FrameBatch.of_frames`` refuses, then for a frame the file would
    not give back: one with no returns, or whose scan id is not above the
    one before.

    A frame's beam rows, its rows of the batch's table, are written one run
    at a time, a run being a maximal stretch of rows with one channel and
    one elevation (compared by its bits, as 0.0 and -0.0 print apart): the
    run's template holds its scan id, channel and elevation text once, and
    one ``%`` fills the run's other fields. A PD record's rows likewise come
    from one template, filled from its events in the event table. The
    values come from ``tolist()``, which gives Python ints and floats, whose
    repr is the file form.
    """
    batch = FrameBatch.of_frames(frames)
    text = [f"{FRAME_MAGIC}\n# beam,{','.join(BEAM_FIELDS)}\n"]
    for k, scan_id in enumerate(batch.scan_ids):
        b = batch.beams[batch.bounds[k]:batch.bounds[k + 1]]
        if not len(b) or k and scan_id <= batch.scan_ids[k - 1]:
            why = f"follows scan {batch.scan_ids[k - 1]}" if len(b) else "has no returns"
            raise ValueError(f"scan {scan_id}: {why}, so a frame file would not read it back as written")
        channel, omega_deg = b["channel"], b["omega"] / DEG
        bits = omega_deg.view(np.int64)
        new = np.ones(len(b), dtype=bool)
        new[1:] = (channel[1:] != channel[:-1]) | (bits[1:] != bits[:-1])
        starts = np.flatnonzero(new)
        values = _interleaved(*(c.tolist() for c in (b["azimuth_index"], b["alpha"] / DEG, b["r"], b["reflectivity"])))
        ends = [*starts[1:].tolist(), len(b)]
        runs = zip(starts.tolist(), ends, channel[starts].tolist(), omega_deg[starts].tolist())
        text.extend(
            f"beam,{scan_id},{ch},%d,%r,{omega!r},%r,%r\n" * (hi - lo) % tuple(values[4 * lo:4 * hi])
            for lo, hi, ch, omega in runs
        )
    text.append(f"# pd,{','.join(PD_FIELDS)},v0,v1,...\n")
    ev = batch.events
    ids = [pd_id.replace("%", "%%") for pd_id in ev.pd_ids]
    for k, p, channels, floor, (times, volts) in zip(ev.frames.tolist(), ev.pd.tolist(), ev.channels,
                                                     ev.floors.tolist(), ev.views()):
        row = f"pd,{ids[p]},{batch.scan_ids[k]},%d,%r,{floor!r},{'|'.join(map(str, channels))}" + ",%r" * len(channels)
        text.append(f"{row}\n" * len(times) % tuple(_interleaved(range(len(times)), times.tolist(), *volts.T.tolist())))
    return "".join(text)


def write_frames(frames, path):
    """Write a ``FrameBatch``, or a list of ``ScanFrame``s, as a frame file (``frames_to_text``)."""
    Path(path).write_text(frames_to_text(frames), encoding="utf-8")


def _read_text(path):
    """The text of the file ``path`` as UTF-8, and None; or, for a file that
    is not UTF-8, the text of the lines above the line of its first byte
    that is not, and the FrameParseError that names that line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        above = (data[:exc.start].decode("utf-8") + "|").splitlines(keepends=True)[:-1]
        why = f"byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})"
        return "".join(above), FrameParseError(path, len(above) + 1, "encoding", why)


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


def _plain(text) -> bool:
    """Whether ``text`` is free of the characters that numpy's reader and
    ``_parse_int`` / ``_parse_float`` read differently: non-ASCII ones and
    ``_``, which the latter refuse, and ``\x1f``, which numpy's reader strips
    as a space and int() and float() refuse."""
    return text.isascii() and "_" not in text and "\x1f" not in text


def _row_values(path, line_no, fields) -> list:
    """The values of a row's numbers, given as (field, type, token) in row
    order, each read by ``_parse_float`` for a float type and ``_parse_int``
    otherwise; a numpy integer type must hold it, as numpy's reader requires.

    The one field-by-field reader of both row kinds: it names the bad field
    of a row that numpy's reader refuses or that is not ``_plain``. Raises
    FrameParseError for the first field that breaks its rule.
    """
    values = []
    for field, kind, token in fields:
        value = (_parse_float if issubclass(kind, float) else _parse_int)(path, line_no, field, token)
        if issubclass(kind, np.integer) and not np.iinfo(kind).min <= value <= np.iinfo(kind).max:
            raise FrameParseError(
                path, line_no, field, f"{token!r} is not a plain ASCII decimal that fits {np.dtype(kind)}"
            )
        values.append(value)
    return values


# A beam row as numpy's text reader parses it. All eight fields are read, so
# a row with a field too many or too few is refused instead of cut to fit.
_BEAM_ROW = np.dtype(
    [("kind", "U4"), ("scan_id", int), *((field, BEAM_DTYPE[column]) for field, column, _ in _BEAM_COLUMNS)]
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


def _beam_records(path, text, lines, rows):
    """The beam rows ``rows`` (stripped, in file order) as one ``BEAM_DTYPE``
    table in (scan, channel, azimuth index) order, with its scan ids and the
    bounds of their runs, and None; or None and the error for the first
    malformed row. ``text`` is the file's text and ``lines`` its lines. The
    rows are sorted only when ``scene.cell_descents`` finds them out of
    order, and the azimuths of an accepted table are wrapped into [0, 2 pi).

    The rows are parsed by numpy's reader in one call. When it refuses them,
    the first row it refuses is found by bisection: each call parses the
    first half of the window known to hold it, so about log2(n) calls parse
    n rows in all, and the table holds the rows above it. A row is malformed
    when the reader refuses it, when it is not ``_plain`` (the reader takes
    a number padded with ``\x1f`` or a non-ASCII space), when it breaks
    ``geometry.return_faults`` and when it repeats the cell of an earlier row
    (``scene.repeated_returns``), in that order. The error names the first
    such row, and ``_row_values`` its field when a number of it does not read.
    """
    refused = None
    try:
        raw = _loadtxt(rows, _BEAM_ROW) if rows else np.empty(0, _BEAM_ROW)  # numpy's reader warns on empty input
    except _REFUSED as exc:
        refused, parsed = exc, [np.empty(0, _BEAM_ROW)]
        lo, hi = 0, len(rows)  # rows[:lo] parse; rows[lo:hi] hold one that does not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parsed.append(_loadtxt(rows[lo:mid], _BEAM_ROW))
                lo = mid
            except _REFUSED:
                hi = mid
        raw = np.concatenate(parsed)
    beams, scan = np.empty(len(raw), BEAM_DTYPE), raw["scan_id"]
    if cell_descents(scan, raw["channel"], raw["azimuth_index"]).any():  # the writer's order never does
        order = np.lexsort((raw["azimuth_index"], raw["channel"], scan))
        raw, scan = raw[order], scan[order]  # in (scan, channel, azimuth index) order
    else:
        order = np.arange(len(raw))
    for field, column, divisor in _BEAM_COLUMNS:
        beams[column] = raw[field] * divisor
    faults = return_faults(*(beams[name] for name in RETURN_VALUES))
    repeats = repeated_returns(scan, beams["channel"], beams["azimuth_index"])
    bad = [len(raw)] if refused is not None else []  # the first row that breaks each rule
    for broken in (faults.any(axis=0), repeats):
        if broken.any():
            bad.append(int(order[broken].min()))
    if not text.isascii() or "\x1f" in text:  # the reader refuses a "_" itself
        bad += [k for k, row in enumerate(rows[:len(raw)]) if not _plain(row)][:1]
    if not bad:
        wrap_azimuths(beams["alpha"])
        new = np.ones(len(scan), dtype=bool)
        new[1:] = scan[1:] != scan[:-1]
        starts = np.flatnonzero(new)
        return (beams, scan[starts].tolist(), [*starts.tolist(), len(scan)]), None
    k = min(bad)
    beam_lines = [n for n, line in enumerate(lines[1:], 2) if line.strip().startswith("beam,")]
    line_no, parts = beam_lines[k], rows[k].split(",")
    try:  # the first check of the row that fails raises its error
        if len(parts) != len(_BEAM_ROW.names):
            raise FrameParseError(path, line_no, "beam", f"expected {len(BEAM_FIELDS)} fields, got {len(parts) - 1}")
        _row_values(path, line_no, [(field, _BEAM_ROW[field].type, t) for field, t in zip(BEAM_FIELDS, parts[1:])])
        if k == len(raw):
            raise FrameParseError(path, line_no, "beam", str(refused))
        j = int(np.flatnonzero(order == k)[0])  # the row's place in the table
        if faults[:, j].any():
            f = int(np.argmax(faults[:, j]))  # RETURN_VALUES are the fields from azimuth_deg on
            why = return_fault(RETURN_VALUES[f], float(beams[RETURN_VALUES[f]][j]))
            raise FrameParseError(path, line_no, BEAM_FIELDS[3 + f], f"{parts[4 + f]!r} {why}")
        cell = (int(beams["channel"][j]), int(beams["azimuth_index"][j]))
        while repeats[j]:  # back to the first row of the cell, which the stable sort keeps first in the file
            j -= 1
        raise FrameParseError(path, line_no, "azimuth_index", f"beam (channel, azimuth_index) {cell} of scan "
                              f"{scan[j]} repeats line {beam_lines[order[j]]}")
    except FrameParseError as error:
        return None, error


def _pd_fields(parts) -> list:
    """A PD row's numbers as (field, type, token) for ``_row_values``;
    ``parts`` is the row split at its first seven commas."""
    *scalars, (channel_field, index) = _PD_NUMBERS
    return [
        *((field, kind, token) for (field, kind), token in zip(scalars, parts[2:6])),
        *((channel_field, index, token) for token in parts[6].split("|")),
        *((f"v{i}", float, token) for i, token in enumerate(parts[7].split(","))),
    ]


def _first(mask):
    """The index of the first true entry of ``mask``, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def _run_firsts(order, starts) -> np.ndarray:
    """Each row's first row in the file among those of its run, where
    ``order`` sorts the rows into runs that begin at the positions ``starts``."""
    first = np.empty(len(order), dtype=int)
    first[order] = np.repeat(np.minimum.reduceat(order, starts), np.diff([*starts, len(order)]))
    return first


def _pd_columns(path, rows):
    """The PD rows ``rows``, (line_no, row) in file order, read as columns:
    their ``EventTable.of_events`` parts, one per voltage count with scan ids
    for frames and each row's code in the sorted pd_ids as its key, those
    pd_ids, their scan ids in file order, and the error for the first
    malformed row; (None, None, None, error) when there is one, else
    (parts, pd_ids, scan ids, None).

    Each group of rows with one voltage count is parsed by numpy's reader in
    one call, and each distinct sampled-channel text once. When the reader
    refuses a group, or a row of it is not ``_plain`` or holds channels that
    ``_row_values`` refuses, it reads the group's rows, and no others, up to
    the first it names. Each rule below is checked once, on the columns of
    all rows above the first that cannot be read, and a row is named for the
    first rule it breaks:

    1. it has the fields of a PD row with at least one voltage;
    2. its numbers are plain ASCII decimals of their types (``_row_values``);
    3. its sampled channels are strictly increasing element indices from 0 up;
    4. it holds one voltage per sampled channel (``afe.event_faults``);
    5. its (scan, PD, event) is not that of an earlier row;
    6. its sampled channels and 7. its noise floor are those of the first
       row of its (scan, PD) record;
    8. its time and noise floor are finite, and its voltages lie on the
       0-10 V supply rails (``afe.event_faults``).
    """
    parts = [row.split(",", 7) for _, row in rows]  # kind, pd_id, scan_id, ..., sampled_channels, voltages
    found = []  # (row, rule, error) for the first row that breaks each rule
    cut = next((i for i, p in enumerate(parts) if len(p) < 1 + len(PD_FIELDS) + 1), len(rows))
    if cut < len(rows):
        found.append((cut, 1, FrameParseError(path, rows[cut][0], "pd", "missing voltage fields")))
    numbers = [row[len(p[1]) + 4:] for (_, row), p in zip(rows[:cut], parts)]  # the fields after the pd_id
    channels = {}
    for text in {p[6] for p in parts[:cut]}:  # each text once; _row_values names one that does not read below
        try:
            channels[text] = tuple(_row_values(path, 0, [(*_PD_NUMBERS[-1], t) for t in text.split("|")]))
        except FrameParseError:
            pass
    groups: dict = {}  # voltage count -> its rows
    for i, p in enumerate(parts[:cut]):
        groups.setdefault(p[7].count(",") + 1, []).append(i)
    loaded = []  # (rows, voltage count, table) per group
    for count, group in groups.items():
        dtype = [
            *_PD_NUMBERS[:4], ("sampled_channels", f"U{max(len(numbers[i]) for i in group)}"),
            ("volts", float, (count,)),
        ]
        lines = [numbers[i] for i in group]
        table = None
        if _plain("\n".join(lines)) and all(parts[i][6] in channels for i in group):
            try:
                table = _loadtxt(lines, dtype)
            except _REFUSED:
                pass
        if table is None:  # read the group's rows up to the first that breaks rule 2
            values = []
            for i in group:
                try:
                    values.append(_row_values(path, rows[i][0], _pd_fields(parts[i])))
                except FrameParseError as error:
                    found.append((i, 2, error))
                    break
            group = group[:len(values)]
            table = np.array([(*v[:4], parts[i][6], v[-count:]) for i, v in zip(group, values)], dtype)
        loaded.append((group, count, table))
    cut = min([cut, *(i for i, _, _ in found)])
    scan, event, floor = np.empty(cut, dtype=int), np.empty(cut, dtype=int), np.empty(cut)
    for group, count, table in loaded:
        k = int(np.searchsorted(group, cut))
        rows_k, table = group[:k], table[:k]
        scan[rows_k], event[rows_k], floor[rows_k] = table["scan_id"], table["event"], table["noise_floor_v"]
        n_channels = [len(channels[parts[i][6]]) for i in rows_k]
        faults = event_faults(n_channels, table["time_s"], table["noise_floor_v"], table["volts"])
        r = _first(faults[:, 0])
        if r is not None:
            found.append((rows_k[r], 4, FrameParseError(
                path, rows[rows_k[r]][0], "voltages", f"{count} voltages for {n_channels[r]} sampled channels"
            )))
        r = _first(faults[:, 1:].any(axis=1))
        if r is not None:
            f = int(np.argmax(faults[r, 1:]))
            field = ("time_s", "noise_floor_v", *(f"v{j}" for j in range(count)))[f]
            value = float((table["time_s"][r], table["noise_floor_v"][r], *table["volts"][r])[f])
            why = "lies outside the 0-10 V supply range" if math.isfinite(value) else "is not a finite number"
            found.append((rows_k[r], 8, FrameParseError(path, rows[rows_k[r]][0], field, f"{value!r} {why}")))
    increasing = {text: element_indices(channel_list) for text, channel_list in channels.items()}
    i = next((i for i in range(cut) if not increasing[parts[i][6]]), None)
    if i is not None:
        found.append((i, 3, FrameParseError(
            path, rows[i][0], "sampled_channels",
            f"{parts[i][6]!r} is not a strictly increasing list of element indices from 0 up",
        )))
    ids, pd = np.unique(np.array([p[1] for p in parts[:cut]], dtype=object), return_inverse=True)  # as Python strs
    if cut:
        channel_code = {channel_list: k for k, channel_list in enumerate(set(channels.values()))}
        channel = np.array([channel_code[channels[p[6]]] for p in parts[:cut]], dtype=int)
        order = np.lexsort((event, pd, scan))
        s, q, e = scan[order], pd[order], event[order]
        new_record = np.r_[True, (s[1:] != s[:-1]) | (q[1:] != q[:-1])]
        earlier = _run_firsts(order, np.flatnonzero(new_record | np.r_[True, e[1:] != e[:-1]]))
        first = _run_firsts(order, np.flatnonzero(new_record))
        own = np.arange(cut)
        i = _first(earlier != own)
        if i is not None:
            found.append((i, 5, FrameParseError(
                path, rows[i][0], "event",
                f"event {event[i]} of PD {parts[i][1]!r}, scan {scan[i]} repeats line {rows[earlier[i]][0]}",
            )))
        i = _first(channel != channel[first])
        if i is not None:
            found.append((i, 6, FrameParseError(
                path, rows[i][0], "sampled_channels",
                f"{parts[i][6]!r} differs from {'|'.join(map(str, channels[parts[first[i]][6]]))!r} "
                f"in earlier rows of PD {parts[i][1]!r}, scan {scan[i]}",
            )))
        i = _first((floor != floor[first]) & (first != own))  # a record's first row sets its floor
        if i is not None:
            found.append((i, 7, FrameParseError(
                path, rows[i][0], "noise_floor_v",
                f"{float(floor[i])!r} differs from {float(floor[first[i]])!r} "
                f"in earlier rows of PD {parts[i][1]!r}, scan {scan[i]}",
            )))
    if found:
        return None, None, None, min(found, key=lambda item: item[:2])[2]
    tables = [
        (table["scan_id"], pd[group], table["time_s"], table["volts"], [channels[parts[i][6]] for i in group],
         table["noise_floor_v"])
        for group, _, table in loaded
    ]
    return tables, ids.tolist(), scan, None


def read_frames(path) -> FrameBatch:
    """Parse a scan-frame file into one ``FrameBatch`` (no sim truth), its
    frames in scan id order.

    Raises FrameParseError, and no other error, for a malformed file,
    naming its first malformed line of either row kind, or else its first PD
    row of a scan with no beam rows. A line is malformed when it holds a
    byte that is not UTF-8, when a number of it
    does not read or is not finite (``nan``, ``inf``, ``1e999``), when it is
    a beam row that breaks ``geometry.return_faults`` or repeats the (scan,
    channel, azimuth index) cell of an earlier row (named with the line it
    repeats), and when it is a PD row that breaks ``afe.event_faults`` or
    ``afe.element_indices``, repeats the (scan, PD, event) of an earlier
    row, or differs from the earlier rows of its (scan, PD) record in
    sampled channels or noise floor. ``_beam_records`` and ``_pd_columns``
    check each rule once, on the columns; they are the batch's checks, so
    the batch is built from their tables with none run again.
    """
    text, not_utf8 = _read_text(path)  # the lines above the first line that is not UTF-8
    lines = text.splitlines()
    if not lines and not_utf8:
        raise not_utf8
    if not lines or lines[0].strip() != FRAME_MAGIC:
        raise FrameParseError(path, 1, "magic", f"expected {FRAME_MAGIC!r}")
    beam_rows, pd_rows, unknown = [], [], None  # the beam rows; the PD rows as (line_no, row); the first other row
    for line_no, line in enumerate(lines[1:], 2):
        row = line.strip()
        if row.startswith("beam,"):
            beam_rows.append(row)
        elif row.partition(",")[0] == "pd":
            pd_rows.append((line_no, row))
        elif unknown is None and row == "beam":  # a beam row with no fields
            unknown = FrameParseError(path, line_no, "beam", f"expected {len(BEAM_FIELDS)} fields, got 0")
        elif unknown is None and row and not row.startswith("#"):
            unknown = FrameParseError(path, line_no, "record", f"unknown record type {row.partition(',')[0]!r}")
    beam_table, beam_error = _beam_records(path, text, lines, beam_rows)
    tables, pd_ids, pd_scans, pd_error = _pd_columns(path, pd_rows)
    errors = [error for error in (beam_error, pd_error, unknown, not_utf8) if error is not None]
    if errors:
        raise min(errors, key=lambda error: error.line_no)
    beams, scan_ids, bounds = beam_table
    k = _first(~np.isin(pd_scans, scan_ids))
    if k is not None:
        raise FrameParseError(
            path, pd_rows[k][0], "scan_id", f"PD row of scan {pd_scans[k]}, which has no beam rows"
        )
    events = EventTable.of_events([(np.searchsorted(scan_ids, scans), *rest) for scans, *rest in tables], pd_ids)
    return FrameBatch.trusted(scan_ids, beams, bounds, events)


def read_sweep_points(path) -> np.ndarray:
    """The points table of a sweep points CSV, one column per ``POINT_FIELDS`` entry.

    Raises FrameParseError for a header other than ``POINT_FIELDS``, a row
    with the wrong number of fields, a field that is not a number
    (``solved``: an integer), a value that breaks ``harness.point_faults``
    (not finite, a negative ``std_*``, a ``solved`` below 1) and a byte
    that is not UTF-8, naming the first line that holds one of them.
    """
    text, not_utf8 = _read_text(path)  # the lines above the first line that is not UTF-8
    lines = text.splitlines()
    if not lines and not_utf8:
        raise not_utf8
    if not lines or lines[0] != ",".join(POINT_FIELDS):
        raise FrameParseError(path, 1, "header", f"expected {','.join(POINT_FIELDS)!r}")
    parse = [_parse_int if f == "solved" else _parse_float for f in POINT_FIELDS]
    rows = []
    for line_no, line in enumerate(lines[1:], 2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(POINT_FIELDS):
            raise FrameParseError(path, line_no, "row", f"expected {len(POINT_FIELDS)} fields, got {len(parts)}")
        row = []  # nan for a field that does not read, inf for an integer past the float range
        for read, field, token in zip(parse, POINT_FIELDS, parts):
            try:
                read(path, line_no, field, token)
                row.append(float(token))
            except FrameParseError:
                row.append(math.nan)
        faults = point_faults(np.array(row, dtype=float))
        if faults.any():
            k = int(np.argmax(faults))
            parse[k](path, line_no, POINT_FIELDS[k], parts[k])  # raises for a field that does not read
            why = f"is below {POINT_FLOORS[k]}" if math.isfinite(row[k]) else "is not a finite number"
            raise FrameParseError(path, line_no, POINT_FIELDS[k], f"{parts[k]!r} {why}")
        rows.append(row)
    if not_utf8:
        raise not_utf8
    return np.array(rows, dtype=float).reshape(-1, len(POINT_FIELDS))


# ---------------------------------------------------------------- dumps

def correspondence_dump(result, board) -> str:
    """CSV of the per-scan (azimuth, center) detections for offline inspection.

    One row per PD per detected scan: the raw measurement, the model-smoothed
    board-frame position, and whether the RANSAC kept the pair.
    """
    from .correspondence import pd_measurement_to_board

    scan_ids = np.array([sid for sid, _, _ in result.scan_reports])
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
        columns = (scan_ids[keys["scan"]], alpha_deg, mu_mm, *p_o.T, inlier)
        lines.extend(
            f"{pd.pd_id},{sid},{a:.6f},{mu:.4f},{x:.6f},{y:.6f},{z:.6f},{kept}"
            for sid, a, mu, x, y, z, kept in zip(*(c.tolist() for c in columns))
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
