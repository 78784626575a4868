"""Deterministic scene simulator: spinning LiDAR viewing a PD-instrumented board.

The board occupies the y = 0 plane of the target frame O (x right, z up,
extents centered on the origin). The sensor sits at the pose's translation
and casts one ray per (channel, azimuth-cycle) grid cell; rays are
intersected with the board (and an optional background wall), quantized by
the sensor's angular resolution, and perturbed by range noise and a
per-revolution azimuth phase fluctuation. Beams whose footprint reaches a
photodetector module also produce per-element photocurrents that are run
through the analog front end into sampled voltage records.

A simulation returns one ``FrameBatch``: its returns in one table, its PD
events in one ``afe.EventTable``, built from each module's event columns by
``EventTable.of_events`` (records by frame, then pd_id) and checked once;
its ``ScanFrame``s are views of those tables. Everything is a pure function
of (models, pose, seed): equal seeds give bit-identical frames.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

# currents_to_record, one (scan, PD) record's share of _pd_records' AFE pass
# over a block's event columns, stays a name of this module: perfbench traces
# the simulator's AFE calls by it
from .afe import EventTable, TiaParams, currents_to_record, element_indices, pd_id_fault, peak_voltages  # noqa: F401
from .geometry import DEG, RETURN_VALUES, TWO_PI, Pose6DOF, pose_to_matrix, return_fault, return_faults

# beams whose spot center lies this far beyond the array ends still produce a
# usable voltage event; farther ones have their peak outside the sampled span
EVENT_AXIAL_MARGIN_M = 4.75e-3
EVENT_CROSS_WINDOW_M = 8.0e-3


class SimulationError(RuntimeError):
    """Degenerate viewing geometry (board behind the sensor or edge-on)."""


@dataclass(frozen=True)
class PdPlacement:
    """One 1-D photodetector array mounted on the board.

    ``offset`` is the board-frame (x, z) position of the active-area center
    measured from the board center. The PD's own coordinate runs 0..15 mm
    along the array with element CH1 at 0 and axes aligned to the board
    (+x for horizontal modules, +z for vertical ones). The active length is
    ``n_elements * element_pitch``: the elements tile the array end to end.
    """

    pd_id: str
    offset: tuple  # (x, z) meters from board center
    orientation: str = "horizontal"  # or "vertical"
    n_elements: int = 16
    element_pitch: float = 1e-3
    active_width: float = 1.45e-3
    sampled_channels: tuple = (0, 5, 10, 15)

    def __post_init__(self):
        if self.orientation not in ("horizontal", "vertical"):
            raise ValueError(f"unknown PD orientation {self.orientation!r}")
        ch = tuple(self.sampled_channels)
        if not element_indices(ch) or ch[-1] >= self.n_elements:
            raise ValueError("sampled_channels must be sorted, unique and in range")

    @property
    def axis(self) -> np.ndarray:
        """Board-frame unit vector along the array (direction of increasing CH)."""
        return np.array([1.0, 0.0]) if self.orientation == "horizontal" else np.array([0.0, 1.0])

    @property
    def half_span(self) -> float:
        """Half of the active length (center to active-area end)."""
        return 0.5 * (self.n_elements * self.element_pitch)

    @property
    def center_local(self) -> float:
        """Array center in the PD's own axis coordinate (7.5 mm)."""
        return 0.5 * (self.n_elements - 1) * self.element_pitch

    def element_positions(self) -> np.ndarray:
        """PD-frame element-center positions (0, 1, ..., 15 mm)."""
        return np.arange(self.n_elements) * self.element_pitch

    @property
    def frame_offset(self) -> np.ndarray:
        """Subtraction constant linking PD and board frames.

        A PD measurement ``d_p`` (axis coordinate mu, lateral 0 at the
        centerline) maps to the board frame as ``o_p = d_p - frame_offset``.
        """
        ax, az = self.axis
        ox, oz = self.offset
        return np.array(
            [
                self.center_local * ax - ox,
                0.0,
                self.center_local * az - oz,
            ]
        )

    def along_cross(self, x, z) -> tuple[np.ndarray, np.ndarray]:
        """(along, cross) coordinates, center origin, of board-frame x and z arrays."""
        ox, oz = self.offset
        if self.orientation == "horizontal":
            return x - ox, z - oz
        return z - oz, x - ox


@dataclass(frozen=True)
class BoardModel:
    """Planar target board with embedded PD modules.

    Reflectivity is on the sensor's 0-255 intensity scale; the surround is
    black (low) and the PD surfaces read higher, which is what the beam
    detector keys on.
    """

    width: float = 1.0
    height: float = 0.54
    pd_modules: tuple = ()
    surround_reflectivity: float = 10.0
    pd_reflectivity: float = 80.0

    def __post_init__(self):
        object.__setattr__(self, "pd_modules", tuple(self.pd_modules))
        if self.pd_reflectivity <= self.surround_reflectivity:
            raise ValueError("pd_reflectivity must exceed surround_reflectivity")
        if not 0.0 <= self.surround_reflectivity < self.pd_reflectivity <= 255.0:
            raise ValueError("board reflectivities must lie on the 0-255 intensity scale")
        seen = set()
        for pd in self.pd_modules:
            # the id keys the PD's records and is a field of the frame file and the dumps
            if pd.pd_id in seen:
                raise ValueError(f"PD id {pd.pd_id!r} is used by more than one module")
            if pd_id_fault(pd.pd_id):
                raise ValueError(pd_id_fault(pd.pd_id))
            seen.add(pd.pd_id)
            ox, oz = pd.offset
            ax, az = pd.axis
            hx = pd.half_span * ax + 0.5 * pd.active_width * az
            hz = pd.half_span * az + 0.5 * pd.active_width * ax
            if abs(ox) + hx > 0.5 * self.width or abs(oz) + hz > 0.5 * self.height:
                raise ValueError(f"PD {pd.pd_id!r} extends beyond the board")


@dataclass(frozen=True)
class LidarModel:
    """Spinning multi-channel sensor model.

    Defaults match a 16-channel, 0.2-degree-azimuth-resolution unit. Angles
    in the config are degrees (sensor datasheet convention); radian views
    are provided for the math; the channel count is the number of vertical
    angles. ``beam_divergence`` is the full angle giving a 19.6 mm spot
    diameter at 2.5 m by default.
    """

    vertical_angles_deg: tuple = tuple(float(a) for a in range(-15, 16, 2))
    azimuth_step_deg: float = 0.2
    range_noise_sigma: float = 0.010
    azimuth_jitter_sigma_deg: float = 0.02
    beam_divergence: float = 19.6e-3 / 2.5
    firing_period: float = 55e-6
    pulse_burst_period: float = 2.3e-6

    def __post_init__(self):
        object.__setattr__(self, "vertical_angles_deg", tuple(self.vertical_angles_deg))
        diffs = np.diff(self.vertical_angles_deg)
        if not self.vertical_angles_deg or np.any(diffs <= 0):
            raise ValueError("vertical_angles must be non-empty and strictly increasing")
        if self.azimuth_step_deg <= 0:
            raise ValueError("azimuth_step must be positive")
        if self.range_noise_sigma < 0 or self.azimuth_jitter_sigma_deg < 0:
            raise ValueError("noise sigmas must be non-negative")
        if self.beam_divergence <= 0:
            raise ValueError(f"beam_divergence must be positive, got {self.beam_divergence}")
        if self.firing_period <= 0:
            raise ValueError(f"firing_period must be positive, got {self.firing_period}")
        if self.pulse_burst_period < 0:
            raise ValueError(f"pulse_burst_period must be non-negative, got {self.pulse_burst_period}")

    @property
    def n_channels(self) -> int:
        return len(self.vertical_angles_deg)

    @property
    def vertical_angles(self) -> np.ndarray:
        return np.asarray(self.vertical_angles_deg) * DEG

    @property
    def azimuth_step(self) -> float:
        return self.azimuth_step_deg * DEG

    @property
    def vertical_step(self) -> float:
        return float(np.min(np.diff(self.vertical_angles_deg))) * DEG

    def channel_azimuth_skew(self, channel) -> np.ndarray:
        """Azimuth offset of a channel's grid from the head spinning during
        the intra-cycle firing sequence."""
        frac = self.pulse_burst_period / self.firing_period
        return np.asarray(channel) * frac * self.azimuth_step

    def spot_sigma(self, r) -> np.ndarray:
        """Gaussian irradiance sigma on a target at range r (diameter / 4)."""
        return np.asarray(r) * self.beam_divergence / 4.0


@dataclass(frozen=True)
class AfeConfig:
    """Electrical chain settings shared by every PD module in a scene."""

    tia: TiaParams = field(default_factory=TiaParams)
    pulse_width: float = 2.3e-6      # effective integration window per pulse
    voltage_noise_sigma: float = 0.1  # V
    noise_floor: float = 0.1          # V, also the fit clamp level
    peak_current: float = 100e-6      # A, centered-hit element current


@dataclass
class SimTruth:
    """Ground-truth bookkeeping attached to simulated frames (never serialized)."""

    board_positions: np.ndarray          # (n_beams, 3) frame-O landing points
    is_board: np.ndarray                 # (n_beams,) bool, False = background
    pd_event_beams: dict                 # pd_id -> [beam index] in event order


# one row per return; the columns of ScanFrame.beams
BEAM_DTYPE = np.dtype(
    [
        ("omega", float),          # elevation, rad, |omega| < pi/2
        ("alpha", float),          # azimuth, rad, in [0, 2 pi)
        ("r", float),              # range, m, > 0
        ("channel", int),          # vertical channel index
        ("azimuth_index", int),    # firing-cycle index within the channel
        ("reflectivity", float),   # return intensity, 0-255
    ]
)


def repeated_returns(frame, channel, azimuth_index) -> np.ndarray:
    """The one-return-per-cell rule, for returns in (frame, channel,
    azimuth_index) order: true where a return repeats the cell of the
    return before it."""
    repeats = np.zeros(len(frame), dtype=bool)
    repeats[1:] = (frame[1:] == frame[:-1]) & (channel[1:] == channel[:-1]) & (azimuth_index[1:] == azimuth_index[:-1])
    return repeats


def cell_descents(frame, channel, azimuth_index) -> np.ndarray:
    """The (frame, channel, azimuth_index) order rule, in one vectorised
    pass: true where a return's cell comes before the cell of the return
    before it (one entry fewer than the returns)."""
    f0, f1, c0, c1 = frame[:-1], frame[1:], channel[:-1], channel[1:]
    later = (c1 > c0) | ((c1 == c0) & (azimuth_index[1:] >= azimuth_index[:-1]))
    return ~((f1 > f0) | ((f1 == f0) & later))


def wrap_azimuths(alpha):
    """Wrap the azimuths outside [0, 2 pi) into it, in place."""
    wrap = ~((alpha >= 0.0) & (alpha < TWO_PI))
    alpha[wrap] %= TWO_PI


def check_returns(beams, bounds, scan_ids):
    """Check the returns of a batch of frames and wrap their azimuths, in place.

    Frame k of the batch is ``beams[bounds[k]:bounds[k + 1]]``, a run of the
    ``BEAM_DTYPE`` table ``beams`` in (channel, azimuth_index) order, and has
    the scan id ``scan_ids[k]``. Every return keeps the rules of
    ``geometry.return_faults``, and no two returns of a frame share a cell
    (``repeated_returns``). Azimuths outside [0, 2 pi) are wrapped into it.

    Raises ValueError naming the scan and cell of the first return that
    breaks a rule, with its first bad value, or else as a duplicate.
    """
    ch, az = beams["channel"], beams["azimuth_index"]
    frame = np.repeat(np.arange(len(scan_ids)), np.diff(bounds))
    faults = return_faults(*(beams[name] for name in RETURN_VALUES))
    repeats = repeated_returns(frame, ch, az)
    bad = faults.any(axis=0) | repeats
    if bad.any():
        i = int(np.argmax(bad))
        scan_id, cell = scan_ids[frame[i]], (int(ch[i]), int(az[i]))
        if not faults[:, i].any():
            raise ValueError(f"scan {scan_id}: duplicate beam (channel, azimuth_index) {cell}")
        name = RETURN_VALUES[int(np.argmax(faults[:, i]))]
        value = float(beams[name][i])
        raise ValueError(f"scan {scan_id}: beam (channel, azimuth_index) {cell}: {name} {value!r} "
                         f"{return_fault(name, value)}")
    wrap_azimuths(beams["alpha"])


@dataclass
class ScanFrame:
    """One full sensor revolution over the scene.

    ``beams`` holds the returns as a structured array of ``BEAM_DTYPE``
    (anything convertible to one is accepted and copied), stored in
    (channel, azimuth_index) order and checked by ``check_returns``.
    ``pd_records`` are this scan's PD records; ``truth`` is the simulator's,
    None for a frame read from a file. A ``FrameBatch``'s frames are views of
    its tables.
    """

    scan_id: int
    beams: np.ndarray
    pd_records: list                     # list[PdSignalRecord]
    truth: SimTruth | None = None

    def __post_init__(self):
        b = np.asarray(self.beams, dtype=BEAM_DTYPE)
        b = b[np.lexsort((b["azimuth_index"], b["channel"]))]  # a copy
        check_returns(b, [0, len(b)], [self.scan_id])
        self.beams = b

    def beam_arrays(self):
        """(omega, alpha, r, channel, azimuth_index, reflectivity) arrays.

        Fresh contiguous copies of the columns: callers may modify them.
        Nothing in the package calls it; it is kept only because perfbench's
        ``install_layers`` wraps it by name.
        """
        return tuple(np.ascontiguousarray(self.beams[name]) for name in BEAM_DTYPE.names)


class FrameBatch(Sequence):
    """The scans of one batch as two checked tables.

    ``beams`` is every frame's returns as one ``BEAM_DTYPE`` table in
    (frame, channel, azimuth_index) order: frame k has the scan id
    ``scan_ids[k]`` and the rows ``bounds[k]:bounds[k + 1]``. ``events`` is
    the PD event table (``afe.EventTable``), whose record frames index the
    batch's frames. ``truths`` holds the simulator's truth per frame, or is
    None.

    Building a batch checks its rules once: each frame's rows must be in
    (channel, azimuth_index) order (``cell_descents``) and its records in
    pd_id order, the returns keep ``check_returns`` (which wraps the
    azimuths in place) and the records ``EventTable.check``; a ValueError
    names the first bad return, or else the first bad record. ``trusted``
    skips the checks for tables whose rules the caller has checked.

    A batch is also the sequence of its frames: ``batch[k]`` is a
    ``ScanFrame`` whose beams and records are views of the tables, all built
    at the first access; a slice is a list of them.
    """

    def __init__(self, scan_ids, beams, bounds, events: EventTable, truths=None):
        self._set(scan_ids, beams, bounds, events, truths)
        descents = cell_descents(np.repeat(np.arange(len(self)), np.diff(self.bounds)), beams["channel"],
                                 beams["azimuth_index"])
        if descents.any():
            k = int(np.searchsorted(self.bounds, np.argmax(descents) + 1, side="right")) - 1
            raise ValueError(f"scan {self.scan_ids[k]}: beams not in (channel, azimuth_index) order")
        frames, pd, ids = events.frames, events.pd, events.pd_ids  # a tie of (frame, pd) is check's to name
        if (np.any(np.diff(frames * len(ids) + pd) < 0) or np.any((frames < 0) | (frames >= len(self)))
                or np.any((pd < 0) | (pd >= len(ids))) or any(a >= b for a, b in zip(ids, ids[1:]))):
            raise ValueError("PD records must come by frame and then by pd_id, each of a frame and a PD of the batch")
        check_returns(beams, self.bounds, self.scan_ids)
        events.check(self.scan_ids)

    def _set(self, scan_ids, beams, bounds, events, truths):
        self.scan_ids, self.beams, self.bounds = list(scan_ids), beams, [int(b) for b in bounds]
        self.events, self.truths, self._frames = events, truths, None

    @classmethod
    def trusted(cls, scan_ids, beams, bounds, events: EventTable) -> FrameBatch:
        """The batch of tables whose rules the caller has checked and whose
        azimuths it has wrapped, as ``io.read_frames`` does: no check runs."""
        batch = cls.__new__(cls)
        batch._set(scan_ids, beams, bounds, events, None)
        return batch

    @classmethod
    def of_frames(cls, frames) -> FrameBatch:
        """``frames`` itself when it is a batch, else the checked batch of
        the list of ``ScanFrame``s, its beams and records copied into one
        table each by ``EventTable.of_events``. Each record has its own key,
        so two of one PD stay two records, which the check refuses; a
        record's events come by time, and a record with no events is
        dropped."""
        if isinstance(frames, cls):
            return frames
        records = [(k, r) for k, f in enumerate(frames) for r in f.pd_records]
        events = EventTable.of_events(
            [(np.full(r.n_events, k), np.full(r.n_events, key), r.sample_times, r.element_voltages,
              [r.sampled_channels] * r.n_events, np.full(r.n_events, r.noise_floor, dtype=float))
             for key, (k, r) in enumerate(records)],
            [r.pd_id for _, r in records],
        )
        beams = np.concatenate([np.empty(0, BEAM_DTYPE), *(f.beams for f in frames)])
        bounds = np.cumsum([0, *(len(f.beams) for f in frames)])
        return cls([f.scan_id for f in frames], beams, bounds, events, [f.truth for f in frames])

    def __len__(self) -> int:
        return len(self.scan_ids)

    def __getitem__(self, k):
        if self._frames is None:
            self._frames = self._views()
        return self._frames[k]

    def _views(self) -> list:
        """Every frame as a ``ScanFrame`` of views of the tables."""
        records, at = self.events.records(), np.searchsorted(self.events.frames, np.arange(len(self) + 1)).tolist()
        frames = []
        for k, scan_id in enumerate(self.scan_ids):
            frame = ScanFrame.__new__(ScanFrame)  # checked with the batch: skip __post_init__
            frame.scan_id, frame.beams = scan_id, self.beams[self.bounds[k]:self.bounds[k + 1]]
            frame.pd_records, frame.truth = records[at[k]:at[k + 1]], self.truths[k] if self.truths else None
            frames.append(frame)
        return frames


def _gauss_rect_fraction(center_a, center_c, half_a, half_c, sigma, ndtr):
    """Energy fraction of a circular Gaussian spot inside a rectangle.

    Rectangle half-sizes (half_a, half_c) around the origin; spot center at
    (center_a, center_c). Separable product of 1-D normal CDFs; ``ndtr`` is
    the standard normal CDF, which ``simulate_scans`` imports.
    """
    fa = ndtr((half_a - center_a) / sigma) - ndtr((-half_a - center_a) / sigma)
    fc = ndtr((half_c - center_c) / sigma) - ndtr((-half_c - center_c) / sigma)
    return fa * fc


def _element_currents(along, cross, sigma, pd: PdPlacement, i_max, ndtr):
    """Per-element photocurrents for Gaussian spots on a PD module.

    Spot k, of Gaussian width ``sigma[k]``, sits at (along[k], cross[k]) from
    the array center; inputs of shape (...) give currents of shape
    (..., n_elements). Each element integrates the spot over its active
    rectangle; the scale is set so a spot centered exactly on an element
    (and on the array centerline) drives that element at ``i_max``.
    """
    along, cross, sigma = (np.asarray(v)[..., None] for v in (along, cross, sigma))
    centers = pd.element_positions() - pd.center_local  # element centers, center origin
    half_pitch = 0.5 * pd.element_pitch
    half_width = 0.5 * pd.active_width
    frac = _gauss_rect_fraction(along - centers, cross, half_pitch, half_width, sigma, ndtr)
    ref = _gauss_rect_fraction(0.0, 0.0, half_pitch, half_width, sigma, ndtr)
    return i_max * frac / ref


def corner_error_bound(r: float, lidar: LidarModel) -> tuple[float, float]:
    """Worst-case (x, z) offset of the nearest beam from a target corner.

    The miss is bounded by one azimuth / vertical resolution cell at the
    beam's range ``r`` in meters: (r tan(d_alpha), r tan(d_omega)).
    """
    if r < 0:
        raise ValueError("range must be non-negative")
    return (
        r * math.tan(lidar.azimuth_step),
        r * math.tan(lidar.vertical_step),
    )


def simulate_scan(
    board: BoardModel,
    lidar: LidarModel,
    pose: Pose6DOF,
    seed: int,
    scan_id: int = 0,
    afe: AfeConfig | None = None,
    background_depth: float | None = None,
    background_reflectivity: float = 40.0,
    with_truth: bool = True,
) -> ScanFrame:
    """Simulate one revolution of the sensor viewing the board.

    The one-scan case of ``simulate_scans``, which documents the arguments.
    Nothing in the package calls it; it is kept only because perfbench's
    ``install_layers`` wraps it by name (as ``harness.simulate_scan``).
    """
    (frame,) = simulate_scans(
        board, lidar, pose, [seed], [scan_id], afe=afe, background_depth=background_depth,
        background_reflectivity=background_reflectivity, with_truth=with_truth,
    )
    return frame


# scans simulated in one array pass: bounds the ray-grid temporaries; the
# output does not depend on it, since every scan draws from its own generator
_SCANS_PER_PASS = 10


def simulate_scans(
    board: BoardModel,
    lidar: LidarModel,
    pose: Pose6DOF,
    seeds,
    scan_ids,
    afe: AfeConfig | None = None,
    background_depth: float | None = None,
    background_reflectivity: float = 40.0,
    with_truth: bool = True,
) -> FrameBatch:
    """Simulate revolutions of the sensor viewing the board, one per seed, as one batch.

    ``pose`` is the ground truth mapping sensor-frame points into the board
    frame. Frame k has id ``scan_ids[k]`` and draws its azimuth phase, range
    noise, reflectivity noise and PD voltage noise, in that order, from
    ``np.random.default_rng(seeds[k])``, so its bits depend neither on the
    other scans of the call nor on the block it falls in. ``background_depth``, if
    given, adds an infinite wall parallel to the board that many meters
    behind it. Scans run in blocks of ``_SCANS_PER_PASS``: each block casts
    one (scans, channels, azimuths) ray grid and integrates each PD's events
    in one call.

    Raises
    ------
    SimulationError
        If the board is behind the sensor or viewed edge-on, or if every
        ray of some scan misses the board (and the wall).
    """
    # imported here, so that calibration, which never simulates, loads no scipy
    from scipy.special import ndtr

    seeds, scan_ids = list(seeds), list(scan_ids)
    if len(seeds) != len(scan_ids):
        raise ValueError(f"{len(seeds)} seeds for {len(scan_ids)} scan ids")
    afe = afe or AfeConfig()
    m = pose_to_matrix(pose)
    rot, t = m[:, :3], m[:, 3]
    j = _azimuth_window(board, lidar, rot, t)
    # the returns come by scan, then channel, then azimuth (see _cast_rays),
    # and each block's are written into one table as they are made, so that
    # no second copy of the table is ever held. The table has a row for every
    # ray of the grid, the most the scans can return (one per cell); the rows
    # never written, whose pages are never touched, are cut off in place at
    # the end
    beams = np.empty(len(seeds) * len(lidar.vertical_angles) * len(j), dtype=BEAM_DTYPE)
    bounds, truths, parts = [0], [], []
    for lo in range(0, len(seeds), _SCANS_PER_PASS):
        hi = lo + _SCANS_PER_PASS
        columns, counts, block_truths, block_parts = _simulate_block(
            board, lidar, rot, t, j, seeds[lo:hi], afe, background_depth, background_reflectivity, with_truth, ndtr,
        )
        start = bounds[-1]
        bounds.extend((start + np.cumsum(counts)).tolist())
        for name, values in zip(BEAM_DTYPE.names, columns):
            beams[name][start:bounds[-1]] = values
        truths += block_truths
        parts += [(lo + scans, *rest) for scans, *rest in block_parts]
    beams.resize(bounds[-1], refcheck=False)
    events = EventTable.of_events(parts, [pd.pd_id for pd in board.pd_modules])
    return FrameBatch(scan_ids, beams, bounds, events, truths if with_truth else None)


def _azimuth_window(board: BoardModel, lidar: LidarModel, rot, t) -> np.ndarray:
    """Azimuth cycle indices whose rays can reach the board, plus a margin.

    Raises SimulationError on degenerate viewing geometry.
    """
    # direction to the board center, in sensor frame
    to_center = rot.T @ -t
    dist = np.linalg.norm(to_center)
    if dist < 0.25 or to_center[1] <= 0.05 * dist:
        raise SimulationError("board center is behind or beside the sensor")
    corners = np.array(
        [
            [sx * 0.5 * board.width, 0.0, sz * 0.5 * board.height]
            for sx in (-1, 1)
            for sz in (-1, 1)
        ]
    )
    corners_l = (corners - t) @ rot  # == rot.T @ (corner - t), rowwise
    if np.any(corners_l[:, 1] <= 0.0):
        raise SimulationError("board extends behind the sensor")
    ray_y = corners_l[:, 1] / np.linalg.norm(corners_l, axis=1)
    if np.min(ray_y) < 0.05:
        raise SimulationError("board viewed nearly edge-on")

    alphas_c = np.arctan2(corners_l[:, 0], corners_l[:, 1])
    step = lidar.azimuth_step
    j_lo = int(math.floor(alphas_c.min() / step)) - 3
    j_hi = int(math.ceil(alphas_c.max() / step)) + 3
    return np.arange(j_lo, j_hi + 1)


def _cast_rays(board: BoardModel, lidar: LidarModel, rot, t, j, phase, background_depth):
    """The returns of a block of scans, one azimuth phase per scan.

    Casts the (scans, channels, azimuths) ray grid and returns, per return,
    its grid cell ``(scan, channel, azimuth)`` indices, azimuth (unwrapped),
    board flag, range and frame-O landing point. Returns come by scan, then
    channel, then azimuth, the order of each scan's beams. The grid arrays
    die with this call; one scratch grid serves every elementwise step.
    """
    step = lidar.azimuth_step
    omegas = lidar.vertical_angles
    skews = lidar.channel_azimuth_skew(np.arange(lidar.n_channels))
    alpha = (j[None, :] * step + skews[:, None]) + phase[:, None, None]
    co = np.cos(omegas)[:, None]
    d_l = np.empty(alpha.shape + (3,))
    tmp = np.sin(alpha)
    tmp *= co
    d_l[..., 0] = tmp
    np.cos(alpha, out=tmp)
    tmp *= co
    d_l[..., 1] = tmp
    d_l[..., 2] = np.sin(omegas)[:, None]
    d_o = d_l @ rot.T
    del d_l

    denom = d_o[..., 1]
    hits_plane = denom > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        t_board = np.divide(-t[1], denom)
        t_board[~hits_plane] = np.inf
        on_board = hits_plane & (t_board > 0)
        # the landing point's x and z, tested one at a time
        for axis, half in ((0, 0.5 * board.width), (2, 0.5 * board.height)):
            np.multiply(t_board, d_o[..., axis], out=tmp)
            tmp += t[axis]
            on_board &= np.abs(tmp, out=tmp) <= half
        if background_depth is not None:
            t_wall = np.divide(background_depth - t[1], denom)
            t_wall[~hits_plane] = np.inf
            hit = on_board | (hits_plane & (t_wall > 0))
        else:
            hit = on_board

    cell = np.nonzero(hit)
    is_board = on_board[cell]
    ranges = t_board[cell]
    if background_depth is not None:
        ranges = np.where(is_board, ranges, t_wall[cell])
    points = t + ranges[:, None] * d_o[cell]
    return cell, alpha[cell], is_board, ranges, points


# a board return whose spot center lies farther than this many spot sigmas
# beyond a module's active rectangle, on either axis, is left out of the
# module's reflectivity boost when ``_reach_sigmas`` proves the boost rounds
# away; beyond ``_ZERO_REACH_SIGMAS`` its energy fraction is exactly 0
_REACH_SIGMAS = 10.0
_ZERO_REACH_SIGMAS = 40.0


def _reach_sigmas(board: BoardModel, size, sigma_max, ndtr) -> float:
    """How many spot sigmas beyond a module's active rectangle its
    reflectivity boost must be evaluated, for one block of returns.

    ``size`` is the rectangle's half-sizes (h_a, h_c) and ``sigma_max`` is
    at least the block's largest board-return spot sigma. The boost of a
    board return is ``(p - s) * e / e_ref``, with p and s the PD and
    surround reflectivities, e its spot's energy fraction in the rectangle
    and e_ref the fraction of a centered spot of its sigma; the return keeps
    ``max(refl, s + boost)``, and ``refl >= s``. Let the spot center lie more than k sigma beyond the
    rectangle on one axis, say along > h_a + k sigma. Both ndtr arguments of
    that axis are then below -k, so its factor of e is at most ndtr(-k);
    the other factor is at most 1. (On the near side, along < -h_a - k sigma,
    both arguments exceed k, and scipy's ndtr is exactly 1.0 above 8.3, so
    the factor is exactly 0.) e_ref falls as sigma grows, so no board
    return's e_ref is below e_ref(sigma_max), and every such boost is at most
    ``(p - s) * ndtr(-k) / e_ref(sigma_max)``. When twice that bound (room
    for the rounding of e, e_ref and the boost) is below half the spacing
    of doubles above s, ``s + boost`` rounds to s, ``max(refl, s)`` is
    refl, and leaving the return out keeps its bits: k = 10, where
    ndtr(-10) = 7.6e-24, passes with orders of magnitude to spare on the
    bench (boost at most 2e-20 against a half spacing of 8.9e-16 at s = 10
    and 6 m range). Otherwise, as for s = 0, where the spacing is the
    smallest subnormal, k = 40: every ndtr argument then lies below -40 or
    above 40, where ndtr is exactly 0.0 or 1.0 (it already is below -37.7
    and above 8.3), so e and the boost are exactly 0 and s + 0 is s.
    """
    e_ref = max(_gauss_rect_fraction(0.0, 0.0, *size, sigma_max, ndtr), 1e-300)
    bound = 2.0 * (board.pd_reflectivity - board.surround_reflectivity) * ndtr(-_REACH_SIGMAS) / e_ref
    if bound < 0.5 * np.spacing(board.surround_reflectivity):
        return _REACH_SIGMAS
    return _ZERO_REACH_SIGMAS


def _simulate_block(board, lidar, rot, t, j, seeds, afe, background_depth, background_reflectivity,
                    with_truth, ndtr) -> tuple:
    """One block of scans at one pose (see ``simulate_scans``): its returns'
    ``BEAM_DTYPE`` columns, by scan, then channel, then azimuth, each scan's
    return count, its truths (none without ``with_truth``) and its PD
    events (``_pd_records``)."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    phase = np.array([rng.normal(0.0, lidar.azimuth_jitter_sigma_deg * DEG) for rng in rngs])
    (s_idx, ch_idx, az_idx), alpha, is_board, ranges, points = _cast_rays(
        board, lidar, rot, t, j, phase, background_depth
    )
    counts = np.bincount(s_idx, minlength=len(seeds))
    if not counts.all():
        raise SimulationError("no ray reaches the board")
    bounds = np.concatenate([[0], np.cumsum(counts)])

    r_noise, refl_noise = [], []
    for rng, n in zip(rngs, counts):
        r_noise.append(
            rng.normal(0.0, lidar.range_noise_sigma, size=n) if lidar.range_noise_sigma > 0 else np.zeros(n)
        )
        refl_noise.append(rng.uniform(-2.0, 2.0, size=n))

    # per PD, over the board returns of the block: the reflectivity boost
    # (black surround, PD surfaces weighted by the fraction of the footprint
    # energy landing on the active area), evaluated only where it can change
    # a bit (see _reach_sigmas), and the events, the returns whose footprint
    # reaches the module, by scan then firing time (stable, as a per-scan
    # sort), with their sampled elements' currents
    sigma_spot = lidar.spot_sigma(ranges)
    refl = np.where(is_board, board.surround_reflectivity, background_reflectivity)
    on_board = np.flatnonzero(is_board)
    x_b, z_b, sigma_b = points[on_board, 0], points[on_board, 2], sigma_spot[on_board]
    sigma_max = sigma_spot.max()  # no board return's is larger; a block has a return
    events = []
    for pd in board.pd_modules:
        along, cross = pd.along_cross(x_b, z_b)
        size = (pd.half_span, 0.5 * pd.active_width)
        reach = _reach_sigmas(board, size, sigma_max, ndtr) * sigma_b
        lit = np.flatnonzero((np.abs(along) <= size[0] + reach) & (np.abs(cross) <= size[1] + reach))
        sigma_lit = sigma_b[lit]
        e_ref = np.maximum(_gauss_rect_fraction(0.0, 0.0, *size, sigma_lit, ndtr), 1e-300)
        e = _gauss_rect_fraction(along[lit], cross[lit], *size, sigma_lit, ndtr)
        boost = (board.pd_reflectivity - board.surround_reflectivity) * e / e_ref
        i = on_board[lit]
        refl[i] = np.maximum(refl[i], board.surround_reflectivity + boost)

        near = np.flatnonzero(
            (np.abs(along) <= pd.half_span + EVENT_AXIAL_MARGIN_M) & (np.abs(cross) <= EVENT_CROSS_WINDOW_M)
        )
        idx = on_board[near]
        times = j[az_idx[idx]] * lidar.firing_period + ch_idx[idx] * lidar.pulse_burst_period
        order = np.lexsort((times, s_idx[idx]))
        near, idx, times = near[order], idx[order], times[order]
        currents = _element_currents(along[near], cross[near], sigma_b[near], pd, afe.peak_current, ndtr)
        events.append((pd, idx, s_idx[idx], times, currents[:, list(pd.sampled_channels)]))
    refl = np.clip(refl + np.concatenate(refl_noise), 0.0, 255.0)

    # the BEAM_DTYPE columns, in its order
    columns = (lidar.vertical_angles[ch_idx], alpha % TWO_PI, ranges + np.concatenate(r_noise), ch_idx, j[az_idx], refl)

    truths = []
    for k in range(len(seeds)) if with_truth else ():
        lo, hi = bounds[k], bounds[k + 1]
        truths.append(SimTruth(
            board_positions=points[lo:hi],
            is_board=is_board[lo:hi],
            pd_event_beams={pd.pd_id: (idx[scans == k] - lo).tolist() for pd, idx, scans, *_ in events},
        ))
    return columns, counts, truths, _pd_records(events, rngs, afe)


def _pd_records(events, rngs, afe: AfeConfig) -> list:
    """The PD events of a block from one AFE pass, as ``EventTable.of_events``
    parts: per PD, in board order, its events' columns (scans in the block,
    board index as the key, times, (n, sampled) voltages, sampled channels,
    noise floors).

    ``events`` holds per PD (pd, beam indices, scans, times, sampled
    currents), as ``_simulate_block`` builds it, by scan and then time. Scan
    k's voltage noise is one normal draw from its generator, covering its
    (event, sampled element) cells PD by PD in board order, then row-major:
    one lexsort of (scan, PD) places each draw on the block's cells, which
    lie PD by PD. The gain, noise and rail clamp are ``afe.peak_voltages``
    over every cell of the block at once.
    """
    cells = np.cumsum([0, *(c.size for *_, c in events)])
    noise = None
    if afe.voltage_noise_sigma > 0:
        cell_scan = np.concatenate([np.zeros(0, int), *(np.repeat(s, c.shape[1]) for _, _, s, _, c in events)])
        order = np.lexsort((np.repeat(np.arange(len(events)), np.diff(cells)), cell_scan))  # by scan, then PD
        noise = np.empty(cells[-1])
        noise[order] = np.concatenate([
            np.zeros(0), *(rng.normal(0.0, afe.voltage_noise_sigma, size=n)
                           for rng, n in zip(rngs, np.bincount(cell_scan, minlength=len(rngs))))
        ])
    volts = peak_voltages(np.concatenate([np.zeros(0), *(c.ravel() for *_, c in events)]), afe.tia,
                          afe.pulse_width, noise)
    return [
        (s, np.full(len(s), p), times, volts[cells[p]:cells[p + 1]].reshape(c.shape),
         [tuple(pd.sampled_channels)] * len(s), np.full(len(s), afe.noise_floor))
        for p, (pd, _, s, times, c) in enumerate(events)
    ]
