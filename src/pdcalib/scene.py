"""Deterministic scene simulator: spinning LiDAR viewing a PD-instrumented board.

The board occupies the y = 0 plane of the target frame O (x right, z up,
extents centered on the origin). The sensor sits at the pose's translation
and casts one ray per (channel, azimuth-cycle) grid cell; rays are
intersected with the board (and an optional background wall), quantized by
the sensor's angular resolution, and perturbed by range noise and a
per-revolution azimuth phase fluctuation. Beams whose footprint reaches a
photodetector module also produce per-element photocurrents that are run
through the analog front end into sampled voltage records.

Everything is a pure function of (models, pose, seed): equal seeds give
bit-identical frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# currents_to_record, the one-record form of _pd_records' AFE pass, stays a
# name of this module: perfbench traces the simulator's AFE calls by it
from .afe import PdSignalRecord, TiaParams, currents_to_record, element_indices, peak_voltages  # noqa: F401
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
            # the id keys the PD's records and is a field of the frame file
            # and the dumps, which split at commas and line breaks
            if pd.pd_id in seen:
                raise ValueError(f"PD id {pd.pd_id!r} is used by more than one module")
            if "," in pd.pd_id or "".join(pd.pd_id.splitlines()) != pd.pd_id:
                raise ValueError(f"PD id {pd.pd_id!r} holds a comma or a line break")
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
    alpha, ch, az = beams["alpha"], beams["channel"], beams["azimuth_index"]
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
    wrap = ~((alpha >= 0.0) & (alpha < TWO_PI))
    alpha[wrap] %= TWO_PI


@dataclass
class ScanFrame:
    """One full sensor revolution over the scene.

    ``beams`` holds the returns as a structured array of ``BEAM_DTYPE``
    (anything convertible to one is accepted and copied), stored in
    (channel, azimuth_index) order and checked by ``check_returns``.
    ``pd_records`` are this scan's PD records; ``truth`` is the simulator's,
    None for a frame read from a file.
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

    @classmethod
    def batch(cls, scan_ids, beams, bounds, pd_records, truths=None) -> list:
        """The frames of one batch, checked together by ``check_returns``.

        Frame k has the scan id ``scan_ids[k]``, the PD records
        ``pd_records[k]`` and the truth ``truths[k]`` (None without
        ``truths``), and its beams are the view ``beams[bounds[k]:bounds[k +
        1]]`` of the ``BEAM_DTYPE`` table ``beams``, whose runs must each be
        in (channel, azimuth_index) order already; the table's azimuths are
        wrapped in place.
        """
        check_returns(beams, bounds, scan_ids)
        frames = []
        for k, scan_id in enumerate(scan_ids):
            frame = cls.__new__(cls)  # checked above: skip __post_init__
            frame.scan_id, frame.beams = scan_id, beams[bounds[k]:bounds[k + 1]]
            frame.pd_records, frame.truth = pd_records[k], truths[k] if truths else None
            frames.append(frame)
        return frames

    def beam_arrays(self):
        """(omega, alpha, r, channel, azimuth_index, reflectivity) arrays.

        Fresh contiguous copies of the columns: callers may modify them.
        """
        return tuple(np.ascontiguousarray(self.beams[name]) for name in BEAM_DTYPE.names)


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
) -> list:
    """Simulate revolutions of the sensor viewing the board, one per seed.

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
    frames = []
    for lo in range(0, len(seeds), _SCANS_PER_PASS):
        hi = lo + _SCANS_PER_PASS
        frames += _simulate_block(
            board, lidar, rot, t, j, seeds[lo:hi], scan_ids[lo:hi], afe,
            background_depth, background_reflectivity, with_truth, ndtr,
        )
    return frames


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


def _simulate_block(board, lidar, rot, t, j, seeds, scan_ids, afe,
                    background_depth, background_reflectivity, with_truth, ndtr) -> list:
    """The frames of one block of scans at one pose (see ``simulate_scans``)."""
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
        currents = currents[:, list(pd.sampled_channels)]
        edges = np.searchsorted(s_idx[idx], np.arange(len(seeds) + 1))
        events.append((pd, idx, times, currents, edges))
    refl = np.clip(refl + np.concatenate(refl_noise), 0.0, 255.0)

    beams = np.empty(len(s_idx), dtype=BEAM_DTYPE)
    beams["omega"] = lidar.vertical_angles[ch_idx]
    beams["alpha"] = alpha % TWO_PI
    beams["r"] = ranges + np.concatenate(r_noise)
    beams["channel"] = ch_idx
    beams["azimuth_index"] = j[az_idx]
    beams["reflectivity"] = refl

    truths = []
    for k in range(len(scan_ids)) if with_truth else ():
        lo, hi = bounds[k], bounds[k + 1]
        scan_events = [(pd, idx[edges[k]:edges[k + 1]]) for pd, idx, _, _, edges in events]
        truths.append(SimTruth(
            board_positions=points[lo:hi],
            is_board=is_board[lo:hi],
            pd_event_beams={pd.pd_id: [int(i - lo) for i in idx] for pd, idx in scan_events},
        ))
    # the returns come by scan, then channel, then azimuth (see _cast_rays)
    return ScanFrame.batch(scan_ids, beams, bounds, _pd_records(events, rngs, afe), truths)


def _pd_records(events, rngs, afe: AfeConfig) -> list:
    """Each scan's PD records, in board order, from one AFE pass per block.

    ``events`` holds per PD (pd, beam indices, times, sampled currents,
    per-scan edges), as ``_simulate_block`` builds it. Scan k has one record
    per PD with events in it. Its voltage noise is one normal draw from its
    generator, covering its records' (event, sampled element) cells in
    board order, then row-major: the cells, in the order, of one draw per
    record, and so the same stream. The gain, noise and rail clamp are
    ``afe.peak_voltages`` over every cell of the block at once, and the
    records of each sampled width are the views of one event table, checked
    once by ``PdSignalRecord.batch``.
    """
    parts, sizes = [], []  # per record (scan, pd, event times, sampled currents); cells per scan
    for k in range(len(rngs)):
        n = 0
        for pd, _, times, currents, edges in events:
            a, b = edges[k], edges[k + 1]
            if a < b:
                parts.append((k, pd, times[a:b], currents[a:b]))
                n += currents[a:b].size
        sizes.append(n)
    records = [[] for _ in rngs]
    if not parts:
        return records
    noise = None
    if afe.voltage_noise_sigma > 0:
        noise = np.concatenate(
            [rng.normal(0.0, afe.voltage_noise_sigma, size=n) for rng, n in zip(rngs, sizes) if n]
        )
    currents = np.concatenate([c.ravel() for *_, c in parts])
    volts = peak_voltages(currents, afe.tia, afe.pulse_width, noise)
    cells = np.cumsum([0, *(c.size for *_, c in parts)]).tolist()
    widths = {}  # sampled width -> its records' places in parts
    for i, (*_, c) in enumerate(parts):
        widths.setdefault(c.shape[1], []).append(i)
    made = [None] * len(parts)
    for width, members in widths.items():
        pds = [parts[i][1] for i in members]
        batch = PdSignalRecord.batch(
            [pd.pd_id for pd in pds],
            [tuple(pd.sampled_channels) for pd in pds],
            [afe.noise_floor] * len(members),
            np.cumsum([0, *(len(parts[i][2]) for i in members)]),
            np.concatenate([parts[i][2] for i in members]),
            np.concatenate([volts[cells[i]:cells[i + 1]] for i in members]).reshape(-1, width),
        )
        for i, record in zip(members, batch):
            made[i] = record
    for (k, *_), record in zip(parts, made):
        records[k].append(record)
    return records
