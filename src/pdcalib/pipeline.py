"""End-to-end calibration of a batch of scan frames.

One batch is a set of repeated scans of the rig at a fixed reference pose
(the bench repeats 50 revolutions per test point). One segmentation pass
over the batch finds every frame's board returns, and they form one ROI
table with a scan column. The board plane is fit once to that table,
because every scan sees the same board. Then one feature pass runs over the
whole batch:

1. the PD events of every frame form one event table, and one call joins
   each event to the ROI row its firing time names;
2. the joined events are fit in one batch per sample width, and one grouped
   selection keeps per (scan, module) the event whose beam reads the highest
   reflectivity;
3. each kept beam slides along its ray onto the plane (range correction).

The pass emits one key table (``correspondence.KEY_DTYPE``), a row per
detected (scan, module) holding the key beam and its center, and a miss code
per (scan, module). Each module's rows feed its RANSAC azimuth-center model;
one call turns the rows of every modelled module into correspondences. One
stacked closed-form solve gives every frame its own pose estimate, and one
more the joint estimate over all frames.

The ``pdcalib`` logger reports each PD's detection count and miss reasons at
DEBUG level after the feature pass; it is silent unless configured.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import beam_center, correspondence, preprocess, solver
from .bench import Scene
from .geometry import DEG, MM, polar_to_cartesian_array

log = logging.getLogger("pdcalib")


class PipelineError(RuntimeError):
    """A pipeline stage failed for an entire batch."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class FrameFeatures:
    """One frame's share of the batch's key detections."""

    key_beams: np.ndarray    # this scan's rows of the key table (KEY_DTYPE)
    misses: dict             # pd_id -> reason string, in board order


@dataclass
class BatchResult:
    """Output of one batch calibration."""

    models: dict                     # pd_id -> AzimuthCenterModel
    scan_reports: list               # (scan_id, SolveReport | None, note)
    joint: solver.SolveReport
    keys: np.ndarray                 # the key table: every (scan, PD) detection
    correspondences: np.ndarray      # the key rows of the joint solve
    p_o: np.ndarray                  # (n, 3) their board-frame positions, m
    features: list                   # list[FrameFeatures]


def _row_medians(refl: np.ndarray, row: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Median reflectivity of the row of each table entry ``at``: the mean of
    the middle one or two levels. ``row`` numbers every entry's row; only
    the rows asked for are sorted."""
    kept = np.flatnonzero(np.isin(row, row[at]))
    order = kept[np.lexsort((refl[kept], row[kept]))]
    ranked, rows = refl[order], row[order]
    lo = np.searchsorted(rows, row[at], "left")
    hi = np.searchsorted(rows, row[at], "right")
    return (ranked[(lo + hi - 1) // 2] + ranked[(lo + hi) // 2]) / 2


def board_plane(table) -> preprocess.PlaneModel:
    """One board plane fit to the ROI table of a batch.

    Repeated scans at a fixed rig pose see the same board, and a per-scan
    plane's yaw error would leak into the x-translation through the ~2.5 m
    range. A one-frame batch gives that frame's own fit.
    """
    omega, alpha, r = np.stack([table["omega"], table["alpha"], table["r"]])
    tls = preprocess.fit_plane(polar_to_cartesian_array(omega, alpha, r))
    return preprocess.refine_plane_ranges(omega, alpha, r, tls)


# why a (scan, PD) has no key row: MISS_DTYPE's code indexes this tuple, and
# code 0 marks a detection; the dim-beam reason also reads the level and median
MISS_REASONS = (
    "",
    "no voltage events",
    "{pd}: no event time names a board return; PD clock offset?",
    "no successful fit to select a key beam from",
    "{pd}: struck beam reads {level:.1f}, below its row median {median:.1f} + {margin:.0f}; PD clock offset?",
)
_NO_EVENTS, _UNJOINED, _NO_FIT, _DIM = range(1, len(MISS_REASONS))
MISS_DTYPE = np.dtype([("code", np.int8), ("level", float), ("median", float)])


def miss_reasons(miss, pds) -> list:
    """Per scan, a dict of pd_id -> reason, in board order, from the
    ``(n_scans, n_pds)`` miss table of ``extract_frame_features``."""
    margin = correspondence.DEFAULT_DETECTION_MARGIN
    return [
        {
            pd.pd_id: MISS_REASONS[m["code"]].format(pd=pd.pd_id, level=m["level"], median=m["median"], margin=margin)
            for pd, m in zip(pds, row)
            if m["code"]
        }
        for row in miss
    ]


def _miss_kind(code: int, pd) -> str:
    """The reason of a miss code for ``pd``, the dim-beam one without a level and median."""
    if code == _DIM:
        margin = correspondence.DEFAULT_DETECTION_MARGIN
        return f"{pd.pd_id}: struck beam reads below its row median + {margin:.0f}; PD clock offset?"
    return MISS_REASONS[code].format(pd=pd.pd_id)


def extract_frame_features(frames, table, scan, plane: preprocess.PlaneModel, scene: Scene):
    """Beam association, center fitting and range correction on a whole batch.

    ``table`` and ``scan`` are the batch's ROI table and the frame index of
    each row (from ``preprocess.segment_frames``); ``plane`` is the board
    plane the key beams are slid onto. Each (scan, PD) keeps as its key beam
    the joined beam with the highest reflectivity among its usable fits, and
    that event's center. A frame's last record for a PD wins; a record of a
    PD not on the board is ignored. A record that samples an element its
    module lacks raises ValueError naming its scan and PD.

    A (scan, PD) misses when it has no events, when none of its events joins,
    when none of its fits is usable, or when its key beam reads less than its
    (scan, channel) row median plus ``DEFAULT_DETECTION_MARGIN``: a board
    return joined to a PD event that is no brighter than the black surround
    means the PD clock is off the sensor's.

    Returns the key table (``correspondence.KEY_DTYPE``), one row per detected
    (scan, PD) sorted by scan and then board order; and the (n_scans, n_pds)
    miss table (``MISS_DTYPE``), which ``miss_reasons`` spells out.
    """
    pds = scene.board.pd_modules
    n_pds = len(pds)
    index = {pd.pd_id: p for p, pd in enumerate(pds)}
    latest = {(k, index[r.pd_id]): r for k, f in enumerate(frames) for r in f.pd_records if r.pd_id in index}
    for (k, p), r in latest.items():
        lacking = [c for c in r.sampled_channels if not 0 <= c < pds[p].n_elements]
        if lacking:
            raise ValueError(
                f"scan {frames[k].scan_id}: PD {pds[p].pd_id!r} samples element(s) {lacking}, "
                f"which its module of {pds[p].n_elements} elements lacks"
            )
    records = list(latest.values())
    record_cell = np.array([k * n_pds + p for k, p in latest], dtype=np.intp)  # a (scan, PD) cell is scan * n_pds + PD
    sizes = np.array([r.n_events for r in records], dtype=np.intp)
    record = np.repeat(np.arange(len(records)), sizes)  # the event table: record, cell, time
    cell = record_cell[record]
    times = np.concatenate([np.zeros(0)] + [r.sample_times for r in records])

    miss = np.zeros(len(frames) * n_pds, MISS_DTYPE)
    miss["code"] = _NO_EVENTS
    miss["code"][cell] = _UNJOINED
    rows = correspondence.find_pd_beam(times, cell // n_pds, table, scan, scene.lidar)
    joined = np.flatnonzero(rows >= 0)
    miss["code"][cell[joined]] = _NO_FIT

    mu = np.full(len(times), np.nan)
    widths = np.array([len(r.sampled_channels) for r in records], dtype=np.intp)
    for width in np.unique(widths):
        mine = np.flatnonzero(widths == width)
        events = np.flatnonzero(widths[record] == width)  # the events of ``mine``, stacked in record order
        use = rows[events] >= 0
        stacked = np.repeat(np.arange(len(mine)), sizes[mine])[use]
        x = np.array([pds[record_cell[k] % n_pds].element_positions()[list(records[k].sampled_channels)] for k in mine])
        volts = np.concatenate([records[k].element_voltages for k in mine])[use]
        floor = np.array([records[k].noise_floor for k in mine])[stacked]
        mu[events[use]] = beam_center.fit_gaussian_batch(x[stacked], volts, noise_floor=floor).mu

    refl = table["reflectivity"]
    key = beam_center.select_key_beams(mu[joined], refl[rows[joined]], times[joined], cell[joined], len(miss))
    hit = np.flatnonzero(key >= 0)  # the (scan, PD) cells with a key event
    event = joined[key[hit]]
    at = rows[event]
    out = np.zeros(len(hit), dtype=correspondence.KEY_DTYPE)
    for name in table.dtype.names:
        out[name] = table[name][at]
    out["scan"], out["pd"] = np.divmod(hit, n_pds)
    out["mu"] = mu[event]

    c = table["channel"] - table["channel"].min(initial=0)
    medians = _row_medians(refl, scan * (c.max(initial=0) + 1) + c, at)
    dim = ~(out["reflectivity"] >= medians + correspondence.DEFAULT_DETECTION_MARGIN)
    miss["code"][hit] = np.where(dim, _DIM, 0)
    miss["level"][hit[dim]] = out["reflectivity"][dim]
    miss["median"][hit[dim]] = medians[dim]
    out = out[~dim]
    out["r"] = preprocess.range_to_plane(out["omega"], out["alpha"], plane)
    return out, miss.reshape(len(frames), n_pds)


def calibrate_frames(frames, scene: Scene) -> BatchResult:
    """Full calibration over a batch of frames taken at one rig pose.

    Nothing about the pose is assumed: the PD event times name the beams.

    Raises
    ------
    PipelineError
        For an empty batch, a frame with no board-sized cluster, if no PD
        collects enough (azimuth, center) pairs for a model, if no scan
        yields enough correspondences to solve, or if they are collinear.
    ValueError
        For a PD record that samples an element its module lacks.
    """
    if not frames:
        raise PipelineError("segmentation", "empty batch: no frames to calibrate")
    sizes = [len(f.beams) for f in frames]
    beams = np.concatenate([f.beams for f in frames])
    try:
        rows = preprocess.segment_frames(beams, sizes, scene.board.width, scene.board.height)
    except preprocess.SegmentationError as exc:
        raise PipelineError("segmentation", f"scan {frames[exc.frame].scan_id}: {exc}") from exc
    table, scan = beams[rows], np.repeat(np.arange(len(frames)), sizes)[rows]
    plane = board_plane(table)
    pds = scene.board.pd_modules
    keys, miss = extract_frame_features(frames, table, scan, plane, scene)
    misses = miss_reasons(miss, pds)
    n = len(frames)
    bounds = np.searchsorted(keys["scan"], np.arange(n + 1))
    features = [
        FrameFeatures(keys[bounds[k] : bounds[k + 1]], misses[k]) for k in range(n)
    ]

    models: dict = {}
    refused = []  # why each PD got no model
    for p, pd in enumerate(pds):
        mine = keys[keys["pd"] == p]
        # counted by kind, not by reason text: a dim-beam reason reads its own level and median
        why = Counter(_miss_kind(code, pd) for code in miss["code"][:, p].tolist() if code)
        log.debug("%s detected in %d/%d scans; misses %s", pd.pd_id, len(mine), n, dict(why))
        try:
            models[pd.pd_id] = correspondence.build_azimuth_center_model(mine["alpha"] / DEG, mine["mu"] / MM)
        except correspondence.ModelError as exc:
            most = f", most often missed as {why.most_common(1)[0][0]!r}" if why else ""
            refused.append(f"{pd.pd_id} detected in {len(mine)}/{n} scans ({exc}){most}")
    if not models:
        raise PipelineError("correspondence", "; ".join(["no PD produced an azimuth-center model", *refused]))

    rows, p_o = correspondence.make_correspondences(models, keys, pds)
    p_l = polar_to_cartesian_array(rows["omega"], rows["alpha"], rows["r"])
    sizes = np.bincount(rows["scan"], minlength=n)
    scan_reports = []  # (scan_id, SolveReport | None, note)
    for f, (report, note) in zip(frames, solver.solve_groups(p_l, p_o, np.cumsum(sizes) - sizes)):
        if report is not None and report.correspondence_count == 3:
            note = "low-confidence (3 points)"
        scan_reports.append((f.scan_id, report, note))
    # a scan of fewer than 3 correspondences gets no fit, and adds none to the joint one
    joint_rows = np.repeat(sizes >= 3, sizes)
    if not joint_rows.any():
        raise PipelineError("correspondence", "no scan yielded enough correspondences")
    try:
        joint = solver.solve(p_l[joint_rows], p_o[joint_rows])
    except solver.DegenerateCorrespondences as exc:
        raise PipelineError("solve", f"joint solve over {joint_rows.sum()} correspondences: {exc}") from exc
    return BatchResult(
        models=models,
        scan_reports=scan_reports,
        joint=joint,
        keys=keys,
        correspondences=rows[joint_rows],
        p_o=p_o[joint_rows],
        features=features,
    )
