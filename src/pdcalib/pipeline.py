"""End-to-end calibration of a batch of scan frames.

One batch is a set of repeated scans of the rig at a fixed reference pose
(the bench repeats 50 revolutions per test point), held as one
``scene.FrameBatch``: its returns table and its PD event table are read
here directly, and a list of ``ScanFrame``s becomes a batch once, on entry.
The trig of every return's angles is evaluated once (``geometry.polar_rays``). One
segmentation pass over the batch's points finds every frame's board
returns, and they form one ROI table with a scan column. The board plane is
fit once to the ROI returns' points and ray directions, because every scan
sees the same board. Then one feature pass runs over the whole batch:

1. the batch's event table, less the records that do not count, gives
   every PD event, and one call joins each to the ROI row its firing time
   names;
2. per (scan, module), the first joined event in key order is fit, and the
   others only where that fit is unusable, in one batch per sample width;
   one grouped selection keeps per (scan, module) the event with a usable
   fit whose beam reads the highest reflectivity;
3. each kept beam slides along its ray onto the plane (range correction).

The pass emits one key table (``correspondence.KEY_DTYPE``), a row per
detected (scan, module) holding the key beam and its center, and a miss code
per (scan, module). Each module's rows feed its RANSAC azimuth-center model;
one call turns the rows of every modelled module into correspondences. One
stacked closed-form solve gives every frame its own pose estimate, and one
more the joint estimate over all frames.

The ``pdcalib`` logger reports each PD's detection count and miss reasons at
DEBUG level after the feature pass, and the stage times of
``BatchResult.timings`` at the end; it is silent unless configured.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import beam_center, correspondence, preprocess, solver
from .bench import Scene
from .geometry import DEG, MM, polar_rays, polar_to_cartesian_array
from .scene import FrameBatch

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
    timings: dict                    # stage name (STAGES) -> wall time, s


STAGES = ("segment", "plane", "association", "center_fit", "ransac", "solve")


@contextmanager
def _stage(timings: dict, name: str):
    """Set ``timings[name]`` to the wall time of the block, in seconds."""
    start = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - start


def _row_medians(refl: np.ndarray, row: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Median reflectivity of the row of each table entry ``at``: the mean of
    the middle one or two levels. ``row`` numbers every entry's row and is
    ascending, so each row is one run of the table; only the runs asked for
    are sorted, padded to the longest with +inf."""
    lo = np.searchsorted(row, row[at], "left")
    size = np.searchsorted(row, row[at], "right") - lo
    column = np.arange(size.max(initial=0))
    inside = column < size[:, None]
    runs = np.full(inside.shape, np.inf)
    runs[inside] = refl[(lo[:, None] + column)[inside]]
    runs.sort(axis=1, kind="stable")
    at_run = np.arange(len(at))
    return (runs[at_run, (size - 1) // 2] + runs[at_run, size // 2]) / 2


def board_plane(points, dirs, r) -> preprocess.PlaneModel:
    """One board plane fit to the ROI returns of a batch, given as their
    (n, 3) sensor-frame points and unit ray directions (``geometry.polar_rays``)
    and their ranges.

    Repeated scans at a fixed rig pose see the same board, and a per-scan
    plane's yaw error would leak into the x-translation through the ~2.5 m
    range. A one-frame batch gives that frame's own fit.
    """
    return preprocess.refine_plane_ranges(dirs, r, preprocess.fit_plane(points))


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


def extract_frame_features(batch: FrameBatch, table, scan, plane: preprocess.PlaneModel, scene: Scene,
                           timings: dict):
    """Beam association, center fitting and range correction on a whole batch.

    ``batch`` is the ``FrameBatch``, whose event table the pass reads;
    ``table`` and ``scan`` are the batch's ROI table and the frame index of
    each row (from ``preprocess.segment_frames``); ``plane`` is the board
    plane the key beams are slid onto. Each (scan, PD) keeps as its key beam
    the joined beam with the highest reflectivity among its usable fits, and
    that event's center. Each event reads its noise floor and element
    positions (its channels times ``element_pitch``) from its record; a
    record of a PD not on the board is ignored, and one that samples an
    element its module lacks raises ValueError naming its scan and PD.

    Fit rows are independent, so only the events that can be key beams are
    fit: first each (scan, PD)'s first event in key order (highest level,
    then earliest time, then lowest index), and then the other events of
    the (scan, PD)s whose first fit is unusable.

    A (scan, PD) misses when it has no events, when none of its events joins,
    when none of its fits is usable, or when its key beam reads less than its
    (scan, channel) row median plus ``DEFAULT_DETECTION_MARGIN``: a board
    return joined to a PD event that is no brighter than the black surround
    means the PD clock is off the sensor's.

    ``timings`` gets the seconds of the ``association`` and ``center_fit``
    stages. Returns the key table (``correspondence.KEY_DTYPE``), one row per
    detected (scan, PD) sorted by scan and then board order; and the
    (n_scans, n_pds) miss table (``MISS_DTYPE``), which ``miss_reasons``
    spells out.
    """
    pds, ev = scene.board.pd_modules, batch.events
    n_pds = len(pds)
    with _stage(timings, "association"):
        index = {pd.pd_id: p for p, pd in enumerate(pds)}
        record_pd = np.array([index.get(pd_id, -1) for pd_id in ev.pd_ids], dtype=np.intp)[ev.pd]  # -1: off the board
        for r in np.flatnonzero(record_pd >= 0).tolist():
            pd = pds[record_pd[r]]
            lacking = [c for c in ev.channels[r] if not 0 <= c < pd.n_elements]
            if lacking:
                raise ValueError(
                    f"scan {batch.scan_ids[ev.frames[r]]}: PD {pd.pd_id!r} samples element(s) {lacking}, "
                    f"which its module of {pd.n_elements} elements lacks"
                )
        # per sample-width group, the (record, times, volts) of the on-board records' events
        groups = [(record[on], times[on], volts[on]) for record, times, volts in ev.groups
                  for on in [record_pd[record] >= 0]]
        times = np.concatenate([np.zeros(0), *(times for _, times, _ in groups)])
        offsets = np.cumsum([0, *(len(times) for _, times, _ in groups)])  # group g's events: offsets[g]:offsets[g + 1]
        # a (scan, PD) cell is scan * n_pds + PD
        cell = np.concatenate([np.zeros(0, dtype=np.intp), *(ev.frames[r] * n_pds + record_pd[r] for r, *_ in groups)])

        miss = np.zeros(len(batch) * n_pds, MISS_DTYPE)
        miss["code"] = _NO_EVENTS
        miss["code"][cell] = _UNJOINED
        rows = correspondence.find_pd_beam(times, cell // n_pds, table, scan, scene.lidar)
        joined = np.flatnonzero(rows >= 0)
        miss["code"][cell[joined]] = _NO_FIT

    with _stage(timings, "center_fit"):
        pitch = np.array([pd.element_pitch for pd in pds])
        mu = np.full(len(times), np.nan)

        def fit(events):
            for (group_record, _, volts), lo, hi in zip(groups, offsets, offsets[1:]):
                part = events[(events >= lo) & (events < hi)]
                if len(part):
                    r = group_record[part - lo]
                    x = np.array([ev.channels[i] for i in r.tolist()]) * pitch[record_pd[r], None]
                    mu[part] = beam_center.fit_gaussian_batch(x, volts[part - lo], noise_floor=ev.floors[r]).mu

        refl = table["reflectivity"]
        level, when, group = refl[rows[joined]], times[joined], cell[joined]
        # with every fit counted usable, the key pick is each group's first event in key order
        first = beam_center.select_key_beams(np.zeros(len(joined)), level, when, group, len(miss))
        first = first[first >= 0]
        fit(joined[first])
        retry = np.zeros(len(miss), dtype=bool)
        retry[group[first]] = np.isnan(mu[joined[first]])
        again = retry[group]
        again[first] = False
        fit(joined[again])
        key = beam_center.select_key_beams(mu[joined], level, when, group, len(miss))

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
    return out, miss.reshape(len(batch), n_pds)


def calibrate_frames(frames, scene: Scene) -> BatchResult:
    """Full calibration over a batch of frames taken at one rig pose.

    ``frames`` is a ``FrameBatch``, or a list of ``ScanFrame``s, which
    becomes one here (``FrameBatch.of_frames``) and nowhere else. Nothing
    about the pose is assumed: the PD event times name the beams.

    Raises
    ------
    PipelineError
        For an empty batch, a frame with no board-sized cluster, if no PD
        collects enough (azimuth, center) pairs for a model, if no scan
        yields enough correspondences to solve, or if they are collinear.
    ValueError
        For a PD record that samples an element its module lacks.
    """
    batch = FrameBatch.of_frames(frames)
    n = len(batch)
    if not n:
        raise PipelineError("segmentation", "empty batch: no frames to calibrate")
    timings: dict = {}
    with _stage(timings, "segment"):
        beams, sizes = batch.beams, np.diff(batch.bounds)
        points, dirs = polar_rays(beams["omega"], beams["alpha"], beams["r"])
        try:
            rows = preprocess.segment_frames(beams, points, sizes, scene.board.width, scene.board.height)
        except preprocess.SegmentationError as exc:
            raise PipelineError("segmentation", f"scan {batch.scan_ids[exc.frame]}: {exc}") from exc
        # ``take`` copies whole rows, where indexing copies a structured table field by field
        table, scan = beams.take(rows), np.repeat(np.arange(n), sizes)[rows]
        points, dirs = points[rows], dirs[rows]  # the ROI returns' geometry, which only the plane fit needs
    with _stage(timings, "plane"):
        plane = board_plane(points, dirs, table["r"])
    del points, dirs
    pds = scene.board.pd_modules
    keys, miss = extract_frame_features(batch, table, scan, plane, scene, timings)
    misses = miss_reasons(miss, pds)
    bounds = np.searchsorted(keys["scan"], np.arange(n + 1))
    features = [
        FrameFeatures(keys[bounds[k] : bounds[k + 1]], misses[k]) for k in range(n)
    ]

    models: dict = {}
    refused = []  # why each PD got no model
    with _stage(timings, "ransac"):
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

    with _stage(timings, "solve"):
        p_l = polar_to_cartesian_array(rows["omega"], rows["alpha"], rows["r"])
        sizes = np.bincount(rows["scan"], minlength=n)
        scan_reports = []  # (scan_id, SolveReport | None, note)
        for scan_id, (report, note) in zip(batch.scan_ids, solver.solve_groups(p_l, p_o, np.cumsum(sizes) - sizes)):
            if report is not None and report.correspondence_count == 3:
                note = "low-confidence (3 points)"
            scan_reports.append((scan_id, report, note))
        # a scan of fewer than 3 correspondences gets no fit, and adds none to the joint one
        joint_rows = np.repeat(sizes >= 3, sizes)
        if not joint_rows.any():
            raise PipelineError("correspondence", "no scan yielded enough correspondences")
        try:
            joint = solver.solve(p_l[joint_rows], p_o[joint_rows])
        except solver.DegenerateCorrespondences as exc:
            raise PipelineError("solve", f"joint solve over {joint_rows.sum()} correspondences: {exc}") from exc
    log.debug("stage times (ms): %s", ", ".join(f"{name} {timings[name] * 1e3:.2f}" for name in STAGES))
    return BatchResult(
        models=models,
        scan_reports=scan_reports,
        joint=joint,
        keys=keys,
        correspondences=rows[joint_rows],
        p_o=p_o[joint_rows],
        features=features,
        timings=timings,
    )
