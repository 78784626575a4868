"""End-to-end calibration of a batch of scan frames.

One batch is a set of repeated scans of the rig at a fixed reference pose
(the bench repeats 50 revolutions per test point). Each frame is segmented
once; the board plane is fit once from the pooled segments, because every
scan sees the same board. Then one feature pass runs over the whole batch,
on a single table of every frame's board returns with a scan column:

1. join every PD event of the batch to the board return its firing time
   names, (scan, channel, azimuth index), in one call;
2. fit the beam centers of every joined event in one batch, and keep per
   (scan, module) the event whose beam reads the highest reflectivity;
3. slide each kept beam along its ray onto the plane (range correction).

The pass emits one key table (``correspondence.KEY_DTYPE``): a row per
detected (scan, module) holding the key beam and its center. Each module's
rows feed its RANSAC azimuth-center model; one call turns the rows of every
modelled module into correspondences. One stacked closed-form solve gives
every frame its own pose estimate, and one more the joint estimate over all
frames.

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

    scan_id: int
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


def board_plane(frames, rois) -> preprocess.PlaneModel:
    """One board plane fit to the pooled ROIs of a batch.

    Repeated scans at a fixed rig pose see the same board, and a per-scan
    plane's yaw error would leak into the x-translation through the ~2.5 m
    range. A one-frame batch gives that frame's own fit.
    """
    omega, alpha, r = np.concatenate(
        [np.stack(f.beam_arrays()[:3])[:, roi] for f, roi in zip(frames, rois)], axis=1
    )
    tls = preprocess.fit_plane(polar_to_cartesian_array(omega, alpha, r))
    return preprocess.refine_plane_ranges(omega, alpha, r, tls)


def _beam_centers(groups) -> list:
    """Fitted center of every event, NaN where its fit failed, per group.

    ``groups`` holds one (event voltages (n, m), sample positions (m,), noise
    floor) per detection. The events of all detections that sample the same
    number of elements go through one batched fit, so a batch usually takes
    one call.
    """
    centers = [None] * len(groups)
    for width in {len(positions) for _, positions, _ in groups}:
        ks = [k for k, (_, positions, _) in enumerate(groups) if len(positions) == width]
        volts = [groups[k][0] for k in ks]
        x = np.concatenate([np.broadcast_to(groups[k][1], v.shape) for k, v in zip(ks, volts)])
        floor = np.concatenate([np.full(len(v), groups[k][2]) for k, v in zip(ks, volts)])
        x_aug, y_aug = beam_center.augment_samples(x, np.concatenate(volts))
        mu = beam_center.fit_gaussian_batch(x_aug, y_aug, noise_floor=floor).mu
        for k, part in zip(ks, np.split(mu, np.cumsum([len(v) for v in volts])[:-1])):
            centers[k] = part
    return centers


def extract_frame_features(frames, rois, plane: preprocess.PlaneModel, scene: Scene):
    """Beam association, center fitting and range correction on a whole batch.

    ``rois[k]`` indexes the board returns of ``frames[k]`` (from
    segmentation) and ``plane`` is the board plane the key beams are slid
    onto. The ROI returns of every frame form one table with a scan column,
    and one ``find_pd_beam`` call joins every PD event of the batch to its
    table row by firing time. The joined events are fit together. Each
    (scan, PD) keeps as its key beam the joined beam with the highest
    reflectivity among its usable fits, and that event's center.

    A (scan, PD) misses when none of its events joins, or when its key beam
    reads less than its (scan, channel) row median plus
    ``DEFAULT_DETECTION_MARGIN``: a board return joined to a PD event that
    is no brighter than the black surround means the PD clock is off the
    sensor's.

    Returns the key table (``correspondence.KEY_DTYPE``), one row per
    detected (scan, PD) sorted by scan and then board order, with ``scan``
    the frame's index in ``frames``; and per frame a dict of pd_id -> miss
    reason, in board order.
    """
    pds = scene.board.pd_modules
    table = np.concatenate([f.beams[roi] for f, roi in zip(frames, rois)])
    scan = np.repeat(np.arange(len(frames)), [len(roi) for roi in rois])
    channel, refl = table["channel"], table["reflectivity"]

    records = [{rec.pd_id: rec for rec in f.pd_records} for f in frames]
    misses = [{} for _ in frames]
    live = []  # (scan, pd index, record), PD by PD
    for p, pd in enumerate(pds):
        for k, by_id in enumerate(records):
            rec = by_id.get(pd.pd_id)
            if rec is None or rec.n_events == 0:
                misses[k][pd.pd_id] = "no voltage events"
            else:
                live.append((k, p, rec))
    events = [beam_center.beams_on_pd(rec) for _, _, rec in live]
    counts = [len(times) for times, _ in events]
    rows = correspondence.find_pd_beam(
        np.concatenate([np.zeros(0)] + [times for times, _ in events]),
        np.repeat([k for k, _, _ in live], counts),
        table,
        scan,
        scene.lidar,
    )

    detected = []  # (scan, pd index, joined table rows), PD by PD
    groups = []    # (joined event voltages, sample positions, noise floor) per detection
    for (k, p, rec), (_, volts), hits in zip(live, events, np.split(rows, np.cumsum(counts)[:-1])):
        joined = hits >= 0
        if not joined.any():
            misses[k][pds[p].pd_id] = f"{pds[p].pd_id}: no event time names a board return; PD clock offset?"
            continue
        detected.append((k, p, hits[joined]))
        groups.append((
            volts[joined],
            pds[p].element_positions()[list(rec.sampled_channels)],
            rec.noise_floor,
        ))

    keys = []  # (scan, pd index, key table row, key center) per detection
    for (k, p, hits), mu in zip(detected, _beam_centers(groups)):
        try:
            key = beam_center.select_key_beam(mu, refl[hits])
        except beam_center.GaussianFitError as exc:
            misses[k][pds[p].pd_id] = str(exc)
            continue
        keys.append((k, p, hits[key], mu[key]))
    at = np.array([i for _, _, i, _ in keys], dtype=np.intp)
    out = np.zeros(len(keys), dtype=correspondence.KEY_DTYPE)
    for name in table.dtype.names:
        out[name] = table[name][at]
    out["scan"] = [k for k, _, _, _ in keys]
    out["pd"] = [p for _, p, _, _ in keys]
    out["mu"] = [mu for _, _, _, mu in keys]

    c = channel - channel.min(initial=0)
    medians = _row_medians(refl, scan * (c.max(initial=0) + 1) + c, at)
    margin = correspondence.DEFAULT_DETECTION_MARGIN
    dim = ~(out["reflectivity"] >= medians + margin)
    for row, median in zip(out[dim], medians[dim]):
        pd_id = pds[row["pd"]].pd_id
        misses[row["scan"]][pd_id] = (
            f"{pd_id}: struck beam reads {row['reflectivity']:.1f}, below its row median "
            f"{median:.1f} + {margin:.0f}; PD clock offset?"
        )
    out = out[~dim]
    out = out[np.lexsort((out["pd"], out["scan"]))]
    out["r"] = preprocess.range_to_plane(out["omega"], out["alpha"], plane)
    return out, [{pd.pd_id: m[pd.pd_id] for pd in pds if pd.pd_id in m} for m in misses]


def calibrate_frames(frames, scene: Scene) -> BatchResult:
    """Full calibration over a batch of frames taken at one rig pose.

    Nothing about the pose is assumed: the PD event times name the beams.

    Raises
    ------
    PipelineError
        For an empty batch, a frame with no board-sized cluster, if no PD
        collects enough (azimuth, center) pairs for a model, if no scan
        yields enough correspondences to solve, or if they are collinear.
    """
    if not frames:
        raise PipelineError("segmentation", "empty batch: no frames to calibrate")
    rois = []
    for f in frames:
        try:
            rois.append(preprocess.segment_target(f, scene.board.width, scene.board.height))
        except preprocess.SegmentationError as exc:
            raise PipelineError("segmentation", f"scan {f.scan_id}: {exc}") from exc
    plane = board_plane(frames, rois)
    keys, misses = extract_frame_features(frames, rois, plane, scene)
    n = len(frames)
    bounds = np.searchsorted(keys["scan"], np.arange(n + 1))
    features = [
        FrameFeatures(f.scan_id, keys[bounds[k] : bounds[k + 1]], misses[k]) for k, f in enumerate(frames)
    ]

    pds = scene.board.pd_modules
    found = np.bincount(keys["pd"], minlength=len(pds))
    reasons = [Counter(m[pd.pd_id] for m in misses if pd.pd_id in m) for pd in pds]
    if log.isEnabledFor(logging.DEBUG):
        for pd, hits, why in zip(pds, found, reasons):
            log.debug("%s detected in %d/%d scans; misses %s", pd.pd_id, hits, n, dict(why))
    models: dict = {}
    refused = []  # why each PD got no model
    for p, pd in enumerate(pds):
        mine = keys[keys["pd"] == p]
        try:
            models[pd.pd_id] = correspondence.build_azimuth_center_model(mine["alpha"] / DEG, mine["mu"] / MM)
        except correspondence.ModelError as exc:
            most = f", most often missed as {reasons[p].most_common(1)[0][0]!r}" if reasons[p] else ""
            refused.append(f"{pd.pd_id} detected in {found[p]}/{n} scans ({exc}){most}")
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
