"""End-to-end calibration of a batch of scan frames.

One batch is a set of repeated scans of the rig at a fixed reference pose
(the bench repeats 50 revolutions per test point). Each frame is segmented
once; the board plane is fit once from the pooled segments, because every
scan sees the same board. Then one feature pass runs over the whole batch,
on a single table of every frame's board returns with a scan column:

1. slide each board return along its ray onto the plane (range correction);
2. join every PD event of the batch to the board return its firing time
   names, (scan, channel, azimuth index), in one call;
3. fit the beam centers of every joined event in one batch, and keep per
   (scan, module) the event whose beam reads the highest reflectivity: its
   (azimuth, center) pair.

The per-module pairs from the whole batch feed the RANSAC azimuth-center
model; each frame then yields correspondences. One stacked closed-form solve
gives every frame its own pose estimate, and one more the joint estimate
over all frames.

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
from .geometry import DEG, MM, PolarBeam, polar_to_cartesian_array

log = logging.getLogger("pdcalib")


class PipelineError(RuntimeError):
    """A pipeline stage failed for an entire batch."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class FrameFeatures:
    """Per-frame intermediate products kept for correspondence assembly."""

    scan_id: int
    key_beams: dict          # pd_id -> detected PolarBeam, range corrected
    key_centers: dict        # pd_id -> fitted center, m (PD axis coordinate)
    plane: preprocess.PlaneModel
    roi_count: int
    misses: dict             # pd_id -> reason string


@dataclass
class BatchResult:
    """Output of one batch calibration."""

    models: dict                     # pd_id -> AzimuthCenterModel
    scan_reports: list               # (scan_id, SolveReport | None, note)
    joint: solver.SolveReport
    correspondences: list            # all correspondences, every scan
    pairs: dict                      # pd_id -> (alpha_deg, mu_mm, scan_ids) arrays
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


def extract_frame_features(frames, rois, plane: preprocess.PlaneModel, scene: Scene) -> list:
    """Range correction, beam association and center fitting on a whole batch.

    ``rois[k]`` indexes the board returns of ``frames[k]`` (from
    segmentation) and ``plane`` is the board plane they are slid onto. The
    ROI returns of every frame form one table with a scan column, and one
    ``find_pd_beam`` call joins every PD event of the batch to its table row
    by firing time. The joined events are fit together. Each (scan, PD)
    keeps as its key beam the joined beam with the highest reflectivity
    among its usable fits, and that event's center.

    A (scan, PD) misses when none of its events joins, or when its key beam
    reads less than its (scan, channel) row median plus
    ``DEFAULT_DETECTION_MARGIN``: a board return joined to a PD event that
    is no brighter than the black surround means the PD clock is off the
    sensor's.

    Returns one ``FrameFeatures`` per frame, in batch order.
    """
    board = scene.board
    n = len(frames)
    table = np.concatenate([f.beams[roi] for f, roi in zip(frames, rois)])
    sizes = [len(roi) for roi in rois]
    scan = np.repeat(np.arange(n), sizes)
    omega, alpha, channel, refl = (table[k] for k in ("omega", "alpha", "channel", "reflectivity"))
    r_corr = preprocess.range_to_plane(omega, alpha, plane)

    records = [{rec.pd_id: rec for rec in f.pd_records} for f in frames]
    misses = [{} for _ in frames]
    live = []  # (scan, pd, record), PD by PD
    for pd in board.pd_modules:
        for k, by_id in enumerate(records):
            rec = by_id.get(pd.pd_id)
            if rec is None or rec.n_events == 0:
                misses[k][pd.pd_id] = "no voltage events"
            else:
                live.append((k, pd, rec))
    events = [beam_center.beams_on_pd(rec) for _, _, rec in live]
    counts = [len(times) for times, _ in events]
    rows = correspondence.find_pd_beam(
        np.concatenate([np.zeros(0)] + [times for times, _ in events]),
        np.repeat([k for k, _, _ in live], counts),
        table,
        scan,
        scene.lidar,
    )

    detected = []  # (scan, pd, joined table rows), PD by PD
    groups = []    # (joined event voltages, sample positions, noise floor) per detection
    for (k, pd, rec), (_, volts), hits in zip(live, events, np.split(rows, np.cumsum(counts)[:-1])):
        joined = hits >= 0
        if not joined.any():
            misses[k][pd.pd_id] = f"{pd.pd_id}: no event time names a board return; PD clock offset?"
            continue
        detected.append((k, pd, hits[joined]))
        groups.append((
            volts[joined],
            pd.element_positions()[list(rec.sampled_channels)],
            rec.noise_floor,
        ))

    keys = []  # (scan, pd, key table row, key center)
    for (k, pd, hits), mu in zip(detected, _beam_centers(groups)):
        try:
            key = beam_center.select_key_beam(mu, refl[hits])
        except beam_center.GaussianFitError as exc:
            misses[k][pd.pd_id] = str(exc)
            continue
        keys.append((k, pd, hits[key], mu[key]))
    c = channel - channel.min(initial=0)
    row = scan * (c.max(initial=0) + 1) + c
    medians = _row_medians(refl, row, np.array([i for _, _, i, _ in keys], dtype=np.intp))
    margin = correspondence.DEFAULT_DETECTION_MARGIN

    key_beams = [{} for _ in frames]
    key_centers = [{} for _ in frames]
    for (k, pd, i, mu), median in zip(keys, medians):
        if not refl[i] >= median + margin:
            misses[k][pd.pd_id] = (
                f"{pd.pd_id}: struck beam reads {refl[i]:.1f}, below its row median "
                f"{median:.1f} + {margin:.0f}; PD clock offset?"
            )
            continue
        key_beams[k][pd.pd_id] = PolarBeam(
            omega=float(omega[i]),
            alpha=float(alpha[i]),
            r=float(r_corr[i]),
            channel=int(channel[i]),
            azimuth_index=int(table["azimuth_index"][i]),
            reflectivity=float(refl[i]),
        )
        key_centers[k][pd.pd_id] = float(mu)
    features = [
        FrameFeatures(
            scan_id=f.scan_id,
            key_beams=key_beams[k],
            key_centers=key_centers[k],
            plane=plane,
            roi_count=sizes[k],
            misses={pd.pd_id: misses[k][pd.pd_id] for pd in board.pd_modules if pd.pd_id in misses[k]},
        )
        for k, f in enumerate(frames)
    ]
    if log.isEnabledFor(logging.DEBUG):
        for pd in board.pd_modules:
            reasons = Counter(ft.misses[pd.pd_id] for ft in features if pd.pd_id in ft.misses)
            found = sum(pd.pd_id in ft.key_beams for ft in features)
            log.debug("%s detected in %d/%d scans; misses %s", pd.pd_id, found, n, dict(reasons))
    return features


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
    features = extract_frame_features(frames, rois, plane, scene)

    pairs: dict = {}
    for pd in scene.board.pd_modules:
        a, mu, sids = [], [], []
        for ft in features:
            if pd.pd_id in ft.key_beams:
                a.append(ft.key_beams[pd.pd_id].alpha / DEG)
                mu.append(ft.key_centers[pd.pd_id] / MM)
                sids.append(ft.scan_id)
        pairs[pd.pd_id] = (np.array(a), np.array(mu), np.array(sids))

    models: dict = {}
    for pd_id, (a, mu, _) in pairs.items():
        if len(a) < 5:
            continue
        try:
            models[pd_id] = correspondence.build_azimuth_center_model(a, mu)
        except correspondence.ModelError:
            continue
    if not models:
        raise PipelineError("correspondence", "no PD produced an azimuth-center model")

    scan_reports = []  # a None slot per scan awaiting its fit
    sizes = []         # correspondence count per slot
    all_corrs = []
    for ft in features:
        try:
            corrs = correspondence.make_correspondences(
                models, ft.key_beams, scene.board.pd_modules, scan_id=ft.scan_id
            )
        except correspondence.ModelError as exc:
            scan_reports.append((ft.scan_id, None, str(exc)))
            continue
        scan_reports.append(None)
        sizes.append(len(corrs))
        all_corrs.extend(corrs)
    if not all_corrs:
        raise PipelineError("correspondence", "no scan yielded enough correspondences")

    slots = [k for k, rep in enumerate(scan_reports) if rep is None]
    fits = solver.solve_groups(*solver.point_arrays(all_corrs), np.cumsum(sizes) - sizes)
    for k, (report, note) in zip(slots, fits):
        if report is not None and report.correspondence_count == 3:
            note = "low-confidence (3 points)"
        scan_reports[k] = (features[k].scan_id, report, note)
    try:
        joint = solver.solve(all_corrs)
    except solver.DegenerateCorrespondences as exc:
        raise PipelineError("solve", f"joint solve over {len(all_corrs)} correspondences: {exc}") from exc
    return BatchResult(
        models=models,
        scan_reports=scan_reports,
        joint=joint,
        correspondences=all_corrs,
        pairs=pairs,
        features=features,
    )
