"""End-to-end calibration of a batch of scan frames.

One batch is a set of repeated scans of the rig at a fixed reference pose
(the bench repeats 50 revolutions per test point). Each frame is segmented
once; the board plane is fit once from the pooled segments, because every
scan sees the same board. Then one feature pass runs over the whole batch,
on a single table of every frame's board returns with a scan column:

1. slide each board return along its ray onto the plane (range correction);
2. per PD module: pick, in every scan, the channel row crossing it, and
   detect the struck beam of every scan by its reflectivity in one call;
3. fit the beam centers of every event of every detection in one batch,
   and keep each (scan, module) pair's (azimuth, center).

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
from .geometry import (
    DEG,
    MM,
    PolarBeam,
    Pose6DOF,
    polar_to_cartesian_array,
    pose_to_matrix,
    transform_array,
)

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


def _row_channels(pd, board_xz: np.ndarray, channel: np.ndarray, scan: np.ndarray,
                  starts: np.ndarray) -> np.ndarray:
    """Per scan, the channel whose beams pass closest to the PD center on the
    board. ``starts`` opens each scan's block of the batch table; within a
    block the first of equally near returns decides, as ``np.argmin`` does."""
    d = np.linalg.norm(board_xz - np.array([pd.offset[0], pd.offset[1]]), axis=1)
    at_min = np.flatnonzero(d == np.minimum.reduceat(d, starts)[scan])
    return channel[at_min[np.searchsorted(at_min, starts)]]


def _detection_windows(board) -> dict:
    """Per-PD beam-search radius: capped below half the sibling distance so
    closely mounted modules never claim each other's beams."""
    default = correspondence.DEFAULT_SEARCH_WINDOW_M
    centers = {pd.pd_id: np.asarray(pd.offset) for pd in board.pd_modules}
    windows = {}
    for pd in board.pd_modules:
        others = [
            np.linalg.norm(centers[pd.pd_id] - c)
            for pid, c in centers.items()
            if pid != pd.pd_id
        ]
        windows[pd.pd_id] = min(default, 0.45 * min(others)) if others else default
    return windows


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


def extract_frame_features(
    frames,
    rois,
    plane: preprocess.PlaneModel,
    scene: Scene,
    nominal_pose: Pose6DOF,
) -> list:
    """Range correction, beam detection and center fitting on a whole batch.

    ``rois[k]`` indexes the board returns of ``frames[k]`` (from
    segmentation) and ``plane`` is the board plane they are slid onto. The
    ROI returns of every frame form one table with a scan column. Each PD is
    detected in all scans by one ``find_pd_beam`` call, the events of every
    detection in the batch are fit together, and each (scan, PD) keeps the
    event nearest the array middle as its key beam.

    Returns one ``FrameFeatures`` per frame, in batch order.
    """
    board = scene.board
    n = len(frames)
    table = np.concatenate([f.beams[roi] for f, roi in zip(frames, rois)])
    sizes = [len(roi) for roi in rois]
    scan = np.repeat(np.arange(n), sizes)
    starts = np.cumsum(sizes) - sizes
    omega, alpha, channel, refl = (table[k] for k in ("omega", "alpha", "channel", "reflectivity"))
    r_corr = preprocess.range_to_plane(omega, alpha, plane)

    # nominal board positions of the corrected returns, for detection windows
    m_nom = pose_to_matrix(nominal_pose)
    pts_o = transform_array(m_nom, polar_to_cartesian_array(omega, alpha, r_corr))
    board_xz = pts_o[:, [0, 2]]

    records = [{rec.pd_id: rec for rec in f.pd_records} for f in frames]
    windows = _detection_windows(board)
    misses = [{} for _ in frames]
    detected = []  # (scan, pd, struck table row), PD by PD
    groups = []    # (event voltages, sample positions, noise floor) per detection
    for pd in board.pd_modules:
        recs = [by_id.get(pd.pd_id) for by_id in records]
        live = np.array([rec is not None and rec.n_events > 0 for rec in recs])
        outcome = {}
        if live.any():
            row_channel = _row_channels(pd, board_xz, channel, scan, starts)
            row = np.flatnonzero(live[scan] & (channel == row_channel[scan]))
            hits, outcome = correspondence.find_pd_beam(
                refl[row], pts_o[row], scan[row], pd, n, window=windows[pd.pd_id]
            )
        for k, rec in enumerate(recs):
            if not live[k]:
                misses[k][pd.pd_id] = "no voltage events"
            elif k in outcome:
                misses[k][pd.pd_id] = outcome[k]
            else:
                events = beam_center.beams_on_pd(rec, scene.lidar.firing_period)
                detected.append((k, pd, row[hits[k]]))
                groups.append((
                    np.array([v for _, v in events]),
                    pd.element_positions()[list(rec.sampled_channels)],
                    rec.noise_floor,
                ))

    key_beams = [{} for _ in frames]
    key_centers = [{} for _ in frames]
    for (k, pd, i), mu in zip(detected, _beam_centers(groups)):
        try:
            key = beam_center.select_key_beam(mu)
        except beam_center.GaussianFitError as exc:
            misses[k][pd.pd_id] = str(exc)
            continue
        key_beams[k][pd.pd_id] = PolarBeam(
            omega=float(omega[i]),
            alpha=float(alpha[i]),
            r=float(r_corr[i]),
            channel=int(channel[i]),
            azimuth_index=int(table["azimuth_index"][i]),
            reflectivity=float(refl[i]),
        )
        key_centers[k][pd.pd_id] = float(mu[key])
    features = [
        FrameFeatures(
            scan_id=f.scan_id,
            key_beams=key_beams[k],
            key_centers=key_centers[k],
            plane=plane,
            roi_count=sizes[k],
            misses=misses[k],
        )
        for k, f in enumerate(frames)
    ]
    if log.isEnabledFor(logging.DEBUG):
        for pd in board.pd_modules:
            reasons = Counter(ft.misses[pd.pd_id] for ft in features if pd.pd_id in ft.misses)
            found = sum(pd.pd_id in ft.key_beams for ft in features)
            log.debug("%s detected in %d/%d scans; misses %s", pd.pd_id, found, n, dict(reasons))
    return features


def calibrate_frames(frames, scene: Scene, nominal_pose: Pose6DOF | None = None) -> BatchResult:
    """Full calibration over a batch of frames taken at one rig pose.

    ``nominal_pose`` is the rig's intended pose (detection windows only; the
    estimate itself is unconstrained). Defaults to the scene's base pose.

    Raises
    ------
    PipelineError
        For an empty batch, a frame with no board-sized cluster, if no PD
        collects enough (azimuth, center) pairs for a model, if no scan
        yields enough correspondences to solve, or if they are collinear.
    """
    nominal_pose = nominal_pose or scene.base_pose
    if not frames:
        raise PipelineError("segmentation", "empty batch: no frames to calibrate")
    rois = []
    for f in frames:
        try:
            rois.append(preprocess.segment_target(f, scene.board.width, scene.board.height))
        except preprocess.SegmentationError as exc:
            raise PipelineError("segmentation", f"scan {f.scan_id}: {exc}") from exc
    plane = board_plane(frames, rois)
    features = extract_frame_features(frames, rois, plane, scene, nominal_pose)

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
