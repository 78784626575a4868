"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they validate: the Gaussian-center
oracle is a dense grid search over (mu, sigma) with the amplitude solved in
closed form, the one-event Guo fit is a plain scalar loop with the same
arithmetic as the batched library fit, the rigid-fit oracle is the SVD (Kabsch) construction,
the pose oracle is the damped Gauss-Newton (Levenberg-Marquardt) loop the
closed-form solver replaced, the Jacobian oracle differentiates the solver's
residual numerically, the segmentation oracle labels the full radius graph
of a scan's Cartesian points, the graph-labelling oracle is scipy's
connected components, the feature oracle detects and fits one frame at a
time with a scalar beam-detection loop, the RANSAC oracle scores one hypothesis line at
a time, the scene oracle simulates one scan at a time with one
element-current call per PD event, the frame-file oracle sorts and parses
a file line by line, and the Cartesian-to-polar inverse checks the
library's forward conversion.
"""

import math
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.special import ndtr

from pdcalib import beam_center, io, preprocess
from pdcalib.afe import PdSignalRecord, currents_to_record
from pdcalib.geometry import (
    DEG,
    TWO_PI,
    PolarBeam,
    Pose6DOF,
    polar_to_cartesian_array,
    pose_to_matrix,
    transform_array,
)
from pdcalib.pipeline import FrameFeatures, _beam_centers, _detection_windows
from pdcalib.scene import (
    BEAM_DTYPE,
    EVENT_AXIAL_MARGIN_M,
    EVENT_CROSS_WINDOW_M,
    AfeConfig,
    BoardModel,
    LidarModel,
    ScanFrame,
    SimTruth,
    SimulationError,
)
from pdcalib.solver import jacobian, residuals


def gaussian_nls_grid(x, y, mu_range=(-0.002, 0.017), sigma_range=(0.001, 0.015)):
    """Brute-force nonlinear least-squares Gaussian fit.

    Minimizes sum((y - A exp(-(x-mu)^2 / (2 sigma^2)))^2) by scanning a dense
    (mu, sigma) grid twice (coarse then refined around the best cell); A is
    the closed-form least-squares amplitude for each candidate.

    Returns (mu, sigma, amplitude).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def scan(mus, sigmas):
        g = np.exp(
            -((x[None, None, :] - mus[:, None, None]) ** 2)
            / (2.0 * sigmas[None, :, None] ** 2)
        )  # (n_mu, n_sigma, n_pts)
        denom = np.sum(g * g, axis=-1)
        amp = np.sum(g * y, axis=-1) / np.maximum(denom, 1e-300)
        sse = np.sum((y[None, None, :] - amp[..., None] * g) ** 2, axis=-1)
        i, j = np.unravel_index(np.argmin(sse), sse.shape)
        return mus[i], sigmas[j], amp[i, j]

    mus = np.arange(mu_range[0], mu_range[1] + 1e-12, 1e-4)
    sigmas = np.arange(sigma_range[0], sigma_range[1] + 1e-12, 2.5e-4)
    mu0, s0, _ = scan(mus, sigmas)

    mus = np.arange(mu0 - 1.5e-4, mu0 + 1.5e-4 + 1e-12, 2e-6)
    sigmas = np.arange(max(s0 - 4e-4, 1e-4), s0 + 4e-4 + 1e-12, 1e-5)
    return scan(mus, sigmas)


def guo_fit_scalar(x, y, k_max=10, noise_floor=0.1):
    """One-event iteratively reweighted log-quadratic Gaussian fit (Guo 2011).

    A per-event loop over 3x3 normal equations, in the order of operations
    the batched fit uses, so centers agree bit for bit. Returns mu in meters,
    or None where the fit fails: fewer than 3 positive samples, a singular
    system or a2 >= 0 at any pass, a non-finite sigma or a center outside
    [-10, 25] mm.
    """
    x = np.asarray(x, dtype=float)
    y = np.maximum(np.asarray(y, dtype=float), noise_floor)
    if len(np.unique(x)) != len(x) or np.count_nonzero(y > 0) < 3:
        return None
    x0 = 0.5 * (x.min() + x.max())
    u = x - x0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ln_y = np.log(y)
        w = y * y
        for _ in range(k_max):
            p = [np.sum(u ** k * w) for k in range(5)]
            m = np.array([[p[4], p[3], p[2]], [p[3], p[2], p[1]], [p[2], p[1], p[0]]])
            b = np.array([np.sum(u ** 2 * w * ln_y), np.sum(u * w * ln_y), np.sum(w * ln_y)])
            try:
                a2, a1, a0 = np.linalg.solve(m, b)
            except np.linalg.LinAlgError:
                return None
            if a2 >= 0:
                return None
            w = np.exp(a2 * u * u + a1 * u + a0) ** 2
        sigma = np.sqrt(-1.0 / (2.0 * a2))
        mu = -a1 / (2.0 * a2) + x0
    if not (np.isfinite(sigma) and sigma > 0 and -0.010 <= mu <= 0.025):
        return None
    return float(mu)


def rigid_fit_svd(src, dst):
    """Closed-form rigid transform (Kabsch): R @ src + t ~ dst.

    Returns a 3x4 [R | t] matrix.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return np.column_stack([r, cd - r @ cs])


def central_difference_jacobian(beta, p_l, p_o, step=1e-6):
    """(3N, 6) Jacobian of the stacked residual by central differences."""
    v0 = beta.as_vector()
    j = np.empty((3 * len(p_l), 6))
    for k in range(6):
        dv = np.zeros(6)
        dv[k] = step
        f_plus = residuals(Pose6DOF.from_vector(v0 + dv), p_l, p_o)
        f_minus = residuals(Pose6DOF.from_vector(v0 - dv), p_l, p_o)
        j[:, k] = ((f_plus - f_minus) / (2 * step)).ravel()
    return j


def levenberg_marquardt(p_l, p_o, beta0, max_iters=200, grad_tol=1e-10, step_tol=1e-12,
                        lambda0=0.3, lambda_cap=1e8):
    """Minimize the solver's cost from ``beta0`` by Levenberg-Marquardt.

    The update is ``beta <- beta - (J^T J + lambda diag(J^T J))^-1 J^T F``;
    the damping starts at ``lambda0``, halves on accepted steps and doubles
    on rejected ones. It stops when max |J^T F| < ``grad_tol``, when the step
    norm < ``step_tol`` (both converged), or when the damping passes
    ``lambda_cap`` (a stall). Returns (beta, cost, iterations, converged).
    """
    beta = beta0
    f = residuals(beta, p_l, p_o).ravel()
    cost = float(f @ f)
    lam = lambda0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        j = jacobian(beta, p_l)
        g = j.T @ f
        if np.max(np.abs(g)) < grad_tol:
            return beta, cost, iterations, True
        h = j.T @ j
        step = -np.linalg.solve(h + lam * np.diag(np.maximum(np.diag(h), 1e-300)), g)
        if np.linalg.norm(step) < step_tol:
            return beta, cost, iterations, True
        candidate = Pose6DOF.from_vector(beta.as_vector() + step)
        f_new = residuals(candidate, p_l, p_o).ravel()
        cost_new = float(f_new @ f_new)
        if cost_new <= cost:
            beta, f, cost = candidate, f_new, cost_new
            lam = max(lam * 0.5, 1e-12)
        else:
            lam *= 2.0
            if lam > lambda_cap:
                break
    return beta, cost, iterations, False


def graph_labels(n, u, v):
    """scipy's component label per node of the undirected graph on ``n`` nodes
    with edges ``(u[k], v[k])``."""
    graph = coo_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def radius_graph_labels(points, tol=0.15):
    """Single-linkage component label per point: every pair within ``tol``."""
    pairs = cKDTree(points).query_pairs(r=tol, output_type="ndarray")
    return graph_labels(len(points), pairs[:, 0], pairs[:, 1])


def radius_graph_roi(frame, board_width, board_height, tol=0.15, min_points=30, extent_tolerance=0.2):
    """The board ROI of single-linkage clustering at ``tol``, or None.

    Among the clusters of at least ``min_points`` returns, the one whose two
    largest axis spreads best match the board within ``extent_tolerance``,
    by the library's ``_extent_error``.
    """
    b = frame.beams
    pts = polar_to_cartesian_array(b["omega"], b["alpha"], b["r"])
    labels = radius_graph_labels(pts, tol)
    best = None
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        if len(idx) < min_points:
            continue
        c = b[idx]
        err, _, _ = preprocess._extent_error(
            np.ptp(pts[idx], axis=0), c["omega"], c["alpha"], c["r"], c["channel"],
            c["azimuth_index"], board_width, board_height,
        )
        if err <= extent_tolerance and (best is None or err < best[0]):
            best = (err, idx)
    return None if best is None else best[1]


def cartesian_to_polar(x, y, z):
    """Inverse of the sensor polar convention: (omega, alpha, r) of a point."""
    r = math.sqrt(x * x + y * y + z * z)
    return math.asin(z / r), math.atan2(x, y) % (2 * math.pi), r


def find_pd_beam_scalar(row_reflectivity, row_positions, pd, margin=10.0, window=0.030):
    """Struck-beam row index of one scan's channel row, or a miss reason.

    A sequential scan of the row: a beam within ``window`` whose level is at
    least the row median plus ``margin`` replaces the best so far when it is
    higher by more than 1e-12, or within 1e-12 of it and strictly nearer the
    module center. Returns (index, None) or (None, reason).
    """
    refl = np.asarray(row_reflectivity, dtype=float)
    if refl.size == 0:
        return None, f"{pd.pd_id}: empty channel row"
    positions = np.atleast_2d(row_positions)
    center = np.array([pd.offset[0], 0.0, pd.offset[1]])
    dist = np.linalg.norm(positions - center, axis=1)
    near = np.nonzero(dist <= window)[0]
    if near.size == 0:
        return None, f"{pd.pd_id}: no beams within {window * 1e3:.0f} mm"
    row_median = float(np.median(refl))
    best = None
    for i in near:
        level = refl[i]
        if level < row_median + margin:
            continue
        if best is None or level > refl[best] + 1e-12:
            best = i
        elif abs(level - refl[best]) <= 1e-12 and dist[i] < dist[best]:
            best = i
    if best is None:
        return None, f"{pd.pd_id}: no local maximum exceeds median {row_median:.1f} + {margin:.0f}"
    return int(best), None


def frame_features(frame, roi, plane, scene, nominal_pose):
    """Range correction, beam detection and center fitting on one frame.

    Per PD: the row is the channel of the ROI return nearest the module
    center at the nominal pose, and ``find_pd_beam_scalar`` detects the
    struck beam in it. The events of the frame's detected PDs are fit in one
    batch, and each PD keeps the event nearest the array middle.
    """
    board = scene.board
    omega, alpha, r, channel, azimuth_index, refl = frame.beam_arrays()
    r_corr = r.copy()
    r_corr[roi] = preprocess.range_to_plane(omega[roi], alpha[roi], plane)
    m_nom = pose_to_matrix(nominal_pose)
    pts_o = transform_array(m_nom, polar_to_cartesian_array(omega[roi], alpha[roi], r_corr[roi]))
    board_xz = pts_o[:, [0, 2]]

    records = {rec.pd_id: rec for rec in frame.pd_records}
    windows = _detection_windows(board)
    key_beams, key_centers, misses = {}, {}, {}
    detected, groups = [], []
    for pd in board.pd_modules:
        rec = records.get(pd.pd_id)
        if rec is None or rec.n_events == 0:
            misses[pd.pd_id] = "no voltage events"
            continue
        d = np.linalg.norm(board_xz - np.array([pd.offset[0], pd.offset[1]]), axis=1)
        row_mask = channel[roi] == channel[roi][np.argmin(d)]
        row_idx = roi[row_mask]
        hit, miss = find_pd_beam_scalar(refl[row_idx], pts_o[row_mask], pd, window=windows[pd.pd_id])
        if miss is not None:
            misses[pd.pd_id] = miss
            continue
        events = beam_center.beams_on_pd(rec, scene.lidar.firing_period)
        detected.append((pd, row_idx[hit]))
        groups.append((
            np.array([v for _, v in events]),
            pd.element_positions()[list(rec.sampled_channels)],
            rec.noise_floor,
        ))

    for (pd, i), mu in zip(detected, _beam_centers(groups)):
        try:
            key = beam_center.select_key_beam(mu)
        except beam_center.GaussianFitError as exc:
            misses[pd.pd_id] = str(exc)
            continue
        key_beams[pd.pd_id] = PolarBeam(
            omega=float(omega[i]), alpha=float(alpha[i]), r=float(r_corr[i]),
            channel=int(channel[i]), azimuth_index=int(azimuth_index[i]),
            reflectivity=float(refl[i]),
        )
        key_centers[pd.pd_id] = float(mu[key])
    return FrameFeatures(
        scan_id=frame.scan_id, key_beams=key_beams, key_centers=key_centers,
        plane=plane, roi_count=len(roi), misses=misses,
    )


def azimuth_center_model_scalar(a, mu, threshold=2.0, iterations=200, seed=0):
    """RANSAC line over (azimuth, center) pairs, one hypothesis at a time.

    Draws ``iterations`` index pairs with ``rng.choice(n, 2, replace=False)``,
    skips a pair of equal azimuths, and keeps the first consensus set larger
    than every earlier one; then refits on it, re-selects inliers and refits
    again. Returns (nu, tau, inlier mask, rms), or the ModelError message.
    For non-degenerate azimuths (np.ptp(a) >= 1e-12) and n >= 5.
    """
    a = np.asarray(a, dtype=float)
    mu = np.asarray(mu, dtype=float)
    n = len(a)

    def line(x, y):
        if np.ptp(x) < 1e-12:
            return float(np.mean(y)), 0.0
        tau, nu = np.polyfit(x, y, 1)
        return float(nu), float(tau)

    rng = np.random.default_rng(seed)
    best_mask = None
    for _ in range(iterations):
        i, k = rng.choice(n, size=2, replace=False)
        if abs(a[i] - a[k]) < 1e-12:
            continue
        tau = (mu[k] - mu[i]) / (a[k] - a[i])
        nu = mu[i] - tau * a[i]
        mask = np.abs(mu - (nu + tau * a)) <= threshold
        if best_mask is None or mask.sum() > best_mask.sum():
            best_mask = mask
    if best_mask is None or best_mask.sum() < max(2, 0.5 * n):
        kept = 0 if best_mask is None else int(best_mask.sum())
        return f"RANSAC kept {kept}/{n} pairs; systematic fault suspected"
    nu, tau = line(a[best_mask], mu[best_mask])
    mask = np.abs(mu - (nu + tau * a)) <= threshold
    nu, tau = line(a[mask], mu[mask])
    rms = float(np.sqrt(np.mean((mu[mask] - (nu + tau * a[mask])) ** 2)))
    return nu, tau, mask, rms


def gauss_rect_fraction(center_a, center_c, half_a, half_c, sigma):
    """Energy fraction of a circular Gaussian spot inside a rectangle."""
    fa = ndtr((half_a - center_a) / sigma) - ndtr((-half_a - center_a) / sigma)
    fc = ndtr((half_c - center_c) / sigma) - ndtr((-half_c - center_c) / sigma)
    return fa * fc


def element_currents_scalar(along, cross, sigma, pd, i_max):
    """Per-element photocurrents of one spot at (along, cross) on a PD module."""
    centers = pd.element_positions() - pd.center_local
    half_pitch = 0.5 * pd.element_pitch
    half_width = 0.5 * pd.active_width
    frac = gauss_rect_fraction(along - centers, cross, half_pitch, half_width, sigma)
    ref = gauss_rect_fraction(0.0, 0.0, half_pitch, half_width, sigma)
    return i_max * frac / ref


def simulate_scan_reference(
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
    """One revolution of the sensor viewing the board, simulated on its own.

    The per-scan simulator ``scene.simulate_scans`` replaced: its own ray
    grid, reflectivity pass and one ``element_currents_scalar`` call per PD
    event, drawing from ``default_rng(seed)`` in the same order.
    """
    afe = afe or AfeConfig()
    rng = np.random.default_rng(seed)
    m = pose_to_matrix(pose)
    rot, t = m[:, :3], m[:, 3]

    # viewing geometry sanity: direction to the board center, in sensor frame
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

    # azimuth window covering the board, plus margin
    alphas_c = np.arctan2(corners_l[:, 0], corners_l[:, 1])
    step = lidar.azimuth_step
    j_lo = int(math.floor(alphas_c.min() / step)) - 3
    j_hi = int(math.ceil(alphas_c.max() / step)) + 3
    j = np.arange(j_lo, j_hi + 1)

    phase = rng.normal(0.0, lidar.azimuth_jitter_sigma_deg * DEG)

    channels = np.arange(lidar.n_channels)
    omegas = lidar.vertical_angles
    skews = lidar.channel_azimuth_skew(channels)

    # (n_channels, n_az) ray grid
    alpha = j[None, :] * step + skews[:, None] + phase
    omega = np.broadcast_to(omegas[:, None], alpha.shape)
    co = np.cos(omega)
    d_l = np.stack([co * np.sin(alpha), co * np.cos(alpha), np.sin(omega)], axis=-1)
    d_o = d_l @ rot.T

    denom = d_o[..., 1]
    hits_plane = denom > 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        t_board = np.where(hits_plane, -t[1] / denom, np.inf)
    landing = t[None, None, :] + t_board[..., None] * d_o
    on_board = (
        hits_plane
        & (t_board > 0)
        & (np.abs(landing[..., 0]) <= 0.5 * board.width)
        & (np.abs(landing[..., 2]) <= 0.5 * board.height)
    )

    if background_depth is not None:
        t_wall = np.where(hits_plane, (background_depth - t[1]) / denom, np.inf)
        wall_pts = t[None, None, :] + t_wall[..., None] * d_o
        on_wall = hits_plane & (t_wall > 0) & ~on_board
    else:
        on_wall = np.zeros_like(on_board)

    hit = on_board | on_wall
    ch_idx, az_idx = np.nonzero(hit)
    if ch_idx.size == 0:
        raise SimulationError("no ray reaches the board")
    order = np.lexsort((j[az_idx], ch_idx))
    ch_idx, az_idx = ch_idx[order], az_idx[order]
    is_board = on_board[ch_idx, az_idx]

    ranges = np.where(is_board, t_board[ch_idx, az_idx], 0.0)
    if background_depth is not None:
        ranges = np.where(is_board, ranges, t_wall[ch_idx, az_idx])
    points = np.where(
        is_board[:, None], landing[ch_idx, az_idx], (wall_pts[ch_idx, az_idx] if background_depth is not None else 0.0)
    )

    r_noise = rng.normal(0.0, lidar.range_noise_sigma, size=ranges.shape) if lidar.range_noise_sigma > 0 else np.zeros_like(ranges)

    # reflectivity: black surround with PD-module elevations weighted by the
    # fraction of the footprint energy landing on the active area
    sigma_spot = lidar.spot_sigma(ranges)
    refl = np.where(is_board, board.surround_reflectivity, background_reflectivity)
    xz = points[:, [0, 2]]
    on_pd_strict = {}
    for pd in board.pd_modules:
        along, cross = pd.local_coords(xz)
        e = gauss_rect_fraction(along, cross, pd.half_span, 0.5 * pd.active_width, sigma_spot)
        e_ref = gauss_rect_fraction(0.0, 0.0, pd.half_span, 0.5 * pd.active_width, sigma_spot)
        boost = (board.pd_reflectivity - board.surround_reflectivity) * e / np.maximum(e_ref, 1e-300)
        refl = np.where(is_board, np.maximum(refl, board.surround_reflectivity + boost), refl)
        inside = is_board & (np.abs(along) <= pd.half_span) & (np.abs(cross) <= 0.5 * pd.active_width)
        if np.any(inside):
            cand = np.nonzero(inside)[0]
            on_pd_strict[pd.pd_id] = int(cand[np.argmin(np.abs(along[cand]))])
        else:
            on_pd_strict[pd.pd_id] = None
    refl = refl + rng.uniform(-2.0, 2.0, size=refl.shape)
    refl = np.clip(refl, 0.0, 255.0)

    beams = np.empty(len(ch_idx), dtype=BEAM_DTYPE)
    beams["omega"] = omegas[ch_idx]
    beams["alpha"] = (j[az_idx] * step + skews[ch_idx] + phase) % TWO_PI
    beams["r"] = ranges + r_noise
    beams["channel"] = ch_idx
    beams["azimuth_index"] = j[az_idx]
    beams["reflectivity"] = refl

    # PD voltage records: beams whose footprint reaches a module
    pd_records = []
    event_beams: dict = {}
    event_centers: dict = {}
    for pd in board.pd_modules:
        along, cross = pd.local_coords(xz)
        near = (
            is_board
            & (np.abs(along) <= pd.half_span + EVENT_AXIAL_MARGIN_M)
            & (np.abs(cross) <= EVENT_CROSS_WINDOW_M)
        )
        idx = np.nonzero(near)[0]
        if idx.size == 0:
            event_beams[pd.pd_id] = []
            event_centers[pd.pd_id] = np.zeros((0, 3))
            continue
        times = (
            j[az_idx[idx]] * lidar.firing_period
            + ch_idx[idx] * lidar.pulse_burst_period
        )
        t_order = np.argsort(times, kind="stable")
        idx, times = idx[t_order], times[t_order]
        currents = np.stack(
            [
                element_currents_scalar(along[i], cross[i], sigma_spot[i], pd, afe.peak_current)
                for i in idx
            ]
        )
        pd_records.append(
            currents_to_record(
                currents,
                afe.tia,
                afe.pulse_width,
                afe.voltage_noise_sigma,
                rng,
                pd_id=pd.pd_id,
                scan_id=scan_id,
                sampled_channels=pd.sampled_channels,
                event_times=times,
                noise_floor=afe.noise_floor,
            )
        )
        event_beams[pd.pd_id] = [int(i) for i in idx]
        event_centers[pd.pd_id] = points[idx]

    truth = None
    if with_truth:
        truth = SimTruth(
            board_positions=points,
            is_board=is_board,
            on_pd_beam=on_pd_strict,
            pd_event_beams=event_beams,
            pd_event_centers=event_centers,
        )
    return ScanFrame(
        scan_id=scan_id,
        beams=beams,
        pd_records=pd_records,
        ground_truth_pose=pose,
        truth=truth,
    )


def beam_row_error_reference(path, rows, exc):
    """``io._beam_row_error`` one row at a time: one ``io._loadtxt`` call per row
    until the first malformed one.

    ``rows`` are the beam rows as (line_no, line). A row is malformed when it
    has the wrong field count, when a field fails the PD rows' number checks
    (which refuse ``1_0`` and non-ASCII digits), or when numpy's reader
    refuses a field that those accept (an int beyond 64 bits).
    """
    for line_no, line in rows:
        parts = line.split(",")
        if len(parts) != len(io._BEAM_ROW.names):
            return io.FrameParseError(
                path, line_no, "beam", f"expected {len(io.BEAM_FIELDS)} fields, got {len(parts) - 1}"
            )
        tokens = list(zip(io.BEAM_FIELDS, parts[1:]))
        for field, token in tokens:
            parse = io._parse_int if io._BEAM_ROW[field].kind == "i" else io._parse_float
            parse(path, line_no, field, token)
        try:
            io._loadtxt([line], io._BEAM_ROW)
        except io._REFUSED:
            for field, token in tokens:
                try:
                    io._loadtxt([token], io._BEAM_ROW[field])
                except io._REFUSED:
                    return io.FrameParseError(
                        path, line_no, field,
                        f"{token!r} is not a plain ASCII decimal that fits {io._BEAM_ROW[field]}",
                    )
    return io.FrameParseError(path, rows[0][0], "beam", str(exc))


def _read_beams_reference(path, rows):
    """Beam rows, as (line_no, line) in file order, to ``BEAM_DTYPE`` arrays by scan id."""
    if not rows:
        return {}
    try:
        raw = io._loadtxt([line for _, line in rows], io._BEAM_ROW)
    except io._REFUSED as exc:
        raise beam_row_error_reference(path, rows, exc) from None
    return io._beams_by_scan(raw)


def read_frames_reference(path):
    """``io.read_frames`` one line at a time.

    Each line is stripped and sorted by its record type in one loop, every
    PD row is parsed field by field with the reader's plain-ASCII checks,
    and the beam rows seen so far are parsed together when the loop ends or
    a PD row fails, so that the first malformed line is named.
    """
    FrameParseError = io.FrameParseError
    parse_int, parse_float = io._parse_int, io._parse_float
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != io.FRAME_MAGIC:
        raise FrameParseError(path, 1, "magic", f"expected {io.FRAME_MAGIC!r}")
    beam_rows = []
    pd_records = {}
    first_pd_line = {}
    event_lines = {}
    try:
        for line_no, raw in enumerate(lines[1:], start=2):
            line = raw.strip()
            kind = line.partition(",")[0]
            if kind == "beam":
                beam_rows.append((line_no, line))
            elif not line or line.startswith("#"):
                continue
            elif kind == "pd":
                parts = line.split(",")
                if len(parts) < 1 + len(io.PD_FIELDS) + 1:
                    raise FrameParseError(path, line_no, "pd", "missing voltage fields")
                pd_id = parts[1]
                sid = parse_int(path, line_no, "scan_id", parts[2])
                event = parse_int(path, line_no, "event", parts[3])
                time_s = parse_float(path, line_no, "time_s", parts[4])
                floor = parse_float(path, line_no, "noise_floor_v", parts[5])
                channels = tuple(parse_int(path, line_no, "sampled_channels", c) for c in parts[6].split("|"))
                volts = [parse_float(path, line_no, f"v{i}", tok) for i, tok in enumerate(parts[7:])]
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
                if floor != rec[0]:
                    raise FrameParseError(
                        path, line_no, "noise_floor_v",
                        f"{floor!r} differs from {rec[0]!r} in earlier rows of PD {pd_id!r}, scan {sid}",
                    )
                rec[2].append((time_s, volts))
                first_pd_line.setdefault(sid, line_no)
            else:
                raise FrameParseError(path, line_no, "record", f"unknown record type {kind!r}")
    except FrameParseError:
        _read_beams_reference(path, beam_rows)
        raise
    beams = _read_beams_reference(path, beam_rows)

    orphans = [(line_no, sid) for sid, line_no in first_pd_line.items() if sid not in beams]
    if orphans:
        line_no, sid = min(orphans)
        raise FrameParseError(path, line_no, "scan_id", f"PD row of scan {sid}, which has no beam rows")
    by_scan = {}
    for (sid, pd_id), rec in sorted(pd_records.items()):
        by_scan.setdefault(sid, []).append((pd_id, rec))
    frames = []
    for sid in sorted(beams):
        records = []
        for pd_id, (floor, channels, rows) in by_scan.get(sid, ()):
            rows.sort(key=lambda r: r[0])
            records.append(
                PdSignalRecord(
                    pd_id=pd_id,
                    scan_id=sid,
                    element_voltages=np.array([r[1] for r in rows]),
                    sample_times=np.array([r[0] for r in rows]),
                    sampled_channels=channels,
                    noise_floor=floor,
                )
            )
        try:
            frames.append(ScanFrame(scan_id=sid, beams=beams[sid], pd_records=records))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return frames
