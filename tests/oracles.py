"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they validate: the Gaussian-center
oracle is a dense grid search over (mu, sigma) with the amplitude solved in
closed form, the one-event Guo fit is a plain scalar loop with the same
arithmetic as the batched library fit, the rigid-fit oracle is the SVD (Kabsch) construction,
the pose oracle is the damped Gauss-Newton (Levenberg-Marquardt) loop the
closed-form solver replaced, run on the solver's residual and its analytic
Jacobian, the Jacobian oracle differentiates that residual numerically, the
segmentation oracle labels the full radius graph of a scan's Cartesian
points, the raster-link oracle builds every
return-level link the run labelling compresses, the extent oracle checks one
cluster at a time, the graph-labelling oracle is scipy's
connected components, the feature oracle joins each PD event of one frame
to its beam through a dict and fits it on its own, the batch feature oracle
fits every joined event and takes row medians by one lexsort, the
stage-by-stage calibration oracle computes each stage's ray geometry
anew, the RANSAC oracle scores one hypothesis line at
a time, the scene oracle simulates one scan at a time with one
element-current call per PD event, the frame-file oracle reads and checks
a file one line at a time, the frame-writer oracle formats each row with
its own f-string, and the Cartesian-to-polar inverse checks the library's
forward conversion.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.special import ndtr

from pdcalib import beam_center, correspondence, io, pipeline, preprocess, solver
from pdcalib.afe import SUPPLY_RAIL_V, PdSignalRecord, currents_to_record
from pdcalib.correspondence import KEY_DTYPE
from pdcalib.geometry import (
    DEG,
    MM,
    TWO_PI,
    Pose6DOF,
    polar_to_cartesian_array,
    pose_to_matrix,
    rotation_matrix,
)
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


def residuals(beta, p_l, p_o):
    """Stacked (N, 3) residuals ``p_O - (R p_L + T)`` of the solver's cost."""
    return p_o - (p_l @ rotation_matrix(beta).T + beta.translation)


def jacobian(beta, p_l):
    """(3N, 6) analytic Jacobian of the stacked residual w.r.t. the pose vector.

    ``R = Rz(phi) Ry(theta) Rx(psi)`` turns by each angle about an axis w
    fixed in frame O, so dR/dangle = [w]x R and, with q = R p_L, the rotation
    columns are -(w x q): w is z for phi, Rz(phi) y = (-sin phi, cos phi, 0)
    for theta and R x (R's first column) for psi. The translation block is -I
    for every correspondence.
    """
    rot = rotation_matrix(beta)
    q = p_l @ rot.T
    axes = np.array([[0.0, 0.0, 1.0], [-math.sin(beta.phi), math.cos(beta.phi), 0.0], rot[:, 0]])
    j = np.empty((len(q), 3, 6))
    j[:, :, :3] = -np.swapaxes(np.cross(axes, q[:, None, :]), 1, 2)
    j[:, :, 3:] = -np.eye(3)
    return j.reshape(-1, 6)


def central_difference_jacobian(beta, p_l, p_o, step=1e-6):
    """(3N, 6) Jacobian of the stacked residual by central differences."""
    v0 = beta.as_vector()
    j = np.empty((3 * len(p_l), 6))
    for k in range(6):
        dv = np.zeros(6)
        dv[k] = step
        f_plus = residuals(Pose6DOF(*v0 + dv), p_l, p_o)
        f_minus = residuals(Pose6DOF(*v0 - dv), p_l, p_o)
        j[:, k] = ((f_plus - f_minus) / (2 * step)).ravel()
    return j


def levenberg_marquardt(p_l, p_o, beta0, max_iters=200, grad_tol=1e-10, step_tol=1e-12,
                        lambda0=0.3, lambda_cap=1e8):
    """Minimize the solver's cost from ``beta0`` by Levenberg-Marquardt.

    The update is ``beta <- beta - (J^T J + lambda diag(J^T J))^-1 J^T F``;
    the damping starts at ``lambda0``, halves on accepted steps and doubles
    on rejected ones. It stops when max |J^T F| < ``grad_tol`` (converged),
    when the step norm < ``step_tol``, or when the damping passes
    ``lambda_cap`` (a stall). On the step-norm exit it takes up to five
    undamped Gauss-Newton steps while max |J^T F| falls, and it has
    converged only if that then lies below ``grad_tol``. Returns
    (beta, cost, iterations, converged).
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
            # a tiny damped step is not a small gradient: on an ill-conditioned
            # block it stalls short of grad_tol, where Gauss-Newton still gains
            for _ in range(5):
                candidate = Pose6DOF(*beta.as_vector() - np.linalg.solve(h, g))
                f_new = residuals(candidate, p_l, p_o).ravel()
                j_new = jacobian(candidate, p_l)
                g_new = j_new.T @ f_new
                if np.max(np.abs(g_new)) >= np.max(np.abs(g)):
                    break
                beta, f, g, h = candidate, f_new, g_new, j_new.T @ j_new
            return beta, float(f @ f), iterations, bool(np.max(np.abs(g)) < grad_tol)
        candidate = Pose6DOF(*beta.as_vector() + step)
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


def raster_links(points, row, azimuth_index, tol=0.15):
    """Every return-level raster link ``(u[k], v[k])`` within ``tol``.

    The returns come in (row, azimuth index) order. Each return's candidates
    are the next ``AZIMUTH_REACH`` returns of its row, and the returns of the
    next row at azimuth index -``AZIMUTH_REACH``..+``AZIMUTH_REACH`` from its
    own, found by a sorted-key lookup; a clipped candidate links a return to
    itself.
    """
    reach = preprocess.AZIMUTH_REACH
    n = len(points)
    az = azimuth_index - azimuth_index.min() + reach
    width = int(az.max()) + reach + 1
    key = (row - row[0]) * width + az
    along = np.minimum(np.arange(n)[:, None] + np.arange(1, reach + 1), n - 1)
    target = key[:, None] + (width + np.arange(-reach, reach + 1))
    across = np.minimum(np.searchsorted(key, target), n - 1)
    cand = np.hstack([along, across])
    valid = np.hstack([row[along] == row[:, None], key[across] == target])
    valid &= sum((c[cand] - c[:, None]) ** 2 for c in points.T) <= tol * tol
    return np.nonzero(valid)[0], cand[valid]


def extent_error_scalar(spread, omega, alpha, r, channel, azimuth_index, board_width, board_height):
    """The library's ``_extent_error`` for one cluster, one step at a time:
    the error and the two largest spreads."""
    e1, e2 = np.sort(spread)[::-1][:2]
    rng = float(np.mean(r))
    _, first = np.unique(channel, return_index=True)
    steps = np.sort(np.diff(np.sort(omega[first])))
    pitch = float(steps[len(steps) // 2]) if len(steps) else 0.0
    turn = np.ptp(alpha)
    if turn > np.pi:
        turn = np.ptp(np.where(alpha < np.pi, alpha + 2 * np.pi, alpha))
    columns = int(np.ptp(azimuth_index))
    step = float(turn) / columns if columns else 0.0

    def off(extent, board, spacing):
        shortest = (math.floor(board / spacing) - 1) * spacing if spacing > 0 else board
        short = (shortest - extent) / shortest if shortest > 0 else 0.0
        return max(short, (extent - board) / board, 0.0)

    return max(off(e1, board_width, rng * step), off(e2, board_height, rng * pitch)), e1, e2


def radius_graph_labels(points, tol=0.15):
    """Single-linkage component label per point: every pair within ``tol``."""
    pairs = cKDTree(points).query_pairs(r=tol, output_type="ndarray")
    return graph_labels(len(points), pairs[:, 0], pairs[:, 1])


def radius_graph_roi(frame, board_width, board_height, tol=0.15, min_points=30, extent_tolerance=0.2):
    """The board ROI of single-linkage clustering at ``tol``, or None.

    Among the clusters of at least ``min_points`` returns, the one whose two
    largest axis spreads best match the board within ``extent_tolerance``,
    by ``extent_error_scalar``.
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
        err, _, _ = extent_error_scalar(
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


def event_cell(t, lidar):
    """(channel, azimuth index) of the firing at time ``t``, or None when the
    time lies more than a quarter burst period off every channel slot of
    the sensor."""
    fp, pbp = lidar.firing_period, lidar.pulse_burst_period
    if pbp == 0:
        return None
    j = math.floor((t + pbp / 2) / fp)
    slot = (t - j * fp) / pbp
    c = round(slot)
    if abs(slot - c) > 0.25 or not 0 <= c < lidar.n_channels:
        return None
    return c, j


def frame_features(frame, roi, plane, scene, scan=0, margin=10.0):
    """Range correction, beam association and center fitting on one frame.

    Per PD, each event is looked up in a dict of the frame's board returns
    keyed by (channel, azimuth index), and fit on its own. The key event is
    the first of the joined events with a usable fit whose beam reads the
    highest level; its beam must reach the median of its channel's board
    returns plus ``margin``.

    Returns the frame's key-table rows (``KEY_DTYPE``, ``scan`` set to
    ``scan``) in board order, and a dict of pd_id -> miss reason.
    """
    board = scene.board
    omega, alpha, r, channel, azimuth_index, refl = frame.beam_arrays()
    r_corr = r.copy()
    r_corr[roi] = preprocess.range_to_plane(omega[roi], alpha[roi], plane)
    cells = {(int(channel[i]), int(azimuth_index[i])): int(i) for i in roi}

    records = {rec.pd_id: rec for rec in frame.pd_records}
    keys, misses = [], {}
    for p, pd in enumerate(board.pd_modules):
        rec = records.get(pd.pd_id)
        if rec is None or rec.n_events == 0:
            misses[pd.pd_id] = "no voltage events"
            continue
        positions = pd.element_positions()[list(rec.sampled_channels)]
        joined = []
        for e in sorted(range(rec.n_events), key=lambda e: rec.sample_times[e]):
            i = cells.get(event_cell(float(rec.sample_times[e]), scene.lidar))
            if i is not None:
                joined.append((e, i))
        if not joined:
            misses[pd.pd_id] = f"{pd.pd_id}: no event time names a board return; PD clock offset?"
            continue
        best = None
        for e, i in joined:
            mu = guo_fit_scalar(positions, rec.element_voltages[e], noise_floor=rec.noise_floor)
            if mu is not None and (best is None or refl[i] > refl[best[0]]):
                best = (i, mu)
        if best is None:
            misses[pd.pd_id] = "no successful fit to select a key beam from"
            continue
        i, mu = best
        median = np.median(refl[roi][channel[roi] == channel[i]])
        if not refl[i] >= median + margin:
            misses[pd.pd_id] = (
                f"{pd.pd_id}: struck beam reads {refl[i]:.1f}, below its row median "
                f"{median:.1f} + {margin:.0f}; PD clock offset?"
            )
            continue
        keys.append((omega[i], alpha[i], r_corr[i], channel[i], azimuth_index[i], refl[i], scan, p, mu))
    return np.array(keys, dtype=KEY_DTYPE), misses


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


@dataclass
class ReferenceTruth(SimTruth):
    """The simulator's truth plus two fields only tests read."""

    on_pd_beam: dict = None              # pd_id -> beam index per the strict
    #                                      center-in-active-rectangle rule (or None)
    pd_event_centers: dict = None        # pd_id -> (n_events, 3) true spot centers


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
    event, drawing from ``default_rng(seed)`` in the same order. Its truth
    is a ``ReferenceTruth``.
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
        along, cross = pd.along_cross(xz[:, 0], xz[:, 1])
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
        along, cross = pd.along_cross(xz[:, 0], xz[:, 1])
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
                sampled_channels=pd.sampled_channels,
                event_times=times,
                noise_floor=afe.noise_floor,
            )
        )
        event_beams[pd.pd_id] = [int(i) for i in idx]
        event_centers[pd.pd_id] = points[idx]

    truth = None
    if with_truth:
        truth = ReferenceTruth(
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
        truth=truth,
    )


def _int64(path, line_no, field, token):
    value = io._parse_int(path, line_no, field, token)
    if not -(2 ** 63) <= value < 2 ** 63:
        raise io.FrameParseError(path, line_no, field, f"{token!r} is not a plain ASCII decimal that fits int64")
    return value


def _beam_row_reference(path, line_no, line):
    """One beam row as (scan_id, channel, azimuth_index, azimuth_deg,
    omega_deg, range_m, reflectivity), read by Python's int() and float()
    under the reader's plain-ASCII checks; then each float must be finite,
    the range positive and the elevation inside +-90 deg."""
    parts = line.split(",")
    if len(parts) != 1 + len(io.BEAM_FIELDS):
        raise io.FrameParseError(
            path, line_no, "beam", f"expected {len(io.BEAM_FIELDS)} fields, got {len(parts) - 1}"
        )
    ints = [_int64(path, line_no, field, token) for field, token in zip(io.BEAM_FIELDS[:3], parts[1:4])]
    floats = [io._parse_float(path, line_no, field, token) for field, token in zip(io.BEAM_FIELDS[3:], parts[4:])]
    for field, token, value in zip(io.BEAM_FIELDS[3:], parts[4:], floats):
        if not math.isfinite(value):
            raise io.FrameParseError(path, line_no, field, f"{token!r} is not a finite number")
        if field == "omega_deg" and not abs(value * DEG) < math.pi / 2:
            raise io.FrameParseError(path, line_no, field, f"{token!r} is not an elevation inside (-90, 90) deg")
        if field == "range_m" and not value > 0:
            raise io.FrameParseError(path, line_no, field, f"{token!r} is not a positive range")
    return (*ints, *floats)


def read_frames_reference(path):
    """``io.read_frames`` one line at a time, raising for the first malformed line.

    Each line is stripped and read by its record type in one loop. Every
    number is read by Python's int() and float() with the reader's
    plain-ASCII checks, an int64 field must hold it, and its value is
    checked at once: a beam row's floats finite, its range positive and
    its elevation inside +-90 deg, and then its (scan, channel, azimuth
    index) cell not that of an earlier row; a PD row's time and noise floor
    finite and its voltages on the supply rails, after the checks against
    the earlier rows of its record. A PD row's sampled channels must be
    int64s equal to their own sorted set, all 0 or more, as a module's
    element indices are.
    """
    FrameParseError = io.FrameParseError
    parse_float = io._parse_float
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != io.FRAME_MAGIC:
        raise FrameParseError(path, 1, "magic", f"expected {io.FRAME_MAGIC!r}")
    beams = {}  # scan id -> its returns as BEAM_DTYPE rows, in file order
    beam_lines = {}  # (scan, channel, azimuth index) -> the line of its first row
    pd_records = {}
    first_pd_line = {}
    event_lines = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        kind = line.partition(",")[0]
        if kind == "beam":
            sid, channel, az, alpha_deg, omega_deg, r, reflectivity = _beam_row_reference(path, line_no, line)
            earlier = beam_lines.setdefault((sid, channel, az), line_no)
            if earlier != line_no:
                raise FrameParseError(
                    path, line_no, "azimuth_index",
                    f"beam (channel, azimuth_index) {(channel, az)} of scan {sid} repeats line {earlier}",
                )
            beams.setdefault(sid, []).append((omega_deg * DEG, alpha_deg * DEG, r, channel, az, reflectivity))
        elif not line or line.startswith("#"):
            continue
        elif kind == "pd":
            parts = line.split(",")
            if len(parts) < 1 + len(io.PD_FIELDS) + 1:
                raise FrameParseError(path, line_no, "pd", "missing voltage fields")
            pd_id = parts[1]
            sid = _int64(path, line_no, "scan_id", parts[2])
            event = _int64(path, line_no, "event", parts[3])
            time_s = parse_float(path, line_no, "time_s", parts[4])
            floor = parse_float(path, line_no, "noise_floor_v", parts[5])
            channels = tuple(_int64(path, line_no, "sampled_channels", c) for c in parts[6].split("|"))
            volts = [parse_float(path, line_no, f"v{i}", tok) for i, tok in enumerate(parts[7:])]
            if list(channels) != sorted(set(channels)) or channels[0] < 0:
                raise FrameParseError(
                    path, line_no, "sampled_channels",
                    f"{parts[6]!r} is not a strictly increasing list of element indices from 0 up",
                )
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
            if rec[2] and floor != rec[0]:  # the record's first row sets its floor
                raise FrameParseError(
                    path, line_no, "noise_floor_v",
                    f"{floor!r} differs from {rec[0]!r} in earlier rows of PD {pd_id!r}, scan {sid}",
                )
            values = {"time_s": time_s, "noise_floor_v": floor, **{f"v{i}": v for i, v in enumerate(volts)}}
            for field, value in values.items():
                if not math.isfinite(value):
                    raise FrameParseError(path, line_no, field, f"{value!r} is not a finite number")
                if field.startswith("v") and not 0.0 <= value <= SUPPLY_RAIL_V:
                    raise FrameParseError(path, line_no, field, f"{value!r} lies outside the 0-10 V supply range")
            rec[2].append((time_s, volts))
            first_pd_line.setdefault(sid, line_no)
        else:
            raise FrameParseError(path, line_no, "record", f"unknown record type {kind!r}")

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
                    element_voltages=np.array([r[1] for r in rows]),
                    sample_times=np.array([r[0] for r in rows]),
                    sampled_channels=channels,
                    noise_floor=floor,
                )
            )
        frames.append(ScanFrame(scan_id=sid, beams=beams[sid], pd_records=records))
    return frames


def frames_to_text_reference(frames) -> str:
    """``io.frames_to_text`` one row at a time: each row is its own f-string."""
    lines = [io.FRAME_MAGIC, "# beam," + ",".join(io.BEAM_FIELDS)]
    for frame in frames:
        b = frame.beams
        columns = (b["channel"], b["azimuth_index"], b["alpha"] / DEG, b["omega"] / DEG, b["r"], b["reflectivity"])
        # tolist() gives Python ints and floats, whose repr is the file form
        lines.extend(
            f"beam,{frame.scan_id},{ch},{az},{alpha_deg!r},{omega_deg!r},{range_m!r},{reflectivity!r}"
            for ch, az, alpha_deg, omega_deg, range_m, reflectivity in zip(*(c.tolist() for c in columns))
        )
    lines.append("# pd," + ",".join(io.PD_FIELDS) + ",v0,v1,...")
    for frame in frames:
        for rec in sorted(frame.pd_records, key=lambda r: r.pd_id):
            head = f"pd,{rec.pd_id},{frame.scan_id}"
            tail = f"{float(rec.noise_floor)!r},{'|'.join(map(str, rec.sampled_channels))}"
            events = zip(rec.sample_times.tolist(), rec.element_voltages.tolist())
            lines.extend(
                f"{head},{e},{time_s!r},{tail}," + ",".join(map(repr, volts))
                for e, (time_s, volts) in enumerate(events)
            )
    return "\n".join(lines) + "\n"


def row_medians_lexsort(refl, row, at):
    """Median reflectivity of the row of each table entry ``at``: the mean of
    the middle one or two levels, from one lexsort of every entry of the rows
    asked for. ``row`` numbers every entry's row, in any order."""
    kept = np.flatnonzero(np.isin(row, row[at]))
    order = kept[np.lexsort((refl[kept], row[kept]))]
    ranked, rows = refl[order], row[order]
    lo = np.searchsorted(rows, row[at], "left")
    hi = np.searchsorted(rows, row[at], "right")
    return (ranked[(lo + hi - 1) // 2] + ranked[(lo + hi) // 2]) / 2


def frame_features_full_fit(frames, table, scan, plane, scene):
    """``pipeline.extract_frame_features`` by fitting every joined event:
    one fit per sample width of all its joined events, one
    ``select_key_beams`` over them, and the row medians by
    ``row_medians_lexsort``. Returns the key table and the miss table."""
    pds = scene.board.pd_modules
    n_pds = len(pds)
    index = {pd.pd_id: p for p, pd in enumerate(pds)}
    latest = {(k, index[r.pd_id]): r for k, f in enumerate(frames) for r in f.pd_records if r.pd_id in index}
    records = list(latest.values())
    record_cell = np.array([k * n_pds + p for k, p in latest], dtype=np.intp)
    sizes = np.array([r.n_events for r in records], dtype=np.intp)
    record = np.repeat(np.arange(len(records)), sizes)
    cell = record_cell[record]
    times = np.concatenate([np.zeros(0)] + [r.sample_times for r in records])

    no_events, unjoined, no_fit, dim_beam = range(1, 5)
    miss = np.zeros(len(frames) * n_pds, pipeline.MISS_DTYPE)
    miss["code"] = no_events
    miss["code"][cell] = unjoined
    rows = correspondence.find_pd_beam(times, cell // n_pds, table, scan, scene.lidar)
    joined = np.flatnonzero(rows >= 0)
    miss["code"][cell[joined]] = no_fit

    mu = np.full(len(times), np.nan)
    widths = np.array([len(r.sampled_channels) for r in records], dtype=np.intp)
    for width in np.unique(widths):
        mine = np.flatnonzero(widths == width)
        events = np.flatnonzero(widths[record] == width)
        use = rows[events] >= 0
        stacked = np.repeat(np.arange(len(mine)), sizes[mine])[use]
        x = np.array([pds[record_cell[k] % n_pds].element_positions()[list(records[k].sampled_channels)] for k in mine])
        volts = np.concatenate([records[k].element_voltages for k in mine])[use]
        floor = np.array([records[k].noise_floor for k in mine])[stacked]
        mu[events[use]] = beam_center.fit_gaussian_batch(x[stacked], volts, noise_floor=floor).mu

    refl = table["reflectivity"]
    key = beam_center.select_key_beams(mu[joined], refl[rows[joined]], times[joined], cell[joined], len(miss))
    hit = np.flatnonzero(key >= 0)
    event = joined[key[hit]]
    at = rows[event]
    out = np.zeros(len(hit), dtype=KEY_DTYPE)
    for name in table.dtype.names:
        out[name] = table[name][at]
    out["scan"], out["pd"] = np.divmod(hit, n_pds)
    out["mu"] = mu[event]

    c = table["channel"] - table["channel"].min(initial=0)
    medians = row_medians_lexsort(refl, scan * (c.max(initial=0) + 1) + c, at)
    dim = ~(out["reflectivity"] >= medians + correspondence.DEFAULT_DETECTION_MARGIN)
    miss["code"][hit] = np.where(dim, dim_beam, 0)
    miss["level"][hit[dim]] = out["reflectivity"][dim]
    miss["median"][hit[dim]] = medians[dim]
    out = out[~dim]
    out["r"] = preprocess.range_to_plane(out["omega"], out["alpha"], plane)
    return out, miss.reshape(len(frames), n_pds)


def calibrate_frames_by_stage(frames, scene):
    """``pipeline.calibrate_frames`` one stage after another, each stage
    computing its own ray geometry: segmentation its points, the TLS plane
    fit the ROI returns' points and the range refinement their directions,
    all by ``polar_to_cartesian_array``; the features by
    ``frame_features_full_fit``. Returns a dict of the ``BatchResult``
    fields it reproduces."""
    board = scene.board
    sizes = [len(f.beams) for f in frames]
    beams = np.concatenate([f.beams for f in frames])
    points = polar_to_cartesian_array(beams["omega"], beams["alpha"], beams["r"])
    rows = preprocess.segment_frames(beams, points, sizes, board.width, board.height)
    table, scan = beams[rows], np.repeat(np.arange(len(frames)), sizes)[rows]
    omega, alpha, r = np.stack([table["omega"], table["alpha"], table["r"]])
    tls = preprocess.fit_plane(polar_to_cartesian_array(omega, alpha, r))
    plane = preprocess.refine_plane_ranges(polar_to_cartesian_array(omega, alpha, 1.0), r, tls)
    keys, _ = frame_features_full_fit(frames, table, scan, plane, scene)

    pds = board.pd_modules
    models = {}
    for p, pd in enumerate(pds):
        mine = keys[keys["pd"] == p]
        try:
            models[pd.pd_id] = correspondence.build_azimuth_center_model(mine["alpha"] / DEG, mine["mu"] / MM)
        except correspondence.ModelError:
            pass
    corr, p_o = correspondence.make_correspondences(models, keys, pds)
    p_l = polar_to_cartesian_array(corr["omega"], corr["alpha"], corr["r"])
    counts = np.bincount(corr["scan"], minlength=len(frames))
    reports = [report for report, _ in solver.solve_groups(p_l, p_o, np.cumsum(counts) - counts)]
    joint_rows = np.repeat(counts >= 3, counts)
    return dict(
        models=models,
        scan_reports=reports,
        joint=solver.solve(p_l[joint_rows], p_o[joint_rows]),
        keys=keys,
        correspondences=corr[joint_rows],
        p_o=p_o[joint_rows],
    )
