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
a time, and the Cartesian-to-polar inverse checks the library's forward
conversion.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from pdcalib import beam_center, preprocess
from pdcalib.geometry import PolarBeam, Pose6DOF, polar_to_cartesian_array, pose_to_matrix, transform_array
from pdcalib.pipeline import FrameFeatures, _beam_centers, _detection_windows
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
