"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they validate: the Gaussian-center
oracle is a dense grid search over (mu, sigma) with the amplitude solved in
closed form, the one-event Guo fit is a plain scalar loop with the same
arithmetic as the batched library fit, the rigid-fit oracle is the SVD (Kabsch) construction,
the Jacobian oracle differentiates the solver's residual numerically, the
segmentation oracle labels the full radius graph of a scan's Cartesian
points, and the Cartesian-to-polar inverse checks the library's forward
conversion.
"""

import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from pdcalib.geometry import Pose6DOF, polar_to_cartesian_array
from pdcalib.solver import residuals


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


def central_difference_jacobian(beta, correspondences, step=1e-6):
    """(3N, 6) Jacobian of the stacked residual by central differences."""
    v0 = beta.as_vector()
    j = np.empty((3 * len(correspondences), 6))
    for k in range(6):
        dv = np.zeros(6)
        dv[k] = step
        f_plus = residuals(Pose6DOF.from_vector(v0 + dv), correspondences)
        f_minus = residuals(Pose6DOF.from_vector(v0 - dv), correspondences)
        j[:, k] = ((f_plus - f_minus) / (2 * step)).ravel()
    return j


def radius_graph_labels(points, tol=0.15):
    """Single-linkage component label per point: every pair within ``tol``."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(r=tol, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def radius_graph_roi(frame, board_width, board_height, tol=0.15, min_points=30, extent_tolerance=0.2):
    """The board ROI of single-linkage clustering at ``tol``, or None.

    Among the clusters of at least ``min_points`` returns, the one whose two
    largest axis spreads best match the board within ``extent_tolerance``.
    """
    pts = polar_to_cartesian_array(frame.beams["omega"], frame.beams["alpha"], frame.beams["r"])
    labels = radius_graph_labels(pts, tol)
    best = None
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        if len(idx) < min_points:
            continue
        e1, e2 = np.sort(np.ptp(pts[idx], axis=0))[::-1][:2]
        err = max(abs(e1 - board_width) / board_width, abs(e2 - board_height) / board_height)
        if err <= extent_tolerance and (best is None or err < best[0]):
            best = (err, idx)
    return None if best is None else best[1]


def cartesian_to_polar(x, y, z):
    """Inverse of the sensor polar convention: (omega, alpha, r) of a point."""
    r = math.sqrt(x * x + y * y + z * z)
    return math.asin(z / r), math.atan2(x, y) % (2 * math.pi), r
