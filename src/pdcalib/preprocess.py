"""Target segmentation, plane fitting and range-noise suppression.

The board is pulled out of a raw scan by Euclidean clustering (single
linkage within a distance threshold), its plane is fit by total least
squares and refined in range space, and the ROI returns are slid along
their rays onto that plane, which removes most of the ranging noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .geometry import polar_to_cartesian_array

DEFAULT_CLUSTER_TOLERANCE = 0.15  # > the ~87 mm inter-row gaps on the board
DEFAULT_MIN_POINTS = 30


class SegmentationError(RuntimeError):
    """No cluster matching the board dimensions was found."""


@dataclass(frozen=True)
class PlaneModel:
    """Plane n . p = d with a unit normal, plus fit-quality stats."""

    normal: np.ndarray
    d: float
    inlier_rms: float
    inlier_count: int

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if abs(np.linalg.norm(n) - 1.0) > 1e-12:
            raise ValueError("plane normal must be unit length")
        if self.inlier_count < 3:
            raise ValueError("a plane fit needs at least 3 points")
        object.__setattr__(self, "normal", n)

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return np.atleast_2d(points) @ self.normal - self.d


def _connected_components(points: np.ndarray, tol: float = 0.15) -> np.ndarray:
    """Single-linkage component label per point (radius graph + union)."""
    n = len(points)
    pairs = cKDTree(points).query_pairs(r=tol, output_type="ndarray")
    graph = coo_matrix(
        (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n)
    )
    _, labels = connected_components(graph, directed=False)
    return labels


def segment_target(
    frame,
    board_width: float,
    board_height: float,
    cluster_tolerance: float = DEFAULT_CLUSTER_TOLERANCE,
    min_points: int = DEFAULT_MIN_POINTS,
    extent_tolerance: float = 0.2,
) -> np.ndarray:
    """Indices of the frame's beams that belong to the target board.

    Clusters the scan with single-linkage Euclidean clustering and returns
    the cluster whose bounding extents best match the configured board
    dimensions (within ``extent_tolerance`` relative error).

    Raises
    ------
    SegmentationError
        With per-cluster diagnostics if nothing matches.
    """
    if len(frame.beams) == 0:
        raise SegmentationError("empty frame: no clusters (0 points)")
    omega, alpha, r, _, _, _ = frame.beam_arrays()
    pts = polar_to_cartesian_array(omega, alpha, r)
    labels = _connected_components(pts, tol=cluster_tolerance)

    diagnostics = []
    best = None
    for lab in np.unique(labels):
        idx = np.nonzero(labels == lab)[0]
        if len(idx) < min_points:
            continue
        cluster = pts[idx]
        spread = cluster.max(axis=0) - cluster.min(axis=0)
        # in-plane extents: the two largest spreads regardless of orientation
        e1, e2 = np.sort(spread)[::-1][:2]
        err = max(abs(e1 - board_width) / board_width, abs(e2 - board_height) / board_height)
        diagnostics.append((int(lab), len(idx), float(e1), float(e2)))
        if err <= extent_tolerance and (best is None or err < best[0]):
            best = (err, idx)
    if best is None:
        raise SegmentationError(
            f"no cluster matches the {board_width} x {board_height} m board; "
            f"clusters (label, count, extent1, extent2): {diagnostics}"
        )
    return best[1]


def fit_plane(points: np.ndarray) -> PlaneModel:
    """Total-least-squares plane through sensor-frame points.

    The normal is the smallest principal direction of the centered cloud,
    with its sign chosen to face the sensor (negative boresight component).

    Raises
    ------
    ValueError
        For fewer than 3 points or a degenerate (collinear) cloud.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ValueError("fit_plane expects an (N>=3, 3) point array")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[1] < 1e-12 * max(s[0], 1e-300):
        raise ValueError("degenerate point cloud: points are collinear")
    normal = vt[2]
    if normal[1] > 0:  # face the sensor: boresight is +y
        normal = -normal
    normal = normal / np.linalg.norm(normal)
    d = float(normal @ centroid)
    rms = float(np.sqrt(np.mean((centered @ normal) ** 2)))
    return PlaneModel(normal=normal, d=d, inlier_rms=rms, inlier_count=len(pts))


def refine_plane_ranges(omega, alpha, r, plane0: PlaneModel, iterations: int = 3) -> PlaneModel:
    """Refit the plane by least squares on the range residuals.

    A ranging sensor's noise lives along each beam, not isotropically; the
    plain total-least-squares fit then inherits a deterministic tilt of
    order sigma_r^2 from the ray directions' covariance (about 0.02 degrees
    of yaw at 10 mm noise on this geometry). Beam angles carry no noise, so
    fitting ``r_i ~ d / (dir_i . n)`` by Gauss-Newton in range space is free
    of that errors-in-variables bias. ``plane0`` (typically the TLS fit)
    seeds the iteration.
    """
    omega = np.asarray(omega, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    r = np.asarray(r, dtype=float)
    co = np.cos(omega)
    dirs = np.stack([co * np.sin(alpha), co * np.cos(alpha), np.sin(omega)], axis=-1)

    # gauge-fixed plane (a, -1, b) . p = e: the sensor-facing normal has a
    # negative boresight component, so m_y = -1 removes the scale freedom
    n0, d0 = plane0.normal, plane0.d
    if n0[1] > 0:
        n0, d0 = -n0, -d0
    if abs(n0[1]) < 1e-6:
        raise ValueError("plane nearly contains the boresight; cannot refine")
    a, b = n0[0] / -n0[1], n0[2] / -n0[1]
    e = d0 / -n0[1]
    for _ in range(iterations):
        c = a * dirs[:, 0] - dirs[:, 1] + b * dirs[:, 2]
        if np.any(np.abs(c) < 1e-9):
            raise ValueError("beam parallel to the plane during refinement")
        pred = e / c
        f = r - pred
        j = np.empty((len(r), 3))
        j[:, 0] = (e / c ** 2) * dirs[:, 0]
        j[:, 1] = (e / c ** 2) * dirs[:, 2]
        j[:, 2] = -1.0 / c
        step = np.linalg.solve(j.T @ j, -(j.T @ f))
        a, b, e = a + step[0], b + step[1], e + step[2]
    m = np.array([a, -1.0, b])
    scale = np.linalg.norm(m)
    n = m / scale
    d = e / scale
    resid = r - e / (a * dirs[:, 0] - dirs[:, 1] + b * dirs[:, 2])
    rms = float(np.sqrt(np.mean(resid ** 2)))
    return PlaneModel(normal=n, d=float(d), inlier_rms=rms, inlier_count=len(r))


def range_to_plane(omega, alpha, plane: PlaneModel) -> np.ndarray:
    """Ray-plane range for beams of direction (omega, alpha).

    Replacing a measured range with this value slides each return along its
    own ray onto the fitted plane, correcting the range component of the
    measurement noise while keeping the recorded angles untouched.
    """
    omega = np.asarray(omega, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    co = np.cos(omega)
    d = np.stack([co * np.sin(alpha), co * np.cos(alpha), np.sin(omega)], axis=-1)
    denom = d @ plane.normal
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("beam parallel to the fitted plane")
    return plane.d / denom
