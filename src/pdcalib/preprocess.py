"""Target segmentation, plane fitting and range-noise suppression.

The board is pulled out of a raw scan by clustering on the sensor's
(channel, azimuth index) raster, the range-image idea of Bogoslavskyi and
Stachniss (IROS 2016): neighbouring cells of the raster are linked when
their returns lie within a distance threshold, and the clusters are the
components of those links, labelled in numpy by hook-and-jump (Shiloach and
Vishkin, J. Algorithms 1982). The links are a subset of single-linkage
Euclidean clustering's, and give the same clusters except where an
occluder spanning every row cuts the board in two, which is refused. The
board is the cluster whose extents match what the raster can sample of it
at the cluster's range. The board's plane is fit by total least squares and
refined in range space, and the ROI returns are slid along their rays onto
that plane, which removes most of the ranging noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import polar_to_cartesian_array

DEFAULT_CLUSTER_TOLERANCE = 0.15  # > the ~87 mm inter-row gaps on the board
DEFAULT_MIN_POINTS = 30
# raster neighbours along a row: the next this many returns of a channel
AZIMUTH_REACH = 2


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


def _raster_components(points, channel, azimuth_index, tol):
    """Component label per return, linking raster neighbours within ``tol``.

    Each return's candidate neighbours are the next ``AZIMUTH_REACH``
    returns of its channel in azimuth order, and the returns of the next
    channel at azimuth index -``AZIMUTH_REACH``..+``AZIMUTH_REACH`` from its
    own. A candidate is linked when its 3-D distance is at most ``tol``.
    The links are labelled by ``_components``, so labels number the
    components in order of their first return in (channel, azimuth index)
    order.
    """
    n = len(points)
    order = np.lexsort((azimuth_index, channel))
    ch = channel[order]
    az = azimuth_index[order] - azimuth_index.min() + AZIMUTH_REACH
    # one key per raster cell, ascending in this order; the padding keeps
    # az + offset inside its own row
    width = int(az.max()) + AZIMUTH_REACH + 1
    key = (ch - ch[0]) * width + az

    along = np.minimum(np.arange(n)[:, None] + np.arange(1, AZIMUTH_REACH + 1), n - 1)
    target = key[:, None] + (width + np.arange(-AZIMUTH_REACH, AZIMUTH_REACH + 1))
    across = np.minimum(np.searchsorted(key, target), n - 1)
    # (n, 3 * AZIMUTH_REACH + 1) candidate positions; a clipped one links a
    # return to itself, which changes no component
    cand = np.hstack([along, across])
    valid = np.hstack([ch[along] == ch[:, None], key[across] == target])

    valid &= sum((c[cand] - c[:, None]) ** 2 for c in points[order].T) <= tol * tol
    labels = np.empty(n, dtype=np.intp)
    labels[order] = _components(n, np.nonzero(valid)[0], cand[valid])
    return labels


def _components(n, u, v):
    """Connected-component label per node of the undirected graph on ``n``
    nodes with edges ``(u[k], v[k])``.

    Hook-and-jump labelling (Shiloach and Vishkin, J. Algorithms 1982): each
    node points at a smaller or equal node of its component, starting at
    itself. A round hooks every root onto the smallest root it shares an
    edge with, then jumps pointers until each points at its root, and drops
    the edges that now lie inside one tree. Every tree that still has an
    edge out takes part in a merge, so the rounds are O(log n). The last
    root of a component is its smallest node; components are numbered in
    that order, as scipy's ``connected_components`` numbers them.
    """
    root = np.arange(n)
    a, b = np.concatenate([u, v]), np.concatenate([v, u])
    while len(a):
        np.minimum.at(root, root[a], root[b])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        cross = root[a] != root[b]
        a, b = a[cross], b[cross]
    return np.unique(root, return_inverse=True)[1]


def _extent_error(spread, omega, alpha, r, channel, azimuth_index, board_width, board_height):
    """How far a cluster's extents lie from what a board can show on the raster.

    ``spread`` is the cluster's (3,) bounding-box size and the columns are
    its returns. The two largest spreads are its in-plane extents, compared
    with the board's width and height. A board of extent B sampled at
    spacing s (the cluster's mean range times the azimuth step across, and
    times the row pitch up) shows a spread between S = (floor(B / s) - 1) s
    and B, because each edge can fall short of the nearest row by up to one
    spacing. An extent below S counts relative to S, one above B relative
    to B. Returns the larger of the two relative errors, and the extents.
    """
    e1, e2 = np.sort(spread)[::-1][:2]
    rng = float(np.mean(r))
    # row pitch: the middle elevation step between the cluster's channels
    _, first = np.unique(channel, return_index=True)
    steps = np.sort(np.diff(np.sort(omega[first])))
    pitch = float(steps[len(steps) // 2]) if len(steps) else 0.0
    # azimuth step: the angle the cluster turns through per azimuth index
    turn = np.ptp(alpha)
    if turn > np.pi:  # the cluster straddles azimuth 0
        turn = np.ptp(np.where(alpha < np.pi, alpha + 2 * np.pi, alpha))
    columns = int(np.ptp(azimuth_index))
    step = float(turn) / columns if columns else 0.0

    def off(extent, board, spacing):
        shortest = (math.floor(board / spacing) - 1) * spacing if spacing > 0 else board
        short = (shortest - extent) / shortest if shortest > 0 else 0.0
        return max(short, (extent - board) / board, 0.0)

    return max(off(e1, board_width, rng * step), off(e2, board_height, rng * pitch)), e1, e2


def segment_target(
    frame,
    board_width: float,
    board_height: float,
    cluster_tolerance: float = DEFAULT_CLUSTER_TOLERANCE,
    min_points: int = DEFAULT_MIN_POINTS,
    extent_tolerance: float = 0.2,
) -> np.ndarray:
    """Indices of the frame's beams that belong to the target board.

    Clusters the scan on its (channel, azimuth index) raster: a return is
    linked to the next ``AZIMUTH_REACH`` returns of its channel in azimuth
    order and to the next channel's returns within ``AZIMUTH_REACH`` azimuth
    indices, wherever the two lie within ``cluster_tolerance`` in 3-D.
    Returns the cluster whose bounding extents best match the configured
    board dimensions (within ``extent_tolerance`` relative error of the
    spreads the raster can sample at the cluster's range; see
    ``_extent_error``).

    Every raster link is also a link of single-linkage Euclidean clustering
    at ``cluster_tolerance``, so raster clusters can only split those
    clusters; dropouts are bridged, because the next returns in azimuth
    order skip missing ones. An occluder in front of the board that spans
    every row and is at least ``AZIMUTH_REACH`` returns wide does split the
    board. The returned ROI is always a whole single-linkage cluster: a
    board piece with a return outside it within ``cluster_tolerance``
    raises instead.

    Raises
    ------
    SegmentationError
        With per-cluster diagnostics if nothing matches, or if the matching
        cluster is a piece of a board split by an occluder.
    """
    if len(frame.beams) == 0:
        raise SegmentationError("empty frame: no clusters (0 points)")
    omega, alpha, r, channel, azimuth_index, _ = frame.beam_arrays()
    pts = polar_to_cartesian_array(omega, alpha, r)
    labels = _raster_components(pts, channel, azimuth_index, cluster_tolerance)

    diagnostics = []
    best = None
    for lab in np.flatnonzero(np.bincount(labels) >= min_points):
        idx = np.nonzero(labels == lab)[0]
        cluster = pts[idx]
        lo, hi = cluster.min(axis=0), cluster.max(axis=0)
        err, e1, e2 = _extent_error(
            hi - lo, omega[idx], alpha[idx], r[idx], channel[idx], azimuth_index[idx],
            board_width, board_height,
        )
        diagnostics.append((int(lab), len(idx), float(e1), float(e2)))
        if err <= extent_tolerance and (best is None or err < best[0]):
            best = (err, idx, lo, hi)
    if best is None:
        raise SegmentationError(
            f"no cluster matches the {board_width} x {board_height} m board; "
            f"clusters (label, count, extent1, extent2): {diagnostics}"
        )
    _, roi, lo, hi = best
    near = np.all((pts >= lo - cluster_tolerance) & (pts <= hi + cluster_tolerance), axis=1)
    near[roi] = False
    if np.any(near):
        gap2 = sum((out[:, None] - inside) ** 2 for out, inside in zip(pts[near].T, pts[roi].T))
        if gap2.min() <= cluster_tolerance ** 2:
            raise SegmentationError(
                f"the {len(roi)}-return cluster matching the {board_width} x {board_height} m "
                f"board is a piece of it: a return outside it lies within {cluster_tolerance} m "
                "(an occluder across every row splits the board)"
            )
    return roi


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
    r = np.asarray(r, dtype=float)
    dirs = polar_to_cartesian_array(omega, alpha, 1.0)

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

    Each beam's range depends on that beam alone, bit for bit: the dot
    product is written out per component, since a matrix product may round
    a row differently depending on how many rows come with it.
    """
    u = polar_to_cartesian_array(omega, alpha, 1.0)
    n = plane.normal
    denom = u[..., 0] * n[0] + u[..., 1] * n[1] + u[..., 2] * n[2]
    if np.any(np.abs(denom) < 1e-12):
        raise ValueError("beam parallel to the fitted plane")
    return plane.d / denom
