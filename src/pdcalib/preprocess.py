"""Target segmentation, plane fitting and range-noise suppression.

The board is pulled out of a raw scan by clustering on the sensor's
(channel, azimuth index) raster, the range-image idea of Bogoslavskyi and
Stachniss (IROS 2016): neighbouring cells of the raster are linked when
their returns lie within a distance threshold, and the clusters are the
components of those links. Linked returns that follow each other along a
channel form runs, and only the links between runs are labelled, by
hook-and-jump in numpy (He, Chao and Suzuki, IEEE TIP 2008; Shiloach and
Vishkin, J. Algorithms 1982). The links are a subset of single-linkage
Euclidean clustering's, and give the same clusters except where an
occluder spanning every row cuts the board in two, which is refused. The
board is the cluster whose extents match what the raster can sample of it
at the cluster's range. ``segment_frames`` segments every frame of a batch
in one such pass, on one raster whose rows are (frame, channel) pairs. The
board's plane is fit by total least squares and refined in range space, and the ROI returns are slid
along their rays onto that plane, which removes most of the ranging noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import polar_to_cartesian_array

CLUSTER_TOLERANCE = 0.15  # m, > the ~87 mm inter-row gaps on the board
MIN_POINTS = 30  # returns of the smallest cluster that can be the board
EXTENT_TOLERANCE = 0.2  # relative extent error of a cluster that matches the board
PLANE_REFINE_ITERATIONS = 3  # Gauss-Newton steps of refine_plane_ranges
# raster neighbours along a row: the next this many returns of a channel
AZIMUTH_REACH = 2


class SegmentationError(RuntimeError):
    """No cluster matching the board dimensions was found.

    ``frame`` is the index, within its batch, of the frame that was refused.
    """

    def __init__(self, message: str, frame: int = 0):
        super().__init__(message)
        self.frame = frame


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


def _raster_components(points, row, azimuth_index, tol):
    """Component label per return, linking raster neighbours within ``tol``.

    The returns come in (row, azimuth index) order, as a ``ScanFrame`` holds
    them by channel. Each return's candidate neighbours are the next
    ``AZIMUTH_REACH`` returns of its row, and the returns of the next row at
    azimuth index -``AZIMUTH_REACH``..+``AZIMUTH_REACH`` from its own. A
    candidate is linked when its 3-D distance is at most ``tol``.

    The links are labelled by runs (He, Chao and Suzuki, IEEE TIP 2008): a
    return linked to the next one of its row continues that return's run,
    so one cumulative sum numbers the runs. Only the links between two runs
    go to ``_components``, as run pairs. Runs are numbered in order of their
    first return, so labels number the components in that order too.
    """
    n = len(points)
    x, y, z = points.T

    def linked(i, j):
        return (x[j] - x[i]) ** 2 + (y[j] - y[i]) ** 2 + (z[j] - z[i]) ** 2 <= tol * tol

    along = [(row[:-d] == row[d:]) & linked(slice(None, -d), slice(d, None)) for d in range(1, AZIMUTH_REACH + 1)]
    run = np.concatenate([[0], np.cumsum(~along[0])])
    links = []

    def join(i, j):
        # the run pairs of links i -> j, less each that repeats the pair before it
        u, v = run[i], run[j]
        keep = u != v
        keep[1:] &= (u[1:] != u[:-1]) | (v[1:] != v[:-1])
        links.append((u[keep], v[keep]))

    for d, ok in enumerate(along[1:], start=2):
        i = np.flatnonzero(ok)
        join(i, i + d)

    # one key per raster cell, ascending in this order; the padding keeps
    # the next row's window of a return inside that row
    az = azimuth_index - azimuth_index.min() + AZIMUTH_REACH
    width = int(az.max()) + AZIMUTH_REACH + 1
    key = (row - row[0]) * width + az
    # the next row's returns near return i sit at first[i] onwards, at most
    # 2 * AZIMUTH_REACH + 1 of them, in its window of keys
    first = np.searchsorted(key, key + width - AZIMUTH_REACH)
    last = key + width + AZIMUTH_REACH
    for k in range(2 * AZIMUTH_REACH + 1):
        m = np.searchsorted(first, n - k)  # first is ascending
        j = first[:m] + k
        i = np.flatnonzero((key[j] <= last[:m]) & linked(slice(None, m), j))
        join(i, j[i])

    u, v = (np.concatenate(side) for side in zip(*links))
    return _components(int(run[-1]) + 1, u, v)[run]


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


def _extent_error(spread, omega, alpha, r, channel, azimuth_index, bounds, board_width, board_height):
    """How far each cluster's extents lie from what a board can show on the raster.

    The columns hold the clusters' returns one cluster after another, each
    in (channel, azimuth index) order: cluster k is ``bounds[k]:bounds[k + 1]``,
    and ``spread[k]`` its (3,) bounding-box size. A cluster's two largest
    spreads are its in-plane extents, compared with the board's width and
    height. A board of extent B sampled at spacing s (the cluster's mean range
    times the azimuth step across, and times the row pitch up) shows a spread
    between S = (floor(B / s) - 1) s and B, because each edge can fall short
    of the nearest row by up to one spacing. An extent below S counts
    relative to S, one above B relative to B. Returns per cluster the larger
    of the two relative errors, and the extents.
    """
    start, size = bounds[:-1], np.diff(bounds)
    e1, e2 = np.sort(spread, axis=1)[:, :0:-1].T
    rng = np.array([r[a:b].mean() for a, b in zip(start, bounds[1:])])  # summed as np.mean sums
    cluster = np.repeat(np.arange(len(size)), size)

    # row pitch: the middle elevation step between the cluster's channels
    first = np.ones(len(channel), dtype=bool)
    first[1:] = channel[1:] != channel[:-1]
    first[start] = True
    at = np.flatnonzero(first)
    c = cluster[at]
    levels = omega[at][np.lexsort((omega[at], c))]
    same = c[1:] == c[:-1]
    steps, owner = (levels[1:] - levels[:-1])[same], c[1:][same]
    steps = steps[np.lexsort((steps, owner))]
    count = np.bincount(owner, minlength=len(size))
    pitch = np.zeros(len(size))
    has = count > 0
    pitch[has] = steps[(np.cumsum(count) - count + count // 2)[has]]

    # azimuth step: the angle the cluster turns through per azimuth index
    def ptp(v):
        return np.maximum.reduceat(v, start) - np.minimum.reduceat(v, start)

    turn = ptp(alpha)
    # a cluster that straddles azimuth 0
    turn = np.where(turn > np.pi, ptp(np.where(alpha < np.pi, alpha + 2 * np.pi, alpha)), turn)
    columns = ptp(azimuth_index)
    step = np.divide(turn, columns, out=np.zeros(len(size)), where=columns > 0)

    def off(extent, board, spacing):
        with np.errstate(divide="ignore", invalid="ignore"):
            shortest = np.where(spacing > 0, (np.floor(board / spacing) - 1) * spacing, board)
            short = np.where(shortest > 0, (shortest - extent) / shortest, 0.0)
        return np.maximum(np.maximum(short, (extent - board) / board), 0.0)

    return np.maximum(off(e1, board_width, rng * step), off(e2, board_height, rng * pitch)), e1, e2


def segment_frames(beams, sizes, board_width: float, board_height: float) -> np.ndarray:
    """Row indices of every frame's board returns in a batch of frames.

    ``beams`` holds the batch's returns (``BEAM_DTYPE``) frame after frame,
    each frame's in (channel, azimuth index) order: the concatenation of the
    frames' ``beams``. Frame k holds ``sizes[k]`` of them.

    Each frame is clustered on its (channel, azimuth index) raster: a return
    is linked to the next ``AZIMUTH_REACH`` returns of its channel in azimuth
    order and to the next channel's returns within ``AZIMUTH_REACH`` azimuth
    indices, wherever the two lie within ``CLUSTER_TOLERANCE`` in 3-D. The
    links are labelled by runs along each channel (``_raster_components``).
    A frame's board is the cluster whose bounding extents best match the
    configured board dimensions (within ``EXTENT_TOLERANCE`` relative error
    of the spreads the raster can sample at the cluster's range; see
    ``_extent_error``).

    Every raster link is also a link of single-linkage Euclidean clustering
    at ``CLUSTER_TOLERANCE``, so raster clusters can only split those
    clusters; dropouts are bridged, because the next returns in azimuth
    order skip missing ones. An occluder in front of the board that spans
    every row and is at least ``AZIMUTH_REACH`` returns wide does split the
    board. A frame's ROI is always a whole single-linkage cluster: a board
    piece with a return outside it within ``CLUSTER_TOLERANCE`` raises
    instead.

    The whole batch is segmented in one pass. A raster row is a (frame,
    channel) pair, and an empty row between two frames keeps links from
    crossing them. One labelling and one extent check cover the clusters of
    every frame; only a frame with returns near its board's box gets the
    pairwise gap check.

    Raises
    ------
    SegmentationError
        For the first frame in batch order that is empty, holds no cluster
        matching the board (with per-cluster diagnostics) or whose matching
        cluster is a piece of a board split by an occluder, with that
        frame's message and its index as ``frame``.
    ValueError
        If ``sizes`` do not split ``beams``.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    if sizes.sum() != len(beams) or np.any(sizes < 0):
        raise ValueError(f"frame sizes {sizes.tolist()} do not split the batch's {len(beams)} returns")
    if len(sizes) == 0:
        return np.zeros(0, dtype=np.intp)
    if len(beams) == 0:
        raise SegmentationError("empty frame: no clusters (0 points)", 0)
    offset = np.cumsum(sizes) - sizes
    scan = np.repeat(np.arange(len(sizes)), sizes)
    omega, alpha, r, channel, azimuth_index = (
        np.ascontiguousarray(beams[name]) for name in ("omega", "alpha", "r", "channel", "azimuth_index")
    )
    pts = polar_to_cartesian_array(omega, alpha, r)
    span = int(channel.max() - channel.min())
    labels = _raster_components(pts, scan * (span + 2) + channel, azimuth_index, CLUSTER_TOLERANCE)

    # the clusters of at least MIN_POINTS returns, in label order, each
    # cluster's returns in batch order
    counts = np.bincount(labels)
    member = np.flatnonzero(counts[labels] >= MIN_POINTS)
    at = member[np.argsort(labels[member], kind="stable")]
    label = np.flatnonzero(counts >= MIN_POINTS)
    bounds = np.concatenate([[0], np.cumsum(counts[label])])
    frame = scan[at[bounds[:-1]]]
    grouped = pts[at]
    lo = np.minimum.reduceat(grouped, bounds[:-1], axis=0)
    hi = np.maximum.reduceat(grouped, bounds[:-1], axis=0)
    err, e1, e2 = _extent_error(
        hi - lo, omega[at], alpha[at], r[at], channel[at], azimuth_index[at], bounds, board_width, board_height,
    )

    # per frame, the matching cluster of least error, the first one on a
    # tie; a frame with none gets index len(label): no label and no box
    fits = np.flatnonzero(err <= EXTENT_TOLERANCE)
    fits = fits[np.lexsort((fits, err[fits], frame[fits]))]
    fits = fits[np.diff(frame[fits], prepend=-1) != 0]
    best = np.full(len(sizes), len(label))
    best[frame[fits]] = fits
    unmatched = np.flatnonzero(best == len(label))
    refused = unmatched[0] if len(unmatched) else len(sizes)
    box = best[scan]
    roi = labels == np.append(label, -1)[box]

    # a board piece with a return outside it within CLUSTER_TOLERANCE;
    # returns inside the box grown by that much are the only candidates
    low = np.vstack([lo - CLUSTER_TOLERANCE, [np.inf] * 3])
    high = np.vstack([hi + CLUSTER_TOLERANCE, [-np.inf] * 3])
    near = ~roi
    for c in range(3):
        near &= (pts[:, c] >= low[box, c]) & (pts[:, c] <= high[box, c])
    for k in np.unique(scan[near & (scan < refused)]):
        inside, out = pts[roi & (scan == k)], pts[near & (scan == k)]
        gap2 = sum((o[:, None] - i) ** 2 for o, i in zip(out.T, inside.T))
        if gap2.min() <= CLUSTER_TOLERANCE ** 2:
            raise SegmentationError(
                f"the {len(inside)}-return cluster matching the {board_width} x {board_height} m "
                f"board is a piece of it: a return outside it lies within {CLUSTER_TOLERANCE} m "
                "(an occluder across every row splits the board)",
                int(k),
            )
    if refused < len(sizes):
        if sizes[refused] == 0:
            raise SegmentationError("empty frame: no clusters (0 points)", int(refused))
        mine = np.flatnonzero(frame == refused)
        diagnostics = [
            (int(label[c] - labels[offset[refused]]), int(counts[label[c]]), float(e1[c]), float(e2[c])) for c in mine
        ]
        raise SegmentationError(
            f"no cluster matches the {board_width} x {board_height} m board; "
            f"clusters (label, count, extent1, extent2): {diagnostics}",
            int(refused),
        )
    return np.flatnonzero(roi)


def segment_target(frame, board_width: float, board_height: float) -> np.ndarray:
    """Indices of one frame's beams that belong to the target board: the
    one-frame case of ``segment_frames``, which documents the algorithm.

    The pipeline does not call it; it is kept only because perfbench's
    ``install_layers`` wraps it by name.
    """
    return segment_frames(frame.beams, [len(frame.beams)], board_width, board_height)


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


def refine_plane_ranges(omega, alpha, r, plane0: PlaneModel) -> PlaneModel:
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
    for _ in range(PLANE_REFINE_ITERATIONS):
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
