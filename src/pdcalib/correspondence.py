"""Pair PD-frame beam-center measurements with the sensor beams that made them.

Three steps per photodetector:

1. ``find_pd_beam``: each PD event's firing time names the beam that made
   it, (channel, azimuth index) on the sensor's scan clock; one call joins
   every event of a batch to its board return.
2. ``build_azimuth_center_model``: over repeated scans the reported azimuth
   of that beam fluctuates with the head rotation, and the PD-measured
   center moves proportionally. A RANSAC line over (azimuth, center) pairs
   rejects one-index association slips, which show up as center jumps of
   one full beam interval (~9.7 mm).
3. ``make_correspondences``: the smoothed center, converted to the board
   frame through the module's mounting offset, is paired with the beam's
   polar measurement for the pose solver, for a whole batch's key table in
   one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import DEG, MM
from .scene import BEAM_DTYPE, LidarModel, PdPlacement

DEFAULT_DETECTION_MARGIN = 10.0  # reflectivity counts above the row median
DEFAULT_RANSAC_THRESHOLD_MM = 2.0
DEFAULT_RANSAC_ITERATIONS = 200
RANSAC_SEED = 0  # of the generator that draws every RANSAC's hypotheses

# One row per (scan, PD) key detection of a batch: the key beam, its range
# slid onto the board plane, the scan's index in the batch, the PD's index
# on the board and the key event's fitted center (m, along the PD axis).
KEY_DTYPE = np.dtype(BEAM_DTYPE.descr + [("scan", int), ("pd", int), ("mu", float)])


class ModelError(RuntimeError):
    """Azimuth-center model could not be built (systematic fault likely)."""


@dataclass(frozen=True)
class AzimuthCenterModel:
    """Linear map center_mm = nu + tau * azimuth_deg for one PD."""

    nu: float                # mm
    tau: float               # mm / deg
    inlier_mask: np.ndarray
    fit_rms: float           # mm, on inliers

    def predict(self, alpha_deg):
        return self.nu + self.tau * np.asarray(alpha_deg)


def find_pd_beam(times, scans, table, table_scan, lidar: LidarModel) -> np.ndarray:
    """Row of the batch table whose firing made each PD event, -1 where none.

    The sensor fires channel c of azimuth index j at ``j * firing_period +
    c * pulse_burst_period`` on its scan clock, and PD event times are read
    on that clock. So an event at t names the cell j = floor((t + pbp / 2) /
    fp), c = round((t - j fp) / pbp) of its scan. An event gets no row when
    its remainder lies more than a quarter burst period from a channel slot,
    when c is not a channel of the sensor, or when the table holds no return
    in that cell.

    Parameters
    ----------
    times : (E,) array
        Event firing times, s.
    scans : (E,) int array
        The scan of each event, as numbered in ``table_scan``.
    table : structured array
        The batch's board returns, with ``channel`` and ``azimuth_index``
        columns; a (scan, channel, azimuth index) cell holds one return.
    table_scan : (N,) int array
        The scan of each table row.
    lidar : LidarModel
        Firing schedule and channel count of the sensor.
    """
    t = np.asarray(times, dtype=float)
    s = np.asarray(scans, dtype=np.int64)
    table_scan = np.asarray(table_scan, dtype=np.int64)
    if t.shape != s.shape or table_scan.shape != table.shape:
        raise ValueError("one scan id per event and per table row required")
    fp, pbp = lidar.firing_period, lidar.pulse_burst_period
    j = np.floor((t + pbp / 2) / fp)
    with np.errstate(divide="ignore", invalid="ignore"):
        slot = (t - j * fp) / pbp
        c = np.rint(slot)
        named = (np.abs(slot - c) <= 0.25) & (c >= 0) & (c < lidar.n_channels)
    rows = np.full(t.shape, -1, dtype=np.intp)
    if not table.size or not named.any():
        return rows

    # one sorted integer key over the (scan, channel, azimuth index) cells
    channel = table["channel"].astype(np.int64)
    azimuth = table["azimuth_index"].astype(np.int64)
    c_lo, a_lo = channel.min(), azimuth.min()
    c_span, a_span = channel.max() - c_lo + 1, azimuth.max() - a_lo + 1
    cells = (table_scan * c_span + channel - c_lo) * a_span + azimuth - a_lo
    order = np.argsort(cells, kind="stable")
    cells = cells[order]

    e = np.flatnonzero(named)
    ec, ej = c[e].astype(np.int64) - c_lo, j[e].astype(np.int64) - a_lo
    inside = (ec >= 0) & (ec < c_span) & (ej >= 0) & (ej < a_span)
    e, key = e[inside], ((s[e] * c_span + ec) * a_span + ej)[inside]
    at = np.minimum(np.searchsorted(cells, key), len(cells) - 1)
    found = cells[at] == key
    rows[e[found]] = order[at[found]]
    return rows


def _line_fit(a: np.ndarray, mu: np.ndarray) -> tuple[float, float]:
    """Least-squares (nu, tau) for mu = nu + tau * a; tau = 0 for constant a."""
    if np.ptp(a) < 1e-12:
        return float(np.mean(mu)), 0.0
    tau, nu = np.polyfit(a, mu, 1)
    return float(nu), float(tau)


@lru_cache(maxsize=16)
def _ransac_pairs(n: int, iterations: int) -> np.ndarray:
    """The (iterations, 2) index pairs RANSAC draws from ``n`` points.

    Each pair is ``rng.choice(n, 2, replace=False)`` of one
    ``default_rng(RANSAC_SEED)`` sequence, so the draw depends on its
    arguments only, and the PDs of a batch that were detected in as many
    scans share it. The array is read-only, since every caller gets the
    same one.
    """
    rng = np.random.default_rng(RANSAC_SEED)
    draws = [rng.choice(n, size=2, replace=False) for _ in range(iterations)]
    pairs = np.array(draws, dtype=np.intp).reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs


def build_azimuth_center_model(
    alpha_deg,
    mu_mm,
    threshold: float = DEFAULT_RANSAC_THRESHOLD_MM,
    iterations: int = DEFAULT_RANSAC_ITERATIONS,
) -> AzimuthCenterModel:
    """RANSAC + refit of the linear azimuth-to-center relation for one PD.

    Inliers lie within ``threshold`` mm of the line; the final (nu, tau) is
    a least-squares refit on the inliers. Outliers are expected to be
    one-index azimuth slips showing ~9.7 mm jumps. The hypotheses are
    ``iterations`` pairs drawn from ``np.random.default_rng(RANSAC_SEED)``;
    calls with the same pair count and ``iterations`` draw the same pairs.

    Raises
    ------
    ModelError
        With fewer than 5 pairs or fewer than 50 % inliers.
    """
    a = np.asarray(alpha_deg, dtype=float)
    mu = np.asarray(mu_mm, dtype=float)
    if a.shape != mu.shape or a.ndim != 1:
        raise ValueError("alpha and mu must be matching 1-D arrays")
    n = len(a)
    if n < 5:
        raise ModelError(f"need at least 5 scan pairs, got {n}")

    if np.ptp(a) < 1e-12:
        # zero-variance regressor: degenerate but usable, tau = 0
        nu = float(np.mean(mu))
        resid = np.abs(mu - nu)
        mask = resid <= threshold
        if mask.sum() < 0.5 * n:
            raise ModelError("constant-azimuth pairs disagree beyond threshold")
        nu = float(np.mean(mu[mask]))
        rms = float(np.sqrt(np.mean((mu[mask] - nu) ** 2)))
        return AzimuthCenterModel(nu=nu, tau=0.0, inlier_mask=mask, fit_rms=rms)

    # every hypothesis line scored at once; a pair of equal azimuths draws
    # no line, and the first line with the most inliers wins
    i, k = _ransac_pairs(n, iterations).T
    span = a[k] - a[i]
    drawn = ~(np.abs(span) < 1e-12)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = (mu[k] - mu[i]) / span
        nu = mu[i] - tau * a[i]
        masks = np.abs(mu - (nu[:, None] + tau[:, None] * a)) <= threshold
    counts = np.where(drawn, masks.sum(axis=1), -1)
    kept = max(int(counts.max(initial=-1)), 0)
    if kept < max(2, 0.5 * n):
        raise ModelError(f"RANSAC kept {kept}/{n} pairs; systematic fault suspected")
    best_mask = masks[np.argmax(counts)]
    nu, tau = _line_fit(a[best_mask], mu[best_mask])
    resid = np.abs(mu - (nu + tau * a))
    mask = resid <= threshold
    nu, tau = _line_fit(a[mask], mu[mask])
    rms = float(np.sqrt(np.mean((mu[mask] - (nu + tau * a[mask])) ** 2)))
    return AzimuthCenterModel(nu=nu, tau=tau, inlier_mask=mask, fit_rms=rms)


def pd_measurement_to_board(pd: PdPlacement, mu_m) -> np.ndarray:
    """Board-frame position of PD-axis measurements at the centerline.

    Equivalent to the frame-conversion convention o_p = d_p - P_offset with
    d_p = (mu, 0, centerline) for horizontal modules (axes swapped for
    vertical ones). A scalar ``mu_m`` gives a (3,) point, an (n,) array an
    (n, 3) array.
    """
    mu = np.asarray(mu_m, dtype=float)
    d_p = np.zeros(mu.shape + (3,))
    d_p[..., 0 if pd.orientation == "horizontal" else 2] = mu
    return d_p - pd.frame_offset


def make_correspondences(models: dict, keys: np.ndarray, placements) -> tuple[np.ndarray, np.ndarray]:
    """Pair every key detection of a batch with its board-frame position.

    ``keys`` is a key table (``KEY_DTYPE``) whose ``pd`` column indexes
    ``placements``; ``models`` maps pd_id to its ``AzimuthCenterModel``. A
    row is kept when its PD has a model, and its position is the model's
    smoothed center at the row's azimuth, on the module's centerline.

    Returns the kept rows, in table order, and their (n, 3) board-frame
    positions in meters.
    """
    kept = np.zeros(len(keys), dtype=bool)
    p_o = np.zeros((len(keys), 3))
    for p, pd in enumerate(placements):
        model = models.get(pd.pd_id)
        if model is None:
            continue
        rows = keys["pd"] == p
        kept |= rows
        p_o[rows] = pd_measurement_to_board(pd, model.predict(keys["alpha"][rows] / DEG) * MM)
    return keys[kept], p_o[kept]
