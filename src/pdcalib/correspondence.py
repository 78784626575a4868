"""Pair PD-frame beam-center measurements with the sensor beams that made them.

Three steps per photodetector:

1. ``find_pd_beam``: the beam that struck the module shows up as a local
   reflectivity maximum in its channel row (the module surface out-reflects
   the black surround); one call searches every scan of a batch.
2. ``build_azimuth_center_model``: over repeated scans the reported azimuth
   of that beam fluctuates with the head rotation, and the PD-measured
   center moves proportionally. A RANSAC line over (azimuth, center) pairs
   rejects one-index association slips, which show up as center jumps of
   one full beam interval (~9.7 mm).
3. ``make_correspondences``: the smoothed center, converted to the board
   frame through the module's mounting offset, is paired with the beam's
   polar measurement for the pose solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import DEG, MM, PolarBeam
from .scene import PdPlacement

DEFAULT_DETECTION_MARGIN = 10.0  # reflectivity counts above the row median
DEFAULT_SEARCH_WINDOW_M = 0.030
DEFAULT_RANSAC_THRESHOLD_MM = 2.0
DEFAULT_RANSAC_ITERATIONS = 200


class ModelError(RuntimeError):
    """Azimuth-center model could not be built (systematic fault likely)."""


@dataclass(frozen=True)
class Correspondence:
    """One paired feature point: board-frame position vs sensor beam."""

    pd_id: str
    scan_id: int
    p_o: np.ndarray          # (3,) board-frame position, meters
    beam: PolarBeam

    def __post_init__(self):
        object.__setattr__(self, "p_o", np.asarray(self.p_o, dtype=float).reshape(3))


@dataclass(frozen=True)
class AzimuthCenterModel:
    """Linear map center_mm = nu + tau * azimuth_deg for one PD."""

    nu: float                # mm
    tau: float               # mm / deg
    inlier_mask: np.ndarray
    fit_rms: float           # mm, on inliers

    def predict(self, alpha_deg):
        return self.nu + self.tau * np.asarray(alpha_deg)


def find_pd_beam(
    row_reflectivity,
    row_positions,
    row_scan,
    pd: PdPlacement,
    n_scans: int,
    margin: float = DEFAULT_DETECTION_MARGIN,
    window: float = DEFAULT_SEARCH_WINDOW_M,
) -> tuple[np.ndarray, dict]:
    """Identify the beam that struck a PD module in each scan of a batch.

    In each scan, the candidates are the beams of the row within ``window``
    of the module center whose reflectivity is at least the scan's row
    median plus ``margin``. The highest level wins; levels within 1e-12 of
    it tie, and a tie goes to the beam nearer the module center, then to
    the earlier one in row order.

    Parameters
    ----------
    row_reflectivity : (N,) array
        Reflectivity of every beam of the channel row crossing the module,
        in every scan.
    row_positions : (N, 3) array
        Their nominal board-frame positions (from the rig's nominal pose).
    row_scan : (N,) int array
        The scan, 0 .. ``n_scans`` - 1, each beam belongs to.
    pd : PdPlacement
        The module searched for.
    n_scans : int
        Scans in the batch; a scan with no beams in the row misses.
    margin : float
        Required elevation of the peak above the scan's row median.
    window : float
        Search radius around the module center on the board, meters.

    Returns
    -------
    hits : (n_scans,) int array
        Index into the N beams of each scan's struck beam, -1 on a miss.
    misses : dict
        Scan -> reason, for every scan with no sufficiently elevated beam
        in the window; those scans are skipped for this PD.
    """
    refl = np.asarray(row_reflectivity, dtype=float)
    scan = np.asarray(row_scan, dtype=np.intp)
    positions = np.asarray(row_positions, dtype=float).reshape(-1, 3)
    if not refl.shape == scan.shape == positions.shape[:1]:
        raise ValueError("one scan id and one position per row beam required")
    if scan.size and not (0 <= scan.min() and scan.max() < n_scans):
        raise ValueError(f"scan ids must lie in 0 .. {n_scans - 1}")
    center = np.array([pd.offset[0], 0.0, pd.offset[1]])
    dist = np.linalg.norm(positions - center, axis=1)

    # per-scan row median: the middle one or two levels of each scan's block
    count = np.bincount(scan, minlength=n_scans)
    ranked = refl[np.lexsort((refl, scan))]
    first = np.cumsum(count) - count
    seen = count > 0
    median = np.full(n_scans, np.nan)
    low, high = (first + (count - 1) // 2)[seen], (first + count // 2)[seen]
    median[seen] = (ranked[low] + ranked[high]) / 2

    near = dist <= window
    candidate = near & (refl >= median[scan] + margin)
    top = np.full(n_scans, -np.inf)
    np.maximum.at(top, scan[candidate], refl[candidate])
    tied = candidate & (top[scan] - refl <= 1e-12)
    nearest = np.full(n_scans, np.inf)
    np.minimum.at(nearest, scan[tied], dist[tied])
    winners = np.flatnonzero(tied & (dist == nearest[scan]))
    hits = np.full(n_scans, -1, dtype=np.intp)
    won, first_win = np.unique(scan[winners], return_index=True)
    hits[won] = winners[first_win]

    any_near = np.bincount(scan[near], minlength=n_scans) > 0
    misses = {}
    for k in np.flatnonzero(hits < 0).tolist():
        if not seen[k]:
            misses[k] = f"{pd.pd_id}: empty channel row"
        elif not any_near[k]:
            misses[k] = f"{pd.pd_id}: no beams within {window * 1e3:.0f} mm"
        else:
            misses[k] = (
                f"{pd.pd_id}: no local maximum exceeds median {median[k]:.1f} + {margin:.0f}"
            )
    return hits, misses


def _line_fit(a: np.ndarray, mu: np.ndarray) -> tuple[float, float]:
    """Least-squares (nu, tau) for mu = nu + tau * a; tau = 0 for constant a."""
    if np.ptp(a) < 1e-12:
        return float(np.mean(mu)), 0.0
    tau, nu = np.polyfit(a, mu, 1)
    return float(nu), float(tau)


@lru_cache(maxsize=16)
def _ransac_pairs(n: int, iterations: int, seed: int) -> np.ndarray:
    """The (iterations, 2) index pairs RANSAC draws from ``n`` points.

    Each pair is ``rng.choice(n, 2, replace=False)`` of one
    ``default_rng(seed)`` sequence, so the draw depends on its arguments
    only, and the PDs of a batch that were detected in as many scans share
    it. The array is read-only, since every caller gets the same one.
    """
    rng = np.random.default_rng(seed)
    draws = [rng.choice(n, size=2, replace=False) for _ in range(iterations)]
    pairs = np.array(draws, dtype=np.intp).reshape(-1, 2)
    pairs.flags.writeable = False
    return pairs


def build_azimuth_center_model(
    alpha_deg,
    mu_mm,
    threshold: float = DEFAULT_RANSAC_THRESHOLD_MM,
    iterations: int = DEFAULT_RANSAC_ITERATIONS,
    seed: int = 0,
) -> AzimuthCenterModel:
    """RANSAC + refit of the linear azimuth-to-center relation for one PD.

    Inliers lie within ``threshold`` mm of the line; the final (nu, tau) is
    a least-squares refit on the inliers. Outliers are expected to be
    one-index azimuth slips showing ~9.7 mm jumps. The hypotheses are
    ``iterations`` pairs drawn from ``np.random.default_rng(seed)`` for an
    int ``seed``; calls with the same pair count, ``iterations`` and
    ``seed`` draw the same pairs.

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
    i, k = _ransac_pairs(n, iterations, seed).T
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


def pd_measurement_to_board(pd: PdPlacement, mu_m: float) -> np.ndarray:
    """Board-frame position of a PD-axis measurement at the centerline.

    Equivalent to the frame-conversion convention o_p = d_p - P_offset with
    d_p = (mu, 0, centerline) for horizontal modules (axes swapped for
    vertical ones).
    """
    d_p = np.array([mu_m, 0.0, 0.0]) if pd.orientation == "horizontal" else np.array([0.0, 0.0, mu_m])
    return d_p - pd.frame_offset


def make_correspondences(
    models: dict,
    key_beams: dict,
    placements,
    scan_id: int = 0,
    min_count: int = 3,
) -> list:
    """Assemble solver-ready correspondences for one scan.

    Parameters
    ----------
    models : dict
        pd_id -> AzimuthCenterModel (PDs without a model are skipped).
    key_beams : dict
        pd_id -> detected PolarBeam for this scan.
    placements : iterable[PdPlacement]
        Modules to consider.
    scan_id : int
        Scan the key beams came from.
    min_count : int
        Minimum correspondences required downstream (the pose solver needs
        at least 3 non-collinear points).
    """
    out = []
    for pd in placements:
        model = models.get(pd.pd_id)
        beam = key_beams.get(pd.pd_id)
        if model is None or beam is None:
            continue
        mu_m = float(model.predict(beam.alpha / DEG)) * MM
        p_o = pd_measurement_to_board(pd, mu_m)
        out.append(Correspondence(pd_id=pd.pd_id, scan_id=scan_id, p_o=p_o, beam=beam))
    if len(out) < min_count:
        raise ModelError(f"only {len(out)} correspondences available, need {min_count}")
    return out
