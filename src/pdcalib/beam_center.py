"""Sub-millimeter beam-center estimation along a photodetector array.

A laser spot sweeping the 1-D array produces a bell-shaped peak-voltage
profile over the diode elements. Taking logs turns the Gaussian into a
quadratic, which is fit by iteratively reweighted least squares: weights
start as the squared measurements and are replaced by the squared model
predictions on subsequent passes, which suppresses the log-domain noise
amplification of the small samples. The center follows from the quadratic
coefficients as mu = -a1 / (2 a2), sigma^2 = -1 / (2 a2).

The DAQ samples only four array elements, and the fit uses those four
voltages alone. Synthetic anchor samples at the noise level outside the
array span (``augment_samples``) would keep the quadratic concave for a
spot near an array end, but they pull every off-center spot toward the
array middle: by 0.21 mm at 3 mm off center and 2.5 m range, noiseless,
against at most 0.02 mm for the four-sample fit within 6 mm of the center.

``fit_gaussian_batch`` fits a stack of events at once, each row on its
own, and ``select_key_beams`` picks the key event of many groups of events
at once. The pipeline calls these two only; ``fit_gaussian_iterative``,
``GaussianFitResult``, ``select_key_beam``, ``beams_on_pd`` and
``augment_samples`` are kept only because perfbench's ``install_layers``
wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# anchor samples outside the 0-15 mm array span, which the pipeline does not
# append; augment_samples and these constants are deleted once
# perfbench stops tracing augment_samples (the benchmark change in ROADMAP.md)
AUGMENT_POSITIONS_M = (-0.005, 0.020)
AUGMENT_VALUE_V = 0.1
# samples at or below this voltage carry no spot signal; the fits clamp to it
NOISE_FLOOR_V = 0.1
# fits are meaningful only near the array: its 0-15 mm span plus 10 mm either side
MU_BOUNDS_M = (-0.010, 0.025)

DEFAULT_ITERATIONS = 10
CONVERGENCE_TOL_M = 1e-6  # |delta mu| between the final two passes


class GaussianFitError(ValueError):
    """Log-quadratic fit failed (non-concave or singular system)."""


# why a row of a batched fit failed: GaussianFitBatch.status indexes this
# tuple, and status 0 marks a usable fit
FIT_STATUS = (
    "ok",
    "element positions must be distinct",
    "need at least 3 positive samples",
    "singular normal matrix",
    "non-concave log fit (a2 >= 0)",
    "non-positive or non-finite sigma",
    f"fitted center outside the usable [{MU_BOUNDS_M[0] * 1e3:.0f}, "
    f"{MU_BOUNDS_M[1] * 1e3:.0f}] mm window",
)
_DUPLICATE, _TOO_FEW, _SINGULAR, _NON_CONCAVE, _BAD_SIGMA, _OUTSIDE = range(1, len(FIT_STATUS))


@dataclass(frozen=True)
class GaussianFitResult:
    """Result of one beam-center fit that ``fit_gaussian_batch`` marks usable.

    mu and sigma are in meters along the PD axis, amplitude in volts.
    ``converged`` means |delta mu| between the final two passes was below
    ``CONVERGENCE_TOL_M``. Kept only as the return type of
    ``fit_gaussian_iterative``, which perfbench's ``install_layers`` wraps by
    name.
    """

    mu: float
    sigma: float
    amplitude: float
    iterations_used: int
    converged: bool


@dataclass(frozen=True)
class GaussianFitBatch:
    """Column results of a batched fit, one entry per row.

    ``status`` indexes ``FIT_STATUS``; mu, sigma and amplitude are NaN and
    ``converged`` is False where a row's fit failed.
    """

    mu: np.ndarray
    sigma: np.ndarray
    amplitude: np.ndarray
    converged: np.ndarray
    status: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.status == 0


def augment_samples(x, y):
    """Append the two low-level anchor samples to a measurement set.

    The pipeline fits the sampled voltages alone and does not call this; it
    is kept only because perfbench's ``install_layers`` wraps it by name.

    Adds (-5 mm, 0.1 V) and (20 mm, 0.1 V) exactly once, to a 1-D set or to
    every row of an (n, m) stack; calling it on an already-augmented set
    raises.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise ValueError("augment_samples expects matching 1-D or 2-D x and y")
    for xa in AUGMENT_POSITIONS_M:
        if np.any(np.isclose(x, xa, rtol=0.0, atol=1e-12)):
            raise ValueError("samples already augmented")
    anchors = x.shape[:-1] + (2,)
    x_out = np.concatenate([x, np.broadcast_to(AUGMENT_POSITIONS_M, anchors)], axis=-1)
    y_out = np.concatenate([y, np.full(anchors, AUGMENT_VALUE_V)], axis=-1)
    return x_out, y_out


# normal matrix of the log-quadratic fit from the moments p[k] = sum(u^(4-k) w)
_HANKEL = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4]])


def fit_gaussian_batch(
    x,
    y,
    k_max: int = DEFAULT_ITERATIONS,
    noise_floor=NOISE_FLOOR_V,
) -> GaussianFitBatch:
    """Fit a Gaussian to each row of (position, peak-voltage) samples.

    Parameters
    ----------
    x, y : (n, m) arrays
        Element positions in meters and peak voltages in volts, one event
        per row. Voltages at or below the row's noise floor are clamped to
        it so the log is defined.
    k_max : int
        Number of reweighting passes (weights y_(k-1)^2; pass 0 uses the
        measured values, later passes the model predictions). Every row runs
        all passes.
    noise_floor : float or (n,) array
        One floor for all rows or one per row.

    Returns
    -------
    GaussianFitBatch
        With mu = -a1/(2 a2) and sigma^2 = -1/(2 a2) per row. A row fails
        (and never disturbs the others) if its positions repeat, it has fewer
        than 3 positive samples, a pass meets a singular normal matrix or
        a2 >= 0, or the final sigma or center is unusable.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError("fit_gaussian_batch expects matching (n, m) x and y")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = len(x)
    floor = np.broadcast_to(np.asarray(noise_floor, dtype=float), (n,))
    y = np.maximum(y, floor[:, None])
    status = np.zeros(n, dtype=np.int8)

    def fail(mask, code):
        status[(status == 0) & mask] = code

    fail(np.any(np.diff(np.sort(x, axis=1), axis=1) == 0, axis=1), _DUPLICATE)
    fail(np.count_nonzero(y > 0, axis=1) < 3, _TOO_FEW)

    # center each row's abscissa so the normal equations stay well scaled
    # and the estimate is shift-equivariant
    x0 = 0.5 * (x.min(axis=1, initial=np.inf) + x.max(axis=1, initial=-np.inf))
    u = x - x0[:, None]
    powers = np.stack([u ** 4, u ** 3, u ** 2, u, np.ones_like(u)], axis=1)  # (n, 5, m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ln_y = np.log(y)[:, None, :]
        w = y * y  # pass 0: squared measurements
        mu_local = mu_prev = np.full(n, np.nan)
        identity = np.eye(3)
        for _ in range(k_max):
            weighted = powers * w[:, None, :]
            p = weighted.sum(axis=2)  # moments sum(u^k w), k = 4 .. 0
            m = p[:, _HANKEL]
            b = (weighted[:, 2:] * ln_y).sum(axis=2)
            # a failed row solves the identity instead, so it cannot make the
            # stacked solve raise or spread NaN
            dead = status != 0
            if dead.any():
                m[dead] = identity
                b[dead] = 0.0
            try:
                a = np.linalg.solve(m, b[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # the rows of an exactly zero pivot fail, and solve the identity too
                singular = np.linalg.slogdet(m)[0] == 0
                fail(singular, _SINGULAR)
                m[singular] = identity
                b[singular] = 0.0
                a = np.linalg.solve(m, b[..., None])[..., 0]
            a2, a1, a0 = a.T
            fail(a2 >= 0, _NON_CONCAVE)
            mu_prev, mu_local = mu_local, -a1 / (2.0 * a2)
            w = np.exp(a2[:, None] * u * u + a1[:, None] * u + a0[:, None]) ** 2

        sigma = np.sqrt(-1.0 / (2.0 * a2))
        amplitude = np.exp(a0 - a1 * a1 / (4.0 * a2))
        mu = mu_local + x0
        fail(~(np.isfinite(sigma) & (sigma > 0)), _BAD_SIGMA)
        fail(~((mu >= MU_BOUNDS_M[0]) & (mu <= MU_BOUNDS_M[1])), _OUTSIDE)
        converged = np.abs(mu_local - mu_prev) < CONVERGENCE_TOL_M
    ok = status == 0
    return GaussianFitBatch(
        mu=np.where(ok, mu, np.nan),
        sigma=np.where(ok, sigma, np.nan),
        amplitude=np.where(ok, amplitude, np.nan),
        converged=ok & converged,
        status=status,
    )


def fit_gaussian_iterative(
    x,
    y,
    k_max: int = DEFAULT_ITERATIONS,
    noise_floor: float = NOISE_FLOOR_V,
) -> GaussianFitResult:
    """Fit a Gaussian to one set of (position, peak-voltage) samples.

    The one-row case of ``fit_gaussian_batch``; see there for the
    parameters. ``x`` and ``y`` are 1-D and the positions must be distinct.
    The pipeline does not call it; it is kept only because perfbench's
    ``install_layers`` wraps it by name.

    Raises
    ------
    ValueError
        For mismatched or non-1-D input or k_max < 1 (the batched fit's).
    GaussianFitError
        Where the batched fit marks the row failed (repeated positions too), with the reason.
    """
    fit = fit_gaussian_batch(np.asarray(x, dtype=float)[None], np.asarray(y, dtype=float)[None], k_max, noise_floor)
    if not fit.ok[0]:
        raise GaussianFitError(FIT_STATUS[fit.status[0]])
    return GaussianFitResult(
        mu=float(fit.mu[0]),
        sigma=float(fit.sigma[0]),
        amplitude=float(fit.amplitude[0]),
        iterations_used=k_max,
        converged=bool(fit.converged[0]),
    )


def select_key_beams(centers, reflectivity, times, group, n_groups) -> np.ndarray:
    """Index of each group's key event, -1 for a group with no usable fit.

    Event i of group ``group[i]`` (below ``n_groups``) has the fitted center
    ``centers[i]`` (NaN for a failed fit), beam level ``reflectivity[i]`` and
    firing time ``times[i]``. The key event is the one with a usable fit whose
    beam reads the highest level; ties go to the earlier-fired event, and
    equal times to the lower index.
    """
    level = np.where(np.isnan(centers), -np.inf, np.asarray(reflectivity, dtype=float))
    group = np.asarray(group, dtype=np.intp)
    order = np.lexsort((times, -level, group))  # stable: equal times keep their index order
    first = order[np.flatnonzero(np.diff(group[order], prepend=-1))]  # the best event of each group
    keys = np.full(n_groups, -1, dtype=np.intp)
    keys[group[first]] = np.where(level[first] > -np.inf, first, -1)
    return keys


def select_key_beam(centers, reflectivity) -> int:
    """Index of the key event among one record's events in firing order: the
    one-group case of ``select_key_beams``. Raises if no fit succeeded.

    The pipeline does not call it; it is kept only because perfbench's
    ``install_layers`` wraps it by name.
    """
    n = len(centers)
    (key,) = select_key_beams(centers, reflectivity, np.zeros(n), np.zeros(n, dtype=np.intp), 1)
    if key < 0:
        raise GaussianFitError("no successful fit to select a key beam from")
    return int(key)


def beams_on_pd(record):
    """A PD record's events in firing order, one per event.

    Returns (times (n,), voltages (n, m)), sorted on time by a sort that
    keeps the order of equal times. The pipeline does not call it; it is
    kept only because perfbench's ``install_layers`` wraps it by name.
    """
    order = np.argsort(record.sample_times, kind="stable")
    return record.sample_times[order], record.element_voltages[order]
