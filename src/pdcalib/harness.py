"""Sweep bench: repeat the full pipeline over a grid of reference poses.

Mirrors the physical test rig: a motor stage steps the sensor through yaw
angles or x positions, 50 revolutions are recorded per step, and the
estimates are compared against the commanded reference. Accuracy is the
mean over reference points of |mean error|; precision is the mean per-point
standard deviation over the repeated scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bench import Scene
from .geometry import DEG, MM, Pose6DOF
from .pipeline import BatchResult, PipelineError, calibrate_frames
# simulate_scan stays importable here: perfbench/workloads.py wraps
# harness.simulate_scan by name when it installs its tracing layers
from .scene import SimulationError, simulate_scan, simulate_scans  # noqa: F401

AXIS_NAMES = ("yaw_deg", "tilt_deg", "roll_deg", "dx_mm", "dy_mm", "dz_mm")
# the columns of a sweep's points CSV, one row per reference point
POINT_FIELDS = ("point_value", "solved", *(f"bias_{n}" for n in AXIS_NAMES), *(f"std_{n}" for n in AXIS_NAMES))
STATS_FOOTER = (
    "accuracy = mean over reference points of |mean error|; "
    "precision = mean over reference points of the per-point std over scans"
)


@dataclass(frozen=True)
class SweepSpec:
    """One bench sweep: which stage moves, over what grid, how many scans."""

    parameter: str = "yaw"         # "yaw" (deg) or "x_position" (mm)
    start: float = -3.0
    stop: float = 3.0
    step: float = 0.5
    scans_per_point: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.parameter not in ("yaw", "x_position"):
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        if self.step <= 0:
            raise ValueError("sweep step must be positive")
        span = (self.stop - self.start) / self.step
        if abs(span - round(span)) > 1e-9:
            raise ValueError("(stop - start) / step must be integral")
        if self.scans_per_point < 1:
            raise ValueError("scans_per_point must be >= 1")

    @property
    def values(self) -> np.ndarray:
        n = int(round((self.stop - self.start) / self.step)) + 1
        return self.start + self.step * np.arange(n)

    def offset_pose(self, base: Pose6DOF, value: float) -> Pose6DOF:
        """Reference pose for one grid value (the stage moves the sensor)."""
        if self.parameter == "yaw":
            return Pose6DOF(base.phi + value * DEG, base.theta, base.psi, base.dx, base.dy, base.dz)
        return Pose6DOF(base.phi, base.theta, base.psi, base.dx + value * MM, base.dy, base.dz)


@dataclass
class SweepStats:
    """Per-point and per-axis error statistics of one sweep."""

    label: str                    # e.g. "Horizontal PD"
    values: np.ndarray            # (P,) reference grid, deg or mm
    bias: np.ndarray              # (P, 6) mean error per point (rad / m)
    std: np.ndarray               # (P, 6) per-point std (rad / m)
    solved: np.ndarray            # (P,) scans solved per point
    estimates: list               # per point: (n_scans, 6) raw estimates
    failures: list                # (point value, stage/message) tuples

    def __post_init__(self):
        if np.any(self.std < 0):
            raise ValueError("negative std")
        if len(self.values) != len(self.bias):
            raise ValueError("point count mismatch")

    def _scaled(self, arr):
        out = arr.copy()
        out[:, :3] /= DEG
        out[:, 3:] /= MM
        return out

    @property
    def per_axis_accuracy(self) -> np.ndarray:
        """(6,) mean |bias| per axis, in deg / mm."""
        return np.abs(self._scaled(self.bias)).mean(axis=0)

    @property
    def per_axis_precision(self) -> np.ndarray:
        """(6,) mean per-point std per axis, in deg / mm."""
        return self._scaled(self.std).mean(axis=0)


def _point_seed(master: int, point_index: int, scan_index: int) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(point_index, scan_index))
    return int(ss.generate_state(1)[0])


def simulate_point(scene: Scene, pose: Pose6DOF, n_scans: int, seed: int,
                   point_index: int = 0, with_truth: bool = True) -> list:
    """Simulate the repeated scans of one reference point (seed-chained)."""
    return simulate_scans(
        scene.board,
        scene.lidar,
        pose,
        seeds=[_point_seed(seed, point_index, k) for k in range(n_scans)],
        scan_ids=range(n_scans),
        afe=scene.afe,
        with_truth=with_truth,
    )


def run_point(scene: Scene, pose: Pose6DOF, n_scans: int, seed: int, point_index: int) -> BatchResult:
    """Simulate and calibrate one reference point (no ground truth is kept)."""
    frames = simulate_point(scene, pose, n_scans, seed, point_index, with_truth=False)
    return calibrate_frames(frames, scene)


def _sweep_worker(args):
    scene, spec, point_index, value = args
    pose = spec.offset_pose(scene.base_pose, value)
    try:
        result = run_point(scene, pose, spec.scans_per_point, spec.seed, point_index)
    except (PipelineError, SimulationError) as exc:
        return point_index, None, str(exc)
    est = np.array([rep.beta.as_vector() for _, rep, _ in result.scan_reports if rep is not None])
    return point_index, est, ""


def run_sweep(scene: Scene, spec: SweepSpec, label: str = "", workers: int = 1) -> SweepStats:
    """Run the full pipeline over every sweep point and collect statistics.

    Points are independent; with ``workers > 1`` they run in a process pool.
    Results are keyed by point index, so the output is identical either way.
    Pipeline failures at a point are recorded and the sweep continues.
    """
    values = spec.values
    jobs = [(scene, spec, i, float(v)) for i, v in enumerate(values)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_worker, jobs))
    else:
        outcomes = [_sweep_worker(j) for j in jobs]
    outcomes.sort(key=lambda t: t[0])

    bias = np.full((len(values), 6), np.nan)
    std = np.full((len(values), 6), np.nan)
    solved = np.zeros(len(values), dtype=int)
    estimates = []
    failures = []
    for (i, est, err), v in zip(outcomes, values):
        ref = spec.offset_pose(scene.base_pose, float(v)).as_vector()
        if est is None or len(est) == 0:
            failures.append((float(v), err or "no scan solved"))
            estimates.append(np.zeros((0, 6)))
            continue
        errs = est - ref
        bias[i] = errs.mean(axis=0)
        std[i] = errs.std(axis=0)
        solved[i] = len(est)
        estimates.append(est)
    if not np.any(solved > 0):
        raise PipelineError("sweep", f"every point failed: {failures}")
    # points that failed entirely keep NaN rows; drop them from the stats
    ok = solved > 0
    return SweepStats(
        label=label or "PD",
        values=values[ok],
        bias=bias[ok],
        std=std[ok],
        solved=solved[ok],
        estimates=[e for e, k in zip(estimates, ok) if k],
        failures=failures,
    )


def run_single(scene: Scene, n_scans: int = 50, seed: int | None = None) -> BatchResult:
    """One full calibration at the scene's base pose on simulated frames."""
    return run_point(scene, scene.base_pose, n_scans, scene.seed if seed is None else seed, 0)


# ------------------------------------------------------------------ reporting

def _fmt_cell(x: float) -> str:
    return f"{x:.4f}"


def sweep_csvs(scene: Scene, spec: SweepSpec, stats: SweepStats) -> dict:
    """All CSV artifacts of a sweep, keyed by file stem."""
    est_lines = [
        "point_value,scan,err_yaw_deg,err_tilt_deg,err_roll_deg,err_dx_mm,err_dy_mm,err_dz_mm"
    ]
    for v, est in zip(stats.values, stats.estimates):
        ref = spec.offset_pose(scene.base_pose, float(v)).as_vector()
        for k, row in enumerate(est):
            e = row - ref
            est_lines.append(
                f"{v:g},{k},"
                + ",".join(_fmt_cell(x) for x in np.concatenate([e[:3] / DEG, e[3:] / MM]))
            )
    point_lines = [",".join(POINT_FIELDS)]
    for i, v in enumerate(stats.values):
        b = np.concatenate([stats.bias[i, :3] / DEG, stats.bias[i, 3:] / MM])
        s = np.concatenate([stats.std[i, :3] / DEG, stats.std[i, 3:] / MM])
        point_lines.append(
            f"{v:g},{stats.solved[i]},"
            + ",".join(_fmt_cell(x) for x in b)
            + ","
            + ",".join(_fmt_cell(x) for x in s)
        )
    summary_lines = ["label,metric," + ",".join(AXIS_NAMES)]
    summary_lines.append(
        f"{stats.label},accuracy," + ",".join(_fmt_cell(x) for x in stats.per_axis_accuracy)
    )
    summary_lines.append(
        f"{stats.label},precision," + ",".join(_fmt_cell(x) for x in stats.per_axis_precision)
    )
    summary_lines.append("# " + STATS_FOOTER)
    for value, message in stats.failures:
        summary_lines.append(f"# FAILED point {value:g}: {message}")
    return {
        "estimates": "\n".join(est_lines) + "\n",
        "points": "\n".join(point_lines) + "\n",
        "summary": "\n".join(summary_lines) + "\n",
    }


def report(stats_list) -> str:
    """Human-readable summary table (tilt/roll/yaw/dX per PD arrangement).

    Raises on empty input: an empty sweep is an error, never a blank table.
    """
    if not stats_list:
        raise ValueError("no sweep statistics to report")
    lw = max(14, max(len(s.label) for s in stats_list) + 2)
    header = f"{'Estimation':<{lw + 10}}{'Tilt (deg)':>12}{'Roll (deg)':>12}{'Yaw (deg)':>12}{'dX (mm)':>10}"
    lines = [header, "-" * len(header)]
    for stats in stats_list:
        acc = stats.per_axis_accuracy
        pre = stats.per_axis_precision
        lines.append(
            f"{stats.label:<{lw}}{'Accuracy':<10}{acc[1]:>12.3f}{acc[2]:>12.3f}{acc[0]:>12.3f}{acc[3]:>10.2f}"
        )
        lines.append(
            f"{'':<{lw}}{'Precision':<10}{pre[1]:>12.3f}{pre[2]:>12.3f}{pre[0]:>12.3f}{pre[3]:>10.2f}"
        )
    lines.append("")
    lines.append(STATS_FOOTER)
    return "\n".join(lines) + "\n"


def write_sweep_outputs(out_dir, scene: Scene, spec: SweepSpec, stats: SweepStats) -> list:
    """Write the sweep CSV artifacts; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = f"{spec.parameter}_{stats.label.lower().replace(' ', '_')}"
    paths = []
    for stem, text in sweep_csvs(scene, spec, stats).items():
        p = out / f"sweep_{tag}_{stem}.csv"
        p.write_text(text)
        paths.append(p)
    return paths
