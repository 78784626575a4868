"""Sweep bench: repeat the full pipeline over a grid of reference poses.

Mirrors the physical test rig: a motor stage steps the sensor along one
axis of its pose (any of ``SWEEP_PARAMETERS``), 50 revolutions are recorded
per step, and the estimates are compared against the commanded reference.
A sweep is labelled by its board's PD arrangement (``arrangement_label``).
Accuracy is the mean over reference points of |mean error|; precision is
the mean per-point standard deviation over the repeated scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bench import Scene
from .geometry import DEG, MM, Pose6DOF
from .pipeline import BatchResult, PipelineError, calibrate_frames
# simulate_scan stays importable here: perfbench/workloads.py wraps
# harness.simulate_scan by name when it installs its tracing layers
from .scene import SimulationError, simulate_scan, simulate_scans  # noqa: F401

AXIS_NAMES = ("yaw_deg", "tilt_deg", "roll_deg", "dx_mm", "dy_mm", "dz_mm")
# the axis a sweep moves, one per AXIS_NAMES entry and in its order; grid
# values are in that axis's unit
SWEEP_PARAMETERS = ("yaw", "tilt", "roll", "x_position", "y_position", "z_position")
# the columns of a sweep's points table and its CSV, one row per reference point
POINT_FIELDS = ("point_value", "solved", *(f"bias_{n}" for n in AXIS_NAMES), *(f"std_{n}" for n in AXIS_NAMES))
BIAS = slice(2, 8)   # the bias_* columns of a points table
STD = slice(8, 14)   # the std_* columns
# the least value of each POINT_FIELDS column: a point has a solved scan, and no std is negative
POINT_FLOORS = (-np.inf, 1, *(-np.inf,) * 6, *(0.0,) * 6)
TO_DEG_MM = np.repeat([DEG, MM], 3)  # divides a pose vector or error (rad / m) into deg / mm
STATS_FOOTER = (
    "accuracy = mean over reference points of |mean error|; "
    "precision = mean over reference points of the per-point std over scans"
)


@dataclass(frozen=True)
class SweepSpec:
    """One bench sweep: which pose axis moves, over what grid, how many scans."""

    parameter: str = "yaw"         # one of SWEEP_PARAMETERS; deg for angles, mm for positions
    start: float = -3.0
    stop: float = 3.0
    step: float = 0.5
    scans_per_point: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.parameter not in SWEEP_PARAMETERS:
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
        """The grid; a value that is zero up to rounding (within 1e-9 steps) is exactly +0.0."""
        n = int(round((self.stop - self.start) / self.step)) + 1
        values = self.start + self.step * np.arange(n)
        return np.where(np.abs(values) <= 1e-9 * self.step, 0.0, values)

    def offset_pose(self, base: Pose6DOF, value: float) -> Pose6DOF:
        """Reference pose for one grid value (the stage moves the sensor)."""
        v = base.as_vector()
        k = SWEEP_PARAMETERS.index(self.parameter)
        v[k] += value * TO_DEG_MM[k]
        return Pose6DOF(*v.tolist())


@dataclass
class SweepStats:
    """Per-point and per-axis error statistics of one sweep.

    ``points`` is the points table: one row per reference point with a
    solved scan, one column per ``POINT_FIELDS`` entry, angles in deg and
    displacements in mm, as the points CSV holds it. ``estimates`` holds
    each row's (n_scans, 6) raw pose estimates in rad / m; a table read
    back from a points CSV has none.
    """

    label: str                    # e.g. "Horizontal PD", see arrangement_label
    points: np.ndarray            # (P, 14) points table, deg / mm
    estimates: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (point value, stage/message) tuples

    def __post_init__(self):
        faults = point_faults(self.points)
        if faults.any():
            row, column = divmod(int(np.argmax(faults)), len(POINT_FIELDS))
            raise ValueError(f"points row {row}: {POINT_FIELDS[column]} {float(self.points[row, column])!r} is not "
                             f"a finite number of at least {POINT_FLOORS[column]}")

    @property
    def per_axis_accuracy(self) -> np.ndarray:
        """(6,) mean |bias| per axis, in deg / mm."""
        return np.abs(self.points[:, BIAS]).mean(axis=0)

    @property
    def per_axis_precision(self) -> np.ndarray:
        """(6,) mean per-point std per axis, in deg / mm."""
        return self.points[:, STD].mean(axis=0)


def point_faults(points) -> np.ndarray:
    """The point rules: true where a value of a points table (or row) is not
    finite or lies below its column's ``POINT_FLOORS`` entry."""
    return ~(np.isfinite(points) & (points >= POINT_FLOORS))


def arrangement_label(board) -> str:
    """The name of a board's PD arrangement: "Horizontal PD" or "Vertical PD"
    when every module has that orientation, else "Mixed PD"."""
    orientations = {pd.orientation for pd in board.pd_modules}
    return f"{orientations.pop().capitalize()} PD" if len(orientations) == 1 else "Mixed PD"


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


def run_sweep(scene: Scene, spec: SweepSpec, workers: int = 1) -> SweepStats:
    """Run the full pipeline over every sweep point and collect statistics,
    labelled by the scene's PD arrangement.

    Points are independent; with ``workers > 1`` they run in a process pool
    of at most one process per point.
    Results are keyed by point index, so the output is identical either way.
    Pipeline failures at a point are recorded and the sweep continues.
    """
    values = spec.values
    jobs = [(scene, spec, i, float(v)) for i, v in enumerate(values)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a pool may start all its workers at its first task: no more than one per point
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            outcomes = list(pool.map(_sweep_worker, jobs))
    else:
        outcomes = [_sweep_worker(j) for j in jobs]
    outcomes.sort(key=lambda t: t[0])

    rows, estimates, failures = [], [], []
    for (_, est, err), v in zip(outcomes, values):
        if est is None or len(est) == 0:
            failures.append((float(v), err or "no scan solved"))
            continue
        errs = est - spec.offset_pose(scene.base_pose, float(v)).as_vector()
        rows.append([v, len(est), *(errs.mean(axis=0) / TO_DEG_MM), *(errs.std(axis=0) / TO_DEG_MM)])
        estimates.append(est)
    if not rows:
        raise PipelineError("sweep", f"every point failed: {failures}")
    return SweepStats(arrangement_label(scene.board), np.array(rows), estimates, failures)


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
    for v, est in zip(stats.points[:, 0], stats.estimates):
        errs = (est - spec.offset_pose(scene.base_pose, float(v)).as_vector()) / TO_DEG_MM
        est_lines.extend(f"{v:g},{k}," + ",".join(_fmt_cell(x) for x in e) for k, e in enumerate(errs))
    point_lines = [",".join(POINT_FIELDS)]
    point_lines.extend(
        f"{row[0]:g},{int(row[1])}," + ",".join(_fmt_cell(x) for x in row[BIAS.start:]) for row in stats.points
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


def sweep_stem(spec: SweepSpec, stats: SweepStats) -> str:
    """The start of the names of a sweep's output files, from its axis and
    its arrangement label: e.g. ``sweep_yaw_horizontal_pd``."""
    return f"sweep_{spec.parameter}_{stats.label.lower().replace(' ', '_')}"


def write_sweep_outputs(out_dir, scene: Scene, spec: SweepSpec, stats: SweepStats) -> list:
    """Write the sweep CSV artifacts; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = sweep_stem(spec, stats)
    paths = []
    for kind, text in sweep_csvs(scene, spec, stats).items():
        p = out / f"{stem}_{kind}.csv"
        p.write_text(text)
        paths.append(p)
    return paths
