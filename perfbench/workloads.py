"""The benchmark's workloads, their correctness gates and the layer counters.

Each workload runs in whole rounds over a fixed set of inputs made from the
workload seed, so every round does the same work and per-op counts repeat
exactly whatever the run length. The two workloads split the program, so a
change to the calibration chain should move only ``calibrate_file``, a change
to the simulator only ``simulate_file``, and a change to the shared frame
types (``ScanFrame``, ``PolarBeam``) both:

* ``calibrate_file``: the ``pdcalib calibrate --frames`` path. One op reads
  one 50-scan frame file of the mixed PD arrangement and calibrates it. No
  simulation runs inside an op.
* ``simulate_file``: the ``pdcalib simulate`` path. One op simulates 50
  scans of the horizontal arrangement (the most PD events) and writes the
  frame file. No calibration runs inside an op.

The program is timed from outside: the tracer wraps module attributes, and
nothing inside ``src/pdcalib`` changes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference
from pdcalib import beam_center, correspondence, geometry, harness, io, pipeline, preprocess, scene, solver
from pdcalib.bench import make_bench_scene
from pdcalib.pipeline import PipelineError
from pdcalib.scene import SimulationError

SRC = Path(__file__).resolve().parent.parent / "src"
DEG = math.pi / 180.0
MM = 1e-3

# the acceptance precision envelope: a joint pose farther than this from
# the truth fails its op
ENVELOPE_ANGLE_DEG = 0.15
ENVELOPE_DX_MM = 3.0

LAYER_FUNCS = (
    "scene.simulate_scan",
    "scene.ScanFrame.beam_arrays",
    "afe.currents_to_record",
    "io.read_frames",
    "io.write_frames",
    "preprocess.segment_target",
    "preprocess.fit_plane",
    "preprocess.refine_plane_ranges",
    "preprocess.range_to_plane",
    "beam_center.beams_on_pd",
    "beam_center.augment_samples",
    "beam_center.fit_gaussian_iterative",
    "beam_center.select_key_beam",
    "correspondence.find_pd_beam",
    "correspondence.build_azimuth_center_model",
    "correspondence.make_correspondences",
    "solver.solve",
    "pipeline.extract_frame_features",
    "pipeline.calibrate_frames",
    "harness.simulate_point",
)


@dataclass(frozen=True)
class Sizes:
    scans: int = 50                     # scans per frame file
    files: int = 4                      # distinct inputs of calibrate_file / simulate_file
    setup_reps: int = 7                 # fresh interpreters timed for setup_s


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def input_seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def pose_miss(estimate, truth) -> str | None:
    """Why a pose lies outside the acceptance envelope, or None if inside."""
    err = np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float)
    angle = float(np.max(np.abs(err[:3]))) / DEG
    if not angle <= ENVELOPE_ANGLE_DEG:
        return f"angle error {angle:.3f} deg exceeds {ENVELOPE_ANGLE_DEG} deg"
    dx = abs(float(err[3])) / MM
    if not dx <= ENVELOPE_DX_MM:
        return f"dX error {dx:.2f} mm exceeds {ENVELOPE_DX_MM} mm"
    return None


class Ops:
    """Per-op wall times and failures of one run.

    With ``gauged`` set, the reference kernel is timed before the first op
    and after every op, and each op's wall time is also kept scaled
    to the reference host speed by the mean of the kernel times on either
    side of it.
    """

    def __init__(self, tracer, gauged: bool = False):
        self.tracer = tracer
        self.seconds = {False: [], True: []}  # keyed by whether the op was traced
        self.scaled: list = []
        self.kernel_s: list = []
        self.gauged = gauged
        self.failures: list = []
        self.attempted = 0

    def run(self, fn, *args, **kwargs):
        t = self.tracer
        if self.gauged and not self.kernel_s:
            self.kernel_s.append(reference.kernel_seconds())
        t.op = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            with t.region("bench.op"):
                return fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - start
            self.seconds[t.enabled].append(wall)
            t.op = -1
            if self.gauged:
                self.kernel_s.append(reference.kernel_seconds())
                self.scaled.append(reference.scaled(wall, (self.kernel_s[-2] + self.kernel_s[-1]) / 2))

    def fail(self, reason: str, ops: int = 1):
        self.failures.extend([reason] * ops)


def _solved_poses(result) -> np.ndarray:
    """(n, 6) per-scan pose vectors of the scans that solved."""
    return np.array(
        [rep.beta.as_vector() for _, rep, _ in result.scan_reports if rep is not None]
    ).reshape(-1, 6)


def _accuracy(joints, truth, yaw_stds) -> dict:
    """Mean |joint - truth| on yaw and dX, and the mean per-scan yaw spread."""
    err = np.abs(np.array(joints) - truth) if joints else np.zeros((1, 6))
    return {
        "yaw_acc_deg": float(err[:, 0].mean()) / DEG,
        "dx_acc_mm": float(err[:, 3].mean()) / MM,
        "yaw_precision_deg": float(np.mean(yaw_stds)) if yaw_stds else 0.0,
    }


class Workload:
    orientation = "horizontal"

    def __init__(self, sizes: Sizes):
        self.scans = sizes.scans
        self.scene = make_bench_scene(self.orientation)
        self.truth = self.scene.base_pose.as_vector()
        self.solved = 0    # scans with a per-scan solve
        self.checked = 0   # scans whose solve was attempted

    def verify(self, ops: Ops):
        """Checks that run after the timed rounds."""


class CalibrateFile(Workload):
    orientation = "all"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        super().__init__(sizes)
        # the inputs come from the CLI a user runs, in one child process
        argvs = []
        self.paths = []
        for k, s in enumerate(input_seeds(seed, sizes.files)):
            out = workdir / f"input{k}"
            argvs.append(["simulate", "--pd-orientation", self.orientation,
                          "--scans", str(sizes.scans), "--seed", str(s), "--out", str(out)])
            self.paths.append(out / "frames.csv")
        subprocess.run(
            [sys.executable, "-c",
             "import json, sys\nfrom pdcalib.cli import main\n"
             "sys.exit(max(main(a) for a in json.loads(sys.argv[1])))",
             json.dumps(argvs)],
            env=child_env(), check=True, stdout=subprocess.DEVNULL,
        )
        self.joint = [None] * len(self.paths)   # first-round joint pose per file
        self.yaw_std = [None] * len(self.paths)

    def _calibrate(self, path):
        return pipeline.calibrate_frames(io.read_frames(path), self.scene)

    def round(self, ops: Ops):
        for k, path in enumerate(self.paths):
            self.checked += self.scans
            try:
                result = ops.run(self._calibrate, path)
            except PipelineError as exc:
                ops.fail(f"input {k}: {exc}")
                continue
            poses = _solved_poses(result)
            self.solved += len(poses)
            joint = result.joint.beta.as_vector()
            if self.joint[k] is None:
                self.joint[k] = joint
                self.yaw_std[k] = float(np.std(poses[:, 0])) / DEG
            elif not np.array_equal(joint, self.joint[k]):
                ops.fail(f"input {k}: joint pose differs between rounds")
                continue
            miss = pose_miss(joint, self.truth)
            if miss:
                ops.fail(f"input {k}: {miss}")

    def info(self) -> dict:
        done = [k for k, j in enumerate(self.joint) if j is not None]
        return _accuracy([self.joint[k] for k in done], self.truth, [self.yaw_std[k] for k in done])


def _frame_shape(frames) -> list:
    return [(len(f.beams), sum(r.n_events for r in f.pd_records)) for f in frames]


class SimulateFile(Workload):
    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        super().__init__(sizes)
        self.seeds = input_seeds(seed, sizes.files)
        self.paths = [workdir / f"frames{k}.csv" for k in range(sizes.files)]
        self.digest = [None] * sizes.files   # first-round file SHA-256 per input
        self.shape = [None] * sizes.files    # first-round (beams, events) per frame
        self.ops_of = [0] * sizes.files
        self.joint = []
        self.yaw_std = []

    def _simulate(self, k):
        frames = harness.simulate_point(
            self.scene, self.scene.base_pose, self.scans, self.seeds[k], with_truth=False
        )
        io.write_frames(frames, self.paths[k])
        return frames

    def round(self, ops: Ops):
        for k, path in enumerate(self.paths):
            self.ops_of[k] += 1
            try:
                frames = ops.run(self._simulate, k)
            except SimulationError as exc:
                ops.fail(f"input {k}: {exc}")
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.digest[k] is None:
                self.digest[k] = digest
                self.shape[k] = _frame_shape(frames)
            elif digest != self.digest[k]:
                ops.fail(f"input {k}: frame file differs between rounds")

    def verify(self, ops: Ops):
        """Each written file must read back whole and calibrate to the truth;
        a file that does not fails every op that wrote it."""
        for k, path in enumerate(self.paths):
            if self.digest[k] is None:
                continue
            self.checked += self.scans
            frames = io.read_frames(path)
            if _frame_shape(frames) != self.shape[k]:
                ops.fail(f"input {k}: file does not read back as written", self.ops_of[k])
                continue
            try:
                result = pipeline.calibrate_frames(frames, self.scene)
            except PipelineError as exc:
                ops.fail(f"input {k}: {exc}", self.ops_of[k])
                continue
            poses = _solved_poses(result)
            self.solved += len(poses)
            self.joint.append(result.joint.beta.as_vector())
            self.yaw_std.append(float(np.std(poses[:, 0])) / DEG)
            miss = pose_miss(self.joint[-1], self.truth)
            if miss:
                ops.fail(f"input {k}: {miss}", self.ops_of[k])

    def info(self) -> dict:
        return {**_accuracy(self.joint, self.truth, self.yaw_std), "frame_file_sha256": self.digest}


WORKLOADS = {
    "calibrate_file": CalibrateFile,
    "simulate_file": SimulateFile,
}


# ------------------------------------------------------------------ tracing

def _count_scan(counts, frame, args):
    counts["scene.scans"] += 1
    counts["scene.beams"] += len(frame.beams)


def _count_events(counts, record, args):
    counts["afe.events"] += record.n_events


def _count_read(counts, frames, args):
    counts["io.bytes"] += os.path.getsize(args[0])


def _count_written(counts, result, args):
    counts["io.bytes"] += os.path.getsize(args[1])


def _count_inliers(counts, model, args):
    counts["ransac.inliers"] += int(model.inlier_mask.sum())
    counts["ransac.pairs"] += int(model.inlier_mask.size)


def _count_solve(counts, report, args):
    counts["solver.iterations"] += report.iterations
    counts["solver.converged"] += bool(report.converged)


def _count_batch(counts, result, args):
    counts["pipeline.frames"] += len(args[0])
    for ft in result.features:
        counts["detect.hits"] += len(ft.key_beams)
        counts["detect.looked"] += len(ft.key_beams) + len(ft.misses)


def install_layers(tracer):
    """Wrap every layer function the trace reports, where its callers look it up."""
    t = tracer
    t.patch(harness, "simulate_scan", "scene.simulate_scan", _count_scan)
    t.patch(scene.ScanFrame, "beam_arrays", "scene.ScanFrame.beam_arrays")
    t.patch(scene, "currents_to_record", "afe.currents_to_record", _count_events)
    t.patch(io, "read_frames", "io.read_frames", _count_read)
    t.patch(io, "write_frames", "io.write_frames", _count_written)
    for f in ("segment_target", "fit_plane", "refine_plane_ranges", "range_to_plane"):
        t.patch(preprocess, f, f"preprocess.{f}")
    for f in ("beams_on_pd", "augment_samples", "fit_gaussian_iterative", "select_key_beam"):
        t.patch(beam_center, f, f"beam_center.{f}")
    t.patch(correspondence, "find_pd_beam", "correspondence.find_pd_beam")
    t.patch(correspondence, "build_azimuth_center_model",
            "correspondence.build_azimuth_center_model", _count_inliers)
    t.patch(correspondence, "make_correspondences", "correspondence.make_correspondences")
    t.patch(solver, "solve", "solver.solve", _count_solve)
    t.patch(pipeline, "extract_frame_features", "pipeline.extract_frame_features")
    t.patch(pipeline, "calibrate_frames", "pipeline.calibrate_frames", _count_batch)
    t.patch(harness, "simulate_point", "harness.simulate_point")
    t.count(geometry.PolarBeam, "__post_init__", "geometry.PolarBeam")


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, ops: Ops, scans_per_op: int, info: dict) -> dict:
    """Per-layer metrics of the traced rounds, normalised per op."""
    n = len(ops.seconds[True])
    times = tracer.layer_times()
    c = tracer.counts
    out = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    def calls(name):
        return times.get(name, (0,))[0]

    def ok(name):
        return calls(name) - c[name + ".errors"]

    for f in LAYER_FUNCS:
        k, total, self_s = times.get(f, (0, 0.0, 0.0))
        put(f"{f}.calls", ratio(k, n), "count/op")
        put(f"{f}.total_s", ratio(total, n), "s/op")
        put(f"{f}.self_s", ratio(self_s, n), "s/op")
    bench_self = sum(times.get(k, (0, 0.0, 0.0))[2] for k in ("bench.round", "bench.op"))
    put("bench.unwrapped_self_s", ratio(bench_self, n), "s/op")
    put("bench.traced_op_s", ratio(tracer.root_seconds(), n), "s/op")
    put("trace_overhead_frac",
        ratio(sum(ops.seconds[True]), sum(ops.seconds[False])) - 1.0, "ratio")
    put("preprocess.segment_calls_per_frame",
        ratio(calls("preprocess.segment_target"), c["pipeline.frames"]), "count/frame")
    put("geometry.PolarBeam.constructed_per_scan",
        ratio(c["geometry.PolarBeam"], n * scans_per_op), "count/scan")
    put("beam_center.fit_ok_frac",
        ratio(ok("beam_center.fit_gaussian_iterative"), calls("beam_center.fit_gaussian_iterative")),
        "ratio")
    put("beam_center.fits_per_key_beam",
        ratio(calls("beam_center.fit_gaussian_iterative"), ok("beam_center.select_key_beam")),
        "count")
    put("correspondence.detect_hit_frac", ratio(c["detect.hits"], c["detect.looked"]), "ratio")
    put("correspondence.ransac_inlier_frac",
        ratio(c["ransac.inliers"], c["ransac.pairs"]), "ratio")
    put("solver.iterations_mean", ratio(c["solver.iterations"], ok("solver.solve")), "count")
    put("solver.converged_frac", ratio(c["solver.converged"], ok("solver.solve")), "ratio")
    put("scene.beams_per_scan", ratio(c["scene.beams"], c["scene.scans"]), "count/scan")
    put("afe.events_per_scan", ratio(c["afe.events"], c["scene.scans"]), "count/scan")
    put("io.bytes", ratio(c["io.bytes"], n), "B/op")
    put("yaw_acc_deg", info["yaw_acc_deg"], "deg")
    put("dx_acc_mm", info["dx_acc_mm"], "mm")
    return out
