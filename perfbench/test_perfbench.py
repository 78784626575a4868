"""Tests of the benchmark itself, at a tiny size.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import math

import pytest

import reference
import run
import workloads
from pdcalib import pipeline
from pdcalib.bench import make_bench_scene
from pdcalib.geometry import Pose6DOF

TINY = workloads.Sizes(scans=10, files=2, setup_reps=1)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DEG = math.pi / 180.0


def tiny_run(name, trace, workdir, seed=3, seconds=0.0):
    workdir.mkdir(exist_ok=True)
    result, _ = run.run_workload(name, seed, seconds, trace, TINY, workdir)
    return result


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_reported_with_its_unit(name, trace, tmp_path):
    result = tiny_run(name, trace, tmp_path)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        accounted = m["bench.unwrapped_self_s"] + sum(
            m[f"{f}.self_s"] for f in workloads.LAYER_FUNCS
        )
        assert accounted == pytest.approx(m["bench.traced_op_s"], rel=1e-9)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_gate_rejects_a_perturbed_pose():
    truth = make_bench_scene("all").base_pose.as_vector()
    assert workloads.pose_miss(truth, truth) is None
    for axis, delta in ((0, 0.2 * DEG), (1, -0.2 * DEG), (2, 0.2 * DEG), (3, 4e-3)):
        bad = truth.copy()
        bad[axis] += delta
        assert workloads.pose_miss(bad, truth) is not None
    inside = truth.copy()
    inside[[0, 3]] += (0.1 * DEG, 2e-3)
    assert workloads.pose_miss(inside, truth) is None


def test_perturbed_pose_counts_as_failed_op_without_aborting(tmp_path, monkeypatch):
    calibrate = pipeline.calibrate_frames

    def off_by_a_fifth_degree(*args, **kwargs):
        result = calibrate(*args, **kwargs)
        b = result.joint.beta
        beta = Pose6DOF(b.phi + 0.2 * DEG, b.theta, b.psi, b.dx, b.dy, b.dz)
        return dataclasses.replace(result, joint=dataclasses.replace(result.joint, beta=beta))

    monkeypatch.setattr(pipeline, "calibrate_frames", off_by_a_fifth_degree)
    result = tiny_run("calibrate_file", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == TINY.files
    assert result["metrics"]["op_ok_frac"]["value"] == 0.0


COUNTS = ("geometry.PolarBeam.constructed_per_scan", "preprocess.segment_calls_per_frame",
          "solver.iterations_mean")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name, tmp_path):
    # the second run is longer, so it traces more rounds than the first
    a = tiny_run(name, True, tmp_path / "a")["metrics"]
    b = tiny_run(name, True, tmp_path / "b", seconds=3.0)["metrics"]
    keys = [k for k in a if k.endswith(".calls")] + list(COUNTS)
    assert {k: a[k]["value"] for k in keys} == {k: b[k]["value"] for k in keys}


def test_scaled_times_follow_the_reference_kernel(tmp_path):
    workdir = tmp_path / "w"
    workdir.mkdir()
    _, report = run.run_workload("simulate_file", 3, 0.0, False, TINY, workdir)
    walls, kernels, scaled = report["op_seconds"], report["kernel_seconds"], report["op_scaled_seconds"]
    assert len(kernels) == len(walls) + 1 == len(scaled) + 1
    for i, wall in enumerate(walls):
        kernel_s = (kernels[i] + kernels[i + 1]) / 2
        assert scaled[i] == pytest.approx(wall * reference.NOMINAL_S / kernel_s, rel=1e-12)
    # a host twice as slow doubles the wall and the kernel time alike
    assert reference.scaled(2.0, 2 * reference.NOMINAL_S) == pytest.approx(1.0)


def test_scans_per_s_is_the_median_round_throughput():
    # three rounds of two ops, of 10 scans each: 20 scans in 4, 2 and 1 s
    assert run.scans_per_s([1.0, 3.0, 1.0, 1.0, 0.5, 0.5], [2, 4, 6], 10) == 10.0
