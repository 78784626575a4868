import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdcalib import cli, harness, io
from pdcalib.bench import make_bench_scene
from pdcalib.harness import (
    SweepSpec,
    SweepStats,
    report,
    run_single,
    run_sweep,
    sweep_csvs,
    write_sweep_outputs,
)
from pdcalib.io import sweep_from_dict, sweep_to_dict

DEG = math.pi / 180.0

MINI_SWEEP = SweepSpec(parameter="yaw", start=-1.0, stop=1.0, step=1.0, scans_per_point=8, seed=5)

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def mini_stats(horizontal_scene):
    return run_sweep(horizontal_scene, MINI_SWEEP, label="Horizontal PD")


class TestSweepSpec:
    def test_values_grid(self):
        spec = SweepSpec(parameter="x_position", start=-30, stop=30, step=5)
        np.testing.assert_allclose(spec.values, np.arange(-30, 31, 5))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(step=0.0)
        with pytest.raises(ValueError):
            SweepSpec(start=0, stop=1, step=0.3)
        with pytest.raises(ValueError):
            SweepSpec(scans_per_point=0)
        with pytest.raises(ValueError):
            SweepSpec(parameter="roll")

    def test_offset_pose_units(self, horizontal_scene):
        base = horizontal_scene.base_pose
        yaw = SweepSpec(parameter="yaw").offset_pose(base, 2.0)
        assert yaw.phi - base.phi == pytest.approx(2.0 * DEG)
        x = SweepSpec(parameter="x_position", start=-30, stop=30, step=5).offset_pose(base, 10.0)
        assert x.dx - base.dx == pytest.approx(0.010)

    def test_dict_round_trip(self):
        spec = SweepSpec(parameter="x_position", start=-30, stop=30, step=5, scans_per_point=7, seed=2)
        assert sweep_from_dict(sweep_to_dict(spec)) == spec

    def test_absent_keys_take_the_spec_defaults(self):
        assert sweep_from_dict({}) == SweepSpec()

    def test_grid_bounds_read_as_floats(self):
        spec = sweep_from_dict({"start": -1, "stop": 1, "step": 1, "scans_per_point": 5})
        assert [type(v) for v in (spec.start, spec.stop, spec.step, spec.scans_per_point)] == [float] * 3 + [int]


class TestRunSweep:
    def test_stats_shape_and_tracking(self, mini_stats):
        assert len(mini_stats.values) == 3
        assert np.all(mini_stats.solved == MINI_SWEEP.scans_per_point)
        # reference-tracking monotonicity: estimated yaw increases with the
        # commanded yaw
        est_yaw = np.array([e[:, 0].mean() for e in mini_stats.estimates])
        assert np.all(np.diff(est_yaw) > 0)

    def test_determinism_byte_identical(self, horizontal_scene, mini_stats, tmp_path):
        again = run_sweep(horizontal_scene, MINI_SWEEP, label="Horizontal PD")
        a = sweep_csvs(horizontal_scene, MINI_SWEEP, mini_stats)
        b = sweep_csvs(horizontal_scene, MINI_SWEEP, again)
        assert a == b

    def test_worker_pool_matches_serial(self, horizontal_scene, mini_stats):
        par = run_sweep(horizontal_scene, MINI_SWEEP, label="Horizontal PD", workers=2)
        np.testing.assert_array_equal(par.bias, mini_stats.bias)
        np.testing.assert_array_equal(par.std, mini_stats.std)

    def test_points_simulate_without_truth(self, horizontal_scene, monkeypatch):
        # nothing in the pipeline reads SimTruth, so a sweep point builds none
        seen = []
        calibrate = harness.calibrate_frames

        def spy(frames, *args, **kwargs):
            seen.extend(frames)
            return calibrate(frames, *args, **kwargs)

        monkeypatch.setattr(harness, "calibrate_frames", spy)
        run_single(horizontal_scene, n_scans=12)
        assert len(seen) == 12 and all(f.truth is None for f in seen)

    def test_partial_failure_markers(self, horizontal_scene):
        # swinging the sensor 70 deg takes the board out of view at the far
        # points: those fail, the surviving point still reports, and the
        # failures are marked
        spec = SweepSpec(parameter="yaw", start=0.0, stop=140.0, step=70.0, scans_per_point=6, seed=3)
        stats = run_sweep(horizontal_scene, spec, label="Horizontal PD")
        assert len(stats.failures) == 2
        assert len(stats.values) == 1 and stats.values[0] == 0.0
        csvs = sweep_csvs(horizontal_scene, spec, stats)
        assert csvs["summary"].count("# FAILED point") == 2

    def test_all_points_failing_raises(self, horizontal_scene):
        from pdcalib.pipeline import PipelineError

        spec = SweepSpec(parameter="yaw", start=70.0, stop=140.0, step=70.0, scans_per_point=6, seed=3)
        with pytest.raises(PipelineError):
            run_sweep(horizontal_scene, spec, label="Horizontal PD")

    def test_csv_artifacts(self, horizontal_scene, mini_stats, tmp_path):
        paths = write_sweep_outputs(tmp_path, horizontal_scene, MINI_SWEEP, mini_stats)
        names = {p.name for p in paths}
        assert names == {
            "sweep_yaw_horizontal_pd_estimates.csv",
            "sweep_yaw_horizontal_pd_points.csv",
            "sweep_yaw_horizontal_pd_summary.csv",
        }
        points = (tmp_path / "sweep_yaw_horizontal_pd_points.csv").read_text().splitlines()
        assert len(points) == 1 + 3  # header + one row per reference point
        est = (tmp_path / "sweep_yaw_horizontal_pd_estimates.csv").read_text().splitlines()
        assert len(est) == 1 + 3 * MINI_SWEEP.scans_per_point


class TestReport:
    def test_table_shape(self, mini_stats):
        table = report([mini_stats])
        lines = table.splitlines()
        assert "Tilt (deg)" in lines[0] and "dX (mm)" in lines[0]
        assert lines[2].startswith("Horizontal PD")
        assert "Accuracy" in lines[2] and "Precision" in lines[3]
        assert "accuracy = mean over reference points" in table

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([])

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            SweepStats(
                label="x",
                values=np.zeros(2),
                bias=np.zeros((2, 6)),
                std=-np.ones((2, 6)),
                solved=np.ones(2, dtype=int),
                estimates=[np.zeros((1, 6))] * 2,
                failures=[],
            )


class TestZeroNoiseSweep:
    def test_noiseless_pipeline_envelope(self):
        # With every noise source off, the pipeline is exact at the nominal
        # pose. At offset points it is NOT exact: the center fit's 0.1 V
        # anchor samples are model error that survives zero noise, and at
        # points where the key beams sit half a grid spacing off the array
        # middle it is worth up to ~0.06 deg / ~1.7 mm (measured over dense
        # zero-noise sweeps). The noisy runs do better: the azimuth jitter
        # dithers the spot cluster and the RANSAC model averages the bias
        # away. Exactness everywhere would require dropping the anchor
        # augmentation the estimator is built on.
        from pdcalib.scene import AfeConfig, LidarModel

        scene = make_bench_scene(
            "horizontal",
            lidar=LidarModel(range_noise_sigma=0.0, azimuth_jitter_sigma_deg=0.0),
            afe=AfeConfig(voltage_noise_sigma=0.0),
        )
        spec = SweepSpec(parameter="yaw", start=-1.5, stop=1.5, step=0.5, scans_per_point=6, seed=1)
        stats = run_sweep(scene, spec, label="Horizontal PD")
        base = np.nonzero(stats.values == 0.0)[0][0]
        assert np.max(np.abs(stats.bias[base, :3])) < 1e-3 * DEG
        assert np.max(np.abs(stats.bias[base, 3:])) < 1e-5
        assert np.max(np.abs(stats.bias[:, :3])) < 0.08 * DEG
        assert np.max(np.abs(stats.bias[:, 3:])) < 2.5e-3


class TestRunSingleGolden:
    def test_matches_committed_golden_report(self, horizontal_scene):
        result = run_single(horizontal_scene, n_scans=10, seed=123)
        text = io.solve_report_text(result.joint)
        golden_path = GOLDEN / "single_horizontal.txt"
        assert text == golden_path.read_text()

    @pytest.mark.parametrize("orientation, name", [("all", "mixed"), ("vertical", "vertical")])
    def test_calibrate_frames_matches_committed_goldens(self, tmp_path, orientation, name):
        sim, cal = tmp_path / "sim", tmp_path / "cal"
        common = ["--pd-orientation", orientation, "--seed", "7"]
        assert cli.main(["simulate", "--scans", "10", "--out", str(sim), *common]) == 0
        assert cli.main(["calibrate", "--frames", str(sim / "frames.csv"), "--out", str(cal), *common]) == 0
        for f in ("calibration.txt", "residuals.csv", "correspondences.csv"):
            assert (cal / f).read_text() == (GOLDEN / f"calibrate_frames_{name}_{f}").read_text(), f


class TestCli:
    def test_simulate_and_calibrate_round_trip(self, tmp_path):
        out = tmp_path / "sim"
        assert cli.main([
            "simulate", "--scans", "6", "--out", str(out), "--seed", "3"
        ]) == 0
        assert cli.main([
            "calibrate",
            "--frames", str(out / "frames.csv"),
            "--scene", str(out / "scene.json"),
            "--out", str(tmp_path / "cal"),
        ]) == 0
        assert (tmp_path / "cal" / "calibration.txt").exists()
        assert (tmp_path / "cal" / "residuals.csv").exists()
        assert (tmp_path / "cal" / "correspondences.csv").exists()

    def test_calibrate_frames_loads_no_scipy(self, tmp_path):
        # a fresh interpreter: the oracles have loaded scipy into this one
        assert cli.main(["simulate", "--scans", "6", "--out", str(tmp_path / "sim"), "--seed", "3"]) == 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        code = (
            "import sys\n"
            "from pdcalib.cli import main\n"
            "code = main(['calibrate', '--frames', 'sim/frames.csv', '--out', 'cal'])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
            check=True,
        )
        assert done.stdout.splitlines()[-1] == "0 []"

    def test_malformed_frames_exit_code_1(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("pdcalib-scanframe,v=1\nbeam,0,oops\n")
        assert cli.main(["calibrate", "--frames", str(bad)]) == 1

    def test_pd_row_disagreeing_with_its_record_exit_code_1(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scans", "2", "--out", str(out), "--seed", "3"]) == 0
        lines = (out / "frames.csv").read_text().splitlines()
        i = next(
            k for k in range(1, len(lines))
            if lines[k].startswith("pd,") and lines[k - 1].split(",")[:3] == lines[k].split(",")[:3]
        )
        parts = lines[i].split(",")
        lines[i] = ",".join(parts[:6] + ["0|5|10"] + parts[7:10])  # three sampled channels
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main([
            "calibrate", "--frames", str(bad), "--scene", str(out / "scene.json"),
            "--out", str(tmp_path / "cal"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"{bad}:{i + 1}: field 'sampled_channels'" in err
        assert "Traceback" not in err

    def test_pipeline_failure_exit_code_2(self, tmp_path, horizontal_scene):
        # a board with no PD modules cannot produce correspondences
        scene = make_bench_scene("horizontal")
        import dataclasses

        from pdcalib.scene import BoardModel

        bare = dataclasses.replace(scene, board=BoardModel(pd_modules=()))
        scene_path = tmp_path / "bare.json"
        io.save_scene(bare, scene_path)
        assert cli.main([
            "calibrate", "--scene", str(scene_path), "--scans", "5",
            "--out", str(tmp_path / "o"),
        ]) == 2

    def test_unsegmentable_frames_exit_code_2(self, tmp_path, capsys):
        # the first 40 lines hold a few dozen returns of scan 0: no
        # board-sized cluster
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scans", "2", "--out", str(out), "--seed", "3"]) == 0
        lines = (out / "frames.csv").read_text().splitlines()[:40]
        short = tmp_path / "short.csv"
        short.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main([
            "calibrate", "--frames", str(short), "--scene", str(out / "scene.json"),
            "--out", str(tmp_path / "cal"),
        ]) == 2
        err = capsys.readouterr().err
        assert "[segmentation] scan 0: no cluster matches" in err
        assert "Traceback" not in err

    def test_half_period_clock_offset_exit_code_2(self, tmp_path, capsys):
        # every PD time half a firing period late names no struck beam: no
        # PD gets a model, and the failure says why for each
        out = tmp_path / "sim"
        common = ["--pd-orientation", "all", "--seed", "7"]
        assert cli.main(["simulate", "--scans", "10", "--out", str(out), *common]) == 0
        late = make_bench_scene("all").lidar.firing_period / 2
        lines = (out / "frames.csv").read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("pd,"):
                parts = line.split(",")
                parts[4] = repr(float(parts[4]) + late)
                lines[i] = ",".join(parts)
        shifted = tmp_path / "late.csv"
        shifted.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["calibrate", "--frames", str(shifted), "--out", str(tmp_path / "cal"), *common]) == 2
        err = capsys.readouterr().err
        assert "no PD produced an azimuth-center model" in err
        assert "PD clock offset" in err
        assert "Traceback" not in err

    def test_sweep_and_report(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_to_dict(MINI_SWEEP)))
        out = tmp_path / "sweep"
        assert cli.main([
            "sweep", "--sweep", str(spec_path), "--out", str(out),
            "--pd-orientation", "horizontal",
        ]) == 0
        points = out / "sweep_yaw_horizontal_pd_points.csv"
        assert points.exists()
        assert cli.main(["report", str(points)]) == 0

    def test_bad_sweep_spec_exit_code_1(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"parameter": "nope"}')
        assert cli.main(["sweep", "--sweep", str(spec_path), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "command, option, document, names",
        [
            ("sweep", "--sweep", [1, 2], "bad sweep spec: expected a JSON object, got list"),
            ("sweep", "--sweep", {"start": [1]}, "'start' must be a number, got [1]"),
            ("sweep", "--sweep", {"scans_per_point": "50"}, "'scans_per_point' must be an integer"),
            ("calibrate", "--scene", {"board": []}, "'board' must be an object, got []"),
            ("calibrate", "--scene", [], "expected a JSON object, got list"),
            ("calibrate", "--scene", {"board": {}, "lidar": 3}, "'lidar' must be an object, got 3"),
            ("calibrate", "--scene", {"board": {"pd_modules": [{"pd_id": "a", "offset_m": [0, "x"]}]}},
             "'board.pd_modules[0].offset_m' must be a list of numbers"),
            ("calibrate", "--scene", {"board": {"width_m": True}}, "'board.width_m' must be a number, got True"),
            ("calibrate", "--scene", {}, "missing key 'board'"),
            ("calibrate", "--scene", {"board": {"pd_modules": [{"offset_m": [0, 0]}]}},
             "missing key 'board.pd_modules[0].pd_id'"),
        ],
        ids=["list sweep", "list start", "string scans", "list board", "list scene", "number lidar",
             "string offset", "bool width", "no board", "no pd id"],
    )
    def test_config_of_wrong_shape_exit_code_1(self, tmp_path, capsys, command, option, document, names):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        capsys.readouterr()
        assert cli.main([command, option, str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad ")
        assert names in err
        assert "Traceback" not in err
