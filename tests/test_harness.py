import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdcalib import cli, harness, io
from pdcalib.bench import make_bench_scene
from pdcalib.harness import (
    BIAS,
    STD,
    SWEEP_PARAMETERS,
    TO_DEG_MM,
    SweepSpec,
    SweepStats,
    arrangement_label,
    report,
    run_single,
    run_sweep,
    sweep_csvs,
    write_sweep_outputs,
)
from pdcalib.io import sweep_from_dict, sweep_to_dict

DEG = math.pi / 180.0

MINI_SWEEP = SweepSpec(parameter="yaw", start=-1.0, stop=1.0, step=1.0, scans_per_point=8, seed=5)
# an integer too large for a float
HUGE = "1" + "0" * 400

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def mini_stats(horizontal_scene):
    return run_sweep(horizontal_scene, MINI_SWEEP)


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
            SweepSpec(parameter="pitch")

    def test_offset_pose_units(self, horizontal_scene):
        base = horizontal_scene.base_pose
        yaw = SweepSpec(parameter="yaw").offset_pose(base, 2.0)
        assert yaw.phi - base.phi == pytest.approx(2.0 * DEG)
        x = SweepSpec(parameter="x_position", start=-30, stop=30, step=5).offset_pose(base, 10.0)
        assert x.dx - base.dx == pytest.approx(0.010)

    @pytest.mark.parametrize("k, parameter", list(enumerate(SWEEP_PARAMETERS)))
    def test_offset_pose_moves_one_axis(self, horizontal_scene, k, parameter):
        base = horizontal_scene.base_pose.as_vector()
        moved = SweepSpec(parameter=parameter).offset_pose(horizontal_scene.base_pose, 0.25).as_vector()
        assert moved[k] == base[k] + 0.25 * TO_DEG_MM[k]
        others = np.arange(6) != k
        np.testing.assert_array_equal(moved[others], base[others])

    @pytest.mark.parametrize(
        "orientation, label", [("horizontal", "Horizontal PD"), ("vertical", "Vertical PD"), ("all", "Mixed PD")]
    )
    def test_arrangement_label(self, orientation, label):
        assert arrangement_label(make_bench_scene(orientation).board) == label

    def test_grid_value_zero_up_to_rounding_is_zero(self):
        # -0.3 + 3 * 0.1 is 5.55e-17; a grid whose zero is exact keeps its bits
        tilt = SweepSpec(parameter="tilt", start=-0.3, stop=0.3, step=0.1).values
        assert tilt[3] == 0.0 and np.copysign(1.0, tilt[3]) == 1.0
        for start, step in ((-3.0, 0.5), (-30.0, 5.0)):
            grid = SweepSpec(start=start, stop=-start, step=step).values
            assert grid.tobytes() == (start + step * np.arange(13)).tobytes()

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
        assert mini_stats.points.shape == (3, 14)
        assert np.all(mini_stats.points[:, 1] == MINI_SWEEP.scans_per_point)
        # reference-tracking monotonicity: estimated yaw increases with the
        # commanded yaw
        est_yaw = np.array([e[:, 0].mean() for e in mini_stats.estimates])
        assert np.all(np.diff(est_yaw) > 0)

    def test_determinism_byte_identical(self, horizontal_scene, mini_stats, tmp_path):
        again = run_sweep(horizontal_scene, MINI_SWEEP)
        a = sweep_csvs(horizontal_scene, MINI_SWEEP, mini_stats)
        b = sweep_csvs(horizontal_scene, MINI_SWEEP, again)
        assert a == b

    def test_worker_pool_matches_serial(self, horizontal_scene, mini_stats):
        par = run_sweep(horizontal_scene, MINI_SWEEP, workers=2)
        np.testing.assert_array_equal(par.points, mini_stats.points)

    def test_worker_pool_capped_at_the_point_count(self, horizontal_scene, mini_stats, monkeypatch):
        # a stand-in pool that records its size and runs the points here,
        # so that no process is started
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        stats = run_sweep(horizontal_scene, MINI_SWEEP, workers=100_000)
        assert sizes == [3]
        np.testing.assert_array_equal(stats.points, mini_stats.points)

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
        stats = run_sweep(horizontal_scene, spec)
        assert len(stats.failures) == 2
        assert stats.points[:, 0].tolist() == [0.0]
        csvs = sweep_csvs(horizontal_scene, spec, stats)
        assert csvs["summary"].count("# FAILED point") == 2

    def test_all_points_failing_raises(self, horizontal_scene):
        from pdcalib.pipeline import PipelineError

        spec = SweepSpec(parameter="yaw", start=70.0, stop=140.0, step=70.0, scans_per_point=6, seed=3)
        with pytest.raises(PipelineError):
            run_sweep(horizontal_scene, spec)

    def test_tilt_sweep_of_the_mixed_scene(self, tmp_path):
        scene = make_bench_scene("all")
        spec = SweepSpec(parameter="tilt", start=-0.1, stop=0.1, step=0.1, scans_per_point=8, seed=5)
        stats = run_sweep(scene, spec)
        assert stats.label == "Mixed PD" and stats.points.shape == (3, 14)
        names = {p.name for p in write_sweep_outputs(tmp_path, scene, spec, stats)}
        assert names == {f"sweep_tilt_mixed_pd_{stem}.csv" for stem in ("estimates", "points", "summary")}

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

    def test_dz_sweep_table_shows_dz(self, horizontal_scene):
        # the table prints all six axes, so a dz sweep's own error is in it
        spec = SweepSpec(parameter="z_position", start=-2.0, stop=2.0, step=2.0, scans_per_point=8, seed=5)
        stats = run_sweep(horizontal_scene, spec)
        header, _, accuracy = report([stats]).splitlines()[:3]
        assert header.split()[-6:] == ["dX", "(mm)", "dY", "(mm)", "dZ", "(mm)"]
        summary = sweep_csvs(horizontal_scene, spec, stats)["summary"].splitlines()
        columns = summary[0].split(",")
        dz = summary[1].split(",")[columns.index("dz_mm")]
        assert accuracy.split()[-1] == f"{float(dz):.2f}"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            report([])

    def test_stats_validation(self):
        points = np.zeros((2, 14))
        points[:, 1] = 1
        points[:, STD] = -1.0
        message = "points row 0: std_yaw_deg -1.0 is not a finite number of at least 0.0"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepStats(label="x", points=points)


class TestZeroNoiseSweep:
    def test_noiseless_pipeline_envelope(self):
        # With every noise source off, the pipeline is exact at the nominal
        # pose. At offset points it is close but not exact: the four-sample
        # center fit is unbiased to 0.02 mm within 6 mm of the array middle,
        # and a dense zero-noise yaw sweep of -1.5..1.5 deg stays within
        # 0.0021 deg and 0.03 mm (the dz the horizontal PDs barely see).
        from pdcalib.scene import AfeConfig, LidarModel

        scene = make_bench_scene(
            "horizontal",
            lidar=LidarModel(range_noise_sigma=0.0, azimuth_jitter_sigma_deg=0.0),
            afe=AfeConfig(voltage_noise_sigma=0.0),
        )
        spec = SweepSpec(parameter="yaw", start=-1.5, stop=1.5, step=0.5, scans_per_point=6, seed=1)
        stats = run_sweep(scene, spec)
        bias = stats.points[:, BIAS]  # deg / mm
        base = np.nonzero(stats.points[:, 0] == 0.0)[0][0]
        assert np.max(np.abs(bias[base, :3])) < 1e-3
        assert np.max(np.abs(bias[base, 3:])) < 1e-2
        assert np.max(np.abs(bias[:, :3])) < 0.08
        assert np.max(np.abs(bias[:, 3:])) < 2.5


class TestRunSingleGolden:
    def test_matches_committed_golden_report(self, horizontal_scene):
        result = run_single(horizontal_scene, n_scans=10, seed=123)
        text = io.solve_report_text(result.joint)
        golden_path = GOLDEN / "single_horizontal.txt"
        assert text == golden_path.read_text()

    @pytest.mark.parametrize(
        "orientation, name", [("all", "mixed"), ("vertical", "vertical"), ("horizontal", "horizontal")]
    )
    def test_calibrate_frames_matches_committed_goldens(self, tmp_path, orientation, name):
        sim, cal = tmp_path / "sim", tmp_path / "cal"
        common = ["--pd-orientation", orientation]
        assert cli.main(["simulate", "--scans", "10", "--seed", "7", "--out", str(sim), *common]) == 0
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

    @pytest.mark.parametrize("flag, value", [("--scans", "10"), ("--seed", "7")])
    def test_simulation_flag_with_frames_exit_code_1(self, tmp_path, capsys, flag, value):
        # a frame file fixes the scans, so a flag that only steers the
        # simulation would change nothing: it is refused, not ignored
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--scans", "2", "--out", str(out), "--seed", "3"]) == 0
        capsys.readouterr()
        assert cli.main([
            "calibrate", "--frames", str(out / "frames.csv"), flag, value, "--out", str(tmp_path / "cal"),
        ]) == 1
        err = capsys.readouterr().err
        assert f"{flag} sets up simulated scans and cannot be used with --frames" in err
        assert not (tmp_path / "cal").exists()

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

    @pytest.mark.parametrize("channels", ["0|5|10|99", "-1|5|10|15", "15|10|5|0", "0|0|10|15"])
    def test_sampled_channels_not_elements_of_the_module_exit_code_1(self, tmp_path, capsys, channels):
        # the reader refuses a list that is not strictly increasing from 0
        # up; the pipeline refuses an index past the module's 16 elements
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--pd-orientation", "all", "--seed", "3", "--scans", "5", "--out", str(out)]) == 0
        lines = (out / "frames.csv").read_text().splitlines()
        edited = [k for k, line in enumerate(lines) if line.startswith("pd,h_bl,")]
        for k in edited:
            parts = lines[k].split(",")
            lines[k] = ",".join([*parts[:6], channels, *parts[7:]])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(["calibrate", "--frames", str(bad), "--pd-orientation", "all", "--out", str(tmp_path / "cal")])
        err = capsys.readouterr().err
        assert code == 1
        if channels.endswith("99"):
            assert "error: scan 0: PD 'h_bl' samples element(s) [99], which its module of 16 elements lacks" in err
        else:
            assert f"error: {bad}:{edited[0] + 1}: field 'sampled_channels': {channels!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "cal").exists()

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
        common = ["--pd-orientation", "all"]
        assert cli.main(["simulate", "--scans", "10", "--seed", "7", "--out", str(out), *common]) == 0
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

    def test_sweep_and_report(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_to_dict(MINI_SWEEP)))
        out = tmp_path / "sweep"
        assert cli.main([
            "sweep", "--sweep", str(spec_path), "--out", str(out),
            "--pd-orientation", "horizontal",
        ]) == 0
        points = out / "sweep_yaw_horizontal_pd_points.csv"
        assert points.exists()
        capsys.readouterr()
        assert cli.main(["report", str(points)]) == 0

        # the points CSV holds 4 decimals, the tables print 3 (2 for dX, dY
        # and dZ): reading it back gives the numbers of the sweep's own table
        def numbers(table):
            return [line.split()[-6:] for line in table.splitlines() if "Accuracy" in line or "Precision" in line]

        sweep_numbers = numbers((out / "sweep_yaw_horizontal_pd_summary.txt").read_text())
        assert len(sweep_numbers) == 2
        assert numbers(capsys.readouterr().out) == sweep_numbers

    def test_sweep_of_a_scene_file_is_labelled_by_it(self, tmp_path, capsys):
        # a vertical bench's scene.json sweeps as "Vertical PD" with no flag
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--scans", "1", "--pd-orientation", "vertical", "--out", str(sim)]) == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_to_dict(MINI_SWEEP)))
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert cli.main(["sweep", "--scene", str(sim / "scene.json"), "--sweep", str(spec_path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[2].startswith("Vertical PD")
        assert sorted(p.name for p in out.glob("sweep_yaw_*.csv")) == [
            f"sweep_yaw_vertical_pd_{stem}.csv" for stem in ("estimates", "points", "summary")
        ]

    def test_sweeps_of_two_arrangements_keep_their_tables(self, tmp_path, capsys):
        # each table is named by its sweep's axis and arrangement, as its CSVs are
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"start": 0, "stop": 0, "scans_per_point": 8}))
        out = tmp_path / "sweep"
        for orientation in ("vertical", "horizontal"):
            argv = ["sweep", "--pd-orientation", orientation, "--sweep", str(spec_path), "--out", str(out)]
            assert cli.main(argv) == 0
        tables = sorted(out.glob("*.txt"))
        assert [p.name for p in tables] == ["sweep_yaw_horizontal_pd_summary.txt", "sweep_yaw_vertical_pd_summary.txt"]
        assert [p.read_text().splitlines()[2].split()[:2] for p in tables] == [["Horizontal", "PD"], ["Vertical", "PD"]]

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "sweep"])
    def test_pd_orientation_with_scene_exit_code_1(self, tmp_path, capsys, command):
        # a scene file fixes the PD arrangement, so the flag is refused, not ignored
        sim = tmp_path / "sim"
        assert cli.main(["simulate", "--scans", "1", "--out", str(sim)]) == 0
        capsys.readouterr()
        assert cli.main([
            command, "--scene", str(sim / "scene.json"), "--pd-orientation", "vertical", "--out", str(tmp_path / "o"),
        ]) == 1
        err = capsys.readouterr().err
        assert "--pd-orientation selects a built-in bench scene and cannot be used with --scene" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "edit, names",
        [
            (lambda parts: parts[:5], ":3: field 'row': expected 14 fields, got 5"),
            (lambda parts: [parts[0], "fifty", *parts[2:]], ":3: field 'solved': not an integer: 'fifty'"),
            (lambda parts: [*parts[:4], "x", *parts[5:]], ":3: field 'bias_roll_deg': not a number: 'x'"),
            (lambda parts: [*parts[:4], "nan", *parts[5:]], ":3: field 'bias_roll_deg': 'nan' is not a finite number"),
            (lambda parts: ["inf", *parts[1:]], ":3: field 'point_value': 'inf' is not a finite number"),
            (lambda parts: [*parts[:8], "-0.0100", *parts[9:]], ":3: field 'std_yaw_deg': '-0.0100' is below 0.0"),
            (lambda parts: [parts[0], "0", *parts[2:]], ":3: field 'solved': '0' is below 1"),
            (lambda parts: [parts[0], HUGE, *parts[2:]], f":3: field 'solved': '{HUGE}' is not a finite number"),
        ],
        ids=["short row", "word solved", "word bias", "nan bias", "inf point", "negative std", "no scan solved",
             "solved past the float range"],
    )
    def test_malformed_points_row_exit_code_1(self, tmp_path, capsys, horizontal_scene, mini_stats, edit, names):
        lines = sweep_csvs(horizontal_scene, MINI_SWEEP, mini_stats)["points"].splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        points = tmp_path / "sweep_yaw_points.csv"
        points.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["report", str(points)]) == 1
        err = capsys.readouterr().err
        assert f"error: {points}{names}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit",
        [lambda lines: [lines[0].replace("solved", "scans"), *lines[1:]], lambda lines: lines[1:], lambda lines: []],
        ids=["renamed column", "no header", "empty file"],
    )
    def test_points_header_other_than_point_fields_exit_code_1(self, tmp_path, capsys, horizontal_scene, mini_stats,
                                                              edit):
        lines = edit(sweep_csvs(horizontal_scene, MINI_SWEEP, mini_stats)["points"].splitlines())
        points = tmp_path / "sweep_yaw_points.csv"
        points.write_text("".join(line + "\n" for line in lines))
        capsys.readouterr()
        assert cli.main(["report", str(points)]) == 1
        err = capsys.readouterr().err
        assert f"error: {points}:1: field 'header': expected 'point_value,solved,bias_yaw_deg," in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    @pytest.mark.parametrize("scans", [0, -2])
    def test_scans_below_one_exit_code_1(self, tmp_path, capsys, command, scans):
        capsys.readouterr()
        assert cli.main([command, "--scans", str(scans), "--out", str(tmp_path / "o")]) == 1
        assert f"error: --scans must be at least 1, got {scans}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_exit_code_1(self, tmp_path, capsys, workers):
        capsys.readouterr()
        assert cli.main(["sweep", "--workers", str(workers), "--out", str(tmp_path / "o")]) == 1
        assert f"error: --workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
            ("sweep", "--sweep", {"paramter": "tilt"}, "bad sweep spec: unknown key 'paramter'"),
            ("calibrate", "--scene", {"board": {"widht_m": 2.0, "pd_modules": []}}, "unknown key 'board.widht_m'"),
            ("calibrate", "--scene", {"board": {"pd_modules": [{"pd_id": "a", "offset_m": [0, 0], "orientaton": "x"}]}},
             "unknown key 'board.pd_modules[0].orientaton'"),
            # retired from the lidar section only: the board never held it
            ("calibrate", "--scene", {"board": {"pd_modules": [], "n_channels": 16}}, "unknown key 'board.n_channels'"),
        ],
        ids=["list sweep", "list start", "string scans", "list board", "list scene", "number lidar",
             "string offset", "bool width", "no board", "no pd id", "misspelled sweep key", "misspelled board key",
             "misspelled module key", "retired key elsewhere"],
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
