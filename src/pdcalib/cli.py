"""Command-line harness.

Subcommands:

* ``simulate``  - generate scan-frame files for a scene
* ``calibrate`` - run one full calibration (simulated or from frame files)
* ``sweep``     - reproduce a sweep along one pose axis and its statistics
* ``report``    - re-render the summary table from sweep point CSVs

Exit codes: 0 success, 1 input error, 2 pipeline failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import io
from .bench import Scene, make_bench_scene
from .harness import (
    SweepSpec,
    SweepStats,
    report,
    run_single,
    run_sweep,
    simulate_point,
    sweep_stem,
    write_sweep_outputs,
)
from .pipeline import PipelineError, calibrate_frames
from .scene import SimulationError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PIPELINE = 2

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcalib",
        description="LiDAR-to-board extrinsic calibration test bench",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", type=Path, help="scene config JSON (default: built-in bench)")
        p.add_argument("--seed", type=int, default=None, help="override the scene seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument(
            "--pd-orientation",
            choices=("horizontal", "vertical", "all"),
            default=None,
            help="PD arrangement of the built-in bench scene (default horizontal; not with --scene)",
        )

    p_sim = sub.add_parser("simulate", help="write simulated scan frames")
    common(p_sim)
    p_sim.add_argument("--scans", type=int, default=50, help="frames to simulate")

    p_cal = sub.add_parser("calibrate", help="run one calibration")
    common(p_cal)
    p_cal.add_argument("--frames", type=Path, help="scan-frame file (otherwise simulate)")
    p_cal.add_argument("--scans", type=int, default=None, help="frames to simulate (default 50; not with --frames)")

    p_sweep = sub.add_parser("sweep", help="run a reference sweep")
    common(p_sweep)
    p_sweep.add_argument("--sweep", type=Path, help="sweep spec JSON (default: yaw -3..3 deg)")
    p_sweep.add_argument(
        "--workers", type=int, default=1, help="processes running sweep points (at least 1; at most one per point)"
    )

    p_rep = sub.add_parser("report", help="summarize sweep point CSVs")
    p_rep.add_argument("inputs", nargs="+", type=Path, help="sweep *_points.csv files")
    p_rep.add_argument("--out", type=Path, default=None, help="write the table here too")
    return parser


def _load_scene(args) -> Scene:
    if args.scene is not None:
        # a scene file fixes its own PD arrangement
        if args.pd_orientation is not None:
            raise ValueError("--pd-orientation selects a built-in bench scene and cannot be used with --scene")
        scene = io.load_scene(args.scene)
    else:
        scene = make_bench_scene(args.pd_orientation or "horizontal")
    if args.seed is not None:
        scene = replace(scene, seed=args.seed)
    return scene


def _cmd_simulate(args) -> int:
    scene = _load_scene(args)
    # same seed chain run_single uses, so `calibrate --frames` on this output
    # reproduces an internal `calibrate --scans N --seed S` run exactly
    frames = simulate_point(
        scene, scene.base_pose, args.scans, scene.seed, with_truth=False
    )
    args.out.mkdir(parents=True, exist_ok=True)
    frame_path = args.out / "frames.csv"
    io.write_frames(frames, frame_path)
    scene_path = args.out / "scene.json"
    io.save_scene(scene, scene_path)
    print(f"wrote {len(frames)} frames to {frame_path}")
    print(f"wrote scene config to {scene_path}")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    # both only steer the simulation, which a frame file replaces
    given = [flag for flag, value in (("--scans", args.scans), ("--seed", args.seed)) if value is not None]
    if args.frames is not None and given:
        raise ValueError(f"{given[0]} sets up simulated scans and cannot be used with --frames")
    scene = _load_scene(args)
    if args.frames is not None:
        result = calibrate_frames(io.read_frames(args.frames), scene)
    else:
        result = run_single(scene, n_scans=50 if args.scans is None else args.scans)
    args.out.mkdir(parents=True, exist_ok=True)
    text = io.solve_report_text(result.joint)
    (args.out / "calibration.txt").write_text(text, encoding="utf-8")
    (args.out / "residuals.csv").write_text(io.residual_table(result.joint), encoding="utf-8")
    (args.out / "correspondences.csv").write_text(io.correspondence_dump(result, scene.board), encoding="utf-8")
    solved = sum(1 for _, rep, _ in result.scan_reports if rep is not None)
    print(text, end="")
    print(f"  scans solved    : {solved}/{len(result.scan_reports)}")
    print(f"  outputs in      : {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    scene = _load_scene(args)
    spec = SweepSpec() if args.sweep is None else io.load_sweep(args.sweep)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    stats = run_sweep(scene, spec, workers=args.workers)
    paths = write_sweep_outputs(args.out, scene, spec, stats)
    table = report([stats])
    (args.out / f"{sweep_stem(spec, stats)}_summary.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    for p in paths:
        print(f"wrote {p}")
    if stats.failures:
        print(f"warning: {len(stats.failures)} point(s) failed: {stats.failures}", file=sys.stderr)
    return EXIT_OK


def _cmd_report(args) -> int:
    stats_list = []
    for path in args.inputs:
        points = io.read_sweep_points(path)
        if not len(points):
            print(f"error: {path} holds no sweep points", file=sys.stderr)
            return EXIT_INPUT
        label = path.stem.replace("sweep_", "").replace("_points", "").replace("_", " ")
        stats_list.append(SweepStats(label, points))
    table = report(stats_list)
    print(table, end="")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(table, encoding="utf-8")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("scans", "workers"):  # checked here: argparse would exit 2, the pipeline-failure code
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag} must be at least 1, got {value}")
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "report":
            return _cmd_report(args)
    except (io.FrameParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (PipelineError, SimulationError) as exc:
        print(f"pipeline failure: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
