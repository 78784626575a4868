"""Alternating parent/change benchmark pairs, summarised into one JSON file.

Run from anywhere, with two checkouts of the repository:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload calibrate_file --seeds 301-310 --out BENCH.json \
        --layers pipeline.extract_frame_features.calls,correspondence.find_pd_beam.calls

For each seed, each tree runs its own ``python3 perfbench/run.py --workload W
--seed S --seconds N`` (N is ``run_seconds`` of the change's BENCHMARK.json),
the parent first on even pairs and the change first on odd ones. The output
file gets, per end-to-end metric, each side's runs, median and quartiles and
the number of pairs the change won (ties count for neither side). It also
gets each side's ``first_op_s``, the scaled time of each run's first op
(``op_scaled_seconds[0]`` of the run's report in ``.perfbench_out/``), where
work moved out of set-up into the first op shows. With ``--layers``, one
``--trace 1`` run per side on the first seed adds those per-layer metrics.
Each workload is its own entry, so one file can hold several workloads; the
file is rewritten after every pair.

With ``--accuracy``, each tree also runs the four acceptance sweeps once
(``YAW_SPEC`` and ``X_SPEC`` of its ``tests/test_acceptance.py``, horizontal
and vertical PDs) in a fresh interpreter on its own sources, and the file's
``accuracy`` entry gets each side's ``per_axis_accuracy`` and
``per_axis_precision`` per sweep, so a speedup cannot hide a loss of
accuracy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one benchmark run in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: perfbench/run.py failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


ACCURACY_SCRIPT = """
import json, sys
sys.path[:0] = ["src", "tests"]
from pdcalib.bench import make_bench_scene
from pdcalib.harness import run_sweep
from test_acceptance import X_SPEC, YAW_SPEC
out = {}
for orientation in ("horizontal", "vertical"):
    scene = make_bench_scene(orientation)
    for spec in (YAW_SPEC, X_SPEC):
        stats = run_sweep(scene, spec)
        out[f"{orientation} {spec.parameter}"] = {
            "per_axis_accuracy": stats.per_axis_accuracy.tolist(),
            "per_axis_precision": stats.per_axis_precision.tolist(),
        }
print(json.dumps(out))
"""


def run_accuracy(tree: Path) -> dict:
    """Per-axis accuracy and precision of the four acceptance sweeps in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-c", ACCURACY_SCRIPT], cwd=tree, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: acceptance sweeps failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def first_op_seconds(tree: Path, workload: str, seed: int) -> float:
    """The scaled time of the first op of the last untraced run in ``tree``."""
    report = tree / ".perfbench_out" / f"report-{workload}-{seed}-trace0.json"
    return json.loads(report.read_text())["op_scaled_seconds"][0]


def summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else (values[0],) * 3)
    return {"runs": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def wins(parent: list, change: list, better: str) -> int:
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="A-B, inclusive")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or update")
    parser.add_argument("--layers", default="", help="comma-separated per-layer metrics to trace")
    parser.add_argument("--accuracy", action="store_true",
                        help="also run the four acceptance sweeps once per tree")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}"
    doc["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                      "platform": platform.platform()}
    entry = doc.setdefault("workloads", {})[args.workload] = {}

    if args.accuracy:
        doc["accuracy"] = {
            "axes": ["yaw_deg", "tilt_deg", "roll_deg", "dx_mm", "dy_mm", "dz_mm"],
            **{side: run_accuracy(tree) for side, tree in sides.items()},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    results = {side: [] for side in sides}
    first_op = {side: [] for side in sides}
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_bench(sides[side], args.workload, seed, seconds, 0))
            first_op[side].append(first_op_seconds(sides[side], args.workload, seed))
        done = args.seeds[: k + 1]
        entry.update({
            "seeds": done,
            "first": ["parent" if j % 2 == 0 else "change" for j in range(len(done))],
            "failed_ops": {s: [r["failed"] for r in results[s]] for s in sides},
            "end_to_end": {},
        })
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = {s: [r["metrics"][name]["value"] for r in results[s]] for s in sides}
            entry["end_to_end"][name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **{s: summary(vals[s]) for s in sides},
                "change_wins": wins(vals["parent"], vals["change"], metric["better"]),
                "pairs": len(done),
            }
        entry["first_op_s"] = {"unit": "s", **{s: summary(first_op[s]) for s in sides}}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        op = entry["end_to_end"]["op_s_p50"]
        print(f"pair {k + 1}/{len(args.seeds)} seed {seed}: op_s_p50 parent "
              f"{op['parent']['runs'][-1]:.4f} change {op['change']['runs'][-1]:.4f}", flush=True)

    layers = [name for name in args.layers.split(",") if name]
    if layers:
        seed = args.seeds[0]
        traced = {s: run_bench(sides[s], args.workload, seed, seconds, 1)["metrics"] for s in sides}
        entry["trace"] = {
            "seed": seed,
            **{s: {name: traced[s][name]["value"] for name in layers} for s in sides},
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
