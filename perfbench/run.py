"""pdcalib benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload calibrate_file --seed 1 --seconds 40 --trace 0

The workload's inputs are made from ``--seed``. Ops run in whole rounds
until ``--seconds`` have passed. Every metric is printed with its unit, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics, measured with no wrapper
  installed in the program. Their times (``setup_s``, ``op_s_p50`` and
  ``scans_per_s``) are scaled to a fixed host speed by the reference kernel
  of ``reference.py``, timed on either side of every op and after every
  set-up; the raw wall and kernel times are in the report.
* ``--trace 1`` reports the per-layer metrics. Untraced and traced rounds
  alternate, so the traced-minus-untraced op time gives the tracing overhead.

A fuller report (machine facts, accuracy, precision, output digests, failure
reasons) and, when traced, the spans as JSON lines go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# one load-generating thread, here and in the children that inherit this
# environment: keep BLAS from starting helper threads on a 2-vCPU host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT = ROOT / ".perfbench_out"

SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import pdcalib\n"
    "pdcalib.make_bench_scene({orientation!r})\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, {bench_dir!r})\n"
    "import reference\n"
    "print(t, *(reference.kernel_seconds() for _ in range({kernels})))\n"
)


def setup_seconds(orientation: str, reps: int) -> tuple[float, list]:
    """Median time to import pdcalib and build the bench scene, each in a
    fresh interpreter (interpreter start-up excluded), scaled to the
    reference speed by the kernel timed in each interpreter afterwards; also
    the raw seconds, [setup, kernel...] per interpreter."""
    code = SETUP_CODE.format(orientation=orientation, bench_dir=str(Path(__file__).parent),
                             kernels=3)
    raw = [
        [float(x) for x in subprocess.run(
            [sys.executable, "-c", code],
            env=workloads.child_env(), check=True, capture_output=True, text=True,
        ).stdout.split()]
        for _ in range(reps)
    ]
    return statistics.median(reference.scaled(r[0], statistics.median(r[1:])) for r in raw), raw


def measure(workload, ops: workloads.Ops, seconds: float, traced: bool) -> list:
    """Run whole rounds until ``seconds`` have passed; return the number of
    untraced ops done by the end of each untraced round.

    A traced run alternates untraced and traced rounds, starting untraced and
    ending after a traced one.
    """
    tracer = ops.tracer
    start = time.perf_counter()
    tracing = False
    rounds = []
    while True:
        gc.collect()
        tracer.enabled = tracing
        with tracer.region("bench.round"):
            workload.round(ops)
        tracer.enabled = False
        if not tracing:
            rounds.append(len(ops.seconds[False]))
        if time.perf_counter() - start >= seconds and (tracing or not traced):
            break
        tracing = traced and not tracing
    return rounds


def scans_per_s(op_s: list, rounds: list, scans: int) -> float:
    """Median over rounds of the scans a round processes per second of op time."""
    return statistics.median(
        (b - a) * scans / sum(op_s[a:b]) for a, b in zip([0] + rounds, rounds)
    )


def machine_facts() -> dict:
    import scipy

    sha = None
    try:
        top, head = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            sha = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: workloads.Sizes, workdir: Path) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report)."""
    setup_s, setup_raw = (None, None) if trace else setup_seconds(
        workloads.WORKLOADS[name].orientation, sizes.setup_reps)
    workload = workloads.WORKLOADS[name](seed, sizes, workdir)
    tracer = Tracer()
    ops = workloads.Ops(tracer, gauged=not trace)
    if trace:
        workloads.install_layers(tracer)
    try:
        rounds = measure(workload, ops, seconds, trace)
    finally:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.verify(ops)
    info = workload.info()
    failed = min(len(ops.failures), ops.attempted)

    if trace:
        metrics = workloads.layer_metrics(tracer, ops, sizes.scans, info)
    else:
        op_s = ops.scaled
        metrics = {
            "setup_s": (setup_s, "s"),
            "scans_per_s": (scans_per_s(op_s, rounds, sizes.scans), "scans/s"),
            "op_s_p50": (statistics.median(op_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_ok_frac": (1.0 - failed / ops.attempted, "ratio"),
            "solved_frac": (workloads.ratio(workload.solved, workload.checked), "ratio"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": failed == 0 and ops.attempted > 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops_timed": len(ops.seconds[trace]),
        "op_seconds": ops.seconds[trace],
        "op_scaled_seconds": ops.scaled,
        "kernel_seconds": ops.kernel_s,
        "setup_and_kernel_seconds": setup_raw,
        "failures": ops.failures[:50],
        "info": info,
        "machine": machine_facts(),
        "result": result,
    }
    if trace:
        spans = OUT / f"spans-{name}-{seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        report["spans"] = str(spans.relative_to(ROOT))
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, report = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workloads.Sizes(), workdir
        )
    finally:
        shutil.rmtree(workdir)
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )

    print(f"{args.workload} seed={args.seed}: {result['attempted']} ops, {result['failed']} failed"
          f", {report['ops_timed']} timed")
    for reason in dict.fromkeys(report["failures"]):
        print(f"  FAILED {reason}")
    for key, value in report["info"].items():
        print(f"  info {key} = {value}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
