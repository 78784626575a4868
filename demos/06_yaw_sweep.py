#!/usr/bin/env python3
"""A bench sweep: step the sensor's yaw, calibrate at every step.

A compact version of the accuracy experiment (fewer scans per point so it
finishes in seconds; the acceptance suite runs the full 13 x 50 grids).
Prints per-point tracking and the summary table for both module
arrangements, each labelled by its scene.
"""

import math

from pdcalib import SweepSpec, make_bench_scene, report, run_sweep

DEG = 180 / math.pi

spec = SweepSpec(parameter="yaw", start=-3.0, stop=3.0, step=1.0, scans_per_point=15, seed=42)
print(f"sweep: yaw {spec.start}..{spec.stop} deg, step {spec.step}, {spec.scans_per_point} scans/point")

all_stats = [run_sweep(make_bench_scene(orientation), spec) for orientation in ("horizontal", "vertical")]
for stats in all_stats:
    print()
    print(f"=== {stats.label}: commanded vs estimated yaw ===")
    for v, est in zip(stats.points[:, 0], stats.estimates):
        yaw = est[:, 0] * DEG
        print(f"  ref {v:+5.1f} deg -> est {yaw.mean():+7.3f} deg "
              f"(bias {yaw.mean() - v:+.3f}, std {yaw.std():.3f})")

print()
print(report(all_stats), end="")
