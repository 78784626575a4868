#!/usr/bin/env python3
"""Simulate one sensor revolution over the instrumented board.

Prints the scan's footprint on the board, the reflectivity contrast that
marks the photodetector modules, and the voltage events one module records
as consecutive beams sweep across it.
"""

import numpy as np

from pdcalib import make_bench_scene, simulate_scans

scene = make_bench_scene("horizontal")
print("=== bench scene ===")
print(f"board {scene.board.width} x {scene.board.height} m, "
      f"surround reflectivity {scene.board.surround_reflectivity}, "
      f"module reflectivity {scene.board.pd_reflectivity}")
for pd in scene.board.pd_modules:
    print(f"  {pd.pd_id}: {pd.orientation} at x={pd.offset[0]: .4f} m, z={pd.offset[1]: .4f} m")
print(f"sensor at {scene.base_pose.translation} m (board frame)")

(frame,) = simulate_scans(scene.board, scene.lidar, scene.base_pose, seeds=[scene.seed], scan_ids=[0], afe=scene.afe)
ch, refl = frame.beams["channel"], frame.beams["reflectivity"]
print()
print("=== scan footprint ===")
print(f"{len(frame.beams)} returns over {len(set(ch))} channels")
for c in sorted(set(ch)):
    sel = ch == c
    z_mean = frame.truth.board_positions[sel][:, 2].mean()
    print(f"  channel {c:2d}: {sel.sum():3d} beams, row height z = {z_mean * 1e3:+7.1f} mm")

print()
print("=== reflectivity marks the modules ===")
board_median = np.median(refl[frame.truth.is_board])
print(f"row median reflectivity {board_median:.1f}")
for pd_id, beams in frame.truth.pd_event_beams.items():
    idx = max(beams, key=lambda i: refl[i])  # the brightest of the beams that reach the module
    print(f"  beam on {pd_id}: reflectivity {refl[idx]:.1f} (elevated by {refl[idx] - board_median:.1f})")

print()
print("=== voltages from one module ===")
pd = scene.board.pd_modules[0]
rec = next(r for r in frame.pd_records if r.pd_id == pd.pd_id)
print(f"{rec.pd_id}: {rec.n_events} beam events, sampled elements {rec.sampled_channels}")
for t, volts in zip(rec.sample_times, rec.element_voltages):
    bars = "  ".join(f"{v:5.2f}" for v in volts)
    print(f"  t = {t * 1e6:8.1f} us | peaks [V]: {bars}")
print("events arrive one firing cycle (~55 us) apart; the bell-shaped element")
print("profile is what the center fit works on.")
