#!/usr/bin/env python3
"""Coordinate conventions and the resolution-driven correspondence error.

Walks through the sensor's polar-to-Cartesian mapping, the Z-Y-X pose
convention, and how the angular resolution bounds how far the closest beam
can miss a target corner.
"""

import math

import numpy as np

from pdcalib import (
    LidarModel,
    Pose6DOF,
    corner_error_bound,
    polar_to_cartesian_array,
    pose_to_matrix,
    transform_array,
)

DEG = math.pi / 180.0

print("=== beam polar coordinates ===")
omega, alpha, r = 2 * DEG, 15 * DEG, 2.6
p = polar_to_cartesian_array([omega], [alpha], [r])  # (1, 3), sensor frame L
x, y, z = p[0]
print(f"beam (omega=2 deg, alpha=15 deg, r=2.6 m) -> x={x:.4f}  y={y:.4f}  z={z:.4f} m")
r_back = float(np.linalg.norm(p[0]))
back = (math.asin(z / r_back), math.atan2(x, y) % (2 * math.pi), r_back)
print(f"round trip: {back}")
print(f"range preserved: |p| = {r_back:.6f} m")

print()
print("=== rigid pose: sensor frame -> board frame ===")
pose = Pose6DOF(phi=1.5 * DEG, theta=0.0, psi=-0.5 * DEG, dx=-0.7, dy=-2.5, dz=0.02)
m = pose_to_matrix(pose)
print("rotation matrix:")
print(np.array_str(m[:, :3], precision=6, suppress_small=True))
qx, qy, qz = transform_array(m, p)[0]
print(f"beam lands on the board at x={qx:.4f}  y={qy:.4f}  z={qz:.4f} m (frame O)")

print()
print("=== how badly can the nearest beam miss a corner? ===")
lidar = LidarModel()
for r in (1.0, 2.5, 5.0):
    ex, ez = corner_error_bound(r, lidar)
    print(f"at {r:.1f} m: horizontal bound {ex * 1e3:5.1f} mm, vertical bound {ez * 1e3:6.1f} mm")
print()
print("the vertical bound is an order of magnitude coarser - that is why the")
print("board needs its own sensing (the photodetector arrays) instead of")
print("relying on corner returns.")
