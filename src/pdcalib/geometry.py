"""Coordinate frames, rotations and rigid transforms shared by the whole pipeline.

Points travel as (N, 3) arrays; the frame a point array lives in is fixed
by the stage that holds it.

Conventions (fixed throughout the package):

* Frames: ``L`` = sensor (LiDAR), ``O`` = board/target, ``D`` = photodetector.
* Axes: y forward (boresight), x right, z up. The board occupies the plane
  y = 0 in frame O with its surface spanned by x (width) and z (height).
* Rotation order is intrinsic Z-Y-X: ``R = Rz(phi) @ Ry(theta) @ Rx(psi)``
  with phi = yaw (about z), theta = tilt (about y), psi = roll (about x).
* All angles are radians internally; degrees appear only at CLI/file
  boundaries.
* Polar convention: ``x = r cos(omega) sin(alpha)``, ``y = r cos(omega)
  cos(alpha)``, ``z = r sin(omega)``. Note: one published form of this
  conversion prints sin(alpha) in the z row, which does not preserve range;
  the sin(omega) form used here is the physically consistent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
DEG = math.pi / 180.0  # radians per degree
MM = 1e-3  # meters per millimeter


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class Pose6DOF:
    """Rigid 6-DOF pose: three Z-Y-X Euler angles plus a translation.

    Maps sensor-frame points into the target frame: ``p_O = R @ p_L + t``.

    Parameters
    ----------
    phi, theta, psi:
        Yaw, tilt and roll angles in radians (wrapped to (-pi, pi]).
    dx, dy, dz:
        Translation in meters.
    """

    phi: float = 0.0
    theta: float = 0.0
    psi: float = 0.0
    dx: float = 0.0
    dy: float = 0.0
    dz: float = 0.0

    def __post_init__(self):
        for name in ("phi", "theta", "psi", "dx", "dy", "dz"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Pose6DOF.{name} must be finite, got {v!r}")
        object.__setattr__(self, "phi", wrap_angle(self.phi))
        object.__setattr__(self, "theta", wrap_angle(self.theta))
        object.__setattr__(self, "psi", wrap_angle(self.psi))

    @property
    def translation(self) -> np.ndarray:
        return np.array([self.dx, self.dy, self.dz])

    def as_vector(self) -> np.ndarray:
        """Pose as the 6-vector (phi, theta, psi, dx, dy, dz)."""
        return np.array([self.phi, self.theta, self.psi, self.dx, self.dy, self.dz])


# the values of a return that its rules test, in the order of a frame file's fields
RETURN_VALUES = ("alpha", "omega", "r", "reflectivity")


def return_faults(alpha, omega, r, reflectivity) -> np.ndarray:
    """The return rules: (4, n) bool, one row per ``RETURN_VALUES`` entry and
    one column per return, true where a value is not finite, a range not > 0
    or an elevation (rad) not inside (-pi/2, pi/2)."""
    return ~np.array([np.isfinite(alpha), np.abs(omega) < math.pi / 2, (r > 0) & (r < np.inf),
                      np.isfinite(reflectivity)])


def return_fault(name: str, value: float) -> str:
    """Why ``value``, the return value ``name``, breaks its rule."""
    rule = {"omega": "is not an elevation inside (-90, 90) deg", "r": "is not a positive range"}
    return rule[name] if math.isfinite(value) else "is not a finite number"


@dataclass(frozen=True)
class PolarBeam:
    """One laser return in sensor polar coordinates.

    Scans and the key table keep their returns as columns (``ScanFrame.beams``,
    ``correspondence.KEY_DTYPE``); this record checks a single return
    (``return_faults``). Nothing in the package builds one; it is kept only
    because perfbench's ``install_layers`` counts its constructions.

    Parameters
    ----------
    omega:
        Vertical (elevation) angle in radians.
    alpha:
        Azimuth angle in radians, in [0, 2*pi).
    r:
        Range in meters, > 0.
    channel:
        Vertical channel index.
    azimuth_index:
        Firing-cycle index of the beam within its channel.
    reflectivity:
        Return intensity, unitless in [0, 255].
    """

    omega: float
    alpha: float
    r: float
    channel: int = 0
    azimuth_index: int = 0
    reflectivity: float = 0.0

    def __post_init__(self):
        faults = return_faults(self.alpha, self.omega, self.r, self.reflectivity)
        if faults.any():
            name = RETURN_VALUES[int(np.argmax(faults))]
            value = getattr(self, name)
            raise ValueError(f"PolarBeam.{name} {value!r} {return_fault(name, value)}")
        if not (0.0 <= self.alpha < TWO_PI):
            object.__setattr__(self, "alpha", self.alpha % TWO_PI)


def polar_to_cartesian_array(omega, alpha, r) -> np.ndarray:
    """Polar-to-Cartesian; returns an (N, 3) sensor-frame array.

    Azimuth is measured clockwise from the +y boresight when viewed from
    above (compass convention).
    """
    omega = np.asarray(omega, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    r = np.asarray(r, dtype=float)
    co = np.cos(omega)
    return np.stack([r * co * np.sin(alpha), r * co * np.cos(alpha), r * np.sin(omega)], axis=-1)


def polar_rays(omega, alpha, r):
    """Sensor-frame points and unit ray directions of 1-D polar returns from
    one evaluation of their trig.

    Returns two (N, 3) arrays, bit for bit ``polar_to_cartesian_array(omega,
    alpha, r)`` and ``polar_to_cartesian_array(omega, alpha, 1.0)``. Each is
    the transpose of a (3, N) array, so each of its columns is contiguous.
    """
    omega, alpha, r = (np.ascontiguousarray(v, dtype=float) for v in (omega, alpha, r))
    co, so = np.cos(omega), np.sin(omega)
    sa, ca = np.sin(alpha), np.cos(alpha)
    rc = r * co
    return np.array([rc * sa, rc * ca, r * so]).T, np.array([co * sa, co * ca, so]).T


def rotation_matrix(p: Pose6DOF) -> np.ndarray:
    """3x3 rotation Rz(phi) @ Ry(theta) @ Rx(psi)."""
    cf, sf = math.cos(p.phi), math.sin(p.phi)
    ct, st = math.cos(p.theta), math.sin(p.theta)
    cp, sp = math.cos(p.psi), math.sin(p.psi)
    return np.array(
        [
            [cf * ct, cf * st * sp - sf * cp, cf * st * cp + sf * sp],
            [sf * ct, sf * st * sp + cf * cp, sf * st * cp - cf * sp],
            [-st, ct * sp, ct * cp],
        ]
    )


def pose_to_matrix(p: Pose6DOF) -> np.ndarray:
    """3x4 rigid transform [R | T] mapping frame-L points to frame O."""
    return np.column_stack([rotation_matrix(p), p.translation])


def transform_array(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Apply a 3x4 rigid transform to an (N, 3) array of points."""
    pts = np.asarray(pts, dtype=float)
    return pts @ m[:, :3].T + m[:, 3]
