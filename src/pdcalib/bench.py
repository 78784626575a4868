"""Test-bench scene construction: boards with PD modules aligned to the beams.

Mounting the modules is the part of the physical procedure that needs care:
a 1-D array only senses along its axis, so its cross-axis position must put
it where beams actually land at the nominal rig pose: those of the
simulator's own noiseless ray cast (``scene._cast_rays`` at zero phase).

* Horizontal modules sit exactly on a channel row (the row height at a given
  board x barely moves under the yaw/x motions the bench exercises), so their
  centerline claim stays sub-millimeter across a sweep.
* Vertical modules are centered on a row in z and snapped to the azimuth
  beam grid in x. Because the grid is ~8.7-10.7 mm coarse, the two modules
  on each board side are staggered by half the local beam spacing: their
  lateral quantization errors then largely cancel in the pose estimate
  instead of adding up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose6DOF, pose_to_matrix
from .scene import AfeConfig, BoardModel, LidarModel, PdPlacement, SimulationError, _azimuth_window, _cast_rays

DEFAULT_BASE_POSE = Pose6DOF(0.0, 0.0, 0.0, -0.7, -2.5, 0.0)
CORNER_X = 0.38
HORIZONTAL_ROW_DEG = 3.0
VERTICAL_ROW_DEG = 1.0

# pd_id -> (orientation, x_target, row_deg, phase): the module sits on the
# channel row nearest row_deg, at the landing x nearest x_target moved by
# phase times the local beam spacing. Horizontal modules take phase 0, so
# that one beam lands at the array center at the nominal pose: its four
# sampled voltages are symmetric about the center at start-up.
#
# A vertical strip cannot out-resolve the azimuth grid laterally: its
# lateral claim is wrong by the offset of the nearest beam, a sawtooth in
# the grid phase. The two strips of each board side therefore sit on the
# SAME channel row (small height keeps the error out of the spin
# estimate) separated by 1.5 beam spacings: the half-spacing phase
# difference makes their lateral errors cancel in the pose mean, while
# the 13-16 mm separation keeps their detection windows disjoint. The
# 1/4 and 3/4 phases make the cancellation exact at the nominal pose and
# keep both strips away from the midpoint tie where the nearest-beam
# choice would flip scan to scan.
_MODULES = {
    "h_tl": ("horizontal", -CORNER_X, HORIZONTAL_ROW_DEG, 0.0),
    "h_tr": ("horizontal", CORNER_X, HORIZONTAL_ROW_DEG, 0.0),
    "h_bl": ("horizontal", -CORNER_X, -HORIZONTAL_ROW_DEG, 0.0),
    "h_br": ("horizontal", CORNER_X, -HORIZONTAL_ROW_DEG, 0.0),
    "v_l1": ("vertical", -CORNER_X, VERTICAL_ROW_DEG, 0.25),
    "v_l2": ("vertical", -CORNER_X, VERTICAL_ROW_DEG, 1.75),
    "v_r1": ("vertical", CORNER_X, -VERTICAL_ROW_DEG, 0.25),
    "v_r2": ("vertical", CORNER_X, -VERTICAL_ROW_DEG, 1.75),
}
_ARRANGEMENTS = {
    "horizontal": ("h_tl", "h_tr", "h_bl", "h_br"),
    "vertical": ("v_l1", "v_l2", "v_r1", "v_r2"),
    "all": ("v_l1", "v_l2", "h_tr", "h_bl"),
}


@dataclass(frozen=True)
class Scene:
    """A complete simulated rig: board, sensor, electronics and nominal pose."""

    board: BoardModel
    lidar: LidarModel = field(default_factory=LidarModel)
    afe: AfeConfig = field(default_factory=AfeConfig)
    base_pose: Pose6DOF = DEFAULT_BASE_POSE
    seed: int = 0


def _channel_for(lidar: LidarModel, angle_deg: float) -> int:
    angles = np.asarray(lidar.vertical_angles_deg)
    return int(np.argmin(np.abs(angles - angle_deg)))


def _place(pd_id: str, lidar: LidarModel, channel, points, pose: Pose6DOF) -> PdPlacement:
    """Module ``pd_id`` on the landing grid of returns ``channel`` and ``points``
    of the board at ``pose``."""
    orientation, x_target, row_deg, phase = _MODULES[pd_id]
    c = _channel_for(lidar, row_deg)
    row = channel == c
    if not row.any():
        raise SimulationError(
            f"module {pd_id}: no beam of its {lidar.vertical_angles_deg[c]:+g} deg channel row "
            f"lands on the board at base pose {pose}"
        )
    xs, zs = points[row, 0], points[row, 2]
    k = int(np.argmin(np.abs(xs - x_target)))
    k1 = min(k + 1, len(xs) - 1)
    x = float(xs[k] + phase * (xs[k1] - xs[k1 - 1]))
    return PdPlacement(pd_id=pd_id, offset=(x, float(np.interp(x, xs, zs))), orientation=orientation)


def make_bench_scene(
    pd_orientation: str = "horizontal",
    lidar: LidarModel | None = None,
    afe: AfeConfig | None = None,
    base_pose: Pose6DOF = DEFAULT_BASE_POSE,
    seed: int = 0,
) -> Scene:
    """Build the reference bench scene with four PD modules near the corners.

    ``pd_orientation`` selects all-horizontal, all-vertical, or the mixed
    arrangement ("all": vertical on the top-left/bottom-right corners,
    horizontal on the other two). The board has ``BoardModel``'s default
    size and reflectivities.

    Raises ValueError for an unknown ``pd_orientation``, and SimulationError
    for a ``base_pose`` with the board behind, beside or edge-on to the sensor,
    or with no beam of a module's channel row landing on the board.
    """
    if pd_orientation not in _ARRANGEMENTS:
        raise ValueError(f"unknown pd_orientation {pd_orientation!r}")
    lidar = lidar or LidarModel()
    afe = afe or AfeConfig()
    shell = BoardModel()
    m = pose_to_matrix(base_pose)
    rot, t = m[:, :3], m[:, 3]
    j = _azimuth_window(shell, lidar, rot, t)
    (_, channel, _), _, _, _, points = _cast_rays(shell, lidar, rot, t, j, np.zeros(1), None)
    pds = tuple(_place(pd_id, lidar, channel, points, base_pose) for pd_id in _ARRANGEMENTS[pd_orientation])
    return Scene(board=BoardModel(pd_modules=pds), lidar=lidar, afe=afe, base_pose=base_pose, seed=seed)
