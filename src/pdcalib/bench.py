"""Test-bench scene construction: boards with PD modules aligned to the beams.

Mounting the modules is the part of the physical procedure that needs care:
a 1-D array only senses along its axis, so its cross-axis position must put
it where beams actually land at the nominal rig pose.

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

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Pose6DOF, pose_to_matrix
from .scene import AfeConfig, BoardModel, LidarModel, PdPlacement

DEFAULT_BASE_POSE = Pose6DOF(0.0, 0.0, 0.0, -0.7, -2.5, 0.0)
CORNER_X = 0.38
HORIZONTAL_ROW_DEG = 3.0
VERTICAL_ROW_DEG = 1.0


@dataclass(frozen=True)
class Scene:
    """A complete simulated rig: board, sensor, electronics and nominal pose."""

    board: BoardModel
    lidar: LidarModel = field(default_factory=LidarModel)
    afe: AfeConfig = field(default_factory=AfeConfig)
    base_pose: Pose6DOF = DEFAULT_BASE_POSE
    seed: int = 0


def row_landings(lidar: LidarModel, pose: Pose6DOF, channel: int, board: BoardModel):
    """Noiseless landing points of one channel's beams on the board plane.

    Returns (azimuth indices, x, z) for beams that land within the board
    extents at the given pose (zero phase jitter).
    """
    m = pose_to_matrix(pose)
    rot, t = m[:, :3], m[:, 3]
    corners = np.array(
        [
            [sx * 0.5 * board.width, 0.0, sz * 0.5 * board.height]
            for sx in (-1, 1)
            for sz in (-1, 1)
        ]
    )
    corners_l = (corners - t) @ rot
    alphas_c = np.arctan2(corners_l[:, 0], corners_l[:, 1])
    step = lidar.azimuth_step
    j = np.arange(int(math.floor(alphas_c.min() / step)) - 3, int(math.ceil(alphas_c.max() / step)) + 4)
    alpha = j * step + lidar.channel_azimuth_skew(channel)
    omega = lidar.vertical_angles[channel]
    co = math.cos(omega)
    d_l = np.stack([co * np.sin(alpha), co * np.cos(alpha), np.full_like(alpha, math.sin(omega))], axis=-1)
    d_o = d_l @ rot.T
    tt = -t[1] / d_o[:, 1]
    pts = t[None, :] + tt[:, None] * d_o
    ok = (
        (tt > 0)
        & (np.abs(pts[:, 0]) <= 0.5 * board.width)
        & (np.abs(pts[:, 2]) <= 0.5 * board.height)
    )
    return j[ok], pts[ok, 0], pts[ok, 2]


def _channel_for(lidar: LidarModel, angle_deg: float) -> int:
    angles = np.asarray(lidar.vertical_angles_deg)
    return int(np.argmin(np.abs(angles - angle_deg)))


def _snap(lidar, pose, board, x_target, row_deg, phase: float):
    """Landing-grid-aligned (x, z) near ``x_target`` on one channel row.

    ``phase`` offsets the snapped x by that fraction of the local beam
    spacing.
    """
    ch = _channel_for(lidar, row_deg)
    _, xs, zs = row_landings(lidar, pose, ch, board)
    k = int(np.argmin(np.abs(xs - x_target)))
    k1 = min(k + 1, len(xs) - 1)
    spacing = xs[k1] - xs[k1 - 1]
    x = float(xs[k] + phase * spacing)
    z = float(np.interp(x, xs, zs))
    return x, z


def _horizontal_pd(pd_id, lidar, pose, board, x_target, row_deg) -> PdPlacement:
    # align so one beam lands at the array center at the nominal pose: the
    # center fit is symmetric (and therefore anchor-bias-free) at start-up
    x, z = _snap(lidar, pose, board, x_target, row_deg, phase=0.0)
    return PdPlacement(pd_id=pd_id, offset=(x, z), orientation="horizontal")


def _vertical_pd(pd_id, lidar, pose, board, x_target, row_deg, phase: float) -> PdPlacement:
    # a vertical strip cannot out-resolve the azimuth grid laterally: its
    # lateral claim is wrong by the offset of the nearest beam, a sawtooth in
    # the grid phase. The two strips of each board side therefore sit on the
    # SAME channel row (small height keeps the error out of the spin
    # estimate) separated by 1.5 beam spacings: the half-spacing phase
    # difference makes their lateral errors cancel in the pose mean, while
    # the 13-16 mm separation keeps their detection windows disjoint. The
    # 1/4 and 3/4 phases make the cancellation exact at the nominal pose and
    # keep both strips away from the midpoint tie where the nearest-beam
    # choice would flip scan to scan.
    x, z = _snap(lidar, pose, board, x_target, row_deg, phase=phase)
    return PdPlacement(pd_id=pd_id, offset=(x, z), orientation="vertical")


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
    """
    lidar = lidar or LidarModel()
    afe = afe or AfeConfig()
    shell = BoardModel()
    top, bottom = HORIZONTAL_ROW_DEG, -HORIZONTAL_ROW_DEG
    vtop, vbottom = VERTICAL_ROW_DEG, -VERTICAL_ROW_DEG

    if pd_orientation == "horizontal":
        pds = (
            _horizontal_pd("h_tl", lidar, base_pose, shell, -CORNER_X, top),
            _horizontal_pd("h_tr", lidar, base_pose, shell, CORNER_X, top),
            _horizontal_pd("h_bl", lidar, base_pose, shell, -CORNER_X, bottom),
            _horizontal_pd("h_br", lidar, base_pose, shell, CORNER_X, bottom),
        )
    elif pd_orientation == "vertical":
        pds = (
            _vertical_pd("v_l1", lidar, base_pose, shell, -CORNER_X, vtop, phase=0.25),
            _vertical_pd("v_l2", lidar, base_pose, shell, -CORNER_X, vtop, phase=1.75),
            _vertical_pd("v_r1", lidar, base_pose, shell, CORNER_X, vbottom, phase=0.25),
            _vertical_pd("v_r2", lidar, base_pose, shell, CORNER_X, vbottom, phase=1.75),
        )
    elif pd_orientation == "all":
        pds = (
            _vertical_pd("v_l1", lidar, base_pose, shell, -CORNER_X, vtop, phase=0.25),
            _vertical_pd("v_l2", lidar, base_pose, shell, -CORNER_X, vtop, phase=1.75),
            _horizontal_pd("h_tr", lidar, base_pose, shell, CORNER_X, top),
            _horizontal_pd("h_bl", lidar, base_pose, shell, -CORNER_X, bottom),
        )
    else:
        raise ValueError(f"unknown pd_orientation {pd_orientation!r}")

    return Scene(board=BoardModel(pd_modules=pds), lidar=lidar, afe=afe, base_pose=base_pose, seed=seed)
