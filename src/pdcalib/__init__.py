"""pdcalib: LiDAR-to-board extrinsic calibration with photodetector-array targets.

A numpy/scipy library that estimates the 6-DOF pose of a spinning LiDAR
relative to a planar target board instrumented with photodetector arrays,
together with a deterministic test bench (sensor + board + analog front-end
simulation) that reproduces the accuracy experiments offline.

Typical use::

    from pdcalib import make_bench_scene, run_single, run_sweep, SweepSpec

    scene = make_bench_scene("horizontal")
    result = run_single(scene, n_scans=50)
    print(result.joint.beta)

    stats = run_sweep(scene, SweepSpec(parameter="yaw"))
    print(stats.per_axis_accuracy)
"""

from .afe import PdSignalRecord, TiaParams, currents_to_record, noise_gain, q_factor, tia_step_response
from .beam_center import (
    GaussianFitBatch,
    GaussianFitError,
    GaussianFitResult,
    augment_samples,
    beams_on_pd,
    fit_gaussian_batch,
    fit_gaussian_iterative,
    select_key_beam,
)
from .bench import Scene, make_bench_scene
from .correspondence import (
    AzimuthCenterModel,
    Correspondence,
    DetectionMiss,
    ModelError,
    build_azimuth_center_model,
    find_pd_beam,
    make_correspondences,
)
from .geometry import (
    CartesianPoint,
    FrameMismatchError,
    PolarBeam,
    Pose6DOF,
    cartesian_to_polar,
    matrix_to_pose,
    polar_to_cartesian,
    pose_to_matrix,
    rotation_matrix,
    transform_point,
)
from .harness import SweepSpec, SweepStats, report, run_single, run_sweep
from .pipeline import BatchResult, PipelineError, PipelineOptions, calibrate_frames
from .preprocess import (
    PlaneModel,
    SegmentationError,
    fit_plane,
    project_to_plane,
    refine_plane_ranges,
    segment_target,
)
from .scene import (
    AfeConfig,
    BoardModel,
    LidarModel,
    PdPlacement,
    ScanFrame,
    SimulationError,
    corner_error_bound,
    integrate_beam_on_pd,
    simulate_scan,
)
from .solver import SolveReport, SolverConfig, SolverFailure, jacobian, solve

__version__ = "0.1.0"

__all__ = [
    "AfeConfig",
    "AzimuthCenterModel",
    "BatchResult",
    "BoardModel",
    "CartesianPoint",
    "Correspondence",
    "DetectionMiss",
    "FrameMismatchError",
    "GaussianFitBatch",
    "GaussianFitError",
    "GaussianFitResult",
    "LidarModel",
    "ModelError",
    "PdPlacement",
    "PdSignalRecord",
    "PipelineError",
    "PipelineOptions",
    "PlaneModel",
    "PolarBeam",
    "Pose6DOF",
    "ScanFrame",
    "Scene",
    "SegmentationError",
    "SimulationError",
    "SolveReport",
    "SolverConfig",
    "SolverFailure",
    "SweepSpec",
    "SweepStats",
    "TiaParams",
    "augment_samples",
    "beams_on_pd",
    "build_azimuth_center_model",
    "calibrate_frames",
    "cartesian_to_polar",
    "corner_error_bound",
    "currents_to_record",
    "find_pd_beam",
    "fit_gaussian_batch",
    "fit_gaussian_iterative",
    "fit_plane",
    "integrate_beam_on_pd",
    "jacobian",
    "make_bench_scene",
    "make_correspondences",
    "matrix_to_pose",
    "noise_gain",
    "polar_to_cartesian",
    "pose_to_matrix",
    "project_to_plane",
    "q_factor",
    "refine_plane_ranges",
    "report",
    "rotation_matrix",
    "run_single",
    "run_sweep",
    "segment_target",
    "select_key_beam",
    "simulate_scan",
    "solve",
    "tia_step_response",
    "transform_point",
    "__version__",
]
