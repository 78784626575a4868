"""pdcalib: LiDAR-to-board extrinsic calibration with photodetector-array targets.

A numpy library that estimates the 6-DOF pose of a spinning LiDAR
relative to a planar target board instrumented with photodetector arrays,
together with a deterministic test bench (sensor + board + analog front-end
simulation) that reproduces the accuracy experiments offline. Only the
simulator loads scipy, for its normal CDF, and only once it runs.

There is one procedure: every stage runs with the thresholds its module
defines, and the pose is the closed-form least-squares rigid fit. Geometry
works on (N, 3) point arrays (``polar_to_cartesian_array``,
``transform_array``).

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
    select_key_beams,
)
from .bench import Scene, make_bench_scene
from .correspondence import (
    AzimuthCenterModel,
    ModelError,
    build_azimuth_center_model,
    find_pd_beam,
    make_correspondences,
)
from .geometry import (
    PolarBeam,
    Pose6DOF,
    polar_to_cartesian_array,
    pose_to_matrix,
    rotation_matrix,
    transform_array,
)
from .harness import SweepSpec, SweepStats, report, run_single, run_sweep
from .pipeline import BatchResult, PipelineError, calibrate_frames
from .preprocess import PlaneModel, SegmentationError, fit_plane, refine_plane_ranges, segment_frames, segment_target
from .scene import (
    AfeConfig,
    BoardModel,
    LidarModel,
    PdPlacement,
    ScanFrame,
    SimulationError,
    corner_error_bound,
    simulate_scan,
    simulate_scans,
)
from .solver import DegenerateCorrespondences, SolveReport, jacobian, solve

__version__ = "0.1.0"

__all__ = [
    "AfeConfig",
    "AzimuthCenterModel",
    "BatchResult",
    "BoardModel",
    "DegenerateCorrespondences",
    "GaussianFitBatch",
    "GaussianFitError",
    "GaussianFitResult",
    "LidarModel",
    "ModelError",
    "PdPlacement",
    "PdSignalRecord",
    "PipelineError",
    "PlaneModel",
    "PolarBeam",
    "Pose6DOF",
    "ScanFrame",
    "Scene",
    "SegmentationError",
    "SimulationError",
    "SolveReport",
    "SweepSpec",
    "SweepStats",
    "TiaParams",
    "augment_samples",
    "beams_on_pd",
    "build_azimuth_center_model",
    "calibrate_frames",
    "corner_error_bound",
    "currents_to_record",
    "find_pd_beam",
    "fit_gaussian_batch",
    "fit_gaussian_iterative",
    "fit_plane",
    "jacobian",
    "make_bench_scene",
    "make_correspondences",
    "noise_gain",
    "polar_to_cartesian_array",
    "pose_to_matrix",
    "q_factor",
    "refine_plane_ranges",
    "report",
    "rotation_matrix",
    "run_single",
    "run_sweep",
    "segment_frames",
    "segment_target",
    "select_key_beam",
    "select_key_beams",
    "simulate_scan",
    "simulate_scans",
    "solve",
    "tia_step_response",
    "transform_array",
    "__version__",
]
