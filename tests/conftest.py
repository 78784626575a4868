import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # for the oracles helper

# HYPOTHESIS_PROFILE=ci: the same examples on every run, and a failure
# prints the blob that reproduces it
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")

from pdcalib.bench import make_bench_scene
from pdcalib.pipeline import calibrate_frames
from pdcalib.scene import simulate_scan


def simulate_batch(scene, pose=None, n=50, seed0=1000):
    pose = pose or scene.base_pose
    return [
        simulate_scan(scene.board, scene.lidar, pose, seed=seed0 + k, scan_id=k, afe=scene.afe)
        for k in range(n)
    ]


@pytest.fixture(scope="session")
def horizontal_scene():
    return make_bench_scene("horizontal")


@pytest.fixture(scope="session")
def vertical_scene():
    return make_bench_scene("vertical")


@pytest.fixture(scope="session")
def horizontal_batch(horizontal_scene):
    """50 noisy frames of the horizontal bench at the base pose."""
    return simulate_batch(horizontal_scene)


@pytest.fixture(scope="session")
def horizontal_result(horizontal_scene, horizontal_batch):
    """Full pipeline output on the shared horizontal batch."""
    return calibrate_frames(horizontal_batch, horizontal_scene)
