"""Every narrative script in demos/ runs to completion, and the package's
public names are the batch API that the demos use."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdcalib

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# one-row, one-scan and one-record helpers that stay in their modules only
# because the benchmark traces them by name; the package does not offer them
RELICS = {
    "GaussianFitResult", "PolarBeam", "augment_samples", "beams_on_pd", "currents_to_record",
    "fit_gaussian_iterative", "segment_target", "select_key_beam", "simulate_scan",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_public_api_is_the_batch_api():
    missing = [name for name in pdcalib.__all__ if not hasattr(pdcalib, name)]
    assert not missing
    assert not RELICS & (set(pdcalib.__all__) | set(vars(pdcalib)))
    imported = {
        alias.name
        for demo in DEMOS
        for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pdcalib")
        for alias in node.names
    }
    assert not RELICS & imported
