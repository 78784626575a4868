"""Acceptance suite: one test per release criterion, each printing its verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The sweep-based criteria share four full bench sweeps (yaw and x
displacement, horizontal and vertical PD arrangements) computed once per
session.
"""

import time

import numpy as np
import pytest

from oracles import central_difference_jacobian, gaussian_nls_grid, levenberg_marquardt, rigid_fit_svd
from pdcalib.afe import TiaParams, q_factor
from pdcalib.beam_center import (
    GaussianFitError,
    augment_samples,
    fit_gaussian_iterative,
)
from pdcalib.bench import make_bench_scene
from pdcalib.correspondence import build_azimuth_center_model
from pdcalib.geometry import Pose6DOF, pose_to_matrix
from pdcalib.harness import BIAS, SweepSpec, run_sweep, sweep_csvs
from pdcalib.scene import BoardModel, LidarModel, simulate_scan
from pdcalib.solver import jacobian, solve
from test_solver import BOARD_POINTS_L, TRUTH, make_correspondences_from_pose, perturbed_starts

MM = 1e-3

YAW_SPEC = SweepSpec(parameter="yaw", start=-3.0, stop=3.0, step=0.5, scans_per_point=50, seed=101)
X_SPEC = SweepSpec(parameter="x_position", start=-30.0, stop=30.0, step=5.0, scans_per_point=50, seed=202)

ACCURACY_ANGLE_DEG = 0.05
ACCURACY_DX_MM = 1.0
PRECISION_ANGLE_DEG = 0.15
PRECISION_DX_MM = 3.0
SWEEP_TIME_BUDGET_S = 120.0


def verdict(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bench_sweeps():
    """(orientation, spec) -> (stats, wall seconds) for the four full sweeps."""
    out = {}
    for orientation in ("horizontal", "vertical"):
        scene = make_bench_scene(orientation)
        for spec in (YAW_SPEC, X_SPEC):
            t0 = time.perf_counter()
            stats = run_sweep(scene, spec)
            out[(orientation, spec.parameter)] = (stats, time.perf_counter() - t0)
    return out


class TestCriterion1TableII:
    def test_accuracy_and_precision_envelopes(self, bench_sweeps):
        worst = []
        for (orientation, parameter), (stats, _) in bench_sweeps.items():
            acc = stats.per_axis_accuracy
            pre = stats.per_axis_precision
            ok = (
                float(acc[:3].max()) <= ACCURACY_ANGLE_DEG
                and float(acc[3]) <= ACCURACY_DX_MM
                and float(pre[:3].max()) <= PRECISION_ANGLE_DEG
                and float(pre[3]) <= PRECISION_DX_MM
                and np.all(stats.points[:, 1] == 50)
            )
            worst.append(ok)
            verdict(
                f"criterion 1 [{orientation} {parameter}]",
                ok,
                f"accuracy angles<= {acc[:3].max():.3f} deg dX {acc[3]:.2f} mm; "
                f"precision angles<= {pre[:3].max():.3f} deg dX {pre[3]:.2f} mm "
                f"(bounds {ACCURACY_ANGLE_DEG}/{ACCURACY_DX_MM}/{PRECISION_ANGLE_DEG}/{PRECISION_DX_MM})",
            )
        assert all(worst)

    def test_runtime_budget(self, bench_sweeps):
        for (orientation, parameter), (_, seconds) in bench_sweeps.items():
            verdict(
                f"criterion 1 runtime [{orientation} {parameter}]",
                seconds <= SWEEP_TIME_BUDGET_S,
                f"{seconds:.1f} s per sweep (budget {SWEEP_TIME_BUDGET_S:.0f} s)",
            )


class TestCriterion2YawWorstCase:
    def test_max_per_point_yaw_bias(self, bench_sweeps):
        for orientation in ("horizontal", "vertical"):
            stats, _ = bench_sweeps[(orientation, "yaw")]
            worst = float(np.max(np.abs(stats.points[:, BIAS][:, 0])))
            verdict(
                f"criterion 2 [{orientation}]",
                worst <= 0.2,
                f"max per-point yaw bias {worst:.3f} deg (bound 0.2)",
            )

    def test_yaw_tracking_strictly_increasing(self, bench_sweeps):
        for orientation in ("horizontal", "vertical"):
            stats, _ = bench_sweeps[(orientation, "yaw")]
            est_yaw = np.array([e[:, 0].mean() for e in stats.estimates])
            assert np.all(np.diff(est_yaw) > 0)

    def test_displacement_error_under_3mm_at_every_point(self, bench_sweeps):
        for orientation in ("horizontal", "vertical"):
            stats, _ = bench_sweeps[(orientation, "x_position")]
            worst = float(np.max(np.abs(stats.points[:, BIAS][:, 3])))
            verdict(
                f"criterion 2 displacement [{orientation}]",
                worst < 3.0,
                f"max per-point dX bias {worst:.2f} mm (bound 3)",
            )


class TestCriterion3GaussianOracle:
    def test_median_agreement_with_grid_search(self):
        x4 = np.array([0.0, 5.0, 10.0, 15.0]) * MM
        rng = np.random.default_rng(333)
        deltas = []
        for _ in range(1000):
            mu = rng.uniform(3.0, 12.0) * MM
            clean = 2.9 * np.exp(-((x4 - mu) ** 2) / (2 * (4.9 * MM) ** 2))
            x, y = augment_samples(x4, clean + rng.normal(0, 0.1, 4))
            y = np.maximum(y, 0.1)
            try:
                fit = fit_gaussian_iterative(x, y)
            except GaussianFitError:
                deltas.append(np.inf)
                continue
            mu_ref, _, _ = gaussian_nls_grid(x, y)
            deltas.append(abs(fit.mu - mu_ref))
        median = float(np.median(deltas))
        verdict(
            "criterion 3 (oracle median)",
            median <= 0.05 * MM,
            f"median |iterative - grid NLS| = {median / MM:.4f} mm over 1000 trials (bound 0.05)",
        )

    def test_shift_equivariance_exact(self):
        x = np.array([0.0, 4.0, 8.0, 12.0]) / 1024.0
        y = 2.5 * np.exp(-((x - 6.0 / 1024.0) ** 2) / (2 * (5 * MM) ** 2))
        c = 1.0 / 256.0
        f0 = fit_gaussian_iterative(x, y, noise_floor=0.0)
        f1 = fit_gaussian_iterative(x + c, y, noise_floor=0.0)
        verdict(
            "criterion 3 (shift equivariance)",
            f1.mu - f0.mu == c and f1.sigma == f0.sigma,
            f"mu shift = {f1.mu - f0.mu!r} for input shift {c!r} (exact)",
        )

    def test_amplitude_scale_invariance_exact(self):
        x4 = np.array([0.0, 5.0, 10.0, 15.0]) * MM
        x, y = augment_samples(x4, 1.7 * np.exp(-((x4 - 8.4 * MM) ** 2) / (2 * (5.2 * MM) ** 2)))
        f0 = fit_gaussian_iterative(x, y, noise_floor=0.0)
        f1 = fit_gaussian_iterative(x, 4.0 * y, noise_floor=0.0)
        ok = abs(f1.mu - f0.mu) < 1e-12 and abs(f1.sigma - f0.sigma) < 1e-12 * f0.sigma
        verdict(
            "criterion 3 (amplitude invariance)",
            ok,
            f"|d mu| = {abs(f1.mu - f0.mu):.2e} m under 4x amplitude scaling",
        )


class TestCriterion4SolverOracle:
    def test_lm_matches_svd_rigid_fit(self):
        # the closed-form pose against Levenberg-Marquardt started 5 degrees
        # and 50 mm away from the answer, and against the SVD oracle
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        m_fit = pose_to_matrix(solve(p_l, p_o).beta)
        m_svd = rigid_fit_svd(BOARD_POINTS_L, p_o)
        rot_err = float(np.linalg.norm(m_fit[:, :3] - m_svd[:, :3]))
        trans_err = float(np.linalg.norm(m_fit[:, 3] - m_svd[:, 3]))
        for start in perturbed_starts(TRUTH):
            beta, _, _, converged = levenberg_marquardt(p_l, p_o, start)
            m_lm = pose_to_matrix(beta)
            rot_err = max(rot_err, float(np.linalg.norm(m_fit[:, :3] - m_lm[:, :3])))
            trans_err = max(trans_err, float(np.linalg.norm(m_fit[:, 3] - m_lm[:, 3])))
            assert converged
        verdict(
            "criterion 4 (LM and SVD oracles)",
            rot_err < 1e-8 and trans_err < 1e-8,
            f"Frobenius rotation gap {rot_err:.2e}, translation gap {trans_err:.2e} m "
            f"over 27 LM starts and the SVD fit (bounds 1e-8)",
        )

    def test_jacobian_matches_central_differences(self):
        rng = np.random.default_rng(444)
        p_l, p_o = make_correspondences_from_pose(TRUTH, BOARD_POINTS_L)
        worst = 0.0
        for _ in range(100):
            beta = Pose6DOF(*rng.uniform(-1.2, 1.2, 3), *rng.uniform(-2, 2, 3))
            ja = jacobian(beta, p_l)
            jf = central_difference_jacobian(beta, p_l, p_o)
            worst = max(worst, float(np.max(np.abs(ja - jf))))
        verdict(
            "criterion 4 (Jacobian)",
            worst < 1e-5,
            f"max |analytic - central FD| = {worst:.2e} over 100 random poses (bound 1e-5)",
        )


class TestCriterion5Ransac:
    def test_injected_index_slips_recovered(self):
        rng = np.random.default_rng(555)
        n = 50
        alpha = np.linspace(15.0, 15.6, n) + rng.normal(0, 0.02, n)
        mu_clean = 4.0 + 44.0 * (alpha - 15.0) + rng.normal(0, 0.25, n)
        out = rng.choice(n, size=5, replace=False)  # 10 % one-index slips
        mu = mu_clean.copy()
        mu[out] += 9.7
        model = build_azimuth_center_model(alpha, mu)
        clean_tau = float(np.polyfit(alpha, mu_clean, 1)[0])
        flagged = set(np.nonzero(~model.inlier_mask)[0])
        slope_err = abs(model.tau - clean_tau) / abs(clean_tau)
        verdict(
            "criterion 5",
            flagged == set(out) and slope_err < 0.01,
            f"flagged {sorted(flagged)} == injected {sorted(out)}; "
            f"slope within {100 * slope_err:.3f} % of the clean fit (bound 1 %)",
        )


class TestCriterion6GeometryConstants:
    def test_simulator_resolutions_at_2p5m(self):
        lidar = LidarModel(range_noise_sigma=0.0, azimuth_jitter_sigma_deg=0.0)
        frame = simulate_scan(BoardModel(), lidar, Pose6DOF(0, 0, 0, 0, -2.5, 0), seed=0)
        _, _, _, ch, _, _ = frame.beam_arrays()
        pts = frame.truth.board_positions
        row = ch == 8
        x = np.sort(pts[row][:, 0])
        h_res = float(np.diff(x)[np.abs(x[:-1]) < 0.05].mean())
        z_lo = pts[(ch == 7) & (np.abs(pts[:, 0]) < 0.02)][:, 2].mean()
        z_hi = pts[(ch == 8) & (np.abs(pts[:, 0]) < 0.02)][:, 2].mean()
        v_res = float(z_hi - z_lo)
        ok = abs(h_res - 8.7 * MM) <= 0.1 * MM and abs(v_res - 87.3 * MM) <= 0.1 * MM
        verdict(
            "criterion 6",
            ok,
            f"H_res {h_res / MM:.2f} mm (8.7 +- 0.1), V_res {v_res / MM:.2f} mm (87.3 +- 0.1)",
        )


class TestCriterion7AfeStability:
    def test_q_factor(self):
        q = q_factor(TiaParams())
        verdict(
            "criterion 7",
            abs(q - 0.47) <= 0.05 and q < 0.5,
            f"Q = {q:.3f} (0.47 +- 0.05, overdamped < 0.5)",
        )


class TestCriterion8Determinism:
    def test_sweep_csvs_byte_identical(self):
        scene = make_bench_scene("horizontal")
        spec = SweepSpec(parameter="yaw", start=-1.0, stop=1.0, step=1.0, scans_per_point=10, seed=7)
        runs = []
        for _ in range(2):
            stats = run_sweep(scene, spec)
            runs.append(sweep_csvs(scene, spec, stats))
        ok = runs[0] == runs[1]
        verdict(
            "criterion 8",
            ok,
            "repeated sweep with identical seeds produced byte-identical CSVs",
        )
