import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdcalib.afe import PdSignalRecord
from pdcalib.beam_center import (
    AUGMENT_VALUE_V,
    CONVERGENCE_TOL_M,
    FIT_STATUS,
    NOISE_FLOOR_V,
    GaussianFitError,
    augment_samples,
    beams_on_pd,
    fit_gaussian_batch,
    fit_gaussian_iterative,
    select_key_beam,
    select_key_beams,
)
from oracles import gaussian_nls_grid, guo_fit_scalar

MM = 1e-3
X4 = np.array([0.0, 5.0, 10.0, 15.0]) * MM  # default sampled element positions


def gaussian(x, mu, sigma, amp):
    return amp * np.exp(-((x - mu) ** 2) / (2 * sigma ** 2))


NOISY_TRIALS = 150


def _noisy_fit_deltas(samples):
    """|fit - grid NLS| and |fit - truth| of the centers of noisy spots in the
    central fit window, each fitted on ``samples(noisy voltages)``, an (x, y)
    pair; trials whose fit fails are left out."""
    rng = np.random.default_rng(77)
    deltas, errors = [], []
    for _ in range(NOISY_TRIALS):
        mu = rng.uniform(3.5, 11.5) * MM
        x, y = samples(gaussian(X4, mu, 4.9 * MM, 2.9) + rng.normal(0.0, 0.1, size=4))
        try:
            fit = fit_gaussian_iterative(x, y)
        except GaussianFitError:
            continue
        mu_ref, _, _ = gaussian_nls_grid(x, y)
        deltas.append(abs(fit.mu - mu_ref))
        errors.append(abs(fit.mu - mu))
    return deltas, errors


class TestAugmentation:
    def test_four_in_six_out(self):
        x, y = augment_samples(X4, gaussian(X4, 7.5 * MM, 5 * MM, 3.0))
        assert len(x) == 6 and len(y) == 6

    def test_anchor_values_fixed(self):
        x, y = augment_samples(X4, np.array([9.0, 9.0, 9.0, 9.0]))
        assert x[-2] == -5 * MM and x[-1] == 20 * MM
        assert y[-2] == AUGMENT_VALUE_V and y[-1] == AUGMENT_VALUE_V

    def test_double_augmentation_rejected(self):
        x, y = augment_samples(X4, np.ones(4))
        with pytest.raises(ValueError):
            augment_samples(x, y)

    def test_anchored_noisy_fits_match_brute_force_oracle(self):
        # the fit's check against the grid NLS, on the four samples plus their two anchors
        def anchored(y):
            x, y = augment_samples(X4, y)
            return x, np.maximum(y, AUGMENT_VALUE_V)

        deltas, errors = _noisy_fit_deltas(anchored)
        assert len(deltas) > 0.9 * NOISY_TRIALS
        assert np.median(deltas) < 0.05 * MM
        assert np.mean(np.asarray(errors) < 0.5 * MM) > 0.95

    def test_stack_gets_anchors_on_every_row(self):
        y = np.arange(12.0).reshape(3, 4)
        x, y_aug = augment_samples(np.broadcast_to(X4, y.shape), y)
        assert x.shape == y_aug.shape == (3, 6)
        for k in range(3):
            x1, y1 = augment_samples(X4, y[k])
            np.testing.assert_array_equal(x[k], x1)
            np.testing.assert_array_equal(y_aug[k], y1)


class TestGaussianFit:
    def test_noiseless_recovery(self):
        x, y = augment_samples(X4, gaussian(X4, 7.5 * MM, 5 * MM, 3.0))
        fit = fit_gaussian_iterative(x, y)
        # anchors sit symmetrically about 7.5 mm, so the center is exact
        assert fit.mu == pytest.approx(7.5 * MM, abs=1e-6 * MM)
        assert fit.converged

    def test_coefficient_arithmetic(self):
        # samples generated from exp(a2 x^2 + a1 x + a0) with a2 = -0.02 /mm^2,
        # a1 = 0.3 /mm recover mu = 7.5 mm and sigma^2 = 25 mm^2 in one pass
        a2, a1, a0 = -0.02 / MM ** 2, 0.3 / MM, -1.0
        x = np.array([1.0, 4.0, 8.0, 12.0, 14.0]) * MM
        y = np.exp(a2 * x ** 2 + a1 * x + a0)
        fit = fit_gaussian_iterative(x, y, k_max=1, noise_floor=0.0)
        assert fit.mu == pytest.approx(7.5 * MM, rel=1e-9)
        assert fit.sigma ** 2 == pytest.approx(25 * MM ** 2, rel=1e-9)

    def test_shift_equivariance_exact(self):
        # dyadic positions and shift keep the centered abscissa bit-identical
        x = np.array([0.0, 4.0, 8.0, 12.0]) / 1024.0
        y = gaussian(x, 6.0 / 1024.0, 5 * MM, 2.5)
        c = 1.0 / 256.0
        f0 = fit_gaussian_iterative(x, y, noise_floor=0.0)
        f1 = fit_gaussian_iterative(x + c, y, noise_floor=0.0)
        assert f1.mu - f0.mu == c
        assert f1.sigma == f0.sigma

    def test_shift_equivariance_general(self):
        rng = np.random.default_rng(2)
        x, y = augment_samples(X4, gaussian(X4, 6.2 * MM, 4.8 * MM, 2.2) + 0.05 * rng.normal(size=4))
        c = 3.3 * MM
        f0 = fit_gaussian_iterative(x, y)
        f1 = fit_gaussian_iterative(x + c, y)
        assert f1.mu - f0.mu == pytest.approx(c, abs=1e-12)

    def test_amplitude_scale_invariance(self):
        x, y = augment_samples(X4, gaussian(X4, 8.4 * MM, 5.2 * MM, 1.7))
        lam = 4.0
        f0 = fit_gaussian_iterative(x, y, noise_floor=0.0)
        f1 = fit_gaussian_iterative(x, lam * y, noise_floor=0.0)
        assert f1.mu == pytest.approx(f0.mu, abs=1e-12)
        assert f1.sigma == pytest.approx(f0.sigma, rel=1e-12)
        assert f1.amplitude == pytest.approx(lam * f0.amplitude, rel=1e-10)

    def test_noiseless_error_monotone_over_iterations(self):
        # all six samples exactly on the Gaussian (anchors included): the
        # log-quadratic is exact, so the error stays at float noise for all k
        mu_true = 9.1 * MM
        x = np.concatenate([X4, [-5 * MM, 20 * MM]])
        y = gaussian(x, mu_true, 5 * MM, 2.9)
        errors = [
            abs(fit_gaussian_iterative(x, y, k_max=k, noise_floor=0.0).mu - mu_true)
            for k in range(1, 11)
        ]
        assert errors[0] < 1e-9 * MM
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12

    def test_noisy_fits_match_brute_force_oracle(self):
        # smaller replica of the acceptance check, on the pipeline's input:
        # the four sampled voltages clamped at the noise floor. The iterative
        # fit tracks a dense grid-search NLS on identical data to well under
        # 0.05 mm median. The 0.5 mm headline applies to spots in the central
        # fit window ([3.5, 11.5] mm); at the array ends both estimators
        # degrade alike.
        deltas, errors = _noisy_fit_deltas(lambda y: (X4, np.maximum(y, NOISE_FLOOR_V)))
        assert len(deltas) > 0.9 * NOISY_TRIALS
        assert np.median(deltas) < 0.05 * MM
        assert np.mean(np.asarray(errors) < 0.5 * MM) > 0.95

    def test_non_concave_rejected(self):
        x = np.array([0.0, 5.0, 10.0, 15.0]) * MM
        y = np.array([0.2, 0.15, 0.2, 0.3])  # rising at the edges
        with pytest.raises(GaussianFitError):
            fit_gaussian_iterative(x, y, k_max=1, noise_floor=0.0)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(GaussianFitError, match="^element positions must be distinct$"):
            fit_gaussian_iterative(np.array([0.0, 0.0, 1.0]), np.ones(3))


class TestConvergedFlag:
    """``converged`` is |delta mu| between the final two passes, nothing else."""

    def test_flag_matches_final_pass_delta(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(200):
            clean = gaussian(X4, rng.uniform(0.0, 15.0) * MM, rng.uniform(2.0, 8.0) * MM, 2.9)
            x, y = augment_samples(X4, np.clip(clean + rng.normal(0.0, 0.3, 4), 0.0, 10.0))
            try:
                last = fit_gaussian_iterative(x, y)
                before = fit_gaussian_iterative(x, y, k_max=9)
            except GaussianFitError:
                continue
            delta = abs(last.mu - before.mu)
            if abs(delta - CONVERGENCE_TOL_M) < 1e-12:
                continue  # too close to the tolerance to call
            assert last.converged == (delta < CONVERGENCE_TOL_M)
            checked += 1
        assert checked > 150

    def test_early_agreement_is_not_convergence(self):
        # passes 1 and 2 agree to 0.8 um, then the center drifts by > 13 um
        # per pass up to the last one
        x, y = augment_samples(X4, np.array([2.962, 4.522, 5.436, 2.434]))
        mus = [fit_gaussian_iterative(x, y, k_max=k).mu for k in range(1, 11)]
        deltas = np.abs(np.diff(mus))
        assert deltas[0] < CONVERGENCE_TOL_M < deltas[-1]
        assert not fit_gaussian_iterative(x, y).converged

    def test_single_pass_never_converged(self):
        x, y = augment_samples(X4, gaussian(X4, 7.5 * MM, 5 * MM, 3.0))
        assert not fit_gaussian_iterative(x, y, k_max=1).converged


X6 = augment_samples(X4, np.zeros(4))[0]  # sampled positions plus the anchors
BAD_ROWS = {
    # name: (six voltages, noise floor, why the fit fails)
    "non-concave": (np.array([1.0, 0.5, 0.5, 1.0, 5.0, 5.0]), 0.0, "non-concave"),
    "all at the floor": (np.zeros(6), AUGMENT_VALUE_V, "non-concave"),
    "center outside the window": (gaussian(X6, 40 * MM, 10 * MM, 3.0), 0.0, "outside"),
    "zero voltages, zero floor": (np.zeros(6), 0.0, "at least 3 positive"),
    # weights y^2 underflow to 0 although three samples are positive
    "singular": (np.array([1e-200, 1e-200, 1e-200, 0.0, 0.0, 0.0]), 0.0, "singular"),
    "not a number": (np.array([np.nan, 2.0, 3.0, 2.0, 0.1, 0.1]), AUGMENT_VALUE_V, "sigma"),
}


def scalar_fit(x, y, noise_floor):
    try:
        return fit_gaussian_iterative(x, y, noise_floor=noise_floor)
    except GaussianFitError:
        return None


class TestBatchedFit:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n_good=st.integers(1, 12),
        bad=st.lists(st.sampled_from(sorted(BAD_ROWS)), max_size=4),
    )
    def test_rows_match_the_one_row_fit(self, seed, n_good, bad):
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-8.0, 23.0, n_good) * MM
        sigma = rng.uniform(1.5, 9.0, n_good) * MM
        amp = rng.uniform(0.05, 9.0, n_good)
        noise = rng.uniform(0.0, 0.5, (n_good, 1)) * rng.normal(size=(n_good, 4))
        clean = amp[:, None] * np.exp(-((X4 - mu[:, None]) ** 2) / (2 * sigma[:, None] ** 2))
        x_good, y_good = augment_samples(
            np.broadcast_to(X4, (n_good, 4)), np.clip(clean + noise, 0.0, 10.0)
        )
        floor_good = rng.choice([0.0, 0.05, AUGMENT_VALUE_V], n_good)

        rows = [(y, f) for y, f in zip(y_good, floor_good)] + [BAD_ROWS[k][:2] for k in bad]
        order = rng.permutation(len(rows))
        y = np.array([rows[k][0] for k in order])
        floor = np.array([rows[k][1] for k in order])
        x = np.broadcast_to(X6, y.shape)
        fit = fit_gaussian_batch(x, y, noise_floor=floor)

        for i in range(len(y)):
            one = scalar_fit(x[i], y[i], floor[i])
            ref = guo_fit_scalar(x[i], y[i], noise_floor=floor[i])
            assert fit.ok[i] == (one is not None) == (ref is not None), FIT_STATUS[fit.status[i]]
            if one is None:
                assert np.isnan(fit.mu[i]) and not fit.converged[i]
                continue
            assert fit.mu[i] == one.mu == ref
            assert fit.sigma[i] == one.sigma
            assert fit.converged[i] == one.converged

        # the good rows come out the same with or without the bad ones
        alone = fit_gaussian_batch(x_good, y_good, noise_floor=floor_good)
        good = np.argsort(order)[:n_good]
        for name in ("mu", "sigma", "amplitude", "converged", "status"):
            np.testing.assert_array_equal(getattr(fit, name)[good], getattr(alone, name))

    @pytest.mark.parametrize("name", sorted(BAD_ROWS))
    def test_bad_row_fails_alone_and_in_a_stack(self, name):
        y_bad, floor_bad, reason = BAD_ROWS[name]
        with pytest.raises(GaussianFitError, match=reason):
            fit_gaussian_iterative(X6, y_bad, noise_floor=floor_bad)
        _, y_good = augment_samples(X4, gaussian(X4, 7.1 * MM, 5 * MM, 2.5))
        y = np.array([y_good, y_bad, y_good])
        fit = fit_gaussian_batch(np.broadcast_to(X6, y.shape), y, noise_floor=[0.1, floor_bad, 0.1])
        assert list(fit.ok) == [True, False, True]
        assert fit.mu[0] == fit.mu[2] == fit_gaussian_iterative(X6, y_good).mu

    def test_repeated_positions_fail_the_row(self):
        x = np.array([X6, [0.0, 0.0, 10 * MM, 15 * MM, -5 * MM, 20 * MM]])
        y = np.broadcast_to(gaussian(X6, 7.5 * MM, 5 * MM, 3.0), x.shape)
        assert list(fit_gaussian_batch(x, y).ok) == [True, False]

    def test_empty_stack(self):
        fit = fit_gaussian_batch(np.zeros((0, 6)), np.zeros((0, 6)))
        assert fit.mu.shape == fit.ok.shape == (0,)

    def test_input_checks(self):
        with pytest.raises(ValueError):
            fit_gaussian_batch(X6, X6)  # 1-D
        with pytest.raises(ValueError):
            fit_gaussian_batch(np.zeros((2, 6)), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            fit_gaussian_batch(np.zeros((2, 6)), np.zeros((2, 6)), k_max=0)
        with pytest.raises(ValueError):
            fit_gaussian_batch(np.zeros((2, 6)), np.zeros((2, 6)), noise_floor=[0.1] * 3)


class TestKeyBeamSelection:
    def test_brightest_beam_wins(self):
        # the event nearest the array middle reads the dimmer beam here
        assert select_key_beam(np.array([2.1, 7.0, 13.2]) * MM, [70.0, 40.0, 20.0]) == 0
        assert select_key_beam(np.array([2.1, 7.0, 13.2]) * MM, [20.0, 40.0, 70.0]) == 2

    def test_single_fit(self):
        assert select_key_beam([1.0 * MM], [30.0]) == 0

    def test_tie_goes_to_earlier(self):
        assert select_key_beam(np.array([6.5, 8.5, 9.0]) * MM, [20.0, 70.0, 70.0]) == 1

    def test_failed_fits_skipped(self):
        assert select_key_beam([np.nan, 9.0 * MM, 3.0 * MM], [90.0, 20.0, 30.0]) == 2
        with pytest.raises(GaussianFitError):
            select_key_beam([np.nan, np.nan], [90.0, 20.0])

    @settings(max_examples=200, deadline=None)
    @given(
        n_groups=st.integers(1, 6),
        # few distinct levels and times, so ties are common; NaN centers make
        # some groups hold no usable fit
        events=st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([np.nan, 2.0 * MM, 7.5 * MM]),
                st.sampled_from([20.0, 45.0, 70.0]),
                st.sampled_from([0.0, 1e-6, 2e-6]),
            ),
            max_size=25,
        ),
    )
    def test_grouped_selection_matches_one_group_case(self, n_groups, events):
        group, centers, refl, times = (np.array(c) for c in zip(*events)) if events else [np.zeros(0)] * 4
        group = (group % n_groups).astype(int)
        keys = select_key_beams(centers, refl, times, group, n_groups)
        for g in range(n_groups):
            mine = np.flatnonzero(group == g)
            fired = mine[np.argsort(times[mine], kind="stable")]  # firing order, as beams_on_pd gives it
            try:
                want = fired[select_key_beam(centers[fired], refl[fired])]
            except GaussianFitError:
                want = -1
            assert keys[g] == want


class TestBeamGrouping:
    def _record(self, times, volts):
        return PdSignalRecord(
            "pd", np.asarray(volts, dtype=float), np.asarray(times, dtype=float), (0, 5, 10, 15)
        )

    def test_three_cycles_three_events(self):
        rec = self._record(
            [0.0, 55e-6, 110e-6],
            [[1, 2, 1, 0.2], [0.5, 2, 2, 0.5], [0.2, 1, 2, 1]],
        )
        assert len(beams_on_pd(rec)[0]) == 3

    def test_single_event(self):
        rec = self._record([0.0], [[1, 2, 1, 0.2]])
        times, volts = beams_on_pd(rec)
        assert times.tolist() == [0.0] and volts.shape == (1, 4)

    def test_one_entry_per_event_in_firing_order(self):
        # events 4 us apart stay two events: each names its own firing
        volts = [[1, 2, 1, 0.2], [0.5, 2, 2, 0.5], [0.2, 1, 2, 1], [0.1, 0.1, 3, 0.1]]
        rec = self._record([55e-6, 0.0, 110e-6, 4e-6], volts)
        times, got = beams_on_pd(rec)
        assert times.tolist() == [0.0, 4e-6, 55e-6, 110e-6]
        np.testing.assert_array_equal(got, np.array(volts)[[1, 3, 0, 2]])

    def test_equal_times_keep_record_order(self):
        rec = self._record([0.0, 0.0], [[1, 2, 1, 0.2], [0.2, 1, 2, 1]])
        np.testing.assert_array_equal(beams_on_pd(rec)[1], rec.element_voltages)

    def test_empty_record(self):
        rec = self._record(np.zeros((0,)), np.zeros((0, 4)))
        times, volts = beams_on_pd(rec)
        assert times.shape == (0,) and volts.shape == (0, 4)
