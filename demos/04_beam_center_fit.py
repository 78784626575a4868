#!/usr/bin/env python3
"""Sub-millimeter beam centers from four diode samples.

The DAQ reads only four of the sixteen array elements. Two anchor samples
at the noise level are appended outside the array, the log of the profile
is fit as a quadratic with iteratively reweighted least squares, and the
vertex gives the center - to a fraction of a millimeter, an order below
the ~9 mm beam spacing.
"""

import numpy as np

from pdcalib import (
    augment_samples,
    beams_on_pd,
    fit_gaussian_batch,
    find_pd_beam,
    fit_gaussian_iterative,
    make_bench_scene,
    select_key_beam,
    simulate_scan,
)

MM = 1e-3

print("=== a noiseless sanity fit ===")
x4 = np.array([0.0, 5.0, 10.0, 15.0]) * MM
mu_true, sigma_true, amp = 6.8 * MM, 4.9 * MM, 2.9
y4 = amp * np.exp(-((x4 - mu_true) ** 2) / (2 * sigma_true ** 2))
x, y = augment_samples(x4, y4)
fit = fit_gaussian_iterative(x, y)
print(f"truth   mu = {mu_true / MM:.3f} mm  sigma = {sigma_true / MM:.3f} mm")
print(f"fitted  mu = {fit.mu / MM:.3f} mm  sigma = {fit.sigma / MM:.3f} mm  "
      f"amplitude = {fit.amplitude:.3f} V ({fit.iterations_used} passes)")

print()
print("=== centers from a simulated module, against ground truth ===")
scene = make_bench_scene("horizontal")
frame = simulate_scan(scene.board, scene.lidar, scene.base_pose, seed=11, afe=scene.afe)
pd = scene.board.pd_modules[0]
rec = next(r for r in frame.pd_records if r.pd_id == pd.pd_id)
positions = pd.element_positions()[list(rec.sampled_channels)]
times, volts = beams_on_pd(rec)
# each event's firing time names the beam that made it
one_scan = np.zeros(len(frame.beams), int)
rows = find_pd_beam(times, np.zeros(len(times), int), frame.beams, one_scan, scene.lidar)
reflectivity = frame.beams["reflectivity"][rows]
# all events of the module in one batched fit; a failed row reads NaN
xa, ya = augment_samples(np.broadcast_to(positions, volts.shape), volts)
centers = fit_gaussian_batch(xa, ya).mu

truth_pts = frame.truth.board_positions[frame.truth.pd_event_beams[pd.pd_id]]
for k, mu in enumerate(centers):
    true_mu = truth_pts[k][0] - pd.offset[0] + pd.center_local
    print(f"event {k}: fitted center {mu / MM:7.3f} mm | true {true_mu / MM:7.3f} mm "
        f"| error {abs(mu - true_mu) / MM:.3f} mm | beam reflectivity {reflectivity[k]:5.1f}")

key = select_key_beam(centers, reflectivity)
print(f"key beam = event {key} (its beam reads the highest reflectivity)")
print()
print("the module's surface out-reflects the black surround, so the beam")
print("whose spot lies most on it reads brightest; its neighbours sit near")
print("or beyond the array ends, where the fit extrapolates and degrades.")
print("The key center lands within a few tenths of a millimeter of truth at")
print("0.1 V noise: an order below the ~9 mm beam spacing, and the")
print("sub-resolution measurement the calibration rests on.")
