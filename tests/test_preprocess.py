import math

import numpy as np
import pytest
from conftest import simulate_batch
from hypothesis import example, given, settings, strategies as st
from oracles import extent_error_scalar, graph_labels, radius_graph_labels, radius_graph_roi, raster_links

from pdcalib import preprocess
from pdcalib.bench import make_bench_scene
from pdcalib.geometry import Pose6DOF, polar_to_cartesian_array, pose_to_matrix
from pdcalib.preprocess import (
    AZIMUTH_REACH,
    MIN_POINTS,
    PlaneModel,
    _components,
    _extent_error,
    _raster_components,
    SegmentationError,
    fit_plane,
    range_to_plane,
    refine_plane_ranges,
    segment_frames,
    segment_target,
)
from pdcalib.scene import AfeConfig, BoardModel, LidarModel, ScanFrame, simulate_scan

DEG = math.pi / 180.0


def points_of(beams):
    """The (N, 3) sensor-frame points of a batch's returns."""
    return polar_to_cartesian_array(beams["omega"], beams["alpha"], beams["r"])


QUIET = LidarModel(range_noise_sigma=0.0, azimuth_jitter_sigma_deg=0.0)
AFE0 = AfeConfig(voltage_noise_sigma=0.0)
POSE = Pose6DOF(0, 0, 0, -0.7, -2.5, 0)


def true_plane_in_sensor_frame(pose):
    m = pose_to_matrix(pose)
    n = m[:, :3].T @ np.array([0.0, 1.0, 0.0])
    d = float(n @ (m[:, :3].T @ -m[:, 3]))
    if n[1] > 0:
        n, d = -n, -d
    return n, d


class TestSegmentation:
    def test_board_only_scene_keeps_every_beam(self):
        frame = simulate_scan(BoardModel(), QUIET, POSE, seed=0, afe=AFE0)
        roi = segment_target(frame, 1.0, 0.54)
        assert len(roi) == len(frame.beams)

    def test_wall_behind_is_excluded(self):
        frame = simulate_scan(
            BoardModel(), LidarModel(), POSE, seed=0, background_depth=5.0
        )
        roi = segment_target(frame, 1.0, 0.54)
        assert np.all(frame.truth.is_board[roi])
        assert len(roi) == int(frame.truth.is_board.sum())

    def test_empty_frame_rejected(self):
        frame = ScanFrame(scan_id=0, beams=[], pd_records=[])
        with pytest.raises(SegmentationError):
            segment_target(frame, 1.0, 0.54)

    def test_batch_sizes_must_split_the_returns(self):
        frame = simulate_scan(BoardModel(), QUIET, POSE, seed=0, afe=AFE0)
        n = len(frame.beams)
        for sizes in ([n - 1], [n, 1], [n + 1, -1]):
            with pytest.raises(ValueError, match="do not split"):
                segment_frames(frame.beams, points_of(frame.beams), sizes, 1.0, 0.54)

    def test_no_matching_extent_rejected(self):
        frame = simulate_scan(BoardModel(), QUIET, POSE, seed=0, afe=AFE0)
        with pytest.raises(SegmentationError) as err:
            segment_target(frame, 5.0, 3.0)
        assert "clusters" in str(err.value)

    # 2-degree rows leave up to one row gap (87-140 mm here) short of each
    # board edge; beyond about 3 m the 0.54 m board shows only 0.36-0.42 m
    @pytest.mark.parametrize("dy", [-2.5, -3.2, -3.4, -4.0])
    def test_board_only_scene_segments_at_range(self, dy):
        frame = simulate_scan(BoardModel(), LidarModel(), Pose6DOF(0, 0, 0, -0.7, dy, 0), seed=0)
        roi = segment_target(frame, 1.0, 0.54)
        assert len(roi) == len(frame.beams)

    @pytest.mark.parametrize("dy", [-2.5, -3.2, -4.0])
    @pytest.mark.parametrize("board", [BoardModel(height=0.27), BoardModel(width=2.0)],
                             ids=["half-height", "double-width"])
    def test_misfit_board_refused_at_range(self, board, dy):
        frame = simulate_scan(board, LidarModel(), Pose6DOF(0, 0, 0, -0.7, dy, 0), seed=0)
        with pytest.raises(SegmentationError, match="no cluster matches"):
            segment_target(frame, 1.0, 0.54)


def stripe(frame, columns, channels=None):
    """Mask of the board returns at these azimuth indices (and channels)."""
    b = frame.beams
    hit = frame.truth.is_board & np.isin(b["azimuth_index"], columns)
    return hit if channels is None else hit & np.isin(b["channel"], channels)


def occlude(frame, hit, depth=0.5, keep=None):
    """The frame with an occluder ``depth`` m in front of the ``hit`` returns.

    Those returns move that far nearer along their rays; ``keep`` then drops
    the returns it marks False. Returns the frame and the occluded mask.
    """
    b = frame.beams.copy()
    b["r"][hit] -= depth
    if keep is None:
        keep = np.ones(len(b), dtype=bool)
    return ScanFrame(scan_id=frame.scan_id, beams=b[keep], pd_records=[]), hit[keep]


def board_columns(frame):
    return np.unique(frame.beams["azimuth_index"][frame.truth.is_board])


def stripe_cells(frame, pos, width, spare_a_row, keep, rng):
    """Columns and channels of an occluding stripe ``width`` returns wide.

    The stripe starts at fraction ``pos`` of the board's columns and spans
    every row (channels None). With ``spare_a_row`` it instead keeps four
    board columns clear on either side and leaves out one row that still
    has board returns on both sides after the dropouts ``keep`` marks; that
    row joins the sides.
    """
    cols = board_columns(frame)
    margin = 4 if spare_a_row else 0
    start = margin + int(pos * (len(cols) - width - 2 * margin))
    columns = cols[start:start + width]
    if not spare_a_row:
        return columns, None
    b, board = frame.beams, frame.truth.is_board & keep
    both = np.intersect1d(
        b["channel"][board & (b["azimuth_index"] < columns[0])],
        b["channel"][board & (b["azimuth_index"] > columns[-1])],
    )
    if len(both) == 0:
        return columns, None
    rows = np.unique(b["channel"][frame.truth.is_board])
    return columns, rows[rows != rng.choice(both)]


# the frames of test_raster_clusters_refine_the_radius_graph: seed, yaw
# (deg), dx, dy, background wall depth, dropout fraction, and an occluding
# stripe or none
FRAME_PARAMS = st.tuples(
    st.integers(0, 2 ** 16),
    st.floats(-8.0, 8.0),
    st.floats(-0.9, -0.5),
    st.floats(-2.6, -1.5),
    st.sampled_from([None, 0.5, 1.0, 5.0]),
    st.floats(0.0, 0.3),
    st.none() | st.tuples(
        st.floats(0.0, 1.0),      # position across the board's columns
        st.integers(1, 4),        # width in returns
        st.floats(0.3, 1.0),      # depth in front of the board, m
        st.booleans(),            # spare a row
    ),
)


def scene_frame(seed, yaw_deg, dx, dy, wall, dropout, occluder, scan_id=0):
    """A frame of ``FRAME_PARAMS``, built as the radius-graph test builds
    its frame, and whether its occluder spans every row."""
    frame = simulate_scan(
        BoardModel(), LidarModel(), Pose6DOF(yaw_deg * DEG, 0, 0, dx, dy, 0), seed=seed,
        scan_id=scan_id, background_depth=wall,
    )
    rng = np.random.default_rng(seed)
    keep = rng.random(len(frame.beams)) >= dropout
    hit, every_row, depth = np.zeros(len(frame.beams), dtype=bool), False, 0.0
    if occluder is not None:
        pos, width, depth, spare_a_row = occluder
        columns, channels = stripe_cells(frame, pos, width, spare_a_row, keep, rng)
        hit, every_row = stripe(frame, columns, channels), channels is None
    occluded, _ = occlude(frame, hit, depth, keep)
    return occluded, every_row


def batch_rows(beams, sizes):
    """The frame of each return of a batch, and its raster row."""
    scan = np.repeat(np.arange(len(sizes)), sizes)
    span = int(np.ptp(beams["channel"]))
    return scan, scan * (span + 2) + beams["channel"]


class TestRasterSegmentation:
    """The raster rule, with single-linkage clustering as the oracle."""

    @pytest.mark.parametrize("width", [AZIMUTH_REACH, AZIMUTH_REACH + 2])
    def test_stripe_across_every_row_raises(self, width):
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=3)
        cols = board_columns(frame)
        mid = len(cols) // 2
        occluded, _ = occlude(frame, stripe(frame, cols[mid:mid + width]))
        assert radius_graph_roi(occluded, 1.0, 0.54) is not None  # joined across the stripe
        with pytest.raises(SegmentationError, match="no cluster matches"):
            segment_target(occluded, 1.0, 0.54)

    def test_one_return_stripe_keeps_the_board_minus_the_stripe(self):
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=3)
        cols = board_columns(frame)
        occluded, hit = occlude(frame, stripe(frame, cols[len(cols) // 2]))
        roi = segment_target(occluded, 1.0, 0.54)
        np.testing.assert_array_equal(roi, np.flatnonzero(~hit))

    def test_stripe_sparing_one_row_keeps_the_board(self):
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=3)
        cols = board_columns(frame)
        rows = np.unique(frame.beams["channel"])
        mid = len(cols) // 2
        occluded, hit = occlude(frame, stripe(frame, cols[mid:mid + 3], rows[1:]))
        roi = segment_target(occluded, 1.0, 0.54)
        np.testing.assert_array_equal(roi, np.flatnonzero(~hit))

    def test_diagonal_stripe_keeps_the_board(self):
        # two returns wide in every row, but each row's stripe starts two
        # columns right of the row below: the next channel's diagonal
        # neighbours join the sides
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=3)
        cols = board_columns(frame)
        rows = np.unique(frame.beams["channel"])
        start = len(cols) // 2 - len(rows)
        hit = np.logical_or.reduce(
            [stripe(frame, cols[start + 2 * k:start + 2 * k + 2], [row]) for k, row in enumerate(rows)]
        )
        occluded, hit = occlude(frame, hit)
        roi = segment_target(occluded, 1.0, 0.54)
        np.testing.assert_array_equal(roi, np.flatnonzero(~hit))

    def test_board_sized_piece_of_a_split_board_raises(self):
        # the stripe cuts a narrow piece off one side; the rest still has
        # the board's extents but is not the whole single-linkage cluster
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=3)
        cols = board_columns(frame)
        occluded, _ = occlude(frame, stripe(frame, cols[4:4 + AZIMUTH_REACH]))
        with pytest.raises(SegmentationError, match="piece"):
            segment_target(occluded, 1.0, 0.54)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        yaw_deg=st.floats(-8.0, 8.0),
        dx=st.floats(-0.9, -0.5),
        dy=st.floats(-2.6, -1.5),
        wall=st.sampled_from([None, 0.5, 1.0, 5.0]),
        dropout=st.floats(0.0, 0.3),
        occluder=st.none() | st.tuples(
            st.floats(0.0, 1.0),      # position across the board's columns
            st.integers(1, 4),        # width in returns
            st.floats(0.3, 1.0),      # depth in front of the board, m
            st.booleans(),            # spare a row
        ),
    )
    # dropouts cut a corner piece off the board cluster on the raster, though
    # the stripe spares a row
    @example(seed=359, yaw_deg=1.375, dx=-0.671875, dy=-1.6328125, wall=None, dropout=0.25,
             occluder=(0.0, 2, 1.0, True))
    def test_raster_clusters_refine_the_radius_graph(self, seed, yaw_deg, dx, dy, wall, dropout, occluder):
        frame = simulate_scan(
            BoardModel(), LidarModel(), Pose6DOF(yaw_deg * DEG, 0, 0, dx, dy, 0), seed=seed,
            background_depth=wall,
        )
        rng = np.random.default_rng(seed)
        keep = rng.random(len(frame.beams)) >= dropout
        hit, depth = np.zeros(len(frame.beams), dtype=bool), 0.0
        if occluder is not None:
            pos, width, depth, spare_a_row = occluder
            columns, channels = stripe_cells(frame, pos, width, spare_a_row, keep, rng)
            hit = stripe(frame, columns, channels)
        occluded, _ = occlude(frame, hit, depth, keep)

        b = occluded.beams
        pts = polar_to_cartesian_array(b["omega"], b["alpha"], b["r"])
        raster = _raster_components(pts, b["channel"], b["azimuth_index"], 0.15)
        oracle = radius_graph_labels(pts, 0.15)
        # each raster cluster lies inside one oracle cluster
        assert len(set(zip(raster.tolist(), oracle.tolist()))) == len(set(raster.tolist()))

        expected = radius_graph_roi(occluded, 1.0, 0.54)
        try:
            roi = segment_target(occluded, 1.0, 0.54)
        except SegmentationError:
            # refused exactly when the raster splits the single-linkage board
            # cluster, the documented safe outcome
            assert expected is None or len(np.unique(raster[expected])) > 1
        else:
            np.testing.assert_array_equal(roi, expected)

    @settings(max_examples=30, deadline=None)
    @given(params=st.lists(FRAME_PARAMS, min_size=1, max_size=6), empty=st.none() | st.integers(0, 6))
    def test_batch_segments_each_frame_as_alone(self, params, empty):
        frames = [scene_frame(*p, scan_id=k)[0] for k, p in enumerate(params)]
        if empty is not None:
            frames.insert(min(empty, len(frames)), ScanFrame(scan_id=len(frames), beams=[], pd_records=[]))
        beams = np.concatenate([f.beams for f in frames])
        sizes = [len(f.beams) for f in frames]
        offset = np.cumsum(sizes) - sizes
        rois, refused = [], None
        for k, frame in enumerate(frames):
            try:
                rois.append(segment_target(frame, 1.0, 0.54) + offset[k])
            except SegmentationError as exc:
                refused = (k, str(exc))
                break
        if refused is None:
            np.testing.assert_array_equal(segment_frames(beams, points_of(beams), sizes, 1.0, 0.54), np.concatenate(rois))
        else:
            with pytest.raises(SegmentationError) as err:
                segment_frames(beams, points_of(beams), sizes, 1.0, 0.54)
            assert (err.value.frame, str(err.value)) == refused

        if len(beams) == 0:
            return
        # the batch's raster links join no two frames, and the run labelling
        # labels their whole graph; the extent errors of its clusters match
        # the one-cluster oracle bit for bit
        scan, row = batch_rows(beams, sizes)
        pts = polar_to_cartesian_array(beams["omega"], beams["alpha"], beams["r"])
        u, v = raster_links(pts, row, beams["azimuth_index"], 0.15)
        assert np.array_equal(scan[u], scan[v])
        labels = _raster_components(pts, row, beams["azimuth_index"], 0.15)
        np.testing.assert_array_equal(labels, graph_labels(len(pts), u, v))
        big = np.flatnonzero(np.bincount(labels) >= MIN_POINTS)
        at = np.concatenate([np.flatnonzero(labels == lab) for lab in big] + [np.zeros(0, dtype=np.intp)])
        bounds = np.concatenate([[0], np.cumsum(np.bincount(labels)[big])])
        spread = np.array([np.ptp(pts[labels == lab], axis=0) for lab in big]).reshape(-1, 3)
        c = beams[at]
        got = _extent_error(spread, c["omega"], c["alpha"], c["r"], c["channel"], c["azimuth_index"], bounds, 1.0, 0.54)
        for k, lab in enumerate(big):
            one = beams[labels == lab]
            want = extent_error_scalar(spread[k], one["omega"], one["alpha"], one["r"], one["channel"],
                                       one["azimuth_index"], 1.0, 0.54)
            assert tuple(float(x[k]) for x in got) == tuple(float(x) for x in want)


@st.composite
def edge_lists(draw):
    """(n, u, v): a graph on 1..40 nodes, some isolated, with self-loops and
    repeated edges among its edges, in a random order."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges += [(k, k) for k in draw(st.lists(node, max_size=3))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=5))
    u, v = np.array(draw(st.permutations(edges)), dtype=np.intp).reshape(-1, 2).T
    return n, u, v


class TestComponents:
    """The hook-and-jump labelling, with scipy's connected components as the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(graph=edge_lists())
    @example(graph=(1, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)))
    @example(graph=(4, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)))
    @example(graph=(1, np.zeros(2, dtype=np.intp), np.zeros(2, dtype=np.intp)))
    def test_labels_match_scipy(self, graph):
        n, u, v = graph
        np.testing.assert_array_equal(_components(n, u, v), graph_labels(n, u, v))

    def test_long_path_in_scrambled_order(self):
        # a path through 500 nodes in a random order takes many merge
        # rounds; the last three nodes are isolated
        path = np.random.default_rng(0).permutation(500)
        n, u, v = 503, path[:-1], path[1:]
        np.testing.assert_array_equal(_components(n, u, v), graph_labels(n, u, v))

    def test_mixed_pd_batch_labels_match_scipy(self, monkeypatch):
        # the edge tables segmentation labels on mixed-PD frames, half of
        # them with a wall 1 m behind the board
        scene = make_bench_scene("all")
        frames = simulate_batch(scene, n=6, seed0=300)
        frames += [
            simulate_scan(scene.board, scene.lidar, scene.base_pose, seed=310 + k,
                          scan_id=6 + k, afe=scene.afe, background_depth=1.0)
            for k in range(6)
        ]
        calls = []

        def spy(n, u, v):
            labels = _components(n, u, v)
            calls.append((n, u, v, labels))
            return labels

        monkeypatch.setattr(preprocess, "_components", spy)
        for frame in frames:
            segment_target(frame, scene.board.width, scene.board.height)
        assert len(calls) == len(frames)
        assert max(labels.max() for _, _, _, labels in calls) >= 1  # the walls split off
        for n, u, v, labels in calls:
            np.testing.assert_array_equal(labels, graph_labels(n, u, v))


class TestPlaneFit:
    def test_four_corners_of_xy_plane(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0.0]])
        plane = fit_plane(pts)
        assert abs(plane.normal[2]) == pytest.approx(1.0, abs=1e-12)
        assert plane.d == pytest.approx(0.0, abs=1e-12)

    def test_noiseless_board_recovers_true_plane(self):
        pose = Pose6DOF(2 * DEG, -1 * DEG, 0.5 * DEG, -0.7, -2.5, 0.05)
        frame = simulate_scan(BoardModel(), QUIET, pose, seed=0, afe=AFE0)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        plane = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        n_true, d_true = true_plane_in_sensor_frame(pose)
        np.testing.assert_allclose(plane.normal, n_true, atol=1e-9)
        assert plane.d == pytest.approx(d_true, abs=1e-9)
        assert math.acos(min(1.0, abs(plane.normal @ n_true))) < 1e-6

    def test_noisy_rms_in_expected_band(self):
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=11)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        plane = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        assert plane.inlier_count > 500
        assert 0.007 <= plane.inlier_rms <= 0.013

    def test_rigid_invariance(self):
        rng = np.random.default_rng(4)
        pts = np.column_stack([rng.uniform(-1, 1, 60), rng.uniform(-1, 1, 60), np.zeros(60)])
        pts += 0.001 * rng.normal(size=pts.shape)
        plane_a = fit_plane(pts)
        pose = Pose6DOF(0.7, -0.3, 0.2, 1.0, 2.0, -0.5)
        m = pose_to_matrix(pose)
        pts_b = pts @ m[:, :3].T + m[:, 3]
        plane_b = fit_plane(pts_b)
        n_mapped = m[:, :3] @ plane_a.normal
        assert abs(abs(n_mapped @ plane_b.normal) - 1.0) < 1e-9
        # d transforms consistently: pick a point on plane a
        p_on = plane_a.d * plane_a.normal
        p_mapped = m[:, :3] @ p_on + m[:, 3]
        assert p_mapped @ plane_b.normal - plane_b.d == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            fit_plane(np.zeros((2, 3)))
        line = np.outer(np.arange(10.0), np.array([1.0, 0.5, 0.0]))
        with pytest.raises(ValueError):
            fit_plane(line)

    def test_plane_model_validation(self):
        with pytest.raises(ValueError):
            PlaneModel(normal=np.array([1.0, 1.0, 0.0]), d=0.0, inlier_rms=0.0, inlier_count=5)
        with pytest.raises(ValueError):
            PlaneModel(normal=np.array([1.0, 0.0, 0.0]), d=0.0, inlier_rms=0.0, inlier_count=2)


class TestRangeRefinement:
    def test_range_correction_lands_on_plane(self):
        frame = simulate_scan(BoardModel(), LidarModel(), POSE, seed=5)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        plane = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        r_corr = range_to_plane(omega, alpha, plane)
        pts = polar_to_cartesian_array(omega, alpha, r_corr)
        assert np.max(np.abs(pts @ plane.normal - plane.d)) < 1e-9

    def test_refinement_removes_tls_yaw_bias(self):
        # ray-aligned range noise tilts the TLS normal deterministically
        # (the tilt grows with sigma^2: ~2.5e-3 rad at 30 mm noise on this
        # geometry); the range-space refit stays unbiased. 40 frames at the
        # amplified noise level give ~4 sigma of separation.
        n_true, _ = true_plane_in_sensor_frame(POSE)
        lidar = LidarModel(range_noise_sigma=0.030)
        tls_errs, ref_errs = [], []
        for seed in range(40):
            frame = simulate_scan(BoardModel(), lidar, POSE, seed=7000 + seed)
            omega, alpha, r, _, _, _ = frame.beam_arrays()
            tls = fit_plane(polar_to_cartesian_array(omega, alpha, r))
            ref = refine_plane_ranges(polar_to_cartesian_array(omega, alpha, 1.0), r, tls)
            for plane, acc in ((tls, tls_errs), (ref, ref_errs)):
                yaw = math.atan2(plane.normal[0], -plane.normal[1]) - math.atan2(
                    n_true[0], -n_true[1]
                )
                acc.append(yaw)
        assert abs(np.mean(tls_errs)) > 1.2e-3    # the deterministic tilt
        assert abs(np.mean(ref_errs)) < 1.2e-3    # gone after refinement

    def test_refinement_noiseless_is_exact(self):
        frame = simulate_scan(BoardModel(), QUIET, POSE, seed=0, afe=AFE0)
        omega, alpha, r, _, _, _ = frame.beam_arrays()
        tls = fit_plane(polar_to_cartesian_array(omega, alpha, r))
        ref = refine_plane_ranges(polar_to_cartesian_array(omega, alpha, 1.0), r, tls)
        n_true, d_true = true_plane_in_sensor_frame(POSE)
        np.testing.assert_allclose(ref.normal, n_true, atol=1e-10)
        assert ref.d == pytest.approx(d_true, abs=1e-10)

