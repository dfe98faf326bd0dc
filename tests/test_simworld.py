"""Tests for world generation, pinhole capture, and simulated reconstruction."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trajkit as tk
from trajkit import simworld
from trajkit.conditions import degradation
from trajkit.errors import InvariantViolation, ParseError
from trajkit.rng import box_muller, keyed_uniform

from conftest import euler_matrix, exactly, random_rotation


def static_pose(camera=(0.0, 0.0, 0.75), rot=(0.0, 0.0, 0.0), frames=1) -> tk.DenseTrajectory:
    """Trajectory holding one camera pose for the given number of frames."""
    cam = np.tile(np.asarray(camera, dtype=float), (frames, 1))
    prot = cam - np.array([0.0, 0.0, 0.75])
    rotation = np.tile(np.asarray(rot, dtype=float), (frames, 1))
    return tk.DenseTrajectory(prot, cam, rotation)


def world_with(points, span=500.0) -> tk.World:
    bounds = tk.Box((-span, -span, -span), (span, span, span))
    return tk.World(np.asarray(points, dtype=float), seed=0, bounds=bounds)


def project_frame(camera_pos, rotation, landmarks, intr):
    """Reference pinhole projection of one pose, one frame at a time.

    Landmarks strictly in front, within max_range and projecting inside
    the image (bounds inclusive); (ids, uv) sorted by landmark id.
    """
    r = euler_matrix(*rotation)
    axes = np.stack([r @ [0.0, -1.0, 0.0], r @ [0.0, 0.0, -1.0], r @ [1.0, 0.0, 0.0]])
    delta = landmarks - camera_pos
    cam = delta @ axes.T  # columns: right, down, forward
    depth = cam[:, 2]
    in_range = np.einsum("ij,ij->i", delta, delta) <= intr.max_range ** 2
    ids = np.flatnonzero((depth > 0.0) & in_range)
    uv = intr.focal * cam[ids, :2] / depth[ids, None] + (intr.cx, intr.cy)
    inside = (
        (uv[:, 0] >= 0.0) & (uv[:, 0] <= intr.width)
        & (uv[:, 1] >= 0.0) & (uv[:, 1] <= intr.height)
    )
    return ids[inside], uv[inside]


def assert_matches_per_frame_projection(dense, world, intr):
    """A noise-free, drop-free capture equals project_frame, frame by frame."""
    _, obs = tk.retrace(dense, world, intr, CLEAR_DAY, base_pixel_sigma=0.0, seed=7)
    assert obs.n_frames == len(dense)
    assert obs.total_observations() > 1000
    for k, frame in enumerate(obs.frames):
        ids, uv = project_frame(dense.camera[k], dense.rotation[k], world.landmarks, intr)
        np.testing.assert_array_equal(frame.ids, ids)
        np.testing.assert_allclose(frame.uv, uv, rtol=0, atol=1e-9)


def assert_same_rows(obs, other, rows):
    """``obs`` holds the ``rows`` of ``other``: pixels up to the rounding of the projection."""
    np.testing.assert_array_equal(obs.frame, other.frame[rows])
    np.testing.assert_array_equal(obs.ids, other.ids[rows])
    np.testing.assert_allclose(obs.uv, other.uv[rows], rtol=0, atol=1e-9)


def walkthrough_world() -> tk.World:
    """300 landmarks around the README walkthrough's plan."""
    return tk.generate_world(7, 300, tk.Box((-25.0, -25.0, 0.0), (27.0, 27.0, 15.0)))


CLEAR_DAY = tk.ConditionSet()
RAINY_NIGHT = tk.ConditionSet(weather=tk.Weather.RAIN, time_of_day=tk.TimeOfDay.NIGHT)


class TestGenerateWorld:
    def test_deterministic(self):
        bounds = tk.Box((0, 0, 0), (10, 10, 5))
        a = tk.generate_world(7, 100, bounds)
        b = tk.generate_world(7, 100, bounds)
        np.testing.assert_array_equal(a.landmarks, b.landmarks)

    def test_different_seeds_differ(self):
        bounds = tk.Box((0, 0, 0), (10, 10, 5))
        a = tk.generate_world(1, 100, bounds)
        b = tk.generate_world(2, 100, bounds)
        assert not np.array_equal(a.landmarks, b.landmarks)

    def test_single_landmark_inside_bounds(self):
        bounds = tk.Box((-1, -2, -3), (4, 5, 6))
        world = tk.generate_world(3, 1, bounds)
        assert world.landmarks.shape == (1, 3)
        assert np.all(world.landmarks >= bounds.mins)
        assert np.all(world.landmarks <= bounds.maxs)

    def test_uniformity_monte_carlo(self):
        # 1e5 draws: per-axis mean within 2% of the box extent of center.
        bounds = tk.Box((10, -20, 0), (30, 20, 8))
        world = tk.generate_world(11, 100_000, bounds)
        extent = bounds.maxs - bounds.mins
        offset = np.abs(world.landmarks.mean(axis=0) - (bounds.mins + bounds.maxs) / 2)
        assert np.all(offset <= 0.02 * extent)

    @pytest.mark.parametrize("k", [1, 7, 100])
    def test_first_landmarks_independent_of_count(self, k):
        bounds = tk.Box((-5, 0, 1), (5, 20, 3))
        head = tk.generate_world(7, k, bounds)
        whole = tk.generate_world(7, 250, bounds)
        np.testing.assert_array_equal(head.landmarks, whole.landmarks[:k])

    def test_degenerate_bounds(self):
        message = "bounds have non-positive extent: [0. 0. 0.] .. [1. 0. 1.]"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.Box((0, 0, 0), (1, 0, 1))

    def test_bad_count(self):
        with pytest.raises(ValueError):
            tk.generate_world(0, 0, tk.Box((0, 0, 0), (1, 1, 1)))

    def test_landmark_budget_checked_before_drawing(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvariantViolation, match="limit"):
                tk.generate_world(0, simworld.MAX_LANDMARKS + 1, tk.Box((0, 0, 0), (1, 1, 1)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # the landmarks alone would take 24 MB

    def test_world_holds_at_most_the_landmark_budget(self):
        points = np.broadcast_to(0.5, (simworld.MAX_LANDMARKS + 1, 3))
        with pytest.raises(InvariantViolation, match="limit"):
            tk.World(points, seed=0, bounds=tk.Box((0, 0, 0), (1, 1, 1)))

    def test_landmark_outside_bounds_rejected(self):
        with pytest.raises(InvariantViolation):
            tk.World(np.array([[5.0, 0.0, 0.0]]), seed=0, bounds=tk.Box((0, 0, 0), (1, 1, 1)))


class TestRetrace:
    def test_principal_point_is_image_centre(self):
        intr = tk.Intrinsics(800.0, 640, 481, 50.0)
        assert (intr.cx, intr.cy) == (640 / 2, 481 / 2)

    def test_on_axis_projection_hits_principal_point(self):
        # Protagonist at the origin, camera 0.75 above it looking +x; a
        # landmark dead ahead at eye height projects to (cx, cy) exactly.
        intr = tk.default_intrinsics()
        manifest, obs = tk.retrace(
            static_pose(), world_with([[10.0, 0.0, 0.75]]), intr, CLEAR_DAY,
            base_pixel_sigma=0.0, seed=0,
        )
        assert len(manifest.names) == 1
        assert manifest.names[0] == "frame_000000.png"
        assert obs.frames[0].ids.tolist() == [0]
        np.testing.assert_array_equal(obs.frames[0].uv, [[intr.cx, intr.cy]])

    def test_landmark_behind_camera_never_observed(self):
        manifest, obs = tk.retrace(
            static_pose(), world_with([[-10.0, 0.0, 0.75]]), tk.default_intrinsics(),
            CLEAR_DAY, base_pixel_sigma=0.0, seed=0,
        )
        assert obs.total_observations() == 0

    @pytest.mark.parametrize("max_range", [100.0, np.inf])
    def test_camera_beyond_the_square_root_of_the_float_range(self, max_range):
        # |c|^2 overflows; every landmark is 1e308 below the camera.
        intr = tk.default_intrinsics(max_range=max_range)
        _, obs = tk.retrace(static_pose(camera=(0.0, 0.0, 1e308)), world_with([[10.0, 0.0, 0.0]]),
                            intr, CLEAR_DAY, base_pixel_sigma=0.0)
        assert obs.total_observations() == 0

    def test_scaled_scene_captures_the_same_observations(self, worked_sparse):
        # Landmarks, cameras and range times 2**600: the squares overflow,
        # but scaling is exact, so the capture is the same, bit for bit.
        dense = tk.densify(worked_sparse)
        world = tk.generate_world(3, 400, tk.Box((-10, -10, 0), (10, 10, 5)))
        big_world = tk.World(np.ldexp(world.landmarks, 600), 3, tk.Box(
            np.ldexp(world.bounds.mins, 600), np.ldexp(world.bounds.maxs, 600)))
        big_dense = tk.DenseTrajectory(np.ldexp(dense.protagonist, 600),
                                       np.ldexp(dense.camera, 600), dense.rotation)
        _, obs = tk.retrace(dense, world, tk.default_intrinsics(8.0), RAINY_NIGHT, seed=5)
        _, big = tk.retrace(big_dense, big_world, tk.default_intrinsics(np.ldexp(8.0, 600)),
                            RAINY_NIGHT, seed=5)
        assert big == obs and obs.total_observations() > 1000

    def test_landmark_beyond_max_range_unobserved(self):
        intr = tk.default_intrinsics(max_range=50.0)
        _, obs = tk.retrace(
            static_pose(), world_with([[60.0, 0.0, 0.75]]), intr, CLEAR_DAY,
            base_pixel_sigma=0.0, seed=0,
        )
        assert obs.total_observations() == 0

    def test_lateral_offset_projects_off_center(self):
        # A landmark left of the view direction (+y at yaw 0) lands left
        # of the principal point.
        intr = tk.default_intrinsics()
        _, obs = tk.retrace(
            static_pose(), world_with([[10.0, 1.0, 0.75]]), intr, CLEAR_DAY,
            base_pixel_sigma=0.0, seed=0,
        )
        u, v = obs.frames[0].uv[0]
        assert u == pytest.approx(intr.cx - intr.focal / 10.0)
        assert v == pytest.approx(intr.cy)

    @pytest.mark.parametrize("ahead", [1e-300, 1e-306, 5e-324])
    def test_landmark_at_tiny_depth_observed(self, ahead):
        # focal / depth overflows below a depth of about 1e-305; the pixel is
        # still the principal point, and a lateral offset still scales by focal.
        intr = tk.default_intrinsics()
        _, obs = tk.retrace(static_pose(camera=(0.0, 0.0, 0.0)), world_with([[ahead, 0.0, 0.0]]),
                            intr, CLEAR_DAY, base_pixel_sigma=0.0, seed=0)
        assert obs.uv.tolist() == [[960.0, 540.0]]
        _, obs = tk.retrace(static_pose(camera=(0.0, 0.0, 0.0)),
                            world_with([[1e-306, 1e-307, 0.0]]), intr, CLEAR_DAY,
                            base_pixel_sigma=0.0, seed=0)
        assert obs.uv[0, 0] == pytest.approx(intr.cx - intr.focal / 10.0)

    def test_tilt_moves_projection_until_out_of_frame(self):
        # Tilting the view axis (ry) slides an on-axis landmark along the
        # v axis; it stays observed only while the projection is in frame.
        intr = tk.default_intrinsics()
        world = world_with([[10.0, 0.0, 0.75]])

        def v_at(ry):
            _, obs = tk.retrace(
                static_pose(rot=(0.0, ry, 0.0)), world, intr, CLEAR_DAY,
                base_pixel_sigma=0.0, seed=0,
            )
            return obs.frames[0].uv[0][1] if len(obs.frames[0].ids) else None

        assert v_at(0.0) == pytest.approx(intr.cy)
        tilted = v_at(10.0)
        assert tilted is not None and tilted != pytest.approx(intr.cy)
        assert v_at(60.0) is None

    def test_yawed_camera_sees_northward_landmark(self):
        intr = tk.default_intrinsics()
        _, obs = tk.retrace(
            static_pose(rot=(0.0, 0.0, 90.0)), world_with([[0.0, 10.0, 0.75]]),
            intr, CLEAR_DAY, base_pixel_sigma=0.0, seed=0,
        )
        np.testing.assert_allclose(obs.frames[0].uv, [[intr.cx, intr.cy]], atol=1e-9)

    def test_zero_noise_zero_dropout_seed_independent(self):
        rng = np.random.default_rng(13)
        world = world_with(
            np.column_stack([rng.uniform(5, 50, 200), rng.uniform(-2, 2, 200),
                             rng.uniform(0.3, 1.2, 200)])
        )
        out = []
        for seed in (1, 2):
            _, obs = tk.retrace(
                static_pose(frames=3), world, tk.default_intrinsics(), CLEAR_DAY,
                base_pixel_sigma=0.0, seed=seed,
            )
            out.append(obs)
        for fa, fb in zip(out[0].frames, out[1].frames):
            np.testing.assert_array_equal(fa.ids, fb.ids)
            np.testing.assert_array_equal(fa.uv, fb.uv)

    def test_deterministic_with_noise(self):
        world = world_with([[10.0, 0.0, 0.75], [20.0, 1.0, 0.5]])
        runs = []
        for _ in range(2):
            _, obs = tk.retrace(
                static_pose(frames=5), world, tk.default_intrinsics(), CLEAR_DAY,
                base_pixel_sigma=2.0, seed=42,
            )
            runs.append(obs)
        for fa, fb in zip(runs[0].frames, runs[1].frames):
            np.testing.assert_array_equal(fa.uv, fb.uv)

    def test_noise_differs_in_every_frame_of_a_static_pose(self):
        # 130 frames span three chunks; each frame draws its own noise.
        world = world_with([[10.0, 0.0, 0.75], [20.0, 1.0, 0.5]])
        _, obs = tk.retrace(static_pose(frames=130), world, tk.default_intrinsics(), CLEAR_DAY,
                            base_pixel_sigma=2.0, seed=42)
        assert obs.total_observations() == 260
        assert len(np.unique(obs.uv.reshape(130, 4), axis=0)) == 130

    def test_pixel_sigma_whose_noise_radius_overflows_rejected(self):
        # The largest Box-Muller radius is about 8.57 sigma; snow doubles sigma.
        world = world_with([[10.0, 0.0, 0.75]])
        snow = tk.ConditionSet(weather=tk.Weather.SNOW)
        for sigma, cond in ((1e308, CLEAR_DAY), (1.1e307, snow)):
            with pytest.raises(ValueError, match="overflow"):
                tk.retrace(static_pose(), world, tk.default_intrinsics(), cond,
                           base_pixel_sigma=sigma)
            with pytest.raises(ValueError, match="overflow"):  # on the call, not on next()
                simworld.retrace_chunks(static_pose(), world, tk.default_intrinsics(), cond,
                                        base_pixel_sigma=sigma)
        # 8.57 * 1.1e307 is finite: accepted, with no overflow warning.
        intr = tk.default_intrinsics()
        tk.retrace(static_pose(), world, intr, CLEAR_DAY, base_pixel_sigma=1.1e307)

    def test_dropout_fraction_monte_carlo(self):
        # ~1e5 opportunities at dropout 0.3 keep a fraction in [0.69, 0.71].
        rng = np.random.default_rng(21)
        count = 100_000
        pts = np.column_stack([
            rng.uniform(5, 50, count), rng.uniform(-1, 1, count), rng.uniform(0.4, 1.1, count)
        ])
        world = world_with(pts)
        night = tk.ConditionSet(time_of_day=tk.TimeOfDay.NIGHT)  # dropout 0.3
        _, obs_all = tk.retrace(
            static_pose(), world, tk.default_intrinsics(), CLEAR_DAY,
            base_pixel_sigma=0.0, seed=5,
        )
        _, obs_dropped = tk.retrace(
            static_pose(), world, tk.default_intrinsics(), night,
            base_pixel_sigma=0.0, seed=5,
        )
        opportunities = obs_all.total_observations()
        assert opportunities > 90_000
        fraction = obs_dropped.total_observations() / opportunities
        assert 0.69 <= fraction <= 0.71

    def test_conditions_attached_to_manifest(self):
        cond = tk.ConditionSet(tk.Weather.RAIN, tk.TimeOfDay.NIGHT, 0.2, 0.1)
        manifest, _ = tk.retrace(
            static_pose(), world_with([[10.0, 0.0, 0.75]]), tk.default_intrinsics(),
            cond, base_pixel_sigma=0.0, seed=0,
        )
        assert manifest.conditions == cond

    def test_observations_stay_in_bounds_under_noise(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([
            rng.uniform(1, 80, 3000), rng.uniform(-30, 30, 3000), rng.uniform(-5, 8, 3000)
        ])
        intr = tk.default_intrinsics()
        _, obs = tk.retrace(
            static_pose(frames=2), world_with(pts), intr,
            tk.ConditionSet(weather=tk.Weather.SNOW), base_pixel_sigma=40.0, seed=3,
        )
        for frame in obs.frames:
            if len(frame.uv):
                assert np.all(frame.uv[:, 0] >= 0) and np.all(frame.uv[:, 0] <= intr.width)
                assert np.all(frame.uv[:, 1] >= 0) and np.all(frame.uv[:, 1] <= intr.height)

    def test_zero_noise_matches_per_frame_projection_on_walkthrough(self, worked_sparse):
        # 338 frames: five full chunks and a partial one.
        dense = tk.densify(worked_sparse)
        assert len(dense) == 338
        world = tk.generate_world(7, 500, tk.Box((-25, -25, 0), (27, 27, 15)))
        assert_matches_per_frame_projection(dense, world, tk.default_intrinsics(max_range=20.0))

    def test_zero_noise_matches_per_frame_projection_at_random_rotations(self):
        rng = np.random.default_rng(17)
        n = 150
        camera = np.column_stack([rng.uniform(-40, 40, (n, 2)), rng.uniform(0.5, 10, n)])
        rotation = rng.uniform(-180, 180, (n, 3))
        dense = tk.DenseTrajectory(camera - [0.0, 0.0, 0.75], camera, rotation)
        world = tk.generate_world(3, 800, tk.Box((-60, -60, 0), (60, 60, 15)))
        assert_matches_per_frame_projection(dense, world, tk.default_intrinsics(max_range=60.0))

    @pytest.mark.parametrize("k", [1, 63, 64, 65])
    def test_prefix_capture_equals_first_frames_of_full_capture(self, worked_sparse, k):
        dense = tk.densify(worked_sparse)
        world = tk.generate_world(7, 500, tk.Box((-25, -25, 0), (27, 27, 15)))
        intr = tk.default_intrinsics()
        _, full = tk.retrace(dense, world, intr, RAINY_NIGHT, base_pixel_sigma=2.0, seed=7)
        head = tk.DenseTrajectory(dense.protagonist[:k], dense.camera[:k], dense.rotation[:k])
        _, part = tk.retrace(head, world, intr, RAINY_NIGHT, base_pixel_sigma=2.0, seed=7)
        assert part.n_frames == k
        assert part.total_observations() > 0
        assert_same_rows(part, full, full.frame < k)

    def test_added_landmarks_leave_observations_of_others_unchanged(self, worked_sparse):
        dense = tk.densify(worked_sparse)
        box = tk.Box((-25, -25, 0), (27, 27, 15))
        world = tk.generate_world(7, 300, box)
        more = tk.World(np.vstack([world.landmarks, tk.generate_world(8, 200, box).landmarks]),
                        seed=7, bounds=box)
        intr = tk.default_intrinsics()
        _, small = tk.retrace(dense, world, intr, RAINY_NIGHT, base_pixel_sigma=2.0, seed=7)
        _, large = tk.retrace(dense, more, intr, RAINY_NIGHT, base_pixel_sigma=2.0, seed=7)
        assert small.total_observations() < large.total_observations()
        assert_same_rows(small, large, large.ids < 300)

    def test_pixel_noise_is_gaussian_monte_carlo(self):
        # 1e5 landmarks well inside the image of one frame: no noise draw
        # pushes one out, so noisy minus clean pixels are the draws.
        rng = np.random.default_rng(23)
        count = 100_000
        world = world_with(np.column_stack([
            rng.uniform(20, 60, count), rng.uniform(-2, 2, count), rng.uniform(0.3, 1.2, count)
        ]))
        intr = tk.default_intrinsics()
        sigma = 3.0
        _, clean = tk.retrace(static_pose(), world, intr, CLEAR_DAY, base_pixel_sigma=0.0, seed=4)
        _, noisy = tk.retrace(static_pose(), world, intr, CLEAR_DAY, base_pixel_sigma=sigma, seed=4)
        assert clean.total_observations() == count
        np.testing.assert_array_equal(noisy.ids, clean.ids)
        noise = noisy.uv - clean.uv
        assert np.all(np.abs(noise.mean(axis=0)) <= 0.01 * sigma)
        assert np.all(np.abs(noise.std(axis=0) / sigma - 1.0) <= 0.02)

    def test_record_pose_matches_trajectory(self, worked_sparse):
        dense = tk.densify(worked_sparse)
        manifest, _ = tk.retrace(
            dense, world_with([[10.0, 0.0, 0.75]]), tk.default_intrinsics(),
            CLEAR_DAY, base_pixel_sigma=0.0, seed=0,
        )
        assert len(manifest.names) == len(dense)
        k = len(dense) // 2
        assert manifest.camera[k] == pytest.approx(dense.camera[k])
        assert manifest.names[k] == f"frame_{k:06d}.png"

    def test_chunks_concatenate_to_retrace(self, worked_sparse):
        # 13,501 frames: four groups of 4096 frames, the last one partial.
        dense = tk.densify(worked_sparse, tk.DensifyParams(speed=0.04))
        world, intr = walkthrough_world(), tk.default_intrinsics()
        groups = list(simworld.retrace_chunks(dense, world, intr, RAINY_NIGHT, 1.0, 7))
        assert len(dense) == 13_501 and len(groups) == 4
        for k, (frame, ids, uv) in enumerate(groups):
            assert k * 4096 <= frame.min() and frame.max() < (k + 1) * 4096
            assert len(frame) == len(ids) == len(uv)
        _, obs = tk.retrace(dense, world, intr, RAINY_NIGHT, 1.0, 7)
        for column, parts in zip((obs.frame, obs.ids, obs.uv), zip(*groups)):
            assert np.concatenate(parts).tobytes() == column.tobytes()

    def test_retrace_peak_memory(self, worked_sparse):
        # The peak of a retrace stays within 2.1 times the bytes of the columns
        # it returns: its groups and their concatenation, which ObservationSet
        # adopts. Copying them once more peaks at 3.4 times.
        dense = tk.densify(worked_sparse, tk.DensifyParams(speed=0.0135))
        world, intr = walkthrough_world(), tk.default_intrinsics()
        assert len(dense) >= 40_000
        tracemalloc.start()
        try:
            _, obs = tk.retrace(dense, world, intr, CLEAR_DAY, seed=7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert obs.total_observations() > 500_000
        assert peak <= 2.1 * (obs.frame.nbytes + obs.ids.nbytes + obs.uv.nbytes)

    def test_conditions_share_their_draws(self, worked_sparse):
        # The README walkthrough as `trajkit capture --seed 7` runs it. Draws are
        # keyed on (seed, frame, landmark), not on the condition: night keeps a
        # subset of day's observations, and rain's noise is 1.5 times clear's.
        dense = tk.read_dense(tk.write_dense(tk.densify(worked_sparse)))
        xy = dense.protagonist[:, :2]
        box = tk.Box((*(xy.min(axis=0) - 25.0), 0.0), (*(xy.max(axis=0) + 25.0), 15.0))
        world, intr = tk.generate_world(7, 500, box), tk.default_intrinsics()

        def capture(cond, sigma=1.0):
            """The (frame, landmark) keys of the observations, sorted, and their pixels."""
            _, obs = tk.retrace(dense, world, intr, cond, base_pixel_sigma=sigma, seed=7)
            return obs.frame * len(world.landmarks) + obs.ids, obs.uv

        day, day_uv = capture(CLEAR_DAY)
        night, night_uv = capture(tk.ConditionSet(time_of_day=tk.TimeOfDay.NIGHT))
        assert (len(day), len(night)) == (9579, 6702)
        assert np.isin(night, day).all()
        np.testing.assert_array_equal(night_uv, day_uv[np.isin(day, night)])

        clean, clean_uv = capture(CLEAR_DAY, sigma=0.0)
        rain, rain_uv = capture(tk.ConditionSet(weather=tk.Weather.RAIN))
        both = np.intersect1d(day, rain)
        assert len(both) > 9000
        clear_offset = day_uv[np.isin(day, both)] - clean_uv[np.isin(clean, both)]
        rain_offset = rain_uv[np.isin(rain, both)] - clean_uv[np.isin(clean, both)]
        assert np.abs(rain_offset - 1.5 * clear_offset).max() <= 1e-9


# --------------------------------------------------------------------------
# retrace as it was when it read the product through strided views, built the
# camera blocks per 64-frame chunk and drew noise for every observation in the
# image, dropped or not. It is the oracle for retrace, bit for bit.
# --------------------------------------------------------------------------

def oracle_retrace(dense, world, intr, cond, base_pixel_sigma, seed):
    """The (frame, ids, uv) columns of a capture under ``cond``."""
    noise, drop = degradation(cond)
    sigma = base_pixel_sigma * noise
    extent = max(np.abs(world.landmarks).max(initial=0.0), np.abs(dense.camera).max())
    shift = max(0, math.frexp(extent)[1] - 500)
    landmarks, cameras = np.ldexp(world.landmarks, -shift), np.ldexp(dense.camera, -shift)
    max_range = math.ldexp(intr.max_range, -shift)
    points = np.column_stack([landmarks, np.ones(len(landmarks))])
    reach = max_range * max_range - np.einsum("ij,ij->i", landmarks, landmarks)
    product = np.empty((4 * 64, len(points)))
    columns = []
    for start in range(0, len(dense), 64):
        camera = cameras[start:start + 64]
        blocks = np.empty((len(camera), 4, 4))
        blocks[:, :3, :3] = simworld._camera_axes(dense.rotation[start:start + 64])
        blocks[:, :3, 3] = -np.einsum("fij,fj->fi", blocks[:, :3, :3], camera)
        blocks[:, 3, :3] = -2.0 * camera
        blocks[:, 3, 3] = np.einsum("ij,ij->i", camera, camera)
        out = np.matmul(blocks.reshape(-1, 4), points.T, out=product[:4 * len(camera)])
        right, down, depth, sq_dist = out.reshape(len(camera), 4, -1).transpose(1, 0, 2)
        visible = np.flatnonzero((depth > 0.0) & (sq_dist <= reach))
        with np.errstate(over="ignore", invalid="ignore"):
            pixels_per_unit = intr.focal / depth.flat[visible]
            u = right.flat[visible] * pixels_per_unit + intr.cx
            v = down.flat[visible] * pixels_per_unit + intr.cy
            tiny = np.flatnonzero(np.isinf(pixels_per_unit))
            if len(tiny):
                near = depth.flat[visible[tiny]]
                u[tiny] = right.flat[visible[tiny]] / near * intr.focal + intr.cx
                v[tiny] = down.flat[visible[tiny]] / near * intr.focal + intr.cy
        inside = (u >= 0.0) & (u <= intr.width) & (v >= 0.0) & (v <= intr.height)
        frame, ids = np.divmod(visible[inside], len(points))
        frame += start
        uv = np.column_stack([u[inside], v[inside]])
        draws = keyed_uniform(seed, frame[:, None], ids[:, None], np.arange(3))
        uv += np.column_stack(box_muller(draws[:, 1], draws[:, 2], sigma))
        keep = (
            (draws[:, 0] >= drop)
            & (uv[:, 0] >= 0.0) & (uv[:, 0] <= intr.width)
            & (uv[:, 1] >= 0.0) & (uv[:, 1] <= intr.height)
        )
        columns.append((frame[keep], ids[keep], uv[keep]))
    return [np.concatenate(column) for column in zip(*columns)]


# Dropout rates 0.0, 0.3 and 0.5, the largest the model gives.
NIGHT = tk.ConditionSet(time_of_day=tk.TimeOfDay.NIGHT)
BUSY_NIGHT = tk.ConditionSet(time_of_day=tk.TimeOfDay.NIGHT, vehicle_density=1.0)


@given(frames=st.sampled_from([1, 63, 64, 65, 129, 4097]), count=st.sampled_from([0, 1, 37]),
       scene=st.sampled_from(["plain", "tiny depth", "beyond 2**500"]),
       sigma=st.sampled_from([0.0, 2.0]), cond=st.sampled_from([CLEAR_DAY, NIGHT, BUSY_NIGHT]),
       seed=st.integers(0, 2**32 - 1))
@example(frames=4097, count=37, scene="plain", sigma=2.0, cond=NIGHT, seed=1)
@settings(max_examples=60, deadline=None)
def test_retrace_matches_its_oracle(frames, count, scene, sigma, cond, seed):
    # 4097 frames cross the boundary of retrace's 4096-frame groups of camera blocks.
    g = np.random.default_rng(seed)
    camera = g.uniform(-20.0, 20.0, (frames, 3))
    rotation = g.uniform(-180.0, 180.0, (frames, 3))
    landmarks = g.uniform(-30.0, 30.0, (count, 3))
    if count:  # the last frame (4096 of 4097: past a group boundary) sees the last landmark
        camera[-1], rotation[-1] = landmarks[-1] - [10.0, 0.0, 0.0], 0.0
    if scene == "tiny depth":  # frame 0 looks along +x from the origin at landmark 0
        camera[0] = rotation[0] = 0.0
        landmarks[:1] = (1e-306, 1e-307, 0.0)
    shift = 520 if scene == "beyond 2**500" else 0
    dense = tk.DenseTrajectory(np.ldexp(camera - [0.0, 0.0, 0.75], shift),
                               np.ldexp(camera, shift), rotation)
    bounds = tk.Box(np.ldexp([-30.0] * 3, shift), np.ldexp([30.0] * 3, shift))
    world = tk.World(np.ldexp(landmarks, shift), seed, bounds)
    intr = tk.default_intrinsics(max_range=math.ldexp(100.0, shift))
    _, obs = tk.retrace(dense, world, intr, cond, sigma, seed)
    expected = oracle_retrace(dense, world, intr, cond, sigma, seed)
    for column, oracle in zip((obs.frame, obs.ids, obs.uv), expected):
        assert (column.dtype, column.shape) == (oracle.dtype, oracle.shape)
        assert column.tobytes() == oracle.tobytes()


def make_manifest(positions) -> tk.CaptureManifest:
    names = tuple(f"frame_{i:06d}.png" for i in range(len(positions)))
    return tk.CaptureManifest(names, positions, np.zeros((len(positions), 3)))


class TestSimulateReconstruction:
    def test_identity_gauge_zero_noise(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(-50, 50, (40, 3))
        manifest = make_manifest(positions)
        recon = tk.simulate_reconstruction(manifest, tk.SimilarityTransform.identity())
        np.testing.assert_array_equal(recon.positions, positions)
        assert recon.names == manifest.names

    def test_known_gauge_hand_computed(self):
        # Compare against an explicit s * R @ p + t computed in the test.
        rng = np.random.default_rng(2)
        positions = rng.uniform(-10, 10, (25, 3))
        manifest = make_manifest(positions)
        gauge = tk.SimilarityTransform.from_z_rotation(2.0, 90.0, (1.0, 2.0, 3.0))
        recon = tk.simulate_reconstruction(manifest, gauge)
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expected = 2.0 * positions @ rot.T + np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(recon.positions, expected, atol=1e-9)

    def test_outlier_count_exact(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(-50, 50, (100, 3))
        manifest = make_manifest(positions)
        radius = 5.0
        recon = tk.simulate_reconstruction(
            manifest, tk.SimilarityTransform.identity(),
            noise_sigma=0.0, outlier_fraction=0.3, outlier_radius=radius, seed=17,
        )
        displacement = np.linalg.norm(recon.positions - positions, axis=1)
        assert int((displacement >= radius).sum()) == 30
        assert int((displacement == 0.0).sum()) == 70
        assert np.all(displacement[displacement > 0] <= 2 * radius + 1e-9)

    def test_outlier_indices_match_construction(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(-50, 50, (60, 3))
        manifest = make_manifest(positions)
        recon = tk.simulate_reconstruction(
            manifest, tk.SimilarityTransform.identity(),
            outlier_fraction=0.25, outlier_radius=3.0, seed=9,
        )
        displaced = np.flatnonzero(np.linalg.norm(recon.positions - positions, axis=1) > 0)
        np.testing.assert_array_equal(displaced, simworld.outlier_indices(60, 0.25, 9))

    @pytest.mark.parametrize("k", [1, 2, 50])
    def test_noise_of_first_rows_independent_of_count(self, k):
        positions = np.random.default_rng(9).uniform(-50, 50, (120, 3))
        gauge = tk.SimilarityTransform.from_z_rotation(0.5, 45.0, (10.0, -3.0, 2.0))
        kwargs = dict(noise_sigma=0.1, seed=3)
        whole = tk.simulate_reconstruction(make_manifest(positions), gauge, **kwargs)
        head = tk.simulate_reconstruction(make_manifest(positions[:k]), gauge, **kwargs)
        np.testing.assert_array_equal(head.positions, whole.positions[:k])
        assert not np.array_equal(head.positions, gauge.apply(positions[:k]))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        manifest = make_manifest(rng.uniform(-50, 50, (30, 3)))
        kwargs = dict(noise_sigma=0.1, outlier_fraction=0.2, outlier_radius=4.0, seed=8)
        a = tk.simulate_reconstruction(manifest, tk.SimilarityTransform.identity(), **kwargs)
        b = tk.simulate_reconstruction(manifest, tk.SimilarityTransform.identity(), **kwargs)
        assert a == b

    def test_inverse_gauge_recovers_groundtruth(self):
        # With gauge scale 2 the inverse shrinks the noise, so every
        # coordinate of the non-outlier entries lands within 3 sigma.
        rng = np.random.default_rng(6)
        positions = rng.uniform(-50, 50, (100, 3))
        manifest = make_manifest(positions)
        gauge = tk.SimilarityTransform(2.0, random_rotation(np.random.default_rng(7)),
                                       np.array([5.0, -3.0, 1.0]))
        sigma = 0.2
        recon = tk.simulate_reconstruction(manifest, gauge, noise_sigma=sigma, seed=10)
        recovered = gauge.inverse().apply(recon.positions)
        assert np.all(np.abs(recovered - positions) <= 3 * sigma)

    def test_overflowing_gauge_rejected(self):
        gauge = tk.SimilarityTransform.from_z_rotation(1e308, 45.0, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match=exactly("simulated positions exceed the float range")):
            tk.simulate_reconstruction(make_manifest([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0]]), gauge)

    def test_parameter_validation(self):
        manifest = make_manifest([[0.0, 0.0, 0.0]])
        gauge = tk.SimilarityTransform.identity()
        with pytest.raises(ValueError):
            tk.simulate_reconstruction(manifest, gauge, noise_sigma=-1.0)
        with pytest.raises(ValueError):
            tk.simulate_reconstruction(manifest, gauge, outlier_fraction=1.5)


class TestSerialization:
    def test_world_round_trip(self):
        world = tk.generate_world(5, 200, tk.Box((-10, -10, 0), (10, 10, 5)))
        text = simworld.write_world(world)
        back = simworld.read_world(text)
        assert back.seed == world.seed
        np.testing.assert_array_equal(back.bounds.mins, world.bounds.mins)
        np.testing.assert_allclose(back.landmarks, world.landmarks, atol=5e-7)
        assert simworld.write_world(back) == text

    def test_world_requires_headers(self):
        with pytest.raises(Exception):
            simworld.read_world("0 1 2 3\n")

    def test_world_ids_must_be_dense(self):
        text = "# seed 0\n# bounds 0 0 0 10 10 10\n0 1 1 1\n2 2 2 2\n"
        with pytest.raises(InvariantViolation):
            simworld.read_world(text)

    def test_observations_round_trip_preserves_empty_frames(self):
        obs = tk.ObservationSet(
            frame=np.array([0, 0, 2]),
            ids=np.array([3, 7, 1]),
            uv=np.array([[1.5, 2.5], [3.0, 4.0], [900.0, 500.0]]),
            n_frames=3,
        )
        back = simworld.read_observations(simworld.write_observations(obs))
        assert len(back.frames) == 3
        np.testing.assert_array_equal(back.frames[0].ids, obs.frames[0].ids)
        np.testing.assert_array_equal(back.frames[0].uv, obs.frames[0].uv)
        assert len(back.frames[1].ids) == 0

    @pytest.mark.parametrize("frame, n_frames", [([1, 0], 2), ([0, 2], 2), ([0], -1)])
    def test_observation_columns_sorted_and_within_frame_count(self, frame, n_frames):
        with pytest.raises(ValueError):
            tk.ObservationSet(frame, np.zeros(len(frame)), np.zeros((len(frame), 2)), n_frames)

    def test_observation_columns_of_unequal_length_rejected(self):
        with pytest.raises(ValueError, match=exactly("frame, ids and uv must have equal length")):
            tk.ObservationSet([0], [0, 1], [[1, 2]], 1)

    @pytest.mark.parametrize("line, column", [("-1 3 1.0 2.0", 1), ("0 -3 1.0 2.0", 3)])
    def test_observations_reject_negative_indices(self, line, column):
        with pytest.raises(ParseError) as exc:
            simworld.read_observations(f"# frames 2\n0 1 1.0 2.0\n{line}\n")
        assert (exc.value.line, exc.value.column) == (3, column)

    def test_observations_reject_negative_frame_count(self):
        with pytest.raises(ParseError) as exc:
            simworld.read_observations("0 1 1.0 2.0\n# frames -3\n")
        assert str(exc.value) == "negative frame count -3 (line 2, column 10)"

    def test_observations_reject_frame_count_below_data(self):
        with pytest.raises(InvariantViolation, match=r"^2 frames \(line 1\) do not hold frame"):
            simworld.read_observations("# frames 2\n0 1 1.0 2.0\n5 1 1.0 2.0\n")
        # Without the header the data sets the frame count.
        assert simworld.read_observations("0 1 1.0 2.0\n5 1 1.0 2.0\n").n_frames == 6

    def test_observations_hold_at_most_the_frame_budget(self):
        n = simworld.MAX_FRAMES + 1
        message = exactly(f"{n} frames exceed the limit of {simworld.MAX_FRAMES}")
        with pytest.raises(InvariantViolation, match=message):
            tk.ObservationSet([], [], np.zeros((0, 2)), n)
        with pytest.raises(InvariantViolation, match=message):
            simworld.read_observations(f"# frames {n}\n0 1 1.0 2.0\n")
        assert tk.ObservationSet([], [], np.zeros((0, 2)), n - 1).n_frames == n - 1

    def test_observations_group_interleaved_frames_in_file_order(self):
        back = simworld.read_observations("1 5 1 1\n0 2 2 2\n1 4 3 3\n")
        assert [f.ids.tolist() for f in back.frames] == [[2], [5, 4]]
        assert back.frames[1].uv.tolist() == [[1.0, 1.0], [3.0, 3.0]]

    def test_read_observations_peak_memory(self):
        # The peak of a read of sorted lines stays within 2.1 times the bytes of
        # the columns it returns: the parsed slices and their concatenation. A
        # reader that sorts and copies them anyway peaks at 3.3 times; one
        # that holds every line of the file as a str, at 5 times.
        n = 60_000
        frame = np.arange(n) // 20
        obs = tk.ObservationSet(frame, np.arange(n) % 500, np.arange(2.0 * n).reshape(n, 2) / 8,
                                int(frame[-1]) + 1)
        text = simworld.write_observations(obs)
        tracemalloc.start()
        try:
            back = simworld.read_observations(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * (back.frame.nbytes + back.ids.nbytes + back.uv.nbytes)
        assert back == obs

    def test_ply_structure(self):
        world = tk.generate_world(1, 50, tk.Box((0, 0, 0), (1, 1, 1)))
        ply = simworld.points_to_ply(world.landmarks)
        lines = ply.splitlines()
        assert lines[0] == "ply"
        assert "element vertex 50" in ply
        assert lines[lines.index("end_header") + 1].count(" ") == 2
        assert len(lines) == lines.index("end_header") + 1 + 50
