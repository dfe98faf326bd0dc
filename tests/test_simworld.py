"""Tests for world generation, pinhole capture, and simulated reconstruction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import trajkit as tk
from trajkit import simworld
from trajkit.errors import InvariantViolation, ParseError

from conftest import exactly, random_rotation


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
    r = tk.EulerRotation(*rotation).matrix()
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

    @pytest.mark.parametrize("line, column", [("-1 3 1.0 2.0", 1), ("0 -3 1.0 2.0", 3)])
    def test_observations_reject_negative_indices(self, line, column):
        with pytest.raises(ParseError) as exc:
            simworld.read_observations(f"# frames 2\n0 1 1.0 2.0\n{line}\n")
        assert (exc.value.line, exc.value.column) == (3, column)

    def test_observations_group_interleaved_frames_in_file_order(self):
        back = simworld.read_observations("1 5 1 1\n0 2 2 2\n1 4 3 3\n")
        assert [f.ids.tolist() for f in back.frames] == [[2], [5, 4]]
        assert back.frames[1].uv.tolist() == [[1.0, 1.0], [3.0, 3.0]]

    def test_ply_structure(self):
        world = tk.generate_world(1, 50, tk.Box((0, 0, 0), (1, 1, 1)))
        ply = simworld.points_to_ply(world.landmarks)
        lines = ply.splitlines()
        assert lines[0] == "ply"
        assert "element vertex 50" in ply
        assert lines[lines.index("end_header") + 1].count(" ") == 2
        assert len(lines) == lines.index("end_header") + 1 + 50
