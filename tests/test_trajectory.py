"""Tests for sparse plan expansion, densification and perturbation."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajkit as tk
from trajkit import cli, poseio
from trajkit.errors import InputError, InvariantViolation

from conftest import (
    WORKED_ORDER_TEXT,
    WORKED_PATH,
    WORKED_VERTEX_TEXT,
    brute_force_walk,
    euler_matrix,
    exactly,
    random_polyline_sparse,
)


def make_sparse(vertices, orders) -> tk.SparseTrajectory:
    return tk.SparseTrajectory(np.array(vertices, dtype=float), tuple(orders))


def densify_worked_with_orientations(tmp_path, rows: np.ndarray) -> tk.DenseTrajectory:
    """Densify the worked example with ``rows`` as its orientations file, as ``densify`` does."""
    (tmp_path / "vertex.txt").write_text(WORKED_VERTEX_TEXT)
    (tmp_path / "vertex_order.txt").write_text(WORKED_ORDER_TEXT)
    (tmp_path / "rots.txt").write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows))
    args = cli.build_parser().parse_args([
        "densify", "--vertices", str(tmp_path / "vertex.txt"),
        "--orders", str(tmp_path / "vertex_order.txt"),
        "--orientations", str(tmp_path / "rots.txt"), "--out", str(tmp_path / "t.txt"),
    ])
    cli.cmd_densify(args)
    return poseio.read_dense((tmp_path / "t.txt").read_text())


class TestExpandVisitation:
    def test_worked_example(self, worked_sparse):
        assert tk.expand_visitation(worked_sparse) == WORKED_PATH

    def test_singleton(self):
        sparse = make_sparse([(3, 4)], ((1,),))
        assert tk.expand_visitation(sparse) == [0]

    def test_missing_step(self):
        sparse = make_sparse([(0, 0), (1, 0)], ((1,), (3,)))
        with pytest.raises(InvariantViolation) as exc:
            tk.expand_visitation(sparse)
        assert str(exc.value) == "missing visitation step 2 (steps must cover 1..S without gaps)"

    def test_duplicate_step(self):
        sparse = make_sparse([(0, 0), (1, 0)], ((1, 2), (2,)))
        with pytest.raises(InvariantViolation) as exc:
            tk.expand_visitation(sparse)
        assert str(exc.value) == "visitation step 2 assigned more than once"

    def test_dangling_vertex_reference(self):
        message = "order sets reference vertex 2, but only 1 vertices exist"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.expand_visitation(make_sparse([(0, 0)], ((1,), (2,))))

    def test_unvisited_trailing_vertex_allowed(self):
        sparse = make_sparse([(0, 0), (1, 0)], ((1, 2), ()))
        assert tk.expand_visitation(sparse) == [0, 0]

    @given(
        assignment=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=24),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_expansion_is_a_bijection(self, assignment, data):
        # Any assignment of steps 1..S to vertices round-trips: re-deriving
        # the order sets from the expanded path reproduces the input.
        n_vertices = max(assignment) + 1
        orders = [[] for _ in range(n_vertices)]
        for step, vertex in enumerate(assignment, start=1):
            orders[vertex].append(step)
        vertices = [(float(i), float(-i)) for i in range(n_vertices)]
        sparse = make_sparse(vertices, tuple(tuple(o) for o in orders))

        path = tk.expand_visitation(sparse)
        assert len(path) == len(assignment)
        rebuilt = [[] for _ in range(n_vertices)]
        for step, vertex in enumerate(path, start=1):
            rebuilt[vertex].append(step)
        assert [tuple(o) for o in rebuilt] == [tuple(o) for o in orders]


class TestPathPolyline:
    def test_three_four_five(self):
        _, cum = tk.path_polyline(make_sparse([(0, 0), (3, 4)], ((1,), (2,))))
        assert cum.tolist() == [0.0, 5.0]

    def test_right_angle(self):
        _, cum = tk.path_polyline(make_sparse([(0, 0), (1, 0), (1, 1)], ((1,), (2,), (3,))))
        assert cum.tolist() == [0.0, 1.0, 2.0]

    def test_worked_example_against_hand_sum(self, worked_sparse):
        points, cum = tk.path_polyline(worked_sparse)
        # Independent arithmetic: plain-Python pairwise distances.
        expected = [0.0]
        for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
            expected.append(expected[-1] + math.hypot(x1 - x0, y1 - y0))
        assert cum == pytest.approx(expected, abs=1e-12)
        assert cum[-1] == pytest.approx(9.0, abs=1e-12)

    def test_single_point_path_degenerate(self):
        message = "path has 1 point(s); need at least 2"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.path_polyline(make_sparse([(1, 2)], ((1,),)))

    def test_coincident_points_degenerate(self):
        with pytest.raises(InvariantViolation, match=exactly("all path points coincide")):
            tk.path_polyline(make_sparse([(1, 1), (1, 1)], ((1,), (2,))))

    def test_arclength_monotone(self, worked_sparse):
        _, cum = tk.path_polyline(worked_sparse)
        assert np.all(np.diff(cum) >= 0)
        assert cum[0] == 0.0


class TestDensify:
    def test_straight_segment_frame_count(self):
        sparse = make_sparse([(0, 0), (6, 0)], ((1,), (2,)))
        dense = tk.densify(sparse, tk.DensifyParams(speed=1.0, fps=60.0))
        assert len(dense) == 361
        assert dense.protagonist[0] == pytest.approx([0, 0, 0], abs=1e-12)
        assert dense.protagonist[-1] == pytest.approx([6, 0, 0], abs=1e-9)
        assert np.all(dense.rotation == 0.0)

    def test_tangent_plus_y_gives_yaw_90(self):
        sparse = make_sparse([(0, 0), (0, 1)], ((1,), (2,)))
        dense = tk.densify(sparse, tk.DensifyParams(speed=0.5, fps=30.0))
        assert np.all(dense.rotation[:, 2] == 90.0)
        assert np.all(dense.rotation[:, :2] == 0.0)

    def test_exactly_divisible_length_no_duplicate_terminal(self):
        sparse = make_sparse([(0, 0), (1, 0)], ((1,), (2,)))
        dense = tk.densify(sparse, tk.DensifyParams(speed=1.0, fps=1.0))
        assert len(dense) == 2
        assert dense.protagonist[:, 0].tolist() == [0.0, 1.0]

    def test_camera_rides_above_protagonist(self, worked_sparse):
        params = tk.DensifyParams(eye_offset_z=0.75, ground_z=2.0)
        dense = tk.densify(worked_sparse, params)
        assert np.all(dense.protagonist[:, 2] == 2.0)
        np.testing.assert_array_equal(
            dense.camera, dense.protagonist + np.array([0.0, 0.0, 0.75])
        )

    def test_corner_uses_outgoing_tangent(self):
        # Path east then north; the sample landing exactly on the corner
        # must already look north.
        sparse = make_sparse([(0, 0), (1, 0), (1, 1)], ((1,), (2,), (3,)))
        dense = tk.densify(sparse, tk.DensifyParams(speed=1.0, fps=2.0))
        assert len(dense) == 5
        assert dense.rotation[:, 2].tolist() == [0.0, 0.0, 90.0, 90.0, 90.0]

    def test_supplied_orientations_taken_verbatim(self, worked_sparse, tmp_path):
        # Positions are forward densify's, as its writer prints them.
        forward = poseio.read_dense(poseio.write_dense(tk.densify(worked_sparse)))
        i = np.arange(len(forward))
        supplied = np.column_stack([i % 7 - 3.0, 1.0 + i % 8 / 8, 0.5 * i - 90.0])  # exact in text
        dense = densify_worked_with_orientations(tmp_path, supplied)
        np.testing.assert_array_equal(dense.rotation, supplied)
        np.testing.assert_array_equal(dense.protagonist, forward.protagonist)
        np.testing.assert_array_equal(dense.camera, forward.camera)

    def test_supplied_length_mismatch(self, tmp_path):
        with pytest.raises(InvariantViolation) as exc:
            densify_worked_with_orientations(tmp_path, np.zeros((3, 3)))
        assert str(exc.value) == (
            "supplied orientation list has 3 entries, trajectory has 338 frames"
        )
        assert not (tmp_path / "t.txt").exists()

    @pytest.mark.parametrize("shape", [(338, 1), (338, 2), (338, 4)])
    def test_supplied_orientations_must_be_n_by_3(self, tmp_path, shape):
        with pytest.raises(InputError, match=rf"expected 3 fields, got {shape[1]} \(line 1\)"):
            densify_worked_with_orientations(tmp_path, np.zeros(shape))
        assert not (tmp_path / "t.txt").exists()

    def test_same_ratio_same_samples(self, worked_sparse):
        base = tk.densify(worked_sparse, tk.DensifyParams(speed=1.6, fps=60.0))
        for k in (2.0, 4.0, 8.0):
            scaled = tk.densify(
                worked_sparse, tk.DensifyParams(speed=1.6 * k, fps=60.0 * k)
            )
            np.testing.assert_array_equal(scaled.protagonist, base.protagonist)
            np.testing.assert_array_equal(scaled.rotation, base.rotation)

    def test_spacing_never_exceeds_step(self, worked_sparse):
        params = tk.DensifyParams(speed=1.3, fps=24.0)
        dense = tk.densify(worked_sparse, params)
        gaps = np.linalg.norm(np.diff(dense.protagonist, axis=0), axis=1)
        assert np.all(gaps <= params.speed / params.fps + 1e-9)

    def test_matches_brute_force_walker(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            sparse = random_polyline_sparse(rng)
            speed = float(rng.uniform(0.5, 3.0))
            fps = float(rng.uniform(10.0, 90.0))
            dense = tk.densify(sparse, tk.DensifyParams(speed=speed, fps=fps))
            points, _ = tk.path_polyline(sparse)
            expected = brute_force_walk(points, speed, fps)
            assert len(dense) == len(expected)
            np.testing.assert_allclose(
                dense.protagonist[:, :2], np.array(expected), atol=1e-9
            )

    def test_degenerate_path_rejected(self):
        message = "path has 1 point(s); need at least 2"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.densify(make_sparse([(0, 0)], ((1,),)))


class TestPerturb:
    @pytest.mark.parametrize("seed", [0, 1, 123, 2**40, -7])
    def test_zero_sigmas_identity(self, worked_sparse, seed):
        dense = tk.densify(worked_sparse)
        out = tk.perturb(dense, 0.0, 0.0, seed=seed)
        np.testing.assert_array_equal(out.camera, dense.camera)
        np.testing.assert_array_equal(out.rotation, dense.rotation)
        np.testing.assert_array_equal(out.protagonist, dense.protagonist)

    def test_deterministic_for_fixed_seed(self, worked_sparse):
        dense = tk.densify(worked_sparse)
        a = tk.perturb(dense, 0.3, 2.0, seed=9)
        b = tk.perturb(dense, 0.3, 2.0, seed=9)
        np.testing.assert_array_equal(a.camera, b.camera)
        np.testing.assert_array_equal(a.rotation, b.rotation)

    def test_different_seeds_differ(self, worked_sparse):
        dense = tk.densify(worked_sparse)
        a = tk.perturb(dense, 0.3, 0.0, seed=1)
        b = tk.perturb(dense, 0.3, 0.0, seed=2)
        assert not np.array_equal(a.camera, b.camera)

    def test_only_camera_and_yaw_touched(self, worked_sparse):
        dense = tk.densify(worked_sparse)
        out = tk.perturb(dense, 0.5, 3.0, seed=4)
        np.testing.assert_array_equal(out.protagonist, dense.protagonist)
        np.testing.assert_array_equal(out.rotation[:, :2], dense.rotation[:, :2])
        assert not np.array_equal(out.rotation[:, 2], dense.rotation[:, 2])

    def test_noise_scale_monte_carlo(self):
        # 10,000 frames, sigma 0.5: per-axis delta std lands in [0.48, 0.52].
        n = 10_000
        dense = tk.DenseTrajectory(np.zeros((n, 3)), np.zeros((n, 3)), np.zeros((n, 3)))
        out = tk.perturb(dense, 0.5, 0.0, seed=77)
        stds = out.camera.std(axis=0)
        assert np.all(stds >= 0.48) and np.all(stds <= 0.52)

    @pytest.mark.parametrize("k", [1, 2, 100])
    def test_prefix_perturbed_equals_first_frames_of_whole(self, worked_sparse, k):
        dense = tk.densify(worked_sparse)
        head = tk.DenseTrajectory(dense.protagonist[:k], dense.camera[:k], dense.rotation[:k])
        whole = tk.perturb(dense, 0.3, 2.0, seed=5)
        part = tk.perturb(head, 0.3, 2.0, seed=5)
        np.testing.assert_array_equal(part.camera, whole.camera[:k])
        np.testing.assert_array_equal(part.rotation, whole.rotation[:k])

    def test_negative_sigma_rejected(self, worked_sparse):
        dense = tk.densify(worked_sparse)
        with pytest.raises(ValueError):
            tk.perturb(dense, -0.1, 0.0, seed=0)


class TestEulerRotation:
    def test_yaw_rotates_view_in_ground_plane(self):
        r = euler_matrix(0.0, 0.0, 90.0)
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_matrix_is_orthonormal(self):
        r = euler_matrix(12.0, -34.0, 56.0)
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestDenseTrajectory:
    def test_immutability(self, worked_sparse):
        dense = tk.densify(worked_sparse)
        with pytest.raises(ValueError):
            dense.camera[0, 0] = 99.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            tk.DenseTrajectory(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 3)))

    def test_rejects_unequal_lengths(self):
        message = "protagonist, camera and rotation must have equal length"
        with pytest.raises(ValueError, match=exactly(message)):
            tk.DenseTrajectory(np.zeros((2, 3)), np.zeros((3, 3)), np.zeros((2, 3)))
