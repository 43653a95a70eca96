import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import enzydesign.numerics as nm
from enzydesign.geometry import (GeometryError, apply_rigid, init_coordinates,
                                 knn, pairwise_distances, random_rigid)

from helpers import argsort_knn, loop_init_coordinates


def brute_force_knn(points, k):
    n = len(points)
    out = []
    for i in range(n):
        dists = sorted((np.linalg.norm(points[i] - points[j]), j)
                       for j in range(n) if j != i)
        out.append([j for _, j in dists[:min(k, n - 1)]])
    return np.array(out)


class TestKnn:
    def test_two_points(self):
        g = knn(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1)
        np.testing.assert_array_equal(g, [[1], [0]])

    def test_k_clamped(self):
        pts = np.random.default_rng(0).normal(size=(4, 3))
        g = knn(pts, 10)
        assert g.shape == (4, 3)
        for i in range(4):
            assert set(g[i]) == {j for j in range(4) if j != i}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(20, 3))
        np.testing.assert_array_equal(knn(pts, 5), brute_force_knn(pts, 5))

    def test_errors(self):
        with pytest.raises(GeometryError, match="at least 1 point"):
            knn(np.zeros((0, 3)), 1)
        with pytest.raises(GeometryError):
            knn(np.zeros((3, 3)), 0)

    def test_one_point_has_an_empty_block(self):
        g = knn(np.zeros((1, 3)), 30)
        assert g.shape == (1, 0) and g.dtype == np.intp

    @pytest.mark.parametrize("k", [1, 6, 18, 30])
    def test_lattice_ties_match_stable_argsort(self, k):
        axis = np.arange(6.0)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        np.testing.assert_array_equal(knn(pts, k), argsort_knn(pts, k))

    def test_random_walk_matches_stable_argsort(self):
        pts = np.cumsum(np.random.default_rng(6).normal(size=(512, 3)), axis=0)
        np.testing.assert_array_equal(knn(pts, 30), argsort_knn(pts, 30))
        np.testing.assert_array_equal(knn(pts[:40], 50), argsort_knn(pts[:40], 50))

    @pytest.mark.parametrize("k", [6, 30])
    def test_row_tiles_match_stable_argsort(self, k, monkeypatch):
        """N = 300 under a budget of 128 rows (N·8 bytes each) is two full
        tiles and a partial one. On the 10 x 10 x 3 lattice, rows 127 and
        128 are neighbors, so their tied neighbor lists cross the tile
        edge."""
        monkeypatch.setattr(nm, "TILE_BYTES", 128 * 300 * 8)
        pts = np.cumsum(np.random.default_rng(8).normal(size=(300, 3)), axis=0)
        np.testing.assert_array_equal(knn(pts, k), argsort_knn(pts, k))
        lattice = np.stack(np.meshgrid(np.arange(10.0), np.arange(10.0),
                                       np.arange(3.0), indexing="ij"),
                           axis=-1).reshape(-1, 3)
        np.testing.assert_array_equal(knn(lattice, k), argsort_knn(lattice, k))

    @pytest.mark.parametrize("n,k", [(12, 6), (12, 30), (27, 13), (40, 7)])
    def test_small_tiles_match_stable_argsort(self, n, k, monkeypatch):
        """Seven-row tiles (N·8 bytes a row), on either side of the
        k >= N/2 switch to a stable sort of whole rows."""
        monkeypatch.setattr(nm, "TILE_BYTES", 7 * n * 8)
        axis = np.arange(3.0)
        lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                           axis=-1).reshape(-1, 3)
        walk = np.cumsum(np.random.default_rng(n).normal(size=(n, 3)), axis=0)
        for pts in (lattice[:n], walk):
            np.testing.assert_array_equal(knn(pts, k), argsort_knn(pts, k))

    def test_distances_equal_three_axis_reduction(self):
        pts = np.random.default_rng(7).normal(scale=10.0, size=(300, 3))
        diff = pts[:, None, :] - pts[None, :, :]
        assert np.array_equal(pairwise_distances(pts, pts),
                              np.sqrt((diff ** 2).sum(axis=-1)))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_rigid_transform(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=5.0, size=(12, 3))
        rot, t = random_rigid(rng)
        np.testing.assert_array_equal(knn(pts, 4), knn(apply_rigid(rot, t, pts), 4))


class TestRandomRigid:
    def test_deterministic(self):
        r1, t1 = random_rigid(42)
        r2, t2 = random_rigid(42)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_array_equal(t1, t2)

    def test_orthonormal_unit_determinant(self):
        for seed in range(50):
            rot, _ = random_rigid(seed)
            assert np.abs(rot.T @ rot - np.eye(3)).max() < 1e-10
            assert abs(np.linalg.det(rot) - 1.0) < 1e-10

    def test_mean_rotation_angle(self):
        # uniform SO(3): E[angle] = pi/2 + 2/pi ~ 126.47 degrees
        rng = np.random.default_rng(0)
        angles = []
        for _ in range(1000):
            rot, _ = random_rigid(rng)
            angles.append(np.arccos(np.clip((np.trace(rot) - 1) / 2, -1, 1)))
        mean_deg = np.degrees(np.mean(angles))
        assert abs(mean_deg - (90.0 + np.degrees(2.0 / np.pi))) < 3.0

    def test_distance_preserved(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=8.0, size=(15, 3))
        rot, t = random_rigid(rng)
        d0 = pairwise_distances(pts, pts)
        moved = apply_rigid(rot, t, pts)
        d1 = pairwise_distances(moved, moved)
        assert np.abs(d0 - d1).max() < 1e-9


class TestInitCoordinates:
    def test_all_motif_passthrough(self):
        given = np.arange(15.0).reshape(5, 3)
        out = init_coordinates(given, np.arange(5), 5, 0, 3.75)
        np.testing.assert_array_equal(out, given)

    def test_free_residue_bond_length(self):
        motif = np.array([0, 2])
        given = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        out = init_coordinates(given, motif, 6, 7, 3.75)
        for i in (1, 3, 4, 5):
            assert np.linalg.norm(out[i] - out[i - 1]) == pytest.approx(3.75)

    def test_leading_free_residue_anchors_at_origin(self):
        out = init_coordinates(np.array([[1.0, 1, 1]]), np.array([3]), 4, 11,
                               3.75)
        assert np.linalg.norm(out[0]) == pytest.approx(3.75)

    def test_seeded_bit_identical(self):
        given = np.array([[1.0, 2, 3]])
        a = init_coordinates(given, np.array([2]), 8, 123, 3.75)
        b = init_coordinates(given, np.array([2]), 8, 123, 3.75)
        np.testing.assert_array_equal(a, b)

    @given(st.integers(1, 512).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.integers(0, n - 1), max_size=8).map(sorted),
        st.integers(0, 2 ** 31 - 1))))
    @example((5, [0, 3], 1))                # a motif at row 0
    @example((5, [0, 1, 2, 3, 4], 2))       # every residue a motif
    @example((40, [], 3))                   # no motif
    @example((1, [], 4))                    # N = 1, free
    @example((1, [0], 5))                   # N = 1, a motif
    @settings(max_examples=200, deadline=None)
    def test_equals_one_residue_at_a_time(self, case):
        """The same draws as the per-residue loop, bit for bit."""
        n, motif, seed = case
        given = np.random.default_rng(seed).normal(scale=10.0,
                                                   size=(len(motif), 3))
        assert np.array_equal(
            init_coordinates(given, np.array(motif, dtype=np.intp), n, seed,
                             3.75),
            loop_init_coordinates(given, motif, n, seed, 3.75))

    def test_out_of_range_motif_index(self):
        with pytest.raises(IndexError):
            init_coordinates(np.zeros((1, 3)), np.array([9]), 5, 0, 3.75)
