"""Coordinate-space utilities.

k-nearest-neighbor selection over Cα positions, random rigid transforms
for equivariance testing, and spherical initialization of unknown
residue coordinates at a given Cα-Cα bond length (the model's
``bond_length``).
"""
from __future__ import annotations

import numpy as np

from . import numerics as nm


class GeometryError(ValueError):
    pass


def pairwise_distances(points: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Euclidean distances from each row of ``points`` to each row of
    ``others``.

    Squared differences are summed one axis at a time, x + y then + z,
    so no (N, M, 3) temporary is built.
    """
    points = np.asarray(points, dtype=np.float64)
    others = np.asarray(others, dtype=np.float64)
    sq = np.zeros((points.shape[0], others.shape[0]))
    for a, b in zip(points.T, others.T):
        diff = np.subtract.outer(a, b)
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def knn(points: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k nearest neighbors of each point, self excluded.

    Returns an (N, min(k, N-1)) int array, so one point gets an empty
    (1, 0) block. Neighbors are ordered by increasing distance; ties
    broken by lower index (the order of a stable sort of each row), so
    the graph is deterministic and invariant under rigid motion for
    generic point sets. Ranks ``numerics.tile_rows(N·8)`` rows at a time.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 1:
        raise GeometryError("knn needs at least 1 point, got 0")
    if k < 1:
        raise GeometryError(f"knn needs k >= 1, got {k}")
    k = min(k, n - 1)
    if k == 0:
        return np.zeros((1, 0), dtype=np.intp)
    tiles, tile = [], nm.tile_rows(n * 8)
    for lo in range(0, n, tile):
        d = pairwise_distances(points[lo:lo + tile], points)
        np.fill_diagonal(d[:, lo:], np.inf)
        if 2 * k >= n:  # most of each row is kept: one stable sort is cheaper
            tiles.append(np.argsort(d, axis=1, kind="stable")[:, :k])
            continue
        # the k smallest of each row, ordered by (distance, index): in
        # index order first, so a stable sort by distance breaks ties
        near = np.sort(np.argpartition(d, k - 1, axis=1)[:, :k], axis=1)
        near_d = np.take_along_axis(d, near, axis=1)
        order = np.take_along_axis(
            near, np.argsort(near_d, axis=1, kind="stable"), axis=1)
        # a row whose k-th distance recurs past the cut may have kept the
        # wrong one of the tied indices: those rows take the stable sort
        tied = (d <= near_d.max(axis=1, keepdims=True)).sum(axis=1) > k
        if tied.any():
            order[tied] = np.argsort(d[tied], axis=1, kind="stable")[:, :k]
        tiles.append(order)
    return np.concatenate(tiles)


def random_rigid(rng) -> tuple[np.ndarray, np.ndarray]:
    """A rotation uniform over SO(3) and a translation uniform in [-10, 10]³.

    ``rng`` is a seed or a numpy Generator. The rotation comes from a
    normalized Gaussian quaternion, which is uniform on SO(3).
    """
    rng = np.random.default_rng(rng)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    t = rng.uniform(-10.0, 10.0, size=3)
    return rot, t


def apply_rigid(rot: np.ndarray, t: np.ndarray, points: np.ndarray) -> np.ndarray:
    return points @ rot.T + t


def init_coordinates(given: np.ndarray, motif: np.ndarray, n: int, rng,
                     bond_length: float) -> np.ndarray:
    """Full N×3 coordinates: given values at motif indices, chained
    spherical placements elsewhere.

    Each free residue sits on the sphere of radius ``bond_length`` around
    its predecessor (the origin for residue 0), with polar angle uniform
    in (0, π) and azimuth uniform in (0, 2π). Deterministic given the
    generator state.
    """
    rng = np.random.default_rng(rng)
    motif = np.asarray(motif, dtype=np.intp)
    given = np.asarray(given, dtype=np.float64).reshape(len(motif), 3)
    if motif.size and (motif.min() < 0 or motif.max() >= n):
        raise IndexError(f"motif index out of range for length {n}")
    free = np.ones(n, dtype=bool)
    free[motif] = False
    w1, w2 = rng.uniform([0.0, 0.0], [np.pi, 2.0 * np.pi],
                         size=(int(free.sum()), 2)).T
    # row 0 is the origin and each motif row restarts the chain of steps
    chain = np.zeros((n + 1, 3))
    chain[1:][free] = bond_length * np.stack(
        [np.sin(w1) * np.cos(w2), np.sin(w1) * np.sin(w2), np.cos(w1)], axis=1)
    chain[1 + motif] = given
    return np.concatenate([np.cumsum(part, axis=0) for part in
                           np.split(chain, np.flatnonzero(~free) + 1)])[1:]
