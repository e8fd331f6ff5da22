"""Spatial queries backing the Chamfer-style losses: exact nearest neighbor,
voxel-grid downsampling, and PCA normal estimation.

Nearest-neighbor search is exact (no approximation) so correspondence-based
gradients and the test oracles agree deterministically. The kd-tree is
provided by scipy; a repair pass enforces the lowest-index tie rule on top
of it.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import DegenerateNeighborhood, EmptyCloud, NonPositiveVoxel


class KdTree:
    """Exact nearest-neighbor index over a point cloud.

    Queries return the global minimum-distance point; equidistant candidates
    resolve to the lowest source index.
    """

    def __init__(self, points: np.ndarray):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[0] == 0:
            raise EmptyCloud("cannot build a kd-tree over zero points")
        if not np.isfinite(points).all():
            raise ValueError("kd-tree input contains non-finite coordinates")
        self.points = points
        self._tree = cKDTree(points, leafsize=16)

    def __len__(self) -> int:
        return self.points.shape[0]

    def nearest(self, query: np.ndarray) -> tuple[int, float]:
        """Single-point query; returns (index, distance)."""
        idx, dist = self.query_many(np.asarray(query, dtype=np.float64).reshape(1, 3))
        return int(idx[0]), float(dist[0])

    def query_many(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched exact nearest neighbors with the lowest-index tie rule.

        Returns (indices (M,), distances (M,)).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = min(2, len(self))
        dist, idx = self._tree.query(queries, k=k)
        if k == 1:
            return idx.reshape(-1).astype(np.int64), dist.reshape(-1)
        tied = dist[:, 0] == dist[:, 1]
        best = idx[:, 0].copy()
        if np.any(tied):
            # A tie at k=2 may hide further candidates at the same distance;
            # enumerate the closed ball and re-rank on exact squared distance.
            for row in np.nonzero(tied)[0]:
                r = dist[row, 0] * (1.0 + 1e-12) + 1e-300
                cand = np.array(self._tree.query_ball_point(queries[row], r),
                                dtype=np.int64)
                d2 = ((self.points[cand] - queries[row]) ** 2).sum(axis=1)
                winners = cand[d2 == d2.min()]
                best[row] = winners.min()
        return best.astype(np.int64), dist[:, 0]


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """One centroid per occupied voxel; cells keyed by floor(x / voxel).

    Output order is ascending cell key, z-major, then y, then x.
    """
    if voxel_size <= 0.0:
        raise NonPositiveVoxel(f"voxel_size must be > 0, got {voxel_size}")
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    # Sort by (z, y, x); np.unique over the reordered columns yields the
    # required cell ordering directly.
    zyx = keys[:, ::-1]
    uniq, inverse = np.unique(zyx, axis=0, return_inverse=True)
    counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(np.float64)
    centroids = np.zeros((uniq.shape[0], 3))
    for axis in range(3):
        centroids[:, axis] = np.bincount(inverse, weights=cloud.points[:, axis],
                                         minlength=uniq.shape[0])
    centroids /= counts[:, None]
    intensity = None
    if cloud.intensity is not None:
        intensity = np.bincount(inverse, weights=cloud.intensity,
                                minlength=uniq.shape[0]) / counts
    return PointCloud(centroids, intensity)


def estimate_normals(cloud: PointCloud, k: int = 12,
                     sensor_origin: np.ndarray | None = None) -> PointCloud:
    """Per-point unit normals from the k-NN covariance.

    The normal is the smallest-eigenvalue eigenvector; its sign is flipped
    so that normal . (sensor_origin - p) >= 0. Neighborhoods whose
    covariance has rank < 2 get a +z placeholder and a warning; if every
    neighborhood is degenerate the call raises DegenerateNeighborhood.
    """
    if k < 3:
        raise ValueError(f"k must be >= 3, got {k}")
    if len(cloud) <= k:
        raise EmptyCloud(f"need more than k={k} points, got {len(cloud)}")
    origin = np.zeros(3) if sensor_origin is None else np.asarray(sensor_origin, float)

    tree = cKDTree(cloud.points, leafsize=16)
    _, nn_idx = tree.query(cloud.points, k=k)
    neigh = cloud.points[nn_idx]                       # (N, k, 3)
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k

    eigval, eigvec = np.linalg.eigh(cov)               # ascending eigenvalues
    normals = eigvec[:, :, 0]
    degenerate = eigval[:, 1] <= np.maximum(1e-12 * eigval[:, 2], 1e-18)
    if degenerate.all():
        raise DegenerateNeighborhood("all neighborhoods are rank-deficient")
    if degenerate.any():
        warnings.warn(f"{int(degenerate.sum())} degenerate normal neighborhoods; "
                      "using +z placeholder", RuntimeWarning)
        normals[degenerate] = np.array([0.0, 0.0, 1.0])

    flip = np.einsum("ni,ni->n", normals, origin - cloud.points) < 0.0
    normals[flip] *= -1.0
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(cloud.points.copy(), cloud.intensity, normals)
