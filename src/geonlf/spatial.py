"""Spatial queries backing the Chamfer-style losses: exact nearest neighbor,
voxel-grid downsampling, and PCA normal estimation.

Nearest-neighbor search is exact (no approximation) so correspondence-based
gradients and the test oracles agree deterministically. The kd-tree is
provided by scipy; a repair pass enforces the lowest-index tie rule on top
of it. `KdTree` splits cells at the sliding midpoint (Maneewongvatana &
Mount, "It's okay to be skinny, if your friends are fat", 1999) and keeps
each cell's full box rather than shrinking it to its points. The scans are
2-manifolds, and many correspondence queries land away from the surface
a tree was built on (off the overlap of two frames, or before alignment);
there those cells prune better than scipy's default median splits. A
`KdTree` result does not depend on the layout: the nearest index is unique
unless two distances tie exactly, and ties are re-ranked.

The module also owns the program's one thread pool (`pool_map`), one
thread per CPU the process may run on. The field renders and
back-propagates on it shard by shard; the geometric phase runs its
per-frame correspondence queries, its surface clouds and the ICP pairs on
it. It is the only parallelism: every kd-tree query runs on the thread
that makes it, and each query point is answered on its own, so results do
not depend on the thread count.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.spatial import cKDTree

from .cloud import PointCloud
from .errors import DegenerateNeighborhood, EmptyCloud, NonPositiveVoxel


# Neighbours in the PCA of every normal estimate.
NORMAL_NEIGHBORS = 12


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask (so a `taskset` cap is
    honoured), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:             # no affinity API on this platform
        return os.cpu_count() or 1


_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.inside = True


def _on_pool_thread() -> bool:
    return getattr(_pool_thread, "inside", False)


def pool_map(tasks: list[Callable]) -> Iterator:
    """Run zero-argument callables and yield their results in task order.

    Every task is submitted at once to one shared pool of `usable_cpus()`
    threads, so the caller can use the first results while later tasks
    run. The tasks run one by one on the calling thread instead, as their
    results are pulled, when there is one CPU or at most one task, or when
    the caller is itself a pool task: a nested map never waits on threads
    that all wait on it.
    """
    global _pool
    cpus = usable_cpus()
    if cpus == 1 or len(tasks) <= 1 or _on_pool_thread():
        return (task() for task in tasks)
    with _pool_lock:
        if _pool is None or _pool[0] != cpus:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (cpus, ThreadPoolExecutor(cpus, thread_name_prefix="geonlf",
                                              initializer=_mark_pool_thread))
        pool = _pool[1]
    return pool.map(lambda task: task(), tasks)


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
        # Sliding-midpoint splits and unshrunk cell boxes (module
        # docstring); both flags are needed, since sliding midpoints with
        # compacted boxes were no faster than scipy's default. Replaying
        # one geometric step's k = 2 queries on one thread (median of 11 / 7
        # interleaved runs on seed 3 / 5), against the default layout: the
        # corridor's 182k / 177k queries into ~4k-point voxel trees took
        # 385 / 287 ms instead of 520 / 373 ms; the low-overlap preset's
        # 91k into ~2k-point trees 144 / 109 ms instead of 197 / 131 ms;
        # its first ICP sweep, 74k queries into 7-11k-point raw scans,
        # 274 / 127 ms instead of 980 / 972 ms. Builds took 54-68% as
        # long. Leaves of 16, 32, 64 and 128 points were within ~10%, 64
        # fastest or tied.
        self._tree = cKDTree(points, leafsize=64, balanced_tree=False,
                             compact_nodes=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    def query_many(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched exact nearest neighbors with the lowest-index tie rule.

        Returns (indices (M,), distances (M,)).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = min(2, len(self))
        dist, idx = self._tree.query(queries, k=k)
        if k == 1:
            return idx.reshape(-1).astype(np.int64), dist.reshape(-1)
        best = idx[:, 0].astype(np.int64)
        tied = np.nonzero(dist[:, 0] == dist[:, 1])[0]
        if tied.size:
            # A tie at k=2 may hide further candidates at the same distance;
            # enumerate each closed ball and re-rank on exact squared
            # distance, keeping the lowest index among the nearest.
            radii = dist[tied, 0] * (1.0 + 1e-12) + 1e-300
            balls = self._tree.query_ball_point(queries[tied], radii,
                                                return_sorted=False)
            sizes = np.fromiter(map(len, balls), np.int64, len(balls))
            starts = np.cumsum(sizes) - sizes
            cand = np.concatenate(balls).astype(np.int64)
            d2 = ((self.points[cand] - np.repeat(queries[tied], sizes, axis=0))
                  ** 2).sum(axis=1)
            nearest = d2 == np.repeat(np.minimum.reduceat(d2, starts), sizes)
            best[tied] = np.minimum.reduceat(np.where(nearest, cand, len(self)),
                                             starts)
        return best, dist[:, 0]


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """One centroid per occupied voxel; cells keyed by floor(x / voxel).

    Output order is ascending cell key, z-major, then y, then x.
    """
    if voxel_size <= 0.0:
        raise NonPositiveVoxel(f"voxel_size must be > 0, got {voxel_size}")
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")
    keys = np.floor(cloud.points / voxel_size).astype(np.int64)
    # Sort by (z, y, x) and number the cells in that order; a lexsort of the
    # three columns is several times faster than np.unique over rows.
    order = np.lexsort((keys[:, 0], keys[:, 1], keys[:, 2]))
    sorted_keys = keys[order]
    new_cell = np.ones(len(cloud), dtype=bool)
    new_cell[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    inverse = np.empty(len(cloud), dtype=np.int64)
    inverse[order] = np.cumsum(new_cell) - 1
    cells = int(new_cell.sum())
    counts = np.bincount(inverse, minlength=cells).astype(np.float64)
    centroids = np.zeros((cells, 3))
    for axis in range(3):
        centroids[:, axis] = np.bincount(inverse, weights=cloud.points[:, axis],
                                         minlength=cells)
    centroids /= counts[:, None]
    intensity = None
    if cloud.intensity is not None:
        intensity = np.bincount(inverse, weights=cloud.intensity,
                                minlength=cells) / counts
    return PointCloud(centroids, intensity)


def _pca_normals(cloud: PointCloud, sites: np.ndarray):
    """Unoriented unit normals at the points `sites` (N, 3): the
    smallest-eigenvalue eigenvectors of the covariance of their
    NORMAL_NEIGHBORS nearest points in `cloud`, and the mask of sites whose
    neighbourhood covariance has rank < 2."""
    k = NORMAL_NEIGHBORS
    if len(cloud) <= k:
        raise EmptyCloud(f"need more than {k} points, got {len(cloud)}")
    # Leaf size 16 and scipy's default layout, unlike KdTree: the order of
    # equidistant neighbours, and which one a k-NN query returns when the
    # k-th and (k+1)-th tie, depend on the tree's layout, and the PCA sums
    # follow that order. KdTree's layout reorders 3,882 of 2,263,776
    # neighbour slots of the normal queries on the corridor and
    # low-overlap scans of seed 3 and changes 162 of 188,648 normals.
    _, nn_idx = cKDTree(cloud.points, leafsize=16).query(sites, k=k)
    neigh = cloud.points[nn_idx]
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k
    eigval, eigvec = np.linalg.eigh(cov)               # ascending eigenvalues
    degenerate = eigval[:, 1] <= np.maximum(1e-12 * eigval[:, 2], 1e-18)
    if degenerate.all():
        raise DegenerateNeighborhood("all neighborhoods are rank-deficient")
    return eigvec[:, :, 0], degenerate


def _orient(normals: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Flip normals toward the origin (normal . -p >= 0), then
    renormalize."""
    flip = np.einsum("ni,ni->n", normals, -points) < 0.0
    normals[flip] *= -1.0
    return normals / np.linalg.norm(normals, axis=1, keepdims=True)


def estimate_normals(cloud: PointCloud) -> PointCloud:
    """Per-point unit normals from the covariance of the NORMAL_NEIGHBORS
    nearest points.

    The normal is the smallest-eigenvalue eigenvector; its sign is flipped
    so that it points toward the origin, the sensor of a sensor-frame
    cloud. Neighborhoods whose
    covariance has rank < 2 get a +z placeholder and a warning; if every
    neighborhood is degenerate the call raises DegenerateNeighborhood.
    """
    normals, degenerate = _pca_normals(cloud, cloud.points)
    if degenerate.any():
        warnings.warn(f"{int(degenerate.sum())} degenerate normal neighborhoods; "
                      "using +z placeholder", RuntimeWarning)
        normals[degenerate] = np.array([0.0, 0.0, 1.0])
    return PointCloud(cloud.points.copy(), cloud.intensity,
                      _orient(normals, cloud.points))


def normals_at(cloud: PointCloud, sites: PointCloud) -> PointCloud:
    """`sites` with unit normals from the PCA of their NORMAL_NEIGHBORS
    nearest points in `cloud`, a sensor-frame scan.

    Used with the voxel centroids of the same scan as sites, this gives
    every centroid the normal of the full-resolution surface around it at
    the cost of one query per centroid. Normals point toward the sensor at
    the origin. Sites whose neighbors are collinear have no normal and are
    left out; if none has one the call raises DegenerateNeighborhood.
    """
    normals, degenerate = _pca_normals(cloud, sites.points)
    kept = sites.subset(~degenerate)
    return PointCloud(kept.points, kept.intensity,
                      _orient(normals[~degenerate], kept.points))
