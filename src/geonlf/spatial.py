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

The geometric phase asks for the nearest neighbors of the same points
step after step while the poses move a little. `NearestCache` answers a
point without a query when a bound proves the answer unchanged. Let a be
where the tree was last queried for the point, C its k nearest points
there and r the distance of the farthest of them, so every point p
outside C has |p - a| >= r. At the point's new position q, let
delta = |q - a| and m1 <= m2 the two smallest distances from q to C. Every
p outside C has |p - q| >= |p - a| - delta >= r - delta, so if
m1 + delta < r, all of them are farther than m1; if also m1 < m2, the
candidate at m1 is the only nearest point, with no tie to break, and a
fresh query returns it. Both inequalities must hold with a relative margin
(CACHE_MARGIN, 1e-9) that is far above the few ulps by which scipy's and
numpy's rounding of a distance may differ. Every other point is queried
afresh and re-anchored. A cached answer therefore equals a fresh one, so
results depend neither on the calls before nor on the CPU count (the cached
search of Nuechter, Lingemann & Hertzberg, 3DIM 2007, and Verlet's
neighbour lists, 1967, made exact).

The module also owns the program's one thread pool (`pool_map`), one
thread per CPU the process may run on. The field renders and
back-propagates on it shard by shard; the geometric phase runs its
per-frame correspondence queries, its surface clouds and the ICP pairs on
it. It is the only parallelism: every kd-tree query runs on the thread
that makes it, and a query point's answer does not depend on the other
points of its batch, so results do not depend on the thread count.
"""

from __future__ import annotations

import ctypes
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

# Candidates a NearestCache keeps per query point. Replaying the 60
# geometric steps of `register_lowoverlap` on one CPU (seed 1501), 2 / 4 /
# 8 / 16 candidates let 49 / 74 / 86 / 92% of the point queries reuse
# their answer, the test of the bound took about 100 / 160 / 300 ns per
# point for 4 / 8 / 16, and the total query time was lowest, within the
# host's noise, from 4 to 8 candidates. Each one costs 4 bytes per point.
CACHE_CANDIDATES = 4
# Relative margin of both inequalities of the bound (module docstring).
CACHE_MARGIN = 1e-9
# Points re-queried per kd-tree call. A NearestCache.query re-queries a
# median of 2,178 / 3,615 and at most 14,769 / 27,799 points in one full
# register_lowoverlap / train_corridor operation (one CPU, seed 1501);
# unchunked, register_lowoverlap's peak RSS rose 1.7 MB (6 of 6 pairs).
REQUERY_CHUNK = 4096


# glibc malloc keeps freed blocks below M_TRIM_THRESHOLD at the top of a
# heap, and serves requests below M_MMAP_THRESHOLD from its heaps rather
# than from fresh mappings. Every render shard and training step frees tens
# of MB of temporaries; under glibc's default (dynamic) thresholds they went
# back to the kernel and the next shard faulted them in again. Per
# steady-state operation (2 CPUs, 10 seeds), minor faults fell from a
# median of 151k to 62 on `train_corridor`, with system time 0.49 -> 0.02 s,
# and from 31k to 0 on `render_corridor`; peak RSS rose 0.7-3.8%. Both
# thresholds are set, because setting either one freezes the dynamic mmap
# threshold at its 128 KiB start. One malloc arena (MALLOC_ARENA_MAX=1)
# saved 5-7% of RSS but brought back up to 108k faults per training
# operation and was slower. The pool's threads reuse their heaps too; the
# policy is set when the module that owns the pool is imported. It changes
# where memory comes from, never a number the program computes.
MMAP_THRESHOLD = 32 * 2 ** 20
TRIM_THRESHOLD = 64 * 2 ** 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_memory() -> None:
    """Set the two malloc thresholds above; a no-op where the C library
    has no `mallopt` (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


_keep_freed_memory()


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
        best, _, dist = self.query_candidates(queries, 2)
        return best, dist[:, 0]

    def query_candidates(self, queries: np.ndarray, k: int):
        """The k nearest points of each query, k at most the tree size.

        Returns (nearest (M,), indices (M, k), distances (M, k)): `nearest`
        is what `query_many` returns, the lowest index among the nearest;
        the columns are scipy's k nearest in ascending distance, equidistant
        ones in no set order.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k = min(k, len(self))
        dist, idx = self._tree.query(queries, k=k)
        dist, idx = dist.reshape(-1, k), idx.reshape(-1, k)
        best = idx[:, 0].astype(np.int64)
        if k == 1:
            return best, idx, dist
        tied = np.nonzero(dist[:, 0] == dist[:, 1])[0]
        if tied.size:
            # A tie may hide further candidates at the same distance;
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
        return best, idx, dist


class NearestCache:
    """`KdTree.query_many` indices for a batch of query points of fixed
    size that move a little between calls, as one destination frame's
    correspondence queries do from one geometric step to the next.

    For each query point it keeps an anchor (where the tree was last
    queried for it), the indices of its CACHE_CANDIDATES nearest points at
    the anchor and `reach`, the distance of the last of them. A point
    that moved by delta from its anchor reuses them when the bound of the
    module docstring proves their nearest equal to a fresh query's; every
    other point is queried afresh and re-anchored. The answers equal
    `tree.query_many(queries)[0]` whatever the cache holds.

    The state is allocated once and updated in place, so one thread may
    own a cache while others own theirs. It takes 32 bytes per point: the
    anchor in float32, the candidates in int32 and reach in float32. The
    bound stays exact at the rounded anchor because reach is stored less
    the anchor's rounding distance and rounded down.
    """

    def __init__(self, tree: KdTree, size: int):
        self.tree = tree
        k = min(CACHE_CANDIDATES, len(tree))
        # NaN anchors fail every test, so the first call queries each point.
        self.anchors = np.full((3, size), np.nan, dtype=np.float32)
        self.candidates = np.zeros((k, size), dtype=np.int32)
        self.reach = np.full(size, np.inf, dtype=np.float32)

    def query(self, queries: np.ndarray) -> np.ndarray:
        """Nearest indices (M,), int32, of the batch `queries` (M, 3)."""
        x, y, z = self.tree.points.T
        qx, qy, qz = queries.T
        ax, ay, az = self.anchors
        delta = (qx - ax) ** 2
        delta += (qy - ay) ** 2
        delta += (qz - az) ** 2
        np.sqrt(delta, out=delta)
        # Squared distances at the queries: the smallest, its candidate,
        # and the second smallest.
        first, *others = self.candidates
        best = first.copy()
        d1 = (x.take(best) - qx) ** 2
        d1 += (y.take(best) - qy) ** 2
        d1 += (z.take(best) - qz) ** 2
        d2 = np.full(len(d1), np.inf)
        for cand in others:
            d = (x.take(cand) - qx) ** 2
            d += (y.take(cand) - qy) ** 2
            d += (z.take(cand) - qz) ** 2
            closer = d < d1
            np.minimum(d2, d, out=d2)
            np.copyto(d2, d1, where=closer)
            np.copyto(best, cand, where=closer)
            np.minimum(d1, d, out=d1)
        proven = d1 * (1.0 + 2.0 * CACHE_MARGIN) < d2
        np.sqrt(d1, out=d1)
        d1 += delta
        proven &= d1 < self.reach
        stale = np.flatnonzero(~proven)
        for lo in range(0, stale.size, REQUERY_CHUNK):
            part = stale[lo:lo + REQUERY_CHUNK]
            best[part] = self._anchor(part, queries[part])
        return best

    def _anchor(self, stale: np.ndarray, moved: np.ndarray) -> np.ndarray:
        """Query the points `moved` afresh, store them as the anchors of
        the batch points `stale`, and return their nearest indices."""
        nearest, idx, dist = self.tree.query_candidates(moved,
                                                        len(self.candidates))
        self.candidates[:, stale] = idx.T
        anchors = moved.T.astype(np.float32)
        self.anchors[:, stale] = anchors
        if len(self.tree) > len(self.candidates):
            rounding = np.sqrt(((moved.T - anchors) ** 2).sum(axis=0))
            reach = dist[:, -1] * (1.0 - CACHE_MARGIN) - rounding
            stored = reach.astype(np.float32)
            self.reach[stale] = np.where(
                stored > reach, np.nextafter(stored, np.float32(-np.inf)),
                stored)
        return nearest


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
