import numpy as np
import pytest
import threading
import time
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from geonlf.cloud import PointCloud
from geonlf.errors import DegenerateNeighborhood, EmptyCloud, NonPositiveVoxel
from geonlf.spatial import (CACHE_CANDIDATES, KdTree, NearestCache,
                            estimate_normals, normals_at, pool_map,
                            voxel_downsample)
from oracles import linear_scan_nearest, unique_voxel_downsample, voxel_groups


def fibonacci_sphere(n: int) -> np.ndarray:
    """Quasi-uniform points on the unit sphere."""
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + 5 ** 0.5) * i
    return np.column_stack([np.cos(theta) * np.sin(phi),
                            np.sin(theta) * np.sin(phi), np.cos(phi)])


class TestKdTree:
    def test_single_point(self):
        tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
        idx, dist = tree.query_many([[5.0, 5.0, 5.0]])
        assert idx[0] == 0
        np.testing.assert_allclose(dist[0], np.linalg.norm([4.0, 3.0, 2.0]))

    def test_exact_match(self):
        pts = np.random.default_rng(0).normal(size=(100, 3))
        tree = KdTree(pts)
        idx, dist = tree.query_many(pts[42:43])
        assert idx[0] == 42 and dist[0] == 0.0

    def test_duplicates_give_zero(self):
        pts = np.array([[0.5, 0.5, 0.5]] * 4 + [[1.0, 1.0, 1.0]])
        idx, dist = KdTree(pts).query_many([[0.5, 0.5, 0.5]])
        assert dist[0] == 0.0 and idx[0] == 0

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        idx, dist = KdTree(pts).query_many([[1.0, 0.0, 0.0]])
        assert idx[0] == 0 and dist[0] == 1.0
        # and with the candidates swapped, still the lower index
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        idx, _ = KdTree(pts).query_many([[1.0, 0.0, 0.0]])
        assert idx[0] == 0

    def test_many_way_tie(self):
        # four corners of a square, query at the center
        pts = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0],
                        [1.0, -1.0, 0.0], [-1.0, -1.0, 0.0]])
        idx, _ = KdTree(pts).query_many([[0.0, 0.0, 0.0]])
        assert idx[0] == 0

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(1000, 3))
        tree = KdTree(pts)
        queries = rng.normal(size=(500, 3))
        idx, dist = tree.query_many(queries)
        for q, i, d in zip(queries, idx, dist):
            ref_i, ref_d = linear_scan_nearest(pts, q)
            assert i == ref_i
            np.testing.assert_allclose(d, ref_d, atol=1e-12)

    def test_large_exactness_sweep(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            pts = rng.uniform(size=(300, 3))
            queries = rng.uniform(size=(1000, 3))
            idx, _ = KdTree(pts).query_many(queries)
            ref = np.array([linear_scan_nearest(pts, q)[0] for q in queries])
            np.testing.assert_array_equal(idx, ref)

    @pytest.mark.parametrize("kind", ["lattice", "random", "coplanar",
                                      "collinear", "duplicates", "far"])
    def test_tie_rule_for_any_worker_count(self, kind):
        # Large enough for a multi-level tree of 64-point leaves. Scipy's
        # answers do not depend on how many threads split the batch, and
        # the library always queries on one. On the lattice, half-integer
        # coordinates make 2-, 4- and 8-way ties; the point order is
        # shuffled so the lowest index is not the first one found. The
        # other clouds make the skinny and empty cells of sliding-midpoint
        # splits: a flat and a straight cloud (zero spread on an axis),
        # more copies of one point than a leaf holds, and queries 10x the
        # extent outside the lattice's bounding box (the low-overlap
        # regime). Coordinates on power-of-two grids make the distances
        # exact and the ties real.
        rng = np.random.default_rng(12)
        if kind in ("lattice", "far"):
            axis = np.arange(13.0)
            pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                           axis=-1).reshape(-1, 3)
            pts = pts[rng.permutation(len(pts))]
        if kind == "lattice":
            queries = (rng.integers(0, 12, size=(6000, 3))
                       + rng.choice([0.0, 0.5], size=(6000, 3)))
        elif kind == "random":
            pts = rng.normal(size=(3000, 3))
            queries = rng.normal(size=(3000, 3))
        elif kind == "coplanar":
            pts = np.column_stack([rng.integers(0, 32, size=(3000, 2)) / 32,
                                   np.full(3000, 0.5)])
            queries = np.column_stack([
                rng.integers(0, 64, size=(2000, 2)) / 64,
                rng.choice([0.5, 0.625, 0.25], size=2000)])
        elif kind == "collinear":
            pts = np.column_stack([rng.integers(0, 1024, size=3000) / 64,
                                   np.zeros(3000), np.zeros(3000)])
            queries = np.column_stack([rng.integers(0, 2048, size=2000) / 128,
                                       rng.integers(-4, 5, size=(2000, 2)) / 8])
        elif kind == "duplicates":
            dup = np.array([0.25, 0.25, 0.25])
            pts = np.vstack([rng.uniform(-1, 1, size=(2000, 3)),
                             np.tile(dup, (100, 1))])
            pts = pts[rng.permutation(len(pts))]
            queries = np.vstack([np.tile(dup, (10, 1)),
                                 dup + rng.normal(0, 1e-3, size=(500, 3)),
                                 rng.uniform(-1, 1, size=(1000, 3))])
        else:
            queries = rng.integers(-120, 133, size=(2000, 3)) + 0.5
            beyond = 120.0 + rng.uniform(0, 12, size=2000)
            queries[np.arange(2000), rng.integers(0, 3, size=2000)] = np.where(
                rng.random(2000) < 0.5, -beyond, 12.0 + beyond)
        ref = [linear_scan_nearest(pts, q) for q in queries]
        idx, dist = KdTree(pts).query_many(queries)
        np.testing.assert_array_equal(idx, [i for i, _ in ref])
        np.testing.assert_allclose(dist, [d for _, d in ref], atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            KdTree(np.zeros((0, 3)))


class TestNearestCache:
    """A cache answers what a fresh `query_many` answers (`cache_audit`
    compares every call), however far its points moved since it last
    queried them."""

    @staticmethod
    def _walk(tree, batches):
        """Feed the batches to one cache; return the brute-force nearest
        indices of every batch, the lowest index among equals, next to the
        cache's answers."""
        cache = NearestCache(tree, len(batches[0]))
        for queries in batches:
            got = cache.query(queries)
            d2 = ((queries[:, None, :] - tree.points[None]) ** 2).sum(axis=2)
            yield got, d2.argmin(axis=1)

    def test_random_walk(self, cache_audit):
        rng = np.random.default_rng(7)
        tree = KdTree(rng.uniform(size=(500, 3)))
        queries = rng.uniform(size=(300, 3))
        batches = []
        for step in range(30):
            scale = 1e-3 if step % 5 else 5e-2
            queries = queries + rng.normal(0.0, scale, size=queries.shape)
            batches.append(queries)
        for got, want in self._walk(tree, batches):
            np.testing.assert_array_equal(got, want)
        assert sum(cache_audit.answered) == 30 * 300
        # the first call queries every point; later ones reuse most
        assert 300 < sum(cache_audit.requeried) < 30 * 300 / 2

    def test_grid_ties_keep_lowest_index(self, cache_audit):
        # Dyadic coordinates make the distances exact and the ties real.
        # Queries start on 2-, 4- and 8-way ties (half-integer
        # coordinates) or off them (quarters), then step by 2^-30 off and
        # back onto them.
        rng = np.random.default_rng(12)
        axis = np.arange(8.0)
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                       axis=-1).reshape(-1, 3)
        tree = KdTree(pts[rng.permutation(len(pts))])
        start = (rng.integers(0, 7, size=(400, 3))
                 + rng.choice([0.0, 0.25, 0.5], size=(400, 3)))
        batches = [start]
        for step in range(20):
            nudge = rng.choice([-1.0, 0.0, 1.0], size=start.shape) * 2.0 ** -30
            batches.append(start + (nudge if step % 2 else 0.0))
        tied = 0
        for (got, want), queries in zip(self._walk(tree, batches),
                                        batches):
            np.testing.assert_array_equal(got, want)
            d2 = ((queries[:, None, :] - tree.points[None]) ** 2).sum(axis=2)
            tied += int(((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1)
                         > 1).sum())
        assert tied > 0
        assert 400 < sum(cache_audit.requeried) < 21 * 400

    @pytest.mark.parametrize("size", range(1, CACHE_CANDIDATES + 1))
    def test_tree_of_at_most_k_points(self, size, cache_audit):
        # Every point is a candidate, so reach is infinite.
        rng = np.random.default_rng(size)
        tree = KdTree(rng.uniform(size=(size, 3)))
        queries = rng.uniform(-1.0, 2.0, size=(200, 3))
        batches = [queries + step * rng.normal(0.0, 0.3, size=(200, 3))
                   for step in range(10)]
        for got, want in self._walk(tree, batches):
            np.testing.assert_array_equal(got, want)
        assert sum(cache_audit.requeried) < 2 * 200


class TestVoxelDownsample:
    def test_single_voxel_centroid(self):
        pts = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02],
                        [0.03, 0.01, 0.02]])
        out = voxel_downsample(PointCloud(pts), 0.1)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], pts.mean(axis=0))

    def test_boundary_uses_floor(self):
        pts = np.array([[0.1, 0.0, 0.0], [0.0999999, 0.0, 0.0]])
        out = voxel_downsample(PointCloud(pts), 0.1)
        assert len(out) == 2  # 0.1 falls into cell 1, 0.0999999 into cell 0

    def test_matches_hash_map_oracle(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(10000, 3))
        voxel = 0.05
        out = voxel_downsample(PointCloud(pts), voxel)
        ref = voxel_groups(pts, voxel)
        assert len(out) == len(ref)
        for p in out.points:
            key = tuple(np.floor(p / voxel).astype(np.int64))
            np.testing.assert_allclose(p, ref[key], atol=1e-12)

    def test_output_order_z_major_ascending(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(500, 3))
        out = voxel_downsample(PointCloud(pts), 0.2)
        keys = np.floor(out.points / 0.2).astype(np.int64)
        zyx = [tuple(k[::-1]) for k in keys]
        assert zyx == sorted(zyx)

    def test_intensity_averaged(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
        out = voxel_downsample(PointCloud(pts, intensity=[0.2, 0.4]), 1.0)
        np.testing.assert_allclose(out.intensity, [0.3])

    @given(st.integers(1, 3000), st.sampled_from([0.01, 0.05, 0.13, 7.0]),
           st.sampled_from(["uniform", "gaussian", "rounded"]))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_unique_reference(self, n, voxel, kind):
        rng = np.random.default_rng(n)
        if kind == "uniform":
            pts = rng.uniform(-1, 1, size=(n, 3))
        elif kind == "gaussian":
            pts = rng.normal(0.0, 100.0, size=(n, 3))
        else:  # duplicates and points on cell faces
            pts = np.round(rng.uniform(-1, 1, size=(n, 3)), 1)
        intensity = rng.uniform(size=n)
        out = voxel_downsample(PointCloud(pts, intensity=intensity), voxel)
        ref_pts, ref_int = unique_voxel_downsample(pts, intensity, voxel)
        np.testing.assert_array_equal(out.points, ref_pts)
        np.testing.assert_array_equal(out.intensity, ref_int)

    @given(st.integers(1, 400))
    @settings(max_examples=20, deadline=None)
    def test_idempotent_and_not_larger(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(size=(n, 3))
        once = voxel_downsample(PointCloud(pts), 0.13)
        twice = voxel_downsample(once, 0.13)
        assert len(once) <= n
        np.testing.assert_array_equal(once.points, twice.points)

    def test_nonpositive_voxel(self):
        with pytest.raises(NonPositiveVoxel):
            voxel_downsample(PointCloud(np.zeros((1, 3))), 0.0)


class TestEstimateNormals:
    def test_plane_normals(self):
        rng = np.random.default_rng(6)
        pts = np.column_stack([rng.uniform(-1, 1, 200),
                               rng.uniform(-1, 1, 200),
                               np.full(200, -5.0)])
        out = estimate_normals(PointCloud(pts))
        # sign fixed toward the sensor at the origin, above the plane
        np.testing.assert_allclose(np.abs(out.normals[:, 2]), 1.0, atol=1e-9)
        assert (out.normals[:, 2] > 0).all()

    def test_sphere_normals_point_inward(self):
        pts = fibonacci_sphere(2000)
        out = estimate_normals(PointCloud(pts))
        cos = np.einsum("ni,ni->n", out.normals, -pts)
        angles = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert angles.max() < 5.0

    def test_unit_length(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(300, 3))
        out = estimate_normals(PointCloud(pts))
        np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0,
                                   atol=1e-10)

    def test_collinear_raises(self):
        pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)])
        with pytest.raises(DegenerateNeighborhood):
            estimate_normals(PointCloud(pts))

    def test_partial_degeneracy_warns(self):
        rng = np.random.default_rng(9)
        plane = np.column_stack([rng.uniform(5, 6, 100),
                                 rng.uniform(5, 6, 100), np.zeros(100)])
        line = np.column_stack([np.linspace(-60, -50, 30),
                                np.zeros(30), np.zeros(30)])
        pts = np.vstack([plane, line])
        with pytest.warns(RuntimeWarning):
            out = estimate_normals(PointCloud(pts))
        assert len(out) == 130

    def test_too_small_cloud(self):
        with pytest.raises(EmptyCloud):
            estimate_normals(PointCloud(np.zeros((12, 3))))


class TestNormalsAt:
    def test_centroids_of_a_plane_get_its_normal(self):
        rng = np.random.default_rng(10)
        pts = np.column_stack([rng.uniform(-1, 1, 400),
                               rng.uniform(-1, 1, 400), np.full(400, 0.5)])
        cloud = PointCloud(pts, intensity=rng.uniform(size=400))
        sites = voxel_downsample(cloud, 0.5)
        out = normals_at(cloud, sites)
        np.testing.assert_array_equal(out.points, sites.points)
        np.testing.assert_array_equal(out.intensity, sites.intensity)
        # pointed toward the sensor at the origin, below the plane
        np.testing.assert_allclose(out.normals, np.tile([0.0, 0.0, -1.0],
                                                        (len(out), 1)),
                                   atol=1e-9)

    def test_collinear_sites_left_out(self):
        rng = np.random.default_rng(11)
        plane = np.column_stack([rng.uniform(5, 6, 100),
                                 rng.uniform(5, 6, 100), np.zeros(100)])
        line = np.column_stack([np.linspace(-60, -50, 30),
                                np.zeros(30), np.zeros(30)])
        sites = PointCloud([[5.5, 5.5, 0.0], [-55.0, 0.0, 0.0]])
        out = normals_at(PointCloud(np.vstack([plane, line])), sites)
        np.testing.assert_array_equal(out.points, [[5.5, 5.5, 0.0]])

    def test_all_collinear_raises(self):
        pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)])
        with pytest.raises(DegenerateNeighborhood):
            normals_at(PointCloud(pts), PointCloud(pts[::10]))

    def test_too_small_cloud(self):
        with pytest.raises(EmptyCloud):
            normals_at(PointCloud(np.zeros((12, 3))), PointCloud(np.zeros((1, 3))))


def _tagged(value, delay=0.0):
    """`value` and the thread that returned it, after `delay` seconds."""
    time.sleep(delay)
    return value, threading.get_ident()


class TestPoolMap:
    def test_results_in_task_order_from_pool_threads(self, set_cpus):
        set_cpus(3)
        # The first tasks finish last.
        got = list(pool_map([partial(_tagged, k, 0.01 * (6 - k))
                             for k in range(6)]))
        assert [value for value, _ in got] == list(range(6))
        assert threading.get_ident() not in {thread for _, thread in got}

    def test_one_cpu_runs_on_the_calling_thread(self, set_cpus):
        set_cpus(1)
        got = list(pool_map([partial(_tagged, k) for k in range(4)]))
        assert got == [(k, threading.get_ident()) for k in range(4)]

    def test_nested_map_runs_inline_in_order(self, set_cpus):
        # Four outer tasks on two threads, each mapping three tasks of its
        # own: without the guard both threads would wait on nested tasks
        # that no thread is free to run.
        set_cpus(2)

        def outer(i):
            inner = list(pool_map([partial(_tagged, (i, j), 0.001 * (3 - j))
                                   for j in range(3)]))
            return inner, threading.get_ident()

        got = []
        caller = threading.Thread(
            target=lambda: got.extend(pool_map([partial(outer, i)
                                                for i in range(4)])),
            daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "nested pool_map deadlocked"
        assert len(got) == 4
        for i, (inner, thread) in enumerate(got):
            assert inner == [((i, j), thread) for j in range(3)]
