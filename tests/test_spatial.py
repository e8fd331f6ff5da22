import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonlf.cloud import PointCloud
from geonlf.errors import DegenerateNeighborhood, EmptyCloud, NonPositiveVoxel
from geonlf.spatial import KdTree, estimate_normals, voxel_downsample
from oracles import linear_scan_nearest, voxel_groups


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
        idx, dist = tree.nearest([5.0, 5.0, 5.0])
        assert idx == 0
        np.testing.assert_allclose(dist, np.linalg.norm([4.0, 3.0, 2.0]))

    def test_exact_match(self):
        pts = np.random.default_rng(0).normal(size=(100, 3))
        tree = KdTree(pts)
        idx, dist = tree.nearest(pts[42])
        assert idx == 42 and dist == 0.0

    def test_duplicates_give_zero(self):
        pts = np.array([[0.5, 0.5, 0.5]] * 4 + [[1.0, 1.0, 1.0]])
        idx, dist = KdTree(pts).nearest([0.5, 0.5, 0.5])
        assert dist == 0.0 and idx == 0

    def test_tie_breaks_to_lower_index(self):
        pts = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        idx, dist = KdTree(pts).nearest([1.0, 0.0, 0.0])
        assert idx == 0 and dist == 1.0
        # and with the candidates swapped, still the lower index
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        idx, _ = KdTree(pts).nearest([1.0, 0.0, 0.0])
        assert idx == 0

    def test_many_way_tie(self):
        # four corners of a square, query at the center
        pts = np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0],
                        [1.0, -1.0, 0.0], [-1.0, -1.0, 0.0]])
        idx, _ = KdTree(pts).nearest([0.0, 0.0, 0.0])
        assert idx == 0

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

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            KdTree(np.zeros((0, 3)))


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
                               np.zeros(200)])
        out = estimate_normals(PointCloud(pts), k=8,
                               sensor_origin=[0.0, 0.0, 5.0])
        # sign fixed toward the sensor above the plane
        np.testing.assert_allclose(np.abs(out.normals[:, 2]), 1.0, atol=1e-9)
        assert (out.normals[:, 2] > 0).all()

    def test_sphere_normals_point_inward(self):
        pts = fibonacci_sphere(2000)
        out = estimate_normals(PointCloud(pts), k=12, sensor_origin=np.zeros(3))
        cos = np.einsum("ni,ni->n", out.normals, -pts)
        angles = np.degrees(np.arccos(np.clip(cos, -1, 1)))
        assert angles.max() < 5.0

    def test_unit_length(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(300, 3))
        out = estimate_normals(PointCloud(pts), k=10)
        np.testing.assert_allclose(np.linalg.norm(out.normals, axis=1), 1.0,
                                   atol=1e-10)

    def test_collinear_raises(self):
        pts = np.column_stack([np.linspace(0, 1, 50), np.zeros(50), np.zeros(50)])
        with pytest.raises(DegenerateNeighborhood):
            estimate_normals(PointCloud(pts), k=5)

    def test_partial_degeneracy_warns(self):
        rng = np.random.default_rng(9)
        plane = np.column_stack([rng.uniform(5, 6, 100),
                                 rng.uniform(5, 6, 100), np.zeros(100)])
        line = np.column_stack([np.linspace(-60, -50, 30),
                                np.zeros(30), np.zeros(30)])
        pts = np.vstack([plane, line])
        with pytest.warns(RuntimeWarning):
            out = estimate_normals(PointCloud(pts), k=5)
        assert len(out) == 130

    def test_too_small_cloud(self):
        with pytest.raises(EmptyCloud):
            estimate_normals(PointCloud(np.zeros((5, 3))), k=8)
