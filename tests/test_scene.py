import dataclasses

import numpy as np
import pytest

from geonlf.cloud import PointCloud, RangeImage
from geonlf.errors import ShapeMismatch, UnknownPreset
from geonlf.geometry import rotation_angle, so3_exp
from geonlf.scene import (PRESETS, Box, Cylinder, Rect, ScannerConfig, Scene,
                          Sphere, _reaching, lidar_scan, make_scene,
                          make_trajectory, perturb_poses, unproject)
from geonlf.spatial import KdTree
from oracles import AllRaysScene, project_points, surface_residual

SCANNER = ScannerConfig()


class TestPrimitives:
    def test_rect_hit(self):
        rect = Rect([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 1.0, 1.0)
        t, n = rect.intersect(np.array([[0.2, 0.1, 2.0]]),
                              np.array([[0.0, 0.0, -1.0]]))
        np.testing.assert_allclose(t, [2.0])
        np.testing.assert_allclose(np.abs(n[0, 2]), 1.0)

    def test_rect_extent_miss(self):
        rect = Rect([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.1, 0.1)
        t, _ = rect.intersect(np.array([[5.0, 0.0, 1.0]]),
                              np.array([[0.0, 0.0, -1.0]]))
        assert np.isinf(t[0])

    def test_sphere_hit_from_outside(self):
        s = Sphere([0.0, 0.0, 0.0], 0.5)
        t, n = s.intersect(np.array([[2.0, 0.0, 0.0]]),
                           np.array([[-1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(t, [1.5])
        np.testing.assert_allclose(n[0], [1.0, 0.0, 0.0])

    def test_box_slab(self):
        b = Box([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        t, n = b.intersect(np.array([[2.0, 0.1, 0.2]]),
                           np.array([[-1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(t, [1.5])
        np.testing.assert_allclose(n[0], [1.0, 0.0, 0.0])

    def test_cylinder_side(self):
        c = Cylinder([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.25, 1.0)
        t, n = c.intersect(np.array([[2.0, 0.0, 0.3]]),
                           np.array([[-1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(t, [1.75])
        np.testing.assert_allclose(n[0], [1.0, 0.0, 0.0])

    def test_cylinder_height_bound(self):
        c = Cylinder([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 0.25, 0.2)
        t, _ = c.intersect(np.array([[2.0, 0.0, 0.5]]),
                           np.array([[-1.0, 0.0, 0.0]]))
        assert np.isinf(t[0])


class TestMakeScene:
    def test_deterministic(self):
        a = make_scene("corridor", seed=3)
        b = make_scene("corridor", seed=3)
        assert len(a.primitives) == len(b.primitives)
        for pa, pb in zip(a.primitives, b.primitives):
            assert type(pa) is type(pb)
            assert pa.reflectance == pb.reflectance

    def test_corridor_structure(self):
        scene = make_scene("corridor", seed=0)
        rects = [p for p in scene.primitives if isinstance(p, Rect)]
        normals = np.array([r.normal for r in rects[:3]])
        # floor plus two parallel walls
        np.testing.assert_allclose(np.abs(normals[0]), [0, 0, 1])
        np.testing.assert_allclose(np.abs(normals[1]), [0, 1, 0])
        np.testing.assert_allclose(np.abs(normals[2]), [0, 1, 0])
        for p in scene.primitives:
            if isinstance(p, (Box, Sphere)):
                center = p.center
                assert (center >= 0).all() and (center <= 1).all()
            assert 0.0 <= p.reflectance <= 1.0

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            make_scene("volcano", 0)
        with pytest.raises(UnknownPreset):
            make_trajectory("volcano", 8, 0)


class TestScannerConfig:
    def test_directions_cached_and_read_only_fields_frozen(self):
        cfg = ScannerConfig(beams=4, azimuth_steps=8)
        assert cfg.shape == (4, 8)
        assert cfg.directions.shape == (32, 3)
        assert cfg.directions is cfg.directions
        with pytest.raises(ValueError, match="read-only"):
            cfg.directions[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.beams = 8

    @pytest.mark.parametrize("max_range", [0.0, -1.0])
    def test_nonpositive_max_range_rejected(self, max_range):
        with pytest.raises(ValueError, match="max_range"):
            ScannerConfig(max_range=max_range)

    @pytest.mark.parametrize("drop_prob", [-0.1, 1.5])
    def test_drop_prob_outside_unit_interval_rejected(self, drop_prob):
        with pytest.raises(ValueError, match="drop_prob"):
            ScannerConfig(drop_prob=drop_prob)


class TestLidarScan:
    def test_plane_below_matches_closed_form(self):
        # sensor at z = 0.5 above a large floor at z = 0; downward beams see
        # depth |z| / sin(elevation)
        scene = Scene([Rect([0.5, 0.5, 0.0], [0.0, 0.0, 1.0], 50.0, 50.0)])
        cfg = ScannerConfig(beams=16, azimuth_steps=60, fov_up_deg=-5.0,
                            fov_down_deg=-60.0, max_range=10.0, drop_prob=0.0)
        pose = np.eye(4)
        pose[:3, 3] = [0.5, 0.5, 0.5]
        rimg, _ = lidar_scan(scene, pose, cfg, seed=0)
        fov_up = np.deg2rad(cfg.fov_up_deg)
        fov_down = np.deg2rad(cfg.fov_down_deg)
        for row in range(16):
            phi = fov_up - (row + 0.5) / 16 * (fov_up - fov_down)
            expected = 0.5 / np.sin(-phi)
            got = rimg.depth[row][rimg.valid[row]]
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_empty_scene_all_dropped(self):
        rimg, cloud = lidar_scan(Scene([]), np.eye(4), SCANNER, seed=0)
        assert not rimg.valid.any()
        assert len(cloud) == 0

    def test_sphere_symmetric_depth(self):
        scene = Scene([Sphere([0.5, 0.5, 0.2], 0.15)])
        cfg = ScannerConfig(beams=8, azimuth_steps=90, fov_up_deg=-20.0,
                            fov_down_deg=-60.0, max_range=2.0, drop_prob=0.0)
        pose = np.eye(4)
        pose[:3, 3] = [0.5, 0.5, 0.6]
        rimg, _ = lidar_scan(scene, pose, cfg, seed=0)
        # azimuthal symmetry: each row's valid depths are constant
        for row in range(8):
            vals = rimg.depth[row][rimg.valid[row]]
            if vals.size:
                assert vals.ptp() < 1e-9

    def test_points_on_surfaces(self):
        scene = make_scene("corridor", seed=1)
        traj = make_trajectory("corridor", 4, seed=1)
        rimg, cloud = lidar_scan(scene, traj.poses[1], SCANNER, seed=5)
        pose = traj.poses[1]
        world = cloud.points @ pose[:3, :3].T + pose[:3, 3]
        res = surface_residual(scene, world)
        assert res.max() < 1e-9

    def test_depth_equals_point_norm(self):
        scene = make_scene("intersection", seed=2)
        traj = make_trajectory("intersection", 4, seed=2)
        rimg, cloud = lidar_scan(scene, traj.poses[0], SCANNER, seed=3)
        norms = np.linalg.norm(cloud.points, axis=1)
        np.testing.assert_allclose(np.sort(norms),
                                   np.sort(rimg.depth[rimg.valid]), atol=1e-9)

    def test_deterministic(self):
        scene = make_scene("corridor", seed=4)
        pose = make_trajectory("corridor", 3, seed=4).poses[1]
        a, ca = lidar_scan(scene, pose, SCANNER, seed=9)
        b, cb = lidar_scan(scene, pose, SCANNER, seed=9)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(ca.points, cb.points)

    def test_intensity_model(self):
        # a flat floor seen straight down has intensity == reflectance
        scene = Scene([Rect([0.0, 0.0, 0.0], [0.0, 0.0, 1.0], 50.0, 50.0,
                            reflectance=0.7)])
        cfg = ScannerConfig(beams=4, azimuth_steps=16, fov_up_deg=-88.0,
                            fov_down_deg=-89.9, max_range=10.0, drop_prob=0.0)
        pose = np.eye(4)
        pose[:3, 3] = [0.0, 0.0, 1.0]
        rimg, _ = lidar_scan(scene, pose, cfg, seed=0)
        assert rimg.valid.all()
        assert (np.abs(rimg.intensity - 0.7) < 0.01).all()


def _cast_as_reference(prims, origin, dirs):
    """`Scene(prims).cast`, asserted equal byte for byte to the all-rays
    caster."""
    origin = np.asarray(origin, dtype=np.float64)
    got = Scene(prims).cast(origin, dirs)
    want = AllRaysScene(prims).cast(origin, dirs)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    return got


class TestCastMatchesAllRays:
    """`Scene.cast` runs each primitive only on the rays that can reach its
    bounding sphere; every ray it skips must be one the all-rays caster
    (tests/oracles.py) reports as a miss of that primitive."""

    @pytest.mark.parametrize("scanner", [SCANNER, ScannerConfig(beams=16,
                                                                azimuth_steps=120)],
                             ids=["32x360", "16x120"])
    @pytest.mark.parametrize("seed", [0, 70, 1501])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_scan_equals_reference(self, preset, seed, scanner):
        scene = make_scene(preset, seed)
        reference = AllRaysScene(scene.primitives)
        for i, pose in enumerate(make_trajectory(preset, 4, seed).poses):
            img, cloud = lidar_scan(scene, pose, scanner, seed=seed + i)
            ref_img, ref_cloud = lidar_scan(reference, pose, scanner, seed=seed + i)
            for got, want in ((img.depth, ref_img.depth),
                              (img.intensity, ref_img.intensity),
                              (img.valid, ref_img.valid),
                              (cloud.points, ref_cloud.points),
                              (cloud.intensity, ref_cloud.intensity)):
                assert got.tobytes() == want.tobytes()

    def test_rays_grazing_box_bound(self):
        # Rays tangent to the bounding sphere at a box corner touch the box
        # there: about half of them hit after rounding. Just outside the
        # margin the cull drops them, and they miss.
        box = Box([0.3, 0.2, 0.1], [0.05, 0.04, 0.03], so3_exp([0.1, 0.2, 0.7]))
        center, radius = box.bounding_sphere
        corner = box.center + box.rotation @ box.half_extents
        k = (corner - center) / radius
        u = np.cross(k, [0.0, 0.0, 1.0])
        u /= np.linalg.norm(u)
        v = np.cross(k, u)
        ang = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        dirs = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v
        for offset, hits_min, hits_max in ((-1e-9, 64, 64), (0.0, 1, 63),
                                           (1e-9, 0, 0), (1e-5 * radius, 0, 0)):
            point = corner + offset * k
            hits = 0
            for d in dirs:
                t, _, _ = _cast_as_reference([box], point - d, d[None])
                hits += np.isfinite(t).sum()
            assert hits_min <= hits <= hits_max
        assert all(_reaching(box, point - d, d[None]).size == 0 for d in dirs)

    def test_box_behind_sensor(self):
        box = Box([-0.5, 0.0, 0.0], [0.1, 0.1, 0.1])
        dirs = SCANNER.directions
        t, _, _ = _cast_as_reference([box], np.zeros(3), dirs)
        assert np.isfinite(t).any()
        assert (dirs[np.isfinite(t), 0] < 0.0).all()
        t, _, _ = _cast_as_reference([box], np.zeros(3), dirs[dirs[:, 0] >= 0.0])
        assert np.isinf(t).all()

    def test_ray_parallel_to_slab_face(self):
        # The ray's y and z components are 0 (or below _EPS): inside the
        # y slab, on its face and outside it.
        box = Box([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        for d in ([-1.0, 0.0, 0.0], [-1.0, 1e-12, 0.0]):
            d = np.array([d])
            for y, want in ((0.1, 1.5), (0.5, 1.5), (0.6, np.inf)):
                t, n, _ = _cast_as_reference([box], [2.0, y, 0.2], d)
                assert t[0] == want
                if np.isfinite(want):
                    assert n[0].tolist() == [1.0, 0.0, 0.0]

    def test_sensor_inside_box(self):
        # From inside, a box has no entry face ahead: the rays pass on to
        # the floor below it.
        floor = Rect([0.5, 0.5, 0.12], [0.0, 0.0, 1.0], 0.45, 0.45, 0.9)
        box = Box([0.5, 0.5, 0.3], [0.1, 0.1, 0.1], so3_exp([0.0, 0.0, 0.4]),
                  reflectance=0.5)
        t, _, refl = _cast_as_reference([floor, box], [0.5, 0.5, 0.3],
                                        SCANNER.directions)
        hit = np.isfinite(t)
        assert hit.any()
        assert (refl[hit] == 0.9).all()

    def test_empty_scene(self):
        t, n, refl = _cast_as_reference([], np.zeros(3), SCANNER.directions)
        assert np.isinf(t).all() and not n.any() and not refl.any()

    @pytest.mark.parametrize("make", [
        lambda r: Rect([0.6, 0.5, 0.2], [-1.0, 0.0, 0.0], 0.2, 0.2, r),
        lambda r: Box([0.6, 0.5, 0.2], [0.05, 0.1, 0.1], reflectance=r)],
        ids=["rect", "box"])
    def test_coincident_primitives_earlier_wins(self, make):
        dirs = SCANNER.directions
        t, _, refl = _cast_as_reference([make(0.3), make(0.9)],
                                        [0.3, 0.5, 0.2], dirs)
        hit = np.isfinite(t)
        assert hit.any()
        assert (refl[hit] == 0.3).all()


class TestProjection:
    def test_round_trip_on_scan(self):
        scene = make_scene("corridor", seed=6)
        pose = make_trajectory("corridor", 3, seed=6).poses[0]
        rimg, cloud = lidar_scan(scene, pose, SCANNER, seed=7)
        reproj = project_points(cloud, SCANNER)
        back = unproject(reproj, SCANNER)
        # scan points lie exactly on pixel-center rays, so the round trip
        # is near-exact when no two points share a pixel
        tree = KdTree(cloud.points)
        _, d = tree.query_many(back.points)
        assert d.max() < 1e-6
        assert len(back) == len(cloud)

    def test_seam_wraps_to_column_zero(self):
        pt = np.array([[-1.0, 0.0, 0.0]])  # theta = pi exactly
        cfg = ScannerConfig(beams=4, azimuth_steps=8, fov_up_deg=10.0,
                            fov_down_deg=-10.0, max_range=5.0)
        rimg = project_points(PointCloud(pt), cfg)
        assert rimg.valid[:, 0].any()
        assert not rimg.valid[:, 1:].any()

    def test_dropped_pixels_absent(self):
        depth = np.full((2, 4), 1.0)
        intensity = np.zeros((2, 4))
        valid = np.zeros((2, 4), dtype=bool)
        valid[0, 1] = True
        cloud = unproject(RangeImage(depth, intensity, valid),
                          ScannerConfig(beams=2, azimuth_steps=4))
        assert len(cloud) == 1

    def test_image_of_another_shape_rejected(self):
        shape = (2, 4)
        rimg = RangeImage(np.ones(shape), np.zeros(shape), np.ones(shape, bool))
        with pytest.raises(ShapeMismatch, match="\\(2, 4\\)"):
            unproject(rimg, ScannerConfig(beams=2, azimuth_steps=5))

    def test_collision_keeps_nearer(self):
        cfg = ScannerConfig(beams=4, azimuth_steps=8, fov_up_deg=10.0,
                            fov_down_deg=-10.0, max_range=5.0)
        d = np.array([1.0, 0.0, 0.0])
        pts = np.array([d * 2.0, d * 1.0])
        rimg = project_points(PointCloud(pts), cfg)
        assert rimg.depth[rimg.valid].min() == 1.0
        assert (rimg.depth[rimg.valid] == 1.0).all()


class TestPerturb:
    def _traj(self, n=40):
        return make_trajectory("corridor", n, seed=8)

    def test_zero_noise_identity(self):
        traj = self._traj(10)
        out = perturb_poses(traj, 0.0, 0.0, seed=1)
        assert np.array_equal(out.poses, traj.poses)

    def test_frame_zero_exact(self):
        traj = self._traj(10)
        for seed in range(5):
            out = perturb_poses(traj, 20.0, 0.3, seed=seed)
            assert np.array_equal(out.poses[0], traj.poses[0])
            assert not np.array_equal(out.poses[1], traj.poses[1])

    def test_rotation_magnitude_folded_normal(self):
        traj = make_trajectory("corridor", 1001, seed=9)
        sigma = 5.0
        out = perturb_poses(traj, sigma, 0.0, seed=2)
        angles = []
        for i in range(1, 1001):
            delta = out.poses[i, :3, :3] @ traj.poses[i, :3, :3].T
            angles.append(np.degrees(rotation_angle(delta)))
        expected = sigma * np.sqrt(2.0 / np.pi)
        assert abs(np.mean(angles) - expected) / expected < 0.05

    def test_deterministic(self):
        traj = self._traj(6)
        a = perturb_poses(traj, 5.0, 0.1, seed=3)
        b = perturb_poses(traj, 5.0, 0.1, seed=3)
        assert np.array_equal(a.poses, b.poses)


class TestLowOverlap:
    def overlap_fraction(self, scans, poses, radius=0.02):
        """Mutual nearest-neighbor overlap between consecutive world scans."""
        world = [c.points @ p[:3, :3].T + p[:3, 3] for p, c in zip(poses, scans)]
        fracs = []
        for a, b in zip(world, world[1:]):
            _, d_ab = KdTree(b).query_many(a)
            _, d_ba = KdTree(a).query_many(b)
            fracs.append(((d_ab <= radius).mean() + (d_ba <= radius).mean()) / 2)
        return np.array(fracs)

    def test_low_overlap_preset_under_40_percent(self):
        frames = 8
        scene = make_scene("low_overlap", seed=0)
        traj = make_trajectory("low_overlap", frames, seed=0)
        scans = [lidar_scan(scene, traj.poses[i], SCANNER, seed=100 + i)[1]
                 for i in range(frames)]
        fracs = self.overlap_fraction(scans, traj.poses)
        assert fracs.max() < 0.40

    def test_corridor_is_not_low_overlap(self):
        frames = 6
        scene = make_scene("corridor", seed=0)
        traj = make_trajectory("corridor", frames, seed=0)
        scans = [lidar_scan(scene, traj.poses[i], SCANNER, seed=200 + i)[1]
                 for i in range(frames)]
        fracs = self.overlap_fraction(scans, traj.poses)
        assert fracs.mean() > 0.40
