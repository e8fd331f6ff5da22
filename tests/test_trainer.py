import ctypes
import resource
import sys
import tracemalloc

import numpy as np
import pytest

from geonlf import field, trainer
from geonlf.cloud import PointCloud
from geonlf.encoding import EncodingConfig
from geonlf.errors import (ConfigError, EmptyBatch, EmptyCloud,
                           FrameMismatch, NonFiniteLoss, ShapeMismatch,
                           TooFewFrames)
from geonlf.field import (PARAM_NAMES, SHARD_SAMPLES, FieldParams, backward,
                          render_rays)
from geonlf.geometry import Se3Param, Trajectory, so3_exp
from geonlf.metrics import pose_metrics
from geonlf.rcd import RcdConfig
from geonlf.scene import (ScannerConfig, lidar_scan, make_scene,
                          make_trajectory, perturb_poses)
from geonlf.spatial import pool_map
from geonlf.trainer import (TrainConfig, _flat_target,
                            alternation_ratio, c2f_alpha, cd_loss_3d,
                            normal_loss, pose_rays, register_novel_view,
                            render_full_image, render_loss, render_step,
                            reweight_factor, sample_distances,
                            select_outliers, train)
from oracles import (brute_chamfer, numeric_gradient, replay_outliers,
                     uniform_distances)

TINY_ENC = EncodingConfig(levels=3, base_resolution=8, growth=1.6,
                          features_per_level=2, hash_table_size=2 ** 12,
                          planar_resolution=24, planar_channels=4)

SMALL_SCANNER = ScannerConfig(beams=16, azimuth_steps=120, max_range=1.2,
                              drop_prob=0.02)


def small_cfg(**kw):
    base = dict(iterations=240, rays_per_batch=256, samples_per_ray=32,
                cd_every=10, hidden_width=16, top_k=2, seed=0,
                rcd=RcdConfig(voxel_size=0.02))
    base.update(kw)
    return TrainConfig(**base)


def make_dataset(preset="corridor", frames=4, sigma_rot=3.0, sigma_trans=0.05,
                 seed=0, scanner=SMALL_SCANNER):
    scene = make_scene(preset, seed)
    gt = make_trajectory(preset, frames, seed)
    images = [lidar_scan(scene, gt.poses[i], scanner, seed=seed * 1000 + i)[0]
              for i in range(frames)]
    init = perturb_poses(gt, sigma_rot, sigma_trans, seed + 1)
    return images, gt, init


class TestRenderLoss:
    def test_zero_on_match(self):
        d = np.array([1.0, 2.0, 3.0])
        i = np.array([0.5, 0.6, 0.7])
        p = np.array([0.0, 1.0, 0.0])
        valid = np.array([True, True, True])
        total, comps, _ = render_loss((d, i, p), (d, i, p, valid), 1.0, 1.0, 1.0)
        assert total == 0.0 and comps == {"depth": 0.0, "intensity": 0.0,
                                          "raydrop": 0.0}

    def test_l1_depth_unit_offset(self):
        d = np.zeros(5)
        valid = np.ones(5, bool)
        total, _, _ = render_loss((d + 1.0, d, d), (d, d, d, valid),
                                  1.0, 0.0, 0.0)
        np.testing.assert_allclose(total, 1.0)

    def test_mixed_batch_hand_computed(self):
        pd = np.array([1.0, 2.0, 5.0, 1.0])
        gd = np.array([1.5, 2.0, 4.0, 1.0])
        pi = np.array([0.2, 0.4, 0.9, 0.1])
        gi = np.array([0.2, 0.5, 0.8, 0.1])
        pp = np.array([0.1, 0.0, 0.3, 0.9])
        gp = np.array([0.0, 0.0, 0.0, 1.0])
        valid = np.array([True, True, False, True])
        total, comps, _ = render_loss((pd, pi, pp), (gd, gi, gp, valid),
                                      2.0, 3.0, 4.0)
        exp_d = (0.5 + 0.0 + 0.0) / 3
        exp_i = (0.0 + 0.01 + 0.0) / 3
        exp_p = (0.01 + 0.0 + 0.09 + 0.01) / 4
        np.testing.assert_allclose(comps["depth"], exp_d)
        np.testing.assert_allclose(comps["intensity"], exp_i)
        np.testing.assert_allclose(comps["raydrop"], exp_p)
        np.testing.assert_allclose(total, 2 * exp_d + 3 * exp_i + 4 * exp_p)

    def test_dropped_excluded_from_depth(self):
        pd = np.array([9.0, 1.0])
        gd = np.array([1.0, 1.0])
        z = np.zeros(2)
        valid = np.array([False, True])
        total, comps, grads = render_loss((pd, z, z), (gd, z, z, valid),
                                          1.0, 1.0, 1.0)
        assert comps["depth"] == 0.0
        assert grads[0][0] == 0.0

    def test_empty_batch(self):
        e = np.zeros(0)
        with pytest.raises(EmptyBatch):
            render_loss((e, e, e), (e, e, e, e.astype(bool)), 1, 1, 1)

    def test_length_mismatch(self):
        p = np.zeros(4)
        t = np.zeros(3)
        with pytest.raises(ShapeMismatch):
            render_loss((p, p, p), (t, t, t, t.astype(bool)), 1, 1, 1)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(0)
        pd, gd = rng.uniform(1, 2, 6), rng.uniform(1, 2, 6)
        pi, gi = rng.uniform(size=6), rng.uniform(size=6)
        pp, gp = rng.uniform(size=6), rng.uniform(size=6)
        valid = rng.uniform(size=6) > 0.3
        _, _, (dd, di, dp) = render_loss((pd, pi, pp), (gd, gi, gp, valid),
                                         1.3, 0.7, 0.4)
        h = 1e-7
        for k in range(6):
            for arr, grad in ((pd, dd), (pi, di), (pp, dp)):
                orig = arr[k]
                arr[k] = orig + h
                up = render_loss((pd, pi, pp), (gd, gi, gp, valid),
                                 1.3, 0.7, 0.4)[0]
                arr[k] = orig - h
                dn = render_loss((pd, pi, pp), (gd, gi, gp, valid),
                                 1.3, 0.7, 0.4)[0]
                arr[k] = orig
                np.testing.assert_allclose(grad[k], (up - dn) / (2 * h),
                                           rtol=1e-5, atol=1e-9)


class TestCdLoss:
    def test_identical_zero(self):
        pts = PointCloud(np.random.default_rng(1).uniform(size=(30, 3)))
        loss, grad, _ = cd_loss_3d(pts, pts)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((30, 3)))

    def test_two_singletons(self):
        loss, grad, _ = cd_loss_3d(PointCloud([[0.0, 0.0, 0.0]]),
                                   PointCloud([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(loss, 2.0)
        np.testing.assert_allclose(grad, [[-4.0, 0.0, 0.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(size=(100, 3))
            b = rng.uniform(size=(100, 3))
            loss, _, _ = cd_loss_3d(PointCloud(a), PointCloud(b))
            np.testing.assert_allclose(loss, brute_chamfer(a, b), atol=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=(20, 3))
        b = rng.uniform(size=(20, 3))
        _, grad, _ = cd_loss_3d(PointCloud(a), PointCloud(b))

        def frozen_loss(flat):
            # same correspondences as at the base point
            av = flat.reshape(20, 3)
            d_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
            i_ab = d_ab.argmin(axis=1)
            i_ba = d_ab.argmin(axis=0)
            t1 = ((av - b[i_ab]) ** 2).sum(axis=1).mean()
            t2 = ((b - av[i_ba]) ** 2).sum(axis=1).mean()
            return t1 + t2

        fd = numeric_gradient(frozen_loss, a.ravel(), h=1e-7).reshape(20, 3)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_pairs_are_nearest_neighbors(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(size=(60, 3))
        b = rng.uniform(size=(40, 3))
        _, _, (idx_ab, idx_ba) = cd_loss_3d(PointCloud(a), PointCloud(b))
        d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(idx_ab, d2.argmin(axis=1))
        np.testing.assert_array_equal(idx_ba, d2.argmin(axis=0))

    def test_empty(self):
        with pytest.raises(EmptyCloud):
            cd_loss_3d(PointCloud(np.zeros((0, 3))), PointCloud([[0.0] * 3]))


def _textured_params(dtype=np.float32, seed=3, hidden_width=16):
    """A small field with tables far from their near-zero initialisation,
    so that depth, intensity and ray drop vary from ray to ray."""
    params = FieldParams(TINY_ENC, hidden_width=hidden_width, dtype=dtype,
                         seed=seed)
    rng = np.random.default_rng(seed + 1)
    for name in ("hash", "planes"):
        params.params[name] = rng.normal(
            scale=0.5, size=params.params[name].shape).astype(dtype)
    return params


def _render_every_pixel(params, pose, scanner, cfg):
    """(depth, intensity, drop_prob) of one `render_rays` of every pixel at
    strata midpoints."""
    origins, dirs = pose_rays(pose, scanner.directions)
    ts = uniform_distances(len(origins), cfg.t_near, scanner.max_range,
                           cfg.samples_per_ray)
    return render_rays(params, origins, dirs, ts, scanner.max_range,
                       cfg.samples_per_ray)[:3]


class TestSampleDistances:
    """Each training ray's samples: strata over [t_near, t_far], and for
    a valid pixel half of them in a band around its observed range."""

    NEAR, FAR = 0.05, 1.5
    WIDTH = (FAR - NEAR) / 16     # a band's width at 32 samples

    def _rows(self, observed, valid, jitter):
        return sample_distances(self.NEAR, self.FAR, np.asarray(observed),
                                np.asarray(valid), jitter)

    @pytest.mark.parametrize("samples", [32, 7, 1])
    def test_rows_sorted_inside_range(self, samples):
        rng = np.random.default_rng(0)
        n = 500
        observed = rng.uniform(-0.2, 1.7, n)
        ts = self._rows(observed, rng.random(n) < 0.7,
                        rng.random((n, samples)))
        assert ts.shape == (n, samples)
        assert (np.diff(ts, axis=1) >= 0).all()
        assert (ts >= self.NEAR).all() and (ts <= self.FAR).all()

    @pytest.mark.parametrize("samples", [32, 7])
    def test_valid_ray_has_half_its_samples_in_its_band(self, samples):
        rng = np.random.default_rng(1)
        n = 400
        n_band = samples // 2
        width = (self.FAR - self.NEAR) / (samples - n_band)
        observed = rng.uniform(self.NEAR, self.FAR, n)
        ts = self._rows(observed, np.ones(n, bool), rng.random((n, samples)))
        lo = np.clip(observed - width / 2, self.NEAR, self.FAR - width)
        in_band = (ts >= lo[:, None]) & (ts < lo[:, None] + width)
        assert (in_band.sum(axis=1) >= n_band).all()
        # The other samples still cover every wide stratum.
        wide = np.floor((ts - self.NEAR) / width).astype(int)
        for row in wide:
            assert set(range(samples - n_band)) <= set(row)

    @pytest.mark.parametrize("observed, lo", [(0.0, NEAR), (NEAR, NEAR),
                                              (FAR, FAR - WIDTH),
                                              (2.0, FAR - WIDTH)])
    def test_band_at_either_end_keeps_its_width(self, observed, lo):
        # At the strata midpoints the band's 16 samples sit at
        # lo + (i + 0.5) / 16 * WIDTH.
        ts = self._rows([observed], [True], np.full((1, 32), 0.5))[0]
        band = lo + (np.arange(16) + 0.5) / 16 * self.WIDTH
        found = np.isclose(ts[:, None], band[None, :], rtol=0, atol=1e-12)
        assert found.any(axis=0).all()

    def test_dropped_ray_gets_uniform_strata(self):
        rng = np.random.default_rng(2)
        jitter = rng.random((3, 32))
        ts = self._rows([0.4, -1.0, 0.9], [True, False, False], jitter)
        want = self.NEAR + (np.arange(32) + jitter) / 32 * (self.FAR - self.NEAR)
        np.testing.assert_array_equal(ts[1:], want[1:])
        assert not np.array_equal(ts[0], want[0])

    def test_render_step_draws_pixels_then_one_jitter_block(self):
        # The stream is the one of uniform sampling: a choice of pixels and
        # one (n, N) draw, whatever the band does with it.
        images, gt, _ = make_dataset(frames=3)
        cfg = small_cfg(rays_per_batch=200, samples_per_ray=24)
        rng = np.random.default_rng(11)
        render_step(_textured_params(), Se3Param.from_matrix(gt.poses[1]),
                    _flat_target(images[1], SMALL_SCANNER), SMALL_SCANNER,
                    cfg, None, rng, False)
        ref = np.random.default_rng(11)
        ref.choice(len(SMALL_SCANNER.directions), size=200, replace=False)
        ref.random((200, 24))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_distances_do_not_depend_on_the_pose(self, monkeypatch):
        images, gt, _ = make_dataset(frames=3)
        target = _flat_target(images[1], SMALL_SCANNER)
        seen = []

        def recording(params, origins, dirs, ts, *args, **kwargs):
            seen.append(np.array(ts))
            return render_rays(params, origins, dirs, ts, *args, **kwargs)

        monkeypatch.setattr(trainer, "render_rays", recording)
        pose = Se3Param.from_matrix(gt.poses[1])
        for shift in (0.0, 0.02):
            moved = Se3Param(pose.rho + shift, pose.phi + shift)
            render_step(_textured_params(), moved, target, SMALL_SCANNER,
                        small_cfg(rays_per_batch=128), None,
                        np.random.default_rng(4), False)
        np.testing.assert_array_equal(seen[0], seen[1])


class TestShardInvariance:
    """Training renders on every CPU in shards of a fixed size; the loss,
    the Chamfer and normal terms, the pose gradient and every field
    gradient must not depend on the CPU count, and must equal those of the
    batch rendered in one piece, bit for bit."""

    CPUS = (1, 2, 3, 8)

    @pytest.mark.parametrize("rays", [100, 1400])
    def test_steps_equal_for_any_cpu_count(self, monkeypatch, set_cpus, rays):
        # 100 rays are less than one shard; 1400 are two shards and a part
        # of 12,032 samples. At 700 rays the part has 6,016 samples, and the
        # one-piece reference's heads GEMM then rounds differently from the
        # part's (OpenBLAS's small-matrix kernel, see field.SHARD_SAMPLES).
        cfg = TrainConfig(rays_per_batch=rays)
        samples = rays * cfg.samples_per_ray
        assert samples < SHARD_SAMPLES or samples % SHARD_SAMPLES
        images, gt, _ = make_dataset(frames=3)
        target = _flat_target(images[1], SMALL_SCANNER)
        pose = Se3Param.from_matrix(gt.poses[1])
        pose.rho += [0.01, -0.01, 0.005]

        def steps():
            params = _textured_params(hidden_width=cfg.hidden_width)
            rng = np.random.default_rng(5)
            loss, comps, grad = render_step(params, pose, target,
                                            SMALL_SCANNER, cfg, 3.5, rng, True,
                                            chamfer=True)
            frozen = render_step(params, pose, target, SMALL_SCANNER, cfg,
                                 None, rng, False)
            return (loss, comps, grad, frozen,
                    {k: g.copy() for k, g in params.grads.items()})

        # The reference renders the batch in one piece, so that sums taken
        # shard by shard and then added would show.
        set_cpus(1)
        with monkeypatch.context() as m:
            m.setattr(field, "SHARD_SAMPLES", 10 ** 9)
            want = steps()
        assert all(np.abs(g).max() > 0 for g in want[-1].values())
        assert want[1]["cd"] > 0 and want[1]["normal"] > 0
        for cpus in self.CPUS:
            set_cpus(cpus)
            got = steps()
            assert got[:2] == want[:2]
            np.testing.assert_array_equal(got[2], want[2])
            assert got[3][:2] == want[3][:2]
            np.testing.assert_array_equal(got[3][2], want[3][2])
            for name in PARAM_NAMES:
                np.testing.assert_array_equal(got[-1][name], want[-1][name],
                                              err_msg=f"{name}, {cpus} CPUs")

    def test_train_equal_for_one_and_two_cpus(self, set_cpus):
        images, _, init = make_dataset(frames=4)
        # 1200 rays of 32 samples are two shards and a part.
        cfg = small_cfg(iterations=8, rays_per_batch=1200, cd_every=3)

        def run(cpus):
            set_cpus(cpus)
            return train(images, init, SMALL_SCANNER, cfg, enc_cfg=TINY_ENC)

        (p1, est1, logs1), (p2, est2, logs2) = run(1), run(2)
        np.testing.assert_array_equal(est1.poses, est2.poses)
        assert logs1 == logs2
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(p1.params[name], p2.params[name])


def _chamfer_only(**kw):
    """small_cfg with the 2D terms off: a step's objective is then the
    Chamfer term alone."""
    return small_cfg(lambda_depth=0.0, lambda_intensity=0.0,
                     lambda_raydrop=0.0, **kw)


class TestCdStepGradient:
    """The pose gradient of a training step's 3D Chamfer term against
    central differences. The observed points are the target depths along
    the batch's rays: they are held fixed in the sensor frame, so they move
    with the pose."""

    def test_pose_gradient_matches_fd(self):
        scanner = ScannerConfig(beams=8, azimuth_steps=48, max_range=1.2)
        # A wall square to a beam column scans to mirror-image point pairs,
        # which tie as nearest neighbours of every point rendered along that
        # column: a kink of the Chamfer distance. A yaw of 0.2 rad turns
        # the corridor walls away from every column.
        scan_pose = make_trajectory("corridor", 2, 0).poses[0].copy()
        scan_pose[:3, :3] = so3_exp([0.0, 0.0, 0.2]) @ scan_pose[:3, :3]
        image, _ = lidar_scan(make_scene("corridor", 0), scan_pose, scanner,
                              seed=0)
        target = _flat_target(image, scanner)
        params = _textured_params(np.float64)
        cfg = _chamfer_only(samples_per_ray=8, rays_per_batch=64)
        true_pose = Se3Param.from_matrix(scan_pose)
        pose = Se3Param(true_pose.rho + [0.01, -0.02, 0.005],
                        true_pose.phi + [0.02, -0.01, 0.03])

        def step(v):
            # The same seed draws the same pixels and jitter.
            return render_step(params, Se3Param(v[:3], v[3:]), target,
                               scanner, cfg, None, np.random.default_rng(9),
                               False, chamfer=True)

        base = np.concatenate([pose.rho, pose.phi])
        _, _, pose_grad = step(base)
        fd = numeric_gradient(lambda v: cfg.lambda_cd * step(v)[1]["cd"],
                              base, h=1e-6)
        assert np.abs(fd).max() > 1e-3
        np.testing.assert_allclose(pose_grad, fd, rtol=1e-4, atol=1e-8)


class TestChamferPoseStep:
    """Against a target the field renders itself from P*, so that the field
    is perfect for it, a small step along the negative Chamfer pose
    gradient from a perturbed P* moves toward P* in translation and in
    rotation."""

    TRUTH = Se3Param([0.45, 0.5, 0.3], [0.0, 0.0, 0.3])

    @pytest.mark.parametrize("seed", [3, 5])
    def test_step_does_not_increase_pose_error(self, seed):
        params = _textured_params(np.float64, seed=seed)
        cfg = _chamfer_only(rays_per_batch=1024, samples_per_ray=64)
        depth, intens, drop = _render_every_pixel(params, self.TRUTH,
                                                  SMALL_SCANNER, cfg)
        target = (depth, intens, drop, np.ones(depth.shape[0], bool))
        # About 2 cm and 1 degree off.
        error = np.concatenate([[0.012, -0.012, 0.008],
                                np.deg2rad([0.6, -0.5, 0.6])])
        pose = Se3Param(self.TRUTH.rho + error[:3],
                        self.TRUTH.phi + error[3:])
        _, _, grad = render_step(params, pose, target, SMALL_SCANNER, cfg,
                                 None, np.random.default_rng(7), False,
                                 chamfer=True)
        for part in (slice(0, 3), slice(3, 6)):
            g = grad[part]
            moved = error[part] - 1e-3 * g / np.linalg.norm(g)
            assert np.linalg.norm(moved) < np.linalg.norm(error[part])


class TestRenderFullImage:
    POSE = Se3Param([0.45, 0.5, 0.3], [0.0, 0.0, 0.3])

    @pytest.mark.parametrize("samples_per_ray", [64, 48])
    def test_equals_one_batch(self, samples_per_ray):
        # At 48 samples per ray a shard is 341 rays, which does not divide
        # the 5,760-ray image: the image equals the one-piece render only
        # if both cut their shards at the same rays.
        cfg = TrainConfig(samples_per_ray=samples_per_ray)
        # Seed 5 drops some pixels and keeps others.
        params = _textured_params(seed=5, hidden_width=cfg.hidden_width)
        scanner = ScannerConfig(beams=16, azimuth_steps=360, max_range=1.2)
        n_pix = scanner.beams * scanner.azimuth_steps
        out = render_full_image(params, self.POSE, scanner, cfg)
        depth, intens, drop = _render_every_pixel(params, self.POSE, scanner,
                                                  cfg)
        valid = drop <= 0.5
        assert 0 < valid.sum() < n_pix
        shape = out.shape
        np.testing.assert_array_equal(out.valid, valid.reshape(shape))
        np.testing.assert_array_equal(
            out.depth, np.where(valid, depth, -1.0).reshape(shape))
        np.testing.assert_array_equal(
            out.intensity, np.where(valid, intens, 0.0).reshape(shape))

    @pytest.mark.parametrize("beams", [8, 32])
    def test_one_pool_map_per_image(self, beams, monkeypatch):
        maps = []

        def counting_pool_map(tasks):
            maps.append(len(tasks))
            return pool_map(tasks)

        monkeypatch.setattr(field, "pool_map", counting_pool_map)
        scanner = ScannerConfig(beams=beams, azimuth_steps=360)
        render_full_image(_textured_params(), self.POSE, scanner, small_cfg())
        assert maps == [-(-beams * 360 * 32 // SHARD_SAMPLES)]

    def test_same_image_for_any_worker_count(self, set_cpus):
        # The default hidden width and samples per ray, on an image of more
        # than one shard: a shard of fewer than ~12k samples would put the
        # heads GEMM on OpenBLAS's small-matrix kernel, which rounds
        # differently.
        cfg = TrainConfig()
        # Seed 5 drops some pixels and keeps others.
        params = _textured_params(seed=5, hidden_width=cfg.hidden_width)
        n_pix = SMALL_SCANNER.beams * SMALL_SCANNER.azimuth_steps
        assert n_pix * cfg.samples_per_ray > SHARD_SAMPLES
        depth, intens, drop = _render_every_pixel(params, self.POSE,
                                                  SMALL_SCANNER, cfg)
        valid = drop <= 0.5
        assert 0 < valid.sum() < n_pix
        shape = (SMALL_SCANNER.beams, SMALL_SCANNER.azimuth_steps)
        expected = (np.where(valid, depth, -1.0).reshape(shape),
                    np.where(valid, intens, 0.0).reshape(shape),
                    valid.reshape(shape))
        # Frequent thread switches, so that two threads writing one pixel
        # would show.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3, 8):
                set_cpus(workers)
                out = render_full_image(params, self.POSE, SMALL_SCANNER,
                                        cfg)
                for got, want in zip((out.depth, out.intensity, out.valid),
                                     expected):
                    np.testing.assert_array_equal(got, want)
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_independent_of_image_size(self, set_cpus):
        # Two CPUs, so that two shards are live at once on any host. How
        # far their allocations overlap depends on the scheduling (a
        # 2-shard peak reads 31-36 MB on the 8-beam image when another
        # process takes CPU time), so each size's peak is the largest of a
        # few renders.
        set_cpus(2)
        params = _textured_params()
        cfg = TrainConfig(hidden_width=16)

        def peak(beams):
            scanner = ScannerConfig(beams=beams, azimuth_steps=360)
            peaks = []
            for _ in range(4):
                tracemalloc.start()
                try:
                    render_full_image(params, self.POSE, scanner, cfg)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return max(peaks)

        small, large = peak(8), peak(32)
        assert large <= 1.15 * small, (small, large)


class TestPoseOnlyBackward:
    def test_pose_gradient_equal_and_grads_untouched(self):
        images, gt, _ = make_dataset(frames=3)
        params = _textured_params()
        cfg = small_cfg()
        target = _flat_target(images[1], SMALL_SCANNER)
        pose = Se3Param.from_matrix(gt.poses[1])
        pose.rho += [0.01, -0.01, 0.005]

        def step(field_grads):
            return render_step(params, pose, target, SMALL_SCANNER, cfg, None,
                               np.random.default_rng(5),
                               field_grads=field_grads)

        loss_full, comps_full, grad_full = step(True)
        assert all(np.abs(g).max() > 0 for g in params.grads.values())
        for g in params.grads.values():
            g[...] = 7.0
        loss, comps, grad = step(False)
        assert np.abs(grad_full).max() > 0
        np.testing.assert_array_equal(grad, grad_full)
        assert loss == loss_full and comps == comps_full
        for g in params.grads.values():
            np.testing.assert_array_equal(g, 7.0)


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return False
    return True


@pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
class TestFreedMemoryStaysMapped:
    """A render or a training step frees tens of MB that the next one
    allocates again. With the malloc thresholds `geonlf.spatial` sets, the
    heaps keep that memory mapped, so a repeated call takes its memory
    without page faults. Under glibc's defaults every repeat of a 16 x 120
    render took 15-18k minor faults and of a default training step 7-13k;
    with the thresholds, 0-1k, and mostly 0 once the heaps have grown to
    the largest overlap of the two threads' shards."""

    MAX_FAULTS = 1000

    @staticmethod
    def faults(call) -> int:
        """The fewest minor page faults of the whole process (every thread)
        during one of three calls after a warm-up call."""
        call()
        counts = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            call()
            counts.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return min(counts)

    def test_full_render(self, set_cpus):
        set_cpus(2)
        params = _textured_params(hidden_width=32)
        faults = self.faults(lambda: render_full_image(
            params, TestRenderFullImage.POSE, SMALL_SCANNER, TrainConfig()))
        assert faults < self.MAX_FAULTS

    def test_training_step(self, set_cpus):
        set_cpus(2)
        images, gt, _ = make_dataset(frames=3)
        target = _flat_target(images[1], SMALL_SCANNER)
        params = _textured_params(hidden_width=32)
        pose = Se3Param.from_matrix(gt.poses[1])
        rng = np.random.default_rng(5)
        faults = self.faults(lambda: render_step(
            params, pose, target, SMALL_SCANNER, TrainConfig(), 3.5, rng,
            True))
        assert faults < self.MAX_FAULTS


def _normal_loss(synth: PointCloud, gt: PointCloud) -> float:
    """`normal_loss` over the correspondences of `cd_loss_3d`, as the CD
    step pairs them."""
    return normal_loss(synth, gt, cd_loss_3d(synth, gt)[2])


class TestNormalLoss:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        pts = PointCloud(rng.uniform(size=(100, 3)))
        assert _normal_loss(pts, pts) < 1e-12

    def test_parallel_planes_near_zero(self):
        rng = np.random.default_rng(5)
        a = np.column_stack([rng.uniform(size=80), rng.uniform(size=80),
                             np.zeros(80)])
        b = a + np.array([0.0, 0.0, 0.3])
        val = _normal_loss(PointCloud(a), PointCloud(b))
        assert val < 1e-9

    def test_perpendicular_planes(self):
        rng = np.random.default_rng(6)
        a = np.column_stack([rng.uniform(size=120), rng.uniform(size=120),
                             np.zeros(120)])
        b = np.column_stack([rng.uniform(size=120), np.zeros(120),
                             rng.uniform(size=120)])
        val = _normal_loss(PointCloud(a), PointCloud(b))
        # |(0,0,1) -/+ (0,1,0)|_1 = 2 per pair, both directions
        np.testing.assert_allclose(val, 4.0, atol=1e-6)

    def test_sign_invariance(self):
        rng = np.random.default_rng(7)
        a = np.column_stack([rng.uniform(size=60), rng.uniform(size=60),
                             np.zeros(60)])
        val = _normal_loss(PointCloud(a), PointCloud(a + [0.0, 0.0, 0.05]))
        assert val < 1e-9


class TestSelectionAndSchedules:
    def test_select_outliers_ordering(self):
        ema = np.array([5.0, 1.0, 1.0, 1.0, 9.0])
        assert select_outliers(ema, 2) == {4, 0}
        assert select_outliers(ema, 0) == set()

    def test_select_ties_lower_id(self):
        assert select_outliers(np.array([2.0, 2.0, 2.0, 1.0]), 2) == {0, 1}

    def test_ema(self, monkeypatch):
        """After each epoch `train` selects from the per-frame loss average
        that replaying its log gives, and the next epoch reweights the
        replay's top_k frames."""
        m = 4
        images, _, init = make_dataset(frames=m)
        cfg = small_cfg(iterations=6 * m, rays_per_batch=64,
                        samples_per_ray=8, cd_every=0, use_geo=False)
        averages, reweighted = [], []
        factor = trainer.reweight_factor

        def selected(ema, k):
            averages.append(ema.tolist())
            return select_outliers(ema, k)

        def recorded(progress, w0):
            reweighted.append(round(progress * (cfg.iterations - 1)))
            return factor(progress, w0)

        monkeypatch.setattr(trainer, "select_outliers", selected)
        monkeypatch.setattr(trainer, "reweight_factor", recorded)
        _, _, logs = train(images, init, SMALL_SCANNER, cfg, enc_cfg=TINY_ENC)
        replay = list(replay_outliers(logs, m, cfg.top_k, cfg))
        assert averages == [ema for _, ema, _ in replay[m - 1::m]]
        expected = [row["iter"] for row, _, _ in replay[m:]
                    if row["frame"] in replay[row["iter"] // m * m - 1][2]]
        assert expected and reweighted == expected

    def test_reweight_factor(self):
        np.testing.assert_allclose(reweight_factor(0.0, 0.15), 0.15)
        np.testing.assert_allclose(reweight_factor(1.0, 0.15), 1.0)
        np.testing.assert_allclose(reweight_factor(0.5, 0.15), 0.575)

    def test_alternation_ratio(self):
        cfg = TrainConfig()
        assert alternation_ratio(0.0, cfg) == 10
        assert alternation_ratio(1.0, cfg) == 1
        assert alternation_ratio(0.5, cfg) == 6  # round(5.5) half-up
        assert alternation_ratio(0.5, TrainConfig(m1=2)) == 11

    def test_c2f_alpha_schedule(self):
        cfg = TrainConfig(iterations=10)
        total = 5
        assert c2f_alpha(0.0, cfg, total) == 0.0
        assert c2f_alpha(0.05, cfg, total) == 0.0
        assert c2f_alpha(0.8, cfg, total) == 5.0
        assert c2f_alpha(1.0, cfg, total) == 5.0
        np.testing.assert_allclose(c2f_alpha(0.45, cfg, total), 2.5)
        alphas = [c2f_alpha(p, cfg, total) for p in np.linspace(0, 1, 50)]
        assert (np.diff(alphas) >= 0).all()


class TestSrMechanics:
    """Selective reweighting must scale field gradients exactly and leave
    pose gradients untouched."""

    def test_exact_scaling_and_pose_invariance(self):
        params = FieldParams(TINY_ENC, hidden_width=16, dtype=np.float64,
                             seed=1)
        rng = np.random.default_rng(2)
        pose = Se3Param([0.45, 0.52, 0.31], [0.0, 0.0, 0.2])
        d = rng.normal(size=(64, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        origins, dirs = pose_rays(pose, d)

        def batch_grads():
            params.zero_grads()
            depth, intens, drop, tape = render_rays(
                params, origins, dirs, uniform_distances(64, 0.05, 0.6, 16),
                0.6, 16, alpha=None)
            tgt = (depth + 0.1, intens - 0.05, drop * 0.0 + 0.4,
                   np.ones(64, bool))
            _, _, (gd, gi, gp) = render_loss((depth, intens, drop), tgt,
                                             1.0, 1.0, 0.5)
            pose_grad = backward(tape, gd, gi, gp)
            return {k: g.copy() for k, g in params.grads.items()}, pose_grad

        plain, pose_plain = batch_grads()
        factor = reweight_factor(0.3, 0.15)
        scaled, pose_scaled = batch_grads()
        params.scale_grads(factor)
        after = {k: g.copy() for k, g in params.grads.items()}

        np.testing.assert_array_equal(pose_plain, pose_scaled)
        for name in plain:
            np.testing.assert_allclose(after[name], factor * plain[name],
                                       rtol=1e-15, atol=0)


def _ate(traj_a: Trajectory, traj_b: Trajectory) -> float:
    return pose_metrics(traj_a, traj_b).ate_m


class TestTrainLoop:
    def test_negative_t_near_rejected(self):
        with pytest.raises(ValueError, match="t_near"):
            TrainConfig(t_near=-0.01)

    @pytest.mark.parametrize("t_near", [1.2, 5.0])
    def test_empty_sampling_range_is_a_config_error(self, t_near):
        # SMALL_SCANNER's max_range is 1.2: no stratum would run forwards.
        images, _, init = make_dataset(frames=4)
        with pytest.raises(ConfigError, match="t_near"):
            train(images, init, SMALL_SCANNER,
                  small_cfg(iterations=8, t_near=t_near), enc_cfg=TINY_ENC)

    def test_requires_three_frames(self):
        images, gt, init = make_dataset(frames=4)
        with pytest.raises(TooFewFrames):
            train(images[:2], Trajectory(gt.frame_ids[:2], gt.poses[:2]),
                  SMALL_SCANNER, small_cfg())

    @pytest.mark.parametrize("poses", [3, 5])
    def test_pose_count_must_match_images(self, poses):
        images, _, init = make_dataset(frames=5)
        init = Trajectory(init.frame_ids[:poses], init.poses[:poses])
        with pytest.raises(FrameMismatch, match=f"{poses} initial poses"):
            train(images[:4], init, SMALL_SCANNER, small_cfg(iterations=8),
                  enc_cfg=TINY_ENC)

    @pytest.mark.parametrize("width", [40, 56])
    def test_range_images_of_another_shape_rejected(self, width):
        # Every frame is rendered along the scanner's pixel directions: a
        # narrower frame would be indexed past its end, a wider one trained
        # on the wrong pixels.
        scanner = ScannerConfig(beams=8, azimuth_steps=48, max_range=1.2)
        images, gt, init = make_dataset(frames=4, scanner=scanner)
        other = ScannerConfig(beams=8, azimuth_steps=width, max_range=1.2)
        images[2] = lidar_scan(make_scene("corridor", 0), gt.poses[2], other,
                               seed=2)[0]
        with pytest.raises(ShapeMismatch, match=f"\\(8, {width}\\)"):
            train(images, init, scanner, small_cfg(iterations=8),
                  enc_cfg=TINY_ENC)

    def test_smoke_run_structure(self):
        images, gt, init = make_dataset(frames=4)
        cfg = small_cfg(iterations=24, cd_every=8)
        params, est, logs = train(images, init, SMALL_SCANNER, cfg,
                                  enc_cfg=TINY_ENC)
        global_rows = [r for r in logs if r["phase"] == "global"]
        geo_rows = [r for r in logs if r["phase"] == "geo"]
        assert len(global_rows) == 24
        assert len(geo_rows) > 0
        assert est.frame_ids == gt.frame_ids
        for row in global_rows:
            recomputed = (cfg.lambda_depth * row["depth"]
                          + cfg.lambda_intensity * row["intensity"]
                          + cfg.lambda_raydrop * row["raydrop"]
                          + cfg.lambda_cd * row["cd"]
                          + cfg.lambda_normal * row["normal"])
            np.testing.assert_allclose(row["total"], recomputed, atol=1e-9)

    def test_one_render_and_one_backward_per_iteration(self, monkeypatch):
        images, _, init = make_dataset(frames=4)
        cfg = small_cfg(iterations=6, cd_every=2)
        calls = {"render_rays": 0, "backward": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(trainer, name),
                        **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(trainer, name, counted)
        _, _, logs = train(images, init, SMALL_SCANNER, cfg, enc_cfg=TINY_ENC)
        assert calls == {"render_rays": 6, "backward": 6}
        cd = [r["cd"] for r in logs if r["phase"] == "global"]
        assert [c > 0.0 for c in cd] == [True, False] * 3

    @pytest.mark.parametrize("iterations, ratio, sessions", [
        (3, 10.0, 0), (4, 10.0, 1), (9, 10.0, 1), (8, 0.0, 0)])
    def test_geo_session_built_before_first_geometric_epoch(
            self, iterations, ratio, sessions, monkeypatch):
        """Fewer iterations than frames, or a ratio that rounds to 0 geometric
        epochs, builds no GeoSession (and computes no normals); otherwise
        one session serves every geometric epoch."""
        images, _, init = make_dataset(frames=4)
        built = []
        session = trainer.GeoSession
        monkeypatch.setattr(trainer, "GeoSession",
                            lambda *a: built.append(a) or session(*a))
        cfg = small_cfg(iterations=iterations, rays_per_batch=64,
                        samples_per_ray=8, cd_every=0,
                        alt_ratio_start=ratio, alt_ratio_end=ratio)
        _, _, logs = train(images, init, SMALL_SCANNER, cfg, enc_cfg=TINY_ENC)
        assert len(built) == sessions
        assert any(r["phase"] == "geo" for r in logs) == (sessions > 0)

    def test_epoch_schedule(self, monkeypatch):
        """23 iterations on 5 frames: four complete epochs, then a partial
        one of 3 iterations. Each complete epoch visits every frame once;
        after every m1-th complete epoch come `alternation_ratio` geometric
        rows at that epoch's last progress, and none after the partial
        one (the fifth epoch, an m1-th one at m1 = 1). With top_k = 0 no
        field gradient is ever reweighted."""
        m = 5
        images, _, init = make_dataset(frames=m)
        scaled = []
        scale_grads = FieldParams.scale_grads
        monkeypatch.setattr(FieldParams, "scale_grads",
                            lambda self, f: (scaled.append(f),
                                             scale_grads(self, f)))
        for m1, top_k in ((2, 2), (2, 0), (1, 2)):
            scaled.clear()
            cfg = small_cfg(iterations=23, m1=m1, rays_per_batch=64,
                            samples_per_ray=8, cd_every=0, top_k=top_k)
            _, _, logs = train(images, init, SMALL_SCANNER, cfg,
                               enc_cfg=TINY_ENC)
            rows = [k for k, r in enumerate(logs) if r["phase"] == "global"]
            assert [logs[k]["iter"] for k in rows] == list(range(23))
            assert bool(scaled) == (top_k > 0)
            blocks = 0
            for epoch in range(5):
                epoch_rows = rows[epoch * m:(epoch + 1) * m]
                end = epoch_rows[-1]
                after = (epoch + 1) * m
                geo = logs[end + 1:rows[after] if after < len(rows) else None]
                complete = len(epoch_rows) == m
                if complete:
                    assert sorted(logs[k]["frame"] for k in epoch_rows) \
                        == list(range(m))
                if not complete or (epoch + 1) % cfg.m1:
                    assert geo == []
                    continue
                last = logs[end]["iter"]
                assert len(geo) == alternation_ratio(
                    last / (cfg.iterations - 1), cfg) > 0
                assert all(r["phase"] == "geo" and r["iter"] == last
                           for r in geo)
                blocks += 1
            assert len(rows) - 4 * m == 3 and blocks == 4 // m1

    def test_gauge_frame_bit_identical(self):
        images, gt, init = make_dataset(frames=4)
        cfg = small_cfg(iterations=32)
        _, est, _ = train(images, init, SMALL_SCANNER, cfg, enc_cfg=TINY_ENC)
        np.testing.assert_array_equal(est.poses[0], init.poses[0])

    def test_alpha_nondecreasing_and_saturates(self):
        images, gt, init = make_dataset(frames=4)
        cfg = small_cfg(iterations=40, cd_every=0)
        _, _, logs = train(images, init, SMALL_SCANNER, cfg, enc_cfg=TINY_ENC)
        alphas = [r["alpha"] for r in logs if r["phase"] == "global"]
        assert (np.diff(alphas) >= 0).all()
        assert alphas[-1] == TINY_ENC.total_mask_levels

    def test_determinism(self):
        images, gt, init = make_dataset(frames=4)
        cfg = small_cfg(iterations=24)
        _, est1, logs1 = train(images, init, SMALL_SCANNER, cfg,
                               enc_cfg=TINY_ENC)
        _, est2, logs2 = train(images, init, SMALL_SCANNER, cfg,
                               enc_cfg=TINY_ENC)
        np.testing.assert_array_equal(est1.poses, est2.poses)
        assert logs1 == logs2

    def test_zero_noise_does_not_get_worse(self):
        images, gt, init = make_dataset(frames=4, sigma_rot=0.0,
                                        sigma_trans=0.0)
        cfg = small_cfg(iterations=160)
        _, est, _ = train(images, gt, SMALL_SCANNER, cfg, enc_cfg=TINY_ENC)
        assert _ate(est, gt) < 5e-3


class TestMaskedBlocksUntouched:
    def test_all_masked_iteration_leaves_tables_untouched(self):
        """At alpha 0 every encoder block has c2f weight 0. A training
        iteration (render step with the Chamfer term, Adam) trains the MLP
        but leaves the hash tables and planes at their initial bits, with
        gradients +0.0. Progress reaches 1 on the last iteration of any
        longer run, where every block is live, so the run is one
        iteration."""
        images, _, init = make_dataset(frames=4)
        cfg = small_cfg(iterations=1, cd_every=1)
        params, _, logs = train(images, init, SMALL_SCANNER, cfg,
                                enc_cfg=TINY_ENC)
        assert [r["alpha"] for r in logs] == [0.0]
        assert logs[0]["cd"] > 0.0
        initial = FieldParams(TINY_ENC, hidden_width=cfg.hidden_width,
                              seed=cfg.seed).params
        for name in ("planes", "hash"):
            assert params.params[name].tobytes() == initial[name].tobytes()
            grad = params.grads[name]
            assert grad.tobytes() == np.zeros_like(grad).tobytes()
        assert params.params["w2"].tobytes() != initial["w2"].tobytes()


class TestNonFiniteLoss:
    def test_names_the_first_non_finite_block(self):
        images, gt, _ = make_dataset(frames=3)
        params = _textured_params()
        params.params["w2"][0, 0] = np.nan
        params.params["b_drop"][0] = np.inf    # later in PARAM_NAMES order
        pose = Se3Param.from_matrix(gt.poses[1])
        with pytest.raises(NonFiniteLoss) as err:
            register_novel_view(params, images[1], SMALL_SCANNER, pose,
                                steps=1, cfg=small_cfg())
        assert err.value.culprit == "parameter block 'w2'"
        assert "non-finite: parameter block 'w2'" in str(err.value)

    def test_names_a_pose_else_nothing(self):
        params = _textured_params()
        poses = [Se3Param([0.5, 0.5, 0.5], [0.0, 0.0, 0.1]) for _ in range(3)]
        with pytest.raises(NonFiniteLoss) as err:
            trainer._check_finite(np.inf, 4, 2, {}, params, poses)
        assert err.value.culprit is None
        poses[2].phi[1] = np.nan
        with pytest.raises(NonFiniteLoss) as err:
            trainer._check_finite(np.nan, 4, 2, {}, params, poses)
        assert err.value.culprit == "pose 2"
        trainer._check_finite(1.0, 4, 2, {}, params, poses)   # finite: passes


class TestRegisterNovelView:
    def test_target_of_another_shape_rejected(self):
        other = ScannerConfig(beams=8, azimuth_steps=48, max_range=1.2)
        images, gt, _ = make_dataset(frames=3, scanner=other)
        with pytest.raises(ShapeMismatch, match="\\(8, 48\\)"):
            register_novel_view(_textured_params(), images[1], SMALL_SCANNER,
                                Se3Param.from_matrix(gt.poses[1]), steps=1,
                                cfg=small_cfg())

    def _trained(self):
        images, gt, init = make_dataset(frames=4, sigma_rot=0.0,
                                        sigma_trans=0.0)
        cfg = small_cfg(iterations=200)
        params, est, _ = train(images, gt, SMALL_SCANNER, cfg,
                               enc_cfg=TINY_ENC)
        return params, images, gt, cfg

    def test_recovers_small_perturbation(self):
        params, images, gt, cfg = self._trained()
        true_pose = Se3Param.from_matrix(gt.poses[2])
        init = Se3Param(true_pose.rho + [0.01, -0.01, 0.005],
                        true_pose.phi + np.deg2rad(1.0))
        out = register_novel_view(params, images[2], SMALL_SCANNER, init,
                                  steps=120, cfg=cfg)
        rot_err = np.degrees(np.linalg.norm(out.phi - true_pose.phi))
        assert np.linalg.norm(out.rho - true_pose.rho) < \
            np.linalg.norm(init.rho - true_pose.rho)
        assert rot_err < np.degrees(np.linalg.norm(init.phi - true_pose.phi))

    def test_render_full_image_shape(self):
        params, images, gt, cfg = self._trained()
        out = render_full_image(params, Se3Param.from_matrix(gt.poses[1]),
                                SMALL_SCANNER, cfg)
        assert out.shape == images[1].shape
