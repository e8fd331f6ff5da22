import numpy as np
import pytest

from geonlf.cloud import PointCloud, RangeImage
from geonlf.encoding import EncodingConfig
from geonlf.errors import EmptyBatch, EmptyCloud, NonFiniteLoss
from geonlf.field import (FieldParams, backward, pose_rays, render_rays,
                          sensor_directions)
from geonlf.geometry import (Se3Param, Trajectory, rotation_angle,
                             se3_decoupled, so3_exp)
from geonlf.metrics import pose_metrics
from geonlf.rcd import RcdConfig
from geonlf.scene import (ScannerConfig, lidar_scan, make_scene,
                          make_trajectory, perturb_poses, unproject)
from geonlf.trainer import (FrameLossTracker, TrainConfig, _cd_step,
                            alternation_ratio, c2f_alpha, cd_loss_3d,
                            normal_loss, register_novel_view,
                            render_full_image, render_loss, reweight_factor,
                            select_outliers, train)
from oracles import brute_chamfer, numeric_gradient

TINY_ENC = EncodingConfig(levels=3, base_resolution=8, growth=1.6,
                          features_per_level=2, hash_table_size=2 ** 12,
                          planar_resolution=24, planar_channels=4)

SMALL_SCANNER = ScannerConfig(beams=16, azimuth_steps=120, max_range=1.2,
                              drop_prob=0.02)


def small_cfg(**kw):
    base = dict(iterations=240, rays_per_batch=256, samples_per_ray=32,
                cd_every=10, cd_subsample=512, hidden_width=16, top_k=2,
                seed=0, rcd=RcdConfig(voxel_size=0.02))
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
        loss, grad = cd_loss_3d(pts, pts)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros((30, 3)))

    def test_two_singletons(self):
        loss, grad = cd_loss_3d(PointCloud([[0.0, 0.0, 0.0]]),
                                PointCloud([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(loss, 2.0)
        np.testing.assert_allclose(grad, [[-4.0, 0.0, 0.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rng.uniform(size=(100, 3))
            b = rng.uniform(size=(100, 3))
            loss, _ = cd_loss_3d(PointCloud(a), PointCloud(b))
            np.testing.assert_allclose(loss, brute_chamfer(a, b), atol=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=(20, 3))
        b = rng.uniform(size=(20, 3))
        _, grad = cd_loss_3d(PointCloud(a), PointCloud(b))

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

    def test_empty(self):
        with pytest.raises(EmptyCloud):
            cd_loss_3d(PointCloud(np.zeros((0, 3))), PointCloud([[0.0] * 3]))


class TestCdStepGradient:
    """The pose gradient of the 3D Chamfer step, with the ground-truth
    cloud held fixed in the world, against central differences."""

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
        gt_cloud = unproject(image, scanner)
        d_sensor = sensor_directions(8, 48, scanner.fov_up_deg,
                                     scanner.fov_down_deg).reshape(-1, 3)
        valid = image.valid.reshape(-1)
        params = FieldParams(TINY_ENC, hidden_width=16, dtype=np.float64,
                             seed=3)
        rng = np.random.default_rng(4)
        for name in ("hash", "planes"):
            params.params[name] = rng.normal(
                scale=0.5, size=params.params[name].shape)
        cfg = small_cfg(samples_per_ray=8, cd_subsample=64)
        true_pose = Se3Param.from_matrix(scan_pose)
        pose = Se3Param(true_pose.rho + [0.01, -0.02, 0.005],
                        true_pose.phi + [0.02, -0.01, 0.03])

        def cd_step(at, cloud):
            # The same seed draws the same pixels, jitter and target subset.
            return _cd_step(params, at, d_sensor, valid, cloud, scanner, cfg,
                            None, np.random.default_rng(9))

        _, _, pose_grad = cd_step(pose, gt_cloud)
        world = gt_cloud.points @ so3_exp(pose.phi).T + pose.rho

        def value(v):
            at = Se3Param(v[:3], v[3:])
            # _cd_step places the cloud at `at`; undo that so the target
            # stays where it was at the base pose.
            local = PointCloud((world - at.rho) @ so3_exp(at.phi))
            return cfg.lambda_cd * cd_step(at, local)[0]

        fd = numeric_gradient(value, np.concatenate([pose.rho, pose.phi]),
                              h=1e-6)
        assert np.abs(fd).max() > 1e-3
        np.testing.assert_allclose(pose_grad, fd, rtol=1e-4, atol=1e-8)


class TestNormalLoss:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        pts = PointCloud(rng.uniform(size=(100, 3)))
        assert normal_loss(pts, pts, k=8) < 1e-12

    def test_parallel_planes_near_zero(self):
        rng = np.random.default_rng(5)
        a = np.column_stack([rng.uniform(size=80), rng.uniform(size=80),
                             np.zeros(80)])
        b = a + np.array([0.0, 0.0, 0.3])
        val = normal_loss(PointCloud(a), PointCloud(b), k=8)
        assert val < 1e-9

    def test_perpendicular_planes(self):
        rng = np.random.default_rng(6)
        a = np.column_stack([rng.uniform(size=120), rng.uniform(size=120),
                             np.zeros(120)])
        b = np.column_stack([rng.uniform(size=120), np.zeros(120),
                             rng.uniform(size=120)])
        val = normal_loss(PointCloud(a), PointCloud(b), k=8)
        # |(0,0,1) -/+ (0,1,0)|_1 = 2 per pair, both directions
        np.testing.assert_allclose(val, 4.0, atol=1e-6)

    def test_sign_invariance(self):
        rng = np.random.default_rng(7)
        a = np.column_stack([rng.uniform(size=60), rng.uniform(size=60),
                             np.zeros(60)])
        val = normal_loss(PointCloud(a), PointCloud(a + [0.0, 0.0, 0.05]), k=8)
        assert val < 1e-9


class TestSelectionAndSchedules:
    def test_select_outliers_ordering(self):
        tr = FrameLossTracker(5)
        for f, v in enumerate([5.0, 1.0, 1.0, 1.0, 9.0]):
            tr.update(f, v)
        assert select_outliers(tr, 2) == {4, 0}
        assert select_outliers(tr, 0) == set()

    def test_select_ties_lower_id(self):
        tr = FrameLossTracker(4)
        for f, v in enumerate([2.0, 2.0, 2.0, 1.0]):
            tr.update(f, v)
        assert select_outliers(tr, 2) == {0, 1}

    def test_ema(self):
        tr = FrameLossTracker(1)
        tr.update(0, 1.0)
        tr.update(0, 2.0)
        np.testing.assert_allclose(tr.ema[0], 0.9 * 1.0 + 0.1 * 2.0)

    def test_reweight_factor(self):
        np.testing.assert_allclose(reweight_factor(0.0, 0.15), 0.15)
        np.testing.assert_allclose(reweight_factor(1.0, 0.15), 1.0)
        np.testing.assert_allclose(reweight_factor(0.5, 0.15), 0.575)

    def test_alternation_ratio(self):
        assert alternation_ratio(0.0, 1) == 10
        assert alternation_ratio(1.0, 1) == 1
        assert alternation_ratio(0.5, 1) == 6  # round(5.5) half-up

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
                params, origins, dirs, 0.05, 0.6, 16, alpha=None,
                pose_phi=pose.phi)
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
    def test_requires_three_frames(self):
        images, gt, init = make_dataset(frames=4)
        with pytest.raises(EmptyBatch):
            train(images[:2], Trajectory(gt.frame_ids[:2], gt.poses[:2]),
                  SMALL_SCANNER, small_cfg())

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


class TestRegisterNovelView:
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
