"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 6 and 7 train full models and take the `slow` marker registered in
pyproject.toml (neither is written yet); everything else completes in well
under a minute. Run `pytest tests/test_acceptance.py -v -s` for the full
gate, `-m "not slow"` for the quick part or `-m slow` for the end-to-end
criteria alone.
"""

import time

import numpy as np
import pytest

from geonlf.cloud import PointCloud
from geonlf.encoding import EncodingConfig
from geonlf.field import FieldParams, backward, composite, render_rays
from geonlf.formats import (plot_trajectories_svg, read_ply, read_rimg,
                            read_trajectory, write_ply, write_rimg,
                            write_trajectory)
from geonlf.geometry import (Se3Param, Trajectory, rotation_angle,
                             se3_decoupled, so3_exp, so3_left_jacobian)
from geonlf.metrics import chamfer_fscore, image_metrics, pose_metrics
from geonlf.rcd import (RcdConfig, build_graph, correspondence_weights,
                        geo_optimize, graph_loss)
from geonlf.scene import (ScannerConfig, lidar_scan, make_scene,
                          make_trajectory, perturb_poses)
from geonlf.trainer import (TrainConfig, pose_rays, reweight_factor,
                            render_loss, train)
from oracles import (brute_chamfer, brute_fscore, edge_chamfer,
                     graph_denominator, numeric_gradient, replay_outliers,
                     se3_full_exp, series_se3_exp, uniform_distances)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# -- 1. Lie-group suite ----------------------------------------------------

def test_criterion_1_lie_group_suite():
    t0 = time.time()
    ok = np.array_equal(so3_exp(np.zeros(3)), np.eye(3))

    rng = np.random.default_rng(42)
    worst_orth = worst_det = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        v *= rng.uniform(0, np.pi) / np.linalg.norm(v)
        r = so3_exp(v)
        worst_orth = max(worst_orth, np.abs(r.T @ r - np.eye(3)).max())
        worst_det = max(worst_det, abs(np.linalg.det(r) - 1.0))
    ok &= worst_orth < 1e-12 and worst_det < 1e-12

    # series oracle: 20 terms where that truncation has converged below the
    # tolerance (|xi| <= 2.4), 30 terms across the whole |xi| <= pi ball
    worst_series = 0.0
    for _ in range(500):
        xi = rng.normal(size=6)
        xi *= rng.uniform(0, 2.4) / np.linalg.norm(xi)
        got = se3_full_exp(Se3Param(xi[:3], xi[3:]))
        worst_series = max(worst_series,
                           np.abs(got - series_se3_exp(xi[:3], xi[3:], 20)).max())
    for _ in range(500):
        xi = rng.normal(size=6)
        xi *= rng.uniform(0, np.pi) / np.linalg.norm(xi)
        got = se3_full_exp(Se3Param(xi[:3], xi[3:]))
        worst_series = max(worst_series,
                           np.abs(got - series_se3_exp(xi[:3], xi[3:], 30)).max())
    ok &= worst_series < 1e-10

    # decoupled == full iff phi == 0
    for _ in range(100):
        rho = rng.normal(size=3)
        phi = rng.normal(size=3) * rng.uniform(0.1, 1.0)
        agree_zero = np.array_equal(se3_full_exp(Se3Param(rho, np.zeros(3))),
                                    se3_decoupled(Se3Param(rho, np.zeros(3))))
        differ = not np.allclose(se3_full_exp(Se3Param(rho, phi)),
                                 se3_decoupled(Se3Param(rho, phi)),
                                 atol=1e-12)
        ok &= agree_zero and differ
    elapsed = time.time() - t0
    report("1 Lie-group suite",
           bool(ok) and elapsed < 1.0,
           f"orth {worst_orth:.1e}, det {worst_det:.1e}, "
           f"series {worst_series:.1e}, {elapsed:.2f}s")


# -- 2. RCD degeneracy -----------------------------------------------------

def test_criterion_2_rcd_degeneracy():
    t0 = time.time()
    rng = np.random.default_rng(7)
    cfg = RcdConfig(voxel_size=0.01)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(size=(50, 3))
        b = rng.uniform(size=(50, 3))
        loss, _, _ = edge_chamfer(PointCloud(a), PointCloud(b),
                                  Se3Param(), Se3Param(), cfg, 0.0)
        worst = max(worst, abs(loss - brute_chamfer(a, b)))
    ok = worst < 1e-9

    w = correspondence_weights(np.array([0.05, 0.11, 0.25, 0.6, 1.4]),
                               50.0, 0.01)
    ok &= w[0] > 0.99
    elapsed = time.time() - t0
    report("2 RCD degeneracy", bool(ok) and elapsed < 5.0,
           f"t=0 err {worst:.1e}, t=50 min-weight {w[0]:.4f}, {elapsed:.2f}s")


# -- 3. Graph structure ----------------------------------------------------

def test_criterion_3_graph_structure():
    ok = True
    for m in range(2, 21):
        for n in range(1, 6):
            if n >= m:
                continue
            g = build_graph(m, n)
            expect = n * m - n * (n + 1) // 2
            ok &= len(g.edges) == expect == graph_denominator(m, n)
            ok &= len(set(g.edges)) == len(g.edges)
    report("3 graph structure", bool(ok), "all M in [2,20], n in [1,5]")


# -- 4. Gradient checks ----------------------------------------------------

def test_criterion_4_gradient_checks():
    t0 = time.time()
    # graph-loss pose gradients vs central differences on a 3-frame toy
    rng = np.random.default_rng(11)
    clouds = [PointCloud(rng.uniform(size=(50, 3)) + 0.02 * k)
              for k in range(3)]
    base = rng.normal(scale=0.03, size=(3, 6))
    cfg = RcdConfig(voxel_size=0.02)
    graph = build_graph(3, 2)
    poses = [Se3Param(v[:3], v[3:]) for v in base]
    _, grads = graph_loss(clouds, poses, graph, cfg, 0.25)

    from test_rcd import _surrogate_edge_loss
    surrogates = {(i, j): _surrogate_edge_loss(
        clouds[i].points, clouds[j].points, base[i], base[j], 0.25,
        cfg.voxel_size) for i, j in graph.edges}
    denom = graph_denominator(3, 2)

    def total(flat):
        vs = flat.reshape(3, 6)
        return sum(s(vs[i], vs[j]) for (i, j), s in surrogates.items()) / denom

    fd = numeric_gradient(total, base.ravel(), h=1e-6).reshape(3, 6)
    rel = np.abs(grads - fd) / np.maximum(np.abs(fd), 1e-8)
    pose_ok = rel.max() < 1e-5

    # render-pipeline gradients in the float64 build
    enc = EncodingConfig(levels=2, base_resolution=4, growth=1.5,
                         features_per_level=2, hash_table_size=2 ** 8,
                         planar_resolution=8, planar_channels=3)
    params = FieldParams(enc, hidden_width=8, dtype=np.float64, seed=3)
    prng = np.random.default_rng(4)
    params.params["hash"] = prng.normal(scale=0.5,
                                        size=params.params["hash"].shape)
    params.params["planes"] = prng.normal(scale=0.5,
                                          size=params.params["planes"].shape)
    params.params["b_sigma"][:] = 0.5
    params.grads = {k: np.zeros(v.shape) for k, v in params.params.items()}
    pose = Se3Param([0.02, -0.03, 0.01], [0.03, 0.02, -0.04])
    d = prng.normal(size=(4, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    up = prng.normal(size=(3, 4))

    def forward():
        origins, dirs = pose_rays(Se3Param(pose.rho + 0.5, pose.phi), d)
        return render_rays(params, origins, dirs,
                           uniform_distances(4, 0.1, 0.35, 6), 0.35, 6,
                           alpha=None)

    def loss_value():
        dep, intens, drop, _ = forward()
        return float(up[0] @ dep + up[1] @ intens + up[2] @ drop)

    params.zero_grads()
    _, _, _, tape = forward()
    pose_grad = backward(tape, up[0], up[1], up[2])
    pose_grad[3:] = so3_left_jacobian(pose.phi).T @ pose_grad[3:]

    worst_field = 0.0
    for name in params.params:
        g = params.grads[name]
        flat = np.argsort(-np.abs(g.ravel()))[:4]
        for fi in flat:
            idx = np.unravel_index(fi, g.shape)
            p = params.params[name]
            orig = p[idx]
            p[idx] = orig + 1e-4
            upv = loss_value()
            p[idx] = orig - 1e-4
            dnv = loss_value()
            p[idx] = orig
            ref = (upv - dnv) / 2e-4
            worst_field = max(worst_field,
                              abs(g[idx] - ref) / max(abs(ref), 1e-6))
    field_ok = worst_field < 1e-4

    base6 = np.concatenate([pose.rho, pose.phi])

    def pose_loss(v):
        nonlocal pose
        saved = pose
        pose = Se3Param(v[:3], v[3:])
        out = loss_value()
        pose = saved
        return out

    fd_pose = numeric_gradient(pose_loss, base6, h=1e-6)
    rel_pose = np.abs(pose_grad - fd_pose) / np.maximum(np.abs(fd_pose), 1e-8)
    render_pose_ok = rel_pose.max() < 1e-4
    elapsed = time.time() - t0
    report("4 gradient checks",
           pose_ok and field_ok and render_pose_ok and elapsed < 60.0,
           f"rcd rel {rel.max():.1e}, field rel {worst_field:.1e}, "
           f"pose rel {rel_pose.max():.1e}, {elapsed:.1f}s")


# -- 5. Geo-optimizer convergence -------------------------------------------

def test_criterion_5_geo_convergence():
    t0 = time.time()
    rng = np.random.default_rng(21)
    pts = rng.uniform(size=(500, 3))
    true_rel = Se3Param([0.21, -0.15, 0.12],
                        np.deg2rad(10.0) * np.array([0.0, 0.0, 1.0]))
    moved = PointCloud((pts - true_rel.rho) @ so3_exp(true_rel.phi))
    out = geo_optimize([PointCloud(pts), moved], [Se3Param(), Se3Param()],
                       build_graph(2, 1), RcdConfig(voxel_size=0.02),
                       steps=500, lr_rot=1e-2, lr_trans=5e-3)
    est = se3_decoupled(out[1])
    ref = se3_decoupled(true_rel)
    rot_err = np.degrees(rotation_angle(est[:3, :3].T @ ref[:3, :3]))
    trans_err = float(np.linalg.norm(est[:3, 3] - ref[:3, 3]))
    elapsed = time.time() - t0
    report("5 geo-optimizer convergence",
           rot_err < 0.5 and trans_err < 0.01 and elapsed < 10.0,
           f"rot {rot_err:.3f} deg, trans {trans_err:.4f}, {elapsed:.1f}s")


# -- 8. Selective-reweighting mechanics --------------------------------------

def test_criterion_8_selective_reweighting():
    # exact scaling / pose invariance on a fixed batch
    enc = EncodingConfig(levels=3, base_resolution=8, growth=1.6,
                         features_per_level=2, hash_table_size=2 ** 12,
                         planar_resolution=24, planar_channels=4)
    params = FieldParams(enc, hidden_width=16, dtype=np.float64, seed=1)
    rng = np.random.default_rng(2)
    pose = Se3Param([0.45, 0.52, 0.31], [0.0, 0.0, 0.2])
    d = rng.normal(size=(64, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    origins, dirs = pose_rays(pose, d)

    def batch():
        params.zero_grads()
        dep, intens, drop, tape = render_rays(
            params, origins, dirs, uniform_distances(64, 0.05, 0.6, 16), 0.6,
            16)
        tgt = (dep + 0.1, intens - 0.05, drop * 0.0 + 0.4, np.ones(64, bool))
        _, _, (gd, gi, gp) = render_loss((dep, intens, drop), tgt, 1.0, 1.0, 0.5)
        pg = backward(tape, gd, gi, gp)
        return {k: g.copy() for k, g in params.grads.items()}, pg

    plain, pose_plain = batch()
    again, pose_again = batch()
    factor = reweight_factor(0.4, 0.15)
    params.scale_grads(factor)
    scaled = {k: g.copy() for k, g in params.grads.items()}
    exact = all(np.array_equal(factor * plain[k], scaled[k]) or
                np.allclose(factor * plain[k], scaled[k], rtol=1e-15, atol=0)
                for k in plain)
    pose_same = np.array_equal(pose_plain, pose_again)

    # a 3x-noise frame must enter the top-5 within 50 iterations; the
    # injected perturbation has deterministic magnitude 3 * (5 deg, 0.1)
    scanner = ScannerConfig(beams=16, azimuth_steps=120, max_range=1.2)
    enc_small = EncodingConfig(levels=2, base_resolution=8, growth=1.6,
                               features_per_level=2, hash_table_size=2 ** 11,
                               planar_resolution=16, planar_channels=3)
    hits = 0
    for seed in range(10):
        scene = make_scene("corridor", seed)
        gt = make_trajectory("corridor", 8, seed)
        images = [lidar_scan(scene, gt.poses[i], scanner,
                             seed=seed * 100 + i)[0] for i in range(8)]
        init = perturb_poses(gt, 5.0, 0.1, seed + 1)
        frame = 3 + (seed % 4)
        nrng = np.random.default_rng(seed + 50)
        axis = nrng.normal(size=3)
        axis /= np.linalg.norm(axis)
        shift = nrng.normal(size=3)
        shift *= 3.0 * 0.1 * np.sqrt(3) / np.linalg.norm(shift)
        init.poses[frame, :3, :3] = (so3_exp(axis * np.deg2rad(15.0))
                                     @ gt.poses[frame, :3, :3])
        init.poses[frame, :3, 3] = gt.poses[frame, :3, 3] + shift
        cfg = TrainConfig(iterations=50, rays_per_batch=192,
                          samples_per_ray=24, cd_every=0, top_k=5,
                          hidden_width=16, seed=seed, use_geo=False,
                          rcd=RcdConfig(voxel_size=0.02))
        _, _, logs = train(images, init, scanner, cfg, enc_cfg=enc_small)
        hits += any(top is not None and frame in top
                    for _, _, top in replay_outliers(logs, 8, 5, cfg))
    report("8 selective reweighting",
           exact and pose_same and hits >= 9,
           f"exact scaling {exact}, pose bit-identical {pose_same}, "
           f"outlier detected {hits}/10 seeds")


# -- 9. Rendering identities --------------------------------------------------

def test_criterion_9_rendering_identities():
    rng = np.random.default_rng(31)
    n, m = 100000, 16
    sigma = rng.uniform(0, 40, size=(n, m))
    delta = rng.uniform(1e-4, 0.05, size=(n, m))
    z = np.cumsum(delta, axis=1)
    w, _ = composite(sigma, delta, z)
    sums_ok = bool((w >= 0).all() and (w.sum(axis=1) <= 1.0 + 1e-9).all())

    w1, d1 = composite(np.array([[1e6]]), np.array([[0.1]]), np.array([[5.0]]))
    opaque_ok = w1[0, 0] == 1.0 and d1[0] == 5.0

    w2, d2 = composite(np.array([[np.log(2.0), np.log(2.0)]]),
                       np.array([[1.0, 1.0]]), np.array([[1.0, 2.0]]))
    ln2_ok = abs(d2[0] - 1.0) < 1e-9 and np.allclose(w2, [[0.5, 0.25]],
                                                     atol=1e-12)
    report("9 rendering identities", sums_ok and opaque_ok and ln2_ok,
           f"1e5-ray weight sums <= 1: {sums_ok}, opaque exact: {opaque_ok}, "
           f"ln2 depth err {abs(d2[0] - 1.0):.1e}")


# -- 10. Metrics oracles ------------------------------------------------------

def test_criterion_10_metrics_oracles():
    rng = np.random.default_rng(41)
    worst_cd = worst_f = 0.0
    for _ in range(20):
        a = rng.uniform(size=(100, 3))
        b = rng.uniform(size=(100, 3))
        cd, fs = chamfer_fscore(PointCloud(a), PointCloud(b), 0.1)
        worst_cd = max(worst_cd, abs(cd - brute_chamfer(a, b)))
        worst_f = max(worst_f, abs(fs - brute_fscore(a, b, 0.1)))
    oracle_ok = worst_cd < 1e-9 and worst_f < 1e-12

    def traj(positions, seed):
        r = np.random.default_rng(seed)
        poses = []
        for p in positions:
            t = np.eye(4)
            t[:3, :3] = so3_exp(r.normal(size=3) * 0.2)
            t[:3, 3] = p
            poses.append(t)
        return Trajectory(list(range(len(positions))), np.array(poses))

    ref = traj(rng.normal(size=(8, 3)), 1)
    est = traj(ref.positions() + rng.normal(scale=0.05, size=(8, 3)), 2)
    pm0 = pose_metrics(est, ref)
    g = se3_decoupled(Se3Param([1.2, -0.7, 2.0], [0.5, -0.3, 0.8]))
    est_g = Trajectory(list(est.frame_ids), np.array([g @ p for p in est.poses]))
    pm1 = pose_metrics(est_g, ref)
    invariant_ok = (abs(pm0.ate_m - pm1.ate_m) < 1e-9
                    and abs(pm0.rpe_t_cm - pm1.rpe_t_cm) < 1e-9
                    and abs(pm0.rpe_r_deg - pm1.rpe_r_deg) < 1e-9)

    pm_same = pose_metrics(ref, ref)
    from geonlf.cloud import RangeImage
    img = RangeImage(rng.uniform(1, 5, (8, 16)), rng.uniform(size=(8, 16)),
                     np.ones((8, 16), bool))
    rmse, medae, psnr = image_metrics(img, img, "depth")
    zero_ok = (pm_same.ate_m < 1e-12 and pm_same.rpe_t_cm < 1e-9
               and rmse == 0.0 and medae == 0.0 and psnr == 99.0)
    report("10 metrics oracles", oracle_ok and invariant_ok and zero_ok,
           f"cd err {worst_cd:.1e}, invariance {invariant_ok}, zeros {zero_ok}")


# -- 11. IO round trips -------------------------------------------------------

def test_criterion_11_io_round_trips(tmp_path):
    import xml.etree.ElementTree as ET
    rng = np.random.default_rng(51)

    from geonlf.cloud import RangeImage
    valid = rng.uniform(size=(16, 32)) > 0.2
    img = RangeImage(
        np.where(valid, rng.uniform(0.1, 2, (16, 32)), -1.0).astype(
            np.float32).astype(np.float64),
        np.where(valid, rng.uniform(size=(16, 32)), 0.0).astype(
            np.float32).astype(np.float64), valid)
    p1, p2 = tmp_path / "a.rimg", tmp_path / "b.rimg"
    write_rimg(p1, img)
    write_rimg(p2, read_rimg(p1))
    rimg_ok = p1.read_bytes() == p2.read_bytes()

    cloud = PointCloud(rng.normal(size=(60, 3)), rng.uniform(size=60))
    ply = tmp_path / "c.ply"
    write_ply(ply, cloud, binary=True)
    back = read_ply(ply)
    ply_ok = (np.array_equal(back.points, cloud.points)
              and np.array_equal(back.intensity, cloud.intensity))

    poses = []
    for _ in range(7):
        t = np.eye(4)
        t[:3, :3] = so3_exp(rng.normal(size=3))
        t[:3, 3] = rng.normal(size=3)
        poses.append(t)
    traj = Trajectory(list(range(7)), np.array(poses))
    tp = tmp_path / "t.txt"
    write_trajectory(tp, traj)
    traj_err = np.abs(read_trajectory(tp).poses - traj.poses).max()

    svg = tmp_path / "p.svg"
    plot_trajectories_svg(svg, [traj, traj, traj], ["a", "b", "c"])
    ns = {"svg": "http://www.w3.org/2000/svg"}
    n_poly = len(ET.parse(svg).getroot().findall(".//svg:polyline", ns))
    report("11 IO round trips",
           rimg_ok and ply_ok and traj_err < 1e-12 and n_poly == 3,
           f"rimg bit-exact {rimg_ok}, ply exact {ply_ok}, "
           f"traj err {traj_err:.1e}, polylines {n_poly}")
