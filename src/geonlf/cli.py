"""Command-line front end: dataset generation, registration, reconstruction,
the ICP baseline, evaluation, and trajectory plotting.

Every subcommand is a thin shell over the library calls; results are
identical to invoking the corresponding functions directly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig
from .errors import ConfigError, GeonlfError, NonFiniteLoss
from .formats import (loss_row, plot_trajectories_svg, read_ply, read_rimg,
                      read_trajectory, write_loss_log, write_ply, write_rimg,
                      write_trajectory)
from .geometry import Se3Param, Trajectory, invert_rigid, se3_decoupled
from .icp import icp_odometry
from .metrics import (chamfer_fscore, image_metrics, metrics_rows_to_csv,
                      pose_metrics)
from .rcd import build_graph, geo_optimize
from .scene import (lidar_scan, make_scene, make_trajectory, perturb_poses,
                    unproject)
from .trainer import register_novel_view, render_full_image, train


def holdout_ids(frames: int, stride: int) -> list[int]:
    """Held-out frame ids: every `stride`-th frame, the last one clamped
    into range (e.g. 36 frames, stride 9 -> 9, 18, 27, 35)."""
    if stride <= 0:
        return []
    return sorted({min(i * stride, frames - 1)
                   for i in range(1, frames // stride + 1)})


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = RunConfig.from_file(args.config)
    else:
        data_dir = getattr(args, "data", None)
        gen_cfg = Path(data_dir) / "gen.cfg" if data_dir else None
        cfg = RunConfig.from_file(gen_cfg) if gen_cfg and gen_cfg.exists() \
            else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.values["train.seed"] = int(args.seed)
    return cfg


def _read_frames(data_dir: Path):
    rimg_paths = sorted(data_dir.glob("frame_*.rimg"))
    if not rimg_paths:
        raise FileNotFoundError(f"no frame_*.rimg files in {data_dir}")
    ids = [int(p.stem.split("_")[1]) for p in rimg_paths]
    return ids, [read_rimg(p) for p in rimg_paths]


def _read_clouds(data_dir: Path):
    ply_paths = sorted(data_dir.glob("frame_*.ply"))
    if not ply_paths:
        raise FileNotFoundError(f"no frame_*.ply files in {data_dir}")
    return [read_ply(p) for p in ply_paths]


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    scanner = cfg.scanner()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg["train.seed"]

    scene = make_scene(args.preset, seed)
    gt = make_trajectory(args.preset, args.frames, seed)
    init = perturb_poses(gt, args.sigma_rot, args.sigma_trans, seed)
    for i, pose in enumerate(gt.poses):
        rimg, cloud = lidar_scan(scene, pose, scanner, seed=seed * 100003 + i)
        write_rimg(out / f"frame_{i:04d}.rimg", rimg)
        write_ply(out / f"frame_{i:04d}.ply", cloud)
    write_trajectory(out / "gt_traj.txt", gt)
    write_trajectory(out / "init_traj.txt", init)
    ids = holdout_ids(args.frames, cfg["gen.holdout_stride"])
    (out / "holdout.txt").write_text("".join(f"{i}\n" for i in ids))
    cfg.write(out / "gen.cfg")
    print(f"wrote {args.frames} frames to {out}")
    return 0


def cmd_register(args) -> int:
    cfg = _load_config(args)
    data = Path(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clouds = _read_clouds(data)
    init = read_trajectory(data / "init_traj.txt")
    steps = int(args.steps) if args.steps is not None else cfg["geo.steps"]

    if steps == 0:
        est = init.copy()
        losses: list[float] = []
    else:
        poses = [Se3Param.from_matrix(p) for p in init.poses]
        graph = build_graph(len(clouds), min(cfg["train.graph_window"],
                                             len(clouds) - 1))
        losses = []
        poses = geo_optimize(clouds, poses, graph, cfg.rcd(), steps,
                             lr_rot=cfg["geo.lr_rot"],
                             lr_trans=cfg["geo.lr_trans"],
                             loss_log=losses)
        est = Trajectory(list(init.frame_ids),
                         np.array([se3_decoupled(p) for p in poses]))
    write_trajectory(out / "est_traj.txt", est)
    write_loss_log(out / "losses.csv",
                   [loss_row(i, "geo", v) for i, v in enumerate(losses)])
    print(f"registered {len(clouds)} frames -> {out / 'est_traj.txt'}")
    return 0


def cmd_reconstruct(args) -> int:
    cfg = _load_config(args)
    data = Path(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scanner = cfg.scanner()
    train_cfg = cfg.train()
    enc_cfg = cfg.encoding()

    ids, images = _read_frames(data)
    init = read_trajectory(data / "init_traj.txt")
    holdout_file = data / "holdout.txt"
    held = sorted(int(line) for line in holdout_file.read_text().split()) \
        if holdout_file.exists() else []
    train_ids = [i for i in ids if i not in held]
    id_to_index = {fid: k for k, fid in enumerate(ids)}

    train_images = [images[id_to_index[i]] for i in train_ids]
    init_sub = Trajectory(train_ids,
                          init.poses[[id_to_index[i] for i in train_ids]])
    params, est, logs = train(train_images, init_sub, scanner, train_cfg,
                              enc_cfg=enc_cfg)

    est_ids = list(est.frame_ids)
    est_poses = list(est.poses)
    pose_by_id = dict(zip(est_ids, est_poses))
    for fid in held:
        nearest = min(train_ids, key=lambda t: abs(t - fid))
        refined = register_novel_view(params, images[id_to_index[fid]],
                                      scanner,
                                      Se3Param.from_matrix(pose_by_id[nearest]),
                                      steps=args.register_steps,
                                      cfg=train_cfg, seed=train_cfg.seed)
        pose_by_id[fid] = se3_decoupled(refined)
        pred = render_full_image(params, refined, scanner, train_cfg)
        write_rimg(out / f"pred_frame_{fid:04d}.rimg", pred)

    all_ids = sorted(pose_by_id)
    full = Trajectory(all_ids, np.array([pose_by_id[i] for i in all_ids]))
    write_trajectory(out / "est_traj.txt", full)
    write_loss_log(out / "losses.csv", logs)
    params.save(out / "field.gnlf")
    print(f"reconstructed {len(train_ids)} frames "
          f"(+{len(held)} registered holdouts) -> {out}")
    return 0


def cmd_baseline_icp(args) -> int:
    cfg = _load_config(args)
    data = Path(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clouds = _read_clouds(data)
    init = read_trajectory(data / "init_traj.txt")
    rel_init = [np.eye(4)]
    for i in range(1, len(clouds)):
        rel_init.append(invert_rigid(init.poses[i - 1]) @ init.poses[i])
    chain = icp_odometry(clouds, rel_init, max_iters=args.max_iters)
    poses = np.array([init.poses[0] @ t for t in chain])
    write_trajectory(out / "est_traj.txt",
                     Trajectory(list(init.frame_ids), poses))
    print(f"icp baseline over {len(clouds)} frames -> {out / 'est_traj.txt'}")
    return 0


def cmd_eval(args) -> int:
    est = read_trajectory(args.est)
    ref = read_trajectory(args.ref)
    common = sorted(set(est.frame_ids) & set(ref.frame_ids))
    if common != est.frame_ids or common != ref.frame_ids:
        def restrict(t):
            keep = [k for k, i in enumerate(t.frame_ids) if i in common]
            return Trajectory([t.frame_ids[k] for k in keep], t.poses[keep])
        est, ref = restrict(est), restrict(ref)
    pm = pose_metrics(est, ref)
    row = {"seq": args.seq, "ate": pm.ate_m, "rpe_t": pm.rpe_t_cm,
           "rpe_r": pm.rpe_r_deg}

    if args.pred_dir and args.gt_dir:
        scanner_cfg = _load_config(args).scanner()
        cds, fss, rds, mds, pds, ris, mis, pis = ([] for _ in range(8))
        for pred_path in sorted(Path(args.pred_dir).glob("pred_frame_*.rimg")):
            fid = int(pred_path.stem.split("_")[-1])
            gt_path = Path(args.gt_dir) / f"frame_{fid:04d}.rimg"
            if not gt_path.exists():
                continue
            pred = read_rimg(pred_path)
            gt = read_rimg(gt_path)
            cd, fs = chamfer_fscore(unproject(pred, scanner_cfg),
                                    unproject(gt, scanner_cfg),
                                    threshold=args.fscore_threshold)
            rd, md, pd = image_metrics(pred, gt, "depth")
            ri, mi, pi = image_metrics(pred, gt, "intensity")
            for acc, v in zip((cds, fss, rds, mds, pds, ris, mis, pis),
                              (cd, fs, rd, md, pd, ri, mi, pi)):
                acc.append(v)
        if cds:
            row.update(cd=float(np.mean(cds)), fscore=float(np.mean(fss)),
                       rmse_d=float(np.mean(rds)), medae_d=float(np.mean(mds)),
                       psnr_d=float(np.mean(pds)), rmse_i=float(np.mean(ris)),
                       medae_i=float(np.mean(mis)), psnr_i=float(np.mean(pis)))
    csv_text = metrics_rows_to_csv([row])
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(csv_text)
    sys.stdout.write(csv_text)
    return 0


def cmd_plot(args) -> int:
    trajs = [read_trajectory(p) for p in args.trajectories]
    labels = [Path(p).stem for p in args.trajectories]
    out = args.out or "plot.svg"
    plot_trajectories_svg(out, trajs, labels)
    print(f"wrote {out}")
    return 0


def _add_common(sub, data_arg=True):
    if data_arg:
        sub.add_argument("data", help="dataset directory produced by `gen`")
    sub.add_argument("--config", help="run configuration file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geonlf",
        description="pose-free neural LiDAR fields with geometric pose "
                    "optimization on synthetic scenes")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--preset", default="corridor",
                     choices=["corridor", "intersection", "low_overlap"])
    gen.add_argument("--frames", type=int, default=8)
    gen.add_argument("--sigma-rot", type=float, default=5.0,
                     help="rotation noise stddev, degrees")
    gen.add_argument("--sigma-trans", type=float, default=0.1,
                     help="translation noise stddev, scene units")
    _add_common(gen, data_arg=False)
    gen.set_defaults(func=cmd_gen)

    reg = subs.add_parser("register", help="pure geometric registration")
    reg.add_argument("--steps", type=int, default=None)
    _add_common(reg)
    reg.set_defaults(func=cmd_register)

    rec = subs.add_parser("reconstruct", help="full training run")
    rec.add_argument("--register-steps", type=int, default=200,
                     help="pose refinement steps per held-out view")
    _add_common(rec)
    rec.set_defaults(func=cmd_reconstruct)

    icp = subs.add_parser("baseline-icp", help="sequential pairwise ICP")
    icp.add_argument("--max-iters", type=int, default=50)
    _add_common(icp)
    icp.set_defaults(func=cmd_baseline_icp)

    ev = subs.add_parser("eval", help="metrics between trajectories / scans")
    ev.add_argument("est", help="estimated trajectory file")
    ev.add_argument("ref", help="reference trajectory file")
    ev.add_argument("--pred-dir", default=None)
    ev.add_argument("--gt-dir", default=None)
    ev.add_argument("--seq", default="seq0")
    ev.add_argument("--fscore-threshold", type=float, default=0.05)
    ev.add_argument("--config", help="run configuration file")
    ev.add_argument("--seed", type=int, default=None)
    ev.add_argument("--out", default=None)
    ev.set_defaults(func=cmd_eval)

    plot = subs.add_parser("plot", help="top-down SVG of trajectories")
    plot.add_argument("trajectories", nargs="+")
    plot.add_argument("--config", default=None)
    plot.add_argument("--seed", type=int, default=None)
    plot.add_argument("--out", default=None)
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, GeonlfError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
