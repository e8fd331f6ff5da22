#!/usr/bin/env python3
"""Ablation sweep on the low-overlap preset: full method vs. no selective
reweighting vs. no geometric optimizer, plus the sequential ICP baseline.

Reports per-seed ATE and the medians used in the acceptance check. Scans
and initial poses are seeded as `geonlf gen` seeds them, so the inputs of
any seed are also `geonlf gen --preset low_overlap --seed S`.

Usage:
    python3 scripts/run_ablation.py --seeds 0 1 2 --iterations 800
"""

import argparse
import time

import numpy as np

from geonlf.geometry import Trajectory, invert_rigid
from geonlf.icp import icp_odometry
from geonlf.metrics import pose_metrics
from geonlf.scene import (ScannerConfig, lidar_scan, make_scene,
                          make_trajectory, perturb_poses)
from geonlf.trainer import TrainConfig, train


def run_variant(images, init, scanner, seed, iterations, top_k, use_geo):
    cfg = TrainConfig(iterations=iterations, seed=seed, top_k=top_k,
                      use_geo=use_geo)
    _, est, _ = train(images, init, scanner, cfg)
    return est


def ablation_once(seed, frames=8, iterations=800, sigma_rot=5.0,
                  sigma_trans=0.1, scanner=None, verbose=True):
    scanner = scanner or ScannerConfig()
    scene = make_scene("low_overlap", seed)
    gt = make_trajectory("low_overlap", frames, seed)
    scans = [lidar_scan(scene, gt.poses[i], scanner, seed=seed * 100003 + i)
             for i in range(frames)]
    images = [s[0] for s in scans]
    clouds = [s[1] for s in scans]
    init = perturb_poses(gt, sigma_rot, sigma_trans, seed)

    # Selective reweighting is off with no outlier frames (top_k = 0).
    top_k = TrainConfig.top_k
    results = {"init": pose_metrics(init, gt).ate_m}
    for name, (k, geo) in (("full", (top_k, True)),
                           ("wo_sr", (0, True)),
                           ("wo_geo", (top_k, False))):
        t0 = time.time()
        est = run_variant(images, init, scanner, seed, iterations, k, geo)
        results[name] = pose_metrics(est, gt).ate_m
        if verbose:
            print(f"  seed {seed} {name:7s}: ATE {results[name]:.4f} "
                  f"({time.time() - t0:.0f}s)", flush=True)

    rel = [np.eye(4)] + [invert_rigid(init.poses[i - 1]) @ init.poses[i]
                         for i in range(1, frames)]
    chain = icp_odometry(clouds, rel)
    icp_traj = Trajectory(list(gt.frame_ids),
                          np.array([init.poses[0] @ t for t in chain]))
    results["icp"] = pose_metrics(icp_traj, gt).ate_m
    if verbose:
        print(f"  seed {seed} icp    : ATE {results['icp']:.4f}", flush=True)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--frames", type=int, default=8)
    ap.add_argument("--iterations", type=int, default=800)
    args = ap.parse_args()

    rows = []
    for seed in args.seeds:
        print(f"seed {seed}:")
        rows.append(ablation_once(seed, frames=args.frames,
                                  iterations=args.iterations))

    print("\nmedians over seeds:")
    for key in ("init", "full", "wo_sr", "wo_geo", "icp"):
        med = float(np.median([r[key] for r in rows]))
        print(f"  {key:7s}: {med:.4f}")
    full = np.median([r["full"] for r in rows])
    wo_sr = np.median([r["wo_sr"] for r in rows])
    wo_geo = np.median([r["wo_geo"] for r in rows])
    icp = np.median([r["icp"] for r in rows])
    print(f"\nordering full <= wo_sr <= wo_geo: "
          f"{full <= wo_sr <= wo_geo}")
    print(f"full beats icp: {full < icp}")


if __name__ == "__main__":
    main()
