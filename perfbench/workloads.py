"""The benchmark's workloads.

Each workload builds its inputs from `geonlf.scene` and the seed alone,
runs one operation per `run` call and checks that operation's outputs in
`inspect`. Library calls go through module attributes (`trainer.train`,
not a name bound at import) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from types import SimpleNamespace

import numpy as np

from geonlf import geometry, icp, metrics, rcd, scene, trainer
from geonlf.config import RunConfig

SIGMA_ROT_DEG = 5.0
SIGMA_TRANS = 0.1


@dataclasses.dataclass(frozen=True)
class Size:
    frames: int
    scanner: scene.ScannerConfig
    train_epochs: int   # train_corridor runs train_epochs * frames iterations
    geo_steps: int      # register_lowoverlap geometric steps
    icp_iters: int      # register_lowoverlap ICP iterations per pair, at most
    fit_epochs: int     # render_corridor field fit during set-up
    held_out: int       # render_corridor poses, each between two frames


SIZES = {
    "full": Size(frames=8, scanner=scene.ScannerConfig(), train_epochs=2,
                 geo_steps=60, icp_iters=10, fit_epochs=1, held_out=3),
    "tiny": Size(frames=4, scanner=scene.ScannerConfig(beams=8, azimuth_steps=48),
                 train_epochs=2, geo_steps=3, icp_iters=5, fit_epochs=1, held_out=2),
}


@dataclasses.dataclass
class Outcome:
    digest: str                  # sha256 over every output array
    problems: list[str]          # failed output checks, empty when correct
    quality: dict[str, float]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _finite(arrays) -> list[str]:
    return [] if all(np.isfinite(a).all() for a in arrays) else ["non-finite output"]


def _scans(preset: str, seed: int, size: Size):
    world = scene.make_scene(preset, seed)
    gt = scene.make_trajectory(preset, size.frames, seed)
    scans = [scene.lidar_scan(world, gt.poses[i], size.scanner,
                              seed=seed * 100003 + i)
             for i in range(size.frames)]
    return world, gt, scans


def _between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pose halfway between two world poses."""
    mid = np.eye(4)
    half = 0.5 * geometry.so3_log(a[:3, :3].T @ b[:3, :3])
    mid[:3, :3] = a[:3, :3] @ geometry.so3_exp(half)
    mid[:3, 3] = 0.5 * (a[:3, 3] + b[:3, 3])
    return mid


class TrainCorridor:
    """`trainer.train` on the corridor preset from perturbed poses."""

    name = "train_corridor"
    rate_name = "iters_per_s"
    keys = 1

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int):
        _, gt, scans = _scans("corridor", seed, self.size)
        return SimpleNamespace(
            gt=gt, images=[img for img, _ in scans],
            init=scene.perturb_poses(gt, SIGMA_ROT_DEG, SIGMA_TRANS, seed),
            cfg=trainer.TrainConfig(
                iterations=self.size.train_epochs * self.size.frames, seed=seed))

    def warm_up(self, st) -> None:
        trainer.train(st.images, st.init, self.size.scanner,
                      dataclasses.replace(st.cfg, iterations=1))

    def run(self, st, key: int):
        return trainer.train(st.images, st.init, self.size.scanner, st.cfg)

    def rate(self, st, out, wall: float) -> float:
        return st.cfg.iterations / wall

    def inspect(self, st, key: int, out) -> Outcome:
        params, est, _ = out
        arrays = [est.poses] + [params.params[k] for k in sorted(params.params)]
        problems = _finite(arrays)
        anchor = geometry.se3_decoupled(
            geometry.Se3Param.from_matrix(st.init.poses[0]))
        if not np.array_equal(est.poses[0], anchor):
            problems.append("frame 0 moved from its initial pose")
        pm = metrics.pose_metrics(est, st.gt)
        return Outcome(_digest(arrays), problems,
                       {"ate": pm.ate_m, "rpe_r_deg": pm.rpe_r_deg})


class RegisterLowOverlap:
    """Graph robust-Chamfer registration, then the ICP baseline from the
    same initial poses, on the low-overlap preset. No neural field."""

    name = "register_lowoverlap"
    rate_name = "geo_steps_per_s"
    keys = 1

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int):
        _, gt, scans = _scans("low_overlap", seed, self.size)
        init = scene.perturb_poses(gt, SIGMA_ROT_DEG, SIGMA_TRANS, seed)
        defaults = RunConfig()
        n = self.size.frames
        return SimpleNamespace(
            gt=gt, init=init, clouds=[cloud for _, cloud in scans],
            poses=[geometry.Se3Param.from_matrix(p) for p in init.poses],
            graph=rcd.build_graph(n, min(defaults["train.graph_window"], n - 1)),
            rcd_cfg=defaults.rcd(), lr_rot=defaults["geo.lr_rot"],
            lr_trans=defaults["geo.lr_trans"],
            relatives=[np.eye(4)] + [
                geometry.invert_rigid(init.poses[i - 1]) @ init.poses[i]
                for i in range(1, n)])

    def _geo(self, st, steps: int):
        return rcd.geo_optimize(st.clouds, st.poses, st.graph, st.rcd_cfg,
                                steps, lr_rot=st.lr_rot, lr_trans=st.lr_trans)

    def warm_up(self, st) -> None:
        self._geo(st, 1)
        icp.icp_pairwise(st.clouds[1], st.clouds[0], max_iters=1,
                         init=st.relatives[1])

    def run(self, st, key: int):
        t0 = time.perf_counter()
        poses = self._geo(st, self.size.geo_steps)
        geo_s = time.perf_counter() - t0
        chain = icp.icp_odometry(st.clouds, st.relatives,
                                 max_iters=self.size.icp_iters)
        return poses, chain, geo_s

    def rate(self, st, out, wall: float) -> float:
        return self.size.geo_steps / out[2]

    def inspect(self, st, key: int, out) -> Outcome:
        poses, chain, _ = out
        ids = list(st.gt.frame_ids)
        est = geometry.Trajectory(
            ids, np.array([geometry.se3_decoupled(p) for p in poses]))
        icp_est = geometry.Trajectory(
            ids, np.array([st.init.poses[0] @ t for t in chain]))
        arrays = [est.poses, icp_est.poses]
        problems = _finite(arrays)
        if not (np.array_equal(poses[0].rho, st.poses[0].rho)
                and np.array_equal(poses[0].phi, st.poses[0].phi)):
            problems.append("frame 0 moved from its initial pose (geo)")
        if not np.array_equal(icp_est.poses[0], st.init.poses[0]):
            problems.append("frame 0 moved from its initial pose (icp)")
        pm = metrics.pose_metrics(est, st.gt)
        return Outcome(_digest(arrays), problems,
                       {"ate": pm.ate_m, "rpe_r_deg": pm.rpe_r_deg,
                        "ate_icp": metrics.pose_metrics(icp_est, st.gt).ate_m})


class RenderCorridor:
    """`trainer.render_full_image` from held-out poses between the corridor
    frames, with a field fitted briefly at ground truth during set-up."""

    name = "render_corridor"
    rate_name = "rays_per_s"

    def __init__(self, size: Size):
        self.size = size
        self.keys = size.held_out

    def setup(self, seed: int):
        size = self.size
        world, gt, scans = _scans("corridor", seed, size)
        fit = trainer.TrainConfig(iterations=size.fit_epochs * size.frames,
                                  seed=seed, use_geo=False)
        params, _, _ = trainer.train([img for img, _ in scans], gt,
                                     size.scanner, fit)
        firsts = [int((k + 0.5) * (size.frames - 1) / size.held_out)
                  for k in range(size.held_out)]
        poses = [_between(gt.poses[i], gt.poses[i + 1]) for i in firsts]
        targets = [scene.lidar_scan(world, p, size.scanner,
                                    seed=seed * 100003 + size.frames + k)[0]
                   for k, p in enumerate(poses)]
        return SimpleNamespace(
            params=params, targets=targets, cfg=trainer.TrainConfig(),
            poses=[geometry.Se3Param.from_matrix(p) for p in poses])

    def warm_up(self, st) -> None:
        self.run(st, 0)

    def run(self, st, key: int):
        return trainer.render_full_image(st.params, st.poses[key],
                                         self.size.scanner, st.cfg)

    def rate(self, st, out, wall: float) -> float:
        return out.depth.size / wall

    def inspect(self, st, key: int, out) -> Outcome:
        arrays = [out.depth, out.intensity, out.valid]
        problems = _finite(arrays)
        depth = out.depth[out.valid]
        if depth.size and (depth.min() < st.cfg.t_near
                           or depth.max() > self.size.scanner.max_range):
            problems.append(
                f"valid depth outside [{st.cfg.t_near}, "
                f"{self.size.scanner.max_range}]: "
                f"[{depth.min():.6g}, {depth.max():.6g}]")
        target = st.targets[key]
        return Outcome(_digest(arrays), problems,
                       {"depth_rmse": metrics.image_metrics(out, target)[0],
                        "drop_acc": metrics.drop_accuracy(out, target)})


WORKLOADS = {w.name: w for w in (TrainCorridor, RegisterLowOverlap, RenderCorridor)}
