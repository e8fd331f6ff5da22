"""The full alternating training loop: bundle-adjusting global optimization
of the neural field and poses, interleaved with pure geometric pose
optimization on the frame graph, plus selective reweighting of outlier
frames and 3D Chamfer/normal constraints on synthesized clouds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cloud import PointCloud, RangeImage
from .encoding import EncodingConfig
from .errors import (DegenerateNeighborhood, EmptyBatch, EmptyCloud,
                     NonFiniteLoss)
from .field import FieldParams, backward, pose_rays, render_rays, sensor_directions
from .formats import loss_row
from .geometry import (Se3Param, Trajectory, se3_decoupled, so3_exp,
                       so3_left_jacobian)
from .optim import Adam, exp_decay
from .rcd import GeoSession, RcdConfig, build_graph, temperature_at
from .scene import ScannerConfig, unproject
from .spatial import KdTree, estimate_normals


@dataclass
class TrainConfig:
    iterations: int = 2000
    rays_per_batch: int = 1024
    samples_per_ray: int = 64
    t_near: float = 0.05
    graph_window: int = 4
    lr_field_start: float = 1e-2
    lr_field_end: float = 1e-4
    lr_trans_start: float = 1e-3
    lr_trans_end: float = 1e-5
    lr_rot_start: float = 5e-3
    lr_rot_end: float = 5e-5
    lambda_depth: float = 1.0
    lambda_intensity: float = 1.0
    lambda_raydrop: float = 0.1
    lambda_normal: float = 0.05
    lambda_cd: float = 0.5
    top_k: int = 5
    w0_start: float = 0.15
    c2f_start: float = 0.1
    c2f_end: float = 0.8
    alt_ratio_start: float = 10.0
    alt_ratio_end: float = 1.0
    m1: int = 1
    cd_every: int = 10
    cd_subsample: int = 2048
    hidden_width: int = 32
    use_sr: bool = True
    use_geo: bool = True
    seed: int = 0
    rcd: RcdConfig = dc_field(default_factory=RcdConfig)

    def __post_init__(self):
        for name in ("lr_field_start", "lr_field_end", "lr_trans_start",
                     "lr_trans_end", "lr_rot_start", "lr_rot_end"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.c2f_start < self.c2f_end <= 1.0:
            raise ValueError("need 0 <= c2f_start < c2f_end <= 1")
        if not 0.0 < self.w0_start <= 1.0:
            raise ValueError("w0_start must be in (0, 1]")


class FrameLossTracker:
    """Exponential moving average (decay 0.9) of per-frame rendering loss."""

    def __init__(self, num_frames: int, decay: float = 0.9):
        self.decay = decay
        self.ema = np.zeros(num_frames)
        self.seen = np.zeros(num_frames, dtype=bool)

    def update(self, frame: int, loss: float) -> None:
        if self.seen[frame]:
            self.ema[frame] = self.decay * self.ema[frame] + (1.0 - self.decay) * loss
        else:
            self.ema[frame] = loss
            self.seen[frame] = True

    def all_seen(self) -> bool:
        return bool(self.seen.all())


def select_outliers(tracker: FrameLossTracker, k: int) -> set[int]:
    """Frame ids of the k largest EMA losses; ties resolve to lower ids."""
    if k <= 0:
        return set()
    n = tracker.ema.shape[0]
    order = sorted(range(n), key=lambda i: (-tracker.ema[i], i))
    return set(order[:min(k, n)])


def reweight_factor(progress: float, w0: float) -> float:
    """Gradient multiplier w0 + l * (1 - w0) for outlier-frame field updates."""
    return w0 + progress * (1.0 - w0)


def alternation_ratio(progress: float, m1: int = 1, start: float = 10.0,
                      end: float = 1.0) -> int:
    """Number of geometric epochs m2 to run after every m1 global epochs.

    The ratio m2/m1 interpolates start -> end linearly; m2 rounds half-up.
    """
    ratio = start + (end - start) * progress
    return int(np.floor(m1 * ratio + 0.5))


def render_loss(pred: tuple[np.ndarray, np.ndarray, np.ndarray],
                target: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
                lambda_depth: float, lambda_intensity: float,
                lambda_raydrop: float):
    """Per-ray 2D loss: L1 depth + L2 intensity on valid pixels, L2 ray-drop
    on every pixel.

    pred:   (depth, intensity, drop_prob)
    target: (depth, intensity, drop_target, valid_mask)

    Returns (total, components, gradients) where components is the dict of
    unweighted term values and gradients are d total / d predictions.
    """
    p_depth, p_int, p_drop = (np.asarray(a, dtype=np.float64) for a in pred)
    g_depth, g_int, g_drop, valid = target
    n = p_depth.shape[0]
    if n == 0:
        raise EmptyBatch("empty ray batch")
    if not (p_int.shape[0] == p_drop.shape[0] == g_depth.shape[0] == n):
        raise EmptyBatch("prediction/target length mismatch")
    valid = np.asarray(valid, dtype=bool)
    n_valid = max(int(valid.sum()), 1)

    d_err = np.where(valid, p_depth - g_depth, 0.0)
    i_err = np.where(valid, p_int - g_int, 0.0)
    r_err = p_drop - g_drop

    term_d = float(np.abs(d_err).sum() / n_valid)
    term_i = float((i_err ** 2).sum() / n_valid)
    term_r = float((r_err ** 2).mean())
    total = (lambda_depth * term_d + lambda_intensity * term_i
             + lambda_raydrop * term_r)

    grad_depth = lambda_depth * np.sign(d_err) / n_valid
    grad_int = lambda_intensity * 2.0 * i_err / n_valid
    grad_drop = lambda_raydrop * 2.0 * r_err / n
    comps = {"depth": term_d, "intensity": term_i, "raydrop": term_r}
    return total, comps, (grad_depth, grad_int, grad_drop)


def cd_loss_3d(synth: PointCloud, gt: PointCloud):
    """Symmetric mean squared nearest-neighbor distance, with gradients
    flowing to the synthesized points (correspondences treated as fixed)."""
    if len(synth) == 0 or len(gt) == 0:
        raise EmptyCloud("cd_loss_3d requires non-empty clouds")
    idx_sg, d_sg = KdTree(gt.points).query_many(synth.points)
    idx_gs, d_gs = KdTree(synth.points).query_many(gt.points)
    n_s, n_g = len(synth), len(gt)
    loss = float((d_sg ** 2).mean() + (d_gs ** 2).mean())
    grad = 2.0 * (synth.points - gt.points[idx_sg]) / n_s
    back = 2.0 * (synth.points[idx_gs] - gt.points) / n_g
    np.add.at(grad, idx_gs, back)
    return loss, grad


def normal_loss(synth: PointCloud, gt: PointCloud, k: int = 12) -> float:
    """Sign-invariant L1 normal difference over Chamfer correspondences.

    Normals are estimated per cloud; since their orientation is arbitrary,
    each pair contributes min(|n1 - n2|_1, |n1 + n2|_1). Degenerate
    neighborhoods downgrade to a warning and a zero value.
    """
    if len(synth) == 0 or len(gt) == 0:
        raise EmptyCloud("normal_loss requires non-empty clouds")
    try:
        ns = estimate_normals(synth, k)
        ng = estimate_normals(gt, k)
    except (DegenerateNeighborhood, EmptyCloud) as exc:
        warnings.warn(f"normal_loss skipped: {exc}", RuntimeWarning)
        return 0.0
    idx_sg, _ = KdTree(gt.points).query_many(synth.points)
    idx_gs, _ = KdTree(synth.points).query_many(gt.points)

    def direction(a, b):
        diff = np.abs(a - b).sum(axis=1)
        flip = np.abs(a + b).sum(axis=1)
        return float(np.minimum(diff, flip).mean())

    return direction(ns.normals, ng.normals[idx_sg]) \
        + direction(ng.normals, ns.normals[idx_gs])


def c2f_alpha(progress: float, cfg: TrainConfig, total_levels: int) -> float:
    """Coarse-to-fine level control: 0 before c2f_start, everything active
    from c2f_end onward."""
    span = cfg.c2f_end - cfg.c2f_start
    frac = np.clip((progress - cfg.c2f_start) / span, 0.0, 1.0)
    return float(frac * total_levels)


def _check_finite(value: float, iteration: int, frame: int, terms: dict):
    if not np.isfinite(value):
        raise NonFiniteLoss(
            f"non-finite loss {value} at iteration {iteration}, frame {frame}: {terms}",
            iteration=iteration, frame=frame, terms=terms)


def _flat_target(img: RangeImage):
    """Per-pixel (depth, intensity, drop target, valid), flattened."""
    return (img.depth.reshape(-1), img.intensity.reshape(-1),
            img.drop_mask().reshape(-1), img.valid.reshape(-1))


def render_batch(params: FieldParams, pose: Se3Param, d_sensor: np.ndarray,
                 pix, scanner: ScannerConfig, cfg: TrainConfig,
                 alpha: float | None = None,
                 rng: np.random.Generator | None = None):
    """Render the pixels `pix` (indices or a slice into the flat sensor
    directions) from `pose`, sampled as `cfg` says; rng None takes strata
    midpoints. Returns (origins, dirs, depth, intensity, drop_prob, tape).
    """
    origins, dirs = pose_rays(pose, d_sensor[pix])
    return (origins, dirs, *render_rays(
        params, origins, dirs, cfg.t_near, scanner.max_range,
        cfg.samples_per_ray, alpha=alpha, rng=rng, pose_phi=pose.phi))


def render_step(params: FieldParams, pose: Se3Param, d_sensor: np.ndarray,
                target, scanner: ScannerConfig, cfg: TrainConfig,
                alpha: float | None, rng: np.random.Generator):
    """The 2D objective at one pose: draw a batch of pixels, render them,
    score them against the flat `target` with `render_loss`, and run the
    reverse pass into freshly zeroed field gradients.

    Returns (loss, unweighted terms, pose gradient 6-vector).
    """
    pix = rng.choice(d_sensor.shape[0],
                     size=min(cfg.rays_per_batch, d_sensor.shape[0]),
                     replace=False)
    _, _, depth, intens, drop, tape = render_batch(
        params, pose, d_sensor, pix, scanner, cfg, alpha, rng)
    loss, comps, (gd, gi, gp) = render_loss(
        (depth, intens, drop), tuple(t[pix] for t in target),
        cfg.lambda_depth, cfg.lambda_intensity, cfg.lambda_raydrop)
    params.zero_grads()
    return loss, comps, backward(tape, gd, gi, gp)


def train(images: list[RangeImage], init_poses, scanner: ScannerConfig,
          cfg: TrainConfig, enc_cfg: EncodingConfig | None = None):
    """Run the alternating optimization and return
    (FieldParams, Trajectory, log rows).

    `init_poses` is a Trajectory or a list of Se3Param. Frame 0 is the
    gauge anchor and is never updated. Scene coordinates must already live
    in the unit cube.
    """
    m = len(images)
    if m < 3:
        raise EmptyBatch(f"need at least 3 frames, got {m}")
    if isinstance(init_poses, Trajectory):
        frame_ids = list(init_poses.frame_ids)
        poses = [Se3Param.from_matrix(p) for p in init_poses.poses]
    else:
        frame_ids = list(range(m))
        poses = [p.copy() for p in init_poses]
    enc_cfg = enc_cfg if enc_cfg is not None else EncodingConfig()

    rng = np.random.default_rng(cfg.seed)
    params = FieldParams(enc_cfg, hidden_width=cfg.hidden_width, seed=cfg.seed)
    clouds = [unproject(img, scanner) for img in images]
    h, w = images[0].shape
    d_sensor = sensor_directions(h, w, scanner.fov_up_deg,
                                 scanner.fov_down_deg).reshape(-1, 3)
    targets = [_flat_target(img) for img in images]

    graph = build_graph(m, min(cfg.graph_window, m - 1))
    geo = GeoSession(clouds, graph, cfg.rcd, fixed_frame=0) if cfg.use_geo else None
    adam_field = Adam()
    adam_pose = Adam()
    adam_geo = Adam()
    tracker = FrameLossTracker(m)
    outliers: set[int] = set()
    top_k = min(cfg.top_k, m - 1)
    total_levels = enc_cfg.total_mask_levels
    logs: list[dict] = []

    # Visit order is re-permuted each epoch; a fixed order would bias the
    # loss tracker toward early-position frames (the field improves within
    # an epoch, so later visits always record lower losses).
    visit_order = rng.permutation(m)
    for it in range(cfg.iterations):
        if it % m == 0 and it > 0:
            visit_order = rng.permutation(m)
        frame = int(visit_order[it % m])
        progress = it / max(cfg.iterations - 1, 1)
        lr_field = exp_decay(cfg.lr_field_start, cfg.lr_field_end, progress)
        lr_trans = exp_decay(cfg.lr_trans_start, cfg.lr_trans_end, progress)
        lr_rot = exp_decay(cfg.lr_rot_start, cfg.lr_rot_end, progress)
        alpha = c2f_alpha(progress, cfg, total_levels)
        t_temp = temperature_at(progress, cfg.rcd)

        loss_r, comps, pose_grad = render_step(
            params, poses[frame], d_sensor, targets[frame], scanner, cfg,
            alpha, rng)

        cd_val = normal_val = 0.0
        valid = targets[frame][3]
        if cfg.cd_every > 0 and it % cfg.cd_every == 0 and valid.sum() > 16:
            cd_val, normal_val, cd_pose_grad = _cd_step(
                params, poses[frame], d_sensor, valid, clouds[frame],
                scanner, cfg, alpha, rng)
            pose_grad = pose_grad + cd_pose_grad

        total = (loss_r + cfg.lambda_cd * cd_val
                 + cfg.lambda_normal * normal_val)
        _check_finite(total, it, frame, {**comps, "cd": cd_val,
                                         "normal": normal_val})

        if cfg.use_sr and frame in outliers:
            params.scale_grads(reweight_factor(progress, cfg.w0_start))
        for name, p in params.params.items():
            adam_field.step(name, p, params.grads[name], lr=lr_field)
        if frame != 0:
            adam_pose.step(f"pose{frame}.rho", poses[frame].rho,
                           pose_grad[:3], lr=lr_trans)
            adam_pose.step(f"pose{frame}.phi", poses[frame].phi,
                           pose_grad[3:], lr=lr_rot)

        tracker.update(frame, loss_r)
        logs.append(loss_row(it, "global", total, frame, **comps, cd=cd_val,
                             normal=normal_val, alpha=alpha, t_temp=t_temp))

        if (it + 1) % m == 0:
            if tracker.all_seen():
                outliers = select_outliers(tracker, top_k)
            epoch = (it + 1) // m
            if geo is not None and epoch % cfg.m1 == 0:
                m2 = alternation_ratio(progress, cfg.m1, cfg.alt_ratio_start,
                                       cfg.alt_ratio_end)
                for _ in range(m2):
                    geo_loss = geo.step(poses, t_temp, lr_rot, lr_trans,
                                        adam_geo)
                    _check_finite(geo_loss, it, -1, {"geo": geo_loss})
                    logs.append(loss_row(it, "geo", geo_loss, alpha=alpha,
                                         t_temp=t_temp))

    traj = Trajectory(frame_ids, np.array([se3_decoupled(p) for p in poses]))
    return params, traj, logs


def _cd_step(params, pose, d_sensor, valid, gt_cloud, scanner, cfg, alpha, rng):
    """Render a subsampled batch, form the synthesized world cloud, and
    backpropagate the 3D Chamfer gradient into field and pose; the normal
    constraint is evaluated alongside.

    The ground-truth cloud is placed at the frame's current pose estimate
    and treated as a fixed target; gradients flow through the synthesized
    points only (via rendered depth, ray origin, and ray direction).
    Returns (cd value, normal value, pose gradient 6-vector).
    """
    valid_idx = np.nonzero(valid)[0]
    take = min(cfg.cd_subsample, valid_idx.shape[0])
    pix = rng.choice(valid_idx, size=take, replace=False)
    origins, dirs, depth, _, _, tape = render_batch(
        params, pose, d_sensor, pix, scanner, cfg, alpha, rng)
    synth_pts = origins + depth[:, None] * dirs

    gt_take = min(cfg.cd_subsample, len(gt_cloud))
    gt_sub = gt_cloud.subset(rng.choice(len(gt_cloud), size=gt_take,
                                        replace=False))
    rot = so3_exp(pose.phi)
    gt_world = PointCloud(gt_sub.points @ rot.T + pose.rho)

    synth_cloud = PointCloud(synth_pts)
    cd_val, grad_synth = cd_loss_3d(synth_cloud, gt_world)
    normal_val = normal_loss(synth_cloud, gt_world, k=12) \
        if min(len(synth_cloud), len(gt_world)) > 12 else 0.0

    grad_synth = cfg.lambda_cd * grad_synth
    # Through rendered depth: d p_hat / d depth = ray direction.
    d_depth = np.einsum("ni,ni->n", grad_synth, dirs)
    pose_grad = backward(tape, d_depth, 0.0, 0.0)
    # Direct dependence p_hat = rho + depth * R d_sensor.
    pose_grad[:3] += grad_synth.sum(axis=0)
    torque = np.cross(dirs, depth[:, None] * grad_synth).sum(axis=0)
    pose_grad[3:] += so3_left_jacobian(pose.phi).T @ torque
    return cd_val, normal_val, pose_grad


def render_full_image(params: FieldParams, pose: Se3Param,
                      scanner: ScannerConfig, cfg: TrainConfig,
                      alpha: float | None = None,
                      chunk: int = 4096) -> RangeImage:
    """Deterministic (midpoint-sampled) render of every pixel; pixels with
    drop probability above 0.5 are marked invalid."""
    h, w = scanner.beams, scanner.azimuth_steps
    d_sensor = sensor_directions(h, w, scanner.fov_up_deg,
                                 scanner.fov_down_deg).reshape(-1, 3)
    depth = np.empty(h * w)
    intens = np.empty(h * w)
    drop = np.empty(h * w)
    for lo in range(0, h * w, chunk):
        sel = slice(lo, min(lo + chunk, h * w))
        # The unused tape stays bound to `_` until the next chunk is
        # rendered: dropping it first hands its pages back to the OS, and
        # faulting them in again costs ~15% of the render time.
        _, _, depth[sel], intens[sel], drop[sel], _ = render_batch(
            params, pose, d_sensor, sel, scanner, cfg, alpha)
    valid = drop <= 0.5
    return RangeImage(np.where(valid, depth, -1.0).reshape(h, w),
                      np.where(valid, intens, 0.0).reshape(h, w),
                      valid.reshape(h, w))


def register_novel_view(params: FieldParams, target: RangeImage,
                        scanner: ScannerConfig, init_pose: Se3Param,
                        steps: int = 200, cfg: TrainConfig | None = None,
                        seed: int = 0) -> Se3Param:
    """Pose-only refinement against a target range image with the field
    frozen (all encoding levels active)."""
    cfg = cfg if cfg is not None else TrainConfig()
    h, w = target.shape
    d_sensor = sensor_directions(h, w, scanner.fov_up_deg,
                                 scanner.fov_down_deg).reshape(-1, 3)
    flat = _flat_target(target)
    pose = init_pose.copy()
    rng = np.random.default_rng(seed)
    adam = Adam()
    for step in range(steps):
        progress = step / max(steps - 1, 1)
        lr_trans = exp_decay(cfg.lr_trans_start, cfg.lr_trans_end, progress)
        lr_rot = exp_decay(cfg.lr_rot_start, cfg.lr_rot_end, progress)
        loss, comps, pose_grad = render_step(params, pose, d_sensor, flat,
                                             scanner, cfg, None, rng)
        _check_finite(loss, step, -1, comps)
        adam.step("rho", pose.rho, pose_grad[:3], lr=lr_trans)
        adam.step("phi", pose.phi, pose_grad[3:], lr=lr_rot)
    return pose
