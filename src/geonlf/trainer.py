"""The full alternating training loop: bundle-adjusting global optimization
of the neural field and poses, interleaved with pure geometric pose
optimization on the frame graph, plus selective reweighting of outlier
frames. Every `cd_every`-th training batch also carries a 3D Chamfer
constraint between its synthesized and observed points, and logs their
normal consistency. Each iteration renders one batch and runs one reverse
pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .cloud import PointCloud, RangeImage
from .encoding import EncodingConfig
from .errors import (ConfigError, DegenerateNeighborhood, EmptyBatch,
                     EmptyCloud, FrameMismatch, NonFiniteLoss, ShapeMismatch,
                     TooFewFrames)
from .field import (PARAM_NAMES, FieldParams, backward, render_forward,
                    render_rays)
from .formats import loss_row
from .geometry import (Se3Param, Trajectory, se3_decoupled, so3_exp,
                       so3_left_jacobian)
from .optim import Adam, exp_decay
from .rcd import GeoSession, RcdConfig, build_graph, temperature_at
from .scene import ScannerConfig, unproject
from .spatial import NORMAL_NEIGHBORS, KdTree, estimate_normals


@dataclass
class TrainConfig:
    iterations: int = 2000
    rays_per_batch: int = 1024
    samples_per_ray: int = 32
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
    hidden_width: int = 32
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
        if self.t_near < 0.0:
            raise ValueError("t_near must be >= 0")
        for name in ("m1", "samples_per_ray", "rays_per_batch",
                     "graph_window", "hidden_width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("iterations", "cd_every", "top_k", "seed",
                     "alt_ratio_start", "alt_ratio_end"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


# Decay of the per-frame 2D loss moving average that `train` keeps.
LOSS_EMA_DECAY = 0.9


def select_outliers(ema: np.ndarray, k: int) -> set[int]:
    """Frame ids of the k largest per-frame losses in `ema`; ties resolve
    to lower ids."""
    return set(sorted(range(len(ema)), key=lambda i: (-ema[i], i))[:k])


def reweight_factor(progress: float, w0: float) -> float:
    """Gradient multiplier w0 + l * (1 - w0) for outlier-frame field updates."""
    return w0 + progress * (1.0 - w0)


def alternation_ratio(progress: float, cfg: TrainConfig) -> int:
    """Number of geometric epochs m2 to run after every cfg.m1 global
    epochs.

    The ratio m2/m1 interpolates cfg.alt_ratio_start -> cfg.alt_ratio_end
    linearly; m2 rounds half-up.
    """
    ratio = (cfg.alt_ratio_start
             + (cfg.alt_ratio_end - cfg.alt_ratio_start) * progress)
    return int(np.floor(cfg.m1 * ratio + 0.5))


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
        raise ShapeMismatch("prediction/target length mismatch")
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
    flowing to the synthesized points (correspondences treated as fixed).

    Returns (loss, gradient, pairs), pairs = (idx_sg, idx_gs) being the
    nearest gt point of each synthesized point and the other way round,
    which `normal_loss` reuses.
    """
    if len(synth) == 0 or len(gt) == 0:
        raise EmptyCloud("cd_loss_3d requires non-empty clouds")
    idx_sg, d_sg = KdTree(gt.points).query_many(synth.points)
    idx_gs, d_gs = KdTree(synth.points).query_many(gt.points)
    n_s, n_g = len(synth), len(gt)
    loss = float((d_sg ** 2).mean() + (d_gs ** 2).mean())
    grad = 2.0 * (synth.points - gt.points[idx_sg]) / n_s
    back = 2.0 * (synth.points[idx_gs] - gt.points) / n_g
    np.add.at(grad, idx_gs, back)
    return loss, grad, (idx_sg, idx_gs)


def normal_loss(synth: PointCloud, gt: PointCloud,
                pairs: tuple[np.ndarray, np.ndarray]) -> float:
    """Sign-invariant L1 normal difference over the Chamfer correspondences
    `pairs` that `cd_loss_3d` returns.

    Normals are estimated per cloud from NORMAL_NEIGHBORS neighbors; since
    their orientation is arbitrary, each pair contributes
    min(|n1 - n2|_1, |n1 + n2|_1). Degenerate neighborhoods downgrade to a
    warning and a zero value.
    """
    if len(synth) == 0 or len(gt) == 0:
        raise EmptyCloud("normal_loss requires non-empty clouds")
    try:
        ns = estimate_normals(synth)
        ng = estimate_normals(gt)
    except (DegenerateNeighborhood, EmptyCloud) as exc:
        warnings.warn(f"normal_loss skipped: {exc}", RuntimeWarning)
        return 0.0
    idx_sg, idx_gs = pairs

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


def _check_finite(value: float, iteration: int, frame: int, terms: dict,
                  params: FieldParams, poses: list[Se3Param]) -> None:
    """Raise NonFiniteLoss on a NaN or inf `value`, naming the first
    parameter block (in PARAM_NAMES order), else the first pose, that holds
    one. The scan runs only on failure."""
    if np.isfinite(value):
        return
    culprit = next((f"parameter block {name!r}" for name in PARAM_NAMES
                    if not np.isfinite(params.params[name]).all()), None)
    culprit = culprit or next(
        (f"pose {i}" for i, p in enumerate(poses)
         if not (np.isfinite(p.rho).all() and np.isfinite(p.phi).all())), None)
    raise NonFiniteLoss(
        f"non-finite loss {value} at iteration {iteration}, frame {frame}: "
        f"{terms}; non-finite: {culprit or 'no parameter block or pose'}",
        iteration=iteration, frame=frame, terms=terms, culprit=culprit)


def _flat_target(img: RangeImage, scanner: ScannerConfig):
    """Per-pixel (depth, intensity, drop target, valid), flattened in the
    order of `scanner.directions`. The image must have the scanner's
    shape."""
    if img.shape != scanner.shape:
        raise ShapeMismatch(f"range image of shape {img.shape} does not "
                            f"match the scanner's {scanner.shape}")
    return (img.depth.reshape(-1), img.intensity.reshape(-1),
            img.drop_mask().reshape(-1), img.valid.reshape(-1))


def strata(t_near: float, t_far: float, num_strata: int,
           jitter) -> np.ndarray:
    """One float64 distance in each of `num_strata` equal strata of
    [t_near, t_far): t_near + (i + jitter_i) / num_strata * (t_far - t_near).
    `jitter` in [0, 1) is the offset within each stratum: (n, num_strata)
    gives (n, num_strata) rows, the scalar 0.5 one row of midpoints. Every
    sampler starts here, so an empty or reversed range is a ConfigError
    here."""
    if not t_near < t_far:
        raise ConfigError(f"empty sampling range: t_near {t_near} is not "
                          f"below max_range {t_far}")
    frac = (np.arange(num_strata) + jitter) / num_strata
    return t_near + frac * (t_far - t_near)


def sample_distances(t_near: float, t_far: float, observed: np.ndarray,
                     valid: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """The (n, N) sorted float64 sample distances of n rays in
    [t_near, t_far], N = jitter.shape[1], each sample offset in its
    stratum by the matching entry of `jitter` (in [0, 1)).

    A ray whose pixel is `valid` spends half its samples where its
    `observed` range puts the surface: ceil(N / 2) strata over
    [t_near, t_far], and N // 2 strata of one band as wide as one of
    those, centred on the observed range and shifted to stay inside
    [t_near, t_far]. Any other ray gets N strata over [t_near, t_far].
    The distances depend on the target and the jitter only, never on the
    pose.
    """
    num_samples = jitter.shape[1]
    ts = strata(t_near, t_far, num_samples, jitter)
    n_band = num_samples // 2
    n_wide = num_samples - n_band
    if n_band:
        width = (t_far - t_near) / n_wide
        lo = np.clip(observed[valid] - 0.5 * width, t_near, t_far - width)
        ts[valid] = np.sort(np.concatenate(
            [strata(t_near, t_far, n_wide, jitter[valid, :n_wide]),
             lo[:, None] + strata(0.0, width, n_band,
                                  jitter[valid, n_wide:])], axis=1), axis=1)
    return ts


def pose_rays(pose: Se3Param, directions: np.ndarray):
    """World (origins, dirs), each (n, 3), of the sensor-frame pixel
    directions (n, 3) seen from `pose`."""
    dirs = directions @ so3_exp(pose.phi).T
    return np.broadcast_to(pose.rho, dirs.shape).copy(), dirs


def render_step(params: FieldParams, pose: Se3Param, target,
                scanner: ScannerConfig, cfg: TrainConfig,
                alpha: float | None, rng: np.random.Generator,
                field_grads: bool, chamfer: bool = False):
    """The objective at one pose: draw a batch of pixels, sample their rays
    with `sample_distances` (jittered by one (n, N) draw of `rng` right
    after the pixel draw; bands around the target ranges of valid pixels),
    render them from `pose`, score them against the flat `target` with
    `render_loss`, and run the reverse pass. Training and registration
    render a pose only here. With `field_grads` the field gradients are
    zeroed and filled; without, the field is frozen and params.grads is
    not touched.

    With `chamfer`, the batch's valid pixels also give two clouds, placed
    at `pose`: the synthesized points (rendered depth) and the observed
    ones (target depth). Their `cd_loss_3d` joins the objective with weight
    cfg.lambda_cd, and `normal_loss` is measured on the same pairs. Both
    clouds lie on the same rays from the same origin, so the distance
    depends on the pose only through rendered depth: its gradient enters
    the one reverse pass as a depth upstream, and is the exact derivative.

    Returns (2D loss, unweighted terms, pose gradient 6-vector); the terms
    hold "cd" and "normal", 0.0 when not measured.
    """
    n = len(scanner.directions)
    pix = rng.choice(n, size=min(cfg.rays_per_batch, n), replace=False)
    batch = tuple(t[pix] for t in target)
    valid = batch[3]
    ts = sample_distances(cfg.t_near, scanner.max_range, batch[0], valid,
                          rng.random((len(pix), cfg.samples_per_ray)))
    origins, dirs = pose_rays(pose, scanner.directions[pix])
    depth, intens, drop, tape = render_rays(
        params, origins, dirs, ts, scanner.max_range, cfg.samples_per_ray,
        alpha=alpha)
    loss, comps, (gd, gi, gp) = render_loss(
        (depth, intens, drop), batch,
        cfg.lambda_depth, cfg.lambda_intensity, cfg.lambda_raydrop)
    comps["cd"] = comps["normal"] = 0.0
    # A normal estimate needs more than NORMAL_NEIGHBORS points per cloud.
    if chamfer and valid.sum() > NORMAL_NEIGHBORS:
        o, d = origins[valid], dirs[valid]
        synth = PointCloud(o + depth[valid, None] * d)
        seen = PointCloud(o + batch[0][valid, None] * d)
        comps["cd"], grad_synth, pairs = cd_loss_3d(synth, seen)
        comps["normal"] = normal_loss(synth, seen, pairs)
        # d synth / d depth = ray direction.
        gd[valid] += cfg.lambda_cd * np.einsum("ni,ni->n", grad_synth, d)
    if field_grads:
        params.zero_grads()
    grad = backward(tape, gd, gi, gp, field_grads)
    grad[3:] = so3_left_jacobian(pose.phi).T @ grad[3:]   # torque -> d/d phi
    return loss, comps, grad


def train(images: list[RangeImage], init_poses: Trajectory,
          scanner: ScannerConfig, cfg: TrainConfig,
          enc_cfg: EncodingConfig | None = None):
    """Run the alternating optimization and return
    (FieldParams, Trajectory, log rows).

    Training runs in epochs of one global step (render, loss, backward,
    Adam on the field and the frame's pose) per frame, in a fresh random
    order each epoch; the last epoch is cut short at cfg.iterations. After
    each complete epoch, the top_k frames of largest 2D-loss average become
    the outliers whose field gradients the next epoch scales down
    (`reweight_factor`), and after every m1-th one, `alternation_ratio`
    geometric epochs (`GeoSession.step` on all poses) follow. A cut-short
    epoch is followed by neither. The `GeoSession` is built right before
    the first geometric epoch, so a run without one computes no surface
    clouds or normals.

    `init_poses` is a Trajectory with one pose per image. Frame 0 is the
    gauge anchor and is never updated. Scene coordinates must already live
    in the unit cube. Every range image must have the scanner's shape.
    """
    m = len(images)
    if m < 3:
        raise TooFewFrames(f"need at least 3 frames, got {m}")
    if len(init_poses) != m:
        raise FrameMismatch(
            f"{len(init_poses)} initial poses for {m} range images")
    targets = [_flat_target(img, scanner) for img in images]
    poses = [Se3Param.from_matrix(p) for p in init_poses.poses]
    enc_cfg = enc_cfg if enc_cfg is not None else EncodingConfig()

    rng = np.random.default_rng(cfg.seed)
    params = FieldParams(enc_cfg, hidden_width=cfg.hidden_width, seed=cfg.seed)

    geo = None              # built before the first geometric epoch
    adam_field = Adam()
    adam_pose = Adam()
    ema = np.zeros(m)       # per-frame 2D loss, LOSS_EMA_DECAY average
    outliers: set[int] = set()
    top_k = min(cfg.top_k, m - 1)
    total_levels = enc_cfg.total_mask_levels
    logs: list[dict] = []

    # A fixed visit order would bias the loss average toward early-position
    # frames: the field improves within an epoch, so later visits always
    # record lower losses.
    for epoch in range(-(-cfg.iterations // m)):
        order = rng.permutation(m)[:cfg.iterations - epoch * m]
        for it, frame in enumerate(order.tolist(), start=epoch * m):
            progress = it / max(cfg.iterations - 1, 1)
            lr_field = exp_decay(cfg.lr_field_start, cfg.lr_field_end,
                                 progress)
            lr_trans = exp_decay(cfg.lr_trans_start, cfg.lr_trans_end,
                                 progress)
            lr_rot = exp_decay(cfg.lr_rot_start, cfg.lr_rot_end, progress)
            alpha = c2f_alpha(progress, cfg, total_levels)
            t_temp = temperature_at(progress, cfg.rcd)

            loss_r, comps, pose_grad = render_step(
                params, poses[frame], targets[frame], scanner, cfg,
                alpha, rng, field_grads=True,
                chamfer=cfg.cd_every > 0 and it % cfg.cd_every == 0)
            total = (loss_r + cfg.lambda_cd * comps["cd"]
                     + cfg.lambda_normal * comps["normal"])
            _check_finite(total, it, frame, comps, params, poses)

            if frame in outliers:
                params.scale_grads(reweight_factor(progress, cfg.w0_start))
            for name, p in params.params.items():
                adam_field.step(name, p, params.grads[name], lr=lr_field)
            if frame != 0:
                adam_pose.step_pose(f"pose{frame}", poses[frame], pose_grad,
                                    lr_rot, lr_trans)

            ema[frame] = loss_r if epoch == 0 else (
                LOSS_EMA_DECAY * ema[frame] + (1.0 - LOSS_EMA_DECAY) * loss_r)
            logs.append(loss_row(it, "global", total, frame, **comps,
                                 alpha=alpha, t_temp=t_temp))

        if len(order) < m:
            break
        # The geometric epochs take the schedule of the last global step.
        outliers = select_outliers(ema, top_k)
        if not cfg.use_geo or (epoch + 1) % cfg.m1:
            continue
        for _ in range(alternation_ratio(progress, cfg)):
            if geo is None:
                geo = GeoSession([unproject(img, scanner) for img in images],
                                 build_graph(m, cfg.graph_window), cfg.rcd)
            geo_loss = geo.step(poses, t_temp, lr_rot, lr_trans)
            _check_finite(geo_loss, it, -1, {"geo": geo_loss}, params, poses)
            logs.append(loss_row(it, "geo", geo_loss, alpha=alpha,
                                 t_temp=t_temp))

    traj = Trajectory(list(init_poses.frame_ids),
                      np.array([se3_decoupled(p) for p in poses]))
    return params, traj, logs


def render_full_image(params: FieldParams, pose: Se3Param,
                      scanner: ScannerConfig, cfg: TrainConfig) -> RangeImage:
    """Deterministic render of every pixel with every encoding level
    active, at one row of cfg.samples_per_ray strata midpoints over
    [t_near, max_range] that every ray shares: no target range is known
    here, so there is no band. Pixels with drop probability above 0.5 are
    invalid. The image is one `field.render_forward`, so its memory does
    not grow with its size, and for any CPU count it equals one
    `render_rays` of every pixel at those midpoints, bit for bit."""
    h, w = scanner.shape
    origins, dirs = pose_rays(pose, scanner.directions)
    depth, intens, drop = render_forward(
        params, origins, dirs,
        strata(cfg.t_near, scanner.max_range, cfg.samples_per_ray, 0.5),
        scanner.max_range)
    valid = drop <= 0.5
    return RangeImage(np.where(valid, depth, -1.0).reshape(h, w),
                      np.where(valid, intens, 0.0).reshape(h, w),
                      valid.reshape(h, w))


def register_novel_view(params: FieldParams, target: RangeImage,
                        scanner: ScannerConfig, init_pose: Se3Param,
                        steps: int, cfg: TrainConfig,
                        seed: int = 0) -> Se3Param:
    """Pose-only refinement against a target range image with the field
    frozen (all encoding levels active). The target must have the scanner's
    shape."""
    flat = _flat_target(target, scanner)
    pose = init_pose.copy()
    rng = np.random.default_rng(seed)
    adam = Adam()
    for step in range(steps):
        progress = step / max(steps - 1, 1)
        lr_trans = exp_decay(cfg.lr_trans_start, cfg.lr_trans_end, progress)
        lr_rot = exp_decay(cfg.lr_rot_start, cfg.lr_rot_end, progress)
        loss, comps, pose_grad = render_step(params, pose, flat, scanner, cfg,
                                             None, rng, field_grads=False)
        _check_finite(loss, step, -1, comps, params, [pose])
        adam.step_pose("pose", pose, pose_grad, lr_rot, lr_trans)
    return pose
