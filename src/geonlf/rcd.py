"""Graph-based robust Chamfer distance over frame poses.

Frames are connected to their n temporal neighbors; each edge carries a
soft-weighted, bidirectional Chamfer term evaluated on the frames' world
transforms. Correspondences and their weights are always held fixed
within one evaluation and refreshed every step, so the analytic gradients
are exact for the fixed-correspondence surrogate and finite-difference
checkable.

The residual of a nearest-neighbor pair depends on the clouds:

- clouds without normals: point-to-point, |p - q|^2 (plain Chamfer);
- clouds with normals (what `GeoSession` builds from LiDAR scans): the
  symmetric point-to-plane residual ((p - q) . (n_p + n_q))^2 of
  Rusinkiewicz (SIGGRAPH 2019), with normals rotating with their frames,
  over the pairs that pass a rejection test (`_keep_pairs`), once a
  direction is aligned to within a voxel; further out it is blended with,
  and from three voxels on replaced by, the point-to-point term
  (`_point_share`).

Point-to-point pairs between two samplings of one surface lean toward the
denser part of the target scan, near its own sensor, so plain Chamfer pulls
frames toward each other even at ground truth. Measured along the normals,
two samples of one plane have zero residual wherever they fall on it. Far
from alignment that bias is small next to the misalignment, and the
point-to-point term is the one that recovers from it.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateNeighborhood, EmptyCloud, EmptyList, TooFewFrames
from .geometry import Se3Param, so3_exp, so3_left_jacobian
from .optim import Adam, exp_decay
from .spatial import (KdTree, NearestCache, normals_at, pool_map,
                      voxel_downsample)


@dataclass
class FrameGraph:
    """Edges (i, j), i < j, between frames at most a window apart."""

    num_frames: int
    edges: list[tuple[int, int]]


@dataclass
class RcdConfig:
    """Knobs of the robust Chamfer term.

    t0:         peak temperature, reached by a linear ramp from 0 at the
                end of the schedule
    voxel_size: downsampling cell size; also the distance clip in the
                weight softmax, the floor of the point-to-plane rejection
                gate (1.5 voxels) and the unit of the point-to-point share
                (0 up to 1 voxel, 1 from 3)

    Which residual applies (point-to-point or symmetric point-to-plane) is
    decided by whether the clouds carry normals and by how far apart they
    are, not by a knob.
    """

    t0: float = 0.5
    voxel_size: float = 0.01

    def __post_init__(self):
        if self.t0 < 0.0:
            raise ValueError("t0 must be >= 0")
        if self.voxel_size <= 0.0:
            raise ValueError("voxel_size must be > 0")


def build_graph(num_frames: int, window: int) -> FrameGraph:
    """All pairs (i, j) with 0 < j - i <= window, sorted lexicographically.

    A window of num_frames-1 or larger gives every pair. The edge count
    equals n*M - n*(n+1)/2 for window n < M.
    """
    if num_frames < 2:
        raise TooFewFrames(f"need at least 2 frames, got {num_frames}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    edges = [(i, j)
             for i in range(num_frames)
             for j in range(i + 1, min(i + window, num_frames - 1) + 1)]
    return FrameGraph(num_frames, edges)


def correspondence_weights(distances: np.ndarray, t: float,
                           voxel_size: float) -> np.ndarray:
    """Softmax over inverse clipped distances, sharpened by temperature t.

    w_i = exp(t / max(voxel_size, d_i)) / sum_j exp(t / max(voxel_size, d_j))

    t = 0 is exactly uniform; large t concentrates mass on the smallest
    clipped distance. Exponents are max-shifted for stability.
    """
    distances = np.asarray(distances, dtype=np.float64).reshape(-1)
    if distances.size == 0:
        raise EmptyList("no correspondences to weight")
    clipped = np.maximum(voxel_size, distances)
    exponents = t / clipped
    shifted = np.exp(exponents - exponents.max())
    return shifted / shifted.sum()


def temperature_at(progress: float, cfg: RcdConfig) -> float:
    """Temperature at a training progress in [0, 1]: linear from 0 to t0."""
    return cfg.t0 * progress


def _lower_quartile(d: np.ndarray) -> float:
    """The pair distance of rank (n - 1) // 4 in ascending order."""
    k = (d.shape[0] - 1) // 4
    return float(np.partition(d, k)[k])


def _point_share(quartile: float, voxel_size: float) -> float:
    """Share of the point-to-point residual in a direction with normals.

    0 while the lower quartile of the pair distances is at most one voxel,
    1 from three voxels on, linear in between. At ground truth the quartile
    is the sampling scale of the overlapping surfaces (0.3-0.7 voxels on
    the test corridors), so aligned frames get the unbiased point-to-plane
    residual. Far from alignment the nearest neighbors are mostly wrong
    surfaces; their normals carry little information there, while the full
    point-to-point offset still says which way to move, also along a
    corridor axis that no plane constrains.
    """
    return min(max((quartile / voxel_size - 1.0) / 2.0, 0.0), 1.0)


def _keep_pairs(d: np.ndarray, quartile: float, voxel_size: float) -> np.ndarray:
    """Correspondence rejection for the point-to-plane residual.

    A pair is kept when its distance is at most max(1.5 voxels, 3 x the
    lower quartile of the direction's pair distances). At ground truth the
    distances split into the sampling scale of overlapping surfaces and far
    pairs from surfaces that only one frame sees, matched to the nearest
    other surface; the lower quartile follows the first group even when a
    third of the pairs are far, so the gate drops the second. Away from
    ground truth every distance grows, and the gate with them. The closest
    pair is never above the quartile, so an edge never loses every pair.
    """
    return d <= max(1.5 * voxel_size, 3.0 * quartile)


def _cross_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_k a_k x b_k over the rows of two (N, 3) arrays."""
    return np.array([a[:, 1] @ b[:, 2] - a[:, 2] @ b[:, 1],
                     a[:, 2] @ b[:, 0] - a[:, 0] @ b[:, 2],
                     a[:, 0] @ b[:, 1] - a[:, 1] @ b[:, 0]])


def _residual_terms(r: np.ndarray, d: np.ndarray, src_rot: np.ndarray,
                    dst_rot: np.ndarray, cfg: RcdConfig, t: float,
                    n_src: np.ndarray | None = None,
                    n_dst: np.ndarray | None = None):
    """Weighted residual over a set of pairs: point-to-point without
    normals, symmetric point-to-plane with them. The weights always come
    from the point distances and are held fixed. Returns (loss, force,
    torque_src, torque_dst): force is d loss / d rho_src (and minus
    d loss / d rho_dst); the torques are the rotation gradients before the
    transposed left Jacobian.
    """
    w = correspondence_weights(d, t, cfg.voxel_size)
    if n_src is None:
        sq = d * d
        dl_dr = 2.0 * w[:, None] * r
    else:
        s = n_src + n_dst
        e = np.einsum("ni,ni->n", r, s)
        sq = e * e
        dl_dr = 2.0 * (w * e)[:, None] * s
    loss = float(np.dot(w, sq))
    # d(R v)/d phi = -[R v]x J_l(phi); transposed against a gradient g this
    # is J_l^T (R v x g). Normals rotate with their frames the same way.
    torque_src = _cross_sum(src_rot, dl_dr)
    torque_dst = -_cross_sum(dst_rot, dl_dr)
    if n_src is not None:
        dl_dn = 2.0 * (w * e)[:, None] * r
        torque_src += _cross_sum(n_src, dl_dn)
        torque_dst += _cross_sum(n_dst, dl_dn)
    return loss, dl_dr.sum(axis=0), torque_src, torque_dst


class _PosedFrame:
    """A cloud under its pose: the rotation, the rotated points (sensor
    origin at 0) and the world points, computed once per evaluation."""

    def __init__(self, cloud: PointCloud, pose: Se3Param):
        self.cloud = cloud
        self.pose = pose
        self.rot = so3_exp(pose.phi)
        self.rotated = cloud.points @ self.rot.T
        self.world = self.rotated + pose.rho

    def to_sensor(self, world: np.ndarray, out: np.ndarray) -> np.ndarray:
        """World points in this frame's sensor coordinates, where its
        kd-tree was built (rigid transforms preserve distances), written
        to `out`."""
        return np.matmul(world - self.pose.rho, self.rot, out=out)


def _direction_terms(src: _PosedFrame, dst: _PosedFrame, idx: np.ndarray,
                     cfg: RcdConfig, t: float):
    """One Chamfer direction: src points matched into dst, dst point idx[k]
    being the nearest neighbor of src point k.

    The residual is formed in world coordinates. Without normals this is
    the point-to-point term over all pairs. With normals on both clouds it
    is beta * point-to-point over all pairs + (1 - beta) * point-to-plane
    over the kept pairs, each with its own weights, beta = `_point_share`.
    Like the pairs, beta and the kept set are held fixed within one
    evaluation. Returns what `_residual_terms` returns.
    """
    dst_rot = dst.cloud.points[idx] @ dst.rot.T
    r = src.world - (dst_rot + dst.pose.rho)           # (N, 3)
    x, y, z = r.T
    d = np.sqrt(x * x + y * y + z * z)   # norm(r, axis=1) bit for bit, 3x faster
    if src.cloud.normals is None or dst.cloud.normals is None:
        return _residual_terms(r, d, src.rotated, dst_rot, cfg, t)

    quartile = _lower_quartile(d)
    beta = _point_share(quartile, cfg.voxel_size)
    total = [0.0, 0.0, 0.0, 0.0]
    if beta > 0.0:
        terms = _residual_terms(r, d, src.rotated, dst_rot, cfg, t)
        total = [a + beta * b for a, b in zip(total, terms)]
    if beta < 1.0:
        keep = _keep_pairs(d, quartile, cfg.voxel_size)
        terms = _residual_terms(r[keep], d[keep], src.rotated[keep],
                                dst_rot[keep], cfg, t,
                                src.cloud.normals[keep] @ src.rot.T,
                                dst.cloud.normals[idx[keep]] @ dst.rot.T)
        total = [a + (1.0 - beta) * b for a, b in zip(total, terms)]
    return tuple(total)


def _edge_terms(p: _PosedFrame, q: _PosedFrame, idx_pq: np.ndarray,
                idx_qp: np.ndarray, cfg: RcdConfig, t: float):
    """Both directions of one edge from their nearest-neighbor indices
    (idx_pq into q for p's points, idx_qp into p for q's points).
    Returns (loss, grad_xi_p, grad_xi_q), each gradient a 6-vector
    ordered (d rho, d phi). Poses enter through the decoupled exponential
    map, so d/d rho is direct and d/d phi goes through the rotation only.
    """
    loss_pq, f_pq, tp_pq, tq_pq = _direction_terms(p, q, idx_pq, cfg, t)
    loss_qp, f_qp, tq_qp, tp_qp = _direction_terms(q, p, idx_qp, cfg, t)

    grad_p = np.zeros(6)
    grad_q = np.zeros(6)
    grad_p[:3] = f_pq - f_qp
    grad_q[:3] = f_qp - f_pq
    grad_p[3:] = so3_left_jacobian(p.pose.phi).T @ (tp_pq + tp_qp)
    grad_q[3:] = so3_left_jacobian(q.pose.phi).T @ (tq_qp + tq_pq)
    return loss_pq + loss_qp, grad_p, grad_q


def _sources(graph: FrameGraph) -> dict[int, list[int]]:
    """For each frame, its graph neighbors in edge order: the frames whose
    points are matched into it."""
    sources: dict[int, list[int]] = {}
    for i, j in graph.edges:
        sources.setdefault(j, []).append(i)
        sources.setdefault(i, []).append(j)
    return sources


def _graph_correspondences(frames: list[_PosedFrame], graph: FrameGraph,
                           trees: list[KdTree],
                           caches: dict[int, NearestCache] | None
                           ) -> Iterator[dict]:
    """Nearest neighbors for both directions of every edge, with one query
    per destination frame: the points of all its graph neighbors are
    stacked into one batch. Each neighbor's block is formed on its own, as
    a query for that edge alone would form it, so the indices are the same
    as per-edge queries. With `caches`, each frame's batch goes through
    its `NearestCache`, which returns the indices a fresh query returns.
    The queries run as `pool_map` tasks in frame order; yields each frame's
    {(src, dst): indices into dst's cloud} in that order, as they land.
    """
    sources = _sources(graph)

    def query(dst: int) -> dict:
        srcs = sources[dst]
        bounds = np.cumsum([len(frames[s].world) for s in srcs])
        batch = np.empty((bounds[-1], 3))
        for s, block in zip(srcs, np.split(batch, bounds[:-1])):
            frames[dst].to_sensor(frames[s].world, out=block)
        if caches is None:
            idx, _ = trees[dst].query_many(batch)
        else:
            idx = caches[dst].query(batch)
        return {(s, dst): part
                for s, part in zip(srcs, np.split(idx, bounds[:-1]))}

    return pool_map([partial(query, dst) for dst in sorted(sources)])


def graph_loss(clouds: list[PointCloud], poses: list[Se3Param],
               graph: FrameGraph, cfg: RcdConfig, t: float,
               trees: list[KdTree] | None = None,
               caches: dict[int, NearestCache] | None = None):
    """Mean robust Chamfer over all graph edges.

    Normalized by the edge count; per-frame gradients are
    accumulated over incident edges in sorted edge order. Every edge gives
    what a one-edge graph of its two frames gives, bit for bit. The
    correspondences come from one query per frame, run on the shared pool
    (`_graph_correspondences`); the edges are evaluated on the calling
    thread as soon as both their frames' queries have landed, so the edge
    math overlaps the later queries. `caches` (GeoSession's) holds one
    `NearestCache` per frame over the trees, for the batch of that frame's
    queries; a cache returns what a fresh query returns. Neither the loss
    nor the gradients depend on the CPU count or on the calls before.
    Clouds with normals on both sides use the point-to-plane blend, any
    other pair point-to-point (see the module docstring).
    Returns (loss, grads) with grads an (M, 6) array.
    """
    if not (len(clouds) == len(poses) == graph.num_frames):
        raise ValueError("clouds/poses length must match graph.num_frames")
    for i, c in enumerate(clouds):
        if len(c) == 0:
            raise EmptyCloud(f"frame {i} has an empty cloud")
    if trees is None:
        trees = [KdTree(c.points) for c in clouds]
    frames = [_PosedFrame(c, p) for c, p in zip(clouds, poses)]
    landed = _graph_correspondences(frames, graph, trees, caches)
    pairs: dict = {}
    denom = float(len(graph.edges))
    grads = np.zeros((graph.num_frames, 6))
    total = 0.0
    for i, j in graph.edges:
        while (i, j) not in pairs or (j, i) not in pairs:
            pairs.update(next(landed))
        loss, gi, gj = _edge_terms(frames[i], frames[j], pairs.pop((i, j)),
                                   pairs.pop((j, i)), cfg, t)
        total += loss
        grads[i] += gi
        grads[j] += gj
    return total / denom, grads / denom


def _surface_cloud(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """The voxel centroids of a sensor-frame cloud with normals from the
    full-resolution points around them.

    A cloud of at most `spatial.NORMAL_NEIGHBORS` points, or with only
    collinear neighborhoods, gets bare centroids and a RuntimeWarning: every
    edge touching that frame then falls back to the point-to-point
    residual.
    """
    centroids = voxel_downsample(cloud, voxel_size)
    try:
        return normals_at(cloud, centroids)
    except (EmptyCloud, DegenerateNeighborhood) as exc:
        warnings.warn(f"no normals for a {len(cloud)}-point frame ({exc}); "
                      "its edges use the point-to-point residual",
                      RuntimeWarning)
        return centroids


class GeoSession:
    """Reusable state for repeated geometric steps on one scene.

    Prepares every cloud once: voxel downsampling, then a normal for each
    centroid by PCA over its 12 nearest points in the full-resolution
    sensor-frame cloud, pointed toward the sensor (`spatial.normals_at`).
    Centroids whose neighbors are collinear are left out; a frame with no
    normal at all keeps its bare centroids, with a warning. Normals taken
    on the voxelized cloud instead come from neighborhoods spanning several
    voxels and leave the ground-truth bias in place. An edge between two
    frames with normals uses the symmetric point-to-plane residual once
    aligned, and the point-to-point one far from alignment (see the module
    docstring); any other edge is point-to-point. Builds
    one kd-tree per frame, and then performs Adam steps on the pose
    parameters with its own optimizer state, kept across steps. Frame 0
    is gauge-fixed (never updated).

    Each frame's surface cloud is prepared as its own `pool_map` task, and
    every step's correspondence queries run on the same pool (`graph_loss`).
    Each frame keeps a `spatial.NearestCache` over the stacked points of
    its graph neighbors, allocated here once: a step reuses a point's
    nearest neighbor only where a bound proves it equal to a fresh
    query's, and queries the others. The clouds, normals and steps are
    computed frame by frame and depend neither on the steps before nor on
    the CPU count.
    """

    def __init__(self, clouds: list[PointCloud], graph: FrameGraph,
                 cfg: RcdConfig):
        self.cfg = cfg
        self.graph = graph
        self.clouds = list(pool_map([partial(_surface_cloud, c, cfg.voxel_size)
                                     for c in clouds]))
        self.trees = [KdTree(c.points) for c in self.clouds]
        self.caches = {dst: NearestCache(self.trees[dst],
                                         sum(len(self.clouds[s]) for s in srcs))
                       for dst, srcs in _sources(graph).items()}
        self.adam = Adam()

    def step(self, poses: list[Se3Param], t: float, lr_rot: float,
             lr_trans: float) -> float:
        loss, grads = graph_loss(self.clouds, poses, self.graph, self.cfg, t,
                                 trees=self.trees, caches=self.caches)
        for f, pose in enumerate(poses[1:], start=1):
            self.adam.step_pose(f"pose{f}", pose, grads[f], lr_rot, lr_trans)
        return loss


def geo_optimize(clouds: list[PointCloud], poses: list[Se3Param],
                 graph: FrameGraph, cfg: RcdConfig, steps: int,
                 lr_rot: float, lr_trans: float,
                 loss_log: list | None = None) -> list[Se3Param]:
    """Pure geometric pose optimization by Adam descent on the graph loss.

    Learning rates decay exponentially to lr_rot/100 and lr_trans/10.
    Under Adam a coordinate moves at most about lr per step, so a decay to
    lr_trans/100 over 300 steps would cap every translation coordinate at
    about 0.065 x (lr_trans / 1e-3), less than the 0.1 noise of the 8-frame
    recovery case; lr_trans/10 raises that cap to about 0.12.
    The temperature ramps linearly to t0 across the step budget.
    Frame 0 is gauge-fixed. Deterministic.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not (lr_rot > 0.0 and lr_trans > 0.0):
        raise ValueError(f"lr_rot {lr_rot} and lr_trans {lr_trans} must be > 0")
    session = GeoSession(clouds, graph, cfg)
    poses = [p.copy() for p in poses]
    for step in range(steps):
        progress = step / max(steps - 1, 1)
        t = temperature_at(progress, cfg)
        loss = session.step(poses, t,
                            exp_decay(lr_rot, lr_rot / 100.0, progress),
                            exp_decay(lr_trans, lr_trans / 10.0, progress))
        if loss_log is not None:
            loss_log.append(loss)
    return poses
