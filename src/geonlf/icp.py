"""Point-to-point ICP baseline with closed-form SVD updates.

Registers a source cloud into a target cloud's frame by alternating exact
nearest-neighbor correspondences with the Kabsch solve. Kept as the
classical reference method; it is expected to fail on low-overlap pairs.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateCorrespondences, EmptyCloud
from .spatial import KdTree, pool_map


def icp_pairwise(source: PointCloud, target: PointCloud,
                 max_iters: int = 50, tol: float = 1e-8,
                 init: np.ndarray | None = None) -> np.ndarray:
    """Returns the 4x4 transform mapping `source` into `target`'s frame.

    Iterates until the incremental update's deviation from identity drops
    below `tol` (Frobenius norm) or `max_iters` is reached.
    """
    if len(source) < 3 or len(target) < 3:
        raise EmptyCloud("icp_pairwise needs at least 3 points per cloud")
    tree = KdTree(target.points)
    transform = np.eye(4) if init is None else np.asarray(init, dtype=np.float64).copy()

    for _ in range(max_iters):
        moved = source.points @ transform[:3, :3].T + transform[:3, 3]
        idx, _ = tree.query_many(moved)
        matched = target.points[idx]

        mp = moved.mean(axis=0)
        mq = matched.mean(axis=0)
        h = (moved - mp).T @ (matched - mq)
        u, s, vt = np.linalg.svd(h)
        if s[0] < 1e-15 or s[1] < 1e-12 * s[0]:
            raise DegenerateCorrespondences(
                "cross-covariance is rank-deficient; rotation unobservable")
        d = np.eye(3)
        if np.linalg.det(vt.T @ u.T) < 0.0:
            d[2, 2] = -1.0
        rot = vt.T @ d @ u.T
        trans = mq - rot @ mp

        delta = np.eye(4)
        delta[:3, :3] = rot
        delta[:3, 3] = trans
        transform = delta @ transform
        if np.linalg.norm(delta - np.eye(4)) < tol:
            break
    return transform


def icp_odometry(clouds: list[PointCloud], init_relatives: list[np.ndarray],
                 max_iters: int = 50, tol: float = 1e-8) -> list[np.ndarray]:
    """Chain pairwise ICP over consecutive frames, odometry style.

    Frame i is registered against frame i-1; world poses accumulate from
    identity at frame 0. `init_relatives[i]` seeds the pairwise solve for
    the (i, i-1) pair. The pairs are independent and run as `pool_map`
    tasks; their transforms are chained in frame order, so the poses do not
    depend on the CPU count.
    """
    pairs = [partial(icp_pairwise, clouds[i], clouds[i - 1],
                     max_iters=max_iters, tol=tol, init=init_relatives[i])
             for i in range(1, len(clouds))]
    poses = [np.eye(4)]
    for rel in pool_map(pairs):
        poses.append(poses[-1] @ rel)
    return poses
