"""Rigid-body geometry: so(3)/se(3) exponential maps, learnable pose
parameters, trajectories, and closed-form trajectory alignment.

All matrices are float64. Rotations are stored as axis-angle 3-vectors
(radians); the matrix is recovered through the exponential map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cloud import PointCloud
from .errors import DegenerateConfiguration, FrameMismatch

# Below this rotation magnitude the closed-form sinc-like coefficients are
# replaced by 2nd-order Taylor expansions to avoid catastrophic cancellation.
SMALL_ANGLE = 1e-8


def skew(v: np.ndarray) -> np.ndarray:
    """Antisymmetric matrix [v]x with [v]x @ u == cross(v, u)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(phi: np.ndarray) -> np.ndarray:
    """Rotation matrix exp([phi]x) via the Rodrigues formula.

    Total on finite input; small angles use the Taylor branch.
    """
    phi = np.asarray(phi, dtype=np.float64)
    theta = float(np.linalg.norm(phi))
    k = skew(phi)
    if theta < SMALL_ANGLE:
        a = 1.0 - theta * theta / 6.0          # sin(t)/t
        b = 0.5 - theta * theta / 24.0         # (1-cos(t))/t^2
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * k + b * (k @ k)


def so3_left_jacobian(phi: np.ndarray) -> np.ndarray:
    """Left Jacobian J = sum_n [phi]x^n / (n+1)! in closed form."""
    phi = np.asarray(phi, dtype=np.float64)
    theta = float(np.linalg.norm(phi))
    k = skew(phi)
    if theta < SMALL_ANGLE:
        b = 0.5 - theta * theta / 24.0         # (1-cos(t))/t^2
        c = 1.0 / 6.0 - theta * theta / 120.0  # (t-sin(t))/t^3
    else:
        b = (1.0 - np.cos(theta)) / (theta * theta)
        c = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) + b * k + c * (k @ k)


def so3_log(rot: np.ndarray) -> np.ndarray:
    """Axis-angle vector phi with so3_exp(phi) == rot, |phi| <= pi."""
    rot = np.asarray(rot, dtype=np.float64)
    cos_theta = np.clip((np.trace(rot) - 1.0) * 0.5, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta < SMALL_ANGLE:
        # R is almost I; vee of the skew part is first order accurate.
        return np.array([rot[2, 1] - rot[1, 2],
                         rot[0, 2] - rot[2, 0],
                         rot[1, 0] - rot[0, 1]]) * 0.5
    if theta > np.pi - 1e-6:
        # Near the antipode sin(theta) vanishes; recover the axis from the
        # dominant column of R + I.
        m = rot + np.eye(3)
        col = int(np.argmax(np.diag(m)))
        axis = m[:, col] / np.linalg.norm(m[:, col])
        # Fix the sign using the skew part when it is nonzero.
        vee = np.array([rot[2, 1] - rot[1, 2],
                        rot[0, 2] - rot[2, 0],
                        rot[1, 0] - rot[0, 1]])
        if np.dot(vee, axis) < 0.0:
            axis = -axis
        return axis * theta
    vee = np.array([rot[2, 1] - rot[1, 2],
                    rot[0, 2] - rot[2, 0],
                    rot[1, 0] - rot[0, 1]])
    return vee * (theta / (2.0 * np.sin(theta)))


def canonicalize_phi(phi: np.ndarray) -> np.ndarray:
    """Wrap an axis-angle vector to |phi| < pi (same rotation).

    Uses phi <- phi * (1 - 2*pi/|phi|) while |phi| >= pi. A rotation by
    exactly pi has no representation with norm strictly below pi; the loop
    stops when wrapping makes no progress.
    """
    phi = np.asarray(phi, dtype=np.float64).copy()
    norm = float(np.linalg.norm(phi))
    while norm >= np.pi:
        wrapped = phi * (1.0 - 2.0 * np.pi / norm)
        new_norm = float(np.linalg.norm(wrapped))
        if new_norm >= norm:
            break
        phi, norm = wrapped, new_norm
    return phi


@dataclass
class Se3Param:
    """Learnable pose: rho (translation, scene units) and phi (axis-angle).

    The update rule during optimization adds increments directly to the
    stored 6-vector; the transform matrix is rebuilt via `se3_decoupled`.
    """

    rho: np.ndarray = field(default_factory=lambda: np.zeros(3))
    phi: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64).reshape(3).copy()
        self.phi = canonicalize_phi(np.asarray(self.phi, dtype=np.float64).reshape(3))

    def copy(self) -> "Se3Param":
        return Se3Param(self.rho.copy(), self.phi.copy())

    def matrix(self) -> np.ndarray:
        """World transform under the decoupled convention."""
        return se3_decoupled(self)

    @staticmethod
    def from_matrix(t: np.ndarray) -> "Se3Param":
        """Inverse of se3_decoupled: rho is the raw translation column."""
        t = np.asarray(t, dtype=np.float64)
        return Se3Param(t[:3, 3], so3_log(t[:3, :3]))


def se3_decoupled(xi: Se3Param) -> np.ndarray:
    """Exponential map with the left Jacobian dropped from the translation.

    Rotation about the origin and translation of the origin then update
    independently; agrees with the full exponential exactly when phi == 0.
    """
    t = np.eye(4)
    t[:3, :3] = so3_exp(xi.phi)
    t[:3, 3] = xi.rho
    return t


def transform_points(t: np.ndarray, cloud: PointCloud) -> PointCloud:
    """Apply a rigid transform; normals rotate, intensities carry over."""
    t = np.asarray(t, dtype=np.float64)
    rot, trans = t[:3, :3], t[:3, 3]
    pts = cloud.points @ rot.T + trans
    normals = None if cloud.normals is None else cloud.normals @ rot.T
    return PointCloud(pts, cloud.intensity, normals)


def invert_rigid(t: np.ndarray) -> np.ndarray:
    """Inverse of a rigid 4x4 transform without a general solve."""
    t = np.asarray(t, dtype=np.float64)
    out = np.eye(4)
    rt = t[:3, :3].T
    out[:3, :3] = rt
    out[:3, 3] = -rt @ t[:3, 3]
    return out


def rotation_angle(rot: np.ndarray) -> float:
    """Rotation magnitude in radians from the trace."""
    c = np.clip((np.trace(np.asarray(rot)[:3, :3]) - 1.0) * 0.5, -1.0, 1.0)
    return float(np.arccos(c))


@dataclass
class Trajectory:
    """Ordered list of (frame_id, 4x4 world pose)."""

    frame_ids: list[int]
    poses: np.ndarray

    def __post_init__(self):
        self.frame_ids = [int(i) for i in self.frame_ids]
        self.poses = np.asarray(self.poses, dtype=np.float64).reshape(-1, 4, 4)
        if len(self.frame_ids) != self.poses.shape[0]:
            raise FrameMismatch("frame_ids and poses lengths differ")
        if any(b <= a for a, b in zip(self.frame_ids, self.frame_ids[1:])):
            raise FrameMismatch("frame_ids must be strictly increasing")
        for idx, pose in enumerate(self.poses):
            rot = pose[:3, :3]
            if (np.abs(rot.T @ rot - np.eye(3)).max() > 1e-6
                    or abs(np.linalg.det(rot) - 1.0) > 1e-6
                    or np.abs(pose[3] - np.array([0, 0, 0, 1])).max() > 1e-9):
                raise ValueError(f"pose {self.frame_ids[idx]} is not rigid")

    def __len__(self) -> int:
        return len(self.frame_ids)

    def positions(self) -> np.ndarray:
        return self.poses[:, :3, 3].copy()

    def copy(self) -> "Trajectory":
        return Trajectory(list(self.frame_ids), self.poses.copy())


def align_trajectory(estimate: Trajectory, reference: Trajectory,
                     with_scale: bool = False):
    """Closed-form least-squares alignment of the translation components.

    Umeyama construction: finds (s, R, t) minimizing
    sum_i || s * R @ p_est_i + t - p_ref_i ||^2, with s fixed to 1 unless
    `with_scale`. The transform is applied to every pose of `estimate`.

    Returns (aligned: Trajectory, transform: 4x4, scale: float).
    Raises DegenerateConfiguration for coincident or collinear positions.
    """
    if estimate.frame_ids != reference.frame_ids:
        raise FrameMismatch("trajectories cover different frame ids")
    x = estimate.positions()
    y = reference.positions()
    n = x.shape[0]
    mx, my = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - mx, y - my

    sv = np.linalg.svd(xc, compute_uv=False)
    if n < 3 or sv[0] < 1e-12 or sv[1] < max(1e-9 * sv[0], 1e-15):
        raise DegenerateConfiguration(
            "positions are coincident or collinear; alignment is not unique")

    cov = yc.T @ xc / n
    u, d, vt = np.linalg.svd(cov)
    s_fix = np.eye(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        s_fix[2, 2] = -1.0
    rot = u @ s_fix @ vt
    if with_scale:
        var_x = (xc ** 2).sum() / n
        scale = float(np.trace(np.diag(d) @ s_fix) / var_x)
    else:
        scale = 1.0
    trans = my - scale * rot @ mx

    aligned = np.empty_like(estimate.poses)
    for i, pose in enumerate(estimate.poses):
        aligned[i] = np.eye(4)
        aligned[i][:3, :3] = rot @ pose[:3, :3]
        aligned[i][:3, 3] = scale * rot @ pose[:3, 3] + trans
    transform = np.eye(4)
    transform[:3, :3] = rot
    transform[:3, 3] = trans
    return Trajectory(list(estimate.frame_ids), aligned), transform, scale
