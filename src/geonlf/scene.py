"""Synthetic ground truth: parametric scenes inside the unit cube, an
analytic 32-beam style scanner and the unprojection of its range images,
and pose perturbation for building registration problems with known
answers.

A scan runs each primitive's `intersect` only on the rays whose line passes
within the primitive's bounding sphere in front of the sensor (`_reaching`).
The cull is exact: every hit lies on the surface, so inside the sphere, and
the test's margins are far above its rounding. Scans equal those of the
all-rays caster in `tests/oracles.py` bit for bit. Eight default 32x360
scans (seed 1501, one BLAS thread, a 2-CPU Xeon) take 0.10-0.11 s on the
low_overlap preset, 0.04 s on corridor and 0.05 s on intersection; every
primitive on every ray took 0.36-0.39, 0.12-0.13 and 0.11 s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cloud import PointCloud, RangeImage
from .errors import ShapeMismatch, UnknownPreset
from .geometry import Trajectory, so3_exp

_EPS = 1e-9
_BOUND_MARGIN = 1e-6     # relative growth of every bounding radius
_BOUND_ROUNDING = 1e-12  # of |center - origin|^2, in the squared line distance


@dataclass(frozen=True)
class ScannerConfig:
    """The scanner, and with it the pixel grid of every range image: one
    row per beam, one column per azimuth step. Frozen, so that the cached
    `directions` always match the fields."""

    beams: int = 32
    azimuth_steps: int = 360
    fov_up_deg: float = 10.0
    fov_down_deg: float = -30.0
    max_range: float = 1.5
    drop_prob: float = 0.02

    def __post_init__(self):
        if self.beams < 2 or self.azimuth_steps < 2:
            raise ValueError("scanner needs at least 2 beams and 2 azimuth steps")
        if self.fov_up_deg <= self.fov_down_deg:
            raise ValueError("fov_up_deg must exceed fov_down_deg")
        if self.max_range <= 0.0:
            raise ValueError("max_range must be > 0")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must be in [0, 1]")

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of the scanner's range images."""
        return self.beams, self.azimuth_steps

    @cached_property
    def directions(self) -> np.ndarray:
        """Read-only (beams * azimuth_steps, 3) unit directions at pixel
        centers in the sensor frame, row-major.

        Azimuth sweeps (-pi, pi] across columns; elevation runs from fov_up
        at the top row down to fov_down.
        """
        h, w = self.shape
        cols = (np.arange(w) + 0.5) / w
        rows = (np.arange(h) + 0.5) / h
        theta = 2.0 * np.pi * cols - np.pi
        fov_up = np.deg2rad(self.fov_up_deg)
        fov_down = np.deg2rad(self.fov_down_deg)
        phi = fov_up - rows * (fov_up - fov_down)
        cp, sp = np.cos(phi), np.sin(phi)
        ct, st = np.cos(theta), np.sin(theta)
        dirs = np.empty((h, w, 3))
        dirs[:, :, 0] = cp[:, None] * ct[None, :]
        dirs[:, :, 1] = cp[:, None] * st[None, :]
        dirs[:, :, 2] = sp[:, None]
        dirs = dirs.reshape(-1, 3)
        dirs.flags.writeable = False
        return dirs


# ---------------------------------------------------------------------------
# Primitives. Each one intersects a batch of rays, returning hit distances
# (inf on miss) and outward normals at the hits.
# ---------------------------------------------------------------------------

def _plane_basis(normal: np.ndarray):
    ref = np.array([0.0, 0.0, 1.0])
    if abs(normal @ ref) > 0.9:
        ref = np.array([1.0, 0.0, 0.0])
    u = np.cross(ref, normal)
    u /= np.linalg.norm(u)
    return u, np.cross(normal, u)


@dataclass
class Rect:
    """Finite rectangular plane patch."""

    point: np.ndarray
    normal: np.ndarray
    half_u: float
    half_v: float
    reflectance: float = 0.8

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64)
        self.normal = np.asarray(self.normal, dtype=np.float64)
        self.normal = self.normal / np.linalg.norm(self.normal)
        self.u_axis, self.v_axis = _plane_basis(self.normal)

    @property
    def bounding_sphere(self):
        return self.point, float(np.hypot(self.half_u, self.half_v))

    def intersect(self, origins, dirs):
        denom = dirs @ self.normal
        with np.errstate(divide="ignore", invalid="ignore"):
            t = ((self.point - origins) @ self.normal) / denom
        rel = origins + t[:, None] * dirs - self.point
        ok = (np.abs(denom) > _EPS) & (t > _EPS) \
            & (np.abs(rel @ self.u_axis) <= self.half_u) \
            & (np.abs(rel @ self.v_axis) <= self.half_v)
        t = np.where(ok, t, np.inf)
        return t, np.broadcast_to(self.normal, dirs.shape)


@dataclass
class Box:
    center: np.ndarray
    half_extents: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    reflectance: float = 0.8

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.half_extents = np.asarray(self.half_extents, dtype=np.float64)
        self.rotation = np.asarray(self.rotation, dtype=np.float64)

    @property
    def bounding_sphere(self):
        return self.center, float(np.linalg.norm(self.half_extents))

    def intersect(self, origins, dirs):
        """Slab test, one box axis (column) at a time. The entering face is
        the first axis holding the largest entry distance."""
        ob = (origins - self.center) @ self.rotation
        db = dirs @ self.rotation
        lo, hi = [], []
        for o, d, h in zip(ob.T, db.T, self.half_extents):
            with np.errstate(divide="ignore", invalid="ignore"):
                t1 = (-h - o) / d
                t2 = (h - o) / d
            moving = np.abs(d) > _EPS
            inside = np.abs(o) <= h
            lo.append(np.where(moving, np.minimum(t1, t2),
                               np.where(inside, -np.inf, np.inf)))
            hi.append(np.where(moving, np.maximum(t1, t2),
                               np.where(inside, np.inf, -np.inf)))
        t_enter = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
        t_exit = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
        ok = (t_enter <= t_exit) & (t_enter > _EPS)
        t = np.where(ok, t_enter, np.inf)
        on = [lo[0] == t_enter]
        on.append(~on[0] & (lo[1] == t_enter))
        on.append(~on[0] & ~on[1])
        sign = -np.sign(np.select(on, list(db.T)))
        sign = np.where(sign == 0.0, 1.0, sign)
        n_box = np.stack([np.where(a, sign, 0.0) for a in on], axis=1)
        return t, n_box @ self.rotation.T


@dataclass
class Sphere:
    center: np.ndarray
    radius: float
    reflectance: float = 0.8

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)

    @property
    def bounding_sphere(self):
        return self.center, float(self.radius)

    def intersect(self, origins, dirs):
        oc = origins - self.center
        b = np.einsum("ni,ni->n", dirs, oc)
        c = np.einsum("ni,ni->n", oc, oc) - self.radius ** 2
        disc = b * b - c
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = -b - sq
        t1 = -b + sq
        t = np.where(t0 > _EPS, t0, np.where(t1 > _EPS, t1, np.inf))
        t = np.where(disc >= 0.0, t, np.inf)
        hits = origins + t[:, None] * dirs
        with np.errstate(invalid="ignore"):
            normals = (hits - self.center) / self.radius
        return t, np.nan_to_num(normals)


@dataclass
class Cylinder:
    """Open tube around an axis segment (no end caps)."""

    base: np.ndarray
    axis: np.ndarray
    radius: float
    half_height: float
    reflectance: float = 0.8

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=np.float64)
        self.axis = np.asarray(self.axis, dtype=np.float64)
        self.axis = self.axis / np.linalg.norm(self.axis)

    @property
    def bounding_sphere(self):
        return self.base, float(np.hypot(self.radius, self.half_height))

    def intersect(self, origins, dirs):
        oc = origins - self.base
        d_par = dirs @ self.axis
        o_par = oc @ self.axis
        d_perp = dirs - d_par[:, None] * self.axis
        o_perp = oc - o_par[:, None] * self.axis
        a = np.einsum("ni,ni->n", d_perp, d_perp)
        b = np.einsum("ni,ni->n", d_perp, o_perp)
        c = np.einsum("ni,ni->n", o_perp, o_perp) - self.radius ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            disc = b * b - a * c
            sq = np.sqrt(np.maximum(disc, 0.0))
            t0 = (-b - sq) / a
            t1 = (-b + sq) / a
        axial0 = np.abs(o_par + t0 * d_par) <= self.half_height
        axial1 = np.abs(o_par + t1 * d_par) <= self.half_height
        pick0 = (t0 > _EPS) & axial0
        pick1 = (t1 > _EPS) & axial1
        t = np.where(pick0, t0, np.where(pick1, t1, np.inf))
        t = np.where((disc >= 0.0) & (a > _EPS), t, np.inf)
        with np.errstate(invalid="ignore"):
            hits = origins + t[:, None] * dirs
            rel = hits - self.base
            perp = rel - (rel @ self.axis)[:, None] * self.axis
            normals = perp / self.radius
        return t, np.nan_to_num(normals)


@dataclass
class Scene:
    primitives: list

    def cast(self, origin: np.ndarray, dirs: np.ndarray):
        """Nearest positive hit of each unit ray in `dirs` from one `origin`.

        Returns (t (n,), normals (n, 3), reflectance (n,)); t = inf on miss.
        Each primitive intersects only the rays that `_reaching` keeps for
        its bounding sphere; a tie in t goes to the earlier primitive.
        """
        n = dirs.shape[0]
        best_t = np.full(n, np.inf)
        best_n = np.zeros((n, 3))
        best_r = np.zeros(n)
        origins = np.broadcast_to(origin, dirs.shape)
        for prim in self.primitives:
            rays = _reaching(prim, origin, dirs)
            if rays.size == 0:
                continue
            t, normals = prim.intersect(origins[rays], dirs[rays])
            closer = t < best_t[rays]
            hit = rays[closer]
            best_t[hit] = t[closer]
            best_n[hit] = normals[closer]
            best_r[hit] = prim.reflectance
        return best_t, best_n, best_r


def _reaching(prim, origin, dirs) -> np.ndarray:
    """Indices of the rays whose line passes within the bounding radius r of
    `prim`'s center c, at t >= -r along the ray.

    Every hit at t > 0 lies on the primitive's surface, inside that sphere,
    so every other ray misses. The radius grows by `_BOUND_MARGIN` and the
    squared line distance |c - o|^2 - (d . (c - o))^2 may exceed r^2 by
    `_BOUND_ROUNDING` |c - o|^2, both far above the rounding of either side,
    so no hit is dropped. Only (n,) temporaries: a (primitives, n) batch
    raised a low-overlap set-up's peak memory by 7 MB.
    """
    center, radius = prim.bounding_sphere
    oc = center - origin
    oc2 = oc @ oc
    r = radius * (1.0 + _BOUND_MARGIN)
    along = dirs @ oc
    return np.flatnonzero((along * along >= oc2 - r * r - _BOUND_ROUNDING * oc2)
                          & (along >= -r))


# ---------------------------------------------------------------------------
# Scene presets.
# ---------------------------------------------------------------------------

def _corridor(rng: np.random.Generator) -> Scene:
    prims = [
        Rect([0.5, 0.5, 0.12], [0.0, 0.0, 1.0], 0.45, 0.45, 0.9),   # floor
        Rect([0.5, 0.22, 0.45], [0.0, 1.0, 0.0], 0.45, 0.35, 0.6),  # walls
        Rect([0.5, 0.78, 0.45], [0.0, -1.0, 0.0], 0.45, 0.35, 0.7),
    ]
    for i in range(5):
        cx = 0.15 + 0.7 * (i + rng.uniform(0.1, 0.9)) / 6.0
        cy = rng.choice([0.3, 0.68]) + rng.uniform(-0.03, 0.03)
        size = rng.uniform(0.03, 0.07, size=3)
        yaw = rng.uniform(-0.5, 0.5)
        prims.append(Box([cx, cy, 0.12 + size[2]], size,
                         so3_exp([0.0, 0.0, yaw]),
                         reflectance=rng.uniform(0.4, 1.0)))
    prims.append(Sphere([rng.uniform(0.3, 0.7), 0.38, 0.2],
                        rng.uniform(0.04, 0.06), reflectance=0.95))
    prims.append(Cylinder([rng.uniform(0.3, 0.7), 0.62, 0.3],
                          [0.0, 0.0, 1.0], 0.035, 0.18,
                          reflectance=rng.uniform(0.5, 0.9)))
    return Scene(prims)


def _intersection(rng: np.random.Generator) -> Scene:
    prims = [
        Rect([0.5, 0.5, 0.12], [0.0, 0.0, 1.0], 0.46, 0.46, 0.9),
        Rect([0.22, 0.22, 0.4], [1.0, 1.0, 0.0], 0.2, 0.3, 0.6),
        Rect([0.78, 0.22, 0.4], [-1.0, 1.0, 0.0], 0.2, 0.3, 0.65),
        Rect([0.22, 0.78, 0.4], [1.0, -1.0, 0.0], 0.2, 0.3, 0.7),
        Rect([0.78, 0.78, 0.4], [-1.0, -1.0, 0.0], 0.2, 0.3, 0.75),
    ]
    for corner in ([0.3, 0.3], [0.7, 0.3], [0.3, 0.7], [0.7, 0.7]):
        size = rng.uniform(0.03, 0.06, size=3)
        prims.append(Box([corner[0] + rng.uniform(-0.04, 0.04),
                          corner[1] + rng.uniform(-0.04, 0.04),
                          0.12 + size[2]], size,
                         so3_exp([0.0, 0.0, rng.uniform(0, 1.5)]),
                         reflectance=rng.uniform(0.4, 1.0)))
    prims.append(Cylinder([0.5 + rng.uniform(-0.05, 0.05),
                           0.5 + rng.uniform(-0.05, 0.05), 0.3],
                          [0.0, 0.0, 1.0], 0.04, 0.18, reflectance=0.85))
    return Scene(prims)


LOW_OVERLAP_ROOMS = 8


def _low_overlap(rng: np.random.Generator) -> Scene:
    """One small room per scan pose, separated by double-sided partitions.

    Partitions block the direct view between neighboring rooms except for an
    open strip along the +y side, so consecutive scans share only the far
    wall and a floor band there. Opposite partition faces are distinct
    surfaces (two rects 0.04 apart), so the walls themselves never count as
    shared geometry.
    """
    prims = [
        Rect([0.5, 0.5, 0.14], [0.0, 0.0, 1.0], 0.46, 0.46, 0.9),   # floor
        Rect([0.5, 0.06, 0.4], [0.0, 1.0, 0.0], 0.46, 0.26, 0.6),   # near wall
        Rect([0.5, 0.94, 0.4], [0.0, -1.0, 0.0], 0.46, 0.26, 0.7),  # far wall
    ]
    pitch = 0.64 / (LOW_OVERLAP_ROOMS - 1)
    for k in range(LOW_OVERLAP_ROOMS - 1):
        wx = 0.18 + (k + 0.5) * pitch + rng.uniform(-0.004, 0.004)
        for side, nx in ((-0.02, -1.0), (0.02, 1.0)):
            prims.append(Rect([wx + side, 0.25, 0.38], [nx, 0.0, 0.0],
                              0.20, 0.24, rng.uniform(0.5, 0.9)))
    for room in range(LOW_OVERLAP_ROOMS):
        cx = 0.18 + room * pitch
        for _ in range(2):
            size = rng.uniform(0.02, 0.045, size=3)
            prims.append(Box([cx + rng.uniform(-0.03, 0.03),
                              rng.uniform(0.15, 0.42),
                              0.14 + size[2]], size,
                             so3_exp([0.0, 0.0, rng.uniform(0, 3.0)]),
                             reflectance=rng.uniform(0.4, 1.0)))
        if room % 2 == 0:
            prims.append(Sphere([cx + rng.uniform(-0.03, 0.03),
                                 rng.uniform(0.18, 0.4), 0.2],
                                rng.uniform(0.025, 0.04), reflectance=0.95))
    return Scene(prims)


PRESETS = {"corridor": _corridor, "intersection": _intersection,
           "low_overlap": _low_overlap}


def make_scene(preset: str, seed: int = 0) -> Scene:
    """Deterministic scene for (preset, seed)."""
    if preset not in PRESETS:
        raise UnknownPreset(f"unknown preset {preset!r}; "
                            f"choose from {sorted(PRESETS)}")
    return PRESETS[preset](np.random.default_rng(seed))


def make_trajectory(preset: str, frames: int, seed: int = 0) -> Trajectory:
    """Ground-truth scan poses matched to the scene preset.

    Corridor and low_overlap sweep along x with yaw drift (the drift bends
    the path, keeping positions non-collinear); intersection follows an arc.
    """
    if preset not in PRESETS:
        raise UnknownPreset(f"unknown preset {preset!r}")
    rng = np.random.default_rng(seed + 1)
    poses = np.empty((frames, 4, 4))
    s = np.linspace(0.0, 1.0, frames)
    if preset == "intersection":
        ang = -0.25 * np.pi + 0.5 * np.pi * s
        x = 0.5 + 0.22 * np.sin(ang)
        y = 0.5 - 0.22 * np.cos(ang) + 0.18
        yaw = ang + rng.uniform(-0.05, 0.05, size=frames)
        z = np.full(frames, 0.32)
    elif preset == "low_overlap":
        # one pose per room, aligned with the partition pitch
        x = 0.18 + 0.64 * s
        y = 0.4 + 0.015 * np.sin(2.4 * np.pi * s)
        yaw = rng.uniform(0.05, 0.15) * s + 0.04 * np.sin(2.0 * np.pi * s)
        z = np.full(frames, 0.34)
    else:
        drift = rng.uniform(0.1, 0.25)
        x = 0.18 + 0.64 * s
        yaw = drift * s + 0.06 * np.sin(3.0 * np.pi * s)
        y = 0.46 + np.concatenate([[0.0], np.cumsum(np.tan(yaw[:-1]) * np.diff(x))])
        y = np.clip(y, 0.3, 0.7)
        z = np.full(frames, 0.34)
    for i in range(frames):
        pose = np.eye(4)
        pose[:3, :3] = so3_exp([0.0, 0.0, yaw[i]])
        pose[:3, 3] = [x[i], y[i], z[i]]
        poses[i] = pose
    return Trajectory(list(range(frames)), poses)


# ---------------------------------------------------------------------------
# Scanner.
# ---------------------------------------------------------------------------

def lidar_scan(scene: Scene, pose: np.ndarray, cfg: ScannerConfig,
               seed: int = 0) -> tuple[RangeImage, PointCloud]:
    """Analytic scan from a world pose.

    Depth is the metric hit distance; intensity is reflectance times the
    cosine of incidence; the drop mask combines misses with Bernoulli drops.
    The returned point cloud is `unproject` of the range image: the valid
    pixels in the sensor frame.
    """
    pose = np.asarray(pose, dtype=np.float64)
    h, w = cfg.shape
    dirs = cfg.directions @ pose[:3, :3].T
    t, normals, refl = scene.cast(pose[:3, 3], dirs)
    hit = np.isfinite(t) & (t <= cfg.max_range)
    rng = np.random.default_rng(seed)
    bern = rng.random(h * w) < cfg.drop_prob
    valid = hit & ~bern

    incidence = np.abs(np.einsum("ni,ni->n", dirs, normals))
    depth = np.where(valid, t, -1.0)
    intensity = np.where(valid, refl * incidence, 0.0)

    rimg = RangeImage(depth.reshape(h, w), intensity.reshape(h, w),
                      valid.reshape(h, w))
    return rimg, unproject(rimg, cfg)


def unproject(rimg: RangeImage, cfg: ScannerConfig) -> PointCloud:
    """Sensor-frame points for every valid pixel, row-major order. The
    image must have the scanner's shape."""
    if rimg.shape != cfg.shape:
        raise ShapeMismatch(f"range image of shape {rimg.shape} does not "
                            f"match the scanner's {cfg.shape}")
    mask = rimg.valid.reshape(-1)
    pts = cfg.directions[mask] * rimg.depth.reshape(-1)[mask][:, None]
    intensity = rimg.intensity.reshape(-1)[mask]
    return PointCloud(pts, intensity)


def perturb_poses(gt: Trajectory, sigma_rot_deg: float, sigma_trans: float,
                  seed: int = 0) -> Trajectory:
    """Additive pose noise; frame 0 is kept exact as the gauge anchor.

    Rotation noise composes a random-axis rotation whose signed magnitude
    is N(0, sigma_rot); translation noise is isotropic N(0, sigma_trans)
    per axis.
    """
    rng = np.random.default_rng(seed)
    poses = gt.poses.copy()
    sig_rad = np.deg2rad(sigma_rot_deg)
    for i in range(1, len(gt)):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.normal(0.0, sig_rad) if sig_rad > 0.0 else 0.0
        shift = rng.normal(0.0, sigma_trans, size=3) if sigma_trans > 0.0 \
            else np.zeros(3)
        poses[i, :3, :3] = so3_exp(axis * angle) @ poses[i, :3, :3]
        poses[i, :3, 3] += shift
    return Trajectory(list(gt.frame_ids), poses)
