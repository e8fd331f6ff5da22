"""On-disk formats: trajectory text files, `.rimg` range images, PLY point
clouds, loss-log CSV, and the SVG trajectory plot."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .cloud import PointCloud, RangeImage
from .errors import ShapeMismatch
from .geometry import Trajectory

RIMG_MAGIC = b"RIMG"
RIMG_VERSION = 1
_FLAG_DEPTH, _FLAG_INTENSITY, _FLAG_MASK = 1, 2, 4


# ---------------------------------------------------------------------------
# Trajectory text: one line per frame, `frame_id tx ty tz qx qy qz qw`,
# '#' starts a comment, 17 significant digits on write.
# ---------------------------------------------------------------------------

def rotation_to_quaternion(rot: np.ndarray) -> np.ndarray:
    """Unit quaternion (x, y, z, w) for a rotation matrix (Shepperd)."""
    rot = np.asarray(rot, dtype=np.float64)
    tr = np.trace(rot)
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        w = 0.25 * s
        x = (rot[2, 1] - rot[1, 2]) / s
        y = (rot[0, 2] - rot[2, 0]) / s
        z = (rot[1, 0] - rot[0, 1]) / s
    else:
        i = int(np.argmax(np.diag(rot)))
        if i == 0:
            s = np.sqrt(1.0 + rot[0, 0] - rot[1, 1] - rot[2, 2]) * 2.0
            x, w = 0.25 * s, (rot[2, 1] - rot[1, 2]) / s
            y = (rot[0, 1] + rot[1, 0]) / s
            z = (rot[0, 2] + rot[2, 0]) / s
        elif i == 1:
            s = np.sqrt(1.0 - rot[0, 0] + rot[1, 1] - rot[2, 2]) * 2.0
            y, w = 0.25 * s, (rot[0, 2] - rot[2, 0]) / s
            x = (rot[0, 1] + rot[1, 0]) / s
            z = (rot[1, 2] + rot[2, 1]) / s
        else:
            s = np.sqrt(1.0 - rot[0, 0] - rot[1, 1] + rot[2, 2]) * 2.0
            z, w = 0.25 * s, (rot[1, 0] - rot[0, 1]) / s
            x = (rot[0, 2] + rot[2, 0]) / s
            y = (rot[1, 2] + rot[2, 1]) / s
    q = np.array([x, y, z, w])
    return q / np.linalg.norm(q)


def quaternion_to_rotation(q: np.ndarray) -> np.ndarray:
    x, y, z, w = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def write_trajectory(path, traj: Trajectory) -> None:
    lines = ["# frame_id tx ty tz qx qy qz qw"]
    for fid, pose in zip(traj.frame_ids, traj.poses):
        q = rotation_to_quaternion(pose[:3, :3])
        t = pose[:3, 3]
        nums = " ".join(f"{v:.17g}" for v in (*t, *q))
        lines.append(f"{fid} {nums}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectory(path) -> Trajectory:
    frame_ids, poses = [], []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ShapeMismatch(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        fid = int(parts[0])
        tx, ty, tz, qx, qy, qz, qw = (float(p) for p in parts[1:])
        pose = np.eye(4)
        pose[:3, :3] = quaternion_to_rotation([qx, qy, qz, qw])
        pose[:3, 3] = [tx, ty, tz]
        frame_ids.append(fid)
        poses.append(pose)
    return Trajectory(frame_ids, np.array(poses))


# ---------------------------------------------------------------------------
# Range images: magic RIMG, version, H, W, flags, then row-major
# little-endian float32 planes (depth with -1 for invalid, intensity,
# drop mask as 0/1).
# ---------------------------------------------------------------------------

def write_rimg(path, rimg: RangeImage) -> None:
    h, w = rimg.shape
    flags = _FLAG_DEPTH | _FLAG_INTENSITY | _FLAG_MASK
    depth = np.where(rimg.valid, rimg.depth, -1.0)
    with open(path, "wb") as fh:
        fh.write(RIMG_MAGIC)
        fh.write(struct.pack("<IIII", RIMG_VERSION, h, w, flags))
        fh.write(np.ascontiguousarray(depth, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(rimg.intensity, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(rimg.valid.astype("<f4")).tobytes())


def read_rimg(path) -> RangeImage:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != RIMG_MAGIC:
            raise ShapeMismatch(f"{path}: bad magic {magic!r}")
        version, h, w, flags = struct.unpack("<IIII", fh.read(16))
        if version != RIMG_VERSION:
            raise ShapeMismatch(f"{path}: unsupported version {version}")
        planes = []
        for flag in (_FLAG_DEPTH, _FLAG_INTENSITY, _FLAG_MASK):
            if flags & flag:
                raw = fh.read(h * w * 4)
                planes.append(np.frombuffer(raw, dtype="<f4").reshape(h, w))
            else:
                planes.append(np.zeros((h, w), dtype=np.float32))
    depth = planes[0].astype(np.float64)
    intensity = planes[1].astype(np.float64)
    valid = planes[2] > 0.5
    return RangeImage(depth, intensity, valid)


# ---------------------------------------------------------------------------
# PLY: ascii by default (9 significant digits), binary little endian with
# double precision for exact round trips.
# ---------------------------------------------------------------------------

def write_ply(path, cloud: PointCloud, binary: bool = False) -> None:
    has_i = cloud.intensity is not None
    has_n = cloud.normals is not None
    fmt = "binary_little_endian" if binary else "ascii"
    scalar = "double" if binary else "float"
    props = [f"property {scalar} x", f"property {scalar} y", f"property {scalar} z"]
    if has_i:
        props.append(f"property {scalar} intensity")
    if has_n:
        props += [f"property {scalar} nx", f"property {scalar} ny",
                  f"property {scalar} nz"]
    header = "\n".join([
        "ply", f"format {fmt} 1.0",
        f"element vertex {len(cloud)}", *props, "end_header"]) + "\n"

    cols = [cloud.points]
    if has_i:
        cols.append(cloud.intensity[:, None])
    if has_n:
        cols.append(cloud.normals)
    data = np.concatenate(cols, axis=1)
    if binary:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())
    else:
        body = "\n".join(" ".join(f"{v:.9g}" for v in row) for row in data)
        Path(path).write_text(header + body + ("\n" if len(cloud) else ""))


def read_ply(path) -> PointCloud:
    with open(path, "rb") as fh:
        header_lines = []
        while True:
            line = fh.readline().decode("ascii").strip()
            header_lines.append(line)
            if line == "end_header":
                break
        fmt = next(l.split()[1] for l in header_lines if l.startswith("format"))
        count = int(next(l.split()[2] for l in header_lines
                         if l.startswith("element vertex")))
        names = [l.split()[2] for l in header_lines if l.startswith("property")]
        if fmt == "binary_little_endian":
            data = np.frombuffer(fh.read(count * len(names) * 8),
                                 dtype="<f8").reshape(count, len(names))
        elif count == 0:
            data = np.zeros((0, len(names)))
        else:
            data = np.loadtxt(fh, dtype=np.float64, max_rows=count,
                              ndmin=2).reshape(count, len(names))
    cols = {name: data[:, i] for i, name in enumerate(names)}
    pts = np.stack([cols["x"], cols["y"], cols["z"]], axis=1)
    intensity = cols.get("intensity")
    normals = None
    if "nx" in cols:
        normals = np.stack([cols["nx"], cols["ny"], cols["nz"]], axis=1)
    return PointCloud(pts, intensity, normals)


# ---------------------------------------------------------------------------
# Loss log CSV and SVG trajectory plot.
# ---------------------------------------------------------------------------

LOSS_COLUMNS = ("iter", "phase", "total", "depth", "intensity", "raydrop",
                "cd", "normal", "alpha", "t_temp")


def loss_row(iteration: int, phase: str, total: float, frame: int = -1,
             depth: float = 0.0, intensity: float = 0.0, raydrop: float = 0.0,
             cd: float = 0.0, normal: float = 0.0, alpha: float = 0.0,
             t_temp: float = 0.0) -> dict:
    """One `losses.csv` row. The frame id (-1 for geometric steps) is kept
    for callers; the file omits it."""
    return {"iter": iteration, "phase": phase, "frame": frame, "total": total,
            "depth": depth, "intensity": intensity, "raydrop": raydrop,
            "cd": cd, "normal": normal, "alpha": alpha, "t_temp": t_temp}


def write_loss_log(path, rows: list[dict]) -> None:
    lines = [",".join(LOSS_COLUMNS)]
    for row in rows:
        vals = []
        for col in LOSS_COLUMNS:
            v = row.get(col, "")
            vals.append(f"{v:.9g}" if isinstance(v, float) else str(v))
        lines.append(",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n")


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#7f7f7f")


def plot_trajectories_svg(path, trajectories: list[Trajectory],
                          labels: list[str], size: int = 640) -> None:
    """Top-down x-y plot, one polyline per trajectory, 5% margin."""
    all_xy = np.concatenate([t.positions()[:, :2] for t in trajectories])
    lo = all_xy.min(axis=0)
    hi = all_xy.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    margin = 0.05 * span
    lo, hi = lo - margin, hi + margin
    span = hi - lo

    def sx(x):
        return (x - lo[0]) / span[0] * size

    def sy(y):
        # flip y so +y points up in the image
        return size - (y - lo[1]) / span[1] * size

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {size} {size}" width="{size}" height="{size}">']
    for i, (traj, label) in enumerate(zip(trajectories, labels)):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}"
                       for p in traj.positions())
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="10" y="{20 + 18 * i}" fill="{color}" '
                     f'font-size="14">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
