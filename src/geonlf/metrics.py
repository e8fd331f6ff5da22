"""Evaluation metrics: trajectory errors (ATE / RPE), point-cloud Chamfer
distance and F-score, and range-image error statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, RangeImage
from .errors import EmptyCloud, FrameMismatch, ShapeMismatch
from .geometry import Trajectory, align_trajectory, invert_rigid, rotation_angle
from .spatial import KdTree

PSNR_CAP = 99.0


@dataclass
class PoseMetrics:
    ate_m: float
    rpe_t_cm: float
    rpe_r_deg: float


def pose_metrics(est: Trajectory, ref: Trajectory) -> PoseMetrics:
    """ATE and consecutive-pair RPE after rigid alignment (scale fixed to 1).

    ATE is the RMSE of aligned position residuals. RPE compares consecutive
    relative transforms: delta = (Q_i^-1 Q_{i+1})^-1 (P_i^-1 P_{i+1});
    translation error is reported in centimeters, rotation in degrees.
    """
    if est.frame_ids != ref.frame_ids:
        raise FrameMismatch("trajectories cover different frame ids")
    if len(est) < 2:
        raise FrameMismatch("need at least 2 frames")
    aligned, _ = align_trajectory(est, ref)

    residuals = aligned.positions() - ref.positions()
    ate = float(np.sqrt((residuals ** 2).sum(axis=1).mean()))

    t_errs, r_errs = [], []
    for i in range(len(est) - 1):
        rel_ref = invert_rigid(ref.poses[i]) @ ref.poses[i + 1]
        rel_est = invert_rigid(est.poses[i]) @ est.poses[i + 1]
        delta = invert_rigid(rel_ref) @ rel_est
        t_errs.append(np.linalg.norm(delta[:3, 3]))
        r_errs.append(rotation_angle(delta))
    rpe_t = float(np.sqrt(np.mean(np.square(t_errs))))
    rpe_r = float(np.sqrt(np.mean(np.square(r_errs))))
    return PoseMetrics(ate, rpe_t * 100.0, np.rad2deg(rpe_r))


def chamfer_fscore(pred: PointCloud, gt: PointCloud,
                   threshold: float = 0.05) -> tuple[float, float]:
    """Symmetric squared-distance Chamfer and F-score at `threshold`.

    CD is the sum of the two directional means of squared nearest-neighbor
    distances (length^2 units). Precision/recall count points whose nearest
    neighbor lies within `threshold`; the F-score is their harmonic mean.
    """
    if len(pred) == 0 or len(gt) == 0:
        raise EmptyCloud("chamfer_fscore requires non-empty clouds")
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")
    _, d_pg = KdTree(gt.points).query_many(pred.points)
    _, d_gp = KdTree(pred.points).query_many(gt.points)
    cd = float((d_pg ** 2).mean() + (d_gp ** 2).mean())
    precision = float((d_pg <= threshold).mean())
    recall = float((d_gp <= threshold).mean())
    if precision + recall == 0.0:
        return cd, 0.0
    return cd, 2.0 * precision * recall / (precision + recall)


def image_metrics(pred: RangeImage, gt: RangeImage,
                  channel: str = "depth") -> tuple[float, float, float]:
    """RMSE, median absolute error, and PSNR on pixels valid in `gt`.

    PSNR uses the per-image max of the valid ground-truth channel and is
    capped at 99 dB when the MSE is zero.
    """
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"image shapes differ: {pred.shape} vs {gt.shape}")
    mask = gt.valid
    if channel == "depth":
        a, b = pred.depth[mask], gt.depth[mask]
    elif channel == "intensity":
        a, b = pred.intensity[mask], gt.intensity[mask]
    else:
        raise ValueError(f"unknown channel {channel!r}")
    err = a - b
    mse = float((err ** 2).mean())
    rmse = float(np.sqrt(mse))
    medae = float(np.median(np.abs(err)))
    peak = float(np.abs(b).max()) if b.size else 0.0
    if mse == 0.0 or peak == 0.0:
        psnr = PSNR_CAP
    else:
        psnr = min(10.0 * np.log10(peak * peak / mse), PSNR_CAP)
    return rmse, medae, psnr


def drop_accuracy(pred: RangeImage, gt: RangeImage) -> float:
    """Fraction of pixels whose predicted drop mask matches the truth."""
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"image shapes differ: {pred.shape} vs {gt.shape}")
    return float((pred.valid == gt.valid).mean())


METRIC_COLUMNS = ("seq", "ate", "rpe_t", "rpe_r", "cd", "fscore",
                  "rmse_d", "medae_d", "psnr_d", "rmse_i", "medae_i", "psnr_i")


def metrics_rows_to_csv(rows: list[dict]) -> str:
    """Fixed-column CSV with one row per sequence plus a mean row."""
    lines = [",".join(METRIC_COLUMNS)]
    numeric = {c: [] for c in METRIC_COLUMNS[1:]}
    for row in rows:
        vals = [str(row.get("seq", ""))]
        for col in METRIC_COLUMNS[1:]:
            v = row.get(col)
            if v is None or (isinstance(v, float) and np.isnan(v)):
                vals.append("nan")
            else:
                numeric[col].append(float(v))
                vals.append(f"{float(v):.9g}")
        lines.append(",".join(vals))
    mean_vals = ["mean"]
    for col in METRIC_COLUMNS[1:]:
        mean_vals.append(f"{np.mean(numeric[col]):.9g}" if numeric[col] else "nan")
    lines.append(",".join(mean_vals))
    return "\n".join(lines) + "\n"
