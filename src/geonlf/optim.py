"""Minimal Adam optimizer over named numpy parameter blocks."""

from __future__ import annotations

import numpy as np


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with per-block state; moments are float64 and zero-initialized.

    Each block is updated in place. The learning rate is given per step,
    which is how the exponential decay schedules are driven.
    """

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count: dict[str, int] = {}

    def step(self, name: str, param: np.ndarray, grad: np.ndarray,
             lr: float) -> None:
        if name not in self.m:
            self.m[name] = np.zeros(param.shape, dtype=np.float64)
            self.v[name] = np.zeros(param.shape, dtype=np.float64)
            self.step_count[name] = 0
        grad = np.asarray(grad, dtype=np.float64)
        self.step_count[name] += 1
        t = self.step_count[name]
        m = self.m[name]
        v = self.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        param -= (lr * m_hat / (np.sqrt(v_hat) + EPS)).astype(param.dtype)

    def step_pose(self, key: str, pose, grad: np.ndarray, lr_rot: float,
                  lr_trans: float) -> None:
        """Step an `Se3Param` in place along the 6-vector `grad`:
        `pose.rho` (block `key.rho`) with grad[:3] at lr_trans, then
        `pose.phi` (block `key.phi`) with grad[3:] at lr_rot."""
        self.step(f"{key}.rho", pose.rho, grad[:3], lr=lr_trans)
        self.step(f"{key}.phi", pose.phi, grad[3:], lr=lr_rot)


def exp_decay(start: float, end: float, progress: float) -> float:
    """Exponential interpolation start -> end over progress in [0, 1]."""
    progress = min(max(progress, 0.0), 1.0)
    return float(start * (end / start) ** progress)
