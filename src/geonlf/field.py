"""Neural LiDAR field: hybrid planar+hash encoding, a small MLP with
density / intensity / ray-drop heads, volume rendering of depth along
LiDAR rays, and exact reverse-mode gradients for every parameter and for
the frame pose (through ray origin and direction).

Parameters are stored in a configurable dtype (float32 by default, float64
for gradient checking); all arithmetic and every gradient accumulation run
in float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.special import expit

from .encoding import EncodingConfig, encode_backward, encode_forward
from .errors import ShapeMismatch, TapeMissing
from .geometry import Se3Param, so3_exp, so3_left_jacobian

CHECKPOINT_MAGIC = b"GNLF"
CHECKPOINT_VERSION = 1

# Declaration order of the parameter blocks; the checkpoint writes raw
# little-endian float32 arrays in exactly this order.
PARAM_NAMES = ("hash", "planes", "w1", "b1", "w2", "b2",
               "w_sigma", "b_sigma", "w_int", "b_int", "w_drop", "b_drop")


def softplus(x: np.ndarray) -> np.ndarray:
    # max(x, 0) + log1p(exp(-|x|)): stable and much faster than logaddexp.
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


class FieldParams:
    """All learnable state of the field plus float64 gradient buffers."""

    def __init__(self, cfg: EncodingConfig, hidden_width: int = 32,
                 dtype=np.float32, seed: int = 0):
        self.cfg = cfg
        self.hidden_width = hidden_width
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(seed)
        d_in = cfg.feature_dim
        h = hidden_width

        def normal(shape, scale):
            return rng.normal(0.0, scale, size=shape)

        t = cfg.hash_table_size
        self.params: dict[str, np.ndarray] = {
            "hash": rng.uniform(-1e-4, 1e-4, size=(cfg.levels, t, cfg.features_per_level)),
            "planes": rng.uniform(-1e-4, 1e-4, size=(3, cfg.planar_resolution,
                                                     cfg.planar_resolution,
                                                     cfg.planar_channels)),
            "w1": normal((d_in, h), (2.0 / d_in) ** 0.5),
            "b1": np.zeros(h),
            "w2": normal((h, h), (2.0 / h) ** 0.5),
            "b2": np.zeros(h),
            "w_sigma": normal((h,), h ** -0.5),
            "b_sigma": np.full(1, -1.0),
            "w_int": normal((h,), h ** -0.5),
            "b_int": np.zeros(1),
            "w_drop": normal((h,), h ** -0.5),
            "b_drop": np.zeros(1),
        }
        for k in self.params:
            self.params[k] = self.params[k].astype(self.dtype)
        self.grads: dict[str, np.ndarray] = {
            k: np.zeros(v.shape, dtype=np.float64) for k, v in self.params.items()
        }

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def scale_grads(self, factor: float) -> None:
        for g in self.grads.values():
            g *= factor

    # -- checkpoint ------------------------------------------------------

    def save(self, path: str) -> None:
        cfg = self.cfg
        meta = {
            "levels": cfg.levels, "base_resolution": cfg.base_resolution,
            "growth": cfg.growth, "features_per_level": cfg.features_per_level,
            "hash_table_size": cfg.hash_table_size,
            "planar_resolution": cfg.planar_resolution,
            "planar_channels": cfg.planar_channels,
            "hidden_width": self.hidden_width,
        }
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name in PARAM_NAMES:
                fh.write(np.ascontiguousarray(self.params[name], dtype="<f4").tobytes())

    @staticmethod
    def load(path: str, dtype=np.float32) -> "FieldParams":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise ShapeMismatch(f"bad checkpoint magic {magic!r}")
            version, = struct.unpack("<I", fh.read(4))
            if version != CHECKPOINT_VERSION:
                raise ShapeMismatch(f"unsupported checkpoint version {version}")
            blob_len, = struct.unpack("<I", fh.read(4))
            meta = json.loads(fh.read(blob_len).decode("utf-8"))
            hidden = meta.pop("hidden_width")
            meta.pop("sinusoidal_levels", None)   # written before it was removed
            cfg = EncodingConfig(**meta)
            out = FieldParams(cfg, hidden_width=hidden, dtype=dtype, seed=0)
            for name in PARAM_NAMES:
                shape = out.params[name].shape
                raw = fh.read(int(np.prod(shape)) * 4)
                arr = np.frombuffer(raw, dtype="<f4").reshape(shape)
                out.params[name] = arr.astype(out.dtype)
        return out


def sensor_directions(h: int, w: int, fov_up_deg: float,
                      fov_down_deg: float) -> np.ndarray:
    """(H, W, 3) unit directions at pixel centers in the sensor frame.

    Azimuth sweeps (-pi, pi] across columns; elevation runs from fov_up at
    the top row down to fov_down.
    """
    cols = (np.arange(w) + 0.5) / w
    rows = (np.arange(h) + 0.5) / h
    theta = 2.0 * np.pi * cols - np.pi
    fov_up = np.deg2rad(fov_up_deg)
    fov_down = np.deg2rad(fov_down_deg)
    phi = fov_up - rows * (fov_up - fov_down)
    cp, sp = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    dirs = np.empty((h, w, 3))
    dirs[:, :, 0] = cp[:, None] * ct[None, :]
    dirs[:, :, 1] = cp[:, None] * st[None, :]
    dirs[:, :, 2] = sp[:, None]
    return dirs


def _transmittance(tau: np.ndarray) -> np.ndarray:
    """T_i = exp(-sum_{k<i} tau_k), the light left before each sample."""
    csum = np.cumsum(tau, axis=1)
    return np.exp(-np.concatenate(
        [np.zeros((tau.shape[0], 1), dtype=tau.dtype), csum[:, :-1]], axis=1))


def composite(sigma: np.ndarray, delta: np.ndarray, z: np.ndarray,
              *values: np.ndarray):
    """Volume-rendering weights and integrals along each ray.

    sigma, delta, z and each of `values`: (n, N). Returns (weights, depth,
    *integrated values), the sums taken in float64.
    Weights are T_i * (1 - exp(-sigma_i * delta_i)) with T_i the
    accumulated transmittance; their sum telescopes to 1 - T_{N+1} <= 1.
    """
    tau = sigma * delta
    weights = _transmittance(tau) * -np.expm1(-tau)
    return (weights, *((weights * v).sum(axis=1, dtype=np.float64)
                       for v in (z, *values)))


def _composite_backward(g_w: np.ndarray, weights: np.ndarray,
                        tau: np.ndarray) -> np.ndarray:
    """d loss / d tau given d loss / d weights.

    dw_i/dtau_i = T_i exp(-tau_i); dw_i/dtau_k = -w_i for k < i.
    """
    gw = g_w * weights
    suffix = np.flip(np.cumsum(np.flip(gw, axis=1), axis=1), axis=1) - gw
    return g_w * _transmittance(tau) * np.exp(-tau) - suffix


@dataclass
class RenderTape:
    """Forward intermediates needed for the reverse pass."""

    params: FieldParams
    n_rays: int
    n_samples: int
    ts: np.ndarray          # (n, N) sample distances
    delta: np.ndarray       # (n, N)
    inside: np.ndarray      # (n*N, 3) 1.0 where the sample was not clamped
    enc_cache: dict
    mlp_cache: dict
    sigma: np.ndarray       # (n, N)
    s_vals: np.ndarray      # (n, N)
    l_vals: np.ndarray      # (n, N)
    weights: np.ndarray
    drop_logit: np.ndarray  # (n,)
    drop_prob: np.ndarray   # (n,)
    dirs_world: np.ndarray  # (n, 3)
    pose_phi: np.ndarray | None
    consumed: bool = dc_field(default=False)


def _mlp_forward(params: FieldParams, feats: np.ndarray):
    p = params.params
    h1_pre = feats @ p["w1"] + p["b1"]
    h1 = softplus(h1_pre)
    h2_pre = h1 @ p["w2"] + p["b2"]
    h2 = softplus(h2_pre)
    # three scalar heads as one GEMM
    w_heads = np.stack([p["w_sigma"], p["w_int"], p["w_drop"]], axis=1)
    b_heads = np.concatenate([p["b_sigma"], p["b_int"], p["b_drop"]])
    heads = h2 @ w_heads + b_heads
    sig_pre, int_pre, drop_pre = heads[:, 0], heads[:, 1], heads[:, 2]
    sigma = softplus(sig_pre)
    s_val = expit(int_pre)
    cache = {"feats": feats, "h1_pre": h1_pre, "h1": h1,
             "h2_pre": h2_pre, "h2": h2, "sig_pre": sig_pre,
             "int_pre": int_pre, "s_val": s_val, "w_heads": w_heads}
    return sigma, s_val, drop_pre, cache


def _mlp_backward(params: FieldParams, cache: dict, d_sigma: np.ndarray,
                  d_s: np.ndarray, d_drop: np.ndarray) -> np.ndarray:
    p, g = params.params, params.grads
    d_sig_pre = d_sigma * expit(cache["sig_pre"])
    d_int_pre = d_s * cache["s_val"] * (1.0 - cache["s_val"])
    d_heads = np.stack([d_sig_pre, d_int_pre, d_drop], axis=1)   # (n, 3)
    h2 = cache["h2"]

    # Parameter-gradient reductions run in float64 even when the
    # activations are float32.
    head_grads = h2.T.astype(np.float64) @ d_heads.astype(np.float64)
    g["w_sigma"] += head_grads[:, 0]
    g["w_int"] += head_grads[:, 1]
    g["w_drop"] += head_grads[:, 2]
    bias = d_heads.sum(axis=0, dtype=np.float64)
    g["b_sigma"] += bias[0]
    g["b_int"] += bias[1]
    g["b_drop"] += bias[2]

    d_h2 = d_heads @ cache["w_heads"].T
    d_h2_pre = d_h2 * expit(cache["h2_pre"])
    g["w2"] += cache["h1"].T.astype(np.float64) @ d_h2_pre.astype(np.float64)
    g["b2"] += d_h2_pre.sum(axis=0, dtype=np.float64)
    d_h1 = d_h2_pre @ p["w2"].T
    d_h1_pre = d_h1 * expit(cache["h1_pre"])
    g["w1"] += cache["feats"].T.astype(np.float64) @ d_h1_pre.astype(np.float64)
    g["b1"] += d_h1_pre.sum(axis=0, dtype=np.float64)
    return d_h1_pre @ p["w1"].T


def render_rays(params: FieldParams, origins: np.ndarray, dirs: np.ndarray,
                t_near, t_far, num_samples: int, alpha: float | None = None,
                rng: np.random.Generator | None = None,
                pose_phi: np.ndarray | None = None):
    """Batched volume rendering of depth / intensity / ray-drop.

    Samples are stratified uniform in [t_near, t_far] (deterministic strata
    midpoints when rng is None). Positions outside the unit cube are
    clamped for the encoders; clamped coordinates pass no gradient back to
    the pose. Returns (depth, intensity, drop_prob, tape).
    """
    dtype = params.dtype
    origins = np.atleast_2d(np.asarray(origins, dtype=dtype))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=dtype))
    n = origins.shape[0]
    near = np.broadcast_to(np.asarray(t_near, dtype=np.float64), (n,))
    far = np.broadcast_to(np.asarray(t_far, dtype=np.float64), (n,))

    jitter = (np.full((n, num_samples), 0.5) if rng is None
              else rng.random((n, num_samples)))
    frac = (np.arange(num_samples) + jitter) / num_samples
    ts = (near[:, None] + frac * (far - near)[:, None]).astype(dtype)
    delta = np.diff(ts, axis=1)
    delta = np.concatenate([delta, far[:, None].astype(dtype) - ts[:, -1:]],
                           axis=1)

    x = origins[:, None, :] + ts[:, :, None] * dirs[:, None, :]
    x_flat = x.reshape(-1, 3)
    clamped = np.clip(x_flat, 0.0, 1.0)
    inside = ((x_flat >= 0.0) & (x_flat <= 1.0)).astype(dtype)

    feats, enc_cache = encode_forward(
        clamped, params.params["planes"], params.params["hash"], params.cfg, alpha)
    sigma_flat, s_flat, l_flat, mlp_cache = _mlp_forward(params, feats)
    sigma = sigma_flat.reshape(n, num_samples)
    s_vals = s_flat.reshape(n, num_samples)
    l_vals = l_flat.reshape(n, num_samples)

    weights, depth, intensity, drop_logit = composite(sigma, delta, ts,
                                                      s_vals, l_vals)
    drop_prob = expit(drop_logit)

    tape = RenderTape(params, n, num_samples, ts, delta, inside, enc_cache,
                      mlp_cache, sigma, s_vals, l_vals, weights,
                      drop_logit, drop_prob, dirs, pose_phi)
    return depth, intensity, drop_prob, tape


def backward(tape: RenderTape, d_depth: np.ndarray, d_intensity: np.ndarray,
             d_drop_prob: np.ndarray) -> np.ndarray:
    """Reverse pass: accumulates into tape.params.grads, returns the pose
    gradient as a 6-vector (d rho, d phi).

    The pose enters through ray origin and direction: x_i = o + t_i * R d.
    Gradients through clamped sample coordinates are zero. When the tape
    was built without `pose_phi`, the phi block is computed about phi = 0.
    """
    if tape is None or tape.consumed:
        raise TapeMissing("render tape absent or already consumed")
    tape.consumed = True
    params = tape.params
    n, m = tape.n_rays, tape.n_samples
    d_depth = np.broadcast_to(np.asarray(d_depth, dtype=np.float64), (n,))
    d_intensity = np.broadcast_to(np.asarray(d_intensity, dtype=np.float64), (n,))
    d_drop_prob = np.broadcast_to(np.asarray(d_drop_prob, dtype=np.float64), (n,))

    dtype = params.dtype
    d_logit = (d_drop_prob * tape.drop_prob * (1.0 - tape.drop_prob)).astype(dtype)
    d_depth = d_depth.astype(dtype)
    d_intensity = d_intensity.astype(dtype)
    g_w = (d_depth[:, None] * tape.ts
           + d_intensity[:, None] * tape.s_vals
           + d_logit[:, None] * tape.l_vals)
    d_s = d_intensity[:, None] * tape.weights
    d_l = d_logit[:, None] * tape.weights
    d_tau = _composite_backward(g_w, tape.weights, tape.sigma * tape.delta)
    d_sigma = d_tau * tape.delta

    d_feats = _mlp_backward(params, tape.mlp_cache, d_sigma.reshape(-1),
                            d_s.reshape(-1), d_l.reshape(-1))
    dx = encode_backward(tape.enc_cache, d_feats, params.grads["planes"],
                         params.grads["hash"], params.cfg, need_dx=True)
    dx = (dx * tape.inside).reshape(n, m, 3)

    pose_grad = np.zeros(6)
    pose_grad[:3] = dx.sum(axis=(0, 1), dtype=np.float64)
    v = (tape.ts[:, :, None] * dx).sum(axis=1, dtype=np.float64)   # (n, 3)
    torque = np.cross(tape.dirs_world.astype(np.float64), v).sum(axis=0)
    phi = np.zeros(3) if tape.pose_phi is None else tape.pose_phi
    pose_grad[3:] = so3_left_jacobian(phi).T @ torque
    return pose_grad


def pose_rays(pose: Se3Param, d_sensor: np.ndarray):
    """World origins/directions for sensor-frame pixel directions.

    d_sensor: (n, 3). Returns (origins (n, 3), dirs (n, 3)).
    """
    rot = so3_exp(pose.phi)
    dirs = d_sensor @ rot.T
    origins = np.broadcast_to(pose.rho, dirs.shape).copy()
    return origins, dirs
