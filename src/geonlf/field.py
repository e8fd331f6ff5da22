"""Neural LiDAR field: hybrid planar+hash encoding, a small MLP with
density / intensity / ray-drop heads, volume rendering of depth along the
rays and at the sample distances the caller gives, and exact reverse-mode
gradients for every parameter and for one rigid motion of the rays.

Parameters are stored in a configurable dtype (float32 by default, float64
for gradient checking). The forward pass and the upstream gradients of the
reverse pass run in that dtype; the compositing sums and every gradient
accumulation run in float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial

import numpy as np
from scipy.special import expit

from .encoding import (EncodingConfig, encode_backward, encode_forward,
                       table_scatters)
from .errors import ShapeMismatch, TapeMissing
from .spatial import pool_map

CHECKPOINT_MAGIC = b"GNLF"
CHECKPOINT_VERSION = 1

# Declaration order of the parameter blocks; the checkpoint writes raw
# little-endian float32 arrays in exactly this order.
PARAM_NAMES = ("hash", "planes", "w1", "b1", "w2", "b2",
               "w_sigma", "b_sigma", "w_int", "b_int", "w_drop", "b_drop")


def softplus(x: np.ndarray) -> np.ndarray:
    # max(x, 0) + log1p(exp(-|x|)): stable and much faster than logaddexp.
    # The chain runs in place in one buffer; IEEE addition commutes, so the
    # result equals the two-temporary form bit for bit.
    out = np.abs(x)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


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
        meta = {**asdict(self.cfg), "hidden_width": self.hidden_width}
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


def _transmittance(tau: np.ndarray) -> np.ndarray:
    """T_i = exp(-sum_{k<i} tau_k), the light left before each sample."""
    csum = np.cumsum(tau, axis=1)
    return np.exp(-np.concatenate(
        [np.zeros((tau.shape[0], 1), dtype=tau.dtype), csum[:, :-1]], axis=1))


def composite(sigma: np.ndarray, delta: np.ndarray, z: np.ndarray,
              *values: np.ndarray):
    """Volume-rendering weights and integrals along each ray.

    sigma, delta, z and each of `values`: (n, N); delta and z may also be
    one (N,) row that every ray shares. Returns (weights, depth,
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


# Samples per shard: every render (`render_rays`, `render_forward`) is cut
# into runs of this many samples (512 rays at 32 per ray), which run on the
# shared pool (`spatial.pool_map`). The size is fixed, not a share of the
# CPU count, so every machine does the same arithmetic: OpenBLAS rounds the
# (n x 32) @ (32 x 3) heads GEMM differently below about 12k rows (its
# small-matrix kernel).
SHARD_SAMPLES = 16_384


@dataclass
class _Shard:
    """One shard's rays and what its reverse pass needs."""

    rays: slice
    inside: np.ndarray | None = None    # (rays*N, 3) 1.0 where not clamped
    enc_cache: dict | None = None
    mlp_cache: dict | None = None


@dataclass
class RenderTape:
    """Forward intermediates needed for the reverse pass: whole-batch
    arrays, and the encoder and MLP caches shard by shard."""

    params: FieldParams
    ts: np.ndarray          # (n, N) sample distances
    delta: np.ndarray       # (n, N)
    sigma: np.ndarray       # (n, N)
    s_vals: np.ndarray      # (n, N)
    l_vals: np.ndarray      # (n, N)
    weights: np.ndarray
    drop_prob: np.ndarray   # (n,)
    dirs_world: np.ndarray  # (n, 3)
    shards: list[_Shard]
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
    # h1 and h2 are not kept: the reverse pass takes softplus again.
    cache = {"feats": feats, "h1_pre": h1_pre, "h2_pre": h2_pre,
             "sig_pre": sig_pre, "s_val": s_val, "w_heads": w_heads}
    return sigma, s_val, drop_pre, cache


def _mlp_backward(params: FieldParams, cache: dict, d_sigma: np.ndarray,
                  d_s: np.ndarray, d_drop: np.ndarray, keep: dict | None,
                  rows: slice) -> np.ndarray:
    """d loss / d features of one shard. With `keep`, also writes rows
    `rows` of the whole-batch buffers that the weight reductions of
    `_mlp_weight_grads` read: each layer's input and pre-activation
    gradient."""
    p = params.params
    d_sig_pre = d_sigma * expit(cache["sig_pre"])
    d_int_pre = d_s * cache["s_val"] * (1.0 - cache["s_val"])
    d_heads = np.stack([d_sig_pre, d_int_pre, d_drop], axis=1)   # (n, 3)
    d_h2 = d_heads @ cache["w_heads"].T
    d_h2_pre = d_h2 * expit(cache["h2_pre"])
    d_h1 = d_h2_pre @ p["w2"].T
    d_h1_pre = d_h1 * expit(cache["h1_pre"])
    if keep is not None:
        keep["d_heads"][rows] = d_heads
        keep["h2"][rows] = softplus(cache["h2_pre"])
        keep["d_h2_pre"][rows] = d_h2_pre
        keep["h1"][rows] = softplus(cache["h1_pre"])
        keep["d_h1_pre"][rows] = d_h1_pre
        keep["feats"][rows] = cache["feats"]
    return d_h1_pre @ p["w1"].T


def _mlp_weight_grads(params: FieldParams, keep: dict) -> list:
    """The weight and bias gradients of the MLP over the whole batch, one
    task per layer. They reduce in float64 even when the activations are
    float32; each task drops its buffers once its sums are taken."""
    g = params.grads

    def heads():
        d_heads = keep.pop("d_heads")
        head_grads = keep.pop("h2").T.astype(np.float64) @ d_heads.astype(np.float64)
        g["w_sigma"] += head_grads[:, 0]
        g["w_int"] += head_grads[:, 1]
        g["w_drop"] += head_grads[:, 2]
        bias = d_heads.sum(axis=0, dtype=np.float64)
        g["b_sigma"] += bias[0]
        g["b_int"] += bias[1]
        g["b_drop"] += bias[2]

    def layer(inputs: str, grad: str, w: str, b: str):
        def task():
            d_pre = keep.pop(grad)
            g[w] += keep.pop(inputs).T.astype(np.float64) @ d_pre.astype(np.float64)
            g[b] += d_pre.sum(axis=0, dtype=np.float64)
        return task

    return [heads, layer("h1", "d_h2_pre", "w2", "b2"),
            layer("feats", "d_h1_pre", "w1", "b1")]


def _shards(n: int, num_samples: int) -> list[_Shard]:
    rays = max(SHARD_SAMPLES // num_samples, 1)
    return [_Shard(slice(lo, min(lo + rays, n))) for lo in range(0, n, rays)]


def _spacings(ts: np.ndarray, t_far: float) -> np.ndarray:
    """The spacings of sorted sample distances; the last runs to t_far."""
    return np.concatenate([np.diff(ts, axis=-1),
                           ts.dtype.type(t_far) - ts[..., -1:]], axis=-1)


def _forward(params: FieldParams, origins: np.ndarray, dirs: np.ndarray,
             ts: np.ndarray, delta: np.ndarray, alpha: float | None,
             shard: _Shard | None = None):
    """The forward of one shard's n rays: sample positions, clamped into
    the unit cube, through the encoders and the MLP, then composited.
    `ts` and `delta` are (n, N), or one (N,) row that every ray shares.
    With `shard`, what the reverse pass needs is kept on it: the mask of
    unclamped coordinates and the encoder and MLP caches. Returns
    (sigma, s_vals, l_vals, weights), each (n, N), then (depth, intensity,
    drop_logit), each (n,).
    """
    x = (origins[:, None, :] + ts[..., None] * dirs[:, None, :]).reshape(-1, 3)
    feats, enc_cache = encode_forward(
        np.clip(x, 0.0, 1.0), params.params["planes"], params.params["hash"],
        params.cfg, alpha)
    sigma, s_vals, l_vals, mlp_cache = _mlp_forward(params, feats)
    if shard is not None:
        shard.inside = ((x >= 0.0) & (x <= 1.0)).astype(params.dtype)
        shard.enc_cache, shard.mlp_cache = enc_cache, mlp_cache
    rows = (origins.shape[0], ts.shape[-1])
    sigma, s_vals, l_vals = (v.reshape(rows) for v in (sigma, s_vals, l_vals))
    return (sigma, s_vals, l_vals,
            *composite(sigma, delta, ts, s_vals, l_vals))


def render_rays(params: FieldParams, origins: np.ndarray, dirs: np.ndarray,
                ts: np.ndarray, t_far: float, num_samples: int,
                alpha: float | None = None):
    """Batched volume rendering of depth / intensity / ray-drop at the
    sample distances `ts`, recorded for `backward`.

    `ts` is (n, num_samples), each row sorted and inside [t_near, t_far]:
    the caller samples (`trainer.render_step` through
    `trainer.sample_distances`). Each sample's spacing runs to the next
    one, the last to t_far. Positions outside the unit cube are clamped
    for the encoders; clamped coordinates pass no gradient back to the
    rays, and neither do the distances. Returns (depth, intensity,
    drop_prob, tape).

    The rays are cut into shards of SHARD_SAMPLES samples, which render as
    tasks of `spatial.pool_map`, one thread per usable CPU. Each ray is
    rendered within one shard, and the shards do not depend on the CPU
    count, so neither do the outputs, bit for bit. Each shard keeps its
    encoder and MLP caches, and the tape holds the whole batch's (n, N)
    sample distances, densities, values and weights: a caller that needs
    no reverse pass renders with `render_forward` instead.
    """
    dtype = params.dtype
    origins = np.atleast_2d(np.asarray(origins, dtype=dtype))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=dtype))
    n = origins.shape[0]
    ts = np.asarray(ts, dtype=dtype)
    if ts.shape != (n, num_samples):
        raise ShapeMismatch(f"sample distances of shape {ts.shape} for "
                            f"{n} rays of {num_samples} samples")
    delta = _spacings(ts, t_far)

    sigma, s_vals, l_vals, weights = (np.empty((n, num_samples), dtype)
                                      for _ in range(4))
    depth, intensity, drop_logit = np.empty(n), np.empty(n), np.empty(n)

    def render(shard: _Shard) -> None:
        r = shard.rays
        (sigma[r], s_vals[r], l_vals[r], weights[r], depth[r], intensity[r],
         drop_logit[r]) = _forward(params, origins[r], dirs[r], ts[r],
                                   delta[r], alpha, shard)

    shards = _shards(n, num_samples)
    list(pool_map([partial(render, shard) for shard in shards]))
    drop_prob = expit(drop_logit)

    tape = RenderTape(params, ts, delta, sigma, s_vals, l_vals, weights,
                      drop_prob, dirs, shards)
    return depth, intensity, drop_prob, tape


def render_forward(params: FieldParams, origins: np.ndarray,
                   dirs: np.ndarray, ts: np.ndarray, t_far: float):
    """Forward-only render at the sorted (N,) sample distances `ts` on
    every ray, with every encoding level active: (depth, intensity,
    drop_prob), equal bit for bit to those of `render_rays` with `ts` in
    every row.

    The shards are those of `render_rays`, all in one `spatial.pool_map`.
    A shard keeps nothing for a reverse pass: it writes its rays' three
    outputs and frees the rest, and every shard reads one shared (N,) row
    of sample distances, so peak memory does not grow with the ray count.
    """
    dtype = params.dtype
    origins = np.atleast_2d(np.asarray(origins, dtype=dtype))
    dirs = np.atleast_2d(np.asarray(dirs, dtype=dtype))
    n = origins.shape[0]
    ts = np.asarray(ts, dtype=dtype)
    delta = _spacings(ts, t_far)
    depth, intensity, drop_logit = np.empty(n), np.empty(n), np.empty(n)

    def render(r: slice) -> None:
        *_, depth[r], intensity[r], drop_logit[r] = _forward(
            params, origins[r], dirs[r], ts, delta, None)

    list(pool_map([partial(render, shard.rays)
                   for shard in _shards(n, len(ts))]))
    return depth, intensity, expit(drop_logit)


def backward(tape: RenderTape, d_depth: np.ndarray, d_intensity: np.ndarray,
             d_drop_prob: np.ndarray, field_grads: bool = True) -> np.ndarray:
    """Reverse pass: accumulates into tape.params.grads and returns the
    gradient of one rigid motion of the rays (samples x_i = o + t_i * d) as
    a 6-vector: d/d t for every origin moved by t, then the world-frame
    torque d/d w for every direction turned by exp(w^) about its origin.
    The caller maps it to its pose (`trainer.render_step`). Gradients
    through clamped sample coordinates are zero.

    Two stages of `spatial.pool_map` tasks. Stage 1 runs per shard:
    compositing, the MLP's activation gradients and the encoder's d/dx.
    Stage 2 runs each whole-batch reduction once, as its own task, over
    the shard outputs stacked in ray order: the motion sums, the MLP weight
    and bias products, and one bincount per hash level and channel and per
    plane and channel. The reductions see the same arrays whatever the CPU
    count, so the gradients do not depend on it, bit for bit.

    With `field_grads` False the field is treated as frozen: stage 2 is
    the motion sums alone and params.grads is left untouched. The motion
    gradient is the same bit for bit.
    """
    if tape is None or tape.consumed:
        raise TapeMissing("render tape absent or already consumed")
    tape.consumed = True
    params = tape.params
    n, m = tape.ts.shape
    d_depth = np.broadcast_to(np.asarray(d_depth, dtype=np.float64), (n,))
    d_intensity = np.broadcast_to(np.asarray(d_intensity, dtype=np.float64), (n,))
    d_drop_prob = np.broadcast_to(np.asarray(d_drop_prob, dtype=np.float64), (n,))

    dtype = params.dtype
    d_logit = (d_drop_prob * tape.drop_prob * (1.0 - tape.drop_prob)).astype(dtype)
    d_depth = d_depth.astype(dtype)
    d_intensity = d_intensity.astype(dtype)

    # Stage-1 outputs, whole batch, one row per sample.
    cfg, h = params.cfg, params.hidden_width
    widths = {"dx": 3}
    if field_grads:
        widths.update(d_heads=3, h2=h, d_h2_pre=h, h1=h, d_h1_pre=h,
                      feats=cfg.feature_dim,
                      table_up=3 * cfg.planar_channels
                      + cfg.levels * cfg.features_per_level)
    out = {k: np.empty((n * m, w), dtype) for k, w in widths.items()}
    keep = out if field_grads else None

    def stage1(shard: _Shard) -> None:
        r = shard.rays
        rows = slice(r.start * m, r.stop * m)
        ts, weights, delta = tape.ts[r], tape.weights[r], tape.delta[r]
        g_w = (d_depth[r, None] * ts
               + d_intensity[r, None] * tape.s_vals[r]
               + d_logit[r, None] * tape.l_vals[r])
        d_s = d_intensity[r, None] * weights
        d_l = d_logit[r, None] * weights
        d_tau = _composite_backward(g_w, weights, tape.sigma[r] * delta)
        d_sigma = d_tau * delta
        d_feats = _mlp_backward(params, shard.mlp_cache, d_sigma.reshape(-1),
                                d_s.reshape(-1), d_l.reshape(-1), keep, rows)
        dx, table_up = encode_backward(shard.enc_cache, d_feats, cfg)
        out["dx"][rows] = dx * shard.inside
        if field_grads:
            out["table_up"][rows] = table_up.T

    list(pool_map([partial(stage1, shard) for shard in tape.shards]))

    motion = np.zeros(6)

    def motion_sums() -> None:
        dx = out.pop("dx").reshape(n, m, 3)
        motion[:3] = dx.sum(axis=(0, 1), dtype=np.float64)
        v = (tape.ts[:, :, None] * dx).sum(axis=1, dtype=np.float64)  # (n, 3)
        motion[3:] = np.cross(tape.dirs_world.astype(np.float64),
                              v).sum(axis=0)

    stage2 = [motion_sums]
    if field_grads:
        stage2 += _mlp_weight_grads(params, out)
        stage2 += table_scatters([s.enc_cache for s in tape.shards],
                                 out["table_up"].T, params.grads["planes"],
                                 params.grads["hash"], cfg)
    list(pool_map(stage2))
    return motion

