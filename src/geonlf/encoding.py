"""Positional encodings: multi-level hashed voxel grids, tri-planar grids,
and the coarse-to-fine level mask.

Each encoder has a batched forward that records a cache, and a backward
that scatters gradients into the parameter tables and (optionally) returns
gradients with respect to the input positions. Gradients accumulate in
float64 regardless of the table dtype.

The hash grid follows Instant-NGP: the 8 corners of a point's cell at each
level hash to rows of a power-of-two table T by
(i*p1 xor j*p2 xor k*p3) & (T - 1), and all levels are gathered from the
flattened table at once. The forward caches the corner rows, weights and
gathered values plus the cell offsets `frac`, not the weight gradients;
the backward rebuilds those from `frac` only when it returns d/dx, so a
forward-only caller never computes them. The planar encoder caches its
offsets the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain

DOMAIN_EPS = 1e-6
HASH_PRIMES = (np.uint64(1), np.uint64(2654435761), np.uint64(805459861))


@dataclass
class EncodingConfig:
    levels: int = 4
    base_resolution: int = 16
    growth: float = 1.5
    features_per_level: int = 2
    hash_table_size: int = 2 ** 15
    planar_resolution: int = 64
    planar_channels: int = 4

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if self.growth <= 1.0:
            raise ValueError("growth must be > 1")
        if self.hash_table_size & (self.hash_table_size - 1):
            raise ValueError("hash_table_size must be a power of two")

    def level_resolutions(self) -> list[int]:
        return [int(np.floor(self.base_resolution * self.growth ** l))
                for l in range(self.levels)]

    def mask_order(self) -> list[tuple[str, int]]:
        """Level activation order for the coarse-to-fine mask.

        Hash levels and the planar block are interleaved by ascending
        spatial resolution; entries are ("hash", level) or ("planar", 0).
        """
        entries = [("hash", l, r) for l, r in enumerate(self.level_resolutions())]
        entries.append(("planar", 0, self.planar_resolution))
        entries.sort(key=lambda e: (e[2], e[0]))
        return [(kind, idx) for kind, idx, _ in entries]

    @property
    def total_mask_levels(self) -> int:
        return self.levels + 1

    @property
    def feature_dim(self) -> int:
        return self.planar_channels + self.levels * self.features_per_level


def check_domain(x: np.ndarray) -> np.ndarray:
    """Clamp coordinates to [0, 1]; positions beyond the tolerance raise.

    Preserves floating dtype so a float32 pipeline stays float32.
    """
    x = np.atleast_2d(np.asarray(x))
    if x.dtype not in (np.float32, np.float64):
        x = x.astype(np.float64)
    if x.size and (x.min() < -DOMAIN_EPS or x.max() > 1.0 + DOMAIN_EPS):
        raise OutOfDomain(
            f"coordinates outside the unit cube: range [{x.min()}, {x.max()}]")
    return np.clip(x, 0.0, 1.0)


def c2f_weight(alpha: float, level: int) -> float:
    """Cosine ramp activating level `level` while alpha sweeps [0, L_total]."""
    a = alpha - level
    if a < 0.0:
        return 0.0
    if a < 1.0:
        return float((1.0 - np.cos(a * np.pi)) / 2.0)
    return 1.0


def _per_corner(op, a0, a1, a2, out: np.ndarray) -> np.ndarray:
    """out[..., k] = op(op(a0[b0], a1[b1]), a2[b2]) over the 8 cell corners
    k = 4*b0 + 2*b1 + b2, i.e. (x, y, z) bit order; each a_i is a pair
    indexed by the corner bit on its axis."""
    for b0 in (0, 1):
        for b1 in (0, 1):
            a01 = op(a0[b0], a1[b1])
            for b2 in (0, 1):
                op(a01, a2[b2], out=out[..., 4 * b0 + 2 * b1 + b2])
    return out


def hash_encode_forward(x: np.ndarray, tables: np.ndarray, cfg: EncodingConfig):
    """Trilinear blend of 8 hashed corner features per level, concatenated.

    x: (n, 3) in [0, 1]; tables: (L, T, F) with T a power of two.
    Level l scales x by its cell count r_l (the corner lattice has r_l + 1
    sites per axis). Corner (i, j, k) of a cell reads row l*T + h of the
    flattened (L*T, F) table, h = (i*p1 xor j*p2 xor k*p3) & (T - 1) in
    wrapping uint64 arithmetic; the products are formed once per axis and
    all levels are gathered at once.
    Returns (features (n, L*F), cache). The cache holds, level-major, the
    flat rows `idx` (L, n, 8), the corner `weights` (L, n, 8), the gathered
    `vals` (L, n, 8, F), and the cell offsets `frac` (3, L, n) and
    resolutions `res` (L,) from which the backward rebuilds the weight
    gradients when it needs dx.
    """
    x = check_domain(x)
    n = x.shape[0]
    levels, f, t = cfg.levels, cfg.features_per_level, cfg.hash_table_size
    res = np.asarray(cfg.level_resolutions(), dtype=x.dtype)
    pos = x.T[:, None, :] * res[:, None]                      # (3, L, n)
    floor = np.floor(pos)
    frac = pos - floor                                        # in [0, 1)
    one = 1.0 - frac
    weights = _per_corner(np.multiply, *zip(one, frac),
                          out=np.empty((levels, n, 8), dtype=x.dtype))

    base = floor.astype(np.uint64)                            # in [0, r_l]
    mask = np.uint64(t - 1)
    # (a xor b) & m == (a & m) xor (b & m); the level offset sits above m.
    keys = [[((base[a] + np.uint64(b)) * HASH_PRIMES[a]) & mask
             for b in (0, 1)] for a in range(3)]
    offset = (np.arange(levels, dtype=np.uint64) * np.uint64(t))[:, None]
    keys[0] = [k | offset for k in keys[0]]
    idx = _per_corner(np.bitwise_xor, *keys,
                      out=np.empty((levels, n, 8), dtype=np.uint64)
                      ).view(np.int64)

    vals = np.take(tables.reshape(levels * t, f), idx, axis=0)  # (L, n, 8, F)
    features = (weights[..., None, :] @ vals)[:, :, 0, :]
    cache = {"idx": idx, "weights": weights, "vals": vals,
             "frac": frac, "res": res}
    return features.transpose(1, 0, 2).reshape(n, levels * f), cache


def hash_encode_backward(cache, upstream: np.ndarray, grad_tables: np.ndarray,
                         cfg: EncodingConfig, need_dx: bool = True):
    """Scatter upstream feature gradients into the tables; return d/dx.

    The scatter is one bincount per channel over the flat rows of all
    levels. Only when need_dx is set are the weight gradients (n, 8, 3)
    rebuilt, level by level, from the cached `frac` and `res`; otherwise
    the result is None.
    """
    weights, vals, frac = cache["weights"], cache["vals"], cache["frac"]
    levels, n = weights.shape[:2]
    f = cfg.features_per_level
    dy = upstream.reshape(n, levels, f).transpose(1, 0, 2)    # (L, n, F)
    flat_idx = cache["idx"].reshape(-1)
    size = levels * grad_tables.shape[1]
    for ch in range(f):
        contrib = weights * dy[:, :, ch, None]                # (L, n, 8)
        grad_tables[:, :, ch] += np.bincount(
            flat_idx, weights=contrib.reshape(-1),
            minlength=size).reshape(levels, -1)
    if not need_dx:
        return None
    one = 1.0 - frac
    wgrads = np.empty((n, 8, 3), dtype=frac.dtype)
    dx = np.zeros((n, 3), dtype=upstream.dtype)
    for level in range(levels):
        w = [(one[a, level], frac[a, level]) for a in range(3)]
        for axis in range(3):
            # d(1 - f, f)/df = (-1, 1) stands in for this axis' weights.
            _per_corner(np.multiply, *w[:axis], (-1.0, 1.0), *w[axis + 1:],
                        out=wgrads[..., axis])
        wgrads *= cache["res"][level]
        # Per point (8, F) @ (F, 1), then (1, 8) @ (8, 3): the matmul shapes
        # fix how the sums round, so d/dx matches the level-by-level form.
        val_dot = (vals[level] @ dy[level][..., None])[..., 0]  # (n, 8)
        dx += (val_dot[:, None, :] @ wgrads)[:, 0, :]
    return dx


_PLANE_AXES = ((0, 1), (0, 2), (1, 2))   # xy, xz, yz


def _bilinear_setup(uv: np.ndarray, size: int):
    """Align-corners bilinear setup on a size x size grid (size-1 cells):
    flat corner rows (n, 4), weights (n, 4) and cell offsets (n, 2)."""
    pos = uv * np.asarray(size - 1, dtype=uv.dtype)
    base_f = np.clip(np.floor(pos), 0.0, size - 2)
    base = base_f.astype(np.int64)
    frac = pos - base_f
    fu, fv = frac[:, 0], frac[:, 1]
    weights = np.stack([(1 - fu) * (1 - fv), fu * (1 - fv),
                        (1 - fu) * fv, fu * fv], axis=1)           # (n, 4)
    flat = np.stack([base[:, 0] * size + base[:, 1],
                     (base[:, 0] + 1) * size + base[:, 1],
                     base[:, 0] * size + base[:, 1] + 1,
                     (base[:, 0] + 1) * size + base[:, 1] + 1], axis=1)
    return flat, weights, frac


def planar_encode_forward(x: np.ndarray, planes: np.ndarray, cfg: EncodingConfig):
    """Channelwise product of bilinear samples from the xy, xz, yz planes.

    planes: (3, M, M, C). Returns (features (n, C), cache).
    """
    x = check_domain(x)
    m = cfg.planar_resolution
    samples = []
    cache_planes = []
    for p, (au, av) in enumerate(_PLANE_AXES):
        uv = x[:, (au, av)]
        flat, weights, frac = _bilinear_setup(uv, m)
        table = planes[p].reshape(m * m, -1)                       # (M*M, C)
        vals = table[flat]                                         # (n, 4, C)
        samples.append((weights[:, None, :] @ vals)[:, 0, :])
        cache_planes.append((flat, weights, frac, vals, au, av))
    features = samples[0] * samples[1] * samples[2]
    return features, {"samples": samples, "planes": cache_planes,
                      "n": x.shape[0]}


def planar_encode_backward(cache, upstream: np.ndarray, grad_planes: np.ndarray,
                           cfg: EncodingConfig, need_dx: bool = True):
    """Product rule across the three planes, then bilinear scatter; the
    weight gradients du, dv come from the cached offsets when need_dx."""
    m = cfg.planar_resolution
    s0, s1, s2 = cache["samples"]
    others = [s1 * s2, s0 * s2, s0 * s1]
    dx = np.zeros((cache["n"], 3), dtype=upstream.dtype) if need_dx else None
    for p, (flat, weights, frac, vals, au, av) in enumerate(cache["planes"]):
        dsample = upstream * others[p]                             # (n, C)
        contrib = weights[:, :, None] * dsample[:, None, :]        # (n, 4, C)
        flat_all = flat.reshape(-1)
        gp = grad_planes[p].reshape(m * m, -1)
        for ch in range(gp.shape[1]):
            gp[:, ch] += np.bincount(flat_all,
                                     weights=contrib[:, :, ch].reshape(-1),
                                     minlength=m * m)
        if need_dx:
            fu, fv = frac[:, 0], frac[:, 1]
            du = np.stack([-(1 - fv), (1 - fv), -fv, fv], axis=1) * (m - 1)
            dv = np.stack([-(1 - fu), -fu, (1 - fu), fu], axis=1) * (m - 1)
            val_dot = (vals @ dsample[:, :, None])[:, :, 0]        # (n, 4)
            dx[:, au] += (val_dot * du).sum(axis=1)
            dx[:, av] += (val_dot * dv).sum(axis=1)
    return dx


def mask_weights(alpha: float, cfg: EncodingConfig):
    """C2f weights for (hash levels, planar block) under the resolution order."""
    w_hash = np.ones(cfg.levels)
    w_planar = 1.0
    for slot, (kind, idx) in enumerate(cfg.mask_order()):
        w = c2f_weight(alpha, slot)
        if kind == "hash":
            w_hash[idx] = w
        else:
            w_planar = w
    return w_hash, w_planar


def encode_forward(x: np.ndarray, planes: np.ndarray, tables: np.ndarray,
                   cfg: EncodingConfig, alpha: float | None = None):
    """Hybrid encoding: planar block then hash levels, c2f-masked.

    alpha = None (or >= total levels) leaves every block untouched, so the
    masked output is bit-identical to the unmasked one.
    Returns (features (n, planar_channels + levels*F), cache).
    """
    planar_feat, planar_cache = planar_encode_forward(x, planes, cfg)
    hash_feat, hash_cache = hash_encode_forward(x, tables, cfg)
    if alpha is None:
        w_hash, w_planar = np.ones(cfg.levels), 1.0
    else:
        w_hash, w_planar = mask_weights(alpha, cfg)
    if w_planar != 1.0:
        planar_feat *= w_planar
    f = cfg.features_per_level
    for level in range(cfg.levels):
        if w_hash[level] != 1.0:
            hash_feat[:, level * f:(level + 1) * f] *= w_hash[level]
    features = np.concatenate([planar_feat, hash_feat], axis=1)
    cache = {"planar": planar_cache, "hash": hash_cache,
             "w_hash": w_hash, "w_planar": w_planar}
    return features, cache


def encode_backward(cache, upstream: np.ndarray, grad_planes: np.ndarray,
                    grad_tables: np.ndarray, cfg: EncodingConfig,
                    need_dx: bool = True):
    """Backward of `encode_forward`; returns d/dx or None."""
    c = cfg.planar_channels
    up_planar = upstream[:, :c] * float(cache["w_planar"])
    up_hash = upstream[:, c:].copy()
    f = cfg.features_per_level
    for level in range(cfg.levels):
        up_hash[:, level * f:(level + 1) * f] *= cache["w_hash"][level]
    dx_p = planar_encode_backward(cache["planar"], up_planar, grad_planes,
                                  cfg, need_dx)
    dx_h = hash_encode_backward(cache["hash"], up_hash, grad_tables,
                                cfg, need_dx)
    if not need_dx:
        return None
    return dx_p + dx_h

