"""Positional encodings: multi-level hashed voxel grids, tri-planar grids,
and the coarse-to-fine level mask.

Each encoder has a batched forward that records a cache, and a backward
that returns gradients with respect to the input positions. The table
gradients are a separate step, `table_scatters`, which runs once over all
the pieces a batch was encoded in; the backward only hands it the
gradient of every plane sample and hash-level blend. Table gradients
accumulate in float64 regardless of the table dtype.

The hash grid follows Instant-NGP: the 8 corners of a point's cell at each
level hash to rows of a power-of-two table T by
(i*p1 xor j*p2 xor k*p3) & (T - 1), and all levels are gathered from the
flattened table at once. The forward caches the corner rows and the cell
offsets `frac` and keeps a reference to the tables. Everything else the
reverse pass needs, it rebuilds bit for bit: the gathered corner values
(gathered again), the corner weights and their gradients (from `frac`).
A forward-only caller never computes the weight gradients, and the cache
stays small. The planar encoder caches its rows, weights and offsets the
same way.

The coarse-to-fine mask gives each block a weight in [0, 1]. A block of
weight exactly 0 is never gathered, blended, differentiated or scattered:
its feature columns and its table upstream are zeros, and it adds nothing
to d/dx or to the table gradients. The masked blocks are always a suffix
of `mask_order()`: the weight of a slot does not increase with the slot,
and the order sorts the blocks by resolution, so the hash levels keep their
index order in it. The live hash levels are therefore levels[:live], and
the planar block is either live or skipped. The encoders take their input
as it comes, inside the unit cube; `field._forward`, which both renders
share, clips it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

HASH_PRIMES = (np.uint32(1), np.uint32(2654435761), np.uint32(805459861))


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
        for name in ("levels", "base_resolution", "features_per_level"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.growth <= 1.0:
            raise ValueError("growth must be > 1")
        t = self.hash_table_size
        if t < 1 or t & (t - 1):
            raise ValueError("hash_table_size must be a power of two")
        # One cell, two grid lines, per axis at least.
        if self.planar_resolution < 2:
            raise ValueError("planar_resolution must be >= 2")
        if self.planar_channels < 0:
            raise ValueError("planar_channels must be >= 0")

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


def _corner_weights(frac: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Trilinear weights of the 8 cell corners, from the cell offsets
    `frac` (3, ...) into `out` (..., 8)."""
    return _per_corner(np.multiply, *zip(1.0 - frac, frac), out=out)


def hash_encode_forward(x: np.ndarray, tables: np.ndarray, cfg: EncodingConfig):
    """Trilinear blend of 8 hashed corner features per level, concatenated.

    x: (n, 3) in [0, 1]; tables: (L, T, F) with T a power of two, the
    first L <= cfg.levels levels (a view `tables[:L]` encodes those alone).
    Level l scales x by its cell count r_l (the corner lattice has r_l + 1
    sites per axis). Corner (i, j, k) of a cell reads row l*T + h of the
    flattened (L*T, F) table, h = (i*p1 xor j*p2 xor k*p3) & (T - 1) in
    wrapping uint32 arithmetic (the low bits kept by the mask are those of
    the exact products); the products are formed once per axis and all
    levels are gathered at once.
    Returns (features (n, L*F), cache). The cache holds, level-major, the
    flat rows `idx` (L, n, 8), the cell offsets `frac` (3, L, n) and
    resolutions `res` (L,), and the `tables` themselves, from which the
    reverse pass rebuilds the corner weights, their gradients and the
    gathered values.
    """
    n = x.shape[0]
    levels, t, f = tables.shape
    res = np.asarray(cfg.level_resolutions()[:levels], dtype=x.dtype)
    # The gather is where a shard's memory peaks, so each index temporary
    # is dropped as soon as it was used. With the malloc thresholds that
    # `spatial` sets, this gave `render_corridor` and `train_corridor` a
    # peak RSS ~3 MB lower than dropping them all just before the gather
    # (in all of 6 and 3 perfbench runs, 2 CPUs).
    pos = x.T[:, None, :] * res[:, None]                      # (3, L, n)
    floor = np.floor(pos)
    frac = pos - floor                                        # in [0, 1)
    del pos
    weights = _corner_weights(frac, np.empty((levels, n, 8), dtype=x.dtype))

    base = floor.astype(np.uint32)                            # in [0, r_l]
    del floor
    mask = np.uint32(t - 1)
    # (a xor b) & m == (a & m) xor (b & m)
    keys = [[((base[a] + np.uint32(b)) * HASH_PRIMES[a]) & mask
             for b in (0, 1)] for a in range(3)]
    del base
    rows = _per_corner(np.bitwise_xor, *keys,
                       out=np.empty((levels, n, 8), dtype=np.uint32))
    del keys
    # Adding the level offsets also widens the rows: take and bincount are
    # slower on 32-bit indices.
    idx = np.add(rows, (np.arange(levels, dtype=np.int64) * t)[:, None, None],
                 dtype=np.int64)
    del rows

    vals = np.take(tables.reshape(levels * t, f), idx, axis=0)  # (L, n, 8, F)
    features = (weights[..., None, :] @ vals)[:, :, 0, :]
    cache = {"idx": idx, "frac": frac, "res": res, "tables": tables}
    return features.transpose(1, 0, 2).reshape(n, levels * f), cache


def hash_encode_backward(cache, upstream: np.ndarray, cfg: EncodingConfig):
    """d/dx of `hash_encode_forward` under the feature gradients `upstream`
    (n, L*F). Level by level, the corner values are gathered again and the
    weight gradients (n, 8, 3) rebuilt from the cached `frac` and `res`."""
    idx, frac = cache["idx"], cache["frac"]
    levels, n = idx.shape[:2]
    f = cfg.features_per_level
    table = cache["tables"].reshape(-1, f)
    dy = upstream.reshape(n, levels, f).transpose(1, 0, 2)    # (L, n, F)
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
        vals = np.take(table, idx[level], axis=0)             # (n, 8, F)
        # Per point (8, F) @ (F, 1), then (1, 8) @ (8, 3): the matmul shapes
        # fix how the sums round, so d/dx matches the level-by-level form.
        val_dot = (vals @ dy[level][..., None])[..., 0]       # (n, 8)
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

    planes: (3, M, M, C). Returns (features (n, C), cache); the cache keeps
    each plane's corner rows, weights and offsets, the samples and a
    reference to `planes`.
    """
    m = cfg.planar_resolution
    samples = []
    corners = []
    for p, (au, av) in enumerate(_PLANE_AXES):
        uv = x[:, (au, av)]
        flat, weights, frac = _bilinear_setup(uv, m)
        table = planes[p].reshape(m * m, -1)                       # (M*M, C)
        vals = np.take(table, flat, axis=0)                        # (n, 4, C)
        samples.append((weights[:, None, :] @ vals)[:, 0, :])
        corners.append((flat, weights, frac, au, av))
    features = samples[0] * samples[1] * samples[2]
    return features, {"samples": samples, "corners": corners,
                      "planes": planes, "n": x.shape[0]}


def planar_encode_backward(cache, upstream: np.ndarray, cfg: EncodingConfig):
    """Product rule across the three planes. Returns (d/dx, d/d samples),
    the latter (n, 3C) plane by plane. The corner values are gathered again;
    the weight gradients du, dv come from the cached offsets."""
    m = cfg.planar_resolution
    s0, s1, s2 = cache["samples"]
    others = [s1 * s2, s0 * s2, s0 * s1]
    dx = np.zeros((cache["n"], 3), dtype=upstream.dtype)
    dsamples = []
    for p, (flat, _, frac, au, av) in enumerate(cache["corners"]):
        dsample = upstream * others[p]                             # (n, C)
        vals = np.take(cache["planes"][p].reshape(m * m, -1), flat, axis=0)
        fu, fv = frac[:, 0], frac[:, 1]
        du = np.stack([-(1 - fv), (1 - fv), -fv, fv], axis=1) * (m - 1)
        dv = np.stack([-(1 - fu), -fu, (1 - fu), fu], axis=1) * (m - 1)
        val_dot = (vals @ dsample[:, :, None])[:, :, 0]            # (n, 4)
        dx[:, au] += (val_dot * du).sum(axis=1)
        dx[:, av] += (val_dot * dv).sum(axis=1)
        dsamples.append(dsample)
    return dx, np.concatenate(dsamples, axis=1)


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
    masked output is bit-identical to the unmasked one. A block of weight 0
    is not encoded: its columns are zeros, its cache entry is None (planar)
    or absent (the hash cache covers the live levels[:live] only).
    Returns (features (n, planar_channels + levels*F), cache).
    """
    if alpha is None:
        w_hash, w_planar = np.ones(cfg.levels), 1.0
    else:
        w_hash, w_planar = mask_weights(alpha, cfg)
    live = int(np.count_nonzero(w_hash))        # a prefix: see module doc
    n, f = x.shape[0], cfg.features_per_level
    dtype = np.result_type(x, planes, tables)
    planar_cache = None
    if w_planar == 0.0:
        planar_feat = np.zeros((n, cfg.planar_channels), dtype)
    else:
        planar_feat, planar_cache = planar_encode_forward(x, planes, cfg)
        if w_planar != 1.0:
            planar_feat *= w_planar
    hash_feat, hash_cache = hash_encode_forward(x, tables[:live], cfg)
    for level in range(live):
        if w_hash[level] != 1.0:
            hash_feat[:, level * f:(level + 1) * f] *= w_hash[level]
    masked = np.zeros((n, (cfg.levels - live) * f), dtype)
    features = np.concatenate([planar_feat, hash_feat, masked], axis=1)
    cache = {"planar": planar_cache, "hash": hash_cache,
             "w_hash": w_hash, "w_planar": w_planar}
    return features, cache


def encode_backward(cache, upstream: np.ndarray, cfg: EncodingConfig):
    """Backward of `encode_forward` up to, not into, the tables.

    Returns (d/dx (n, 3), table upstream (n, 3C + L*F)): the gradient of
    each plane's bilinear sample, then of each hash level's blend, c2f mask
    applied. `table_scatters` turns the table upstream into table
    gradients; a frozen field drops it. A block the forward skipped adds
    nothing to d/dx, and its table upstream is zeros.
    """
    c, f = cfg.planar_channels, cfg.features_per_level
    live = len(cache["hash"]["res"])
    up_hash = upstream[:, c:c + live * f].copy()
    for level in range(live):
        up_hash[:, level * f:(level + 1) * f] *= cache["w_hash"][level]
    dx = hash_encode_backward(cache["hash"], up_hash, cfg)
    n = upstream.shape[0]
    if cache["planar"] is None:
        d_samples = np.zeros((n, 3 * c), up_hash.dtype)
    else:
        up_planar = upstream[:, :c] * float(cache["w_planar"])
        dx_p, d_samples = planar_encode_backward(cache["planar"], up_planar,
                                                 cfg)
        dx = dx_p + dx
    masked = np.zeros((n, (cfg.levels - live) * f), up_hash.dtype)
    return dx, np.concatenate([d_samples, up_hash, masked], axis=1)


def _cat(arrays: list[np.ndarray], axis: int = 0) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _planar_scatter(caches, dsample, grad_plane, plane: int, m: int) -> None:
    """Add one plane's gradient: one bincount per channel over the corner
    rows of every piece."""
    flat = _cat([k["corners"][plane][0] for k in caches]).reshape(-1)
    weights = _cat([k["corners"][plane][1] for k in caches])
    contrib = weights[:, :, None] * dsample[:, None, :]            # (n, 4, C)
    gp = grad_plane.reshape(m * m, -1)
    for ch in range(gp.shape[1]):
        gp[:, ch] += np.bincount(flat, weights=contrib[:, :, ch].reshape(-1),
                                 minlength=m * m)


def _hash_scatter(caches, dy, grad_tables, level: int, t: int) -> None:
    """Add one hash level's gradient: one bincount per channel over the
    level's corner rows (which lie in [level*T, (level+1)*T)) of every
    piece, with the corner weights rebuilt from the offsets."""
    rows = _cat([k["idx"][level] for k in caches]).reshape(-1)
    frac = _cat([k["frac"][:, level] for k in caches], axis=1)    # (3, n)
    weights = _corner_weights(frac, np.empty((frac.shape[1], 8), frac.dtype))
    for ch in range(dy.shape[1]):
        contrib = weights * dy[:, ch, None]                       # (n, 8)
        grad_tables[level, :, ch] += np.bincount(
            rows, weights=contrib.reshape(-1),
            minlength=(level + 1) * t)[level * t:]


def table_scatters(caches: list, table_up: np.ndarray,
                   grad_planes: np.ndarray, grad_tables: np.ndarray,
                   cfg: EncodingConfig) -> list:
    """The table gradients of a batch that was encoded in pieces, as
    independent tasks.

    `caches` are the `encode_forward` caches of consecutive pieces of the
    batch, and `table_up` stacks, in the same order, the table upstreams
    that `encode_backward` returned for them. Returns one zero-argument
    callable per plane and per hash level; each adds into its own slice of
    `grad_planes` (3, M, M, C) or `grad_tables` (L, T, F), so they may run
    at once. Each bincount runs over the whole batch in point order, so the
    sums do not depend on how the batch was cut. A block of c2f weight 0
    gets no task: its gradient is zero, and its slice is left as it is.
    """
    c, f = cfg.planar_channels, cfg.features_per_level
    planar = [k["planar"] for k in caches]
    hashed = [k["hash"] for k in caches]
    tasks = []
    if planar[0] is not None:
        tasks += [partial(_planar_scatter, planar,
                          table_up[:, p * c:(p + 1) * c], grad_planes[p], p,
                          cfg.planar_resolution)
                  for p in range(3)]
    first = 3 * c
    tasks += [partial(_hash_scatter, hashed,
                      table_up[:, first + l * f:first + (l + 1) * f],
                      grad_tables, l, cfg.hash_table_size)
              for l in range(len(hashed[0]["res"]))]
    return tasks
