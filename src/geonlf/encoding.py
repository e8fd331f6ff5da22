"""Positional encodings: multi-level hashed voxel grids, tri-planar grids,
and the coarse-to-fine level mask.

Each encoder has a batched forward that records a cache, and a backward
that returns gradients with respect to the input positions. The table
gradients are a separate step, `table_scatters`, which runs once over all
the pieces a batch was encoded in; the backward only hands it the
gradient of every plane sample and hash-level blend. Table gradients
accumulate in float64 regardless of the table dtype.

Both encoders work corner-major, as Instant-NGP's kernels do: for one
cell corner at a time, its rows and weights are contiguous arrays over
(level, point), each feature channel is gathered from a contiguous column
of the table, and its weighted values are added into the features. The
corners of a hash cell are k = 4*b0 + 2*b1 + b2 in their (x, y, z) bits,
those of a plane cell k = 2*b_u + b_v. The blend starts from zero and adds
the corners in that order, each product rounded once; d/dx adds its corner
terms in the same order; each table scatter's bincount takes its entries
corner by corner, each corner's points in batch order. No sum depends on
how a batch is cut into pieces or on the CPU count.

The hash grid follows Instant-NGP: the 8 corners of a point's cell at each
level hash to rows of a power-of-two table T by
(i*p1 xor j*p2 xor k*p3) & (T - 1), and all levels are gathered at once.
The forward caches the corner rows, the cell offsets `frac` and the
table's channel columns. Everything else the reverse pass needs, it
rebuilds bit for bit: the corner values (gathered again from the columns),
the corner weights and their gradients (from `frac`). A forward-only
caller never computes the weight gradients, and the cache stays small.
The planar encoder caches its rows, offsets, samples and columns the same
way.

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
from itertools import product

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


def _per_corner(op, pairs, out: np.ndarray) -> np.ndarray:
    """out[k] = op(...op(p0[b0], p1[b1])..., pd[bd]) over the corners k of
    a cell, whose bits read from the first axis down: k = 4*b0 + 2*b1 + b2
    for three axes, k = 2*b0 + b1 for two. `pairs` holds, axis by axis,
    the operands of bit 0 and of bit 1."""
    heads = list(pairs[0])
    for pair in pairs[1:-1]:
        heads = [op(h, a) for h in heads for a in pair]
    for k, (h, a) in enumerate(product(heads, pairs[-1])):
        op(h, a, out=out[k])
    return out


def _corner_weights(frac: np.ndarray) -> np.ndarray:
    """The multilinear weights (2^d, ...) of a cell's corners, corner-major,
    from the cell offsets `frac` (d, ...)."""
    return _per_corner(np.multiply, list(zip(1.0 - frac, frac)),
                       np.empty((2 ** len(frac), *frac.shape[1:]), frac.dtype))


def _weight_grads(frac: np.ndarray, scale) -> list[np.ndarray]:
    """Per axis a, the gradients (2^d, ...) of the corner weights along a,
    times `scale` (cells per unit): the weights with the factor
    (1 - f_a, f_a) replaced by (-scale, scale)."""
    w = list(zip(1.0 - frac, frac))
    return [_per_corner(np.multiply, [*w[:a], (-scale, scale), *w[a + 1:]],
                        np.empty((2 ** len(w), *frac.shape[1:]), frac.dtype))
            for a in range(len(w))]


def _gather_add(column: np.ndarray, rows: np.ndarray, factor: np.ndarray,
                acc: np.ndarray, value: np.ndarray) -> None:
    """acc += column[rows] * factor, the product rounded once."""
    # The rows are in range by construction; mode "wrap" lets `take` write
    # into `value` unbuffered, which "raise" does not.
    np.take(column, rows, out=value, mode="wrap")
    value *= factor
    acc += value


def _blend(columns: np.ndarray, rows: np.ndarray, weights: np.ndarray,
           out: np.ndarray) -> None:
    """out[c] += weights[k] * columns[c][rows[k]] for every channel c, the
    corners k added in order."""
    value = np.empty(rows.shape[1:], out.dtype)
    for k in range(len(rows)):
        for column, acc in zip(columns, out):
            _gather_add(column, rows[k], weights[k], acc, value)


def _add_position_grads(columns: np.ndarray, rows: np.ndarray, dy,
                        grads: list, acc) -> None:
    """acc[a] += val_dot_k * grads[a][k] over the corners k in order, where
    val_dot_k = columns[c][rows[k]] * dy[c] summed over the channels c in
    order: the gradient along each axis a of a blend under the feature
    gradients `dy`."""
    val_dot, value, term = (np.empty(rows.shape[1:], acc[0].dtype)
                            for _ in range(3))
    for k in range(len(rows)):
        val_dot[...] = 0.0
        for column, d in zip(columns, dy):
            _gather_add(column, rows[k], d, val_dot, value)
        for axis, g in zip(acc, grads):
            axis += np.multiply(val_dot, g[k], out=term)


def hash_encode_forward(x: np.ndarray, tables: np.ndarray, cfg: EncodingConfig):
    """Trilinear blend of 8 hashed corner features per level.

    x: (n, 3) in [0, 1]; tables: (L, T, F) with T a power of two, the
    first L <= cfg.levels levels (a view `tables[:L]` encodes those alone).
    Level l scales x by its cell count r_l (the corner lattice has r_l + 1
    sites per axis). Corner (i, j, k) of a cell reads row l*T + h of the
    flattened (L*T, F) table, h = (i*p1 xor j*p2 xor k*p3) & (T - 1) in
    wrapping uint32 arithmetic (the low bits kept by the mask are those of
    the exact products); the products are formed once per axis, and each
    corner's rows and weights are formed for all levels at once.
    Returns (features, cache), the features (n, L*F) a transposed view of
    a level-major (L*F, n) array. The cache holds, corner-major, the flat
    rows `idx` (8, L, n); the cell offsets `frac` (3, L, n) and resolutions
    `res` (L,); and the table as F contiguous flat `columns` (F, L*T). The
    reverse pass gathers the corner values from the columns again and
    rebuilds the corner weights and their gradients from `frac`.
    """
    n = x.shape[0]
    levels, t, f = tables.shape
    dtype = np.result_type(x, tables)
    res = np.asarray(cfg.level_resolutions()[:levels], dtype=x.dtype)
    # Each index temporary is dropped as soon as it was used, which keeps
    # a shard's peak memory down.
    pos = x.T[:, None, :] * res[:, None]                      # (3, L, n)
    floor = np.floor(pos)
    frac = pos - floor                                        # in [0, 1)
    del pos
    base = floor.astype(np.uint32)                            # in [0, r_l]
    del floor
    mask = np.uint32(t - 1)
    # (a xor b) & m == (a & m) xor (b & m)
    keys = [[((base[a] + np.uint32(b)) * HASH_PRIMES[a]) & mask
             for b in (0, 1)] for a in range(3)]
    del base
    rows = _per_corner(np.bitwise_xor, keys,
                       np.empty((8, levels, n), dtype=np.uint32))
    del keys
    # Adding the level offsets also widens the rows: take and bincount are
    # slower on 32-bit indices.
    idx = np.add(rows, (np.arange(levels, dtype=np.int64) * t)[:, None],
                 dtype=np.int64)
    del rows
    columns = np.ascontiguousarray(tables.reshape(-1, f).T, dtype=dtype)
    blend = np.zeros((levels, f, n), dtype)
    _blend(columns, idx, _corner_weights(frac), blend.transpose(1, 0, 2))
    cache = {"idx": idx, "frac": frac, "res": res, "columns": columns}
    return blend.reshape(levels * f, n).T, cache


def hash_encode_backward(cache, dy: np.ndarray, cfg: EncodingConfig):
    """d/dx (n, 3) of `hash_encode_forward` under the feature gradients
    `dy` (L*F, n), one row per feature column. Corner by corner in the
    forward's order, the values are gathered again, and their dot with dy
    times the corner weight's gradient, rebuilt from the cached `frac` and
    `res`, is added into each axis' sum; the levels are then added in
    order."""
    idx, frac, columns = cache["idx"], cache["frac"], cache["columns"]
    levels, n = frac.shape[1:]
    dy = dy.reshape(levels, len(columns), n)
    dtype = np.result_type(columns, dy, frac)
    acc = np.zeros((3, levels, n), dtype)
    _add_position_grads(columns.astype(dtype, copy=False), idx,
                        dy.transpose(1, 0, 2),
                        _weight_grads(frac, cache["res"][:, None]), acc)
    dx = np.zeros((3, n), dtype)
    for level in range(levels):
        dx += acc[:, level]
    return dx.T


_PLANE_AXES = ((0, 1), (0, 2), (1, 2))   # xy, xz, yz


def planar_encode_forward(x: np.ndarray, planes: np.ndarray,
                          cfg: EncodingConfig):
    """Channelwise product of bilinear samples from the xy, xz, yz planes.

    planes: (3, M, M, C), sampled align-corners (M - 1 cells per axis).
    A plane's corner (i, j) of a cell reads row i*M + j, its corners in
    the order k = 2*b_u + b_v. Returns (features, cache), the features
    (n, C) a transposed view of a channel-major array. The cache keeps,
    plane by plane, the corner rows `rows` (3, 4, n), the cell offsets
    `frac` (3, 2, n), the samples (3, C, n) and the planes as flat channel
    `columns` (3, C, M*M).
    """
    m = cfg.planar_resolution
    n, c = x.shape[0], planes.shape[3]
    dtype = np.result_type(x, planes)
    columns = np.ascontiguousarray(
        planes.reshape(3, m * m, c).transpose(0, 2, 1), dtype=dtype)
    rows = np.empty((3, 4, n), np.int64)
    frac = np.empty((3, 2, n), x.dtype)
    samples = np.zeros((3, c, n), dtype)
    for p, axes in enumerate(_PLANE_AXES):
        pos = x.T[list(axes)] * np.asarray(m - 1, dtype=x.dtype)   # (2, n)
        base_f = np.clip(np.floor(pos), 0.0, m - 2)
        np.subtract(pos, base_f, out=frac[p])
        bu, bv = base_f.astype(np.int64)
        _per_corner(np.add, ((bu * m, (bu + 1) * m), (bv, bv + 1)), rows[p])
        _blend(columns[p], rows[p], _corner_weights(frac[p]), samples[p])
    cache = {"rows": rows, "frac": frac, "samples": samples,
             "columns": columns}
    return (samples[0] * samples[1] * samples[2]).T, cache


def planar_encode_backward(cache, upstream: np.ndarray, cfg: EncodingConfig):
    """Product rule across the three planes, under the feature gradients
    `upstream` (C, n), one row per channel. Returns (d/dx (n, 3), d/d
    samples (3, C, n)). Plane by plane and corner by corner, the corner
    values are gathered again, and their dot with d/d sample times the
    corner weight's gradient, rebuilt from the cached offsets, is added
    into d/dx."""
    m = cfg.planar_resolution
    rows, frac, columns = cache["rows"], cache["frac"], cache["columns"]
    s0, s1, s2 = cache["samples"]
    d_samples = upstream * np.stack([s1 * s2, s0 * s2, s0 * s1])
    dtype = np.result_type(columns, d_samples, frac)
    columns = columns.astype(dtype, copy=False)
    dx = np.zeros((3, rows.shape[2]), dtype)
    for p, (au, av) in enumerate(_PLANE_AXES):
        _add_position_grads(columns[p], rows[p], d_samples[p],
                            _weight_grads(frac[p], m - 1), (dx[au], dx[av]))
    return dx.T, d_samples


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
    Returns (features (n, planar_channels + levels*F), cache): each
    encoder's output is written into its columns, with no concatenation.
    """
    if alpha is None:
        w_hash, w_planar = np.ones(cfg.levels), 1.0
    else:
        w_hash, w_planar = mask_weights(alpha, cfg)
    live = int(np.count_nonzero(w_hash))        # a prefix: see module doc
    n, c, f = x.shape[0], cfg.planar_channels, cfg.features_per_level
    features = np.zeros((n, cfg.feature_dim),
                        np.result_type(x, planes, tables))
    planar_cache = None
    if w_planar != 0.0:
        features[:, :c], planar_cache = planar_encode_forward(x, planes, cfg)
        if w_planar != 1.0:
            features[:, :c] *= w_planar
    hash_feat = features[:, c:c + live * f]
    hash_feat[...], hash_cache = hash_encode_forward(x, tables[:live], cfg)
    for level in range(live):
        if w_hash[level] != 1.0:
            hash_feat[:, level * f:(level + 1) * f] *= w_hash[level]
    cache = {"planar": planar_cache, "hash": hash_cache,
             "w_hash": w_hash, "w_planar": w_planar}
    return features, cache


def encode_backward(cache, upstream: np.ndarray, cfg: EncodingConfig):
    """Backward of `encode_forward` up to, not into, the tables.

    Returns (d/dx (n, 3), table upstream (3C + L*F, n)): one row per
    channel of the gradient of each plane's bilinear sample, then of each
    hash level's blend, c2f mask applied. `table_scatters` turns the table
    upstream into table gradients; a frozen field drops it. A block the
    forward skipped adds nothing to d/dx, and its table upstream is zeros.
    """
    c, f = cfg.planar_channels, cfg.features_per_level
    live = len(cache["hash"]["res"])
    n = upstream.shape[0]
    table_up = np.zeros((3 * c + cfg.levels * f, n), upstream.dtype)
    dy = table_up[3 * c:3 * c + live * f]
    np.multiply(upstream[:, c:c + live * f].T,
                np.repeat(cache["w_hash"][:live], f)[:, None], out=dy)
    dx = hash_encode_backward(cache["hash"], dy, cfg)
    if cache["planar"] is not None:
        up_planar = upstream[:, :c].T * float(cache["w_planar"])
        dx_p, d_samples = planar_encode_backward(cache["planar"], up_planar,
                                                 cfg)
        table_up[:3 * c] = d_samples.reshape(3 * c, n)
        dx = dx_p + dx
    return dx, table_up


def _scatter(rows: list, frac: list, dy: np.ndarray, grad: np.ndarray,
             lo: int) -> None:
    """grad[:, c] += the bincount of the corner rows - lo, weighted by each
    corner's weight, rebuilt from the offsets, times dy[c]. `rows`
    (2^d, n_i) and `frac` (d, n_i) list the pieces of the batch in order.
    One bincount per channel runs over the entries corner by corner, each
    corner's points in batch order."""
    rows = np.concatenate(rows, axis=-1).reshape(-1)
    weights = _corner_weights(np.concatenate(frac, axis=-1))
    for ch, d in enumerate(dy):
        grad[:, ch] += np.bincount(rows, weights=(weights * d).reshape(-1),
                                   minlength=lo + len(grad))[lo:]


def table_scatters(caches: list, table_up: np.ndarray,
                   grad_planes: np.ndarray, grad_tables: np.ndarray,
                   cfg: EncodingConfig) -> list:
    """The table gradients of a batch that was encoded in pieces, as
    independent tasks.

    `caches` are the `encode_forward` caches of consecutive pieces of the
    batch, and `table_up` joins, in the same order along its point axis,
    the table upstreams (3C + L*F, n_i) that `encode_backward` returned for
    them. Returns one zero-argument callable per plane and per hash level;
    each adds into its own slice of `grad_planes` (3, M, M, C) or
    `grad_tables` (L, T, F), so they may run at once. Each bincount runs
    over the whole batch, corner-major, so the sums do not depend on how
    the batch was cut. A block of c2f weight 0 gets no task: its gradient
    is zero, and its slice is left as it is.
    """
    c, f, m = cfg.planar_channels, cfg.features_per_level, cfg.planar_resolution
    t = cfg.hash_table_size
    planar = [k["planar"] for k in caches]
    hashed = [k["hash"] for k in caches]
    tasks = []
    if planar[0] is not None:
        tasks += [partial(_scatter, [k["rows"][p] for k in planar],
                          [k["frac"][p] for k in planar],
                          table_up[p * c:(p + 1) * c],
                          grad_planes[p].reshape(m * m, c), 0)
                  for p in range(3)]
    first = 3 * c
    tasks += [partial(_scatter, [k["idx"][:, l] for k in hashed],
                      [k["frac"][:, l] for k in hashed],
                      table_up[first + l * f:first + (l + 1) * f],
                      grad_tables[l], l * t)
              for l in range(len(hashed[0]["res"]))]
    return tasks
