"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (series summation, linear
scans, double loops, finite differences) and shares no code with the
library paths it checks. There are two exceptions: `edge_chamfer`, a
one-edge view of the library's graph loss for the tests that check a single
pair of frames, and `reference_masked_encoding`, which runs the library's
planar encoder and mask weights to check which blocks the c2f mask skips.
"""

import numpy as np

from geonlf.cloud import RangeImage
from geonlf.encoding import (mask_weights, planar_encode_backward,
                             planar_encode_forward)
from geonlf.geometry import so3_exp
from geonlf.rcd import build_graph, graph_loss
from geonlf.scene import Box, Cylinder, Rect, Sphere


def skew(v):
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def series_so3_exp(phi, terms=20):
    """Truncated power series sum_n [phi]x^n / n!."""
    k = skew(np.asarray(phi, float))
    out = np.zeros((3, 3))
    acc = np.eye(3)
    fact = 1.0
    for n in range(terms):
        if n > 0:
            acc = acc @ k
            fact *= n
        out += acc / fact
    return out


def series_so3_left_jacobian(phi, terms=20):
    """Truncated series sum_n [phi]x^n / (n+1)!."""
    k = skew(np.asarray(phi, float))
    out = np.zeros((3, 3))
    acc = np.eye(3)
    fact = 1.0
    for n in range(terms):
        if n > 0:
            acc = acc @ k
        fact *= (n + 1)
        out += acc / fact
    return out


def series_se3_exp(rho, phi, terms=20):
    """Truncated series of the 4x4 twist exponential."""
    xi_hat = np.zeros((4, 4))
    xi_hat[:3, :3] = skew(np.asarray(phi, float))
    xi_hat[:3, 3] = np.asarray(rho, float)
    out = np.zeros((4, 4))
    acc = np.eye(4)
    fact = 1.0
    for n in range(terms):
        if n > 0:
            acc = acc @ xi_hat
            fact *= n
        out += acc / fact
    return out


def se3_full_exp(xi):
    """Full SE(3) exponential of an Se3Param: rotation exp([phi]x), and
    translation V rho with V = I + (1 - cos t)/t^2 [phi]x
    + (t - sin t)/t^3 [phi]x^2 in closed form, t = |phi|. The library's
    decoupled map drops V. The rotation block is the library's so3_exp, so
    that it compares bit for bit with `se3_decoupled`."""
    phi = np.asarray(xi.phi, float)
    theta = np.linalg.norm(phi)
    v = np.eye(3)
    if theta > 0.0:
        k = skew(phi)
        v = (v + (1.0 - np.cos(theta)) / theta ** 2 * k
             + (theta - np.sin(theta)) / theta ** 3 * (k @ k))
    t = np.eye(4)
    t[:3, :3] = so3_exp(phi)
    t[:3, 3] = v @ np.asarray(xi.rho, float)
    return t


def uniform_distances(n, t_near, t_far, num_samples, rng=None):
    """(n, num_samples) sample distances in equal strata of
    [t_near, t_far]: the midpoints, or offsets from one
    rng.random((n, num_samples)) draw."""
    jitter = 0.5 if rng is None else rng.random((n, num_samples))
    frac = (np.arange(num_samples) + jitter) / num_samples
    return np.broadcast_to(t_near + frac * (t_far - t_near),
                           (n, num_samples))


def linear_scan_nearest(points, query):
    """Exact nearest neighbor with the lowest-index tie rule."""
    d2 = ((points - query) ** 2).sum(axis=1)
    best = d2.min()
    idx = int(np.nonzero(d2 == best)[0][0])
    return idx, float(np.sqrt(best))


def replay_outliers(rows, num_frames, k, cfg, decay=0.9):
    """Replay the global rows of a `train` log through a per-frame moving
    average of the 2D loss: a frame's first loss is stored, each later one
    folded in as decay * old + (1 - decay) * new. Yields (row, the
    averages, the k frames of largest average with ties to lower ids)
    after each global row, with None for the frames until every frame has
    been seen."""
    ema = [0.0] * num_frames
    seen = [False] * num_frames
    for row in rows:
        if row["phase"] != "global":
            continue
        f = row["frame"]
        loss = (cfg.lambda_depth * row["depth"]
                + cfg.lambda_intensity * row["intensity"]
                + cfg.lambda_raydrop * row["raydrop"])
        ema[f] = decay * ema[f] + (1.0 - decay) * loss if seen[f] else loss
        seen[f] = True
        top = sorted(range(num_frames), key=lambda i: (-ema[i], i))[:k]
        yield row, list(ema), set(top) if all(seen) else None


def edge_chamfer(cloud_p, cloud_q, xi_p, xi_q, cfg, t, trees=None):
    """The robust Chamfer term of one pair of posed frames: `graph_loss`
    on the one-edge graph build_graph(2, 1), whose denominator is 1.
    Returns (loss, grad_xi_p, grad_xi_q), each gradient a 6-vector
    (d rho, d phi)."""
    loss, grads = graph_loss([cloud_p, cloud_q], [xi_p, xi_q],
                             build_graph(2, 1), cfg, t, trees)
    return loss, grads[0], grads[1]


def graph_denominator(num_frames: int, window: int) -> int:
    """Closed-form edge count of build_graph(num_frames, window) for a
    window below num_frames: n*M - n*(n+1)/2."""
    return window * num_frames - window * (window + 1) // 2


def brute_chamfer(a, b):
    """Symmetric mean squared nearest-neighbor distance, double loop."""
    d2_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(d2_ab.min(axis=1).mean() + d2_ab.min(axis=0).mean())


def brute_fscore(a, b, threshold):
    d2_ab = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    prec = float((np.sqrt(d2_ab.min(axis=1)) <= threshold).mean())
    rec = float((np.sqrt(d2_ab.min(axis=0)) <= threshold).mean())
    if prec + rec == 0.0:
        return 0.0
    return 2 * prec * rec / (prec + rec)


def numeric_gradient(fun, x0, h=1e-6):
    """Central finite differences of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def voxel_groups(points, voxel):
    """Hash-map reference grouping for voxel downsampling."""
    groups = {}
    for p in points:
        key = tuple(np.floor(p / voxel).astype(np.int64))
        groups.setdefault(key, []).append(p)
    out = {}
    for key, members in groups.items():
        out[key] = np.mean(members, axis=0)
    return out



def unique_voxel_downsample(points, intensity, voxel):
    """Voxel centroids numbered by np.unique over (z, y, x) cell rows: the
    earlier library implementation, kept as a bit-for-bit reference."""
    keys = np.floor(points / voxel).astype(np.int64)
    uniq, inverse = np.unique(keys[:, ::-1], axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    counts = np.bincount(inverse, minlength=uniq.shape[0]).astype(np.float64)
    centroids = np.zeros((uniq.shape[0], 3))
    for axis in range(3):
        centroids[:, axis] = np.bincount(inverse, weights=points[:, axis],
                                         minlength=uniq.shape[0])
    centroids /= counts[:, None]
    if intensity is None:
        return centroids, None
    return centroids, np.bincount(inverse, weights=intensity,
                                  minlength=uniq.shape[0]) / counts

# Reference hash-grid encoder: level by level, an (n, 8, 3) corner array
# hashed elementwise with a modulo, and the weight gradients formed in the
# forward pass.
HASH_PRIMES = (np.uint64(1), np.uint64(2654435761), np.uint64(805459861))
CORNERS = np.array([[b0, b1, b2]
                    for b0 in (0, 1) for b1 in (0, 1) for b2 in (0, 1)],
                   dtype=np.int64)


def hash_corner_indices(cells, table_size):
    """Spatial hash (i*p1 xor j*p2 xor k*p3) mod table_size, elementwise."""
    cells = cells.astype(np.uint64)
    h = (cells[..., 0] * HASH_PRIMES[0]
         ^ cells[..., 1] * HASH_PRIMES[1]
         ^ cells[..., 2] * HASH_PRIMES[2])
    return (h % np.uint64(table_size)).astype(np.int64)


def trilinear_setup(x, resolution):
    """Corner cells (n, 8, 3), weights (n, 8) and weight gradients (n, 8, 3)
    at one level, in the dtype of x."""
    pos = x * np.asarray(resolution, dtype=x.dtype)
    floor = np.floor(pos)
    base = floor.astype(np.int64)
    frac = pos - floor
    corners = base[:, None, :] + CORNERS[None, :, :]

    n = x.shape[0]
    one = 1.0 - frac
    w_ax = (np.stack([one[:, 0], frac[:, 0]]),
            np.stack([one[:, 1], frac[:, 1]]),
            np.stack([one[:, 2], frac[:, 2]]))
    weights = np.empty((n, 8), dtype=x.dtype)
    grads = np.empty((n, 8, 3), dtype=x.dtype)
    for k, bits in enumerate(CORNERS):
        factors = [w_ax[a][b] for a, b in enumerate(bits)]
        weights[:, k] = (factors[0] * factors[1]) * factors[2]
        for a in range(3):
            # d/dx_a: the axis' factor (1 - f, f) becomes (-r, r).
            g = list(factors)
            g[a] = int(2 * bits[a] - 1) * resolution
            grads[:, k, a] = (g[0] * g[1]) * g[2]
    return corners, weights, grads


def reference_hash_encode(x, tables, resolutions):
    """Features (n, L*F) and per-level (idx, weights, wgrads, vals), where
    idx indexes the level's own table. Each level's blend adds its corners
    one by one, k = 4*b0 + 2*b1 + b2, from zero."""
    n, (_, table_size, f) = x.shape[0], tables.shape
    features = np.empty((n, len(resolutions) * f), dtype=x.dtype)
    levels = []
    for level, res in enumerate(resolutions):
        corners, weights, wgrads = trilinear_setup(x, res)
        idx = hash_corner_indices(corners, table_size)
        vals = tables[level][idx]
        blend = np.zeros((n, f), dtype=x.dtype)
        for k in range(8):
            blend += weights[:, k, None] * vals[:, k]
        features[:, level * f:(level + 1) * f] = blend
        levels.append((idx, weights, wgrads, vals))
    return features, levels


def corner_scatter(rows, contrib, size):
    """Float64 sums of `contrib` (n, K) into `size` bins at `rows` (n, K),
    added one entry at a time: corner by corner, each corner's points in
    order."""
    acc = np.zeros(size)
    for k in range(rows.shape[1]):
        np.add.at(acc, rows[:, k], contrib[:, k].astype(np.float64))
    return acc


def reference_hash_backward(levels, upstream, grad_tables):
    """Scatter into grad_tables level by level and channel by channel;
    return d/dx. Each corner's value dot the level's upstream is summed
    channel by channel; d/dx adds the corners' terms in corner order per
    level, then the levels in order."""
    f = grad_tables.shape[2]
    dx = np.zeros((upstream.shape[0], 3), dtype=upstream.dtype)
    for level, (idx, weights, wgrads, vals) in enumerate(levels):
        dy = upstream[:, level * f:(level + 1) * f]
        for ch in range(f):
            grad_tables[level, :, ch] += corner_scatter(
                idx, weights * dy[:, ch, None], grad_tables.shape[1])
        val_dot = vals[:, :, 0] * dy[:, None, 0]
        for ch in range(1, f):
            val_dot += vals[:, :, ch] * dy[:, None, ch]
        level_dx = np.zeros_like(dx)
        for k in range(8):
            level_dx += val_dot[:, k, None] * wgrads[:, k]
        dx += level_dx
    return dx


def reference_masked_encoding(x, planes, tables, cfg, alpha, upstream):
    """The c2f-masked hybrid encoder computed in full: every block is
    encoded, differentiated and scattered, and then scaled by its c2f
    weight, 0 included. Returns (features, d/dx, plane gradients, table
    gradients) of the batch x under the feature gradients `upstream`.

    A block of weight 0 scales its negative features to -0.0 here, where
    an encoder that skips the block writes +0.0; every other bit agrees.
    """
    if alpha is None:
        w_hash, w_planar = np.ones(cfg.levels), 1.0
    else:
        w_hash, w_planar = mask_weights(alpha, cfg)
    c, f = cfg.planar_channels, cfg.features_per_level
    planar_feat, planar_cache = planar_encode_forward(x, planes, cfg)
    hash_feat, levels = reference_hash_encode(x, tables,
                                              cfg.level_resolutions())
    if w_planar != 1.0:
        planar_feat *= w_planar
    for level in range(cfg.levels):
        if w_hash[level] != 1.0:
            hash_feat[:, level * f:(level + 1) * f] *= w_hash[level]
    features = np.concatenate([planar_feat, hash_feat], axis=1)

    up_planar = upstream[:, :c] * float(w_planar)
    up_hash = upstream[:, c:].copy()
    for level in range(cfg.levels):
        up_hash[:, level * f:(level + 1) * f] *= w_hash[level]
    dx_p, d_samples = planar_encode_backward(planar_cache, up_planar.T, cfg)
    grad_tables = np.zeros(tables.shape)
    dx_h = reference_hash_backward(levels, up_hash, grad_tables)
    grad_planes = np.zeros(planes.shape)
    m = cfg.planar_resolution
    for p in range(3):
        rows = planar_cache["rows"][p].T                           # (n, 4)
        fu, fv = planar_cache["frac"][p]
        weights = np.stack([wu * wv for wu in (1.0 - fu, fu)
                            for wv in (1.0 - fv, fv)], axis=1)
        gp = grad_planes[p].reshape(m * m, c)
        for ch in range(c):
            gp[:, ch] += corner_scatter(
                rows, weights * d_samples[p, ch, :, None], m * m)
    return features, dx_p + dx_h, grad_planes, grad_tables


def pointwise_encoding_gradients(x, planes, tables, cfg, upstream):
    """d/dx, plane gradients and table gradients of sum(features *
    upstream) for the unmasked hybrid encoder, one point, level, plane and
    corner at a time in float64 Python arithmetic: no sum is vectorised,
    so none shares a summation order with the library."""
    x, planes, tables, upstream = (np.asarray(a, np.float64)
                                   for a in (x, planes, tables, upstream))
    c, f, m = cfg.planar_channels, cfg.features_per_level, cfg.planar_resolution
    dx = np.zeros(x.shape)
    g_planes = np.zeros(planes.shape)
    g_tables = np.zeros(tables.shape)
    axes = ((0, 1), (0, 2), (1, 2))
    for i, point in enumerate(x):
        cells, samples = [], []
        for p, (au, av) in enumerate(axes):
            uv = point[[au, av]] * (m - 1)
            base = [min(max(int(np.floor(u)), 0), m - 2) for u in uv]
            fr = [u - b for u, b in zip(uv, base)]
            corners = []
            sample = np.zeros(c)
            for bu in (0, 1):
                for bv in (0, 1):
                    wu = fr[0] if bu else 1.0 - fr[0]
                    wv = fr[1] if bv else 1.0 - fr[1]
                    val = planes[p, base[0] + bu, base[1] + bv]
                    sample += wu * wv * val
                    corners.append((bu, bv, wu, wv, val))
            cells.append((base, corners))
            samples.append(sample)
        for p, (au, av) in enumerate(axes):
            d_sample = upstream[i, :c].copy()
            for q in range(3):
                if q != p:
                    d_sample *= samples[q]
            base, corners = cells[p]
            for bu, bv, wu, wv, val in corners:
                g_planes[p, base[0] + bu, base[1] + bv] += wu * wv * d_sample
                val_dot = float(val @ d_sample)
                dx[i, au] += val_dot * (1.0 if bu else -1.0) * wv * (m - 1)
                dx[i, av] += val_dot * (1.0 if bv else -1.0) * wu * (m - 1)
        for level, res in enumerate(cfg.level_resolutions()):
            pos = point * res
            base = np.floor(pos).astype(np.int64)
            fr = pos - base
            dy = upstream[i, c + level * f:c + (level + 1) * f]
            for bits in CORNERS:
                w = [fr[a] if bits[a] else 1.0 - fr[a] for a in range(3)]
                row = hash_corner_indices((base + bits)[None],
                                          tables.shape[1])[0]
                g_tables[level, row] += w[0] * w[1] * w[2] * dy
                val_dot = float(tables[level, row] @ dy)
                for a in range(3):
                    b, d = [o for o in range(3) if o != a]
                    dx[i, a] += (val_dot * (1.0 if bits[a] else -1.0)
                                 * w[b] * w[d] * res)
    return dx, g_planes, g_tables


# Scene geometry checks: the distance of points to the analytic surfaces,
# and the spherical projection that `unproject` inverts.

def _primitive_residual(prim, pts):
    """Distance of each point to the surface of one scene primitive."""
    if isinstance(prim, Rect):
        return np.abs((pts - prim.point) @ prim.normal)
    if isinstance(prim, Box):
        local = np.abs((pts - prim.center) @ prim.rotation)
        return np.abs(local - prim.half_extents).min(axis=1)
    if isinstance(prim, Sphere):
        return np.abs(np.linalg.norm(pts - prim.center, axis=1) - prim.radius)
    if isinstance(prim, Cylinder):
        rel = pts - prim.base
        perp = rel - (rel @ prim.axis)[:, None] * prim.axis
        return np.abs(np.linalg.norm(perp, axis=1) - prim.radius)
    raise TypeError(f"no residual for {type(prim).__name__}")


def surface_residual(scene, pts):
    """Distance of each point to the nearest primitive surface of `scene`."""
    res = np.full(pts.shape[0], np.inf)
    for prim in scene.primitives:
        res = np.minimum(res, _primitive_residual(prim, pts))
    return res


def project_points(cloud, cfg):
    """Spherical projection of sensor-frame points into a range image of
    the scanner `cfg`; collisions keep the nearer point. The azimuth seam
    theta = pi wraps into column 0."""
    h, w = cfg.beams, cfg.azimuth_steps
    p = cloud.points
    r = np.linalg.norm(p, axis=1)
    ok = r > 0.0
    theta = np.arctan2(p[:, 1], p[:, 0])
    with np.errstate(invalid="ignore"):
        phi = np.arcsin(np.clip(np.where(ok, p[:, 2] / np.where(ok, r, 1.0), 0.0),
                                -1.0, 1.0))
    fov_up = np.deg2rad(cfg.fov_up_deg)
    fov_down = np.deg2rad(cfg.fov_down_deg)
    col = np.floor((theta + np.pi) / (2.0 * np.pi) * w).astype(np.int64) % w
    row = np.floor((fov_up - phi) / (fov_up - fov_down) * h).astype(np.int64)
    ok &= (row >= 0) & (row < h) & (r <= cfg.max_range)

    depth = np.full((h, w), -1.0)
    intensity = np.zeros((h, w))
    valid = np.zeros((h, w), dtype=bool)
    sel = np.nonzero(ok)[0]
    order = sel[np.argsort(-r[sel], kind="stable")]   # far first, near wins
    rows, cols = row[order], col[order]
    depth[rows, cols] = r[order]
    valid[rows, cols] = True
    if cloud.intensity is not None:
        intensity[rows, cols] = cloud.intensity[order]
    return RangeImage(depth, intensity, valid)


# The all-rays scene caster: every primitive intersects every ray, and the
# box uses the (n, 3) slab reduction. `Scene.cast` must match it bit for bit.

_EPS = 1e-9


def _rect_intersect(prim, origins, dirs):
    denom = dirs @ prim.normal
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((prim.point - origins) @ prim.normal) / denom
    rel = origins + t[:, None] * dirs - prim.point
    ok = (np.abs(denom) > _EPS) & (t > _EPS) \
        & (np.abs(rel @ prim.u_axis) <= prim.half_u) \
        & (np.abs(rel @ prim.v_axis) <= prim.half_v)
    t = np.where(ok, t, np.inf)
    return t, np.broadcast_to(prim.normal, dirs.shape)


def _box_intersect(prim, origins, dirs):
    ob = (origins - prim.center) @ prim.rotation
    db = dirs @ prim.rotation
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (-prim.half_extents - ob) / db
        t2 = (prim.half_extents - ob) / db
    lo = np.where(np.abs(db) > _EPS, np.minimum(t1, t2),
                  np.where(np.abs(ob) <= prim.half_extents, -np.inf, np.inf))
    hi = np.where(np.abs(db) > _EPS, np.maximum(t1, t2),
                  np.where(np.abs(ob) <= prim.half_extents, np.inf, -np.inf))
    t_enter = lo.max(axis=1)
    t_exit = hi.min(axis=1)
    ok = (t_enter <= t_exit) & (t_enter > _EPS)
    t = np.where(ok, t_enter, np.inf)
    axis = lo.argmax(axis=1)
    sign = -np.sign(np.take_along_axis(db, axis[:, None], axis=1)[:, 0])
    n_box = np.zeros_like(dirs)
    n_box[np.arange(dirs.shape[0]), axis] = np.where(sign == 0.0, 1.0, sign)
    return t, n_box @ prim.rotation.T


def _sphere_intersect(prim, origins, dirs):
    oc = origins - prim.center
    b = np.einsum("ni,ni->n", dirs, oc)
    c = np.einsum("ni,ni->n", oc, oc) - prim.radius ** 2
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    t0 = -b - sq
    t1 = -b + sq
    t = np.where(t0 > _EPS, t0, np.where(t1 > _EPS, t1, np.inf))
    t = np.where(disc >= 0.0, t, np.inf)
    hits = origins + t[:, None] * dirs
    with np.errstate(invalid="ignore"):
        normals = (hits - prim.center) / prim.radius
    return t, np.nan_to_num(normals)


def _cylinder_intersect(prim, origins, dirs):
    oc = origins - prim.base
    d_par = dirs @ prim.axis
    o_par = oc @ prim.axis
    d_perp = dirs - d_par[:, None] * prim.axis
    o_perp = oc - o_par[:, None] * prim.axis
    a = np.einsum("ni,ni->n", d_perp, d_perp)
    b = np.einsum("ni,ni->n", d_perp, o_perp)
    c = np.einsum("ni,ni->n", o_perp, o_perp) - prim.radius ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        t0 = (-b - sq) / a
        t1 = (-b + sq) / a
    axial0 = np.abs(o_par + t0 * d_par) <= prim.half_height
    axial1 = np.abs(o_par + t1 * d_par) <= prim.half_height
    pick0 = (t0 > _EPS) & axial0
    pick1 = (t1 > _EPS) & axial1
    t = np.where(pick0, t0, np.where(pick1, t1, np.inf))
    t = np.where((disc >= 0.0) & (a > _EPS), t, np.inf)
    with np.errstate(invalid="ignore"):
        hits = origins + t[:, None] * dirs
        rel = hits - prim.base
        perp = rel - (rel @ prim.axis)[:, None] * prim.axis
        normals = perp / prim.radius
    return t, np.nan_to_num(normals)


_INTERSECT = {Rect: _rect_intersect, Box: _box_intersect,
              Sphere: _sphere_intersect, Cylinder: _cylinder_intersect}


class AllRaysScene:
    """Duck-typed stand-in for `Scene` whose `cast` runs every primitive on
    every ray; `lidar_scan(AllRaysScene(prims), ...)` is the reference scan."""

    def __init__(self, primitives):
        self.primitives = primitives

    def cast(self, origin, dirs):
        origins = np.broadcast_to(origin, dirs.shape)
        n = dirs.shape[0]
        best_t = np.full(n, np.inf)
        best_n = np.zeros((n, 3))
        best_r = np.zeros(n)
        for prim in self.primitives:
            t, normals = _INTERSECT[type(prim)](prim, origins, dirs)
            closer = t < best_t
            best_t = np.where(closer, t, best_t)
            best_n[closer] = normals[closer]
            best_r[closer] = prim.reflectance
        return best_t, best_n, best_r
