"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force (series summation, linear
scans, double loops, finite differences) and shares no code with the
library paths it checks.
"""

import numpy as np

from geonlf.geometry import so3_exp


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


def linear_scan_nearest(points, query):
    """Exact nearest neighbor with the lowest-index tie rule."""
    d2 = ((points - query) ** 2).sum(axis=1)
    best = d2.min()
    idx = int(np.nonzero(d2 == best)[0][0])
    return idx, float(np.sqrt(best))


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
    for k, (b0, b1, b2) in enumerate(CORNERS):
        w01 = w_ax[0][b0] * w_ax[1][b1]
        weights[:, k] = w01 * w_ax[2][b2]
        s0, s1, s2 = 2 * b0 - 1, 2 * b1 - 1, 2 * b2 - 1
        grads[:, k, 0] = s0 * (w_ax[1][b1] * w_ax[2][b2])
        grads[:, k, 1] = s1 * (w_ax[0][b0] * w_ax[2][b2])
        grads[:, k, 2] = s2 * w01
    grads *= resolution
    return corners, weights, grads


def reference_hash_encode(x, tables, resolutions):
    """Features (n, L*F) and per-level (idx, weights, wgrads, vals), where
    idx indexes the level's own table."""
    n, (_, table_size, f) = x.shape[0], tables.shape
    features = np.empty((n, len(resolutions) * f), dtype=x.dtype)
    levels = []
    for level, res in enumerate(resolutions):
        corners, weights, wgrads = trilinear_setup(x, res)
        idx = hash_corner_indices(corners, table_size)
        vals = tables[level][idx]
        features[:, level * f:(level + 1) * f] = \
            (weights[:, None, :] @ vals)[:, 0, :]
        levels.append((idx, weights, wgrads, vals))
    return features, levels


def reference_hash_backward(levels, upstream, grad_tables):
    """Scatter into grad_tables level by level and channel by channel;
    return d/dx."""
    f = grad_tables.shape[2]
    dx = np.zeros((upstream.shape[0], 3), dtype=upstream.dtype)
    for level, (idx, weights, wgrads, vals) in enumerate(levels):
        dy = upstream[:, level * f:(level + 1) * f]
        contrib = weights[:, :, None] * dy[:, None, :]
        for ch in range(f):
            grad_tables[level, :, ch] += np.bincount(
                idx.reshape(-1), weights=contrib[:, :, ch].reshape(-1),
                minlength=grad_tables.shape[1])
        val_dot = (vals @ dy[:, :, None])[:, :, 0]
        dx += (val_dot[:, None, :] @ wgrads)[:, 0, :]
    return dx
