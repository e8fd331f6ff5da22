import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonlf.encoding import (EncodingConfig, c2f_weight, check_domain,
                             encode_backward, encode_forward,
                             hash_encode_backward, hash_encode_forward,
                             mask_weights, planar_encode_backward,
                             planar_encode_forward)
from geonlf.errors import OutOfDomain
from oracles import (hash_corner_indices, numeric_gradient,
                     reference_hash_backward, reference_hash_encode)

# Power-of-two resolutions make lattice corners exactly representable.
CFG = EncodingConfig(levels=2, base_resolution=16, growth=2.0,
                     features_per_level=2, hash_table_size=2 ** 12,
                     planar_resolution=65, planar_channels=3)


def make_tables(cfg, seed=0):
    rng = np.random.default_rng(seed)
    tables = rng.normal(size=(cfg.levels, cfg.hash_table_size,
                              cfg.features_per_level))
    planes = rng.normal(size=(3, cfg.planar_resolution, cfg.planar_resolution,
                              cfg.planar_channels))
    return tables, planes


def _forward_only(forward, x, *args):
    """Features of one point (3,) or a batch (n, 3), without the cache."""
    out, _ = forward(x, *args)
    return out[0] if np.asarray(x).ndim == 1 else out


def hash_encode(x, tables, cfg):
    return _forward_only(hash_encode_forward, x, tables, cfg)


def planar_encode(x, planes, cfg):
    return _forward_only(planar_encode_forward, x, planes, cfg)


def masked_encoding(x, planes, tables, cfg, alpha):
    return _forward_only(encode_forward, x, planes, tables, cfg, alpha)


class TestC2fWeight:
    def test_branches(self):
        assert c2f_weight(1.0, 2) == 0.0
        np.testing.assert_allclose(c2f_weight(2.5, 2), 0.5)
        assert c2f_weight(3.5, 2) == 1.0

    @given(st.floats(0.0, 8.0), st.integers(0, 7))
    @settings(max_examples=200, deadline=None)
    def test_range(self, alpha, level):
        w = c2f_weight(alpha, level)
        assert 0.0 <= w <= 1.0

    def test_monotone_in_alpha_and_level(self):
        alphas = np.linspace(0, 5, 101)
        for level in range(5):
            vals = [c2f_weight(a, level) for a in alphas]
            assert (np.diff(vals) >= -1e-15).all()
        for alpha in np.linspace(0, 5, 21):
            vals = [c2f_weight(alpha, level) for level in range(6)]
            assert (np.diff(vals) <= 1e-15).all()


class TestHashEncode:
    def test_lattice_corner_returns_feature_row(self):
        tables, _ = make_tables(CFG)
        # x on a corner of level-0 (resolution 16): x = k/16
        x = np.array([3 / 16, 5 / 16, 9 / 16])
        out = hash_encode(x, tables, CFG)
        idx = hash_corner_indices(np.array([[3, 5, 9]]), CFG.hash_table_size)[0]
        np.testing.assert_array_equal(out[:2], tables[0][idx])

    def test_cell_center_is_corner_mean(self):
        cfg = EncodingConfig(levels=1, base_resolution=16, growth=2.0,
                             features_per_level=2, hash_table_size=2 ** 12,
                             planar_resolution=17, planar_channels=2)
        tables, _ = make_tables(cfg)
        x = np.array([(3 + 0.5) / 16, (5 + 0.5) / 16, (9 + 0.5) / 16])
        out = hash_encode(x, tables, cfg)
        corners = np.array([[3 + i, 5 + j, 9 + k]
                            for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        idx = hash_corner_indices(corners, cfg.hash_table_size)
        np.testing.assert_allclose(out, tables[0][idx].mean(axis=0), atol=1e-12)

    def test_matches_scalar_reference(self):
        tables, _ = make_tables(CFG)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(size=3)
            out = hash_encode(x, tables, CFG)
            expected = []
            for level, res in enumerate(CFG.level_resolutions()):
                pos = x * res
                base = np.floor(pos).astype(np.int64)
                f = pos - base
                acc = np.zeros(CFG.features_per_level)
                for i in (0, 1):
                    for j in (0, 1):
                        for k in (0, 1):
                            w = ((f[0] if i else 1 - f[0])
                                 * (f[1] if j else 1 - f[1])
                                 * (f[2] if k else 1 - f[2]))
                            idx = hash_corner_indices(
                                np.array([[base[0] + i, base[1] + j,
                                           base[2] + k]]),
                                CFG.hash_table_size)[0]
                            acc += w * tables[level][idx]
                expected.append(acc)
            np.testing.assert_allclose(out, np.concatenate(expected), atol=1e-12)

    def test_out_of_domain(self):
        tables, _ = make_tables(CFG)
        with pytest.raises(OutOfDomain):
            hash_encode(np.array([1.5, 0.5, 0.5]), tables, CFG)
        # inside tolerance clamps instead
        out = hash_encode(np.array([1.0 + 5e-7, 0.5, 0.5]), tables, CFG)
        ref = hash_encode(np.array([1.0, 0.5, 0.5]), tables, CFG)
        np.testing.assert_array_equal(out, ref)


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# Coordinates on every lattice of CFG (resolutions 16 and 32), the domain
# faces 0.0 and 1.0, and arbitrary points in between.
_COORD = st.one_of(st.floats(0.0, 1.0),
                   st.integers(0, 64).map(lambda k: k / 64.0),
                   st.sampled_from([0.0, 1.0]))


class TestFusedHashMatchesReference:
    """The fused all-level kernel reproduces the level-by-level reference
    bit for bit: features, cached rows and weights, table gradients and
    d/dx (with the weight gradients rebuilt in the backward)."""

    @given(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1,
                    max_size=40),
           st.sampled_from([np.float32, np.float64]),
           st.sampled_from([CFG, EncodingConfig()]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(self, points, dtype, cfg, seed):
        x = np.array(points, dtype=dtype)
        tables, planes = make_tables(cfg, seed)
        tables, planes = tables.astype(dtype), planes.astype(dtype)
        t = cfg.hash_table_size

        out, cache = hash_encode_forward(x, tables, cfg)
        ref, ref_levels = reference_hash_encode(x, tables,
                                                cfg.level_resolutions())
        assert_bits_equal(out, ref)
        for level, (idx, weights, _, _) in enumerate(ref_levels):
            np.testing.assert_array_equal(cache["idx"][level], idx + level * t)
            assert_bits_equal(cache["weights"][level], weights)

        upstream = np.random.default_rng(seed).normal(
            size=out.shape).astype(dtype)
        g_tables = np.zeros(tables.shape)
        g_ref = np.zeros(tables.shape)
        dx = hash_encode_backward(cache, upstream, g_tables, cfg)
        assert_bits_equal(dx, reference_hash_backward(ref_levels, upstream,
                                                      g_ref))
        assert_bits_equal(g_tables, g_ref)

        # Through the hybrid encoder: planar d/dx plus the reference's.
        c = cfg.planar_channels
        up_all = np.random.default_rng(seed + 1).normal(
            size=(x.shape[0], cfg.feature_dim)).astype(dtype)
        _, enc_cache = encode_forward(x, planes, tables, cfg, alpha=None)
        dx_all = encode_backward(enc_cache, up_all, np.zeros(planes.shape),
                                 np.zeros(tables.shape), cfg)
        _, p_cache = planar_encode_forward(x, planes, cfg)
        dx_p = planar_encode_backward(p_cache, up_all[:, :c],
                                      np.zeros(planes.shape), cfg)
        dx_h = reference_hash_backward(ref_levels, up_all[:, c:].copy(),
                                       np.zeros(tables.shape))
        assert_bits_equal(dx_all, dx_p + dx_h)


class TestPlanarEncode:
    def test_all_ones_plane_is_identity_for_product(self):
        _, planes = make_tables(CFG)
        planes = planes.copy()
        planes[0] = 1.0
        rng = np.random.default_rng(3)
        x = rng.uniform(size=3)
        out = planar_encode(x, planes, CFG)
        # with plane 0 all ones, output = plane1_sample * plane2_sample
        sample1 = _bilinear_ref(planes[1], x[[0, 2]], CFG.planar_resolution)
        sample2 = _bilinear_ref(planes[2], x[[1, 2]], CFG.planar_resolution)
        np.testing.assert_allclose(out, sample1 * sample2, atol=1e-12)

    def test_shared_corner_product(self):
        _, planes = make_tables(CFG)
        m = CFG.planar_resolution
        # x on the shared lattice: u = k/(m-1)
        x = np.array([4 / (m - 1), 10 / (m - 1), 32 / (m - 1)])
        out = planar_encode(x, planes, CFG)
        expected = planes[0][4, 10] * planes[1][4, 32] * planes[2][10, 32]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_matches_reference(self):
        _, planes = make_tables(CFG)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.uniform(size=3)
            out = planar_encode(x, planes, CFG)
            ref = (_bilinear_ref(planes[0], x[[0, 1]], CFG.planar_resolution)
                   * _bilinear_ref(planes[1], x[[0, 2]], CFG.planar_resolution)
                   * _bilinear_ref(planes[2], x[[1, 2]], CFG.planar_resolution))
            np.testing.assert_allclose(out, ref, atol=1e-12)


def _bilinear_ref(grid, uv, m):
    pos = uv * (m - 1)
    i0 = min(int(np.floor(pos[0])), m - 2)
    j0 = min(int(np.floor(pos[1])), m - 2)
    fu, fv = pos[0] - i0, pos[1] - j0
    return ((1 - fu) * (1 - fv) * grid[i0, j0]
            + fu * (1 - fv) * grid[i0 + 1, j0]
            + (1 - fu) * fv * grid[i0, j0 + 1]
            + fu * fv * grid[i0 + 1, j0 + 1])


class TestMaskedEncoding:
    def test_full_alpha_bit_identical(self):
        tables, planes = make_tables(CFG)
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(20, 3))
        full, _ = encode_forward(x, planes, tables, CFG, alpha=None)
        masked = masked_encoding(x, planes, tables, CFG,
                                 alpha=float(CFG.total_mask_levels))
        assert np.array_equal(full, masked)

    def test_zero_alpha_is_zero(self):
        tables, planes = make_tables(CFG)
        x = np.random.default_rng(6).uniform(size=(5, 3))
        out = masked_encoding(x, planes, tables, CFG, alpha=0.0)
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_intermediate_alpha_level_weights(self):
        tables, planes = make_tables(CFG)
        x = np.random.default_rng(7).uniform(size=(4, 3))
        # resolution order: hash0 (16), hash1 (32), planar (65)
        full, _ = encode_forward(x, planes, tables, CFG, alpha=None)
        out = masked_encoding(x, planes, tables, CFG, alpha=1.5)
        c = CFG.planar_channels
        np.testing.assert_array_equal(out[:, :c], np.zeros((4, c)))   # planar off
        np.testing.assert_array_equal(out[:, c:c + 2], full[:, c:c + 2])
        np.testing.assert_allclose(out[:, c + 2:], 0.5 * full[:, c + 2:])

    def test_mask_order_sorted_by_resolution(self):
        order = CFG.mask_order()
        assert order == [("hash", 0), ("hash", 1), ("planar", 0)]
        w_hash, w_planar = mask_weights(2.5, CFG)
        np.testing.assert_allclose(w_hash, [1.0, 1.0])
        np.testing.assert_allclose(w_planar, 0.5)


class TestEncodeBackward:
    def test_param_gradients_match_fd(self):
        cfg = EncodingConfig(levels=2, base_resolution=4, growth=2.0,
                             features_per_level=2, hash_table_size=2 ** 8,
                             planar_resolution=9, planar_channels=3)
        tables, planes = make_tables(cfg, seed=8)
        rng = np.random.default_rng(9)
        x = rng.uniform(0.05, 0.95, size=(6, 3))
        upstream = rng.normal(size=(6, cfg.feature_dim))

        def loss(tb, pl):
            out, _ = encode_forward(x, pl, tb, cfg, alpha=None)
            return float((out * upstream).sum())

        _, cache = encode_forward(x, planes, tables, cfg, alpha=None)
        g_tables = np.zeros_like(tables)
        g_planes = np.zeros_like(planes)
        encode_backward(cache, upstream, g_planes, g_tables, cfg, need_dx=False)

        touched = np.nonzero(g_tables)
        for lvl, row, chan in list(zip(*touched))[:20]:
            tp = tables.copy()
            tm = tables.copy()
            tp[lvl, row, chan] += 1e-4
            tm[lvl, row, chan] -= 1e-4
            fd = (loss(tp, planes) - loss(tm, planes)) / 2e-4
            np.testing.assert_allclose(g_tables[lvl, row, chan], fd,
                                       rtol=1e-6, atol=1e-9)
        touched_p = np.nonzero(g_planes)
        for p, i, j, chan in list(zip(*touched_p))[:20]:
            pp = planes.copy()
            pm = planes.copy()
            pp[p, i, j, chan] += 1e-4
            pm[p, i, j, chan] -= 1e-4
            fd = (loss(tables, pp) - loss(tables, pm)) / 2e-4
            np.testing.assert_allclose(g_planes[p, i, j, chan], fd,
                                       rtol=1e-6, atol=1e-9)

    def test_position_gradients_match_fd(self):
        cfg = EncodingConfig(levels=2, base_resolution=4, growth=2.0,
                             features_per_level=2, hash_table_size=2 ** 8,
                             planar_resolution=9, planar_channels=3)
        tables, planes = make_tables(cfg, seed=10)
        rng = np.random.default_rng(11)
        # keep clear of cell boundaries so central differences stay on one
        # linear piece
        x = (np.floor(rng.uniform(0, 8, size=(5, 3))) + rng.uniform(0.3, 0.7, size=(5, 3))) / 8.0
        upstream = rng.normal(size=(5, cfg.feature_dim))
        _, cache = encode_forward(x, planes, tables, cfg, alpha=0.7 * cfg.total_mask_levels)
        g_tables = np.zeros_like(tables)
        g_planes = np.zeros_like(planes)
        dx = encode_backward(cache, upstream, g_planes, g_tables, cfg,
                             need_dx=True)

        def loss(xv):
            out, _ = encode_forward(xv.reshape(5, 3), planes, tables, cfg,
                                    alpha=0.7 * cfg.total_mask_levels)
            return float((out * upstream).sum())

        fd = numeric_gradient(loss, x.ravel(), h=1e-7).reshape(5, 3)
        np.testing.assert_allclose(dx, fd, rtol=1e-4, atol=1e-6)


class TestDomain:
    def test_check_domain_clamps(self):
        out = check_domain(np.array([[1.0 + 1e-7, -1e-8, 0.5]]))
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    def test_check_domain_raises(self):
        with pytest.raises(OutOfDomain):
            check_domain(np.array([[0.5, 0.5, 1.1]]))
