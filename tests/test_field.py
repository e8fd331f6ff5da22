import json
import struct

import numpy as np
import pytest

from geonlf.encoding import EncodingConfig
from geonlf.errors import TapeMissing
from geonlf.field import (CHECKPOINT_MAGIC, PARAM_NAMES, FieldParams, backward,
                          composite, pose_rays, render_rays,
                          sensor_directions)
from geonlf.geometry import Se3Param
from oracles import numeric_gradient

TINY = EncodingConfig(levels=2, base_resolution=4, growth=1.5,
                      features_per_level=2, hash_table_size=2 ** 8,
                      planar_resolution=8, planar_channels=3)


def tiny_params(seed=0, dtype=np.float64, scale=0.5):
    params = FieldParams(TINY, hidden_width=8, dtype=dtype, seed=seed)
    rng = np.random.default_rng(seed + 100)
    # inflate the encodings so gradients are well away from zero
    params.params["hash"] = rng.normal(scale=scale,
                                       size=params.params["hash"].shape)
    params.params["planes"] = rng.normal(scale=scale,
                                         size=params.params["planes"].shape)
    params.params["b_sigma"][:] = 0.5
    for k in params.params:
        params.params[k] = params.params[k].astype(dtype)
        params.grads[k] = np.zeros(params.params[k].shape)
    return params


class TestCompositing:
    def test_opaque_single_sample(self):
        w, depth = composite(np.array([[1e6]]), np.array([[0.1]]),
                             np.array([[5.0]]))
        np.testing.assert_array_equal(w, [[1.0]])
        np.testing.assert_array_equal(depth, [5.0])

    def test_transparent_field(self):
        sigma = np.zeros((1, 8))
        delta = np.full((1, 8), 0.1)
        z = np.linspace(1, 2, 8)[None]
        w, depth = composite(sigma, delta, z)
        np.testing.assert_array_equal(w, np.zeros((1, 8)))
        np.testing.assert_array_equal(depth, [0.0])

    def test_two_sample_ln2(self):
        delta = np.array([[1.0, 1.0]])
        sigma = np.array([[np.log(2.0), np.log(2.0)]])
        z = np.array([[1.0, 2.0]])
        w, depth = composite(sigma, delta, z)
        np.testing.assert_allclose(w, [[0.5, 0.25]], rtol=1e-12)
        np.testing.assert_allclose(depth, [1.0], atol=1e-9)

    def test_weight_sum_identity(self):
        rng = np.random.default_rng(0)
        sigma = rng.uniform(0, 30, size=(200, 32))
        delta = rng.uniform(0.001, 0.05, size=(200, 32))
        z = np.cumsum(delta, axis=1)
        w, _ = composite(sigma, delta, z)
        assert (w >= 0).all()
        total_tau = (sigma * delta).sum(axis=1)
        np.testing.assert_allclose(w.sum(axis=1), 1.0 - np.exp(-total_tau),
                                   atol=1e-9)
        assert (w.sum(axis=1) <= 1.0 + 1e-9).all()


class TestRays:
    def test_center_pixel_zero_elevation(self):
        # rows map fov_up..fov_down; zero elevation at 1/4 from the top
        # with fov +10/-30
        h, w = 4, 8
        direction = sensor_directions(h, w, 10.0, -30.0)[0, 3]
        # row 0 center: phi = 10 - 0.5/4*40 = 5 degrees
        assert abs(np.degrees(np.arcsin(direction[2])) - 5.0) < 1e-9

    def test_row_monotone_elevation(self):
        h, w = 16, 32
        zs = sensor_directions(h, w, 10.0, -30.0)[:, 0, 2]
        assert (np.diff(zs) < 0).all()

    def test_pose_rotates_direction(self):
        pose = Se3Param([0.2, 0.1, 0.3], [0.0, 0.0, 0.7])
        base = sensor_directions(8, 16, 10.0, -30.0)[2, 5]
        origins, dirs = pose_rays(pose, base[None])
        np.testing.assert_allclose(dirs[0], pose.matrix()[:3, :3] @ base,
                                   atol=1e-12)
        np.testing.assert_allclose(origins[0], [0.2, 0.1, 0.3])

    def test_sensor_directions_unit(self):
        dirs = sensor_directions(8, 16, 10.0, -30.0)
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=2), 1.0,
                                   atol=1e-12)


class TestRender:
    def test_deterministic_midpoint(self):
        params = tiny_params()
        origins = np.full((3, 3), 0.5)
        dirs = np.tile([1.0, 0.0, 0.0], (3, 1))
        a = render_rays(params, origins, dirs, 0.05, 0.45, 16)[:3]
        b = render_rays(params, origins, dirs, 0.05, 0.45, 16)[:3]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_seeded_stratified_deterministic(self):
        params = tiny_params()
        origins = np.full((2, 3), 0.5)
        dirs = np.tile([0.0, 1.0, 0.0], (2, 1))
        a = render_rays(params, origins, dirs, 0.05, 0.45, 16,
                        rng=np.random.default_rng(5))[:3]
        b = render_rays(params, origins, dirs, 0.05, 0.45, 16,
                        rng=np.random.default_rng(5))[:3]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_render_ray_output_shape(self):
        params = tiny_params()
        depth, intens, drop, tape = render_rays(
            params, [[0.5, 0.5, 0.5]], [[1.0, 0.0, 0.0]], 0.05, 0.45, 8)
        assert depth.shape == intens.shape == drop.shape == (1,)
        assert tape.weights.shape == (1, 8)
        assert 0.0 <= drop[0] <= 1.0
        assert tape.weights.sum() <= 1.0 + 1e-9

    def test_weight_invariants_many_rays(self):
        params = tiny_params(seed=3)
        rng = np.random.default_rng(4)
        n = 2000
        origins = rng.uniform(0.3, 0.7, size=(n, 3))
        dirs = rng.normal(size=(n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        _, _, _, tape = render_rays(params, origins, dirs, 0.05, 0.4, 16,
                                    rng=rng)
        assert (tape.weights >= 0).all()
        assert (tape.weights.sum(axis=1) <= 1.0 + 1e-9).all()


class FullGradCheck:
    """Shared scaffolding: scalar loss over rendered outputs on fixed rays."""

    def setup_method(self, method):
        self.params = tiny_params(seed=7, dtype=np.float64)
        rng = np.random.default_rng(8)
        self.pose = Se3Param([0.02, -0.03, 0.01], [0.03, 0.02, -0.04])
        d = rng.normal(size=(4, 3))
        self.d_sensor = d / np.linalg.norm(d, axis=1, keepdims=True)
        self.n_samples = 6
        # near/far chosen to keep all samples strictly inside the cube
        self.near, self.far = 0.1, 0.35
        self.up = rng.normal(size=(3, 4))  # upstream for depth/int/drop

    def _forward(self):
        origins, dirs = pose_rays(
            Se3Param(self.pose.rho + 0.5, self.pose.phi), self.d_sensor)
        return render_rays(self.params, origins, dirs, self.near, self.far,
                           self.n_samples, alpha=None,
                           pose_phi=self.pose.phi)

    def loss_value(self):
        depth, intens, drop, _ = self._forward()
        return float(self.up[0] @ depth + self.up[1] @ intens
                     + self.up[2] @ drop)

    def analytic(self):
        self.params.zero_grads()
        depth, intens, drop, tape = self._forward()
        pose_grad = backward(tape, self.up[0], self.up[1], self.up[2])
        return pose_grad


class TestFieldGradients(FullGradCheck):
    def test_tape_single_use(self):
        _, _, _, tape = self._forward()
        backward(tape, np.ones(4), 0.0, 0.0)
        with pytest.raises(TapeMissing):
            backward(tape, np.ones(4), 0.0, 0.0)

    def test_zero_upstream_zero_grads(self):
        self.params.zero_grads()
        _, _, _, tape = self._forward()
        pose_grad = backward(tape, 0.0, 0.0, 0.0)
        np.testing.assert_array_equal(pose_grad, np.zeros(6))
        for g in self.params.grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_mlp_gradients(self):
        self.analytic()
        for name in ("w1", "b1", "w2", "b2", "w_sigma", "b_sigma",
                     "w_int", "b_int", "w_drop", "b_drop"):
            g = self.params.grads[name]
            flat_idx = np.argsort(-np.abs(g.ravel()))[:6]
            for fi in flat_idx:
                idx = np.unravel_index(fi, g.shape)
                ref = _fd_param(self, name, idx)
                got = g[idx]
                assert abs(got - ref) <= 1e-4 * max(abs(ref), 1e-6), \
                    (name, idx, got, ref)

    def test_hash_and_planar_gradients(self):
        self.analytic()
        for name in ("hash", "planes"):
            g = self.params.grads[name]
            flat_idx = np.argsort(-np.abs(g.ravel()))[:8]
            for fi in flat_idx:
                idx = np.unravel_index(fi, g.shape)
                ref = _fd_param(self, name, idx)
                got = g[idx]
                assert abs(got - ref) <= 1e-4 * max(abs(ref), 1e-6), \
                    (name, idx, got, ref)

    def test_pose_gradients(self):
        pose_grad = self.analytic()
        base = np.concatenate([self.pose.rho, self.pose.phi])

        def value(v):
            saved = self.pose
            self.pose = Se3Param(v[:3], v[3:])
            out = self.loss_value()
            self.pose = saved
            return out

        fd = numeric_gradient(value, base, h=1e-6)
        np.testing.assert_allclose(pose_grad, fd, rtol=1e-4, atol=1e-8)


def _fd_param(check, name, idx, h=1e-4):
    p = check.params.params[name]
    orig = p[idx]
    p[idx] = orig + h
    up = check.loss_value()
    p[idx] = orig - h
    down = check.loss_value()
    p[idx] = orig
    return (up - down) / (2 * h)


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path):
        params = FieldParams(TINY, hidden_width=8, dtype=np.float32, seed=5)
        path = tmp_path / "field.gnlf"
        params.save(path)
        loaded = FieldParams.load(path)
        for name in params.params:
            np.testing.assert_array_equal(params.params[name],
                                          loaded.params[name])
        # render agreement
        origins = np.full((2, 3), 0.5)
        dirs = np.tile([1.0, 0.0, 0.0], (2, 1))
        a = render_rays(params, origins, dirs, 0.05, 0.4, 8)[0]
        b = render_rays(loaded, origins, dirs, 0.05, 0.4, 8)[0]
        np.testing.assert_array_equal(a, b)

    def test_loads_layout_with_sinusoidal_levels(self, tmp_path):
        # Checkpoints written while the encoding config still carried the
        # unused `sinusoidal_levels` key have it in their metadata.
        params = FieldParams(TINY, hidden_width=8, dtype=np.float32, seed=5)
        meta = {"levels": 2, "base_resolution": 4, "growth": 1.5,
                "features_per_level": 2, "hash_table_size": 2 ** 8,
                "planar_resolution": 8, "planar_channels": 3,
                "sinusoidal_levels": 4, "hidden_width": 8}
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        path = tmp_path / "old.gnlf"
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC + struct.pack("<II", 1, len(blob)))
            fh.write(blob)
            for name in PARAM_NAMES:
                fh.write(params.params[name].astype("<f4").tobytes())
        loaded = FieldParams.load(path)
        assert loaded.cfg == TINY and loaded.hidden_width == 8
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(loaded.params[name],
                                          params.params[name])

    def test_magic_guard(self, tmp_path):
        bad = tmp_path / "bad.gnlf"
        bad.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(Exception):
            FieldParams.load(bad)
