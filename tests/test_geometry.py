import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonlf.errors import DegenerateConfiguration, FrameMismatch
from geonlf.geometry import (Se3Param, Trajectory, align_trajectory,
                             canonicalize_phi, se3_decoupled, so3_exp,
                             so3_left_jacobian, so3_log)
from oracles import (se3_full_exp, series_se3_exp, series_so3_exp,
                     series_so3_left_jacobian)

RNG = np.random.default_rng(7)


def random_phi(rng, max_norm=np.pi):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, max_norm)


class TestSo3Exp:
    def test_zero_is_identity(self):
        assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))

    def test_quarter_turn_about_z(self):
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(so3_exp([0, 0, np.pi / 2]), expected,
                                   atol=1e-15)

    def test_matches_series_oracle(self):
        phi = np.array([0.3, -0.2, 0.5])
        ref = series_so3_exp(phi)
        np.testing.assert_allclose(so3_exp(phi), ref, rtol=1e-10)

    def test_orthonormal_and_det_one(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            r = so3_exp(random_phi(rng))
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_inverse_composition(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            phi = random_phi(rng)
            np.testing.assert_allclose(so3_exp(phi) @ so3_exp(-phi), np.eye(3),
                                       atol=1e-12)

    def test_small_angle_branch(self):
        phi = np.array([3e-9, -2e-9, 1e-9])
        np.testing.assert_allclose(so3_exp(phi), series_so3_exp(phi, terms=6),
                                   atol=1e-16)

    def test_log_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            phi = random_phi(rng, max_norm=np.pi - 1e-3)
            np.testing.assert_allclose(so3_log(so3_exp(phi)), phi, atol=1e-9)


class TestLeftJacobian:
    def test_zero_is_identity(self):
        assert np.array_equal(so3_left_jacobian(np.zeros(3)), np.eye(3))

    def test_matches_series_oracle(self):
        phi = np.array([0.0, 0.0, np.pi / 2])
        np.testing.assert_allclose(so3_left_jacobian(phi),
                                   series_so3_left_jacobian(phi), rtol=1e-10)

    def test_jacobian_times_phi_equals_exp_translation(self):
        # With rho = phi, the full map's translation column is J @ phi.
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = random_phi(rng)
            t = se3_full_exp(Se3Param(phi, phi))[:3, 3]
            np.testing.assert_allclose(so3_left_jacobian(phi) @ phi, t,
                                       rtol=0, atol=1e-12)


class TestSe3Maps:
    def test_zero_twist(self):
        assert np.array_equal(se3_full_exp(Se3Param()), np.eye(4))
        assert np.array_equal(se3_decoupled(Se3Param()), np.eye(4))

    def test_pure_translation_agreement(self):
        xi = Se3Param([1.0, 2.0, 3.0], np.zeros(3))
        full = se3_full_exp(xi)
        np.testing.assert_allclose(full[:3, 3], [1, 2, 3], atol=0)
        assert np.array_equal(full, se3_decoupled(xi))

    def test_full_exp_matches_series(self):
        # The 20-term truncation is itself accurate to <1e-10 only for
        # |xi| <= 2.4; the full |xi| <= pi domain is checked against a
        # 30-term sum, which has converged well below the tolerance.
        rng = np.random.default_rng(4)
        for _ in range(200):
            xi = rng.normal(size=6)
            xi *= rng.uniform(0, 2.4) / np.linalg.norm(xi)
            ref = series_se3_exp(xi[:3], xi[3:], terms=20)
            got = se3_full_exp(Se3Param(xi[:3], xi[3:]))
            assert np.abs(got - ref).max() < 1e-10
        for _ in range(200):
            xi = rng.normal(size=6)
            xi *= rng.uniform(0, np.pi) / np.linalg.norm(xi)
            ref = series_se3_exp(xi[:3], xi[3:], terms=30)
            got = se3_full_exp(Se3Param(xi[:3], xi[3:]))
            assert np.abs(got - ref).max() < 1e-10

    def test_decoupled_differs_unless_no_rotation(self):
        xi = Se3Param([1.0, 0.0, 0.0], [0.0, 0.0, np.pi / 2])
        full = se3_full_exp(xi)
        dec = se3_decoupled(xi)
        np.testing.assert_allclose(dec[:3, 3], [1, 0, 0], atol=0)
        assert np.abs(full[:3, 3] - dec[:3, 3]).max() > 0.3
        assert np.array_equal(full[:3, :3], dec[:3, :3])

    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_decoupled_equals_full_iff_zero_rotation(self, x, y, z):
        xi = Se3Param([x, y, z], np.zeros(3))
        assert np.array_equal(se3_full_exp(xi), se3_decoupled(xi))


class TestCanonicalize:
    def test_small_phi_untouched(self):
        phi = np.array([0.1, 0.2, -0.1])
        np.testing.assert_array_equal(canonicalize_phi(phi), phi)

    def test_wrap_preserves_rotation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            phi = axis * rng.uniform(np.pi + 1e-3, 2 * np.pi - 1e-3)
            wrapped = canonicalize_phi(phi)
            assert np.linalg.norm(wrapped) < np.pi
            np.testing.assert_allclose(so3_exp(wrapped), so3_exp(phi), atol=1e-12)

    def test_se3param_canonicalizes_on_construction(self):
        xi = Se3Param(np.zeros(3), [0.0, 0.0, 1.5 * np.pi])
        assert np.linalg.norm(xi.phi) < np.pi


def _traj_from_positions(pos, rng=None):
    rng = rng or np.random.default_rng(11)
    poses = []
    for p in pos:
        t = np.eye(4)
        t[:3, :3] = so3_exp(rng.normal(size=3) * 0.3)
        t[:3, 3] = p
        poses.append(t)
    return Trajectory(list(range(len(pos))), np.array(poses))


class TestAlignTrajectory:
    def test_identical_is_identity(self):
        traj = _traj_from_positions(RNG.normal(size=(6, 3)))
        aligned, transform = align_trajectory(traj, traj)
        np.testing.assert_allclose(transform, np.eye(4), atol=1e-12)
        assert np.abs(aligned.positions() - traj.positions()).max() < 1e-12

    def test_recovers_rigid_offset(self):
        ref = _traj_from_positions(RNG.normal(size=(8, 3)))
        g = se3_decoupled(Se3Param([0.4, -0.1, 0.2], [0.0, 0.0, np.deg2rad(30)]))
        est = Trajectory(list(ref.frame_ids),
                         np.array([g @ p for p in ref.poses]))
        aligned, _ = align_trajectory(est, ref)
        assert np.abs(aligned.positions() - ref.positions()).max() < 1e-10

    def test_noisy_residual_matches_descent_oracle(self):
        from scipy.optimize import minimize
        rng = np.random.default_rng(12)
        ref = _traj_from_positions(rng.normal(size=(10, 3)), rng)
        est_pos = ref.positions() + rng.normal(scale=0.05, size=(10, 3))
        est = _traj_from_positions(est_pos, rng)
        aligned, _ = align_trajectory(est, ref)
        residual = ((aligned.positions() - ref.positions()) ** 2).sum()

        def cost(v):
            rot = so3_exp(v[:3])
            return (((est_pos @ rot.T + v[3:]) - ref.positions()) ** 2).sum()

        best = np.inf
        for trial in range(8):
            x0 = np.concatenate([rng.normal(scale=0.5, size=3),
                                 rng.normal(scale=0.5, size=3)])
            res = minimize(cost, x0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12,
                                    "maxiter": 20000})
            best = min(best, res.fun)
        assert residual <= best + 1e-6

    def test_invariant_to_common_rigid_transform(self):
        rng = np.random.default_rng(13)
        ref = _traj_from_positions(rng.normal(size=(7, 3)), rng)
        est = _traj_from_positions(ref.positions() + rng.normal(scale=0.1, size=(7, 3)), rng)
        res0 = ((align_trajectory(est, ref)[0].positions() - ref.positions()) ** 2).sum()
        g = se3_decoupled(Se3Param([1.0, 2.0, -0.5], [0.3, -0.2, 0.9]))
        est_g = Trajectory(list(est.frame_ids), np.array([g @ p for p in est.poses]))
        ref_g = Trajectory(list(ref.frame_ids), np.array([g @ p for p in ref.poses]))
        res1 = ((align_trajectory(est_g, ref_g)[0].positions() - ref_g.positions()) ** 2).sum()
        assert abs(res0 - res1) < 1e-10

    def test_collinear_raises(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                        [3.0, 0.0, 0.0]])
        traj = _traj_from_positions(pos)
        with pytest.raises(DegenerateConfiguration):
            align_trajectory(traj, traj)

    def test_frame_mismatch(self):
        a = _traj_from_positions(RNG.normal(size=(4, 3)))
        b = Trajectory([0, 1, 2, 5], a.poses)
        with pytest.raises(FrameMismatch):
            align_trajectory(a, b)
