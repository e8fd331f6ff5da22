import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geonlf.cloud import PointCloud
from geonlf.errors import (DegenerateCorrespondences, EmptyCloud, EmptyList,
                           TooFewFrames)
from geonlf.geometry import (Se3Param, Trajectory, invert_rigid,
                             rotation_angle, se3_decoupled, so3_exp)
from geonlf.icp import icp_odometry, icp_pairwise
from geonlf.rcd import (GeoSession, RcdConfig, build_graph,
                        correspondence_weights, geo_optimize, graph_loss,
                        temperature_at)
from geonlf.metrics import pose_metrics
from geonlf.scene import (ScannerConfig, lidar_scan, make_scene,
                          make_trajectory, perturb_poses, unproject)
from oracles import (brute_chamfer, edge_chamfer, graph_denominator,
                     numeric_gradient)


class TestBuildGraph:
    def test_m5_n2(self):
        g = build_graph(5, 2)
        assert len(g.edges) == 2 * 5 - 3
        assert set(g.edges) == {(0, 1), (1, 2), (2, 3), (3, 4),
                                (0, 2), (1, 3), (2, 4)}
        assert g.edges == sorted(g.edges)

    def test_m2_n1(self):
        assert build_graph(2, 1).edges == [(0, 1)]

    def test_paper_scale(self):
        assert len(build_graph(36, 4).edges) == 4 * 36 - 10

    def test_count_formula_exhaustive(self):
        for m in range(2, 21):
            for n in range(1, 6):
                if n >= m:
                    continue
                g = build_graph(m, n)
                assert len(g.edges) == graph_denominator(m, n)
                assert len(set(g.edges)) == len(g.edges)
                assert all(0 < j - i <= n for i, j in g.edges)

    @pytest.mark.parametrize("m", [2, 3, 6])
    def test_wide_window_gives_every_pair(self, m):
        every_pair = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for window in (m - 1, m, m + 7):
            assert build_graph(m, window).edges == every_pair

    def test_too_few_frames(self):
        with pytest.raises(TooFewFrames):
            build_graph(1, 1)


class TestCorrespondenceWeights:
    def test_zero_temperature_uniform(self):
        w = correspondence_weights([0.5, 1.0, 2.0, 7.0], 0.0, 0.1)
        np.testing.assert_allclose(w, 0.25)

    def test_reference_values(self):
        w = correspondence_weights([0.5, 1.0], 0.5, 0.1)
        e = np.exp([0.5 / 0.5, 0.5 / 1.0])
        np.testing.assert_allclose(w, e / e.sum(), rtol=1e-12)
        np.testing.assert_allclose(w, [0.62245933, 0.37754067], atol=1e-7)

    def test_equal_distances_split_evenly(self):
        for t in (0.0, 0.5, 13.0):
            np.testing.assert_allclose(
                correspondence_weights([0.2, 0.2], t, 0.05), [0.5, 0.5])

    def test_clip_enters_below_voxel(self):
        # distances below the voxel size are indistinguishable
        w = correspondence_weights([0.001, 0.05, 0.1], 1.0, 0.1)
        assert w[0] == w[1] == w[2]

    def test_large_t_selects_minimum(self):
        w = correspondence_weights([0.2, 0.5, 1.1, 2.4], 50.0, 0.01)
        assert w[0] > 0.99

    def test_no_overflow_at_high_sharpness(self):
        w = correspondence_weights([0.011, 5.0], 50.0, 0.01)
        assert np.isfinite(w).all() and abs(w.sum() - 1.0) < 1e-12

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40),
           st.floats(0.0, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one_and_monotone(self, distances, t):
        w = correspondence_weights(distances, t, 0.05)
        assert abs(w.sum() - 1.0) < 1e-12
        clipped = np.maximum(0.05, np.asarray(distances))
        order = np.argsort(clipped)
        assert (np.diff(w[order]) <= 1e-12).all()

    def test_empty_raises(self):
        with pytest.raises(EmptyList):
            correspondence_weights([], 0.5, 0.1)


class TestTemperature:
    def test_endpoints(self):
        cfg = RcdConfig(t0=0.5)
        assert temperature_at(0.0, cfg) == 0.0
        np.testing.assert_allclose(temperature_at(1.0, cfg), 0.5)
        np.testing.assert_allclose(temperature_at(0.5, cfg), 0.25)


class TestRobustChamfer:
    """The robust Chamfer term of one edge, through a one-edge graph."""

    def test_identical_aligned_zero(self):
        pts = np.random.default_rng(0).uniform(size=(60, 3))
        cloud = PointCloud(pts)
        loss, gp, gq = edge_chamfer(cloud, cloud, Se3Param(), Se3Param(),
                                    RcdConfig(), 0.0)
        assert loss == 0.0
        np.testing.assert_array_equal(gp, np.zeros(6))
        np.testing.assert_array_equal(gq, np.zeros(6))

    def test_single_point_pair(self):
        p = PointCloud([[0.0, 0.0, 0.0]])
        q = PointCloud([[1.0, 0.0, 0.0]])
        loss, _, _ = edge_chamfer(p, q, Se3Param(), Se3Param(),
                                  RcdConfig(), 0.0)
        np.testing.assert_allclose(loss, 2.0)

    def test_matches_uniform_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.uniform(size=(50, 3))
            b = rng.uniform(size=(50, 3))
            loss, _, _ = edge_chamfer(PointCloud(a), PointCloud(b),
                                      Se3Param(), Se3Param(), RcdConfig(), 0.0)
            np.testing.assert_allclose(loss, brute_chamfer(a, b), atol=1e-9)

    def test_posed_matches_brute_force_on_transformed(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(40, 3))
        b = rng.uniform(size=(40, 3))
        xp = Se3Param([0.05, -0.02, 0.01], [0.02, 0.03, -0.01])
        xq = Se3Param([-0.01, 0.04, 0.0], [0.0, -0.02, 0.05])
        loss, _, _ = edge_chamfer(PointCloud(a), PointCloud(b), xp, xq,
                                  RcdConfig(), 0.0)
        aw = a @ so3_exp(xp.phi).T + xp.rho
        bw = b @ so3_exp(xq.phi).T + xq.rho
        np.testing.assert_allclose(loss, brute_chamfer(aw, bw), atol=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyCloud):
            edge_chamfer(PointCloud(np.zeros((0, 3))),
                         PointCloud([[0.0, 0.0, 0.0]]),
                         Se3Param(), Se3Param(), RcdConfig(), 0.0)


def _surrogate_edge_loss(a, b, xp6, xq6, t, voxel):
    """Independent reimplementation: world-frame NN by double loop, weights
    from the softmax formula, loss on frozen correspondences/weights.

    Returns a closure over the frozen pairing, evaluable at any poses.
    """
    def world(pts, x6):
        return pts @ so3_exp(x6[3:]).T + x6[:3]

    aw = world(a, xp6)
    bw = world(b, xq6)
    d_ab = np.sqrt(((aw[:, None, :] - bw[None, :, :]) ** 2).sum(axis=2))
    idx_ab = d_ab.argmin(axis=1)
    idx_ba = d_ab.argmin(axis=0)
    w_ab = correspondence_weights(d_ab.min(axis=1), t, voxel)
    w_ba = correspondence_weights(d_ab.min(axis=0), t, voxel)

    def value(xp6v, xq6v):
        awv = world(a, xp6v)
        bwv = world(b, xq6v)
        term1 = (w_ab * ((awv - bwv[idx_ab]) ** 2).sum(axis=1)).sum()
        term2 = (w_ba * ((bwv - awv[idx_ba]) ** 2).sum(axis=1)).sum()
        return term1 + term2

    return value


def _surrogate_plane_edge_loss(a, na, b, nb, xp6, xq6, t, voxel):
    """Independent reimplementation of an edge between clouds with normals:
    world-frame NN by double loop; per direction the lower quartile q of the
    pair distances, the point-to-point share beta = clip((q / voxel - 1) / 2,
    0, 1) and the distance gate; beta * sum w |p - q|^2 over all pairs plus
    (1 - beta) * sum w ((p - q) . (n_p + n_q))^2 over the kept pairs, with
    both normals rotated by their frames.

    Correspondences, weights, beta and kept pairs are frozen at the base
    poses. Returns the loss function and the two betas.
    """
    def world(pts, x6):
        return pts @ so3_exp(x6[3:]).T + x6[:3]

    d_ab = np.sqrt(((world(a, xp6)[:, None, :]
                     - world(b, xq6)[None, :, :]) ** 2).sum(axis=2))

    def frozen(d_min, idx):
        q = np.sort(d_min)[(len(d_min) - 1) // 4]
        beta = min(max((q / voxel - 1.0) / 2.0, 0.0), 1.0)
        keep = d_min <= max(1.5 * voxel, 3.0 * q)
        return (idx, beta, keep, correspondence_weights(d_min, t, voxel),
                correspondence_weights(d_min[keep], t, voxel))

    ab = frozen(d_ab.min(axis=1), d_ab.argmin(axis=1))
    ba = frozen(d_ab.min(axis=0), d_ab.argmin(axis=0))

    def direction(p, n_p, q, n_q, state):
        idx, beta, keep, w_all, w_kept = state
        r = p - q[idx]
        dist = np.linalg.norm(r, axis=1)
        e = np.einsum("ni,ni->n", r, n_p + n_q[idx])[keep]
        return (beta * (w_all * dist * dist).sum()
                + (1.0 - beta) * (w_kept * e * e).sum())

    def value(xp6v, xq6v):
        awv, bwv = world(a, xp6v), world(b, xq6v)
        nav = na @ so3_exp(xp6v[3:]).T
        nbv = nb @ so3_exp(xq6v[3:]).T
        return (direction(awv, nav, bwv, nbv, ab)
                + direction(bwv, nbv, awv, nav, ba))

    return value, (ab[1], ba[1])


class TestGradients:
    @pytest.mark.parametrize("regime", ["plane", "blend"])
    def test_point_to_plane_gradients_match_fd(self, regime):
        rng = np.random.default_rng(16)
        a = rng.uniform(size=(50, 3))
        b = rng.uniform(size=(50, 3)) + 0.03
        na = rng.normal(size=(50, 3))
        nb = rng.normal(size=(50, 3))
        na /= np.linalg.norm(na, axis=1, keepdims=True)
        nb /= np.linalg.norm(nb, axis=1, keepdims=True)
        t = 0.3
        xp = np.array([0.02, -0.01, 0.03, 0.05, -0.04, 0.02])
        xq = np.array([-0.03, 0.02, 0.0, -0.02, 0.03, 0.01])
        # "plane": both directions aligned to within a voxel (beta = 0);
        # "blend": both in the ramp between one and three voxels.
        voxel = 0.13 if regime == "plane" else 0.05
        surrogate, betas = _surrogate_plane_edge_loss(a, na, b, nb, xp, xq,
                                                      t, voxel)
        if regime == "plane":
            assert betas == (0.0, 0.0)
        else:
            assert all(0.0 < beta < 1.0 for beta in betas), betas
        cfg = RcdConfig(voxel_size=voxel)
        loss, gp, gq = edge_chamfer(
            PointCloud(a, normals=na), PointCloud(b, normals=nb),
            Se3Param(xp[:3], xp[3:]), Se3Param(xq[:3], xq[3:]), cfg, t)
        np.testing.assert_allclose(loss, surrogate(xp, xq), rtol=1e-12)
        fd_p = numeric_gradient(lambda v: surrogate(v, xq), xp, h=1e-6)
        fd_q = numeric_gradient(lambda v: surrogate(xp, v), xq, h=1e-6)
        np.testing.assert_allclose(gp, fd_p, rtol=1e-5, atol=1e-10)
        np.testing.assert_allclose(gq, fd_q, rtol=1e-5, atol=1e-10)

    def test_robust_chamfer_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=(50, 3))
        b = rng.uniform(size=(50, 3)) + 0.05
        cfg = RcdConfig(voxel_size=0.02)
        t = 0.3
        xp = np.array([0.02, -0.01, 0.03, 0.05, -0.04, 0.02])
        xq = np.array([-0.03, 0.02, 0.0, -0.02, 0.03, 0.01])
        loss, gp, gq = edge_chamfer(
            PointCloud(a), PointCloud(b),
            Se3Param(xp[:3], xp[3:]), Se3Param(xq[:3], xq[3:]), cfg, t)
        surrogate = _surrogate_edge_loss(a, b, xp, xq, t, cfg.voxel_size)
        np.testing.assert_allclose(loss, surrogate(xp, xq), atol=1e-12)
        fd_p = numeric_gradient(lambda v: surrogate(v, xq), xp, h=1e-6)
        fd_q = numeric_gradient(lambda v: surrogate(xp, v), xq, h=1e-6)
        np.testing.assert_allclose(gp, fd_p, rtol=1e-5, atol=1e-10)
        np.testing.assert_allclose(gq, fd_q, rtol=1e-5, atol=1e-10)

    def test_graph_loss_gradients_match_fd(self):
        rng = np.random.default_rng(4)
        clouds = [PointCloud(rng.uniform(size=(50, 3)) + 0.02 * k)
                  for k in range(3)]
        base = rng.normal(scale=0.03, size=(3, 6))
        cfg = RcdConfig(voxel_size=0.02)
        t = 0.25
        graph = build_graph(3, 2)
        poses = [Se3Param(v[:3], v[3:]) for v in base]
        loss, grads = graph_loss(clouds, poses, graph, cfg, t)

        surrogates = {(i, j): _surrogate_edge_loss(
            clouds[i].points, clouds[j].points, base[i], base[j], t,
            cfg.voxel_size) for i, j in graph.edges}
        denom = graph_denominator(3, 2)

        def total(flat):
            vs = flat.reshape(3, 6)
            return sum(s(vs[i], vs[j]) for (i, j), s in surrogates.items()) / denom

        np.testing.assert_allclose(loss, total(base.ravel()), atol=1e-12)
        fd = numeric_gradient(total, base.ravel(), h=1e-6).reshape(3, 6)
        for f in range(3):
            for c in range(6):
                ref = fd[f, c]
                got = grads[f, c]
                denom_val = max(abs(ref), 1e-8)
                assert abs(got - ref) / denom_val < 1e-5, (f, c, got, ref)


class TestGraphLoss:
    def test_identical_frames_zero(self):
        pts = PointCloud(np.random.default_rng(6).uniform(size=(40, 3)))
        clouds = [pts, pts, pts]
        poses = [Se3Param() for _ in range(3)]
        loss, grads = graph_loss(clouds, poses, build_graph(3, 1),
                                 RcdConfig(), 0.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grads, np.zeros((3, 6)))

    def test_three_frames_denominator(self):
        rng = np.random.default_rng(7)
        base = PointCloud(rng.uniform(size=(30, 3)))
        clouds = [base, base, base]
        poses = [Se3Param(), Se3Param([0.1, 0, 0], np.zeros(3)),
                 Se3Param([0.2, 0, 0], np.zeros(3))]
        cfg = RcdConfig()
        l01, _, _ = edge_chamfer(clouds[0], clouds[1], poses[0], poses[1], cfg, 0.0)
        l12, _, _ = edge_chamfer(clouds[1], clouds[2], poses[1], poses[2], cfg, 0.0)
        total, _ = graph_loss(clouds, poses, build_graph(3, 1), cfg, 0.0)
        np.testing.assert_allclose(total, (l01 + l12) / 2.0, atol=1e-12)

    def test_four_frames_window_two_edge_sum(self):
        rng = np.random.default_rng(8)
        clouds = [PointCloud(rng.uniform(size=(25, 3))) for _ in range(4)]
        poses = [Se3Param(rng.normal(scale=0.02, size=3),
                          rng.normal(scale=0.02, size=3)) for _ in range(4)]
        cfg = RcdConfig()
        graph = build_graph(4, 2)
        assert graph_denominator(4, 2) == 5
        total, _ = graph_loss(clouds, poses, graph, cfg, 0.1)
        explicit = sum(edge_chamfer(clouds[i], clouds[j], poses[i],
                                    poses[j], cfg, 0.1)[0]
                       for i, j in graph.edges)
        np.testing.assert_allclose(total, explicit / 5.0, atol=1e-12)

    def test_gauge_symmetry(self):
        rng = np.random.default_rng(9)
        clouds = [PointCloud(rng.uniform(size=(40, 3))) for _ in range(3)]
        poses = [Se3Param(rng.normal(scale=0.05, size=3),
                          rng.normal(scale=0.05, size=3)) for _ in range(3)]
        cfg = RcdConfig()
        base, _ = graph_loss(clouds, poses, build_graph(3, 2), cfg, 0.3)
        g = se3_decoupled(Se3Param([0.3, -0.2, 0.1], [0.2, 0.1, -0.3]))
        moved = []
        for p in poses:
            m = g @ se3_decoupled(p)
            moved.append(Se3Param.from_matrix(m))
        after, _ = graph_loss(clouds, moved, build_graph(3, 2), cfg, 0.3)
        np.testing.assert_allclose(after, base, atol=1e-10)

    def test_empty_cloud_reports_frame(self):
        clouds = [PointCloud(np.random.default_rng(0).uniform(size=(5, 3))),
                  PointCloud(np.zeros((0, 3)))]
        with pytest.raises(EmptyCloud, match="frame 1"):
            graph_loss(clouds, [Se3Param(), Se3Param()], build_graph(2, 1),
                       RcdConfig(), 0.0)


def _test_scans(preset: str = "corridor"):
    """4 frames of a preset (the test corridor by default) seen by a
    16 x 120 scanner: (sensor-frame clouds, ground-truth trajectory)."""
    scanner = ScannerConfig(beams=16, azimuth_steps=120, max_range=1.2,
                            drop_prob=0.02)
    scene = make_scene(preset, 0)
    gt = make_trajectory(preset, 4, 0)
    clouds = [unproject(lidar_scan(scene, gt.poses[i], scanner, seed=i)[0],
                        scanner) for i in range(4)]
    return clouds, gt


def _corridor_session():
    """`_test_scans` with voxel 0.02 and window 3: (GeoSession,
    ground-truth trajectory)."""
    clouds, gt = _test_scans()
    return GeoSession(clouds, build_graph(4, 3), RcdConfig(voxel_size=0.02)), gt


class TestBatchedCorrespondences:
    """`graph_loss` queries each frame's tree once for all its neighbors;
    it must give exactly the sum over one-edge graphs."""

    @pytest.fixture(scope="class")
    def session(self):
        geo, gt = _corridor_session()
        init = perturb_poses(gt, 3.0, 0.05, 2)
        return geo, [Se3Param.from_matrix(p) for p in init.poses]

    @pytest.mark.parametrize("normals", [True, False])
    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_equals_per_edge_sum(self, session, normals, t):
        geo, poses = session
        clouds = (geo.clouds if normals
                  else [PointCloud(c.points) for c in geo.clouds])
        total = 0.0
        grads = np.zeros((4, 6))
        for i, j in geo.graph.edges:
            loss, gi, gj = edge_chamfer(clouds[i], clouds[j], poses[i],
                                        poses[j], geo.cfg, t,
                                        [geo.trees[i], geo.trees[j]])
            total += loss
            grads[i] += gi
            grads[j] += gj
        n = len(geo.graph.edges)
        loss, batched = graph_loss(clouds, poses, geo.graph, geo.cfg, t,
                                   trees=geo.trees)
        assert np.array_equal(loss, total / n)
        assert np.array_equal(batched, grads / n)


class TestCpuCountInvariance:
    """The geometric phase runs on the shared pool: surface clouds frame by
    frame, correspondence queries frame by frame while the calling thread
    evaluates edges, ICP pairs pair by pair. None of its outputs may depend
    on the CPU count, bit for bit; the reference runs on one CPU, where
    every task runs in order on the calling thread."""

    CPUS = (1, 2, 3, 8)

    @pytest.fixture(scope="class")
    def scans(self):
        clouds, gt = _test_scans()
        return clouds, perturb_poses(gt, 3.0, 0.05, 2)

    @pytest.fixture(autouse=True)
    def frequent_switches(self):
        """Frequent thread switches, so that tasks sharing state would
        show."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        yield
        sys.setswitchinterval(interval)

    def _for_each_cpu_count(self, set_cpus, run):
        set_cpus(1)
        want = run()
        for cpus in self.CPUS[1:]:
            set_cpus(cpus)
            yield cpus, want, run()

    def test_session_clouds_and_normals(self, scans, set_cpus):
        clouds, _ = scans

        def run():
            geo = GeoSession(clouds, build_graph(4, 3),
                             RcdConfig(voxel_size=0.02))
            return [(c.points, c.normals) for c in geo.clouds]

        for cpus, want, got in self._for_each_cpu_count(set_cpus, run):
            assert all(n is not None for _, n in want)
            for (p, n), (p_ref, n_ref) in zip(got, want):
                np.testing.assert_array_equal(p, p_ref, err_msg=f"{cpus} CPUs")
                np.testing.assert_array_equal(n, n_ref, err_msg=f"{cpus} CPUs")

    @pytest.mark.parametrize("normals", [True, False])
    def test_graph_loss_and_gradients(self, scans, set_cpus, normals):
        clouds, init = scans
        geo = GeoSession(clouds, build_graph(4, 3), RcdConfig(voxel_size=0.02))
        frames = (geo.clouds if normals
                  else [PointCloud(c.points) for c in geo.clouds])
        poses = [Se3Param.from_matrix(p) for p in init.poses]

        def run():
            return graph_loss(frames, poses, geo.graph, geo.cfg, 0.3,
                              trees=geo.trees)

        for cpus, want, got in self._for_each_cpu_count(set_cpus, run):
            assert want[0] > 0.0 and np.abs(want[1]).max() > 0.0
            assert got[0] == want[0], f"{cpus} CPUs"
            np.testing.assert_array_equal(got[1], want[1],
                                          err_msg=f"{cpus} CPUs")

    def test_five_geo_steps(self, scans, set_cpus, cache_audit):
        # The steps after the first reuse cached nearest neighbors.
        clouds, init = scans

        def run():
            losses = []
            answered = sum(cache_audit.answered)
            requeried = sum(cache_audit.requeried)
            out = geo_optimize(clouds,
                               [Se3Param.from_matrix(p) for p in init.poses],
                               build_graph(4, 3), RcdConfig(voxel_size=0.02),
                               5, 5e-3, 1e-3, loss_log=losses)
            reused = ((sum(cache_audit.answered) - answered)
                      - (sum(cache_audit.requeried) - requeried))
            assert reused > 0
            return np.array([np.concatenate([p.rho, p.phi]) for p in out]), losses

        for cpus, want, got in self._for_each_cpu_count(set_cpus, run):
            np.testing.assert_array_equal(got[0], want[0],
                                          err_msg=f"{cpus} CPUs")
            assert got[1] == want[1], f"{cpus} CPUs"

    def test_icp_odometry_equals_serial_chain(self, scans, set_cpus):
        clouds, init = scans
        relatives = [np.eye(4)] + [invert_rigid(init.poses[i - 1])
                                   @ init.poses[i] for i in range(1, 4)]
        set_cpus(1)
        chain = [np.eye(4)]
        for i in range(1, 4):
            chain.append(chain[-1] @ icp_pairwise(
                clouds[i], clouds[i - 1], max_iters=5, init=relatives[i]))
        for cpus in self.CPUS:
            set_cpus(cpus)
            got = icp_odometry(clouds, relatives, max_iters=5)
            assert len(got) == 4
            for pose, ref in zip(got, chain):
                np.testing.assert_array_equal(pose, ref,
                                              err_msg=f"{cpus} CPUs")


class TestCachedCorrespondences:
    """`GeoSession` keeps each frame's nearest neighbors from step to step
    where a bound proves them unchanged (`spatial.NearestCache`); every
    step's indices must equal fresh `KdTree.query_many` ones, which
    `cache_audit` checks on every query."""

    @pytest.mark.parametrize("preset", ["corridor", "low_overlap"])
    def test_twenty_geo_steps_equal_fresh_queries(self, preset, cache_audit):
        clouds, gt = _test_scans(preset)
        init = perturb_poses(gt, 5.0, 0.1, 1)
        geo_optimize(clouds, [Se3Param.from_matrix(p) for p in init.poses],
                     build_graph(4, 3), RcdConfig(voxel_size=0.02), 20,
                     5e-3, 1e-3)
        answered = sum(cache_audit.answered)
        requeried = sum(cache_audit.requeried)
        first_step = answered / 20
        # both paths: points reused, and points queried after the first step
        assert first_step < requeried < answered
        assert len(cache_audit.answered) == 20 * 4


class TestGroundTruthStationary:
    """At ground truth the geometric objective must not push any pose.

    Set-up of the trainer tests: the 4-frame corridor seen by a 16 x 120
    scanner, voxel 0.02, window 3. The point-to-point objective had
    |d rho| up to 2.2e-2 and |d phi| up to 4.7e-3 here at t = 0, and 1.5e-3
    and 2.9e-4 at t = t0. Each temperature has its own bounds: a tenth of
    that bias at t = 0, and at t = t0 a tenth of it in rho and half of it
    in phi (the point-to-plane residual leaves 8.1e-5 in phi there, from
    normals that blend two surfaces at edges and creases).
    """

    BOUNDS = {0.0: (2.2e-3, 4.7e-4), 0.5: (1.5e-4, 1.45e-4)}

    @pytest.fixture(scope="class")
    def session(self):
        geo, gt = _corridor_session()
        return geo, [Se3Param.from_matrix(p) for p in gt.poses]

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_graph_gradient_vanishes_at_ground_truth(self, session, t):
        geo, poses = session
        assert geo.cfg.t0 == 0.5
        _, grads = graph_loss(geo.clouds, poses, geo.graph, geo.cfg, t,
                              trees=geo.trees)
        bound_rho, bound_phi = self.BOUNDS[t]
        assert np.abs(grads[:, :3]).max() < bound_rho
        assert np.abs(grads[:, 3:]).max() < bound_phi


class TestSurfaceFallback:
    @pytest.mark.parametrize("bad", ["collinear", "tiny"])
    def test_frame_without_normals_warns_and_uses_point_to_point(self, bad):
        rng = np.random.default_rng(21)

        def plane(z):
            return np.column_stack([rng.uniform(-1, 1, 300),
                                    rng.uniform(-1, 1, 300),
                                    z + 0.01 * rng.normal(size=300)])

        if bad == "collinear":
            odd = np.column_stack([np.linspace(-1, 1, 60), np.zeros(60),
                                   np.full(60, -0.5)])
        else:
            odd = plane(-0.5)[:10]
        clouds = [PointCloud(plane(-0.5)), PointCloud(plane(-0.52)),
                  PointCloud(odd)]
        cfg = RcdConfig(voxel_size=0.1)
        with pytest.warns(RuntimeWarning, match="point-to-point"):
            geo = GeoSession(clouds, build_graph(3, 2), cfg)
        assert geo.clouds[0].normals is not None
        assert geo.clouds[1].normals is not None
        assert geo.clouds[2].normals is None
        poses = [Se3Param(), Se3Param([0.01, 0.0, 0.02]), Se3Param()]
        # the edge to the bare frame ignores the other frame's normals
        with_normals = edge_chamfer(geo.clouds[0], geo.clouds[2], poses[0],
                                    poses[2], cfg, 0.2)
        bare = edge_chamfer(PointCloud(geo.clouds[0].points), geo.clouds[2],
                            poses[0], poses[2], cfg, 0.2)
        for x, y in zip(with_normals, bare):
            np.testing.assert_array_equal(x, y)
        loss, grads = graph_loss(geo.clouds, poses, geo.graph, cfg, 0.2,
                                 trees=geo.trees)
        assert np.isfinite(loss) and np.isfinite(grads).all()


class TestGeoOptimize:
    def test_recovers_corridor_from_large_noise(self):
        """8-frame corridor from 5 deg / 0.1 noise (ATE 0.126 at the start).

        Plain point-to-point Chamfer ended this run at ATE 0.0906 and the
        point-to-plane residual alone at 0.0996; the bound keeps recovery
        from large noise at least as good as plain Chamfer's.
        """
        scanner = ScannerConfig(beams=16, azimuth_steps=120, max_range=1.2,
                                drop_prob=0.02)
        scene = make_scene("corridor", 0)
        gt = make_trajectory("corridor", 8, 0)
        clouds = [unproject(lidar_scan(scene, gt.poses[i], scanner, seed=i)[0],
                            scanner) for i in range(8)]
        init = perturb_poses(gt, 5.0, 0.1, 1)
        out = geo_optimize(clouds, [Se3Param.from_matrix(p) for p in init.poses],
                           build_graph(8, 4), RcdConfig(voxel_size=0.02), 300,
                           5e-3, 1e-3)
        est = Trajectory(gt.frame_ids, np.array([se3_decoupled(p) for p in out]))
        assert pose_metrics(est, gt).ate_m <= 0.091

    def test_aligned_clouds_stay_put(self):
        rng = np.random.default_rng(10)
        cloud = PointCloud(rng.uniform(size=(200, 3)))
        clouds = [cloud, cloud]
        poses = [Se3Param(), Se3Param()]
        out = geo_optimize(clouds, poses, build_graph(2, 1),
                           RcdConfig(voxel_size=0.02), steps=100,
                           lr_rot=5e-3, lr_trans=1e-3)
        for p in out:
            assert np.abs(p.rho).max() < 1e-6
            assert np.abs(p.phi).max() < 1e-6

    def test_recovers_offset_pair(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(500, 3))
        cloud = PointCloud(pts)
        true_rel = Se3Param([0.21, -0.15, 0.12],
                            np.deg2rad(10.0) * np.array([0.0, 0.0, 1.0]))
        # cloud 1 observed from a pose offset by true_rel
        moved = PointCloud(
            (pts - true_rel.rho) @ so3_exp(true_rel.phi))
        clouds = [cloud, moved]
        init = [Se3Param(), Se3Param()]
        losses = []
        out = geo_optimize(clouds, init, build_graph(2, 1),
                           RcdConfig(voxel_size=0.02), steps=500,
                           lr_rot=1e-2, lr_trans=5e-3, loss_log=losses)
        est = se3_decoupled(out[1])
        ref = se3_decoupled(true_rel)
        rot_err = np.degrees(rotation_angle(est[:3, :3].T @ ref[:3, :3]))
        trans_err = np.linalg.norm(est[:3, 3] - ref[:3, 3])
        assert rot_err < 0.5
        assert trans_err < 0.01
        # loss broadly decreases
        assert losses[-1] < losses[0] * 0.05

    def test_gauge_and_relative_recovery(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(size=(400, 3))
        world = PointCloud(pts)
        gt = [Se3Param(),
              Se3Param([0.1, 0.05, 0.0], [0.0, 0.0, 0.1]),
              Se3Param([0.2, 0.1, 0.05], [0.0, 0.0, 0.2])]
        clouds = [PointCloud((pts - g.rho) @ so3_exp(g.phi)) for g in gt]
        noisy = [gt[0].copy(),
                 Se3Param(gt[1].rho + [0.05, -0.04, 0.02], gt[1].phi + 0.05),
                 Se3Param(gt[2].rho + [-0.03, 0.05, -0.02], gt[2].phi - 0.04)]
        out = geo_optimize(clouds, noisy, build_graph(3, 2),
                           RcdConfig(voxel_size=0.02), steps=400,
                           lr_rot=1e-2, lr_trans=5e-3)
        assert np.array_equal(out[0].rho, gt[0].rho)  # gauge frozen
        for est, ref in zip(out[1:], gt[1:]):
            assert np.linalg.norm(est.rho - ref.rho) < 0.02
            assert np.degrees(np.linalg.norm(est.phi - ref.phi)) < 1.0

    @pytest.mark.parametrize("lr_rot, lr_trans", [
        (0.0, 1e-3), (5e-3, 0.0), (-5e-3, 1e-3), (5e-3, -1e-3),
        (float("nan"), 1e-3)])
    def test_non_positive_rate_rejected(self, lr_rot, lr_trans):
        # A zero rate divides by zero in the decay, a negative one climbs.
        cloud = PointCloud(np.random.default_rng(13).uniform(size=(50, 3)))
        with pytest.raises(ValueError, match="must be > 0"):
            geo_optimize([cloud, cloud], [Se3Param(), Se3Param()],
                         build_graph(2, 1), RcdConfig(voxel_size=0.02),
                         steps=1, lr_rot=lr_rot, lr_trans=lr_trans)


class TestIcp:
    def test_identity(self):
        pts = np.random.default_rng(13).uniform(size=(200, 3))
        t = icp_pairwise(PointCloud(pts), PointCloud(pts))
        np.testing.assert_allclose(t, np.eye(4), atol=1e-8)

    def test_recovers_small_transform(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(size=(400, 3))
        true = se3_decoupled(Se3Param([0.02, 0.05, -0.03],
                                      np.deg2rad(2.0) * np.array([0.2, 0.3, 0.93])))
        target = PointCloud(pts @ true[:3, :3].T + true[:3, 3])
        est = icp_pairwise(PointCloud(pts), target, max_iters=100, tol=1e-12)
        assert np.abs(est - true).max() < 1e-4

    def test_large_rotation_of_symmetric_shape_fails(self):
        # a square of points rotated 90 degrees looks locally aligned;
        # classic failure mode of point-to-point ICP
        rng = np.random.default_rng(15)
        square = np.column_stack([rng.uniform(-1, 1, 600),
                                  rng.uniform(-1, 1, 600),
                                  np.zeros(600)])
        true = se3_decoupled(Se3Param(np.zeros(3), [0.0, 0.0, np.pi / 2]))
        target = PointCloud(square @ true[:3, :3].T + true[:3, 3])
        est = icp_pairwise(PointCloud(square), target, max_iters=100)
        # converges, but to a different optimum than the true transform
        assert np.abs(est - true).max() > 0.5

    def test_degenerate_raises(self):
        pts = np.array([[0.0, 0.0, 0.0]] * 5)
        with pytest.raises(DegenerateCorrespondences):
            icp_pairwise(PointCloud(pts), PointCloud(pts))

    def test_needs_three_points(self):
        with pytest.raises(EmptyCloud):
            icp_pairwise(PointCloud([[0.0, 0.0, 0.0]]),
                         PointCloud([[1.0, 1.0, 1.0]]))
