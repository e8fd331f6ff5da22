import os
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from geonlf.cli import holdout_ids, main
from geonlf.formats import read_rimg, read_trajectory
from geonlf.geometry import Trajectory
from geonlf.metrics import pose_metrics


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small generated corridor dataset shared across CLI tests."""
    out = tmp_path_factory.mktemp("data")
    rc = main(["gen", "--preset", "corridor", "--frames", "6",
               "--sigma-rot", "4.0", "--sigma-trans", "0.08",
               "--seed", "3", "--out", str(out),
               "--config", str(_small_cfg(tmp_path_factory))])
    assert rc == 0
    return out


def _small_cfg(tmp_path_factory, beams=16):
    cfg_dir = tmp_path_factory.mktemp("cfg")
    path = cfg_dir / "small.cfg"
    path.write_text(
        f"scanner.beams = {beams}\n"
        "scanner.azimuth_steps = 120\n"
        "scanner.max_range = 1.2\n"
        "train.iterations = 48\n"
        "train.rays_per_batch = 128\n"
        "train.samples_per_ray = 16\n"
        "train.hidden_width = 16\n"
        "train.top_k = 2\n"
        "field.levels = 2\n"
        "field.base_resolution = 8\n"
        "field.planar_resolution = 16\n"
        "field.hash_table_size = 4096\n"
        "rcd.voxel_size = 0.02\n"
        "geo.steps = 150\n"
        "gen.holdout_stride = 5\n")
    return path


class TestHoldout:
    def test_spec_pattern_36(self):
        assert holdout_ids(36, 9) == [9, 18, 27, 35]

    def test_short_sequences(self):
        assert holdout_ids(8, 9) == []
        assert holdout_ids(10, 9) == [9]
        assert holdout_ids(18, 9) == [9, 17]

    def test_disabled(self):
        assert holdout_ids(36, 0) == []

    def test_negative_stride_exit_1(self, tmp_path, capsys):
        # Read as "no hold-outs", it wrote an empty holdout.txt and exited 0.
        bad = tmp_path / "stride.cfg"
        bad.write_text("gen.holdout_stride = -3\n")
        rc = main(["gen", "--frames", "5", "--config", str(bad),
                   "--out", str(tmp_path / "data")])
        assert rc == 1
        assert capsys.readouterr().err == \
            "error: gen.holdout_stride must be >= 0, got -3\n"
        assert not (tmp_path / "data").exists()


class TestGen:
    def test_file_layout(self, dataset):
        names = sorted(p.name for p in dataset.iterdir())
        assert sum(n.endswith(".rimg") for n in names) == 6
        assert sum(n.endswith(".ply") for n in names) == 6
        for required in ("gt_traj.txt", "init_traj.txt", "holdout.txt",
                         "gen.cfg"):
            assert required in names
        held = [int(x) for x in (dataset / "holdout.txt").read_text().split()]
        assert held == [5]

    def test_deterministic_bytes(self, tmp_path_factory):
        cfg = _small_cfg(tmp_path_factory)
        out1 = tmp_path_factory.mktemp("g1")
        out2 = tmp_path_factory.mktemp("g2")
        for out in (out1, out2):
            assert main(["gen", "--preset", "corridor", "--frames", "4",
                         "--seed", "7", "--out", str(out),
                         "--config", str(cfg)]) == 0
        for name in sorted(p.name for p in out1.iterdir()):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_frame_zero_unperturbed(self, dataset):
        gt = read_trajectory(dataset / "gt_traj.txt")
        init = read_trajectory(dataset / "init_traj.txt")
        np.testing.assert_allclose(init.poses[0], gt.poses[0], atol=1e-12)
        assert not np.allclose(init.poses[1], gt.poses[1])


class TestRegister:
    def test_steps_zero_copies_init(self, dataset, tmp_path):
        out = tmp_path / "reg0"
        rc = main(["register", str(dataset), "--steps", "0",
                   "--out", str(out)])
        assert rc == 0
        est = read_trajectory(out / "est_traj.txt")
        init = read_trajectory(dataset / "init_traj.txt")
        np.testing.assert_allclose(est.poses, init.poses, atol=1e-12)

    def test_register_improves_ate(self, dataset, tmp_path):
        out = tmp_path / "reg"
        rc = main(["register", str(dataset), "--out", str(out)])
        assert rc == 0
        est = read_trajectory(out / "est_traj.txt")
        gt = read_trajectory(dataset / "gt_traj.txt")
        init = read_trajectory(dataset / "init_traj.txt")
        assert pose_metrics(est, gt).ate_m < pose_metrics(init, gt).ate_m
        assert (out / "losses.csv").exists()


class TestBaselineIcp:
    def test_produces_trajectory(self, dataset, tmp_path):
        out = tmp_path / "icp"
        rc = main(["baseline-icp", str(dataset), "--out", str(out)])
        assert rc == 0
        est = read_trajectory(out / "est_traj.txt")
        assert len(est) == 6


class TestReconstruct:
    def test_outputs_and_library_equivalence(self, dataset, tmp_path):
        out = tmp_path / "rec"
        rc = main(["reconstruct", str(dataset), "--out", str(out),
                   "--register-steps", "10"])
        assert rc == 0
        est = read_trajectory(out / "est_traj.txt")
        assert est.frame_ids == list(range(6))   # holdout 5 re-registered
        assert (out / "field.gnlf").exists()
        assert (out / "losses.csv").exists()
        assert (out / "pred_frame_0005.rimg").exists()
        losses = (out / "losses.csv").read_text().strip().split("\n")
        assert losses[0].startswith("iter,phase,total")
        assert len(losses) > 48

    def test_exit_code_on_missing_data(self, tmp_path):
        rc = main(["reconstruct", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "o")])
        assert rc == 1


class TestEval:
    def test_self_eval_zero(self, dataset, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["eval", str(dataset / "gt_traj.txt"),
                   str(dataset / "gt_traj.txt"), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        vals = lines[1].split(",")
        assert float(vals[1]) < 1e-9 and float(vals[2]) < 1e-9
        assert float(vals[3]) < 1e-6

    def test_matches_library(self, dataset, tmp_path):
        init = dataset / "init_traj.txt"
        gt = dataset / "gt_traj.txt"
        out = tmp_path / "m.csv"
        assert main(["eval", str(init), str(gt), "--out", str(out)]) == 0
        line = out.read_text().strip().split("\n")[1].split(",")
        pm = pose_metrics(read_trajectory(init), read_trajectory(gt))
        np.testing.assert_allclose(float(line[1]), pm.ate_m, rtol=1e-6)
        np.testing.assert_allclose(float(line[2]), pm.rpe_t_cm, rtol=1e-6)
        np.testing.assert_allclose(float(line[3]), pm.rpe_r_deg, rtol=1e-6)

    @staticmethod
    def _eval_scans(dataset, tmp_path, *flags):
        """eval with the dataset's scans as the predicted ones; returns the
        metrics row by column."""
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        for src in dataset.glob("frame_*.rimg"):
            fid = int(src.stem.split("_")[1])
            (pred_dir / f"pred_frame_{fid:04d}.rimg").write_bytes(
                src.read_bytes())
        out = tmp_path / "m.csv"
        rc = main(["eval", str(dataset / "gt_traj.txt"),
                   str(dataset / "gt_traj.txt"),
                   "--pred-dir", str(pred_dir), "--gt-dir", str(dataset),
                   "--out", str(out), *flags])
        assert rc == 0
        header, row = out.read_text().strip().split("\n")[:2]
        return dict(zip(header.split(","), row.split(",")))

    def test_eval_with_scans(self, dataset, tmp_path):
        # predicted scans == ground truth scans -> perfect NVS metrics
        cols = self._eval_scans(dataset, tmp_path,
                                "--config", str(dataset / "gen.cfg"))
        assert float(cols["cd"]) < 1e-12
        assert float(cols["fscore"]) == 1.0
        assert float(cols["psnr_d"]) == 99.0

    def test_scans_read_the_datasets_scanner(self, dataset, tmp_path):
        # Without --config, eval unprojects with --gt-dir's gen.cfg: the
        # default 32-beam scanner would reject the 16-beam scans.
        cols = self._eval_scans(dataset, tmp_path)
        assert float(cols["fscore"]) == 1.0


class TestPlot:
    def test_polyline_count_and_labels(self, dataset, tmp_path):
        out = tmp_path / "p.svg"
        rc = main(["plot", str(dataset / "gt_traj.txt"),
                   str(dataset / "init_traj.txt"), "--out", str(out)])
        assert rc == 0
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ET.parse(out).getroot()
        assert len(root.findall(".//svg:polyline", ns)) == 2
        labels = [t.text for t in root.findall(".//svg:text", ns)]
        assert labels == ["gt_traj", "init_traj"]


# (subcommand and its positionals, flag, bad value, the bound it breaks)
BAD_NUMBERS = [
    (["eval", "e.txt", "r.txt"], "--fscore-threshold", "0", "> 0"),
    (["gen"], "--frames", "-3", ">= 2"),
    (["gen"], "--frames", "0", ">= 2"),
    (["gen"], "--frames", "1", ">= 2"),
    (["gen"], "--sigma-rot", "-5", ">= 0"),
    (["gen"], "--sigma-rot", "nan", ">= 0"),
    (["gen"], "--sigma-trans", "-0.1", ">= 0"),
    (["gen"], "--sigma-trans", "inf", ">= 0"),
    (["gen"], "--seed", "-1", ">= 0"),
    (["reconstruct", "data"], "--register-steps", "-3", ">= 0"),
    (["baseline-icp", "data"], "--max-iters", "-2", ">= 0"),
]


class TestErrors:
    def test_bad_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("who.knows = 3\n")
        rc = main(["gen", "--preset", "corridor", "--frames", "3",
                   "--out", str(tmp_path / "x"), "--config", str(bad)])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["plot", "t.txt", "--config", "c.cfg"],
        ["plot", "t.txt", "--seed", "1"],
        ["eval", "e.txt", "r.txt", "--seed", "1"],
        ["baseline-icp", "data", "--config", "c.cfg"],
        ["baseline-icp", "data", "--seed", "1"],
        ["register", "data", "--seed", "1"],
    ])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        # Flags a subcommand never reads are not accepted: argparse exits
        # with its usage error before anything runs.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--pred-dir", "--gt-dir"])
    def test_lone_scan_dir_is_a_usage_error(self, flag, dataset, capsys):
        # Scans are compared only with both directories; one alone would
        # be ignored and every scan column read nan.
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(dataset / "gt_traj.txt"),
                  str(dataset / "gt_traj.txt"), flag, str(dataset)])
        assert exc.value.code == 2
        assert "--pred-dir and --gt-dir" in capsys.readouterr().err

    def test_no_prediction_with_a_ground_truth_scan_exit_1(self, dataset,
                                                           tmp_path, capsys):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        (pred_dir / "pred_frame_0099.rimg").write_bytes(
            (dataset / "frame_0000.rimg").read_bytes())
        out = tmp_path / "m.csv"
        rc = main(["eval", str(dataset / "gt_traj.txt"),
                   str(dataset / "gt_traj.txt"), "--pred-dir", str(pred_dir),
                   "--gt-dir", str(dataset), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(pred_dir) in err and str(dataset) in err
        assert not out.exists()

    def test_bad_config_value_exit_1(self, dataset, tmp_path, capsys):
        # A value that parses but that its section's config rejects is
        # reported as an error line, not a traceback.
        for key in ("rcd.voxel_size", "train.graph_window"):
            bad = tmp_path / f"{key}.cfg"
            bad.write_text(f"{key} = 0\n")
            rc = main(["register", str(dataset), "--config", str(bad),
                       "--out", str(tmp_path / "reg")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and key.split(".")[1] in err

    def test_negative_steps_is_a_usage_error(self, dataset, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["register", str(dataset), "--steps", "-3",
                  "--out", str(tmp_path / "reg")])
        assert exc.value.code == 2
        assert "--steps: must be >= 0, got -3" in capsys.readouterr().err
        assert not (tmp_path / "reg").exists()

    @pytest.mark.parametrize("argv, flag, value, need", BAD_NUMBERS,
                             ids=[f"{c[1][2:]}={c[2]}" for c in BAD_NUMBERS])
    def test_bad_number_is_a_usage_error(self, argv, flag, value, need,
                                         tmp_path, capsys):
        # Each of these crashed with a traceback, wrote an empty dataset or
        # was silently read as no noise / no iterations.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value, "--out", str(out)])
        assert exc.value.code == 2
        assert f"{flag}: must be {need}, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["geo.lr_rot", "geo.lr_trans"])
    @pytest.mark.parametrize("value", ["0", "-0.001"])
    def test_non_positive_geo_rate_exit_1(self, key, value, dataset,
                                          tmp_path, capsys):
        # A zero rate divided by zero in the decay; a negative one climbed.
        bad = tmp_path / "lr.cfg"
        bad.write_text(f"{key} = {value}\n")
        rc = main(["register", str(dataset), "--config", str(bad),
                   "--steps", "2", "--out", str(tmp_path / "reg")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be > 0")
        assert not (tmp_path / "reg").exists()

    def test_negative_config_steps_exit_1(self, dataset, tmp_path, capsys):
        bad = tmp_path / "steps.cfg"
        bad.write_text("geo.steps = -3\n")
        rc = main(["register", str(dataset), "--config", str(bad),
                   "--out", str(tmp_path / "reg")])
        assert rc == 1
        assert capsys.readouterr().err == "error: geo.steps must be >= 0, got -3\n"
        assert not (tmp_path / "reg").exists()

    def test_empty_sampling_range_exit_1(self, dataset, tmp_path_factory,
                                         capsys):
        # The small config's max_range is 1.2.
        cfg = _small_cfg(tmp_path_factory)
        cfg.write_text(cfg.read_text() + "train.t_near = 5.0\n")
        out = tmp_path_factory.mktemp("near")
        rc = main(["reconstruct", str(dataset), "--out", str(out),
                   "--config", str(cfg), "--register-steps", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: empty sampling range") and "t_near" in err
        assert not (out / "est_traj.txt").exists()

    @pytest.mark.parametrize("key, value", [("max_range", -1.0),
                                            ("drop_prob", 1.5)])
    def test_bad_scanner_value_exit_1(self, key, value, tmp_path, capsys):
        bad = tmp_path / "scanner.cfg"
        bad.write_text(f"scanner.{key} = {value}\n")
        rc = main(["gen", "--frames", "3", "--config", str(bad),
                   "--out", str(tmp_path / "data")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad scanner config: {key} must be")
        assert not (tmp_path / "data").exists()

    def test_scanner_of_another_shape_exit_1(self, dataset, tmp_path_factory,
                                             capsys):
        # The dataset's scans are 16 x 120; an 8-beam scanner's pixel grid
        # does not fit them.
        out = tmp_path_factory.mktemp("rec8")
        rc = main(["reconstruct", str(dataset), "--out", str(out),
                   "--config", str(_small_cfg(tmp_path_factory, beams=8)),
                   "--register-steps", "10"])
        assert rc == 1
        assert "(16, 120)" in capsys.readouterr().err
        assert not (out / "est_traj.txt").exists()

    @pytest.mark.parametrize("command", ["gen", "reconstruct"])
    def test_negative_config_seed_exit_1(self, command, dataset, tmp_path,
                                         capsys):
        # gen died in numpy's seeding with a traceback.
        bad = tmp_path / "seed.cfg"
        bad.write_text("train.seed = -1\n")
        argv = ["gen", "--frames", "3"] if command == "gen" \
            else ["reconstruct", str(dataset)]
        rc = main(argv + ["--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: bad train config: seed must be >= 0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, section", [
        ("train.top_k = -1", "train"), ("field.planar_channels = -1", "field")])
    def test_negative_config_count_exit_1(self, line, section, dataset,
                                          tmp_path, capsys):
        # A negative top_k silently turned reweighting off; negative planar
        # channels died in numpy with a traceback.
        bad = tmp_path / "count.cfg"
        bad.write_text(line + "\n")
        rc = main(["reconstruct", str(dataset), "--config", str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        name = line.split(" ")[0].partition(".")[2]
        assert capsys.readouterr().err == \
            f"error: bad {section} config: {name} must be >= 0\n"
        assert not (tmp_path / "o").exists()

    def test_unknown_preset_exit_1(self, tmp_path):
        rc = main(["gen", "--preset", "corridor", "--frames", "3",
                   "--out", str(tmp_path / "y")])
        assert rc == 0
        rc = main(["register", str(tmp_path / "missing"),
                   "--out", str(tmp_path / "z")])
        assert rc == 1
