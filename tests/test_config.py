import pytest

from geonlf.config import RunConfig
from geonlf.errors import ConfigError


class TestRunConfig:
    def test_defaults_cover_all_sections(self):
        cfg = RunConfig()
        for key in ("scanner.beams", "scanner.fov_up_deg", "rcd.voxel_size",
                    "rcd.t0", "field.levels", "train.iterations",
                    "train.lr_field_start", "geo.steps",
                    "gen.holdout_stride"):
            assert key in cfg.values
        assert cfg["scanner.beams"] == 32
        assert cfg["rcd.voxel_size"] == 0.01
        assert cfg["train.top_k"] == 5

    def test_parse_overrides(self):
        cfg = RunConfig.parse("rcd.voxel_size = 0.02\n"
                              "# comment\n"
                              "train.iterations=50\n"
                              "rcd.detach_weights = false\n")
        assert cfg["rcd.voxel_size"] == 0.02
        assert cfg["train.iterations"] == 50
        assert cfg["rcd.detach_weights"] is False

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.parse("scanner.beams = 16\nnot.a.key = 3\n")
        assert err.value.line == 2

    def test_bad_value_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            RunConfig.parse("train.iterations = banana\n")
        assert err.value.line == 1

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            RunConfig.parse("scanner.beams 16\n")

    def test_round_trip_identity(self):
        cfg = RunConfig.parse("scanner.beams = 16\ntrain.seed = 9\n"
                              "rcd.schedule = exponential\n")
        text = cfg.serialize()
        again = RunConfig.parse(text)
        assert again.values == cfg.values
        assert again.serialize() == text

    def test_typed_views(self):
        cfg = RunConfig.parse("scanner.beams = 16\nrcd.t0 = 0.25\n"
                              "train.rays_per_batch = 64\nfield.levels = 2\n")
        assert cfg.scanner().beams == 16
        assert cfg.rcd().t0 == 0.25
        train = cfg.train()
        assert train.rays_per_batch == 64
        assert train.rcd.t0 == 0.25
        assert cfg.encoding().levels == 2

    def test_constructor_rejects_unknown(self):
        with pytest.raises(ConfigError):
            RunConfig({"nope.nope": 1})

    def test_removed_keys_rejected(self):
        # These keys changed no number and are gone; a gen.cfg written
        # while they existed must have them deleted.
        for key in ("train.w0_end", "train.share_pose_adam",
                    "field.sinusoidal_levels"):
            with pytest.raises(ConfigError):
                RunConfig.parse(f"{key} = 1\n")
