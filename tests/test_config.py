import ast
from pathlib import Path

import pytest

from geonlf.config import _EXTRA_DEFAULTS, RunConfig
from geonlf.errors import ConfigError

SRC = Path(__file__).resolve().parent.parent / "src" / "geonlf"


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
                              "train.use_geo = false\n")
        assert cfg["rcd.voxel_size"] == 0.02
        assert cfg["train.iterations"] == 50
        assert cfg["train.use_geo"] is False

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
                              "rcd.t0 = 0.25\n")
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

    @pytest.mark.parametrize("key, view", [
        ("train.m1", "train"), ("train.samples_per_ray", "train"),
        ("train.rays_per_batch", "train"), ("train.graph_window", "train"),
        ("rcd.voxel_size", "rcd"), ("scanner.beams", "scanner"),
        ("train.hidden_width", "train"), ("field.levels", "encoding"),
        ("field.base_resolution", "encoding"),
        ("field.features_per_level", "encoding"),
        ("field.hash_table_size", "encoding"),
        ("field.planar_resolution", "encoding")])
    def test_typed_view_rejects_zero(self, key, view):
        # Zero parses; the section's own check rejects it when the typed
        # view is built, as a ConfigError rather than a crash later on.
        cfg = RunConfig.parse(f"{key} = 0\n")
        with pytest.raises(ConfigError, match=key.split(".")[1]):
            getattr(cfg, view)()

    def test_single_line_planes_rejected(self):
        # A 1 x 1 plane has no cell to interpolate in.
        cfg = RunConfig.parse("field.planar_resolution = 1\n")
        with pytest.raises(ConfigError, match="planar_resolution"):
            cfg.encoding()

    @pytest.mark.parametrize("key, view", [
        ("train.top_k", "train"), ("train.iterations", "train"),
        ("train.cd_every", "train"), ("train.alt_ratio_start", "train"),
        ("train.alt_ratio_end", "train"),
        ("field.planar_channels", "encoding")])
    def test_typed_view_rejects_negative(self, key, view):
        # Each negative value was accepted: top_k or cd_every switched its
        # term off, a ratio skipped the geometric epochs, and planar
        # channels failed in numpy. Zero stays valid.
        assert getattr(RunConfig.parse(f"{key} = 0\n"), view)()
        cfg = RunConfig.parse(f"{key} = -1\n")
        with pytest.raises(ConfigError,
                           match=f"{key.split('.')[1]} must be >= 0"):
            getattr(cfg, view)()

    def test_negative_seed_rejected(self):
        # numpy's generators take no negative seed.
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            RunConfig.parse("train.seed = -1\n").train()

    def test_removed_rcd_keys_rejected(self):
        # The weights are always held fixed and the temperature ramp is
        # always linear; a gen.cfg that still sets either key must drop it.
        for line in ("rcd.detach_weights = true", "rcd.schedule = linear"):
            with pytest.raises(ConfigError):
                RunConfig.parse(line + "\n")

    def test_removed_keys_rejected(self):
        # These keys changed no number and are gone; a gen.cfg written
        # while they existed must have them deleted.
        for key in ("train.w0_end", "train.share_pose_adam",
                    "field.sinusoidal_levels", "train.cd_subsample",
                    "train.use_sr"):
            with pytest.raises(ConfigError):
                RunConfig.parse(f"{key} = 1\n")


def _reads() -> tuple[set[str], set[str]]:
    """(attributes read, string constants) in `src/geonlf/*.py`, leaving
    out the `_EXTRA_DEFAULTS` table that declares the extra keys."""
    attrs, strings = set(), set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_EXTRA_DEFAULTS"
                    for t in stmt.targets):
                continue
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    attrs.add(node.attr)
                elif (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)):
                    strings.add(node.value)
    return attrs, strings


def test_every_config_key_is_read():
    """A config dataclass field must be read as an attribute somewhere in
    `src/`, and an extra key as a string, so that no key outlives the code
    that reads it."""
    attrs, strings = _reads()
    unread = [key for key in RunConfig().values
              if (key not in strings if key in _EXTRA_DEFAULTS
                  else key.partition(".")[2] not in attrs)]
    assert not unread, f"config keys nothing reads: {unread}"
