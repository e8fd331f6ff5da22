"""Flat key=value run configuration.

Keys are dotted (`section.name`); the schema is generated from the config
dataclasses so every scanner / field / rcd / train knob is exposed with its
default. Unknown keys are rejected with the offending line number.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .encoding import EncodingConfig
from .errors import ConfigError
from .rcd import RcdConfig
from .scene import ScannerConfig
from .trainer import TrainConfig

_SECTIONS = {
    "scanner": ScannerConfig,
    "rcd": RcdConfig,
    "field": EncodingConfig,
    "train": TrainConfig,
}

_EXTRA_DEFAULTS = {
    "geo.steps": 300,
    "geo.lr_rot": 5e-3,
    "geo.lr_trans": 1e-3,
    "gen.holdout_stride": 9,
}


# Every number and flag of the config dataclasses (a nested config such as
# TrainConfig.rcd has no plain default), then the extra keys.
_SCHEMA: dict[str, object] = {
    **{f"{section}.{f.name}": f.default
       for section, cls in _SECTIONS.items()
       for f in dataclasses.fields(cls)
       if isinstance(f.default, (int, float))},
    **_EXTRA_DEFAULTS}


class RunConfig:
    """Effective configuration: schema defaults plus parsed overrides."""

    def __init__(self):
        self.values = dict(_SCHEMA)

    # -- parsing -----------------------------------------------------------

    def _coerce(self, key: str, raw: str, line: int):
        default = _SCHEMA[key]
        try:
            if isinstance(default, bool):
                token = raw.strip().lower()
                if token in ("true", "1", "yes"):
                    return True
                if token in ("false", "0", "no"):
                    return False
                raise ValueError(f"not a boolean: {raw!r}")
            if isinstance(default, int):
                return int(raw.strip())
            return float(raw.strip())
        except ValueError as exc:
            raise ConfigError(f"bad value for {key} (line {line}): {exc}",
                              line=line) from exc

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        cfg = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}",
                                  line=lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in cfg.values:
                raise ConfigError(f"line {lineno}: unknown config key {key!r}",
                                  line=lineno)
            cfg.values[key] = cfg._coerce(key, value, lineno)
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.parse(Path(path).read_text())

    def serialize(self) -> str:
        lines = [f"{k} = {self._fmt(v)}" for k, v in sorted(self.values.items())]
        return "\n".join(lines) + "\n"

    @staticmethod
    def _fmt(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    def write(self, path) -> None:
        Path(path).write_text(self.serialize())

    def __getitem__(self, key: str):
        return self.values[key]

    def section(self, name: str) -> dict:
        prefix = name + "."
        return {k[len(prefix):]: v for k, v in self.values.items()
                if k.startswith(prefix)}

    # -- typed views -------------------------------------------------------

    def _typed(self, cls, section: str, **extra):
        """`cls` built from one section; a value its checks reject is a
        ConfigError."""
        try:
            return cls(**extra, **self.section(section))
        except ValueError as exc:
            raise ConfigError(f"bad {section} config: {exc}") from exc

    def scanner(self) -> ScannerConfig:
        return self._typed(ScannerConfig, "scanner")

    def rcd(self) -> RcdConfig:
        return self._typed(RcdConfig, "rcd")

    def encoding(self) -> EncodingConfig:
        return self._typed(EncodingConfig, "field")

    def train(self) -> TrainConfig:
        return self._typed(TrainConfig, "train", rcd=self.rcd())
