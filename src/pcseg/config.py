"""Run configuration: a typed key=value file with validated ranges."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields


@dataclass
class RunConfig:
    """Every knob of the pipeline, with desk-scale defaults.

    `max_points` is the per-cloud cap applied when building episodes;
    `episodes` is the training episode count; `momentum` drives the
    training-class prototype updates.
    """

    seed: int = 0
    grid_size: float = 0.02
    block_size: float = 1.0
    max_points: int = 20480
    n_way: int = 1
    k_shot: int = 1
    n_prototypes: int = 10
    hca_layers: int = 2
    momentum: float = 0.995
    dim: int = 32
    lr: float = 1e-3
    weight_decay: float = 0.01
    episodes: int = 2000
    min_fg_points: int = 100
    heads: int = 1

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        checks = [
            ("seed", self.seed >= 0, ">= 0"),
            ("grid_size", self.grid_size > 0, "> 0"),
            ("block_size", self.block_size > 0, "> 0"),
            ("max_points", self.max_points >= 1, ">= 1"),
            ("n_way", self.n_way >= 1, ">= 1"),
            ("k_shot", self.k_shot >= 1, ">= 1"),
            ("n_prototypes", self.n_prototypes >= 1, ">= 1"),
            ("hca_layers", self.hca_layers >= 1, ">= 1"),
            ("momentum", 0.0 <= self.momentum <= 1.0, "in [0, 1]"),
            ("dim", self.dim >= 2, ">= 2"),
            ("lr", self.lr > 0, "> 0"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
            ("episodes", self.episodes >= 0, ">= 0"),
            ("min_fg_points", self.min_fg_points >= 1, ">= 1"),
            ("heads", self.heads >= 1, ">= 1"),
            ("heads", self.dim % self.heads == 0, "a divisor of dim"),
        ]
        checks += [
            (name, math.isfinite(getattr(self, name)), "finite")
            for name in ("grid_size", "block_size", "lr", "weight_decay")
        ]
        for name, ok, requirement in checks:
            if not ok:
                raise ValueError(f"config field {name} must be {requirement}, got {getattr(self, name)}")

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" or isinstance(value, float):
                lines.append(f"{f.name}={value:.17g}")
            else:
                lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, source: str | None = None) -> "RunConfig":
        """Parse `key=value` lines; errors name `source:line`, or `line N` without a source."""
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            at = f"{source}:{lineno}" if source else f"line {lineno}"
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{at}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key not in types:
                raise ValueError(f"{at}: unknown config key {key!r}")
            if key in kwargs:
                raise ValueError(f"{at}: duplicate config key {key!r}")
            try:
                kwargs[key] = float(raw) if types[key] == "float" else int(raw)
            except ValueError:
                raise ValueError(f"{at}: cannot parse {key}={raw!r}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            if source:
                raise ValueError(f"{source}: {exc}") from None
            raise

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = os.fspath(path)
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
        return cls.from_text(text, source=path)
