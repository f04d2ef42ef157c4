"""The `key=value` format, and the run configuration written in it.

Config files, metrics, audit reports and the `key=value` heads of model
artifacts are written by `format_pairs` and read by `parse_pairs`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields


class PlacedError(ValueError):
    """A ValueError whose message already names the bad input's file or line."""


def not_utf8(path, lineno: int, exc: UnicodeDecodeError) -> str:
    """`<path>:<line>: byte 0x.. is not UTF-8 (<reason>)` for the byte `exc`
    failed on, which sits on file line `lineno`."""
    return f"{path}:{lineno}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"


def split_lines(text: str) -> list[str]:
    r"""The lines of `text`, each ended by `\n`, `\r\n` or `\r` only, as
    `bytes.splitlines` ends a cloud file's lines; `str.splitlines` would
    also end one at a form feed, `\x85`, `\u2028` and the like."""
    if "\r" in text:  # every file pcseg writes has none
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def read_utf8(path) -> str:
    """The text of the file at `path`; a byte that is not UTF-8 raises
    PlacedError naming the line it is on."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len(split_lines(data[:exc.start].decode("utf-8") + "x"))
        raise PlacedError(not_utf8(path, lineno, exc)) from None


def format_pairs(pairs) -> str:
    """One `key=value` line per pair: a float with 17 significant digits
    (exact for float64), any other value with `str`."""
    return "".join(f"{key}={value:.17g}\n" if isinstance(value, float) else f"{key}={value}\n"
                   for key, value in pairs)


def parse_pairs(lines, kind: str, known, source: str | None = None, first_line: int = 1):
    """Yield (place, key, raw value) for each `key=value` line, in order.

    Blank lines and `#` comments are skipped; keys and values are stripped.
    `place` is `source:line` (`line N` without a source), counting
    `lines[0]` as file line `first_line`. A line without `=`, a key not
    in `known` or a repeated key raises PlacedError, with `kind`
    (`config`, `[meta]`, ...) naming the key set.
    """
    seen = set()
    for lineno, line in enumerate(lines, start=first_line):
        at = f"{source}:{lineno}" if source else f"line {lineno}"
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PlacedError(f"{at}: expected {kind} key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise PlacedError(f"{at}: unknown {kind} key {key!r}")
        if key in seen:
            raise PlacedError(f"{at}: duplicate {kind} key {key!r}")
        seen.add(key)
        yield at, key, raw.strip()


def _int64(raw: str) -> int:
    """`int(raw)`, raising ValueError for a value that numpy cannot hold as int64."""
    value = int(raw)
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{raw!r} is outside int64")
    return value


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the pipeline, with desk-scale defaults.

    `max_points` is the per-cloud cap applied when building episodes;
    `episodes` is the training episode count; `momentum` drives the
    training-class prototype updates. Every field is checked once, at
    construction, and none can change after that.
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
            ("heads", self.heads >= 1 and self.dim % self.heads == 0, "a divisor of dim"),
        ]
        checks += [
            (name, math.isfinite(getattr(self, name)), "finite")
            for name in ("grid_size", "block_size", "lr", "weight_decay")
        ]
        checks += [
            (f.name, -2**63 <= getattr(self, f.name) < 2**63, "within int64")
            for f in fields(self) if f.type == "int"
        ]
        for name, ok, requirement in checks:
            if not ok:
                raise ValueError(f"config field {name} must be {requirement}, got {getattr(self, name)}")

    def to_text(self) -> str:
        return format_pairs(
            (f.name, float(getattr(self, f.name)) if f.type == "float" else getattr(self, f.name))
            for f in fields(self)
        )

    @classmethod
    def from_text(cls, text: str, source: str | None = None, first_line: int = 1) -> "RunConfig":
        """Parse `key=value` lines (see `parse_pairs`); a range error names `source`."""
        types = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for at, key, raw in parse_pairs(split_lines(text), "config", types, source, first_line):
            try:
                kwargs[key] = float(raw) if types[key] == "float" else _int64(raw)
            except ValueError:
                raise PlacedError(f"{at}: cannot parse {key}={raw!r}") from None
        try:
            return cls(**kwargs)
        except ValueError as exc:
            if source:
                raise PlacedError(f"{source}: {exc}") from None
            raise

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = os.fspath(path)
        return cls.from_text(read_utf8(path), source=path)
