"""The `key=value` format, the run configuration written in it, and the
one reader of text files.

Config files, metrics, audit reports and the `key=value` heads of model
artifacts are written by `format_pairs` and read by `parse_pairs`. Cloud
files, config files and model artifacts are decoded and split into
numbered lines by `read_lines`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields


class PlacedError(ValueError):
    """A ValueError whose message already names the bad input's file and line."""


def read_lines(path) -> list[str]:
    r"""The lines of the UTF-8 text file at `path`, file line 1 first.

    Only `\n`, `\r\n` and `\r` end a line, as in `np.loadtxt`;
    `str.splitlines` would also end one at a form feed, `\x85`, `\u2028`
    and the like. A byte that is not UTF-8 raises PlacedError naming the
    line it is on.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # none in files pcseg writes; 0x0d is never inside a UTF-8 sequence
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise PlacedError(f"{path}:{lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    if not lines[-1]:
        lines.pop()
    return lines


def format_pairs(pairs) -> str:
    """One `key=value` line per pair: a float with 17 significant digits
    (exact for float64), any other value with `str`."""
    return "".join(f"{key}={value:.17g}\n" if isinstance(value, float) else f"{key}={value}\n"
                   for key, value in pairs)


def parse_pairs(lines, kind: str, known, source, first_line: int = 1,
                required=()) -> dict[str, tuple[str, str]]:
    """Key -> (place, raw value) for each `key=value` line, in file order.

    Blank lines and `#` comments are skipped; keys and values are stripped.
    `place` is `source:line`, counting `lines[0]` as file line
    `first_line`. A line without `=`, a key not in `known` or a repeated
    key raises PlacedError, with `kind` (`config`, `[meta]`, ...) naming
    the key set; so does a key of `required` that no line sets, at line
    `first_line - 1`, the `[section]` header the lines follow.
    """
    pairs: dict[str, tuple[str, str]] = {}
    for lineno, line in enumerate(lines, start=first_line):
        at = f"{source}:{lineno}"
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PlacedError(f"{at}: expected {kind} key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in known:
            raise PlacedError(f"{at}: unknown {kind} key {key!r}")
        if key in pairs:
            raise PlacedError(f"{at}: duplicate {kind} key {key!r}")
        pairs[key] = (at, raw.strip())
    for key in required:
        if key not in pairs:
            raise PlacedError(f"{source}:{first_line - 1}: {kind} has no {key}= line")
    return pairs


def parse_value(pairs: dict[str, tuple[str, str]], kind: str, key: str, parse):
    """`parse` of `key`'s raw value in `pairs` (from `parse_pairs`, which
    holds the key). A value that `parse` rejects raises PlacedError at its
    line."""
    at, raw = pairs[key]
    try:
        return parse(raw)
    except (ValueError, OverflowError):
        raise PlacedError(f"{at}: cannot parse {kind} {key}={raw!r}") from None


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
                error = ValueError(f"config field {name} must be {requirement}, got {getattr(self, name)}")
                error.field = name  # for `from_lines`, which names the field's line
                raise error

    def to_text(self) -> str:
        return format_pairs(
            (f.name, float(getattr(self, f.name)) if f.type == "float" else getattr(self, f.name))
            for f in fields(self)
        )

    @classmethod
    def from_lines(cls, lines: list[str], source, first_line: int = 1) -> "RunConfig":
        """Parse `key=value` lines (see `parse_pairs`), `lines[0]` being line
        `first_line` of the file `source`; a range error names the field's
        line (`heads=`'s, for heads that do not divide dim)."""
        types = {f.name: f.type for f in fields(cls)}
        pairs = parse_pairs(lines, "config", types, source, first_line)
        kwargs = {key: parse_value(pairs, "config", key, float if types[key] == "float" else _int64) for key in pairs}
        try:
            return cls(**kwargs)
        except ValueError as exc:
            at, _ = pairs[exc.field]  # a default passes every check, so the failing field was set here
            raise PlacedError(f"{at}: {exc}") from None

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = os.fspath(path)
        return cls.from_lines(read_lines(path), path)
