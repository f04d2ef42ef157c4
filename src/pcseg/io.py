"""File formats: point clouds, metrics, model artifacts.

All writers are atomic (write to a temp file in the target directory,
then rename) and produce byte-stable output for fixed inputs: floats are
printed with 17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import math
import os
import tempfile
import warnings

import numpy as np

from .config import PlacedError, RunConfig, format_pairs, parse_pairs, parse_value, read_lines
from .episodes import make_split
from .geometry import PointCloud
from .model import BasePrototypeBank, ModelParams

CLOUD_MAGIC = "PCSEG v1"
MODEL_MAGIC = "PCSEG-MODEL v1"


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` through a temp file; an OSError names `path`.

    The file gets the mode `open` would give a new file (0o666 less the
    umask), not the temp file's 0o600."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


# ---------------------------------------------------------------------------
# point clouds
# ---------------------------------------------------------------------------

def format_cloud(cloud: PointCloud) -> str:
    # Python numbers from `.tolist()` format to the same bytes as numpy scalars,
    # faster; 1,024 rows at a time keep those lists from outgrowing the text.
    parts = [f"{CLOUD_MAGIC} {len(cloud)}\n"]
    for start in range(0, len(cloud), 1024):
        rows = slice(start, start + 1024)
        values = zip(cloud.positions[rows].tolist(), cloud.colors[rows].tolist(), cloud.labels[rows].tolist())
        parts.append("".join("%.17g %.17g %.17g %.17g %.17g %.17g %d\n" % (*p, *c, label) for p, c, label in values))
    return "".join(parts)


def write_cloud(path, cloud: PointCloud) -> None:
    atomic_write_text(path, format_cloud(cloud))


def read_cloud(path) -> PointCloud:
    """Read a cloud file: a `PCSEG v1 <n>` header, then n rows of
    `x y z r g b label`, with finite positions, colors in [0, 1] and
    integer labels of at least -1 (unlabeled).

    The file is read once, by `read_lines`, so a byte that is not UTF-8
    is named before any other fault; any other fault raises one
    ValueError `<path>:<line>: <what>` naming the first bad line (the
    header is line 1). One `_parse_rows` call parses the rows; only if it
    fails, or finds other than n, do more calls halve them to the bad line.
    """
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: the file is empty")
    magic, _, count = lines[0].rpartition(" ")
    if magic != CLOUD_MAGIC or not (count.isascii() and count.isdigit()) or int(count) < 1:
        raise ValueError(f"{path}:1: not a '{CLOUD_MAGIC} <count>' header with a count >= 1: {lines[0]!r}")
    n, rows = int(count), lines[1:]

    def parse(part: list[str]) -> tuple[PointCloud | None, int]:  # its cloud and rows; (None, n + 1) if one is bad
        try:
            cloud = _parse_rows(part)
        except ValueError:
            return None, n + 1
        return cloud, 0 if cloud is None else len(cloud)

    cloud, k = parse(rows)
    if k == n:
        return cloud
    if k < n:
        raise ValueError(f"{path}:{len(lines) + 1}: the file ends after {k} of {n} rows")
    # halve rows[lo:hi], which holds the first bad row or the row past n; rows[:lo] hold k rows
    lo, hi, k = 0, len(rows), 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        got = parse(rows[lo:mid])[1]
        lo, hi, k = (lo, mid, k) if k + got > n else (mid, hi, k + got)
    if k == n:
        raise ValueError(f"{path}:{lo + 2}: more rows than the header's count {n}")
    text = " ".join(fields := rows[lo].split("#", 1)[0].split())
    try:
        _parse_rows(rows[lo:hi])
    except _FormatFault:
        what = f"expected 7 fields, got {len(fields)}" if len(fields) != 7 else f"cannot read {text!r} as 7 numbers"
    except ValueError as exc:
        what = f"row {text!r}: {exc}"
    raise ValueError(f"{path}:{lo + 2}: {what}")


class _FormatFault(ValueError):
    """A cloud file row that is not 7 numbers."""


def _parse_rows(lines: list[str]) -> PointCloud | None:
    """The cloud of the rows on these cloud file lines, None if they hold
    none: one `np.loadtxt` call (`float` would also take `1_0` and
    non-ASCII digits), 7 numbers a row, then `PointCloud`'s rules. Each
    rule holds row by row, so lines pass together only if each passes alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on lines that hold no row
        try:
            data = np.loadtxt(lines, dtype=np.float64, ndmin=2)
        except ValueError:
            raise _FormatFault from None
    if not len(data):
        return None
    if data.shape[1] != 7:
        raise _FormatFault
    return PointCloud(data[:, 0:3], data[:, 3:6], data[:, 6])


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

def format_records(named_arrays) -> str:
    """Serialize (name, array) pairs as text records.

    Record layout: the name on one line, then `rank d0 d1 ...`, then all
    values space-separated with 17 significant digits (lossless for
    float64 round-trips).
    """
    lines = []
    for name, arr in named_arrays:
        arr = np.asarray(arr, dtype=np.float64)
        dims = " ".join(str(d) for d in arr.shape)
        lines.append(name)
        lines.append(f"{arr.ndim} {dims}".rstrip())
        lines.append(" ".join(f"{v:.17g}" for v in arr.reshape(-1)))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_records(lines: list[str], shapes: dict[str, tuple[int, ...]], source,
                  first_line: int = 1) -> dict[str, np.ndarray]:
    """Inverse of `format_records`, for exactly the records named in
    `shapes`, each of that shape and finite; `lines[0]` is line
    `first_line` of the file `source`.

    A record that is truncated, has a malformed header or values line, too
    many or too few values for its shape, a repeated name, a shape other
    than the expected one or a non-finite value raises PlacedError naming
    `source:line` and the record. Names that differ from `shapes` raise
    ValueError naming every missing and extra record.
    """
    out: dict[str, np.ndarray] = {}
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        name = lines[i].strip()
        at = [f"{source}:{first_line + i + k}: record {name}" for k in range(3)]  # its name, header, values
        if i + 2 >= len(lines):
            raise PlacedError(f"{at[0]}: truncated (needs a header line and a values line)")
        try:
            header = [int(d) for d in lines[i + 1].split()]
        except ValueError:
            header = []
        if not header or header[0] != len(header) - 1 or min(header) < 0:
            raise PlacedError(f"{at[1]}: malformed header (expected 'rank d0 d1 ...')")
        shape = tuple(header[1:])
        try:
            values = np.array(lines[i + 2].split(), dtype=np.float64)
        except ValueError:
            raise PlacedError(f"{at[2]}: malformed values") from None
        if values.size != math.prod(shape):
            raise PlacedError(f"{at[2]}: {values.size} values for shape {shape}")
        if name in out:
            raise PlacedError(f"{at[0]} appears twice")
        if name in shapes and shape != shapes[name]:
            raise PlacedError(f"{at[1]} has shape {shape}, expected {shapes[name]}")
        if not np.isfinite(values).all():
            raise PlacedError(f"{at[2]} holds a non-finite value")
        out[name] = values.reshape(shape)
        i += 3
    if out.keys() != shapes.keys():
        missing = sorted(shapes.keys() - out.keys())
        extra = sorted(out.keys() - shapes.keys())
        raise ValueError(f"records mismatch (missing {missing}, extra {extra})")
    return out


def format_model(params: ModelParams, bank: BasePrototypeBank, config: RunConfig, meta: dict) -> str:
    # share_background_fc=0 is a fixed line and [bank] momentum= repeats the
    # config's; both are kept so artifact bytes stay the same
    meta_pairs = [*sorted(meta.items()), ("share_background_fc", 0)]
    bank_pairs = [
        ("class_ids", ",".join(str(c) for c in bank.class_ids)),
        ("momentum", float(config.momentum)),
        ("update_counts", " ".join(str(int(c)) for c in bank.update_counts)),
    ]
    return "".join([
        f"{MODEL_MAGIC}\n[meta]\n", format_pairs(meta_pairs),
        "[config]\n", config.to_text(),
        "[params]\n", format_records((p.name, p.data) for p in params.parameters()),
        "[bank]\n", format_pairs(bank_pairs), format_records([("prototypes", bank.prototypes)]),
    ])


def save_model(path, params: ModelParams, bank: BasePrototypeBank, config: RunConfig, meta: dict) -> None:
    atomic_write_text(path, format_model(params, bank, config, meta))


def _split_sections(lines: list[str], path) -> dict[str, tuple[int, list[str]]]:
    """Section name -> (file line of the line after its `[name]` header,
    its lines); a repeated header, or a non-blank line before the first
    header, is an error at its line."""
    sections: dict[str, tuple[int, list[str]]] = {}
    current = None
    for lineno, line in enumerate(lines[1:], start=2):  # line 1 is the magic
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current in sections:
                raise PlacedError(f"{path}:{lineno}: repeated section {line}")
            sections[current] = (lineno + 1, [])
        elif current is not None:
            sections[current][1].append(line)
        elif line.strip():
            raise PlacedError(f"{path}:{lineno}: expected a [section] header, got {line!r}")
    return sections


def load_model(path):
    """Read a model artifact back: (params, bank, config, meta).

    Reconstruction is value-exact, so reloaded parameters reproduce
    bit-identical forward outputs. Every record is checked: value count
    against shape, shape against the config, the bank against its class
    ids and its `momentum=` line against the config's, and every value for
    finiteness; so is `[meta]`: `fold` is 0 or 1, `classes` a
    comma-separated list of at least 2 ints, and no other key appears;
    no section repeats. The bank's class ids must be the training classes
    that `fold` splits from `classes`. A failure raises ValueError naming
    the path, and the file line wherever there is one (a missing key's is
    its section's header); only a missing section or record has none.
    """
    lines = read_lines(path)
    try:
        return _parse_model(lines, path)
    except PlacedError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _int_list(text: str) -> list[int]:
    """A non-empty comma-separated list of ints."""
    return [int(c) for c in text.split(",")]


def _parse_model(lines: list[str], path):
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"not a {MODEL_MAGIC} file")
    sections = _split_sections(lines, path)
    for needed in ("meta", "config", "params", "bank"):
        if needed not in sections:
            raise ValueError(f"missing [{needed}] section")

    first, meta_lines = sections["meta"]
    meta = parse_pairs(meta_lines, "[meta]", ("fold", "classes", "share_background_fc"), path, first,
                       required=("fold", "classes"))
    at, shared_fc = meta.pop("share_background_fc", (None, "0"))
    if shared_fc != "0":
        raise PlacedError(f"{at}: [meta] share_background_fc must be 0 (no shared background layer), got {shared_fc!r}")
    fold = parse_value(meta, "[meta]", "fold", int)
    if fold not in (0, 1):
        at, raw = meta["fold"]
        raise PlacedError(f"{at}: [meta] fold must be 0 or 1, got {raw!r}")
    classes = parse_value(meta, "[meta]", "classes", _int_list)
    try:
        train_classes = make_split(classes, fold).train_classes
    except ValueError as exc:
        at, raw = meta["classes"]
        raise PlacedError(f"{at}: [meta] classes={raw}: {exc}") from None

    first, config_lines = sections["config"]
    config = RunConfig.from_lines(config_lines, path, first)

    first, bank_lines = sections["bank"]  # key=value lines, then the one record, prototypes
    n_pairs = bank_lines.index("prototypes") if "prototypes" in bank_lines else len(bank_lines)
    bank_keys = ("class_ids", "momentum", "update_counts")
    bank_kv = parse_pairs(bank_lines[:n_pairs], "[bank]", bank_keys, path, first, required=bank_keys)
    class_ids = tuple(parse_value(bank_kv, "[bank]", "class_ids", _int_list))
    if class_ids != train_classes:
        at, raw = bank_kv["class_ids"]
        raise PlacedError(f"{at}: [bank] class_ids={raw} do not match [meta]: fold {fold} trains on "
                          f"{','.join(map(str, train_classes))}")
    counts = parse_value(bank_kv, "[bank]", "update_counts",
                         lambda v: np.array([int(c) for c in v.split()], dtype=np.int64))
    if counts.shape != (len(class_ids),) or (counts < 0).any():
        at, raw = bank_kv["update_counts"]
        raise PlacedError(f"{at}: [bank] update_counts needs {len(class_ids)} non-negative entries, "
                          f"one per class id, got {raw!r}")
    # [config]'s momentum is in [0, 1], so this also rejects one out of range
    if parse_value(bank_kv, "[bank]", "momentum", float) != config.momentum:
        at, raw = bank_kv["momentum"]
        raise PlacedError(f"{at}: [bank] momentum={raw} does not match [config] momentum={config.momentum!r}")
    prototypes = parse_records(bank_lines[n_pairs:], {"prototypes": (len(class_ids), config.dim)},
                               path, first + n_pairs)
    bank = BasePrototypeBank(prototypes=prototypes["prototypes"], update_counts=counts, class_ids=class_ids)

    params = ModelParams.for_config(np.random.default_rng(0), config, len(class_ids))
    first, param_lines = sections["params"]
    records = parse_records(param_lines, {p.name: p.data.shape for p in params.parameters()}, path, first)
    for p in params.parameters():
        p.data = records[p.name]
    return params, bank, config, {key: raw for key, (_, raw) in meta.items()}
