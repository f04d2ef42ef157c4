"""File formats: point clouds, episode manifests, metrics, model artifacts.

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

from .config import PlacedError, RunConfig, format_pairs, parse_pairs
from .episodes import make_split
from .geometry import PointCloud
from .model import BasePrototypeBank, ModelParams

CLOUD_MAGIC = "PCSEG v1"
MODEL_MAGIC = "PCSEG-MODEL v1"


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` through a temp file; an OSError names `path`."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
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
    lines = [f"{CLOUD_MAGIC} {len(cloud)}"]
    for p, c, label in zip(cloud.positions, cloud.colors, cloud.labels):
        lines.append(
            f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} {c[0]:.17g} {c[1]:.17g} {c[2]:.17g} {label}"
        )
    return "\n".join(lines) + "\n"


def write_cloud(path, cloud: PointCloud) -> None:
    atomic_write_text(path, format_cloud(cloud))


def read_cloud(path) -> PointCloud:
    """Read a cloud file: a `PCSEG v1 <n>` header, then n rows of
    `x y z r g b label`, with finite positions, colors in [0, 1] and
    integer labels of at least -1 (unlabeled).

    A file that breaks any of this raises one ValueError of the form
    `<path>:<line>: <what>` naming the first bad line (the header is line
    1). A good file is parsed in one `np.loadtxt` call; the line is only
    searched for once that call or a check on its result has failed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            n = _header_count(fh.readline())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on an empty body
                data = np.loadtxt(fh, dtype=np.float64, ndmin=2)
            if data.shape != (n, 7):
                raise ValueError(f"expected {n} rows of 7 fields, got {data.shape}")
            with np.errstate(invalid="ignore"):
                labels = data[:, 6].astype(np.int64)
            if (labels != data[:, 6]).any():
                raise ValueError("labels must be integers")
            return PointCloud(data[:, 0:3], data[:, 3:6], labels)
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(_first_bad_line(path) or f"{path}: {exc}") from None


def _header_count(line: str) -> int:
    header = line.rstrip("\r\n")
    magic, _, count = header.rpartition(" ")
    if magic != CLOUD_MAGIC or not count.isdigit() or int(count) < 1:
        raise ValueError(f"not a '{CLOUD_MAGIC} <count>' header with a count >= 1: {header!r}")
    return int(count)


def _first_bad_line(path) -> str | None:
    """`<path>:<line>: <what>` for the first line `read_cloud` rejects.

    Each line is decoded on its own, so a byte that is not UTF-8 is placed
    exactly. As in `np.loadtxt`, a lone CR also ends a line, `#` starts
    a comment and blank lines are skipped.
    """
    n = rows = lineno = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8")
                if lineno == 1:
                    n = _header_count(line)
                    continue
            except ValueError as exc:
                return f"{path}:{lineno}: {exc}"
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            rows += 1
            what = _bad_row(fields) if rows <= n else f"more rows than the header's count {n}"
            if what:
                return f"{path}:{lineno}: {what}"
    if lineno == 0:
        return f"{path}:1: the file is empty"
    if rows < n:
        return f"{path}:{lineno + 1}: the file ends after {rows} of {n} rows"
    return None


def _bad_row(fields: list[str]) -> str | None:
    if len(fields) != 7:
        return f"expected 7 fields, got {len(fields)}"
    try:  # the fast path's parser: `float` would also take `1_0` and non-ASCII digits
        values = np.loadtxt(fields, dtype=np.float64).tolist()
    except ValueError:
        return f"cannot read {' '.join(fields)!r} as 7 numbers"
    if not all(math.isfinite(v) for v in values[:3]):
        return f"position {' '.join(fields[:3])} is not finite"
    if not all(0.0 <= v <= 1.0 for v in values[3:6]):
        return f"color {' '.join(fields[3:6])} is not in [0, 1]"
    if not values[6].is_integer() or not -2**63 <= values[6] < 2**63:
        return f"label {fields[6]} is not an integer"
    if values[6] < -1:
        return f"label {fields[6]} is below -1"
    return None


# ---------------------------------------------------------------------------
# episode manifests
# ---------------------------------------------------------------------------

def write_manifest(path, episodes, sources) -> None:
    """One tab-separated row per episode: its seed, its target classes,
    the sources of its support shots (way by way) and of its query."""
    rows = (
        f"{ep.seed}\t{','.join(str(c) for c in ep.target_classes)}\t"
        f"{','.join(sources[j] for way in ep.support_indices for j in way)}\t{sources[ep.query_index]}\n"
        for ep in episodes
    )
    atomic_write_text(path, "".join(rows))


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


def parse_records(text: str, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Inverse of `format_records`, for exactly the records named in
    `shapes`, each of that shape and finite.

    Raises ValueError naming the record when its header is malformed, its
    value count does not match its shape, its name repeats, its shape is
    not the expected one or it holds a non-finite value, and naming every
    missing and extra record when the names differ from `shapes`.
    """
    lines = text.splitlines()
    out: dict[str, np.ndarray] = {}
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        name = lines[i].strip()
        if i + 2 >= len(lines):
            raise ValueError(f"record {name}: truncated (needs a header line and a values line)")
        try:
            header = [int(d) for d in lines[i + 1].split()]
            values = np.array(lines[i + 2].split(), dtype=np.float64)
        except ValueError:
            raise ValueError(f"record {name}: malformed header or values") from None
        if not header or header[0] != len(header) - 1 or min(header) < 0:
            raise ValueError(f"record {name}: bad header {lines[i + 1]!r}")
        shape = tuple(header[1:])
        if values.size != math.prod(shape):
            raise ValueError(f"record {name}: {values.size} values for shape {shape}")
        if name in out:
            raise ValueError(f"record {name} appears twice")
        if name in shapes and shape != shapes[name]:
            raise ValueError(f"record {name} has shape {shape}, expected {shapes[name]}")
        if not np.isfinite(values).all():
            raise ValueError(f"record {name} holds a non-finite value")
        out[name] = values.reshape(shape)
        i += 3
    if out.keys() != shapes.keys():
        missing = sorted(shapes.keys() - out.keys())
        extra = sorted(out.keys() - shapes.keys())
        raise ValueError(f"records mismatch (missing {missing}, extra {extra})")
    return out


def format_model(params: ModelParams, bank: BasePrototypeBank, config: RunConfig, meta: dict) -> str:
    # share_background_fc=0 is a fixed line, kept so artifact bytes stay the same
    meta_pairs = [*sorted(meta.items()), ("share_background_fc", 0)]
    bank_pairs = [
        ("class_ids", ",".join(str(c) for c in bank.class_ids)),
        ("momentum", float(bank.momentum)),
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
    """Section name -> (file line of its `[name]` header, its lines); a
    repeated header, or a non-blank line before the first header, is an
    error at its line."""
    sections: dict[str, tuple[int, list[str]]] = {}
    current = None
    for lineno, line in enumerate(lines[1:], start=2):  # line 1 is the magic
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            if current in sections:
                raise PlacedError(f"{path}:{lineno}: repeated section {line}")
            sections[current] = (lineno, [])
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
    ids, and every value for finiteness; so is `[meta]`: `fold` is 0 or
    1, `classes` a comma-separated list of ints, and no other key
    appears; no section repeats. Last, the bank's class ids must be the
    training classes that `fold` splits from `classes`. A failure raises
    ValueError naming the path and the record or key, and the file line
    where there is one.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:  # name the line the bad byte is on
        lineno = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise PlacedError(f"{path}:{lineno}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    try:
        return _parse_model(lines, path)
    except PlacedError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _section_pairs(path, name: str, header: int, lines: list[str], known) -> dict[str, tuple[str, str]]:
    """Key -> (place, raw value) for the `key=value` lines of `[name]`,
    whose first line follows the header on file line `header`."""
    return {key: (at, raw) for at, key, raw in parse_pairs(lines, f"[{name}]", known, path, header + 1)}


def _section_value(section: str, pairs: dict[str, tuple[str, str]], key: str, parse):
    if key not in pairs:
        raise ValueError(f"[{section}] has no {key}= line")
    at, raw = pairs[key]
    try:
        return parse(raw)
    except (ValueError, OverflowError):
        raise PlacedError(f"{at}: [{section}] {key}={raw!r} is malformed") from None


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

    meta = _section_pairs(path, "meta", *sections["meta"], ("fold", "classes", "share_background_fc"))
    _, shared_fc = meta.pop("share_background_fc", (None, "0"))
    if shared_fc != "0":
        raise ValueError(f"[meta] share_background_fc must be 0 (no shared background layer), got {shared_fc!r}")
    fold = _section_value("meta", meta, "fold", int)
    if fold not in (0, 1):
        at, raw = meta["fold"]
        raise PlacedError(f"{at}: [meta] fold must be 0 or 1, got {raw!r}")
    classes = _section_value("meta", meta, "classes", _int_list)

    header, config_lines = sections["config"]
    config = RunConfig.from_text("\n".join(config_lines), source=path, first_line=header + 1)

    header, bank_lines = sections["bank"]  # key=value lines, then the one record, prototypes
    n_pairs = bank_lines.index("prototypes") if "prototypes" in bank_lines else len(bank_lines)
    bank_kv = _section_pairs(path, "bank", header, bank_lines[:n_pairs], ("class_ids", "momentum", "update_counts"))
    class_ids = tuple(_section_value("bank", bank_kv, "class_ids", _int_list))
    counts = _section_value("bank", bank_kv, "update_counts",
                            lambda v: np.array([int(c) for c in v.split()], dtype=np.int64))
    if counts.shape != (len(class_ids),) or (counts < 0).any():
        raise ValueError(
            f"[bank] update_counts needs {len(class_ids)} non-negative entries, one per class id, "
            f"got {bank_kv['update_counts'][1]!r}"
        )
    momentum = _section_value("bank", bank_kv, "momentum", float)
    prototypes = parse_records("\n".join(bank_lines[n_pairs:]), {"prototypes": (len(class_ids), config.dim)})
    bank = BasePrototypeBank(
        prototypes=prototypes["prototypes"],
        update_counts=counts,
        momentum=momentum,
        class_ids=class_ids,
    )

    params = ModelParams.for_config(np.random.default_rng(0), config, len(class_ids))
    records = parse_records("\n".join(sections["params"][1]), {p.name: p.data.shape for p in params.parameters()})
    for p in params.parameters():
        p.data = records[p.name]
    train_classes = make_split(classes, fold).train_classes
    if class_ids != train_classes:
        at, raw = bank_kv["class_ids"]
        raise PlacedError(f"{at}: [bank] class_ids={raw} do not match [meta]: fold {fold} trains on "
                          f"{','.join(map(str, train_classes))}")
    return params, bank, config, {key: raw for key, (_, raw) in meta.items()}
