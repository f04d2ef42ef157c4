"""Command-line entry point.

Subcommands: synth, audit, train, eval. synth, audit and eval take
--seed, an int64 >= 0; train reads every setting, its seed included,
from its --config file. Outputs are byte-deterministic for fixed inputs.
Exit codes: 0 success, 2 I/O failure, 64 usage error, 70 internal
numeric failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import tempfile

import numpy as np

from . import io as pio
from . import model as M
from .config import RunConfig, _int64, format_pairs
from .episodes import PoolExhaustedError, make_split
from .geometry import grid_subsample, split_blocks
from .sampling import leakage_audit
from .seeding import derive_seed
from .synth import make_pool

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70


class UsageError(Exception):
    """A bad flag value or --config file found after parsing (exit 64)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int):
    """An argparse type: an int64 >= `low`."""
    def parse(text: str) -> int:
        try:
            value = _int64(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int64 value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _pool_paths(pool_args) -> list[str]:
    """The scene files `--pool` names; a file named twice is a usage error,
    since an episode could then draw one scene as both support and query."""
    paths: list[str] = []
    for entry in pool_args:
        if os.path.isdir(entry):
            names = sorted(n for n in os.listdir(entry) if n.endswith(".pcseg"))
            if not names:
                raise FileNotFoundError(f"{entry}: no .pcseg files")
            paths.extend(os.path.join(entry, n) for n in names)
        else:
            paths.append(entry)
    first = {}  # realpath -> the path that named it first
    for path in paths:
        real = os.path.realpath(path)
        if real in first:
            raise UsageError(f"{path}: --pool names this file twice (first as {first[real]})")
        first[real] = path
    return paths


def _check_out_dir(path) -> None:
    """Raise, before any work, the OSError that writing the output file
    `path` would raise when it is empty or a directory, or its directory is missing,
    not a directory or cannot take a new file: a probe file is made there and removed."""
    directory = os.path.dirname(path) or "."
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISDIR(os.stat(directory).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        fd, probe = tempfile.mkstemp(dir=directory)
        os.close(fd)
        os.unlink(probe)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _check_out_is_no_input(args) -> None:
    """Raise UsageError, before any work, if --out names a file the
    command reads: writing it would destroy that input."""
    named = vars(args)
    inputs = {
        "--config": [named["config"]] if "config" in named else [],
        "--pool": _pool_paths(named.get("pool", [])),
        "--model": named.get("model", []),
        "--cloud": named.get("cloud", []),
    }
    out = os.path.realpath(args.out)
    for flag, paths in inputs.items():
        for path in paths:
            if os.path.realpath(path) == out:
                raise UsageError(f"--out {args.out} is the {flag} file {path}; writing it would destroy that input")


def load_pool(pool_args, config: RunConfig):
    """Read scene files and preprocess: voxel subsample, then block split.

    Returns (clouds, sources); a file that splits into several blocks
    contributes entries tagged `path#k`.
    """
    clouds, sources = [], []
    for path in _pool_paths(pool_args):
        scene = pio.read_cloud(path)
        try:
            blocks = split_blocks(grid_subsample(scene, config.grid_size), config.block_size)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        for i, block in enumerate(blocks):
            clouds.append(block)
            sources.append(path if len(blocks) == 1 else f"{path}#{i}")
    return clouds, sources


def _pool_classes(clouds) -> list[int]:
    labels = np.unique(np.concatenate([c.labels for c in clouds]))
    return [int(c) for c in labels if c >= 0]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _scene_file(i: int) -> str:
    return f"scene_{i:03d}.pcseg"


def cmd_synth(args) -> int:
    # A .pcseg file in --out that this run would not overwrite would join
    # every pool read from there.
    for name in sorted(os.listdir(args.out)) if os.path.isdir(args.out) else ():
        index = name.removeprefix("scene_").removesuffix(".pcseg")
        ours = index.isascii() and index.isdigit() and int(index) < args.scenes and _scene_file(int(index)) == name
        if name.endswith(".pcseg") and not ours:
            raise UsageError(f"--out {args.out} holds {name}, which this run would not overwrite")
    pool = make_pool(
        derive_seed(args.seed, "synth"),
        args.scenes,
        range(1, args.classes + 1),
        blobs_per_scene=args.blobs,
        points_per_blob=args.points,
    )
    os.makedirs(args.out, exist_ok=True)
    for i, cloud in enumerate(pool):
        pio.write_cloud(os.path.join(args.out, _scene_file(i)), cloud)
    print(f"wrote {len(pool)} scenes to {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    clouds = [pio.read_cloud(path) for path in args.cloud]
    if not any((cloud.labels == args.fg_class).any() for cloud in clouds):
        raise ValueError(f"{', '.join(args.cloud)}: no point has class {args.fg_class}")
    blocks = []
    for path, cloud in zip(args.cloud, clouds):
        for sampler in ("biased", "uniform"):
            report = leakage_audit(
                cloud, args.fg_class, args.m, sampler, args.trials,
                derive_seed(args.seed, f"audit-{sampler}"),
            )
            blocks.append(format_pairs([("cloud", path), ("sampler", sampler)]) + report.to_text())
    text = "\n".join(blocks)
    if args.out is not None:
        pio.atomic_write_text(args.out, text)
        print(f"wrote audit report to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_train(args) -> int:
    try:
        config = RunConfig.from_file(args.config)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    clouds, _ = load_pool(args.pool, config)
    classes = _pool_classes(clouds)
    if len(classes) < 2:  # make_split's own message would name no input
        raise ValueError(f"--pool {' '.join(args.pool)} holds {len(classes)} labeled classes; a split needs at least 2")
    split = make_split(classes, args.fold)
    result = M.meta_train(clouds, split, config)
    meta = {"fold": args.fold, "classes": ",".join(str(c) for c in classes)}
    pio.save_model(args.out, result.params, result.bank, config, meta)
    if result.losses:
        tail = result.losses[-50:]
        print(f"trained {len(result.losses)} episodes, final-{len(tail)} mean loss {sum(tail) / len(tail):.6f}")
    else:
        print("trained 0 episodes (artifact equals initialization)")
    print(f"wrote model to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    models = {}  # fold -> (path, params, bank, config, meta); all are loaded before any is evaluated
    for path in args.model:
        params, bank, config, meta = pio.load_model(path)
        fold = int(meta["fold"])
        if fold in models:
            raise UsageError(f"{path}: a second model of fold {fold} (the first is {models[fold][0]})")
        models[fold] = (path, params, bank, config, meta)
    pairs: list[tuple[str, object]] = [("episodes", args.episodes), ("seed", args.seed)]
    fold_means = []
    pools = {}  # (grid_size, block_size) -> clouds; folds that preprocess alike share one read
    for fold, (_, params, bank, config, meta) in models.items():
        split = make_split([int(c) for c in meta["classes"].split(",")], fold)
        key = (config.grid_size, config.block_size)
        if key not in pools:
            pools[key], _ = load_pool(args.pool, config)
        if args.zero_bank:
            bank = bank.zeroed()
        result = M.evaluate(pools[key], split, params, bank, config, args.episodes, args.seed)
        prefix = f"fold{fold}_"
        for cid, iou in result.per_class.items():
            pairs.append((f"{prefix}iou_{cid}", iou))
        pairs.append((f"{prefix}mean_iou", result.mean_iou))
        pairs.append((f"{prefix}episode_miou_mean", result.episode_miou_mean))
        fold_means.append(result.mean_iou)
    pairs.append(("mean_iou", float(np.mean(fold_means))))
    pio.atomic_write_text(args.out, format_pairs(pairs))
    print(f"wrote metrics to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pcseg", description="Few-shot point cloud segmentation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic blob scenes")
    p.add_argument("--out", required=True, help="output directory for .pcseg files")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--scenes", type=_int_at_least(1), default=20)
    p.add_argument("--classes", type=_int_at_least(2), default=8)
    p.add_argument("--blobs", type=_int_at_least(2), default=3, help="classes per scene, at most --classes")
    p.add_argument("--points", type=_int_at_least(1), default=400)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("audit", help="foreground-density audit of both samplers")
    p.add_argument("--cloud", required=True, nargs="+", help="input .pcseg file(s)")
    p.add_argument("--fg-class", required=True, type=_int_at_least(0), dest="fg_class")
    p.add_argument("--m", type=_int_at_least(1), default=2048, help="points per draw")
    p.add_argument("--trials", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", help="report file (stdout if omitted)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("train", help="meta-train on a scene pool")
    p.add_argument("--pool", required=True, nargs="+")
    p.add_argument("--config", required=True, help="config file; its seed= line seeds the run")
    p.add_argument("--fold", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True, help="model artifact path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate trained model(s) on held-out episodes")
    p.add_argument("--pool", required=True, nargs="+")
    p.add_argument("--model", action="append", required=True, help="model artifact (repeat for per-fold rows)")
    p.add_argument("--episodes", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--zero-bank", action="store_true", dest="zero_bank",
                   help="ablation: wipe the class-prototype bank before evaluating")
    p.add_argument("--out", required=True, help="metrics file")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "synth" and args.blobs > args.classes:
        parser.error(f"argument --blobs: must be <= --classes ({args.classes}), got {args.blobs}")
    try:
        if args.command != "synth" and args.out is not None:  # synth's --out is a directory it makes
            _check_out_dir(args.out)
            _check_out_is_no_input(args)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"pcseg: error: {exc}\n")
        return EXIT_USAGE
    except M.NonFiniteLossError as exc:
        sys.stderr.write(f"pcseg: numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except (OSError, ValueError, PoolExhaustedError, MemoryError) as exc:
        sys.stderr.write(f"pcseg: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
