"""The two workloads: train-toy and eval-wide.

Each drives pcseg through its public functions in one process, as a
closed loop with one caller, and runs a fixed amount of work: the episode
count follows from `seconds` through a fixed rate, never from a deadline.
Inputs come from the workload seed only. Every episode, set-up and
correctness check counts as one attempted operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pcseg import cli, io as pio, model as M, tensor as T
from pcseg import episodes as E
from pcseg.config import RunConfig
from pcseg.geometry import PointCloud, grid_subsample
from pcseg.sampling import leakage_audit
from pcseg.seeding import derive_seed
from pcseg.synth import make_pool, synth_scene

from tracer import EpisodeClock, Patches, Tracer

BENCH_DIR = Path(__file__).resolve().parent
CLASSES = tuple(range(1, 9))

# TOY_CONFIG of the acceptance suite (tests/test_acceptance.py), minus seed
# and episode count, which every workload sets itself.
TOY = dict(dim=32, n_prototypes=10, hca_layers=2, heads=1, max_points=512,
           min_fg_points=100, lr=1e-3, weight_decay=0.01, momentum=0.995)

# Episodes per second of --seconds: fixed, so the work does not depend on
# how fast the host is. Room for set-ups and fixtures is left over.
EPISODE_RATE = {"train-toy": 14.0, "eval-wide": 6.0}
PASSES = 2  # a traced run traces the second pass and compares it with the first
# Set-ups timed between the episodes of one pass, evenly spaced, so that their
# median samples the same stretch of host time as the episodes do.
SETUPS_PER_PASS = {"train-toy": 20, "eval-wide": 5}
FIXTURE_EPISODES = 40  # eval-wide model: eval cost does not depend on training quality


def yardstick_ms() -> float:
    """A fixed 256x256 matmul plus a Python loop: tracks host speed only."""
    a = np.full((256, 256), 1.0 / 256)
    start = time.perf_counter()
    a @ a
    total = 0
    for i in range(20_000):
        total += i
    return (time.perf_counter() - start) * 1e3


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def same_cloud(a: PointCloud, b: PointCloud) -> bool:
    return (np.array_equal(a.positions, b.positions) and np.array_equal(a.colors, b.colors)
            and np.array_equal(a.labels, b.labels))


def tiled_scene(seed: int, nx: int, ny: int, blobs: int, points_per_blob: int) -> PointCloud:
    """nx x ny synthetic 1 m cells side by side, each holding `blobs` classes.

    Cells are drawn the way `make_pool` draws scenes; x and y are clipped
    into the cell so every 1 m block holds exactly one generated cell.
    """
    rng = np.random.default_rng(seed)
    parts = []
    for i in range(nx):
        for j in range(ny):
            chosen = rng.choice(CLASSES, size=blobs, replace=False)
            cell = synth_scene(int(rng.integers(0, 2**63 - 1)), [(int(c), points_per_blob) for c in chosen])
            xy = np.clip(cell.positions[:, :2], 0.0, 0.999) + (i, j)
            parts.append((np.column_stack([xy, cell.positions[:, 2]]), cell.colors, cell.labels))
    return PointCloud(*(np.concatenate(arrays) for arrays in zip(*parts)))


class Run:
    """Timings, checks and deterministic outputs of one run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.work = work
        self.traced = False
        self.episode_s: list[float] = []
        self.traced_episode_s: list[float] = []
        self.setup_s: list[float] = []
        self.yardstick_ms: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict = {}

    def episodes_per_pass(self) -> int:
        return max(4, round(EPISODE_RATE[self.workload] * self.seconds / PASSES))

    def passes(self):
        """Pass indices; with tracing on, odd passes are traced."""
        for p in range(PASSES):
            self.yardstick_ms.extend(yardstick_ms() for _ in range(3))
            yield p
        self.yardstick_ms.extend(yardstick_ms() for _ in range(3))

    @contextmanager
    def measured(self, p: int):
        """The measured part of pass `p`; checks run after it, untraced."""
        self.traced = self.tracer is not None and p % 2 == 1
        patches = Patches()
        if self.traced:
            self.tracer.install(patches)
        try:
            yield
        finally:
            patches.restore()
            self.traced = False

    @contextmanager
    def episodes(self, owner, setup):
        """Time the episodes of one loop, at calls of `owner.generate_episode`.

        `setup` is timed too, between episodes, SETUPS_PER_PASS times.
        """
        every = max(1, self.episodes_per_pass() // SETUPS_PER_PASS[self.workload])

        def before(index):
            if index % every == every // 2:
                self.setup(setup)

        clock = EpisodeClock(self.tracer if self.traced else None, before)
        patches = Patches()
        patches.wrap(owner, "generate_episode", clock.boundary)
        try:
            yield
            clock.end()
        finally:
            patches.restore()
        (self.traced_episode_s if self.traced else self.episode_s).extend(clock.durations)
        self.attempted += len(clock.durations)

    def setup(self, fn):
        self.attempted += 1
        start = time.perf_counter()
        out = fn()
        self.setup_s.append(time.perf_counter() - start)
        return out

    def check(self, what: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    # -- results ---------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        times = self.episode_s
        ms = [t * 1e3 for t in times]
        return {
            "episodes_per_s": (len(times) / sum(times), "1/s"),
            "episode_ms_p50": (statistics.median(ms), "ms"),
            "episode_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        out = self.tracer.layer_metrics()
        traced, untraced = self.traced_episode_s, self.episode_s
        out["trace.delta_episodes_per_s"] = (len(traced) / sum(traced) - len(untraced) / sum(untraced), "1/s")
        out["host.yardstick_ms"] = (statistics.median(self.yardstick_ms), "ms")
        return out


# ---------------------------------------------------------------------------
# train-toy: meta_train at TOY_CONFIG on an acceptance-shaped pool
# ---------------------------------------------------------------------------

def train_toy(run: Run, small: bool) -> None:
    pool = make_pool(run.seed, 24, CLASSES, blobs_per_scene=3, points_per_blob=400)
    split = E.make_split(CLASSES, 0)
    config = RunConfig(seed=run.seed, episodes=run.episodes_per_pass(), **TOY)
    meta = {"fold": 0, "classes": ",".join(str(c) for c in CLASSES)}
    artifact = run.work / "toy.model"

    def setup():  # what meta_train builds before its first episode
        rng = np.random.default_rng(derive_seed(config.seed, "init"))
        params = M.ModelParams.create(rng, dim=config.dim, n_prototypes=config.n_prototypes,
                                      n_layers=config.hca_layers, heads=config.heads,
                                      n_base=len(split.train_classes))
        return T.AdamW(params.parameters(), lr=config.lr, weight_decay=config.weight_decay)

    traces = []
    for p in run.passes():
        with run.measured(p):
            with run.episodes(M, setup):
                result = M.meta_train(pool, split, config)
            pio.save_model(artifact, result.params, result.bank, config, meta)
        losses = result.losses
        k = min(50, len(losses) // 2)
        run.check("every loss is finite", all(map(math.isfinite, losses)))
        run.check("loss trace reproduces across passes", not traces or losses == traces[0])
        run.check("first-50 mean loss above last-50 mean", np.mean(losses[:k]) > np.mean(losses[-k:]))
        traces.append(losses)
    run.outputs.update(losses=digest(traces[0]), artifact=file_digest(artifact),
                       first_loss=traces[0][0], last_loss=traces[0][-1])


# ---------------------------------------------------------------------------
# eval-wide: forward-only evaluate of a saved artifact, wide scene files
# ---------------------------------------------------------------------------

def eval_wide(run: Run, small: bool) -> None:
    scene_dir = run.work / "scenes"
    scene_dir.mkdir()
    scenes = {}
    for f in range(2 if small else 6):
        path = scene_dir / f"scene_{f:03d}.pcseg"
        scenes[str(path)] = tiled_scene(derive_seed(run.seed, "eval-scene", f), 2, 2, 3, 400 if small else 1500)
        pio.write_cloud(path, scenes[str(path)])
    config = RunConfig(seed=run.seed, episodes=FIXTURE_EPISODES,
                       **{**TOY, "grid_size": 0.01, "max_points": 2048, "n_way": 2})

    # Fixture, not timed: a short training run, saved as `pcseg train` would.
    clouds, _ = cli.load_pool([str(scene_dir)], config)
    classes = sorted(int(c) for c in np.unique(np.concatenate([c.labels for c in clouds])) if c >= 0)
    split = E.make_split(classes, 0)
    trained = M.meta_train(clouds, split, dataclasses.replace(config, n_way=1, max_points=512))
    meta = {"fold": 0, "classes": ",".join(str(c) for c in classes)}
    artifact = run.work / "eval.model"
    pio.save_model(artifact, trained.params, trained.bank, config, meta)

    def setup():  # what `pcseg eval` pays before its first episode
        params, bank, cfg, meta = pio.load_model(artifact)
        clouds, sources = cli.load_pool([str(scene_dir)], cfg)
        return params, bank, cfg, meta, clouds, sources

    block_path = run.work / "block.pcseg"
    first = None
    for p in run.passes():
        with run.measured(p):
            params, bank, cfg, meta, clouds, sources = run.setup(setup)
            split = E.make_split([int(c) for c in meta["classes"].split(",")], int(meta["fold"]))
            seen = []
            with run.episodes(M, setup), _capture_forward(seen, cfg.min_fg_points):
                result = M.evaluate(clouds, split, params, bank, cfg, run.episodes_per_pass(),
                                    derive_seed(run.seed, "eval"))
            pio.write_cloud(block_path, clouds[p % len(clouds)])
        totals = {}
        for gt, targets, logits, masks_ok in seen:
            pred = logits.argmax(axis=1)
            counts = E.confusion_counts(pred, gt, targets)
            ok = True
            for n, cid in enumerate(targets, start=1):
                tp, fp, fn = counts[cid]
                ok &= tp + fn == int((gt == n).sum()) and tp + fp == int((pred == n).sum())
                totals[cid] = totals.get(cid, 0) + np.array([tp, fp, fn])
            run.check("TP+FN and TP+FP match ground-truth and predicted counts", ok)
            run.check("masks meet min_fg_points", masks_ok)
        pooled = {c: float(tp / (tp + fp + fn)) for c, (tp, fp, fn) in sorted(totals.items()) if tp + fp + fn}
        run.check("pooled IoU matches the confusion counts of every episode", pooled == result.per_class)
        run.check("evaluation reproduces across passes", first is None or result.per_class == first.per_class)
        roundtrip = run.work / "roundtrip.model"
        pio.save_model(roundtrip, params, bank, cfg, meta)
        run.check("model artifact round-trips exactly", roundtrip.read_bytes() == artifact.read_bytes())
        run.check("write_cloud -> read_cloud is exact", same_cloud(pio.read_cloud(block_path), clouds[p % len(clouds)]))
        for path, scene in scenes.items():
            blocks = [c for c, s in zip(clouds, sources) if s.split("#")[0] == path]
            run.check("blocks partition the subsampled points",
                      _partitions(blocks, grid_subsample(scene, cfg.grid_size), cfg.block_size))
        first = first or result

    scene = grid_subsample(next(iter(scenes.values())), config.grid_size)
    fg = int(np.bincount(scene.labels).argmax())
    audit = leakage_audit(scene, fg, 2048, "biased", 100 if small else 400, derive_seed(run.seed, "audit"))
    f = audit.input_fg_fraction
    run.check("biased leak within 0.01 of f(2-f)", abs(audit.mean_output_fg_fraction - f * (2 - f)) <= 0.01)
    run.outputs.update(heldout_miou=first.mean_iou, per_class=digest(first.per_class),
                       artifact=file_digest(artifact), blocks=len(clouds),
                       leak=audit.mean_output_fg_fraction, fg_fraction=f)


@contextmanager
def _capture_forward(seen: list, min_fg: int):
    """Keep (ground truth, targets, seg logits, masks ok) of every episode `evaluate` scores."""
    def make(forward):
        def wrapper(episode, *args, **kwargs):
            seg_logits, base_logits = forward(episode, *args, **kwargs)
            seen.append((episode.query_gt, episode.target_classes, seg_logits.data, _masks_ok(episode, min_fg)))
            return seg_logits, base_logits
        return wrapper

    patches = Patches()
    patches.wrap(M, "forward", make)
    try:
        yield
    finally:
        patches.restore()


def _masks_ok(ep, min_fg: int) -> bool:
    support = all(int(mask.sum()) >= min_fg for way in ep.support for _, mask in way)
    query = any(int((ep.query.labels == c).sum()) >= min_fg for c in ep.target_classes)
    return support and query


def _rows(positions, colors, labels) -> np.ndarray:
    rows = np.column_stack([positions, colors, labels])
    return rows[np.lexsort(rows.T[::-1])]


def _partitions(blocks, scene: PointCloud, block_size: float) -> bool:
    """Blocks hold every subsampled point once, each block inside one cell."""
    for b in blocks:
        cells = np.floor(b.positions[:, :2] / block_size)
        if not (cells == cells[0]).all():
            return False
    joined = [np.concatenate(a) for a in zip(*((b.positions, b.colors, b.labels) for b in blocks))]
    return np.array_equal(_rows(*joined), _rows(scene.positions, scene.colors, scene.labels))


WORKLOADS = {"train-toy": train_toy, "eval-wide": eval_wide}


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> Run:
    """Run one workload in a scratch directory inside the benchmark's own."""
    work = BENCH_DIR / ".work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True)
    result = Run(workload, seed, seconds, trace, work)
    try:
        WORKLOADS[workload](result, small)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result
