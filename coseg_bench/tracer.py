"""Spans recorded from outside the library, by wrapping its public functions.

Each wrapper replaces a function at the attribute its caller looks it up
from, so the library itself stays untouched. A span records name, start,
end, parent span and episode id; spans stay in memory and are written
out once at the end. A layer's self time is its span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import gc
import json
import time

from pcseg import cli, io as pio, model as M, tensor as T
from pcseg import episodes as E

# Per-episode self time (ms), averaged over traced episodes.
EPISODE_LAYERS = (
    "episodes.generate_episode",
    "sampling.cap_points",
    "geometry.farthest_point_sample",
    "geometry.cluster_to_seeds",
    "model.backbone_stub",
    "model.extract_prototypes",
    "model.compute_correlations",
    "model.base_guidance",
    "model.apply_refine_layer",
    "attention.point",
    "attention.class",
    "model.calibrate_background",
    "model.refine_mlp",
    "model.heads",
    "model.loss",
    "tensor.backward",
    "tensor.adamw_step",
    "model.bank_update",
)
# Self time (ms) per call, for calls made while setting up or saving.
CALL_LAYERS = (
    "cli.load_pool",
    "io.read_cloud",
    "geometry.grid_subsample",
    "geometry.split_blocks",
    "io.load_model",
    "io.write_cloud",
    "io.save_model",
)

# (owner, attribute, span name): the attribute is the one the caller reads.
_PLAIN_SPANS = (
    (E, "cap_points", "sampling.cap_points"),
    (M, "backbone_stub", "model.backbone_stub"),
    (M, "extract_prototypes", "model.extract_prototypes"),
    (M, "farthest_point_sample", "geometry.farthest_point_sample"),
    (M, "cluster_to_seeds", "geometry.cluster_to_seeds"),
    (M, "compute_correlations", "model.compute_correlations"),
    (M, "base_guidance", "model.base_guidance"),
    (M, "apply_refine_layer", "model.apply_refine_layer"),
    (M, "calibrate_background", "model.calibrate_background"),
    (M, "loss", "model.loss"),
    (T.Tensor, "backward", "tensor.backward"),
    (T.AdamW, "step", "tensor.adamw_step"),
    (M.BasePrototypeBank, "apply_update", "model.bank_update"),
    (cli, "load_pool", "cli.load_pool"),
    (cli, "grid_subsample", "geometry.grid_subsample"),
    (cli, "split_blocks", "geometry.split_blocks"),
    (pio, "read_cloud", "io.read_cloud"),
    (pio, "load_model", "io.load_model"),
    (pio, "write_cloud", "io.write_cloud"),
    (pio, "save_model", "io.save_model"),
)


class Patches:
    """Attribute replacements (and other hooks) undone in reverse order."""

    def __init__(self):
        self._undo = []

    def wrap(self, owner, attr, make):
        original = vars(owner)[attr]
        setattr(owner, attr, make(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def on_restore(self, undo):
        self._undo.append(undo)

    def restore(self):
        while self._undo:
            self._undo.pop()()


class EpisodeClock:
    """Episode boundaries seen from outside the loop under test.

    An episode begins at each call of `generate_episode` made by that loop
    and ends at the next call, or at `end()` once the loop has returned.
    `before(i)` runs between the two, outside any episode, before episode i.
    """

    def __init__(self, tracer: "Tracer | None", before):
        self.tracer = tracer
        self.before = before
        self.durations: list[float] = []
        self._start = None

    def begin(self) -> None:
        self.end()
        self.before(len(self.durations))
        if self.tracer is not None:
            self.tracer.begin_episode()
        self._start = time.perf_counter()

    def end(self) -> None:
        if self._start is None:
            return
        self.durations.append(time.perf_counter() - self._start)
        self._start = None
        if self.tracer is not None:
            self.tracer.end_episode()

    def boundary(self, generate):
        """Wrapper for `generate_episode`: each call begins an episode."""

        @functools.wraps(generate)
        def wrapper(*args, **kwargs):
            self.begin()
            tracer = self.tracer
            if tracer is None:
                return generate(*args, **kwargs)
            sid = tracer.open("episodes.generate_episode")
            try:
                episode = generate(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.counts["clouds_used"] += sum(map(len, episode.support_indices)) + 1
            return episode

        return wrapper


class Tracer:
    """In-memory span recorder plus per-episode counters."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent, episode]
        self.stack: list[int] = []
        self.episode: int | None = None
        self.counts: collections.Counter = collections.Counter()
        self.gc_s = 0.0
        self._gc_start = None

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.episode])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        if self.stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][0]} closed out of order")
        self.spans[sid][2] = time.perf_counter()

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def begin_episode(self) -> None:
        sid = self.open("episode")
        self.spans[sid][4] = sid
        self.episode = sid

    def end_episode(self) -> None:
        self.close(self.episode)
        self.episode = None

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.episode is not None:
                self.gc_s += time.perf_counter() - self._gc_start
            self._gc_start = None

    def install(self, patches: Patches) -> None:
        """Wrap every traced function; `patches.restore()` undoes it."""
        for owner, attr, name in _PLAIN_SPANS:
            patches.wrap(owner, attr, functools.partial(self._spanned, lambda n=name: n))
        patches.wrap(M, "multi_head_linear_attention", functools.partial(self._spanned, self._attention_name()))
        patches.wrap(T, "mlp_forward", functools.partial(self._spanned, self._mlp_name))
        patches.wrap(T.Tensor, "__init__", self._counting_init)
        gc.callbacks.append(self._on_gc)
        patches.on_restore(lambda: gc.callbacks.remove(self._on_gc))

    def _spanned(self, namer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer()
            if name is None:
                return fn(*args, **kwargs)
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def _attention_name(self):
        # Inside one refinement layer the first call attends across points,
        # the second across classes.
        calls = collections.Counter()

        def name():
            parent = self.stack[-1] if self.stack else None
            calls[parent] += 1
            return "attention.point" if calls[parent] % 2 == 1 else "attention.class"

        return name

    def _mlp_name(self):
        parent = self.parent_name()
        if parent == "model.apply_refine_layer":
            return "model.refine_mlp"
        if parent == "episode":  # decoder and base head, called by the forward pass itself
            return "model.heads"
        return None  # stub and projection MLPs stay in their caller's self time

    def _counting_init(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if tracer.episode is not None:
                tracer.counts["tensor.nodes"] += 1
                if tensor._backward is not None:
                    tracer.counts["tensor.closures"] += 1

        return wrapper

    def self_times(self):
        """(name, self seconds, episode id) for every finished span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[0], s[2] - s[1] - child[i], s[4]) for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: {name: (value, unit)}; absent layers read 0."""
        per_episode = collections.defaultdict(float)
        per_call = collections.defaultdict(float)
        calls = collections.Counter()
        episode_calls = collections.Counter()
        for name, self_s, episode in self.self_times():
            per_call[name] += self_s
            calls[name] += 1
            if episode is not None:
                per_episode[name] += self_s
                episode_calls[name] += 1
        n_ep = episode_calls["episode"]
        if n_ep == 0:
            raise RuntimeError("the traced run recorded no episode")
        out = {f"{name}.ms": (per_episode[name] * 1e3 / n_ep, "ms") for name in EPISODE_LAYERS}
        for name in CALL_LAYERS:
            out[f"{name}.ms"] = (per_call[name] * 1e3 / calls[name] if calls[name] else 0.0, "ms")
        cap_calls = episode_calls["sampling.cap_points"]
        out["sampling.cap_points.calls"] = (cap_calls / n_ep, "count")
        out["sampling.cap_points.used_ratio"] = (
            self.counts["clouds_used"] / cap_calls if cap_calls else 0.0, "ratio"
        )
        out["tensor.nodes"] = (self.counts["tensor.nodes"] / n_ep, "count")
        out["tensor.closures"] = (self.counts["tensor.closures"] / n_ep, "count")
        out["runtime.gc_ms"] = (self.gc_s * 1e3 / n_ep, "ms")
        out["trace.unattributed_ms"] = (per_episode["episode"] * 1e3 / n_ep, "ms")
        return out

    def nesting_errors(self) -> list[str]:
        """Spans that do not lie inside their parent or carry another episode id."""
        errors = []
        for sid, (name, start, end, parent, episode) in enumerate(self.spans):
            if end is None:
                errors.append(f"{name}#{sid} never closed")
                continue
            if parent is None:
                continue
            p_name, p_start, p_end, _, p_episode = self.spans[parent]
            if not (p_start <= start <= end <= p_end):
                errors.append(f"{name}#{sid} leaves its parent {p_name}#{parent}")
            if name != "episode" and episode != p_episode:
                errors.append(f"{name}#{sid} has episode {episode}, parent has {p_episode}")
        return errors

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, episode in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                    "episode": episode,
                }) + "\n")
