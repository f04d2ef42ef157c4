"""The one place in the tests that builds, trains and scores a model.

A `Variant` is a name and a tuple of `(module, attribute, replacement)`
patches, active while its cells train and while they are scored; no
variant is a `src` knob. A `Cell` is a variant trained at `TOY_CONFIG` on
the acceptance pool at one fold, seed and episode count. `train_cell` and
`score_cell` are memoized for the process, so no cell trains twice, and
every parameter and bank array they hand out is read-only.
"""

import dataclasses
import functools
import time
from contextlib import contextmanager

import numpy as np

from pcseg import model as M
from pcseg import tensor as T
from pcseg.config import RunConfig
from pcseg.episodes import make_split
from pcseg.synth import make_pool

TOY_CONFIG = RunConfig(
    seed=3,
    dim=32,
    n_prototypes=10,
    hca_layers=2,
    heads=1,
    max_points=512,
    min_fg_points=100,
    episodes=2000,
    lr=1e-3,
    weight_decay=0.01,
    momentum=0.995,
)


def _read_only(arrays):
    """Make every array read-only: a test that writes into a shared array
    fails at the write, not in a later test that reads it."""
    for array in arrays:
        array.flags.writeable = False


def read_only_pool(pool):
    _read_only(array for cloud in pool for array in (cloud.positions, cloud.colors, cloud.labels))
    return pool


def read_only_result(result):
    _read_only([p.data for p in result.params.parameters()] + [result.bank.prototypes, result.bank.update_counts])
    return result


@functools.cache
def acceptance_pool():
    """The 24-scene pool the acceptance run trains on."""
    return read_only_pool(make_pool(42, 24, range(1, 9), blobs_per_scene=3, points_per_blob=400))


@dataclasses.dataclass(frozen=True)
class Variant:
    name: str
    patches: tuple = ()

    @contextmanager
    def applied(self):
        """Each patch set for the body; every patched attribute is restored
        on exit, also when the body raises."""
        saved = []
        try:
            for module, attribute, replacement in self.patches:
                saved.append((module, attribute, getattr(module, attribute)))
                setattr(module, attribute, replacement)
            yield
        finally:
            for module, attribute, original in reversed(saved):
                setattr(module, attribute, original)


SHIPPED = Variant("shipped")


@dataclasses.dataclass(frozen=True)
class Cell:
    variant: Variant
    fold: int
    seed: int
    episodes: int

    @property
    def config(self):
        return dataclasses.replace(TOY_CONFIG, seed=self.seed, episodes=self.episodes)

    @property
    def split(self):
        return make_split(range(1, 9), self.fold)


@functools.cache
def train_cell(cell):
    """`meta_train` of the cell under its variant: the read-only result and
    the seconds it took."""
    with cell.variant.applied():
        start = time.perf_counter()
        result = M.meta_train(acceptance_pool(), cell.split, cell.config)
        seconds = time.perf_counter() - start
    return read_only_result(result), seconds


@functools.cache
def score_cell(cell):
    """The trained cell's `EvalResult`s over `evaluate(..., 100, seed=999)`,
    with its bank and with the bank zeroed, under its variant."""
    result, _ = train_cell(cell)
    with cell.variant.applied():
        return tuple(M.evaluate(acceptance_pool(), cell.split, result.params, bank, cell.config, 100, seed=999)
                     for bank in (result.bank, result.bank.zeroed()))


def _prototype_head(query_features, protos, guide, params):
    """Prototype matching (ProtoNet, arXiv 1703.05175) in place of `model.segment`:
    a class's logit is the max cosine of a query point to its prototypes over a
    temperature of 0.1, the background first. No correlations, refinement, decoder or guidance."""
    columns = [T.reshape(T.max_pool_rows(T.cosine_rows(query_features, mat)), (query_features.shape[0], 1))
               for mat in protos]
    return T.div(T.concat(columns[-1:] + columns[:-1], axis=1), T.Tensor(np.array(0.1)))


PROTOTYPE_MATCHING = Variant("prototype matching", ((M, "segment", _prototype_head),))


def _auc(score, positive):
    """Probability that a positive outscores a negative, ties counting half."""
    negatives = np.sort(score[~positive])
    below = np.searchsorted(negatives, score[positive], "left")
    ties = np.searchsorted(negatives, score[positive], "right") - below
    return (below.sum() + 0.5 * ties.sum()) / (below.size * negatives.size)


def guidance_auc(pool, split, config, params, bank):
    """The mean per-episode AUC of -guidance for the query foreground over
    100 episodes, with `params.stub` and `bank`: [train stream at
    `config.seed` with `train_exclusions`, test stream at seed 999 (the
    one the ROADMAP's evaluations use) with none], as `evaluate` runs it."""
    streams = (("train", config.seed, M.train_exclusions), ("test", 999, lambda ep: ()))
    with T.no_grad():
        return [np.mean([_auc(-M.base_guidance(M.backbone_stub(ep.query, params.stub), bank, excluded(ep)).data,
                              ep.query_gt > 0)
                         for ep in M.episode_stream(pool, split, phase, config, seed, 100)])
                for phase, seed, excluded in streams]
