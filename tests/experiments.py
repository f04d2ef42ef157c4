"""The one place for models trained at `TOY_CONFIG` on the acceptance pool,
and the command that prints the lab's reports.

A `Variant` is a name and a tuple of `(module, attribute, replacement)`
patches, active while its cells train and while they are scored; no
variant is a `src` knob. A `Cell` is a variant trained at `TOY_CONFIG` on
the acceptance pool at one fold, seed and episode count. `train_cell` and
`score_cell` are memoized for the process, so no cell trains twice, and
every parameter and bank array they hand out is read-only.

The four reports gate nothing: each returns its rows, built at call time
from `TOY_CONFIG`, and `PYTHONPATH=src python tests/experiments.py` prints
them as tables (about a minute, three 2,000-episode trainings).
"""

import dataclasses
import functools
import time
from contextlib import contextmanager

import numpy as np
import pytest

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
        """Each patch set for the body; pytest restores every patched
        attribute on exit, also when the body raises."""
        with pytest.MonkeyPatch.context() as patch:
            for module, attribute, replacement in self.patches:
                patch.setattr(module, attribute, replacement)
            yield


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


def prototype_baseline_rows():
    """The paper's central contrast: correlation optimization against
    prototype matching (ProtoNet, arXiv 1703.05175; attMPTI, arXiv
    2006.12052), trained like the shipped model on both folds; the shipped
    model at fold 0 only, as the learning criterion trains it. Rows of
    (cell, with the bank, zeroed) `EvalResult`s."""
    cells = [Cell(variant, fold, TOY_CONFIG.seed, TOY_CONFIG.episodes)
             for variant, fold in ((PROTOTYPE_MATCHING, 0), (PROTOTYPE_MATCHING, 1), (SHIPPED, 0))]
    return [(cell, *score_cell(cell)) for cell in cells]


def trained_guidance_parity():
    """`guidance_auc` of the model the learning criterion trains: [train, test]."""
    cell = Cell(SHIPPED, 0, TOY_CONFIG.seed, TOY_CONFIG.episodes)
    result, _ = train_cell(cell)
    return guidance_auc(acceptance_pool(), cell.split, cell.config, result.params, result.bank)


def guidance_parity_rows():
    """How well low guidance alone marks a query's foreground: `guidance_auc`
    with nothing trained, rows of (seed, fold, train, test). The stub is at
    its init and each bank row is its class's mean stub feature over the
    acceptance pool. A train AUC above the test one is a cue that solves
    training and does not transfer (Geirhos et al., arXiv 2004.07780)."""
    pool, rows = acceptance_pool(), []
    with T.no_grad():
        for seed in (3, 4, 5):
            for fold in (0, 1):
                cell = Cell(SHIPPED, fold, seed, 0)
                params, split = train_cell(cell)[0].params, cell.split
                features = [M.backbone_stub(cloud, params.stub).data for cloud in pool]
                bank = M.BasePrototypeBank.zeros(split.train_classes, TOY_CONFIG.dim)
                for cid in split.train_classes:
                    pooled = np.concatenate([f[cloud.labels == cid] for f, cloud in zip(features, pool)])
                    bank.apply_update(cid, pooled.mean(axis=0), 0.0)
                rows.append((seed, fold, *guidance_auc(pool, split, cell.config, params, bank)))
    return rows


def way_and_shot_order_rows():
    """How much `forward` depends on the order an episode lists its ways and
    each way's shots in: the logits of 100 test episodes as listed against
    those of the same episodes listed in reverse, with the foreground
    columns mapped back, at 2-way 1-shot and at 1-way 3-shot, by the
    0-episode cell at fold 0 (`TOY_CONFIG`'s init, a zero bank). ProtoNet's
    prototype (arXiv 1703.05175), a mean over the shots, is invariant to
    their order by construction; these rows measure how far the
    multi-prototype extraction is from that."""
    cell = Cell(SHIPPED, 0, TOY_CONFIG.seed, 0)
    untrained, split = train_cell(cell)[0], cell.split
    params, bank = untrained.params, untrained.bank
    rows = []
    with T.no_grad():
        for n_way, k_shot in ((2, 1), (1, 3)):
            config = dataclasses.replace(TOY_CONFIG, n_way=n_way, k_shot=k_shot)
            back = [0, *range(n_way, 0, -1)]  # the reversed listing's columns in listed order
            deltas, moved, points, listed_pairs, reversed_pairs = [], 0, 0, [], []
            for ep in M.episode_stream(acceptance_pool(), split, "test", config, 999, 100):
                listed = M.forward(ep, params, bank, ())[0].data
                # `forward` reads only the support and the query
                flipped = dataclasses.replace(ep, support=[way[::-1] for way in ep.support[::-1]])
                reverse = M.forward(flipped, params, bank, ())[0].data[:, back]
                deltas.append(np.abs(listed - reverse).max())
                moved += int((listed.argmax(axis=1) != reverse.argmax(axis=1)).sum())
                points += len(listed)
                listed_pairs.append((listed.argmax(axis=1), ep))
                reversed_pairs.append((reverse.argmax(axis=1), ep))
            rows.append((f"{n_way}-way {k_shot}-shot", np.median(deltas), max(deltas), moved, points,
                         M.score(listed_pairs).episode_miou_mean, M.score(reversed_pairs).episode_miou_mean))
    return rows


def main():
    print("\nprototype matching against the shipped model, seed 3, episode mIoU (pooled)\n"
          "| model | fold | with the bank | zeroed |")
    for cell, with_bank, zeroed in prototype_baseline_rows():
        print(f"| {cell.variant.name} | {cell.fold} | {with_bank.episode_miou_mean:.3f} ({with_bank.mean_iou:.3f}) "
              f"| {zeroed.episode_miou_mean:.3f} ({zeroed.mean_iou:.3f}) |")
    aucs = trained_guidance_parity()
    print(f"\n  trained guidance parity, mean AUC of -guidance: train {aucs[0]:.3f}, test {aucs[1]:.3f}")
    print("\nguidance parity, mean AUC of -guidance for the query foreground\n| seed | fold | train | test |")
    for seed, fold, train, test in guidance_parity_rows():
        print(f"| {seed} | {fold} | {train:.3f} | {test:.3f} |")
    print("\nway and shot order at init, 100 test episodes, ways and shots listed in reverse\n"
          "| task | max \\|Δ logit\\| (median / max over episodes) | query points whose argmax moves |"
          " episode mIoU, as listed / reversed |")
    for task, median, worst, moved, points, as_listed, as_reversed in way_and_shot_order_rows():
        print(f"| {task} | {median:.2f} / {worst:.2f} | {moved} of {points:,} | {as_listed:.3f} / {as_reversed:.3f} |")


if __name__ == "__main__":
    main()
