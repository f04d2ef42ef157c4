"""Class splits, episode construction, and IoU counts."""

import math
import time

import numpy as np
import pytest

from pcseg import model as M
from pcseg.config import RunConfig
from pcseg.episodes import (
    ClassSplit,
    PoolExhaustedError,
    class_targets,
    confusion_counts,
    generate_episode,
    iou_from_counts,
    make_split,
)
from pcseg.geometry import PointCloud, grid_subsample, split_blocks
from pcseg.sampling import cap_indices
from pcseg.synth import synth_scene

CAP = 512
MIN_FG = 60


class TestMakeSplit:
    def test_fold0_positional_rule(self):
        split = make_split({1, 2, 3, 4}, 0)
        assert split.test_classes == (1, 3)
        assert split.train_classes == (2, 4)

    def test_fold1_positional_rule(self):
        split = make_split({1, 2, 3, 4}, 1)
        assert split.test_classes == (2, 4)
        assert split.train_classes == (1, 3)

    def test_folds_complement(self):
        classes = {3, 9, 12, 20, 31}
        s0, s1 = make_split(classes, 0), make_split(classes, 1)
        assert set(s0.test_classes) & set(s1.test_classes) == set()
        assert set(s0.test_classes) | set(s1.test_classes) == classes
        assert s0.train_classes == s1.test_classes

    def test_too_few_classes(self):
        with pytest.raises(ValueError):
            make_split({5}, 0)

    def test_bad_fold(self):
        with pytest.raises(ValueError):
            make_split({1, 2}, 2)

    def test_split_invariants_enforced(self):
        with pytest.raises(ValueError):
            ClassSplit(train_classes=(1, 2), test_classes=(2, 3))
        with pytest.raises(ValueError):
            ClassSplit(train_classes=(), test_classes=(1,))


class TestGenerateEpisode:
    def test_smallest_legal_episode(self, pool8, split8):
        ep = generate_episode(pool8, split8.train_classes, 1, 1, MIN_FG, CAP, 5)
        assert len(ep.support) == 1 and len(ep.support[0]) == 1
        assert ep.query_index != ep.support_indices[0][0]

    def test_two_way_label_range(self, pool8, split8):
        ep = generate_episode(pool8, split8.test_classes, 2, 1, MIN_FG, CAP, 9)
        assert set(np.unique(ep.query_gt)) <= {0, 1, 2}
        assert len(ep.target_classes) == 2
        assert len(set(ep.target_classes)) == 2

    def test_stream_phase_picks_the_classes(self, pool8, split8, monkeypatch):
        config = RunConfig(min_fg_points=MIN_FG, max_points=CAP)
        handed = []

        def spy(pool, classes, *args):
            handed.append(classes)
            return generate_episode(pool, classes, *args)

        monkeypatch.setattr(M, "generate_episode", spy)
        for phase, classes in (("train", split8.train_classes), ("test", split8.test_classes)):
            handed.clear()
            for ep in M.episode_stream(pool8, split8, phase, config, 3, 8):
                assert set(ep.target_classes) <= set(classes)
            assert handed == [classes] * 8
        with pytest.raises(ValueError, match="phase must be 'train' or 'test', got 'Train'"):
            next(M.episode_stream(pool8, split8, "Train", config, 3, 8))

    def test_support_masks_meet_minimum(self, pool8, split8):
        for seed in range(8):
            ep = generate_episode(pool8, split8.train_classes, 2, 2, MIN_FG, CAP, seed)
            for way, class_id in zip(ep.support, ep.target_classes):
                for cloud, mask in way:
                    assert mask.sum() >= MIN_FG
                    np.testing.assert_array_equal(mask, cloud.labels == class_id)

    def test_clouds_capped(self, pool8, split8):
        ep = generate_episode(pool8, split8.train_classes, 1, 1, 20, 128, 77)
        assert len(ep.query) <= 128
        for way in ep.support:
            for cloud, _ in way:
                assert len(cloud) <= 128

    def test_support_and_query_distinct(self, pool8, split8):
        for seed in range(8):
            ep = generate_episode(pool8, split8.train_classes, 2, 2, MIN_FG, CAP, seed)
            used = [i for way in ep.support_indices for i in way] + [ep.query_index]
            assert len(used) == len(set(used))

    def test_query_gt_matches_labels(self, pool8, split8):
        ep = generate_episode(pool8, split8.test_classes, 2, 1, MIN_FG, CAP, 31)
        for n, class_id in enumerate(ep.target_classes, start=1):
            np.testing.assert_array_equal(ep.query_gt == n, ep.query.labels == class_id)
        other = ~np.isin(ep.query.labels, ep.target_classes)
        assert (ep.query_gt[other] == 0).all()

    def test_class_targets_mapping(self):
        labels = np.array([5, 2, 9, 2, -1])
        out = class_targets(labels, (2, 5))
        np.testing.assert_array_equal(out, [2, 1, 0, 1, 0])
        assert out.dtype == np.int64

    def test_pool_exhausted_names_class(self, pool8, split8):
        tiny = pool8[:2]
        with pytest.raises(PoolExhaustedError, match="class"):
            generate_episode(tiny, split8.train_classes, 4, 2, MIN_FG, CAP, 0)

    def test_impossible_min_fg_raises(self, pool8, split8):
        with pytest.raises(PoolExhaustedError):
            generate_episode(pool8, split8.train_classes, 1, 1, 10_000, CAP, 0)


def tiled_room(seed: int) -> PointCloud:
    """2 x 2 one-metre cells of 3 blobs x 1,500 points each, classes 1-8,
    every cell clipped into its square so each 1 m block holds one cell."""
    rng = np.random.default_rng(seed)
    parts = []
    for i in range(2):
        for j in range(2):
            chosen = rng.choice(range(1, 9), size=3, replace=False)
            cell = synth_scene(int(rng.integers(0, 2**63 - 1)), [(int(c), 1500) for c in chosen])
            xy = np.clip(cell.positions[:, :2], 0.0, 0.999) + (i, j)
            parts.append((np.column_stack([xy, cell.positions[:, 2]]), cell.colors, cell.labels))
    return PointCloud(*(np.concatenate(arrays) for arrays in zip(*parts)))


def hypergeometric_tail(n: int, c: int, m: int, t: int) -> float:
    """P(X >= t) for X ~ Hypergeometric(n, c, m): the class points a uniform
    cap of m out of n keeps of a class of c. Log-space terms, since exact
    binomials at n of a few thousand take seconds."""
    if m >= n:
        return float(c >= t)

    def log_comb(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    top = log_comb(n, m)
    return sum(math.exp(log_comb(c, x) + log_comb(n - c, m - x) - top)
               for x in range(max(t, m - (n - c)), min(c, m) + 1))


def test_eligibility_under_the_cap_matches_the_sparse_point_law():
    """On room scenes split into blocks, the share of (block, class) pairs a
    capped block leaves eligible at `min_fg_points` is what the
    hypergeometric law predicts from the class sizes. The table is printed
    (run with -s)."""
    start = time.time()
    blocks = [b for seed in range(3) for b in split_blocks(grid_subsample(tiled_room(seed), 0.01), 1.0)]
    min_fg, draws = 100, 20
    rows = []
    for cap in (128, 256, 512, 1024, 2048):
        measured, predicted = [], []
        for b, block in enumerate(blocks):
            kept = [block.labels if idx is None else block.labels[idx]
                    for idx in (cap_indices(len(block), cap, 1000 * b + t) for t in range(draws))]
            for class_id in np.unique(block.labels):
                measured.append(np.mean([np.count_nonzero(k == class_id) >= min_fg for k in kept]))
                c = int(np.count_nonzero(block.labels == class_id))
                predicted.append(hypergeometric_tail(len(block), c, cap, min_fg))
        rows.append((cap, len(measured), float(np.mean(measured)), float(np.mean(predicted))))
    print(f"\neligible (block, class) pairs at min_fg_points={min_fg}, {len(blocks)} blocks "
          f"of {min(map(len, blocks))}-{max(map(len, blocks))} points ({time.time() - start:.2f} s)")
    for cap, pairs, got, want in rows:
        print(f"  cap {cap:5d}: {pairs} pairs, measured {got:.3f}, predicted {want:.3f}")
    for cap, _, got, want in rows:
        assert abs(got - want) < 0.05, (cap, got, want)


def miou(pred, gt, n_way: int):
    """Per-way IoU and its mean for one episode whose ways are classes 1..n_way."""
    return iou_from_counts(confusion_counts(pred, gt, range(1, n_way + 1)).values())


class TestMiou:
    def test_all_background_prediction(self):
        gt = np.array([0, 0, 1, 1])
        ious, mean = miou(np.zeros(4, dtype=int), gt, 1)
        assert ious[0] == 0.0 and mean == 0.0

    def test_confusion_arithmetic(self):
        # TP=50, FP=25, FN=25 -> IoU = 0.5
        gt = np.concatenate([np.ones(75, dtype=int), np.zeros(75, dtype=int)])
        pred = np.concatenate([np.ones(50, dtype=int), np.zeros(25, dtype=int),
                               np.ones(25, dtype=int), np.zeros(50, dtype=int)])
        ious, mean = miou(pred, gt, 1)
        assert ious[0] == 0.5 and mean == 0.5

    def test_absent_class_excluded(self):
        gt = np.array([0, 1, 1, 0])
        pred = np.array([0, 1, 1, 0])
        ious, mean = miou(pred, gt, 2)  # class 2 appears nowhere
        assert ious[0] == 1.0 and np.isnan(ious[1])
        assert mean == 1.0

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(4)
        gt = rng.integers(0, 3, size=200)
        pred = rng.integers(0, 3, size=200)
        _, base = miou(pred, gt, 2)
        perm = rng.permutation(200)
        _, permuted = miou(pred[perm], gt[perm], 2)
        assert base == permuted

    def test_identity_with_foreground_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            labels = rng.integers(0, 3, size=60)
            labels[0] = 1
            _, mean = miou(labels, labels, 2)
            assert mean == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            miou(np.zeros(3, dtype=int), np.zeros(4, dtype=int), 1)
