"""Geometry primitives against brute-force oracles."""

import numpy as np
import pytest

from pcseg.geometry import (
    EmptyMaskError,
    PointCloud,
    cluster_to_seeds,
    farthest_point_sample,
    grid_subsample,
    split_blocks,
)


def random_cloud(rng, n, span=1.0, n_classes=4):
    return PointCloud(
        rng.uniform(-span, span, size=(n, 3)),
        rng.random((n, 3)),
        rng.integers(0, n_classes, size=n),
    )


def cloud_from_positions(positions):
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    return PointCloud(positions, np.full((n, 3), 0.5), np.zeros(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def voxel_dedup_oracle(cloud, grid):
    """Hash-bucket dedup: lowest index per voxel, buckets in key order."""
    buckets = {}
    for i, p in enumerate(cloud.positions):
        key = tuple(int(np.floor(c / grid)) for c in p)
        buckets.setdefault(key, i)
    return [buckets[k] for k in sorted(buckets)]


def fps_oracle(positions, mask, count):
    """Greedy max-min selection, quadratic scan, lowest index on ties."""
    cand = [i for i in range(len(positions)) if mask[i]]
    chosen = [cand[0]]
    while len(chosen) < min(count, len(cand)):
        best, best_d = None, -1.0
        for i in cand:
            if i in chosen:
                continue
            d = min(float(((positions[i] - positions[j]) ** 2).sum()) for j in chosen)
            if d > best_d:
                best, best_d = i, d
        chosen.append(best)
    return chosen


def nearest_seed_oracle(positions, mask, seeds):
    groups = [[] for _ in seeds]
    for i in range(len(positions)):
        if not mask[i]:
            continue
        d = [float(((positions[i] - positions[s]) ** 2).sum()) for s in seeds]
        groups[int(np.argmin(d))].append(i)
    return groups


# ---------------------------------------------------------------------------
# PointCloud
# ---------------------------------------------------------------------------

class TestPointCloud:
    def test_validates_lengths(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_rejects_out_of_range_colors(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), np.full((2, 3), 1.5), np.zeros(2, dtype=int))

    def test_rejects_non_finite(self):
        pos = np.zeros((2, 3))
        pos[0, 0] = np.nan
        with pytest.raises(ValueError):
            PointCloud(pos, np.zeros((2, 3)), np.zeros(2, dtype=int))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_labels_below_minus_one_rejected(self):
        cloud = PointCloud(np.zeros((3, 3)), np.zeros((3, 3)), [-1, 0, 4])  # -1 marks unlabeled
        assert cloud.labels.tolist() == [-1, 0, 4]
        with pytest.raises(ValueError, match=r"labels must be >= -1 \(-1 marks unlabeled\), got -5"):
            PointCloud(np.zeros((3, 3)), np.zeros((3, 3)), [-1, -5, 4])


# ---------------------------------------------------------------------------
# grid_subsample
# ---------------------------------------------------------------------------

class TestGridSubsample:
    def test_same_voxel_collapses(self):
        cloud = cloud_from_positions([(0.001, 0, 0), (0.015, 0, 0)])
        assert len(grid_subsample(cloud, 0.02)) == 1

    def test_distinct_voxels_survive(self):
        cloud = cloud_from_positions([(0.01, 0, 0), (0.03, 0, 0)])
        assert len(grid_subsample(cloud, 0.02)) == 2

    def test_matches_bucket_oracle(self):
        rng = np.random.default_rng(11)
        cloud = random_cloud(rng, 1000, span=0.5)
        out = grid_subsample(cloud, 0.02)
        expected = cloud.take(voxel_dedup_oracle(cloud, 0.02))
        np.testing.assert_array_equal(out.positions, expected.positions)
        np.testing.assert_array_equal(out.labels, expected.labels)

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, 500, span=0.3)
        once = grid_subsample(cloud, 0.02)
        twice = grid_subsample(once, 0.02)
        np.testing.assert_array_equal(once.positions, twice.positions)
        np.testing.assert_array_equal(once.labels, twice.labels)

    def test_negative_coordinates(self):
        cloud = cloud_from_positions([(-0.001, 0, 0), (-0.015, 0, 0), (0.001, 0, 0)])
        # the two negatives share voxel -1, the positive sits in voxel 0
        assert len(grid_subsample(cloud, 0.02)) == 2

    def test_rejects_bad_grid(self):
        cloud = cloud_from_positions([(0, 0, 0)])
        with pytest.raises(ValueError):
            grid_subsample(cloud, 0.0)

    @pytest.mark.parametrize("size", [1e-19, 1e-300])
    def test_rejects_cell_index_outside_int64(self, size):
        cloud = random_cloud(np.random.default_rng(14), 1000)  # a 2 m cube
        with pytest.raises(ValueError, match="outside int64"):
            grid_subsample(cloud, size)

    def test_smallest_cells_that_fit_int64_keep_every_point(self):
        cloud = random_cloud(np.random.default_rng(14), 1000)
        assert len(grid_subsample(cloud, 1e-18)) == 1000


# ---------------------------------------------------------------------------
# split_blocks
# ---------------------------------------------------------------------------

class TestSplitBlocks:
    def test_single_cell(self):
        cloud = cloud_from_positions([(0.1, 0.1, 0), (0.9, 0.9, 5.0)])
        blocks = split_blocks(cloud, 1.0)
        assert len(blocks) == 1
        np.testing.assert_array_equal(blocks[0].positions, cloud.positions)

    def test_two_cells(self):
        cloud = cloud_from_positions([(0.5, 0.5, 0), (1.5, 0.5, 0)])
        blocks = split_blocks(cloud, 1.0)
        assert [len(b) for b in blocks] == [1, 1]

    def test_partition_counts(self):
        rng = np.random.default_rng(13)
        cloud = random_cloud(rng, 800, span=3.0)
        blocks = split_blocks(cloud, 1.0)
        assert sum(len(b) for b in blocks) == len(cloud)
        # union of blocks = input (as multisets of rows)
        merged = np.concatenate([b.positions for b in blocks])
        assert merged.shape == cloud.positions.shape
        order_a = np.lexsort(merged.T)
        order_b = np.lexsort(cloud.positions.T)
        np.testing.assert_array_equal(merged[order_a], cloud.positions[order_b])

    def test_rejects_bad_block(self):
        cloud = cloud_from_positions([(0, 0, 0)])
        with pytest.raises(ValueError):
            split_blocks(cloud, -1.0)

    @pytest.mark.parametrize("size", [1e-19, 1e-300])
    def test_rejects_cell_index_outside_int64(self, size):
        cloud = random_cloud(np.random.default_rng(15), 1000)
        with pytest.raises(ValueError, match="outside int64"):
            split_blocks(cloud, size)


# ---------------------------------------------------------------------------
# farthest_point_sample
# ---------------------------------------------------------------------------

class TestFarthestPointSample:
    def test_line_count_two(self):
        cloud = cloud_from_positions([(0, 0, 0), (1, 0, 0), (10, 0, 0)])
        mask = np.ones(3, dtype=bool)
        got = farthest_point_sample(cloud, mask, 2)
        assert list(got) == fps_oracle(cloud.positions, mask, 2) == [0, 2]

    def test_line_count_three(self):
        cloud = cloud_from_positions([(0, 0, 0), (1, 0, 0), (10, 0, 0)])
        mask = np.ones(3, dtype=bool)
        got = farthest_point_sample(cloud, mask, 3)
        assert list(got) == fps_oracle(cloud.positions, mask, 3) == [0, 2, 1]

    def test_clamps_to_mask_size(self):
        cloud = cloud_from_positions([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
        mask = np.array([True, False, True, True])
        assert len(farthest_point_sample(cloud, mask, 5)) == 3

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(4, 65))
            cloud = random_cloud(rng, n)
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[int(rng.integers(n))] = True
            count = int(rng.integers(1, mask.sum() + 1))
            got = farthest_point_sample(cloud, mask, count)
            assert list(got) == fps_oracle(cloud.positions, mask, count)

    def test_selection_restricted_to_mask(self):
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, 40)
        mask = rng.random(40) < 0.5
        mask[3] = True
        got = farthest_point_sample(cloud, mask, 10)
        assert mask[got].all()

    def test_greedy_min_distance_monotone(self):
        rng = np.random.default_rng(16)
        cloud = random_cloud(rng, 60)
        mask = np.ones(60, dtype=bool)
        seeds = farthest_point_sample(cloud, mask, 20)
        gaps = []
        for k in range(1, len(seeds)):
            d = min(
                np.linalg.norm(cloud.positions[seeds[k]] - cloud.positions[j])
                for j in seeds[:k]
            )
            gaps.append(d)
        assert all(gaps[i] >= gaps[i + 1] - 1e-12 for i in range(len(gaps) - 1))

    def test_permutation_covariance_with_matched_start(self):
        # The deterministic start rule is index-based, so covariance is
        # checked with permutations that keep the start point first among
        # the masked points.
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = 30
            cloud = random_cloud(rng, n)
            mask = np.ones(n, dtype=bool)
            base = farthest_point_sample(cloud, mask, 8)
            perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])  # keeps the start point at index 0
            inverse = np.argsort(perm)
            permuted = cloud.take(perm)
            got = farthest_point_sample(permuted, mask[perm], 8)
            np.testing.assert_array_equal(got, inverse[base])

    def test_empty_mask_raises(self):
        cloud = cloud_from_positions([(0, 0, 0), (1, 0, 0)])
        with pytest.raises(EmptyMaskError):
            farthest_point_sample(cloud, np.zeros(2, dtype=bool), 1)

    def test_bad_count_raises(self):
        cloud = cloud_from_positions([(0, 0, 0)])
        with pytest.raises(ValueError):
            farthest_point_sample(cloud, np.ones(1, dtype=bool), 0)


# ---------------------------------------------------------------------------
# cluster_to_seeds
# ---------------------------------------------------------------------------

class TestClusterToSeeds:
    def test_single_seed_takes_everything(self):
        rng = np.random.default_rng(18)
        cloud = random_cloud(rng, 20)
        mask = rng.random(20) < 0.6
        mask[4] = True
        groups = cluster_to_seeds(cloud.positions, mask, np.array([4]))
        assert len(groups) == 1
        np.testing.assert_array_equal(groups[0], np.flatnonzero(mask))

    def test_nearer_seed_wins(self):
        positions = np.array([(0.0, 0, 0), (10.0, 0, 0), (1.0, 0, 0)])
        mask = np.ones(3, dtype=bool)
        groups = cluster_to_seeds(positions, mask, np.array([0, 1]))
        assert 2 in groups[0] and 2 not in groups[1]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(19)
        positions = rng.uniform(-1, 1, size=(50, 3))
        mask = rng.random(50) < 0.8
        seed_pool = np.flatnonzero(mask)
        seeds = rng.choice(seed_pool, size=5, replace=False)
        groups = cluster_to_seeds(positions, mask, seeds)
        expected = nearest_seed_oracle(positions, mask, seeds)
        for got, want in zip(groups, expected):
            np.testing.assert_array_equal(got, want)

    def test_groups_partition_mask(self):
        rng = np.random.default_rng(20)
        positions = rng.uniform(-1, 1, size=(40, 3))
        mask = rng.random(40) < 0.7
        mask[[1, 7]] = True
        groups = cluster_to_seeds(positions, mask, np.array([1, 7]))
        merged = np.sort(np.concatenate(groups))
        np.testing.assert_array_equal(merged, np.flatnonzero(mask))

    def test_every_seed_in_own_group(self):
        positions = np.array([(0.0, 0, 0), (0.0, 0, 0), (5.0, 0, 0)])
        mask = np.ones(3, dtype=bool)
        groups = cluster_to_seeds(positions, mask, np.array([0, 1]))
        assert 0 in groups[0]
        assert 1 in groups[1]  # duplicate coordinates still keep their own seed

    def test_unmasked_seed_raises(self):
        positions = np.zeros((3, 3))
        mask = np.array([True, False, True])
        with pytest.raises(ValueError):
            cluster_to_seeds(positions, mask, np.array([1]))

    def test_empty_seeds_raise(self):
        with pytest.raises(ValueError):
            cluster_to_seeds(np.zeros((3, 3)), np.ones(3, dtype=bool), np.array([], dtype=int))
