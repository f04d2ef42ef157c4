"""Synthetic blob scenes."""

import numpy as np
import pytest

from pcseg.synth import BLOB_SIGMA, MIN_CENTER_SEPARATION, _pick_centers, class_color, make_pool, synth_scene


def pick_centers_one_at_a_time(rng, count):
    """The loop `_pick_centers` batches: one candidate per draw, as it was."""
    centers = []
    for _ in range(count):
        best, best_dist = None, -1.0
        for _ in range(500):
            c = np.array([
                rng.uniform(0.1, 0.9),
                rng.uniform(0.1, 0.9),
                rng.uniform(0.1, 0.4),
            ])
            dist = min((np.linalg.norm(c - o) for o in centers), default=np.inf)
            if dist >= MIN_CENTER_SEPARATION:
                best = c
                break
            if dist > best_dist:
                best, best_dist = c, dist
        centers.append(best)
    return np.stack(centers)


class TestSynthScene:
    def test_budgets_respected(self):
        scene = synth_scene(0, [(1, 500), (2, 500)])
        assert len(scene) == 1000
        values, counts = np.unique(scene.labels, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == {1: 500, 2: 500}

    def test_nearest_centroid_separates_blobs(self):
        # centers are kept 10 sigma apart: xyz nearest-centroid > 99%
        for seed in range(5):
            scene = synth_scene(seed, [(1, 300), (2, 300), (3, 300)])
            classes = np.unique(scene.labels)
            centroids = np.stack(
                [scene.positions[scene.labels == c].mean(axis=0) for c in classes]
            )
            d = ((scene.positions[:, None, :] - centroids[None]) ** 2).sum(axis=2)
            pred = classes[d.argmin(axis=1)]
            assert (pred == scene.labels).mean() > 0.99

    def test_center_separation(self):
        for seed in range(10):
            scene = synth_scene(seed, [(1, 50), (2, 50), (3, 50), (4, 50)])
            centroids = [
                scene.positions[scene.labels == c].mean(axis=0)
                for c in np.unique(scene.labels)
            ]
            for i in range(len(centroids)):
                for j in range(i + 1, len(centroids)):
                    # centroid estimate of a 10-sigma-separated pair
                    assert np.linalg.norm(centroids[i] - centroids[j]) > 8 * BLOB_SIGMA

    def test_class_colors_consistent_across_scenes(self):
        a = synth_scene(1, [(4, 200), (6, 200)])
        b = synth_scene(2, [(4, 200), (7, 200)])
        mean_a = a.colors[a.labels == 4].mean(axis=0)
        mean_b = b.colors[b.labels == 4].mean(axis=0)
        np.testing.assert_allclose(mean_a, class_color(4), atol=0.02)
        np.testing.assert_allclose(mean_a, mean_b, atol=0.02)

    def test_colors_distinct_between_classes(self):
        colors = [class_color(c) for c in range(1, 9)]
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(colors[i] - colors[j]) > 0.1

    def test_rejects_degenerate_layouts(self):
        with pytest.raises(ValueError):
            synth_scene(0, [])
        with pytest.raises(ValueError):
            synth_scene(0, [(1, 100)])
        with pytest.raises(ValueError):
            synth_scene(0, [(1, 100), (2, 0)])


# From 4 blobs on some blobs find no candidate that fits, so both the
# first-fit and the farthest-candidate branch are compared. The reference
# takes about 2 s at 50 blobs, so the large counts get one seed each.
@pytest.mark.parametrize("count, seed", [(c, s) for c in range(2, 13) for s in range(4)] + [(20, 0), (50, 0)])
def test_pick_centers_matches_one_at_a_time_loop(count, seed):
    batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _pick_centers(batched, count)
    assert got.tobytes() == pick_centers_one_at_a_time(reference, count).tobytes()
    assert batched.bit_generator.state == reference.bit_generator.state


class TestMakePool:
    def test_pool_size_and_determinism(self):
        a = make_pool(5, 6, range(1, 9))
        b = make_pool(5, 6, range(1, 9))
        assert len(a) == 6
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.positions, y.positions)

    def test_scene_classes_from_palette(self):
        pool = make_pool(6, 10, [2, 4, 6], blobs_per_scene=2, points_per_blob=50)
        for scene in pool:
            assert set(np.unique(scene.labels)) <= {2, 4, 6}
