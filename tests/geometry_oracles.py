"""Brute-force geometry oracles, and the random cloud they are run on, that
the tests compare the library's voxel, seed and cluster kernels against;
the library runs none of them."""

import numpy as np

from pcseg.geometry import PointCloud


def random_cloud(rng, n, span=1.0, n_classes=4):
    return PointCloud(
        rng.uniform(-span, span, size=(n, 3)),
        rng.random((n, 3)),
        rng.integers(0, n_classes, size=n),
    )


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
