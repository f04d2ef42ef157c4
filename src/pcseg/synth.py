"""Synthetic desk-scale scenes: well-separated Gaussian blobs.

Each class gets a fixed color. A scene places one blob per requested
class at random centers kept at least 10 sigma apart, so a nearest
centroid rule on xyz separates the blobs essentially perfectly and the
color alone identifies the class across scenes.
"""

from __future__ import annotations

import colorsys

import numpy as np

from .geometry import PointCloud

BLOB_SIGMA = 0.05
MIN_CENTER_SEPARATION = 10 * BLOB_SIGMA
COLOR_NOISE = 0.02


def class_color(class_id: int) -> np.ndarray:
    """Deterministic, well-spread RGB color for a class id (golden-angle hues)."""
    hue = (class_id * 0.61803398875) % 1.0
    return np.array(colorsys.hsv_to_rgb(hue, 0.75, 0.85))


def _pick_centers(rng: np.random.Generator, count: int) -> np.ndarray:
    """Blob centers in a ~1 m cell, pairwise at least 10 sigma apart.

    Deterministic rejection sampling over up to 500 candidates per blob:
    the first candidate that fits is taken, else the first of those
    farthest from the placed centers. A blob's candidates are drawn in one
    batch; when one fits, the generator is rewound and only the candidates
    up to it are redrawn, so it consumes exactly what a one-at-a-time loop
    would.
    """
    low, high = (0.1, 0.1, 0.1), (0.9, 0.9, 0.4)
    centers = np.empty((0, 3))
    for _ in range(count):
        state = rng.bit_generator.state
        candidates = rng.uniform(low, high, size=(500, 3))
        dist = np.linalg.norm(candidates[:, None] - centers[None], axis=2).min(axis=1, initial=np.inf)
        fits = np.flatnonzero(dist >= MIN_CENTER_SEPARATION)
        if fits.size:
            pick = fits[0]
            rng.bit_generator.state = state
            rng.uniform(low, high, size=(pick + 1, 3))
        else:
            pick = np.argmax(dist)
        centers = np.vstack([centers, candidates[pick]])
    return centers


def synth_scene(seed: int, class_layout) -> PointCloud:
    """Generate one scene from (class_id, point_budget) pairs.

    Labels come from the generating blob; points are shuffled so label
    order carries no information. Deterministic per seed.
    """
    layout = [(int(c), int(n)) for c, n in class_layout]
    if len(layout) < 2:
        raise ValueError(f"class_layout needs at least 2 classes, got {len(layout)}")
    if any(n < 1 for _, n in layout):
        raise ValueError("every class needs a positive point budget")
    rng = np.random.default_rng(seed)
    centers = _pick_centers(rng, len(layout))

    positions, colors, labels = [], [], []
    for (class_id, budget), center in zip(layout, centers):
        positions.append(center + rng.normal(scale=BLOB_SIGMA, size=(budget, 3)))
        base = class_color(class_id)
        colors.append(np.clip(base + rng.normal(scale=COLOR_NOISE, size=(budget, 3)), 0.0, 1.0))
        labels.append(np.full(budget, class_id, dtype=np.int64))

    order = rng.permutation(sum(n for _, n in layout))
    return PointCloud(
        np.concatenate(positions)[order],
        np.concatenate(colors)[order],
        np.concatenate(labels)[order],
    )


def make_pool(
    seed: int,
    n_scenes: int,
    class_ids,
    blobs_per_scene: int = 3,
    points_per_blob: int = 400,
) -> list[PointCloud]:
    """A pool of scenes, each holding a random subset of the class palette."""
    class_ids = sorted(int(c) for c in class_ids)
    if blobs_per_scene < 2 or blobs_per_scene > len(class_ids):
        raise ValueError("blobs_per_scene must be between 2 and the palette size")
    rng = np.random.default_rng(seed)
    pool = []
    for _ in range(n_scenes):
        chosen = rng.choice(class_ids, size=blobs_per_scene, replace=False)
        layout = [(int(c), points_per_blob) for c in chosen]
        pool.append(synth_scene(int(rng.integers(0, 2**63 - 1)), layout))
    return pool
