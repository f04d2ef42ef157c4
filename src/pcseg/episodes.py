"""Class splits, N-way K-shot episode construction, and IoU counts.

A class split divides the label universe into disjoint train/test halves
by position in the sorted class list. Episode generation draws target
classes, support shots, and one query scene from a pool of clouds, caps
the clouds it uses to a point budget, and builds binary masks plus the query
ground truth (target class n -> label n, everything else -> 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import PointCloud
from .sampling import cap_indices, cap_points, check_max_points


class PoolExhaustedError(RuntimeError):
    """Raised when the pool cannot supply enough eligible clouds for a class."""


@dataclass(frozen=True)
class ClassSplit:
    """Disjoint train/test class id sets."""

    train_classes: tuple[int, ...]
    test_classes: tuple[int, ...]

    def __post_init__(self):
        if not self.train_classes or not self.test_classes:
            raise ValueError("both split halves must be nonempty")
        if set(self.train_classes) & set(self.test_classes):
            raise ValueError("train and test classes must be disjoint")


def make_split(all_classes, fold: int) -> ClassSplit:
    """Split sorted classes by position: fold 0 tests even positions, fold 1 odd."""
    classes = sorted(set(int(c) for c in all_classes))
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes to split, got {len(classes)}")
    if fold not in (0, 1):
        raise ValueError(f"fold must be 0 or 1, got {fold}")
    test = tuple(classes[fold::2])
    train = tuple(c for c in classes if c not in test)
    return ClassSplit(train_classes=train, test_classes=test)


@dataclass
class Episode:
    """One N-way K-shot task.

    `support[n][k]` is the (cloud, mask) pair for shot k of way n;
    `query_gt` holds 0 for background and n for the n-th target class.
    `support_indices` / `query_index` record which pool entries were used,
    and `seed` the seed `generate_episode` built the episode from.
    """

    support: list[list[tuple[PointCloud, np.ndarray]]]
    query: PointCloud
    query_gt: np.ndarray
    target_classes: tuple[int, ...]
    support_indices: list[list[int]] = field(default_factory=list)
    query_index: int = -1
    seed: int = -1


def generate_episode(
    pool,
    classes,
    n_way: int,
    k_shot: int,
    min_fg_points: int,
    m_cap: int,
    rng_seed: int,
) -> Episode:
    """Build one episode from `pool`, its `n_way` targets drawn from
    `classes`, deterministically from `rng_seed`.

    Every pool entry gets its own capping seed. Eligibility (at least
    `min_fg_points` points of a class) is judged on the entry as capped
    to `m_cap` points, so the episode masks are guaranteed to satisfy it;
    only the entries the episode uses are built as capped clouds. Support
    and query entries are distinct within the episode.
    """
    pool = list(pool)
    if n_way < 1 or k_shot < 1:
        raise ValueError("n_way and k_shot must be >= 1")
    if pool:  # the cap is checked even where no entry needs capping
        check_max_points(m_cap)
    rng = np.random.default_rng(rng_seed)
    cap_seeds = rng.integers(0, 2**63 - 1, size=len(pool)).tolist()

    if n_way > len(classes):
        raise ValueError(f"n_way {n_way} exceeds the {len(classes)} classes {sorted(classes)}")
    targets = tuple(int(c) for c in rng.choice(sorted(classes), size=n_way, replace=False))

    capped_labels: dict[int, np.ndarray] = {}

    def eligible(class_id: int) -> list[int]:
        out = []
        for i, cloud in enumerate(pool):
            # Capping only drops points, so a cloud short of the class stays short.
            if np.count_nonzero(cloud.labels == class_id) < min_fg_points:
                continue
            if i not in capped_labels:
                idx = cap_indices(len(cloud), m_cap, cap_seeds[i])
                capped_labels[i] = cloud.labels if idx is None else cloud.labels[idx]
            if np.count_nonzero(capped_labels[i] == class_id) >= min_fg_points:
                out.append(i)
        return out

    eligible_of = {class_id: eligible(class_id) for class_id in targets}

    used: set[int] = set()
    support: list[list[tuple[PointCloud, np.ndarray]]] = []
    support_indices: list[list[int]] = []
    for class_id in targets:
        avail = [i for i in eligible_of[class_id] if i not in used]
        if len(avail) < k_shot:
            raise PoolExhaustedError(
                f"class {class_id}: need {k_shot} support clouds with >= {min_fg_points} "
                f"foreground points, pool offers {len(avail)}"
            )
        picked = [int(i) for i in rng.choice(avail, size=k_shot, replace=False)]
        used.update(picked)
        shots = [cap_points(pool[i], m_cap, cap_seeds[i]) for i in picked]
        support.append([(cloud, cloud.labels == class_id) for cloud in shots])
        support_indices.append(picked)

    query_avail = sorted({i for ids in eligible_of.values() for i in ids} - used)
    if not query_avail:
        raise PoolExhaustedError(
            f"classes {targets}: no unused cloud with >= {min_fg_points} foreground points left for the query"
        )
    query_index = int(rng.choice(query_avail))
    query = cap_points(pool[query_index], m_cap, cap_seeds[query_index])

    return Episode(
        support=support,
        query=query,
        query_gt=class_targets(query.labels, targets),
        target_classes=targets,
        support_indices=support_indices,
        query_index=query_index,
        seed=rng_seed,
    )


def class_targets(labels, class_ids) -> np.ndarray:
    """Map raw labels to targets: n for the n-th of `class_ids` (from 1), else 0."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros_like(labels)
    for n, class_id in enumerate(class_ids, start=1):
        out[labels == class_id] = n
    return out


def confusion_counts(pred, gt, class_of_way) -> dict[int, tuple[int, int, int]]:
    """(TP, FP, FN) per target class id, for associative pooling across episodes."""
    pred = np.asarray(pred, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if pred.shape != gt.shape:
        raise ValueError(f"pred shape {pred.shape} != gt shape {gt.shape}")
    out = {}
    for n, class_id in enumerate(class_of_way, start=1):
        tp = int(((pred == n) & (gt == n)).sum())
        fp = int(((pred == n) & (gt != n)).sum())
        fn = int(((pred != n) & (gt == n)).sum())
        out[int(class_id)] = (tp, fp, fn)
    return out


def iou_from_counts(counts) -> tuple[np.ndarray, float]:
    """IoU of each (TP, FP, FN) triple, NaN where all three are 0, and the
    mean of the others (NaN if there are none)."""
    ious = np.array([tp / (tp + fp + fn) if tp + fp + fn else np.nan for tp, fp, fn in counts], dtype=np.float64)
    present = ious[~np.isnan(ious)]
    return ious, float(present.mean()) if present.size else math.nan
