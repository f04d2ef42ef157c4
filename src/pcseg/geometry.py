"""Point-cloud containers and coordinate-space primitives.

Everything here is a pure function over immutable inputs: voxel-grid
subsampling, horizontal block splitting, farthest point sampling and
nearest-seed clustering. Distances are computed in double precision so
tie-breaking stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EmptyMaskError(ValueError):
    """Raised when an operation needs at least one masked point."""


@dataclass
class PointCloud:
    """A scene or block: per-point positions (meters), colors in [0, 1], labels.

    Labels are integer class ids (>= 0), with -1 for unlabeled points.
    All three arrays share the same leading length N >= 1.
    """

    positions: np.ndarray
    colors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.colors = np.asarray(self.colors, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {self.positions.shape}")
        if self.colors.shape != self.positions.shape:
            raise ValueError(f"colors shape {self.colors.shape} != positions shape {self.positions.shape}")
        n = self.positions.shape[0]
        if n < 1:
            raise ValueError("a point cloud needs at least one point")
        if self.labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {self.labels.shape}")
        if self.labels.min() < -1:
            raise ValueError(f"labels must be >= -1 (-1 marks unlabeled), got {self.labels.min()}")
        if not np.isfinite(self.positions).all():
            raise ValueError("positions must be finite")
        if not np.isfinite(self.colors).all():
            raise ValueError("colors must be finite")
        if self.colors.min() < 0.0 or self.colors.max() > 1.0:
            raise ValueError("colors must lie in [0, 1]")

    def __len__(self) -> int:
        return self.positions.shape[0]

    def take(self, indices) -> "PointCloud":
        """New cloud holding the points at `indices`, in that order."""
        idx = np.asarray(indices, dtype=np.int64)
        return PointCloud(self.positions[idx], self.colors[idx], self.labels[idx])


def _check_mask(mask, n: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"mask must have shape ({n},), got {mask.shape}")
    return mask


def grid_subsample(cloud: PointCloud, grid_size: float) -> PointCloud:
    """Keep one point per occupied voxel of edge `grid_size` (meters).

    The representative is the lowest-index point in each voxel, so labels
    and colors stay attached to a real input point. Output order is
    ascending voxel key (x, then y, then z), which makes the operation
    idempotent. One stable sort of the keys: O(N log N).
    """
    keys = _cell_index(cloud.positions, grid_size, "grid_size")
    # A stable sort keeps equal keys in input order, so the first row of
    # each run of equal keys is the lowest original index in that voxel.
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    return cloud.take(order[_run_starts(keys[order])])


def split_blocks(cloud: PointCloud, block_size: float) -> list[PointCloud]:
    """Partition points into horizontal blocks of `block_size` x `block_size`.

    A point belongs to the cell (floor(x/b), floor(y/b)); z is ignored.
    Empty blocks are omitted; blocks come out in ascending cell order and
    points keep their relative order inside each block. One stable sort
    of the cells: O(N log N).
    """
    cells = _cell_index(cloud.positions[:, :2], block_size, "block_size")
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    starts = np.flatnonzero(_run_starts(cells[order]))
    return [cloud.take(member) for member in np.split(order, starts[1:])]


def _cell_index(coords: np.ndarray, size: float, name: str) -> np.ndarray:
    """floor(coords / size) as int64; ValueError if `size` is not positive
    or puts an index outside int64, where the cast would wrap silently."""
    if size <= 0:
        raise ValueError(f"{name} must be positive, got {size}")
    with np.errstate(over="ignore"):
        cells = np.floor(coords / size)
    if not (cells.min() >= -2.0**63 and cells.max() < 2.0**63):
        raise ValueError(f"{name}={size!r} puts a cell index outside int64")
    return cells.astype(np.int64)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the rows of `sorted_keys` that differ from the row before."""
    starts = np.empty(sorted_keys.shape[0], dtype=bool)
    starts[0] = True
    np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1, out=starts[1:])
    return starts


def farthest_point_sample(cloud, mask, count: int) -> np.ndarray:
    """Greedy max-min seed selection restricted to masked points.

    Starts from the lowest-index masked point and repeatedly picks the
    masked point farthest from the seeds chosen so far (ties go to the
    lowest index). Returns global point indices in selection order; the
    result is clamped to the number of masked points.

    `cloud` may be a PointCloud or a raw (N, 3) coordinate array.
    """
    positions = cloud.positions if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=np.float64)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    mask = _check_mask(mask, positions.shape[0])
    masked = np.flatnonzero(mask)
    if masked.size == 0:
        raise EmptyMaskError("farthest_point_sample needs at least one masked point")
    pts = positions[masked]
    k = min(count, masked.size)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = 0
    # Squared distances preserve the greedy order and avoid sqrt noise.
    d2 = ((pts - pts[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(d2))  # argmax takes the first max: lowest index on ties
        chosen[i] = nxt
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
    return masked[chosen]


def cluster_to_seeds(coords, mask, seeds) -> list[np.ndarray]:
    """Assign every masked point to its nearest seed (Euclidean distance).

    Ties go to the seed that appears earliest in `seeds`. Returns one
    group of global point indices per seed, in seed order; the groups
    partition the masked set and each seed sits in its own group.
    """
    coords = np.asarray(coords, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size == 0:
        raise ValueError("seeds must be nonempty")
    mask = _check_mask(mask, coords.shape[0])
    if not mask[seeds].all():
        raise ValueError("every seed index must be masked")
    masked = np.flatnonzero(mask)
    diff = coords[masked][:, None, :] - coords[seeds][None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    # Pin each seed to its own group even if another seed shares its coordinates.
    pos_in_masked = np.searchsorted(masked, seeds)
    assign[pos_in_masked] = np.arange(seeds.size)
    return [masked[assign == s] for s in range(seeds.size)]
