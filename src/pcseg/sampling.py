"""Point samplers and the foreground-density audit.

Two samplers. `biased_sample` is the double sampler: it draws a
proportional quota from the foreground set and then the remainder from
the whole cloud, so foreground points can be drawn twice and end up
denser in the output. `cap_points`, the point cap episodes are built
with, is the corrected sampler: it never draws a point twice.
`leakage_audit` measures the disparity by Monte Carlo and, for the
biased sampler, against the closed-form expectation f(2-f).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .config import format_pairs
from .geometry import PointCloud


@dataclass
class DensityReport:
    """Foreground-density statistics for one sampler on one cloud."""

    input_fg_fraction: float
    mean_output_fg_fraction: float
    expected_biased_fraction: float
    density_ratio: float
    trials: int

    def to_text(self) -> str:
        """Flat key=value block, one line per field."""
        return format_pairs(asdict(self).items())


def biased_fg_count(n: int, m: int, n_fg_points: int) -> int:
    """Foreground quota of the biased sampler: |P_fg| when n < m, else floor(m*|P_fg|/n)."""
    if n < m:
        return n_fg_points
    return (m * n_fg_points) // n


def biased_sample(cloud: PointCloud, m: int, fg_class: int, rng_seed: int) -> PointCloud:
    """Draw m points with the foreground double-sampled.

    A quota of foreground points is drawn (without replacement) from the
    points labeled `fg_class`; the remaining points are drawn from the
    entire cloud, foreground included. The two draws are concatenated as
    a multiset, so foreground points may appear twice -- that duplication
    is exactly what inflates foreground density.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = len(cloud)
    rng = np.random.default_rng(rng_seed)
    fg_idx = np.flatnonzero(cloud.labels == fg_class)
    n_fg = biased_fg_count(n, m, fg_idx.size)
    res1 = rng.choice(fg_idx, size=n_fg, replace=False) if n_fg > 0 else np.empty(0, dtype=np.int64)
    rest = m - n_fg
    res2 = rng.choice(n, size=rest, replace=rest > n) if rest > 0 else np.empty(0, dtype=np.int64)
    return cloud.take(np.concatenate([res1, res2]))


def check_max_points(max_points: int) -> None:
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")


def cap_indices(n: int, max_points: int, rng_seed: int):
    """The points `cap_points` keeps of an n-point cloud: None for all of
    them, else the indices of a uniform draw of `max_points`."""
    check_max_points(max_points)
    if n <= max_points:
        return None
    return np.random.default_rng(rng_seed).choice(n, size=max_points, replace=False)


def cap_points(cloud: PointCloud, max_points: int, rng_seed: int) -> PointCloud:
    """Identity when the cloud fits, else a uniform draw of `max_points`."""
    idx = cap_indices(len(cloud), max_points, rng_seed)
    return cloud if idx is None else cloud.take(idx)


def leakage_audit(cloud: PointCloud, fg_class: int, m: int, sampler: str, trials: int, rng_seed: int) -> DensityReport:
    """Run a sampler `trials` times and report mean output foreground fraction.

    Trial t uses seed rng_seed + t, so audits are reproducible. The
    `"uniform"` row is `cap_points`, the cap episodes are built with. The
    expected fraction follows the biased sampler's quota rule (the input
    fraction for the cap); for n >= m it reduces to f(2-f).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    n = len(cloud)
    n_fg_points = int((cloud.labels == fg_class).sum())
    f_in = n_fg_points / n
    if sampler == "biased":
        draw = partial(biased_sample, cloud, m, fg_class)
        n_fg = biased_fg_count(n, m, n_fg_points)
        expected = (n_fg + (m - n_fg) * f_in) / m
    elif sampler == "uniform":
        draw = partial(cap_points, cloud, m)
        expected = f_in
    else:
        raise ValueError(f"sampler must be one of ['biased', 'uniform'], got {sampler!r}")

    fractions = np.array([(draw(rng_seed + t).labels == fg_class).mean() for t in range(trials)])
    # A cloud of at most m points passes the cap whole: f_in, not a mean of copies.
    mean_out = f_in if sampler == "uniform" and n <= m else float(fractions.mean())
    ratio = mean_out / f_in if f_in > 0 else 0.0
    return DensityReport(
        input_fg_fraction=f_in,
        mean_output_fg_fraction=mean_out,
        expected_biased_fraction=float(expected),
        density_ratio=float(ratio),
        trials=trials,
    )
