"""How biased double-sampling leaks foreground density, and its closed form.

The biased sampler draws a proportional foreground quota and then fills
the rest from the whole cloud, so foreground points can be picked twice.
For input foreground fraction f that inflates the expected output
fraction to f(2-f). The audit's corrected row, sampler "uniform", is the
point cap episodes are built with (`cap_points`): a uniform draw that
takes no point twice, so it stays at f.
"""

import numpy as np

from pcseg.geometry import PointCloud
from pcseg.sampling import leakage_audit

rng = np.random.default_rng(0)

n, m, trials = 10_000, 2_048, 500
for f in (0.1, 0.2, 0.4):
    labels = np.zeros(n, dtype=np.int64)
    labels[: int(f * n)] = 1
    cloud = PointCloud(rng.uniform(0, 1, (n, 3)), rng.random((n, 3)), labels)

    biased = leakage_audit(cloud, fg_class=1, m=m, sampler="biased", trials=trials, rng_seed=7)
    uniform = leakage_audit(cloud, fg_class=1, m=m, sampler="uniform", trials=trials, rng_seed=7)

    print(f"input foreground fraction f = {f:.2f}")
    print(f"  closed form f(2-f)          = {f * (2 - f):.4f}")
    print(f"  biased sampler (measured)   = {biased.mean_output_fg_fraction:.4f}"
          f"   density ratio x{biased.density_ratio:.2f}")
    print(f"  point cap (measured)        = {uniform.mean_output_fg_fraction:.4f}"
          f"   density ratio x{uniform.density_ratio:.2f}")
    print()

print("The biased sampler hands a segmentation model a density shortcut:")
print("foreground regions are visibly denser, so 'find the dense spot'")
print("substitutes for actual semantic matching. The point cap removes it.")
