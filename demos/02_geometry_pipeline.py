"""Scene preprocessing, step by step: voxel dedup, blocks, seeds, clusters.

This is the exact path a scene takes before an episode sees it, plus the
farthest-point seeding and nearest-seed clustering that turn a masked
region into prototype groups.
"""

import numpy as np

from pcseg.geometry import cluster_to_seeds, farthest_point_sample, grid_subsample, split_blocks
from pcseg.synth import synth_scene

scene = synth_scene(11, [(1, 800), (2, 800), (3, 800)])
print(f"raw scene: {len(scene)} points, classes {sorted(np.unique(scene.labels).tolist())}")

sub = grid_subsample(scene, grid_size=0.02)
print(f"after 0.02 m voxel subsample: {len(sub)} points "
      f"({len(scene) - len(sub)} removed as voxel duplicates)")

blocks = split_blocks(sub, block_size=1.0)
print(f"split into {len(blocks)} block(s) of sizes {[len(b) for b in blocks]}")

block = max(blocks, key=len)
mask = block.labels == 1
print(f"\nclass 1 has {mask.sum()} points in the main block")

seeds = farthest_point_sample(block.positions, mask, count=8)
print(f"8 farthest-point seeds (selection order): {seeds.tolist()}")

gaps = []
for k in range(1, len(seeds)):
    gaps.append(min(
        float(np.linalg.norm(block.positions[seeds[k]] - block.positions[j]))
        for j in seeds[:k]
    ))
print("greedy min-distance per new seed (monotone non-increasing):")
print("  " + "  ".join(f"{g:.3f}" for g in gaps))

groups = cluster_to_seeds(block.positions, mask, seeds)
print(f"\nnearest-seed clustering -> group sizes {[len(g) for g in groups]}")
print(f"groups cover the masked set exactly: "
      f"{sorted(int(i) for g in groups for i in g) == sorted(np.flatnonzero(mask).tolist())}")
print("each group's mean feature becomes one prototype for the class.")
