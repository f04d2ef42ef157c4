"""Desk-scale few-shot point cloud segmentation lab.

A numpy-backed library for episodic few-shot segmentation experiments:
geometry primitives (voxel subsampling, block splitting, farthest point
sampling, clustering), the double sampler and the point cap with a
density audit, N-way K-shot episode machinery with mIoU scoring, a small
autodiff tensor kernel, linear attention, and a prototype-correlation
model with momentum-learned background calibration.
"""
