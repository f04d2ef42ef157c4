"""Kernel attention in its two association orders: agreement and scaling.

The kernel phi(x) = elu(x) + 1 replaces the exponential similarity of
softmax attention. `kernel_attention` either forms the N x N score matrix
phi(q) phi(k)^T, at O(N^2 D), or reassociates the products to
phi(q) (phi(k)^T v), at O(N D^2). The model picks the order per call, by
whether the token axis is longer than a head's width: point attention
runs the reassociated order and class attention the score-matrix one.
The two orders agree to floating-point noise.
"""

import time

import numpy as np

from pcseg import tensor as T
from pcseg.attention import kernel_attention
from pcseg.tensor import Tensor

rng = np.random.default_rng(0)


def stacks(n, dh=32):
    """phi(q), phi(k) and v for one (1, 1, N, Dh) sequence."""
    q, k, v = (Tensor(rng.standard_normal((1, 1, n, dh))) for _ in range(3))
    return T.elu_plus_one(q), T.elu_plus_one(k), v


with T.no_grad():
    print("agreement of the two association orders (same kernel, same math):")
    for n in (3, 64, 512):
        fq, fk, v = stacks(n)
        fast = kernel_attention(fq, fk, v, reassociated=True).data
        slow = kernel_attention(fq, fk, v, reassociated=False).data
        print(f"  N={n:4d}: max |reassociated - score matrix| = {np.abs(fast - slow).max():.2e}")

    print("\nwall-clock scaling with token count (Dh = 32):")
    print(f"  {'N':>6}  {'reassociated (ms)':>18}  {'score matrix (ms)':>18}")
    for n in (256, 1024, 4096):
        fq, fk, v = stacks(n)
        t0 = time.perf_counter()
        kernel_attention(fq, fk, v, reassociated=True)
        t1 = time.perf_counter()
        kernel_attention(fq, fk, v, reassociated=False)
        t2 = time.perf_counter()
        print(f"  {n:>6}  {1e3 * (t1 - t0):>18.2f}  {1e3 * (t2 - t1):>18.2f}")
print("\nthe reassociated order grows with N, the score-matrix order with N^2.")
