"""Linear attention vs softmax attention: agreement and scaling.

The kernel phi(x) = elu(x) + 1 replaces the exponential similarity, and
reassociating the matrix products turns the O(N^2 D) attention into
O(N D^2). The two association orders agree to floating-point noise; the
softmax form is kept as a well-understood oracle.
"""

import time

import numpy as np

from pcseg.attention import linear_attention, standard_attention
from pcseg.tensor import Tensor

rng = np.random.default_rng(0)

print("agreement of the two association orders (same kernel, same math):")
for n in (8, 64, 256):
    q, k, v = (Tensor(rng.standard_normal((n, 32))) for _ in range(3))
    fast = linear_attention(q, k, v).data
    fq, fk = (np.where(t.data > 0, t.data + 1.0, np.exp(np.minimum(t.data, 0.0))) for t in (q, k))
    w = fq @ fk.T  # the N x N kernel matrix, phi = elu + 1
    slow = (w @ v.data) / w.sum(axis=1, keepdims=True)
    print(f"  N={n:4d}: max |reassociated - quadratic| = {np.abs(fast - slow).max():.2e}")

print("\nsoftmax attention against its direct formula:")
q, k, v = (Tensor(rng.standard_normal((50, 16))) for _ in range(3))
w = np.exp(q.data @ k.data.T / np.sqrt(16))
oracle = (w / w.sum(axis=1, keepdims=True)) @ v.data
print(f"  max abs diff = {np.abs(standard_attention(q, k, v).data - oracle).max():.2e}")

print("\nwall-clock scaling with token count (D = 32):")
print(f"  {'N':>6}  {'linear (ms)':>12}  {'softmax (ms)':>13}")
for n in (256, 1024, 4096):
    q, k, v = (Tensor(rng.standard_normal((n, 32))) for _ in range(3))
    t0 = time.perf_counter()
    linear_attention(q, k, v)
    t1 = time.perf_counter()
    standard_attention(q, k, v)
    t2 = time.perf_counter()
    print(f"  {n:>6}  {1e3 * (t1 - t0):>12.2f}  {1e3 * (t2 - t1):>13.2f}")
print("\nthe linear form grows with N, the softmax form with N^2.")
