"""Elu-kernel linear attention, multi-head.

`kernel_attention` replaces the softmax similarity exp(q k^T / sqrt(D))
with the kernel phi(q) phi(k)^T, phi(x) = elu(x) + 1, and can
reassociate the products so the cost is O(N D^2) instead of O(N^2 D).
The kernel form carries no sqrt(D) scaling. The multi-head wrapper
projects, splits heads along the channel axis, and treats the leading
axis as an independent batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Parameter, ParameterGroup, Tensor

_DEN_FLOOR = 1e-12


@dataclass
class AttentionParams(ParameterGroup):
    """Projection weights for one multi-head attention layer."""

    w_q: Parameter
    w_k: Parameter
    w_v: Parameter
    w_o: Parameter
    head_count: int

    def __post_init__(self):
        dim = self.w_q.shape[0]
        for w in (self.w_q, self.w_k, self.w_v, self.w_o):
            if w.shape != (dim, dim):
                raise ValueError(f"projections must all be ({dim}, {dim}), got {w.shape}")
        if dim % self.head_count != 0:
            raise ValueError(f"head_count {self.head_count} does not divide dim {dim}")

    @classmethod
    def create(cls, rng: np.random.Generator, dim: int, head_count: int, prefix: str) -> "AttentionParams":
        def proj(name):
            return Parameter(T.glorot_uniform(rng, dim, dim), f"{prefix}.{name}")

        return cls(proj("w_q"), proj("w_k"), proj("w_v"), proj("w_o"), head_count)


def kernel_attention(fq: Tensor, fk: Tensor, v: Tensor, reassociated: bool) -> Tensor:
    """Normalized kernel attention on (B, H, N, Dh) stacks of phi(q),
    phi(k) and v.

    The two association orders are algebraically identical; `reassociated`
    picks the O(N Dh^2) one, otherwise the O(N^2 Dh) score matrix is
    formed (cheaper when the token axis is short). Denominators are
    floored at 1e-12. This guards underflow: phi(x) = exp(x) for x <= 0
    is 0 below about -745, so a denominator can be 0. The floor does
    nothing for an infinite denominator.
    """
    if reassociated:
        summary = T.matmul(T.swap_axes(fk, -1, -2), v)
        key_total = T.sum_axis(fk, axis=2)
        num = T.matmul(fq, summary)
        den = T.matmul(fq, T.swap_axes(key_total, -1, -2))
    else:
        scores = T.matmul(fq, T.swap_axes(fk, -1, -2))
        num = T.matmul(scores, v)
        den = T.sum_axis(scores, axis=-1)
    return T.div(num, T.clamp_min(den, _DEN_FLOOR))


def multi_head_linear_attention(x: Tensor, params: AttentionParams) -> Tensor:
    """Project, split heads, run linear attention per (batch, head), merge.

    `x` is B x N x D: each slice along the first axis is an independent
    token sequence. Heads are consecutive channel blocks of width
    D / head_count. The association order is chosen per call: the
    reassociated form when the token axis is long, the score-matrix form
    when it is short; the two agree by associativity.
    """
    if x.ndim != 3:
        raise ValueError(f"expected a B x N x D tensor, got shape {x.shape}")
    b, n, dim = x.shape
    h = params.head_count
    dh = dim // h
    flat = T.reshape(x, (b * n, dim))

    def split(w):
        # (B*N, D) @ (D, D) -> (B, H, N, Dh): heads are channel blocks
        return T.swap_axes(T.reshape(T.matmul(flat, w), (b, n, h, dh)), 1, 2)

    fq = T.elu_plus_one(split(params.w_q))
    fk = T.elu_plus_one(split(params.w_k))
    v4 = split(params.w_v)
    out = kernel_attention(fq, fk, v4, reassociated=n > dh)
    merged = T.reshape(T.swap_axes(out, 1, 2), (b * n, dim))
    return T.reshape(T.matmul(merged, params.w_o), (b, n, dim))
