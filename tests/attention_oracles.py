"""Reference attention forms, and the three ops only they use, that the tests
compare against; the model runs none of them."""

import numpy as np

from pcseg import tensor as T
from pcseg.tensor import Tensor, _unbroadcast


def einsum(subscripts: str, a: Tensor, b: Tensor) -> Tensor:
    """Binary einsum with gradients obtained by swapping subscripts.

    Valid for plain contractions and reductions (no repeated labels
    inside one operand), which covers every use in this package.
    """
    lhs, out_sub = subscripts.split("->")
    a_sub, b_sub = lhs.split(",")
    ad, bd = a.data, b.data
    data = np.einsum(subscripts, ad, bd)

    def backward(g):
        ga = np.einsum(f"{out_sub},{b_sub}->{a_sub}", g, bd)
        gb = np.einsum(f"{a_sub},{out_sub}->{b_sub}", ad, g)
        return ga, gb

    return Tensor(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        ),
    )


def softmax_rows(t: Tensor) -> Tensor:
    """Softmax over the last axis (max-shifted for stability)."""
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return Tensor(y, (t,), backward)


def _check_qkv(q: Tensor, k: Tensor, v: Tensor):
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"q, k, v must share one (N, D) shape, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[0] < 1:
        raise ValueError("attention needs at least one token")


def standard_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Softmax attention: row i gets sum_j softmax_j(q_i k_j^T / sqrt(D)) v_j."""
    _check_qkv(q, k, v)
    dim = q.shape[1]
    scores = mul(einsum("nd,md->nm", q, k), Tensor(1.0 / np.sqrt(dim)))
    return einsum("nm,md->nd", softmax_rows(scores), v)


def linear_attention_quadratic(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Kernel attention in the O(N^2 D) order, by einsum, on (..., N, D)
    stacks of raw q, k and v: phi = elu + 1 is applied here."""
    fq = T.elu_plus_one(q)
    fk = T.elu_plus_one(k)
    weights = einsum("...nd,...md->...nm", fq, fk)
    ones = Tensor(np.ones(k.shape[-2]))
    num = einsum("...nm,...md->...nd", weights, v)
    den = T.clamp_min(einsum("...nm,m->...n", weights, ones), 1e-12)
    return T.div(num, T.reshape(den, q.shape[:-1] + (1,)))
