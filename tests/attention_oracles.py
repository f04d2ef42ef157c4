"""Reference attention forms that only the tests compare against."""

import numpy as np

from pcseg import tensor as T
from pcseg.attention import _DEN_FLOOR, _check_qkv
from pcseg.tensor import Tensor


def linear_attention_quadratic(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """`linear_attention`'s kernel attention in the O(N^2 D) order."""
    _check_qkv(q, k, v)
    fq = T.elu_plus_one(q)
    fk = T.elu_plus_one(k)
    weights = T.einsum("nd,md->nm", fq, fk)
    ones = Tensor(np.ones(k.shape[0]))
    num = T.einsum("nm,md->nd", weights, v)
    den = T.clamp_min(T.einsum("nm,m->n", weights, ones), _DEN_FLOOR)
    return T.div(num, T.reshape(den, (q.shape[0], 1)))
