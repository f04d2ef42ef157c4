"""Attention: softmax oracle, kernel-order agreement, equivariance, memory."""

import tracemalloc

import numpy as np
import pytest

from attention_oracles import standard_attention
from pcseg import tensor as T
from pcseg.attention import AttentionParams, kernel_attention, multi_head_linear_attention
from pcseg.tensor import Parameter, Tensor

ORDERS = (True, False)  # kernel_attention's `reassociated`: both orders the model runs


def qkv(rng, n, d, scale=1.0):
    return [Tensor(rng.standard_normal((n, d)) * scale) for _ in range(3)]


def kernel(q, k, v, reassociated):
    """`kernel_attention` on one (N, D) sequence of raw q, k and v."""
    lift = lambda t: T.reshape(t, (1, 1) + t.shape)
    out = kernel_attention(T.elu_plus_one(lift(q)), T.elu_plus_one(lift(k)), lift(v), reassociated)
    return out.data[0, 0]


def elu_kernel_oracle(q, k, v):
    """Quadratic-order kernel attention computed row by row in plain numpy."""
    phi = lambda x: np.where(x > 0, x + 1.0, np.exp(x))
    fq, fk = phi(q), phi(k)
    out = np.zeros_like(v)
    for i in range(q.shape[0]):
        w = fq[i] @ fk.T
        out[i] = (w[:, None] * v).sum(axis=0) / w.sum()
    return out


class TestStandardAttention:
    def test_single_token_returns_value(self):
        rng = np.random.default_rng(0)
        q, k, v = qkv(rng, 1, 6)
        np.testing.assert_allclose(standard_attention(q, k, v).data, v.data, atol=1e-14)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.standard_normal((4, 5)))
        k = Tensor(np.tile(rng.standard_normal(5), (4, 1)))
        v = Tensor(rng.standard_normal((4, 5)))
        out = standard_attention(q, k, v).data
        np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (4, 1)), atol=1e-12)

    def test_output_in_value_convex_hull(self):
        rng = np.random.default_rng(3)
        q, k, v = qkv(rng, 8, 6)
        out = standard_attention(q, k, v).data
        lo, hi = v.data.min(axis=0), v.data.max(axis=0)
        assert (out >= lo - 1e-12).all() and (out <= hi + 1e-12).all()

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        q, k, _ = qkv(rng, 5, 4)
        with pytest.raises(ValueError):
            standard_attention(q, k, Tensor(rng.standard_normal((5, 3))))


class TestLinearAttention:
    def test_single_token_returns_value(self):
        rng = np.random.default_rng(5)
        q, k, v = qkv(rng, 1, 6)
        for order in ORDERS:
            np.testing.assert_allclose(kernel(q, k, v, order), v.data, atol=1e-14)

    def test_matches_rowwise_oracle(self):
        rng = np.random.default_rng(7)
        q, k, v = qkv(rng, 10, 5)
        want = elu_kernel_oracle(q.data, k.data, v.data)
        for order in ORDERS:
            np.testing.assert_allclose(kernel(q, k, v, order), want, atol=1e-10)

    def test_duplicate_tokens_duplicate_outputs(self):
        rng = np.random.default_rng(8)
        q, k, v = qkv(rng, 6, 4)
        q.data[3] = q.data[1]
        for order in ORDERS:
            out = kernel(q, k, v, order)
            np.testing.assert_allclose(out[3], out[1], atol=1e-14)

    def test_denominator_positive(self):
        rng = np.random.default_rng(9)
        q, k, v = qkv(rng, 12, 6, scale=5.0)
        fq = np.where(q.data > 0, q.data + 1, np.exp(q.data))
        fk = np.where(k.data > 0, k.data + 1, np.exp(k.data))
        den = fq @ fk.sum(axis=0)
        assert (den > 0).all()
        for order in ORDERS:
            assert np.isfinite(kernel(q, k, v, order)).all()

    def test_keys_whose_phi_underflows_give_zeros(self):
        # phi(-1000) = exp(-1000) is exactly 0.0, so every numerator and
        # denominator is 0: the 1e-12 floor makes 0/0 a 0, not a NaN.
        rng = np.random.default_rng(12)
        q, _, v = qkv(rng, 6, 4)
        k = Tensor(np.full((6, 4), -1000.0))
        for order in ORDERS:
            np.testing.assert_array_equal(kernel(q, k, v, order), np.zeros((6, 4)))

    def test_token_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        q, k, v = qkv(rng, 20, 8)
        perm = rng.permutation(20)
        for order in ORDERS:
            base = kernel(q, k, v, order)
            permuted = kernel(Tensor(q.data[perm]), Tensor(k.data[perm]), Tensor(v.data[perm]), order)
            np.testing.assert_allclose(permuted, base[perm], atol=1e-12)

    def test_reassociated_order_forms_no_token_square(self):
        # At N = 4,096 tokens of Dh = 32, one N x N float64 array is 134 MB:
        # the score-matrix order forms it, the reassociated order stays far below.
        rng = np.random.default_rng(18)
        n = 4_096
        q, k, v = (Tensor(rng.standard_normal((1, 1, n, 32))) for _ in range(3))
        peaks = {}
        with T.no_grad():
            fq, fk = T.elu_plus_one(q), T.elu_plus_one(k)
            for order in ORDERS:
                tracemalloc.start()
                try:
                    kernel_attention(fq, fk, v, order)
                    peaks[order] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        square = n * n * 8
        assert peaks[True] < square / 16 and peaks[False] >= square, peaks

    def test_standard_attention_equivariance(self):
        rng = np.random.default_rng(11)
        q, k, v = qkv(rng, 16, 6)
        perm = rng.permutation(16)
        base = standard_attention(q, k, v).data
        permuted = standard_attention(
            Tensor(q.data[perm]), Tensor(k.data[perm]), Tensor(v.data[perm])
        ).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


class TestMultiHead:
    def _identity_params(self, d):
        eye = lambda name: Parameter(np.eye(d), name)
        return AttentionParams(eye("q"), eye("k"), eye("v"), eye("o"), head_count=1)

    def test_single_head_identity_equals_linear_attention(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((1, 40, 8)))
        params = self._identity_params(8)
        got = multi_head_linear_attention(x, params).data[0]
        t = Tensor(x.data[0])
        for order in ORDERS:
            np.testing.assert_allclose(got, kernel(t, t, t, order), atol=1e-9)

    def test_short_token_axis_same_result(self):
        # the wrapper switches association order for short sequences;
        # both orders must agree. Distinct q and k projections keep the
        # score matrix asymmetric, so a transposed one shows.
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 3, 8)))
        params = AttentionParams.create(rng, 8, 1, "attn")
        got = multi_head_linear_attention(x, params).data
        for b in range(2):
            q, k, v = (Tensor(x.data[b] @ w.data) for w in (params.w_q, params.w_k, params.w_v))
            for order in ORDERS:
                np.testing.assert_allclose(got[b], kernel(q, k, v, order) @ params.w_o.data, atol=1e-9)

    def test_batch_slices_independent(self):
        rng = np.random.default_rng(14)
        slice_ = rng.standard_normal((7, 8))
        x = Tensor(np.stack([slice_, slice_]))
        params = AttentionParams.create(rng, 8, 2, "attn")
        out = multi_head_linear_attention(x, params).data
        np.testing.assert_allclose(out[0], out[1], atol=1e-13)

    def test_token_permutation_within_slice(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.standard_normal((3, 12, 8)))
        params = AttentionParams.create(rng, 8, 2, "attn")
        base = multi_head_linear_attention(x, params).data
        perm = rng.permutation(12)
        permuted = multi_head_linear_attention(Tensor(x.data[:, perm]), params).data
        np.testing.assert_allclose(permuted, base[:, perm], atol=1e-11)

    def test_indivisible_heads_rejected(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError):
            AttentionParams.create(rng, 8, 3, "attn")

    def test_head_blocks_are_contiguous_channels(self):
        # With block-diagonal value/output projections, each head only
        # mixes its own channel block.
        rng = np.random.default_rng(17)
        d, h = 8, 2
        x = Tensor(rng.standard_normal((1, 9, d)))
        params = AttentionParams(
            Parameter(np.eye(d), "q"),
            Parameter(np.eye(d), "k"),
            Parameter(np.eye(d), "v"),
            Parameter(np.eye(d), "o"),
            head_count=h,
        )
        got = multi_head_linear_attention(x, params).data[0]
        phi = lambda a: np.where(a > 0, a + 1.0, np.exp(a))
        for head in range(h):
            cols = slice(head * d // h, (head + 1) * d // h)
            fq, fk = phi(x.data[0][:, cols]), phi(x.data[0][:, cols])
            v = x.data[0][:, cols]
            w = fq @ fk.T
            want = (w @ v) / w.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(got[:, cols], want, atol=1e-9)
