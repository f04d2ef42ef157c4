"""Tensor kernel: forward values against hand oracles, gradients against
finite differences, and optimizer arithmetic."""

import numpy as np
import pytest

import pcseg.tensor as T
from gradient_oracles import OP_CHECKS, check_op, finite_difference_check
from pcseg.tensor import AdamW, Parameter, Tensor


class TestForwardOracles:
    def test_matmul_identity(self):
        a = Tensor(np.random.default_rng(0).standard_normal((4, 4)))
        out = T.matmul(Tensor(np.eye(4)), a)
        np.testing.assert_allclose(out.data, a.data)

    def test_matmul_zero(self):
        a = Tensor(np.random.default_rng(1).standard_normal((3, 4)))
        out = T.matmul(a, Tensor(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matmul_triple_loop(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((4, 2))
        want = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, want, atol=1e-12)

    def test_concat_axis1_shape(self):
        a = Tensor(np.zeros((4, 1, 8)))
        b = Tensor(np.zeros((4, 1, 8)))
        assert T.concat([a, b], axis=1).shape == (4, 2, 8)

    def test_concat_with_empty(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        empty = Tensor(np.zeros((0, 3)))
        np.testing.assert_array_equal(T.concat([a, empty], axis=0).data, a.data)

    def test_split_concat_round_trip(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 6)))
        left = T.narrow(x, 1, 0, 2)
        right = T.narrow(x, 1, 2, 4)
        np.testing.assert_array_equal(T.concat([left, right], axis=1).data, x.data)

    def test_transpose_involution(self):
        x = Tensor(np.random.default_rng(4).standard_normal((2, 5, 8)))
        np.testing.assert_array_equal(
            T.swap_axes(T.swap_axes(x, 0, 1), 0, 1).data, x.data
        )

    def test_transpose_shape_and_indices(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 8))
        out = T.swap_axes(Tensor(x), 0, 1).data
        assert out.shape == (5, 2, 8)
        for i in range(2):
            for j in range(5):
                for k in range(8):
                    assert out[j, i, k] == x[i, j, k]

    def test_elu_plus_one_values(self):
        x = Tensor(np.array([0.0, 2.5, -20.0]))
        out = T.elu_plus_one(x).data
        assert out[0] == 1.0
        assert out[1] == 3.5
        np.testing.assert_allclose(out[2], np.exp(-20.0), rtol=1e-12)

    def test_elu_plus_one_positive_is_shift(self):
        x = np.random.default_rng(6).uniform(0.01, 5, size=10)
        np.testing.assert_array_equal(T.elu_plus_one(Tensor(x)).data, x + 1.0)

    def test_layer_norm_constant_row(self):
        gain, bias = Tensor(np.ones(4)), Tensor(np.zeros(4))
        out = T.layer_norm(Tensor(np.full((3, 4), 7.0)), gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 32)) * 3 + 1
        out = T.layer_norm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert np.abs(out.mean(axis=1)).max() < 1e-10
        assert np.abs(out.var(axis=1) - 1).max() < 1e-8

    def test_mlp_zero_weights_broadcast_bias(self):
        rng = np.random.default_rng(8)
        params = type("P", (), {})()
        params.w1 = Tensor(np.zeros((4, 5)))
        params.b1 = Tensor(rng.standard_normal(5))
        params.w2 = Tensor(np.zeros((5, 3)))
        params.b2 = Tensor(rng.standard_normal(3))
        out = T.mlp_forward(Tensor(rng.standard_normal((6, 4))), params).data
        np.testing.assert_allclose(out, np.broadcast_to(params.b2.data, (6, 3)))

    def test_mlp_identity_configuration_passes_through(self):
        # offset keeps every pre-activation positive, where elu is exact identity
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(5, 4))
        params = type("P", (), {})()
        params.w1 = Tensor(np.eye(4))
        params.b1 = Tensor(np.full(4, 10.0))
        params.w2 = Tensor(np.eye(4))
        params.b2 = Tensor(np.full(4, -10.0))
        np.testing.assert_allclose(T.mlp_forward(Tensor(x), params).data, x, atol=1e-12)

    def test_cosine_self_is_one(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((1, 6))
        out = T.cosine_rows(Tensor(a), Tensor(a.copy())).data
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_cosine_orthogonal_is_zero(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        b = Tensor(np.array([[0.0, 1.0]]))
        np.testing.assert_allclose(T.cosine_rows(a, b).data, 0.0, atol=1e-15)

    def test_cosine_matches_scalar_formula(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
        got = T.cosine_rows(Tensor(a), Tensor(b)).data
        for i in range(3):
            for j in range(2):
                want = a[i] @ b[j] / (np.linalg.norm(a[i]) * np.linalg.norm(b[j]))
                np.testing.assert_allclose(got[i, j], want, atol=1e-12)

    def test_cosine_bounded(self):
        rng = np.random.default_rng(12)
        out = T.cosine_rows(
            Tensor(rng.standard_normal((20, 8)) * 10), Tensor(rng.standard_normal((15, 8)) * 0.1)
        ).data
        assert out.min() >= -1.0 - 1e-12 and out.max() <= 1.0 + 1e-12

    def test_cosine_zero_vector_guard(self):
        a = Tensor(np.zeros((1, 4)))
        b = Tensor(np.random.default_rng(13).standard_normal((3, 4)))
        np.testing.assert_array_equal(T.cosine_rows(a, b).data, np.zeros((1, 3)))

    def test_max_pool_single_column(self):
        x = np.random.default_rng(14).standard_normal((5, 1))
        np.testing.assert_array_equal(T.max_pool_rows(Tensor(x)).data, x[:, 0])

    def test_max_pool_uniform_row(self):
        np.testing.assert_array_equal(
            T.max_pool_rows(Tensor(np.full((3, 4), 2.5))).data, np.full(3, 2.5)
        )

    def test_max_pool_matches_scan(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((7, 9))
        want = np.array([max(row) for row in x])
        np.testing.assert_array_equal(T.max_pool_rows(Tensor(x)).data, want)

    def test_cross_entropy_uniform_logits(self):
        out = T.cross_entropy(Tensor(np.zeros((5, 2))), np.array([0, 1, 0, 1, 1]))
        np.testing.assert_allclose(float(out.data), np.log(2.0), rtol=1e-12)

    def test_cross_entropy_confident_correct(self):
        logits = np.full((4, 3), -50.0)
        targets = np.array([0, 1, 2, 1])
        logits[np.arange(4), targets] = 50.0
        assert float(T.cross_entropy(Tensor(logits), targets).data) < 1e-12

    def test_cross_entropy_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            logits = Tensor(rng.standard_normal((6, 4)) * 3)
            targets = rng.integers(0, 4, size=6)
            assert float(T.cross_entropy(logits, targets).data) >= 0.0


class TestGradients:
    @pytest.mark.parametrize("name,builder", OP_CHECKS, ids=[n for n, _ in OP_CHECKS])
    def test_op_passes_finite_differences(self, name, builder):
        assert check_op(builder, seed=123, trials=10) < 1e-4

    def test_linear_op_error_tiny(self):
        rng = np.random.default_rng(20)
        err = finite_difference_check(
            lambda a, b: T.matmul(a, b),
            [Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((3, 5)))],
            rng=rng,
        )
        assert err < 1e-8

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(21)
        broken = lambda t: Tensor(t.data * 2.0, (t,), lambda g: (g * 2.2,))
        err = finite_difference_check(broken, [Tensor(rng.standard_normal((4, 4)))], rng=rng)
        assert err > 1e-2

    def test_varied_shapes(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n, m, d = (int(rng.integers(1, 7)) for _ in range(3))
            err = finite_difference_check(
                T.cosine_rows,
                [Tensor(rng.standard_normal((n, d + 1))), Tensor(rng.standard_normal((m, d + 1)))],
                rng=rng,
            )
            assert err < 1e-4

    def test_three_d_affine_passes_finite_differences(self):
        rng = np.random.default_rng(23)
        x, w, b = (Tensor(rng.standard_normal(s)) for s in ((2, 5, 4), (4, 3), (3,)))
        assert finite_difference_check(T.affine, [x, w, b], rng=rng) < 1e-8

    @pytest.mark.parametrize("shape", [(5, 4), (2, 5, 4)])
    def test_affine_records_one_node(self, shape):
        rng = np.random.default_rng(24)
        x, w, b = (Parameter(rng.standard_normal(s), n) for s, n in ((shape, "x"), ((4, 3), "w"), ((3,), "b")))
        out = T.affine(x, w, b)
        assert out.shape == shape[:-1] + (3,)
        assert out._backward is not None and len(out._parents) == 3
        assert all(p is q for p, q in zip(out._parents, (x, w, b)))

    def test_fanout_accumulation(self):
        # x used twice: gradient must sum both paths (d/dx of x*x + x = 2x + 1)
        x = Tensor(np.array([3.0]))
        out = T.add(T.mul(x, x), x)
        out.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, np.array([7.0]))


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_matches_hand_computation(self):
        # quadratic f(w) = w^2 / 2 at w = 3: gradient 3
        w = Parameter(np.array([3.0]), "w")
        opt = AdamW([w], lr=0.01, weight_decay=0.0)
        w.grad = np.array([3.0])
        opt.step()
        mhat = 3.0  # (1-b1)*g / (1-b1)
        vhat = 9.0  # (1-b2)*g^2 / (1-b2)
        want = 3.0 - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        np.testing.assert_allclose(w.data, [want], rtol=1e-12)

    def test_decay_only_shrinks(self):
        p = Parameter(np.array([2.0]), "p")
        opt = AdamW([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_allclose(p.data, [2.0 * (1 - 0.1 * 0.5)], rtol=1e-12)

    def test_adamw_step_function(self):
        w = Parameter(np.array([1.0]), "w")
        opt = AdamW([w], lr=0.05, weight_decay=0.0)
        w.grad = np.array([2.0])
        opt.step()
        np.testing.assert_allclose(w.data, [1.0 - 0.05 * 2.0 / (2.0 + 1e-8)], rtol=1e-10)


class TestGraphLifetime:
    def _graph(self):
        x = Tensor(np.array([1.5, -2.0]))
        w = Parameter(np.array([0.5, 3.0]), "w")
        hidden = T.mul(x, w)
        return x, w, hidden, T.sum_axis(T.elu(hidden), 0)

    def test_no_grad_records_no_graph(self):
        x = Tensor(np.ones(3))
        with T.no_grad():
            out = T.mul(T.add(x, x), Tensor(2.0))
        assert out._backward is None and out._parents == ()
        np.testing.assert_array_equal(out.data, np.full(3, 4.0))
        assert T.add(x, x)._backward is not None

    def test_no_grad_nests_and_survives_an_exception(self):
        x = Tensor(np.ones(2))
        with pytest.raises(RuntimeError):
            with T.no_grad():
                with T.no_grad():
                    pass
                assert T.add(x, x)._backward is None  # the inner block restored "off"
                raise RuntimeError("boom")
        assert T.add(x, x)._backward is not None

    def test_no_grad_result_is_a_constant_in_a_later_graph(self):
        w = Parameter(np.array([2.0]), "w")
        with T.no_grad():
            frozen = T.mul(w, w)
        out = T.mul(frozen, w)
        out.backward(np.ones(1))
        np.testing.assert_array_equal(w.grad, np.array([4.0]))  # d(frozen * w)/dw, frozen held fixed

    def test_backward_frees_interior_nodes_and_keeps_leaf_grads(self):
        x, w, hidden, out = self._graph()
        out.backward()
        for node in (hidden, out):
            assert node._backward is None and node._parents is None and node.grad is None
        np.testing.assert_allclose(w.grad, [1.5, np.exp(-6.0) * -2.0])
        np.testing.assert_allclose(x.grad, [0.5, np.exp(-6.0) * 3.0])

    def test_second_backward_raises_and_touches_no_gradient(self):
        x, w, _, out = self._graph()
        out.backward()
        before = w.grad.copy()
        with pytest.raises(ValueError, match="freed"):
            out.backward()
        assert w.grad.tobytes() == before.tobytes()

    def test_new_graph_through_a_freed_node_raises(self):
        _, w, hidden, out = self._graph()
        out.backward()
        before = w.grad.copy()
        again = T.mul(hidden, w)
        with pytest.raises(ValueError, match="freed"):
            again.backward(np.ones(2))
        assert w.grad.tobytes() == before.tobytes()

    def test_leaf_root_keeps_its_grad(self):
        w = Parameter(np.array([1.0]), "w")
        w.backward()
        w.backward()
        np.testing.assert_array_equal(w.grad, np.array([2.0]))
