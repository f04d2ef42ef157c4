"""Tensor kernel: forward values against hand oracles, gradients against
finite differences, graph lifetime and optimizer arithmetic.

Where `test_bit_identity.py` pins an op's forward values byte for byte,
against a reference that writes its epsilons as literals, no hand oracle
here restates it."""

import tracemalloc
import weakref

import numpy as np
import pytest

import pcseg.model as M
import pcseg.tensor as T
from attention_oracles import mul
from experiments import TOY_CONFIG
from gradient_oracles import finite_difference_check
from pcseg.episodes import make_split
from pcseg.tensor import AdamW, Parameter, Tensor


class TestForwardOracles:
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

    def test_transpose_shape_and_indices(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 5, 8))
        out = T.swap_axes(Tensor(x), 0, 1).data
        assert out.shape == (5, 2, 8)
        for i in range(2):
            for j in range(5):
                for k in range(8):
                    assert out[j, i, k] == x[i, j, k]

    def test_transpose_first_two_is_a_c_ordered_swap(self):
        x = Tensor(np.random.default_rng(6).standard_normal((2, 5, 8)))
        out = T.transpose_first_two(x)
        assert out.data.flags.c_contiguous
        assert out.data.tobytes() == np.ascontiguousarray(T.swap_axes(x, 0, 1).data).tobytes()
        g = np.random.default_rng(7).standard_normal((5, 2, 8))
        np.testing.assert_array_equal(out._backward(g)[0], g.swapaxes(0, 1))

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
        out = T.add(mul(x, x), x)
        out.backward(np.ones(1))
        np.testing.assert_allclose(x.grad, np.array([7.0]))


class TestAdamW:
    def test_zero_grad_zero_decay_is_noop(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = AdamW([p], lr=0.1, weight_decay=0.0)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])


class TestGraphLifetime:
    def _graph(self):
        x = Tensor(np.array([1.5, -2.0]))
        w = Parameter(np.array([0.5, 3.0]), "w")
        hidden = mul(x, w)
        return x, w, hidden, T.sum_axis(T.elu(hidden), 0)

    def test_no_grad_records_no_graph(self):
        x = Tensor(np.ones(3))
        with T.no_grad():
            out = mul(T.add(x, x), Tensor(2.0))
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
            frozen = mul(w, w)
        out = mul(frozen, w)
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
        again = mul(hidden, w)
        with pytest.raises(ValueError, match="freed"):
            again.backward(np.ones(2))
        assert w.grad.tobytes() == before.tobytes()

    def test_leaf_root_keeps_its_grad(self):
        w = Parameter(np.array([1.0]), "w")
        w.backward()
        w.backward()
        np.testing.assert_array_equal(w.grad, np.array([2.0]))

    @pytest.mark.parametrize("op", ["add", "transpose_first_two", "concat"])
    def test_a_result_no_closure_reads_is_freed_with_its_tensor(self, op):
        rng = np.random.default_rng(9)
        x = Parameter(rng.standard_normal((2, 3, 4)), "x")
        w = Parameter(rng.standard_normal((2, 3, 4)), "w")
        produce = {
            "add": lambda: T.add(x, w),
            "transpose_first_two": lambda: T.transpose_first_two(x),
            "concat": lambda: T.concat([x, w], axis=1),
        }[op]

        def total(t):  # elu keeps its own output, sum_axis and reshape keep shapes
            return T.sum_axis(T.reshape(T.elu(t), (-1,)), 0)

        def grads():
            got = [None if p.grad is None else p.grad.copy() for p in (x, w)]
            x.grad = w.grad = None
            return got

        kept = produce()
        total(kept).backward()
        want = grads()
        mid = produce()
        alive = weakref.ref(mid.data)
        out = total(mid)
        del mid
        assert alive() is None
        out.backward()
        for a, b in zip(grads(), want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    def test_an_episode_keeps_little_beyond_what_backward_reads(self, acceptance_pool):
        # At TOY_CONFIG a graph that keeps every op's output holds 22-23 MB.
        split = make_split(range(1, 9), 0)
        params = M.ModelParams.for_config(np.random.default_rng(0), TOY_CONFIG, len(split.train_classes))
        bank = M.BasePrototypeBank.zeros(split.train_classes, TOY_CONFIG.dim)
        episode = next(M.episode_stream(acceptance_pool, split, "train", TOY_CONFIG, TOY_CONFIG.seed, 1))
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            kept = M.episode_loss(episode, params, bank)
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept[0]._backward is not None
        assert live <= 15e6, live
