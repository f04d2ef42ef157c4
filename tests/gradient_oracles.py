"""Finite-difference oracles for every differentiable operation, which only
the tests run.

`finite_difference_check` compares an op's analytic gradients with
central differences. Each `OP_CHECKS` entry builds random inputs for one
op; `check_end_to_end` differentiates the episode loss against a sampled
subset of every model parameter.
"""

import numpy as np

from pcseg import model as M
from pcseg import tensor as T
from pcseg.attention import AttentionParams, linear_attention, multi_head_linear_attention, standard_attention
from pcseg.config import RunConfig
from pcseg.episodes import generate_episode, make_split
from pcseg.seeding import derive_seed
from pcseg.synth import synth_scene
from pcseg.tensor import Tensor

_FD_EPS = 1e-5


def finite_difference_check(op, inputs, rng=None, max_coords=None) -> float:
    """Compare analytic gradients of `op(*inputs)` against central differences.

    The output is reduced to a scalar with a fixed random projection, the
    analytic gradient of that scalar is computed by backward(), and each
    input coordinate is perturbed by +/-1e-5. Returns the largest absolute
    gradient discrepancy divided by max(1, largest gradient magnitude).

    `max_coords` caps the number of coordinates checked per input (all by
    default), sampling them with `rng`.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    inputs = list(inputs)
    out = op(*inputs)
    proj = rng.standard_normal(out.data.shape)

    def scalarize():
        return float((op(*inputs).data * proj).sum())

    for t in inputs:
        t.grad = None
    out.backward(proj.copy())

    worst_abs = 0.0
    scale_ref = 1.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for c in coords:
            keep = flat[c]
            flat[c] = keep + _FD_EPS
            up = scalarize()
            flat[c] = keep - _FD_EPS
            down = scalarize()
            flat[c] = keep
            fd = (up - down) / (2 * _FD_EPS)
            a = analytic.reshape(-1)[c]
            worst_abs = max(worst_abs, abs(a - fd))
            scale_ref = max(scale_ref, abs(a), abs(fd))
    return worst_abs / scale_ref


def _tensors(rng, *shapes):
    return [Tensor(rng.standard_normal(s)) for s in shapes]


def _on_normals(op, *shapes):
    """A check of `op` on standard-normal inputs of the given shapes."""
    return lambda rng: (op, _tensors(rng, *shapes))


def _check_div(rng):
    a = Tensor(rng.standard_normal((4, 3)))
    b = Tensor(rng.uniform(0.5, 1.5, size=(4, 1)))
    return T.div, [a, b]


def _check_take_rows(rng):
    idx = rng.integers(0, 5, size=8)  # duplicates exercise the scatter-add
    return (lambda t: T.take_rows(t, idx)), _tensors(rng, (5, 3))


def _check_layer_norm(rng):
    t, = _tensors(rng, (4, 6))
    gain = Tensor(rng.uniform(0.5, 1.5, size=6))
    bias = Tensor(rng.standard_normal(6))
    return T.layer_norm, [t, gain, bias]


def _check_cross_entropy(rng):
    targets = rng.integers(0, 3, size=6)
    return (lambda t: T.cross_entropy(t, targets)), _tensors(rng, (6, 3))


def _mlp(x, w1, b1, w2, b2):
    return T.mlp_forward(x, M.MLPParams(w1, b1, w2, b2))


def _two_head_attention(x, w_q, w_k, w_v, w_o):
    return multi_head_linear_attention(x, AttentionParams(w_q, w_k, w_v, w_o, head_count=2))


OP_CHECKS = [
    ("matmul", _on_normals(T.matmul, (3, 4), (4, 2))),
    ("add_broadcast", _on_normals(T.add, (4, 5), (5,))),
    ("mul", _on_normals(T.mul, (3, 4), (3, 4))),
    ("div", _check_div),
    ("concat", _on_normals(lambda a, b: T.concat([a, b], axis=1), (4, 1, 8), (4, 2, 8))),
    ("reshape", _on_normals(lambda t: T.reshape(t, (6, 2)), (3, 4))),
    ("narrow", _on_normals(lambda t: T.narrow(t, 1, 1, 2), (3, 4, 2))),
    ("take_rows", _check_take_rows),
    ("elu", _on_normals(T.elu, (4, 5))),
    ("elu_plus_one", _on_normals(T.elu_plus_one, (4, 5))),
    ("layer_norm", _check_layer_norm),
    ("mlp_forward", _on_normals(_mlp, (5, 4), (4, 6), (6,), (6, 3), (3,))),
    ("cosine_rows", _on_normals(T.cosine_rows, (3, 4), (2, 4))),
    ("max_pool_rows", _on_normals(T.max_pool_rows, (5, 7))),
    ("group_mean_rows", _on_normals(lambda t: T.group_mean_rows(t, [np.array([0, 2]), np.array([1, 3, 4])]), (5, 3))),
    ("softmax_rows", _on_normals(T.softmax_rows, (4, 6))),
    ("cross_entropy", _check_cross_entropy),
    ("einsum_batched", _on_normals(lambda a, b: T.einsum("bnhd,bnhe->bhde", a, b), (2, 4, 2, 3), (2, 4, 2, 3))),
    ("standard_attention", _on_normals(standard_attention, (5, 4), (5, 4), (5, 4))),
    ("linear_attention", _on_normals(linear_attention, (6, 4), (6, 4), (6, 4))),
    ("multi_head_linear_attention", _on_normals(_two_head_attention, (2, 5, 8), (8, 8), (8, 8), (8, 8), (8, 8))),
]


def check_op(builder, seed: int, trials: int) -> float:
    """Worst finite-difference error over `trials` random input draws."""
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(derive_seed(seed, "gradcheck-trial", t))
        op, inputs = builder(rng)
        worst = max(worst, finite_difference_check(op, inputs, rng=rng))
    return worst


def _end_to_end_setup(seed: int):
    """A tiny 1-way training episode plus freshly initialized parameters."""
    config = RunConfig(
        dim=8,
        n_prototypes=4,
        hca_layers=2,
        heads=2,
        max_points=48,
        min_fg_points=10,
        episodes=0,
    )
    # every unordered class pair appears once, so any target has >= 3
    # eligible scenes regardless of the seed
    pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    pool = [
        synth_scene(derive_seed(seed, "gradcheck-pool", i), [(a, 60), (b, 60)])
        for i, (a, b) in enumerate(pairs)
    ]
    split = make_split(range(1, 5), fold=0)
    episode = generate_episode(
        pool, split, "train", 1, 1, config.min_fg_points, config.max_points, derive_seed(seed, "gradcheck-episode")
    )
    rng = np.random.default_rng(derive_seed(seed, "gradcheck-init"))
    params = M.ModelParams.for_config(rng, config, len(split.train_classes))
    bank = M.BasePrototypeBank.zeros(split.train_classes, config.dim, config.momentum)
    for cid in split.train_classes:  # live guidance so its gradient path is exercised
        bank.apply_update(cid, rng.standard_normal(config.dim))
    base_gt = M.base_targets(episode.query.labels, bank.class_ids)

    def op(*_params):
        seg_logits, features = M.forward(episode, params, bank, "train")
        base_logits = T.mlp_forward(features[-1], params.base_head)
        return M.loss(seg_logits, base_logits, episode.query_gt, base_gt)

    return op, params.parameters()


def check_end_to_end(seed: int, trials: int, coords_per_param: int = 2) -> float:
    """FD-check the episode loss against a sample of every parameter tensor."""
    worst = 0.0
    for t in range(trials):
        op, leaves = _end_to_end_setup(derive_seed(seed, "gradcheck-e2e", t))
        rng = np.random.default_rng(derive_seed(seed, "gradcheck-e2e-rng", t))
        worst = max(worst, finite_difference_check(op, leaves, rng=rng, max_coords=coords_per_param))
    return worst

