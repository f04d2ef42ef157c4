"""The fast kernels against the straightforward versions they replaced.

The references below are the earlier implementations: ELU and elu+1 by
boolean indexing, layer norm with fresh temporaries and `.mean`, AdamW
looping over parameters, episode generation that caps every pool entry, a
backward pass that keeps the whole graph alive, voxel subsampling through
`np.unique(axis=0)` and block splitting by one scan of every point per
block, farthest point sampling and nearest-seed clustering on row-major
(M, 3) coordinates, a plain `np.matmul` forward, `affine` as four nodes and
a cloud formatter over numpy scalars. Each is kept verbatim but one:
`ref_farthest_point_sample` also sets a chosen point's distance to -1, as
the fixed `farthest_point_sample` does, so that neither picks a seed twice
where every unchosen point coincides with one.

Each kernel is compared with its reference on its own, and then once end to
end: `REFERENCE_KERNELS` patches in every reference a run uses, and one
training and one evaluation under it must give the fast library's losses,
parameters, bank, scores and logits. The fast versions do the same
per-element arithmetic on the same random streams, so every comparison
here is on bytes. Each per-kernel comparison is also the home of its op's
forward values, so the unit files add no hand-formula check of a value
pinned here.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from pcseg import cli
from pcseg import io as pio
from pcseg import model as M
from pcseg import tensor as T
from pcseg.config import RunConfig
from pcseg.episodes import Episode, PoolExhaustedError, generate_episode, make_split
from pcseg.geometry import PointCloud, cluster_to_seeds, farthest_point_sample, grid_subsample, split_blocks
from pcseg.synth import make_pool
from pcseg.tensor import Parameter, Tensor
from experiments import Variant

# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def ref_elu(t):
    neg = t.data <= 0
    data = t.data.copy()
    data[neg] = np.expm1(t.data[neg])

    def backward(g):
        d = np.ones_like(data)
        d[neg] = data[neg] + 1.0
        return (g * d,)

    return Tensor(data, (t,), backward)


def ref_elu_plus_one(t):
    neg = t.data <= 0
    data = t.data + 1.0
    data[neg] = np.exp(t.data[neg])

    def backward(g):
        d = np.ones_like(data)
        d[neg] = data[neg]
        return (g * d,)

    return Tensor(data, (t,), backward)


def ref_layer_norm(t, gain, bias):
    if gain.shape != (t.shape[-1],) or bias.shape != (t.shape[-1],):
        raise ValueError(f"gain/bias must have shape ({t.shape[-1]},)")
    mu = t.data.mean(axis=-1, keepdims=True)
    xc = t.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-12)
    y = xc * inv
    lead = tuple(range(t.ndim - 1))

    def backward(g):
        h = g * gain.data
        gt = inv * (h - h.mean(axis=-1, keepdims=True) - y * (h * y).mean(axis=-1, keepdims=True))
        return gt, (g * y).sum(axis=lead), g.sum(axis=lead)

    return Tensor(y * gain.data + bias.data, (t, gain, bias), backward)


def ref_matmul(a, b):
    if a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    return Tensor(
        np.matmul(a.data, b.data),
        (a, b),
        lambda g: (np.matmul(g, b.data.swapaxes(-1, -2)), np.matmul(a.data.swapaxes(-1, -2), g)),
    )


def ref_affine(t, w, b):
    if t.ndim == 2:
        return T.add(ref_matmul(t, w), b)
    lead = t.shape[:-1]
    flat = T.reshape(t, (-1, t.shape[-1]))
    return T.reshape(T.add(ref_matmul(flat, w), b), lead + (w.shape[1],))


class RefAdamW:
    def __init__(self, params, lr, weight_decay=0.0, betas=(0.9, 0.999), eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self):
        self.step_count += 1
        b1, b2 = self.betas
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.step_count)
            vhat = v / (1 - b2 ** self.step_count)
            p.data *= 1.0 - self.lr * self.weight_decay
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def ref_backward(self, grad=None):
    if grad is None:
        if self.data.size != 1:
            raise ValueError("backward() without an explicit grad needs a scalar")
        grad = np.ones_like(self.data)
    topo = []
    visited = set()
    stack = [(self, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    self.grad = grad if self.grad is None else self.grad + grad
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


def ref_cap_points(cloud, max_points, rng_seed):
    if max_points < 1:
        raise ValueError(f"max_points must be >= 1, got {max_points}")
    if len(cloud) <= max_points:
        return cloud
    rng = np.random.default_rng(rng_seed)
    return cloud.take(rng.choice(len(cloud), size=max_points, replace=False))


def ref_generate_episode(pool, classes, n_way, k_shot, min_fg_points, m_cap, rng_seed):
    def eligible(capped, class_id):
        return [i for i, c in enumerate(capped) if int((c.labels == class_id).sum()) >= min_fg_points]

    pool = list(pool)
    if n_way < 1 or k_shot < 1:
        raise ValueError("n_way and k_shot must be >= 1")
    rng = np.random.default_rng(rng_seed)
    cap_seeds = rng.integers(0, 2**63 - 1, size=len(pool))
    capped = [ref_cap_points(c, m_cap, int(s)) for c, s in zip(pool, cap_seeds)]

    if n_way > len(classes):
        raise ValueError(f"n_way {n_way} exceeds the {len(classes)} classes {sorted(classes)}")
    targets = tuple(int(c) for c in rng.choice(sorted(classes), size=n_way, replace=False))

    used = set()
    support, support_indices = [], []
    for class_id in targets:
        avail = [i for i in eligible(capped, class_id) if i not in used]
        if len(avail) < k_shot:
            raise PoolExhaustedError(
                f"class {class_id}: need {k_shot} support clouds with >= {min_fg_points} "
                f"foreground points, pool offers {len(avail)}"
            )
        picked = [int(i) for i in rng.choice(avail, size=k_shot, replace=False)]
        used.update(picked)
        support.append([(capped[i], capped[i].labels == class_id) for i in picked])
        support_indices.append(picked)

    query_avail = sorted({i for c in targets for i in eligible(capped, c)} - used)
    if not query_avail:
        raise PoolExhaustedError(
            f"classes {targets}: no unused cloud with >= {min_fg_points} foreground points left for the query"
        )
    query_index = int(rng.choice(query_avail))
    query = capped[query_index]
    query_gt = np.zeros(len(query), dtype=np.int64)
    for n, class_id in enumerate(targets, start=1):
        query_gt[query.labels == class_id] = n
    return Episode(support, query, query_gt, targets, support_indices, query_index)


def ref_format_cloud(cloud):
    lines = [f"{pio.CLOUD_MAGIC} {len(cloud)}"]
    for p, c, label in zip(cloud.positions, cloud.colors, cloud.labels):
        lines.append(
            f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g} {c[0]:.17g} {c[1]:.17g} {c[2]:.17g} {label}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

SPECIALS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
    5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-310, -1e-310, 1e-17, -1e-17,
    1.0, -1.0, 709.0, 710.0, 800.0, -745.0, -746.0, -800.0, 1e300, -1e300,
])
FINITE_SPECIALS = SPECIALS[np.isfinite(SPECIALS) & (np.abs(SPECIALS) < 700)]


def ref_grid_subsample(cloud, grid_size):
    if grid_size <= 0:
        raise ValueError(f"grid_size must be positive, got {grid_size}")
    keys = np.floor(cloud.positions / grid_size).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return cloud.take(first)


def ref_split_blocks(cloud, block_size):
    if block_size <= 0:
        raise ValueError(f"block_size must be positive, got {block_size}")
    cells = np.floor(cloud.positions[:, :2] / block_size).astype(np.int64)
    uniq = np.unique(cells, axis=0)
    blocks = []
    for cell in uniq:
        member = np.flatnonzero((cells == cell).all(axis=1))
        blocks.append(cloud.take(member))
    return blocks


def ref_farthest_point_sample(coords, mask, count):
    coords = np.asarray(coords, dtype=np.float64)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    mask = np.asarray(mask, dtype=bool)
    masked = np.flatnonzero(mask)
    pts = coords[masked]
    k = min(count, masked.size)
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = 0
    d2 = ((pts - pts[0]) ** 2).sum(axis=1)
    d2[0] = -1.0
    for i in range(1, k):
        nxt = int(np.argmax(d2))
        chosen[i] = nxt
        d2 = np.minimum(d2, ((pts - pts[nxt]) ** 2).sum(axis=1))
        d2[nxt] = -1.0
    return masked[chosen]


def ref_cluster_to_seeds(coords, mask, seeds):
    coords = np.asarray(coords, dtype=np.float64)
    seeds = np.asarray(seeds, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    masked = np.flatnonzero(mask)
    diff = coords[masked][:, None, :] - coords[seeds][None, :, :]
    d2 = (diff ** 2).sum(axis=2)
    assign = np.argmin(d2, axis=1)
    pos_in_masked = np.searchsorted(masked, seeds)
    assign[pos_in_masked] = np.arange(seeds.size)
    return [masked[assign == s] for s in range(seeds.size)]


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def inputs(rng, finite: bool):
    """Random arrays in several shapes and layouts, plus one of special values."""
    specials = FINITE_SPECIALS if finite else SPECIALS
    base = [
        rng.standard_normal((3, 2048, 32)),
        rng.standard_normal((1024, 32)) * 50.0,
        rng.standard_normal((512, 2, 32)).swapaxes(0, 1),  # transposed, as the model feeds it
        rng.standard_normal((2, 512, 1, 32)).swapaxes(1, 2),
        rng.standard_normal(7),
        np.tile(specials, (3, 1)),
        rng.permutation(np.concatenate([specials, rng.standard_normal(1000)])).reshape(-1, 4),
    ]
    return base


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("new, ref", [(T.elu, ref_elu), (T.elu_plus_one, ref_elu_plus_one)],
                         ids=["elu", "elu_plus_one"])
class TestElu:
    def test_forward_bytes(self, new, ref):
        rng = np.random.default_rng(0)
        with np.errstate(all="ignore"):
            for x in inputs(rng, finite=False):
                assert same_bytes(new(Tensor(x)).data, ref(Tensor(x)).data)

    def test_backward_bytes(self, new, ref):
        rng = np.random.default_rng(1)
        for x in inputs(rng, finite=True):
            g = rng.standard_normal(x.shape)
            assert same_bytes(new(Tensor(x))._backward(g)[0], ref(Tensor(x))._backward(g)[0])
            g_t = rng.standard_normal(x.shape[::-1]).T  # a gradient in another layout
            assert same_bytes(new(Tensor(x))._backward(g_t)[0], ref(Tensor(x))._backward(g_t)[0])


class TestLayerNorm:
    def test_forward_bytes(self):
        rng = np.random.default_rng(2)
        with np.errstate(all="ignore"):
            for x in inputs(rng, finite=False):
                d = x.shape[-1]
                gain, bias = Tensor(rng.standard_normal(d)), Tensor(rng.standard_normal(d))
                assert same_bytes(T.layer_norm(Tensor(x), gain, bias).data,
                                  ref_layer_norm(Tensor(x), gain, bias).data)

    def test_backward_bytes(self):
        rng = np.random.default_rng(3)
        for x in inputs(rng, finite=True):
            d = x.shape[-1]
            gain, bias = Tensor(rng.standard_normal(d)), Tensor(rng.standard_normal(d))
            for g in (rng.standard_normal(x.shape), rng.standard_normal(x.shape[::-1]).T):
                new = T.layer_norm(Tensor(x), gain, bias)._backward(g)
                ref = ref_layer_norm(Tensor(x), gain, bias)._backward(g)
                assert all(same_bytes(a, b) for a, b in zip(new, ref))

    def test_constant_rows(self):
        x = np.full((4, 16), 3.25)
        gain, bias = Tensor(np.ones(16)), Tensor(np.zeros(16))
        assert same_bytes(T.layer_norm(Tensor(x), gain, bias).data, ref_layer_norm(Tensor(x), gain, bias).data)


def test_cosine_rows_norms_match_linalg():
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal((300, 32)), rng.standard_normal((10, 32))
    a[3], a[4], a[5], b[0] = 0.0, a[4] * 1e-3, a[5] * 1e-7, b[0] * 1e-3  # a zero row, and norms between the floor and 1
    ca = np.maximum(np.linalg.norm(a, axis=1), 1e-8)
    cb = np.maximum(np.linalg.norm(b, axis=1), 1e-8)
    assert same_bytes(T.cosine_rows(Tensor(a), Tensor(b)).data, (a @ b.T) / ca[:, None] / cb[None, :])


PRODUCT_ROWS = [255, 257, 975, 977, 1024, 1025, 1543, 6144, 6145]
# (32, 36): a column count whose small-kernel tail sums in another order.
PRODUCT_SHAPES = [(32, 32), (10, 32), (64, 32), (6, 32), (32, 1), (32, 5), (32, 36)]


@pytest.mark.parametrize("m", PRODUCT_ROWS)
def test_matmul_forward_matches_np_matmul(m):
    rng = np.random.default_rng(m)
    for k, n in PRODUCT_SHAPES:
        a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
        assert same_bytes(T.matmul(Tensor(a), Tensor(b)).data, np.matmul(a, b)), (k, n)
        f = np.asfortranarray(b)  # a right operand that is not C-contiguous
        assert same_bytes(T.matmul(Tensor(a), Tensor(f)).data, np.matmul(a, f)), (k, n)


def test_stacked_matmul_forward_matches_np_matmul():
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((3, 1, 2048, 32)), rng.standard_normal((3, 1, 32, 32))
    assert same_bytes(T.matmul(Tensor(a), Tensor(b)).data, np.matmul(a, b))
    heads = rng.standard_normal((3, 2048, 2, 16)).swapaxes(1, 2)  # split heads, as attention feeds them
    b = rng.standard_normal((3, 2, 16, 32))
    assert same_bytes(T.matmul(Tensor(heads), Tensor(b)).data, np.matmul(heads, b))


class TestAdamW:
    def _params(self, rng):
        shapes = [(3, 4), (5,), (), (2, 3, 2), (1,)]
        return [Parameter(rng.standard_normal(s), f"p{i}") for i, s in enumerate(shapes)]

    def test_steps_match_per_parameter_loop(self):
        rng = np.random.default_rng(4)
        fast = self._params(rng)
        slow = [Parameter(p.data.copy(), p.name) for p in fast]
        opt_fast = T.AdamW(fast, lr=0.01, weight_decay=0.05)
        opt_slow = RefAdamW(slow, lr=0.01, weight_decay=0.05)
        for step in range(25):
            for i, (a, b) in enumerate(zip(fast, slow)):
                if (step + i) % 4 == 0:
                    a.grad = b.grad = None
                else:
                    g = rng.standard_normal(a.shape) * 10.0 ** rng.integers(-8, 3)
                    a.grad, b.grad = g, g.copy()
            opt_fast.step()
            opt_slow.step()
            for a, b in zip(fast, slow):
                assert same_bytes(a.data, b.data)
        assert opt_fast.step_count == opt_slow.step_count

    def test_parameters_become_views(self):
        rng = np.random.default_rng(5)
        params = self._params(rng)
        before = [p.data.copy() for p in params]
        T.AdamW(params, lr=0.1)
        for p, b in zip(params, before):
            assert same_bytes(p.data, b)

    def test_non_finite_gradient_touches_nothing(self):
        rng = np.random.default_rng(6)
        params = self._params(rng)
        opt = T.AdamW(params, lr=0.1, weight_decay=0.1)
        for p in params:
            p.grad = np.ones(p.shape)
        opt.step()
        before = [p.data.copy() for p in params]
        params[3].grad = np.full(params[3].shape, np.inf)
        params[4].grad = np.full(params[4].shape, np.nan)
        with pytest.raises(T.NonFiniteGradientError, match="p3"):
            opt.step()
        assert opt.step_count == 1
        for p, b in zip(params, before):
            assert same_bytes(p.data, b)

    def test_duplicate_parameter_rejected(self):
        p = Parameter(np.zeros(2), "p")
        with pytest.raises(ValueError, match="distinct"):
            T.AdamW([p, p], lr=0.1)


def _seed_clouds():
    """(name, coords, mask) cases: random clouds of up to 4,096 points, one-point
    masks, duplicated points, and coordinates on a 0.1 m grid (many ties)."""
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 300, 2_048, 4_096):
        coords = rng.normal(0.0, 2.0, (n, 3))
        some = rng.random(n) < 0.6
        some[0] = True
        yield f"random_{n}", coords, some
        one = np.zeros(n, dtype=bool)
        one[rng.integers(n)] = True
        yield f"one_point_{n}", coords, one
        yield f"rounded_{n}", np.round(coords, 1), np.ones(n, dtype=bool)
    base = rng.uniform(0.0, 1.0, (40, 3))
    yield "duplicated", base[rng.integers(0, 40, 1_500)], rng.random(1_500) < 0.8
    yield "all_one_point", np.tile(base[:1], (64, 1)), np.ones(64, dtype=bool)
    yield "coarse_grid", np.round(rng.uniform(0.0, 0.5, (3_000, 3)), 1), rng.random(3_000) < 0.5


@pytest.mark.parametrize("count", [1, 3, 5, 16])
def test_seed_selection_and_clustering_match_row_major(count):
    for name, coords, mask in _seed_clouds():
        # The premise: numpy sums a row of three as the axis-0 sum of the transpose does.
        sq = (coords - coords[:1]) ** 2
        assert same_bytes(sq.sum(axis=1), np.ascontiguousarray(sq.T).sum(axis=0)), name
        seeds = farthest_point_sample(coords, mask, count)
        assert same_bytes(seeds, ref_farthest_point_sample(coords, mask, count)), name
        groups, ref = cluster_to_seeds(coords, mask, seeds), ref_cluster_to_seeds(coords, mask, seeds)
        assert len(groups) == len(ref) and all(same_bytes(a, b) for a, b in zip(groups, ref)), name


# ---------------------------------------------------------------------------
# end to end
# ---------------------------------------------------------------------------

# Every reference above that a training or an evaluation runs, in place of
# the kernel it stands for.
REFERENCE_KERNELS = Variant("reference kernels", (
    (T, "elu", ref_elu),
    (T, "elu_plus_one", ref_elu_plus_one),
    (T, "layer_norm", ref_layer_norm),
    (T, "matmul", ref_matmul),
    (T, "affine", ref_affine),
    (T, "AdamW", RefAdamW),
    (T.Tensor, "backward", ref_backward),
    (T, "no_grad", contextlib.nullcontext),  # evaluate records the graph it would skip
    (M, "generate_episode", ref_generate_episode),
))


def test_reference_run_matches_the_fast_library(monkeypatch):
    # 2-way at cap 512 in training and 2,048 in eval: (1536, 32) and (6144, 32)
    # products, past the small-matrix limit, so the row blocks engage in both
    pool = make_pool(34, 12, range(1, 9), blobs_per_scene=3, points_per_blob=800)  # 2,400 points each
    split = make_split(range(1, 9), 0)
    config = RunConfig(seed=4, dim=32, n_prototypes=6, hca_layers=2, heads=2, max_points=512,
                       min_fg_points=40, episodes=3, lr=1e-2, n_way=2)
    wide = dataclasses.replace(config, max_points=2048)
    logits, blocked, class_rows = [], [], []
    real_forward, real_product, real_classes = M.forward, T._forward_product, M._refine_classes

    def keep_logits(*args):
        seg_logits, features = real_forward(*args)
        logits.append(seg_logits)
        return seg_logits, features

    def spy_product(a, b):
        m, k, n = a.shape[-2], a.shape[-1], b.shape[-1]
        blocked.append(m * k * n > T._SMALL_GEMM_MAX and m > T._BLOCK_ROWS + 1 and n % 8 == 0
                       and b.flags.c_contiguous)
        return real_product(a, b)

    def spy_classes(c, guide, lp):
        class_rows.append(c.shape[0])
        return real_classes(c, guide, lp)

    monkeypatch.setattr(M, "forward", keep_logits)
    monkeypatch.setattr(T, "_forward_product", spy_product)
    monkeypatch.setattr(M, "_refine_classes", spy_classes)

    def run():
        """The trained result, the evaluation, every forward pass's logits,
        whether row blocks engaged in training and in evaluation, and the
        query counts the refine layers' class halves saw in evaluation."""
        logits.clear()
        blocked.clear()
        class_rows.clear()
        trained = M.meta_train(pool, split, config)
        in_training, classes_in_training = len(blocked), len(class_rows)
        evaluation = M.evaluate(pool, split, trained.params, trained.bank, wide, 3, 12)
        return (trained, evaluation, list(logits), any(blocked[:in_training]), any(blocked[in_training:]),
                set(class_rows[classes_in_training:]))

    fast = run()
    with REFERENCE_KERNELS.applied():
        slow = run()
    assert fast[3:5] == (True, True) and not blocked  # the reference matmul and affine take no row block
    # evaluate's no_grad forward runs the class halves on blocks of query points;
    # under the reference it records a graph, so each layer runs on the whole tensor
    assert fast[5] == {T._BLOCK_ROWS} and slow[5] == {2048}
    (fast_trained, fast_eval, fast_logits), (slow_trained, slow_eval, slow_logits) = fast[:3], slow[:3]
    assert same_bytes(fast_trained.losses, slow_trained.losses)
    for a, b in zip(fast_trained.params.parameters(), slow_trained.params.parameters(), strict=True):
        assert a.name == b.name and same_bytes(a.data, b.data), a.name
    assert same_bytes(fast_trained.bank.prototypes, slow_trained.bank.prototypes)
    assert same_bytes(fast_trained.bank.update_counts, slow_trained.bank.update_counts)
    assert fast_eval == slow_eval
    assert len(fast_logits) == len(slow_logits) == 6 and [len(t.data) for t in fast_logits[3:]] == [2048] * 3
    for a, b in zip(fast_logits, slow_logits):
        assert same_bytes(a.data, b.data)
    # evaluate's forward records no graph, and under the reference it records one
    assert all(t._backward is None for t in fast_logits[3:]) and all(t._backward is not None for t in slow_logits)


def _outcome(generate, *args):
    try:
        return generate(*args)
    except (PoolExhaustedError, ValueError) as exc:
        return type(exc), str(exc)


def _same_cloud(a: PointCloud, b: PointCloud) -> bool:
    return same_bytes(a.positions, b.positions) and same_bytes(a.colors, b.colors) and same_bytes(a.labels, b.labels)


def _same_episode(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return (
        a.target_classes == b.target_classes
        and a.support_indices == b.support_indices
        and a.query_index == b.query_index
        and _same_cloud(a.query, b.query)
        and same_bytes(a.query_gt, b.query_gt)
        and all(
            _same_cloud(ca, cb) and same_bytes(ma, mb)
            for way_a, way_b in zip(a.support, b.support)
            for (ca, ma), (cb, mb) in zip(way_a, way_b)
        )
    )


@pytest.mark.parametrize("m_cap", [100, 250, 400, 10_000])  # every cloud capped ... none capped
def test_episodes_match_eager_capping(m_cap):
    pool = make_pool(21, 14, range(1, 9), blobs_per_scene=3, points_per_blob=100)  # 300 points each
    pool += make_pool(22, 4, range(1, 9), blobs_per_scene=2, points_per_blob=60)  # 120 points each
    split = make_split(range(1, 9), 1)
    train, test = split.train_classes, split.test_classes
    exhausted = 0
    for seed in range(60):
        for classes, n_way, k_shot, min_fg in ((train, 1, 1, 30), (test, 2, 1, 50), (test, 2, 3, 60),
                                               (train, 3, 2, 90), (train, 2, 4, 95)):
            args = (pool, classes, n_way, k_shot, min_fg, m_cap, seed)
            fast, ref = _outcome(generate_episode, *args), _outcome(ref_generate_episode, *args)
            assert _same_episode(fast, ref), (args[1:], fast if isinstance(fast, tuple) else None)
            exhausted += isinstance(ref, tuple)
    assert 0 < exhausted < 300  # both paths are exercised


def test_episode_errors_match_eager_capping():
    pool = make_pool(23, 4, range(1, 5), blobs_per_scene=2, points_per_blob=50)
    split = make_split(range(1, 5), 0)
    train = split.train_classes
    for args in ((pool, train, 1, 1, 10, 0, 1), (pool, train, 3, 1, 10, 64, 1),
                 ([], train, 1, 1, 10, 0, 1), (pool, train, 0, 1, 10, 64, 1)):
        assert _outcome(generate_episode, *args) == _outcome(ref_generate_episode, *args)


# ---------------------------------------------------------------------------
# scene loading
# ---------------------------------------------------------------------------


def _cloud(rng, positions) -> PointCloud:
    n = len(positions)
    return PointCloud(positions, rng.random((n, 3)), rng.integers(-1, 9, size=n))


def _room(rng) -> PointCloud:
    """A 6 x 6 m room, 3 m high: 36 blocks of 1 m, points in random order."""
    floor = np.column_stack([rng.uniform(0, 6, 30_000), rng.uniform(0, 6, 30_000), rng.normal(0, 0.01, 30_000)])
    walls = rng.uniform(0, 6, (12_000, 3)) * [1, 1, 0.5]
    walls[:6_000, 0] = rng.choice([0.0, 5.999], 6_000)
    walls[6_000:, 1] = rng.choice([0.0, 5.999], 6_000)
    blobs = np.concatenate([rng.normal(c, 0.2, (2_000, 3)) for c in rng.uniform(0.5, 5.5, (6, 3))])
    blobs[:, :2] = np.clip(blobs[:, :2], 0.0, 5.999)
    return _cloud(rng, rng.permutation(np.concatenate([floor, walls, blobs])))


def _clouds():
    rng = np.random.default_rng(31)
    grid = np.arange(-4, 5) * 0.25  # exact in binary: every point on a voxel and block boundary
    lattice = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1).reshape(-1, 3)
    crowd = np.concatenate([rng.uniform(0, 0.01, (500, 3)), rng.uniform(-2, 2, (40, 3))])
    return {
        "random_negative": [_cloud(rng, rng.uniform(-3, 3, (4_000, 3)) - [0, 1.5, 0]) for _ in range(4)],
        "on_boundaries": [_cloud(rng, rng.permutation(np.concatenate([lattice, lattice, -lattice]))),
                          _cloud(rng, np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-1.0, -0.5, 0.25]]))],
        "one_voxel_crowded": [_cloud(rng, rng.permutation(crowd))],
        "single_point": [_cloud(rng, rng.uniform(-1, 1, (1, 3)))],
        "single_block": [_cloud(rng, rng.uniform(0, 0.999, (3_000, 3)))],
        "room_36_blocks": [_room(rng)],
    }


def test_format_cloud_matches_numpy_scalar_formatting():
    special = PointCloud(
        np.array([[-0.0, 5e-324, 1e300], [-5e-324, -1e300, 1e-310], [2.0**63, 0.1, -1 / 3]]),
        np.array([[-0.0, 5e-324, 1.0], [0.0, 1e-310, 0.5], [1 / 3, 2 / 3, 0.1]]),
        np.array([-1, 2**63 - 1, 0]),
    )
    rng = np.random.default_rng(33)
    for n in (1, 1_024, 1_025, 5_000):  # rows are formatted 1,024 at a time
        cloud = _cloud(rng, rng.normal(0, 50, (n, 3)))
        assert pio.format_cloud(cloud) == ref_format_cloud(cloud), n
    assert pio.format_cloud(special) == ref_format_cloud(special)


@pytest.mark.parametrize("kind", list(_clouds()))
def test_grid_subsample_and_split_blocks_match_np_unique(kind):
    for cloud in _clouds()[kind]:
        for grid in (0.01, 0.02, 0.25, 0.3):
            fast, ref = grid_subsample(cloud, grid), ref_grid_subsample(cloud, grid)
            assert _same_cloud(fast, ref), grid
        for source in (cloud, ref_grid_subsample(cloud, 0.02)):
            for block in (0.5, 1.0):
                fast, ref = split_blocks(source, block), ref_split_blocks(source, block)
                assert len(fast) == len(ref) and all(_same_cloud(a, b) for a, b in zip(fast, ref)), block
    if kind == "room_36_blocks":
        assert len(split_blocks(ref_grid_subsample(cloud, 0.01), 1.0)) == 36


def test_load_pool_matches_reference_preprocessing(tmp_path, monkeypatch):
    rng = np.random.default_rng(32)
    pio.write_cloud(tmp_path / "room.pcseg", _room(rng))
    pio.write_cloud(tmp_path / "small.pcseg", _cloud(rng, rng.uniform(0, 0.9, (500, 3))))
    config = RunConfig(grid_size=0.01, block_size=1.0)
    fast_clouds, fast_sources = cli.load_pool([str(tmp_path)], config)
    monkeypatch.setattr(cli, "grid_subsample", ref_grid_subsample)
    monkeypatch.setattr(cli, "split_blocks", ref_split_blocks)
    ref_clouds, ref_sources = cli.load_pool([str(tmp_path)], config)
    assert fast_sources == ref_sources and len(fast_sources) == 37
    assert all(_same_cloud(a, b) for a, b in zip(fast_clouds, ref_clouds))
