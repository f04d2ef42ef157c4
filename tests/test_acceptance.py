"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a `ACCEPTANCE <name>: PASS/FAIL` line (run pytest with -s
to see them inline). The end-to-end learning criterion trains the full
toy configuration and is the long pole: about a minute on 2 shared cores
(47-54 s in tier-1 runs).
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from attention_oracles import linear_attention_quadratic, standard_attention
from experiments import SHIPPED, TOY_CONFIG, Cell, score_cell, train_cell
from gradient_oracles import OP_CHECKS, check_end_to_end, check_op
from pcseg import tensor as T
from pcseg.attention import kernel_attention
from pcseg.cli import EXIT_OK, main
from pcseg.episodes import confusion_counts, generate_episode, iou_from_counts, make_split
from pcseg.geometry import PointCloud, cluster_to_seeds, farthest_point_sample, grid_subsample
from pcseg.model import (
    BasePrototypeBank,
    ModelParams,
    apply_refine_layer,
    backbone_stub,
    base_guidance,
    calibrate_background,
    compute_correlations,
    forward,
)
from pcseg.sampling import biased_sample, cap_indices, cap_points, leakage_audit
from pcseg.synth import make_pool
from pcseg.tensor import Tensor

from conftest import TINY_CONFIG
from geometry_oracles import fps_oracle, nearest_seed_oracle, random_cloud, voxel_dedup_oracle


@contextmanager
def criterion(name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"{name}: {elapsed:.1f}s exceeds {budget_seconds}s budget"
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s)")


# The model the learning criterion trains: the shipped model at TOY_CONFIG, fold 0.
LEARNING_CELL = Cell(SHIPPED, fold=0, seed=TOY_CONFIG.seed, episodes=TOY_CONFIG.episodes)


def test_leakage_law():
    with criterion("leakage-law", 10.0):
        rng = np.random.default_rng(0)
        labels = np.zeros(10_000, dtype=np.int64)
        labels[:2_000] = 1

        cloud = PointCloud(rng.uniform(0, 1, (10_000, 3)), rng.random((10_000, 3)), labels)
        biased = leakage_audit(cloud, 1, 2048, "biased", 1000, 100)
        uniform = leakage_audit(cloud, 1, 2048, "uniform", 1000, 200)
        assert abs(biased.mean_output_fg_fraction - 0.36) < 0.01, biased
        assert abs(biased.expected_biased_fraction - 0.36) < 1e-3
        assert abs(uniform.mean_output_fg_fraction - 0.20) < 0.01, uniform
        assert biased.density_ratio >= 1.7


def test_sparse_point_law():
    """A cap of m out of n points keeps X ~ Hypergeometric(n, c, m) of a
    class's c points: over capped draws, the rate of X >= t (the class is
    eligible at `min_fg_points=t`) matches the exact tail. The classes are
    label blocks of one cloud, so one draw counts X for every c."""
    with criterion("sparse-point-law", 15.0):
        n, draws, sizes = 20_480, 40_000, (3, 10, 30, 100, 200, 300)
        block = np.repeat(np.arange(len(sizes) + 1), [*sizes, n - sum(sizes)])  # the last block is the rest
        for m in (2_048, 8_192):  # at m = n the cap keeps every point
            kept = np.array([np.bincount(block[cap_indices(n, m, seed)], minlength=len(sizes) + 1)
                             for seed in range(draws)])
            for j, c in enumerate(sizes):
                for t in (1, 5, 20):
                    below = sum(math.comb(c, x) * math.comb(n - c, m - x) for x in range(t))
                    exact = 1 - below / math.comb(n, m)
                    rate = (kept[:, j] >= t).mean()
                    assert abs(rate - exact) < 0.01, (m, c, t, rate, exact)


def _duplicate_point_iou(cloud, m, fg_class, sample, trials):
    """IoU of a zero-parameter segmenter, "a row whose point appears twice
    is foreground", with (TP, FP, FN) pooled over `trials` draws."""
    tp = fp = fn = 0
    for t in range(trials):
        out = sample(cloud, m, t)
        _, inverse, counts = np.unique(out.positions, axis=0, return_inverse=True, return_counts=True)
        pred = (counts[inverse.reshape(-1)] > 1).astype(np.int64)
        (a, b, c), = confusion_counts(pred, (out.labels == fg_class).astype(np.int64), [fg_class]).values()
        tp, fp, fn = tp + a, fp + b, fn + c
    return tp, iou_from_counts([(tp, fp, fn)])[1]


def test_leakage_exploit():
    """The double sampler's duplicates alone find foreground: the segmenter
    scores 2(m/n)(1-f)/(2-f) under `biased_sample` and 0 under
    `cap_points`, which draws no point twice."""
    with criterion("leakage-exploit", 30.0):
        rng = np.random.default_rng(5)
        n = 5_000
        for f in (0.1, 0.2, 0.4):
            labels = np.zeros(n, dtype=np.int64)
            labels[: int(f * n)] = 1
            cloud = PointCloud(rng.uniform(0, 1, (n, 3)), rng.random((n, 3)), labels)
            for m in (512, 2048):
                _, biased = _duplicate_point_iou(cloud, m, 1, lambda c, m, s: biased_sample(c, m, 1, s), 200)
                expected = 2 * (m / n) * (1 - f) / (2 - f)
                assert abs(biased - expected) < 0.01, (f, m, biased, expected)
                tp, uniform = _duplicate_point_iou(cloud, m, 1, cap_points, 200)
                assert tp == 0 and uniform == 0.0, (f, m, tp, uniform)


def test_attention_oracle():
    """Both orders of the kernel attention the model runs match the einsum
    reference, at random (1, 1, N, 32) stacks and at the point and class
    attention stacks `forward` passes at TOY_CONFIG, 1-way and 2-way; the
    softmax oracle matches its formula."""
    with criterion("attention-oracle", 5.0):
        rng = np.random.default_rng(1)
        stacks = []
        worst_standard = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 65))
            d = 32
            stacks.append([Tensor(rng.standard_normal((1, 1, n, d))) for _ in range(3)])

            ns = int(rng.integers(2, 17))
            qs, ks, vs = (Tensor(rng.standard_normal((ns, 6))) for _ in range(3))
            got = standard_attention(qs, ks, vs).data
            w = np.exp(qs.data @ ks.data.T / np.sqrt(6))
            want = (w / w.sum(axis=1, keepdims=True)) @ vs.data
            worst_standard = max(worst_standard, float(np.abs(got - want).max()))
        heads, points = TOY_CONFIG.heads, TOY_CONFIG.max_points
        dh = TOY_CONFIG.dim // heads
        for n_way in (1, 2):
            for shape in [(n_way + 1, heads, points, dh), (points, heads, n_way + 1, dh)]:
                stacks.append([Tensor(rng.standard_normal(shape)) for _ in range(3)])
        worst_linear = 0.0
        for q, k, v in stacks:
            slow = linear_attention_quadratic(q, k, v).data
            for reassociated in (True, False):
                fast = kernel_attention(T.elu_plus_one(q), T.elu_plus_one(k), v, reassociated).data
                worst_linear = max(worst_linear, float(np.abs(fast - slow).max()))
        assert worst_linear < 1e-6, worst_linear
        assert worst_standard < 1e-12, worst_standard


def test_gradient_suite():
    with criterion("gradient-suite", 60.0):
        for name, builder in OP_CHECKS:
            err = check_op(builder, seed=2024, trials=10)
            assert err < 1e-4, f"{name}: {err:.3e}"
        e2e = check_end_to_end(seed=2024, trials=10, coords_per_param=2)
        assert e2e < 1e-4, f"end_to_end_loss: {e2e:.3e}"


def test_geometry_oracles():
    with criterion("geometry-oracles", 5.0):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 65))
            cloud = random_cloud(rng, n)
            mask = rng.random(n) < 0.7
            if not mask.any():
                mask[int(rng.integers(n))] = True
            count = int(rng.integers(1, mask.sum() + 1))
            got = farthest_point_sample(cloud.positions, mask, count)
            assert list(got) == fps_oracle(cloud.positions, mask, count)

        for _ in range(20):
            positions = rng.uniform(-1, 1, (50, 3))
            mask = rng.random(50) < 0.8
            seed_pool = np.flatnonzero(mask)
            seeds = rng.choice(seed_pool, size=min(5, seed_pool.size), replace=False)
            groups = cluster_to_seeds(positions, mask, seeds)
            for got_g, want_g in zip(groups, nearest_seed_oracle(positions, mask, seeds)):
                np.testing.assert_array_equal(got_g, want_g)

        for _ in range(10):
            cloud = random_cloud(rng, 1000, span=0.5)
            out = grid_subsample(cloud, 0.02)
            expected = cloud.take(voxel_dedup_oracle(cloud, 0.02))
            np.testing.assert_array_equal(out.positions, expected.positions)


def test_shape_and_equivariance_suite():
    with criterion("shape-equivariance", 30.0):
        rng = np.random.default_rng(4)
        pool = make_pool(55, 16, range(1, 9), blobs_per_scene=3, points_per_blob=200)
        split = make_split(range(1, 9), 0)
        dim, n_protos = 16, 6

        # correlation tensor shape for 1-way and 2-way, same parameters
        params = ModelParams.create(rng, dim, n_protos, 3, 1, n_base=len(split.train_classes))
        bank = BasePrototypeBank.zeros(split.train_classes, dim)
        for c in split.train_classes:
            bank.apply_update(c, rng.standard_normal(dim), 0.995)
        for n_way in (1, 2):
            ep = generate_episode(pool, split.train_classes, n_way, 1, 40, 256, 60 + n_way)
            fq = backbone_stub(ep.query, params.stub)
            protos = [Tensor(rng.standard_normal((n_protos, dim))) for _ in range(n_way + 1)]
            corr = compute_correlations(fq, protos, params.proj)
            assert corr.shape == (len(ep.query), n_way + 1, dim)
            # refinement preserves the shape for depths 1..3
            guide = base_guidance(fq, bank, set())
            out = corr
            for depth, lp in enumerate(params.layers, start=1):
                out = apply_refine_layer(out, guide, lp)
                assert out.shape == (len(ep.query), n_way + 1, dim)

        # foreground slices untouched by calibration (bit equality)
        corr = Tensor(rng.standard_normal((7, 3, dim)))
        guide = Tensor(rng.standard_normal(7))
        lp = params.layers[0]
        calibrated = calibrate_background(corr, guide, lp.bg_fc_w, lp.bg_fc_b)
        assert (calibrated.data[:, :2, :] == corr.data[:, :2, :]).all()

        # full forward equivariance under query permutation
        ep = generate_episode(pool, split.test_classes, 1, 1, 40, 256, 77)
        seg, _ = forward(ep, params, bank, ())
        perm = rng.permutation(len(ep.query))
        permuted = type(ep)(
            support=ep.support,
            query=ep.query.take(perm),
            query_gt=ep.query_gt[perm],
            target_classes=ep.target_classes,
        )
        seg_p, _ = forward(permuted, params, bank, ())
        np.testing.assert_allclose(seg_p.data, seg.data[perm], atol=1e-9)

        # train-phase exclusion == deleting the excluded bank rows
        ep = generate_episode(pool, split.train_classes, 2, 1, 40, 256, 78)
        fq = backbone_stub(ep.query, params.stub)
        excluded = set(ep.target_classes)
        with_exclusion = base_guidance(fq, bank, excluded).data
        keep = [i for i, c in enumerate(bank.class_ids) if c not in excluded]
        pruned = BasePrototypeBank(
            bank.prototypes[keep],
            bank.update_counts[keep],
            tuple(bank.class_ids[i] for i in keep),
        )
        without = base_guidance(fq, pruned, set()).data
        np.testing.assert_array_equal(with_exclusion, without)


def test_momentum_law():
    with criterion("momentum-law", 1.0):
        mu = 0.995
        bank = BasePrototypeBank.zeros([1, 2, 3], 8)
        rng = np.random.default_rng(5)
        first = rng.standard_normal(8)
        target = rng.standard_normal(8)
        bank.apply_update(2, first, mu)
        base_dist = np.linalg.norm(first - target)
        for u in range(2, 40):
            bank.apply_update(2, target, mu)
            dist = np.linalg.norm(bank.prototypes[1] - target)
            assert abs(dist - mu ** (u - 1) * base_dist) < 1e-12
        assert (bank.prototypes[0] == 0).all()
        assert (bank.prototypes[2] == 0).all()


def test_end_to_end_learning():
    _, train_seconds = train_cell(LEARNING_CELL)
    # the 10-minute budget covers training (timed by the cell) plus eval
    with criterion("end-to-end-learning", 600.0 - train_seconds):
        assert train_seconds < 540.0, f"training took {train_seconds:.0f}s"
        with_bank, zeroed = score_cell(LEARNING_CELL)
        assert with_bank.episode_miou_mean >= 0.90, with_bank
        assert with_bank.episode_miou_mean >= zeroed.episode_miou_mean, (with_bank, zeroed)
        print(
            f"\n  learned mIoU {with_bank.episode_miou_mean:.4f} "
            f"(pooled {with_bank.mean_iou:.4f}), zeroed bank {zeroed.episode_miou_mean:.4f}, "
            f"train {train_seconds:.0f}s"
        )


def test_cli_determinism(tmp_path):
    with criterion("cli-determinism", 120.0):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CONFIG)

        def pair(command_of):
            outs = []
            for name in ("a", "b"):
                out = tmp_path / name
                out.mkdir(exist_ok=True)
                code, paths = command_of(out)
                assert code == EXIT_OK
                outs.append(b"".join(p.read_bytes() for p in paths))
            assert outs[0] == outs[1]

        # synth
        pair(lambda out: (
            main(["synth", "--out", str(out / "scenes"), "--seed", "1", "--scenes", "8",
                  "--classes", "6", "--points", "150"]),
            sorted((out / "scenes").glob("*.pcseg")),
        ))
        scenes = str(tmp_path / "a" / "scenes")

        # audit
        scene0 = str(sorted((tmp_path / "a" / "scenes").glob("*.pcseg"))[0])
        pair(lambda out: (
            main(["audit", "--cloud", scene0, "--fg-class", "1", "--m", "64",
                  "--trials", "20", "--seed", "2", "--out", str(out / "audit.txt")]),
            [out / "audit.txt"],
        ))

        # train
        pair(lambda out: (
            main(["train", "--pool", scenes, "--config", str(cfg), "--out", str(out / "model.txt")]),
            [out / "model.txt"],
        ))
        model = str(tmp_path / "a" / "model.txt")

        # eval
        pair(lambda out: (
            main(["eval", "--pool", scenes, "--model", model, "--episodes", "3",
                  "--seed", "5", "--out", str(out / "metrics.txt")]),
            [out / "metrics.txt"],
        ))
