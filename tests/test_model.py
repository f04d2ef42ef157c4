"""Model pieces: prototypes, correlations, guidance, calibration,
refinement layers, forward/loss, the bank, and the training loop."""

import numpy as np
import pytest

import pcseg.tensor as T
from gradient_oracles import check_end_to_end, finite_difference_check
from pcseg.config import RunConfig
from pcseg.episodes import Episode, generate_episode
from pcseg.geometry import EmptyMaskError, PointCloud
from pcseg.model import (
    BasePrototypeBank,
    ModelParams,
    _update_bank_from_episode,
    apply_refine_layer,
    backbone_stub,
    base_guidance,
    base_targets,
    calibrate_background,
    compute_correlations,
    extract_prototypes,
    forward,
    loss,
    meta_train,
)
from pcseg.synth import synth_scene
from pcseg.tensor import Parameter, Tensor


def tiny_params(rng, dim=8, n_protos=4, layers=1, heads=1, n_base=3):
    return ModelParams.create(rng, dim=dim, n_prototypes=n_protos, n_layers=layers,
                              heads=heads, n_base=n_base)


def episode_for(pool, split, config, seed=11, phase="train", n_way=1, k_shot=1):
    return generate_episode(
        pool, split, phase, n_way, k_shot, config.min_fg_points, config.max_points, seed
    )


def spy_episodes(monkeypatch):
    """Record every episode that `model` builds from here on."""
    from pcseg import model as M

    drawn = []

    def spy(*args):
        drawn.append(generate_episode(*args))
        return drawn[-1]

    monkeypatch.setattr(M, "generate_episode", spy)
    return drawn


def episode_key(episode):
    """What fixes an episode: its seed, targets, pool entries and capped query points."""
    return (episode.seed, episode.target_classes, episode.support_indices, episode.query_index,
            episode.query.positions.tobytes())


class TestBackboneStub:
    def test_identical_points_identical_rows(self):
        pos = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.5, 0.5, 0.5]])
        col = np.array([[0.4, 0.4, 0.4], [0.4, 0.4, 0.4], [0.9, 0.1, 0.1]])
        cloud = PointCloud(pos, col, np.zeros(3, dtype=np.int64))
        params = tiny_params(np.random.default_rng(0))
        feats = backbone_stub(cloud, params.stub).data
        np.testing.assert_array_equal(feats[0], feats[1])
        assert not np.array_equal(feats[0], feats[2])

    def test_output_shape(self):
        scene = synth_scene(3, [(1, 40), (2, 50)])
        params = tiny_params(np.random.default_rng(1), dim=8)
        assert backbone_stub(scene, params.stub).shape == (90, 8)

    def test_gradient_reaches_stub_parameters(self):
        scene = synth_scene(4, [(1, 20), (2, 20)])
        params = tiny_params(np.random.default_rng(2))
        err = finite_difference_check(
            lambda *ws: backbone_stub(scene, params.stub),
            params.stub.parameters(),
            rng=np.random.default_rng(3),
            max_coords=6,
        )
        assert err < 1e-4


class TestExtractPrototypes:
    def test_single_prototype_is_masked_mean(self):
        rng = np.random.default_rng(4)
        coords = rng.uniform(0, 1, (30, 3))
        feats = Tensor(rng.standard_normal((30, 8)))
        mask = rng.random(30) < 0.5
        mask[0] = True
        out = extract_prototypes([feats], [mask], [coords], 1)
        np.testing.assert_allclose(out.data[0], feats.data[mask].mean(axis=0))

    def test_budget_shared_across_shots(self):
        rng = np.random.default_rng(5)
        shots = []
        for _ in range(2):
            coords = rng.uniform(0, 1, (60, 3))
            feats = Tensor(rng.standard_normal((60, 8)))
            mask = np.ones(60, dtype=bool)
            shots.append((feats, mask, coords))
        out = extract_prototypes(*(list(z) for z in zip(*shots)), 10)
        assert out.shape == (10, 8)
        # per-shot budget 5: the first five rows come from shot 1's features
        first_shot = extract_prototypes([shots[0][0]], [shots[0][1]], [shots[0][2]], 5)
        np.testing.assert_array_equal(out.data[:5], first_shot.data)

    def test_cycle_duplication_when_short(self):
        rng = np.random.default_rng(6)
        coords = rng.uniform(0, 1, (10, 3))
        feats = Tensor(rng.standard_normal((10, 4)))
        mask = np.zeros(10, dtype=bool)
        mask[[1, 4, 7]] = True  # 3 masked points, 5 prototypes requested
        out = extract_prototypes([feats], [mask], [coords], 5)
        assert out.shape == (5, 4)
        np.testing.assert_array_equal(out.data[3], out.data[0])
        np.testing.assert_array_equal(out.data[4], out.data[1])
        assert len({tuple(r) for r in out.data[:3]}) == 3

    def test_all_empty_masks_raise(self):
        feats = Tensor(np.zeros((5, 4)))
        with pytest.raises(EmptyMaskError):
            extract_prototypes([feats], [np.zeros(5, dtype=bool)], [np.zeros((5, 3))], 3)

    def test_empty_shots_skipped(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(0, 1, (12, 3))
        feats = Tensor(rng.standard_normal((12, 4)))
        good = np.ones(12, dtype=bool)
        out = extract_prototypes(
            [feats, feats], [good, np.zeros(12, dtype=bool)], [coords, coords], 4
        )
        assert out.shape == (4, 4)


class TestComputeCorrelations:
    def test_output_shape_one_way(self):
        rng = np.random.default_rng(8)
        fq = Tensor(rng.standard_normal((4, 8)))
        protos = [Tensor(rng.standard_normal((2, 8))) for _ in range(2)]
        proj = ModelParams.create(rng, 8, 2, 1, 1, 2).proj
        assert compute_correlations(fq, protos, proj).shape == (4, 2, 8)

    def test_prototype_match_gives_unit_cosine(self):
        rng = np.random.default_rng(9)
        fg = Tensor(rng.standard_normal((3, 6)))
        fq_rows = rng.standard_normal((5, 6))
        fq_rows[2] = fg.data[1]
        sims = T.cosine_rows(Tensor(fq_rows), fg).data
        np.testing.assert_allclose(sims[2, 1], 1.0, atol=1e-12)

    def test_raw_stack_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        fq = rng.standard_normal((6, 5))
        classes = [rng.standard_normal((3, 5)) for _ in range(3)]
        stacked = np.stack(
            [T.cosine_rows(Tensor(fq), Tensor(c)).data for c in classes], axis=1
        )
        for i in range(6):
            for c, mat in enumerate(classes):
                for o in range(3):
                    want = fq[i] @ mat[o] / (np.linalg.norm(fq[i]) * np.linalg.norm(mat[o]))
                    np.testing.assert_allclose(stacked[i, c, o], want, atol=1e-12)


class TestBasePrototypeBank:
    def test_momentum_formula(self):
        bank = BasePrototypeBank.zeros([1], 4, momentum=0.9)
        bank.update_counts[0] = 1  # pretend a first update happened at zero
        bank.apply_update(1, np.ones(4))
        np.testing.assert_allclose(bank.prototypes[0], np.full(4, 0.1), rtol=1e-12)

    def test_momentum_one_freezes(self):
        bank = BasePrototypeBank.zeros([1], 4, momentum=1.0)
        bank.apply_update(1, np.ones(4))          # first update assigns
        bank.apply_update(1, np.full(4, 99.0))    # mu = 1 keeps the old value
        np.testing.assert_array_equal(bank.prototypes[0], np.ones(4))

    def test_three_updates_match_unrolled_recursion(self):
        mu = 0.8
        targets = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 2.0])]
        bank = BasePrototypeBank.zeros([7], 2, momentum=mu)
        for t in targets:
            bank.apply_update(7, t)
        want = targets[0]
        for t in targets[1:]:
            want = mu * want + (1 - mu) * t
        np.testing.assert_allclose(bank.prototypes[0], want, rtol=1e-12)

    def test_first_update_bypasses_momentum(self):
        bank = BasePrototypeBank.zeros([2], 3, momentum=0.995)
        bank.apply_update(2, np.full(3, 5.0))
        np.testing.assert_array_equal(bank.prototypes[0], np.full(3, 5.0))
        assert bank.update_counts[0] == 1

    def test_momentum_decay_law(self):
        # after the assigning first update, u-1 constant-target steps decay
        # the distance by exactly mu^(u-1)
        mu = 0.95
        first = np.array([4.0, -2.0, 1.0])
        target = np.array([1.0, 1.0, 1.0])
        bank = BasePrototypeBank.zeros([3], 3, momentum=mu)
        bank.apply_update(3, first)
        base_dist = np.linalg.norm(first - target)
        for u in range(2, 25):
            bank.apply_update(3, target)
            dist = np.linalg.norm(bank.prototypes[0] - target)
            assert abs(dist - mu ** (u - 1) * base_dist) < 1e-12

    def test_unseen_rows_exactly_zero(self):
        bank = BasePrototypeBank.zeros([1, 2, 3], 4, momentum=0.9)
        bank.apply_update(2, np.ones(4))
        assert (bank.prototypes[0] == 0).all() and (bank.prototypes[2] == 0).all()

    def test_update_from_episode_skips_absent_class(self):
        rng = np.random.default_rng(11)
        support_feats, query_feats = rng.standard_normal((10, 4)), rng.standard_normal((6, 4))
        support_labels = np.array([1] * 4 + [3] * 6)
        query_labels = np.array([3, 1, 3, 3, 1, 3])
        support = PointCloud(rng.uniform(size=(10, 3)), rng.uniform(size=(10, 3)), support_labels)
        query = PointCloud(rng.uniform(size=(6, 3)), rng.uniform(size=(6, 3)), query_labels)
        episode = Episode([[(support, support_labels == 3)]], query, (query_labels == 3).astype(np.int64), (3,))
        bank = BasePrototypeBank.zeros([1, 2], 4, momentum=0.9)
        _update_bank_from_episode(bank, episode, [Tensor(support_feats), Tensor(query_feats)])
        # class 1: one masked average per cloud, then their plain average
        want = np.mean([support_feats[:4].mean(axis=0), query_feats[[1, 4]].mean(axis=0)], axis=0)
        np.testing.assert_allclose(bank.prototypes[0], want, rtol=1e-12)
        # class 2 is in no cloud: its row stays untouched
        assert list(bank.update_counts) == [1, 0] and (bank.prototypes[1] == 0).all()

    def test_bad_momentum_rejected(self):
        for mu in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match="momentum must lie in"):
                BasePrototypeBank.zeros([1], 2, momentum=mu)


class TestBaseGuidance:
    def test_exact_match_scores_one(self):
        rng = np.random.default_rng(12)
        bank = BasePrototypeBank.zeros([1, 2], 6, momentum=0.9)
        bank.apply_update(1, rng.standard_normal(6))
        bank.apply_update(2, rng.standard_normal(6))
        fq = rng.standard_normal((4, 6))
        fq[1] = bank.prototypes[0]
        guide = base_guidance(Tensor(fq), bank, excluded=set()).data
        np.testing.assert_allclose(guide[1], 1.0, atol=1e-12)

    def test_all_excluded_gives_zeros(self):
        rng = np.random.default_rng(13)
        bank = BasePrototypeBank.zeros([1, 2], 4, momentum=0.9)
        bank.apply_update(1, rng.standard_normal(4))
        bank.apply_update(2, rng.standard_normal(4))
        guide = base_guidance(Tensor(rng.standard_normal((3, 4))), bank, excluded={1, 2})
        np.testing.assert_array_equal(guide.data, np.zeros(3))

    def test_unseen_rows_ignored(self):
        rng = np.random.default_rng(14)
        bank = BasePrototypeBank.zeros([1, 2], 4, momentum=0.9)
        guide = base_guidance(Tensor(rng.standard_normal((3, 4))), bank, excluded=set())
        np.testing.assert_array_equal(guide.data, np.zeros(3))

    def test_matches_max_cosine_oracle(self):
        rng = np.random.default_rng(15)
        bank = BasePrototypeBank.zeros(list(range(5)), 6, momentum=0.9)
        for c in range(5):
            bank.apply_update(c, rng.standard_normal(6))
        fq = rng.standard_normal((8, 6))
        guide = base_guidance(Tensor(fq), bank, excluded=set()).data
        for i in range(8):
            best = max(
                fq[i] @ p / (np.linalg.norm(fq[i]) * np.linalg.norm(p))
                for p in bank.prototypes
            )
            np.testing.assert_allclose(guide[i], best, atol=1e-12)

    def test_exclusion_equals_row_deletion(self):
        rng = np.random.default_rng(16)
        ids = [1, 2, 3, 4]
        bank = BasePrototypeBank.zeros(ids, 6, momentum=0.9)
        for c in ids:
            bank.apply_update(c, rng.standard_normal(6))
        fq = Tensor(rng.standard_normal((10, 6)))
        excluded = {2, 4}
        with_exclusion = base_guidance(fq, bank, excluded).data
        keep = [i for i, c in enumerate(ids) if c not in excluded]
        pruned = BasePrototypeBank(
            bank.prototypes[keep], bank.update_counts[keep], 0.9,
            tuple(ids[i] for i in keep),
        )
        without = base_guidance(fq, pruned, set()).data
        np.testing.assert_array_equal(with_exclusion, without)


class TestCalibrateBackground:
    def _corr(self, rng, nq=5, nc=3, d=4):
        return Tensor(rng.standard_normal((nq, nc, d)))

    def test_identity_fc_zero_guide_is_noop(self):
        rng = np.random.default_rng(17)
        corr = self._corr(rng)
        w = np.vstack([np.eye(4), rng.standard_normal((4, 4))])
        out = calibrate_background(
            corr, Tensor(np.zeros(5)), Parameter(w, "w"), Parameter(np.zeros(4), "b")
        )
        np.testing.assert_allclose(out.data, corr.data, atol=1e-15)

    def test_foreground_slices_bit_identical(self):
        rng = np.random.default_rng(18)
        corr = self._corr(rng)
        w = Parameter(rng.standard_normal((8, 4)), "w")
        b = Parameter(rng.standard_normal(4), "b")
        out = calibrate_background(corr, Tensor(rng.standard_normal(5)), w, b)
        assert (out.data[:, :2, :] == corr.data[:, :2, :]).all()

    def test_matches_affine_oracle(self):
        rng = np.random.default_rng(19)
        corr = self._corr(rng)
        guide = rng.standard_normal(5)
        w = rng.standard_normal((8, 4))
        b = rng.standard_normal(4)
        out = calibrate_background(
            corr, Tensor(guide), Parameter(w, "w"), Parameter(b, "b")
        ).data
        joint = np.hstack([corr.data[:, 2, :], np.tile(guide[:, None], (1, 4))])
        np.testing.assert_allclose(out[:, 2, :], joint @ w + b, atol=1e-12)


class TestRefineLayer:
    def test_shape_preserved_over_depths(self):
        rng = np.random.default_rng(20)
        for n_layers in (1, 2, 3):
            params = tiny_params(rng, dim=8, layers=n_layers)
            corr = Tensor(rng.standard_normal((6, 3, 8)))
            guide = Tensor(rng.standard_normal(6))
            out = corr
            for lp in params.layers:
                out = apply_refine_layer(out, guide, lp)
            assert out.shape == (6, 3, 8)

    def test_single_query_point(self):
        rng = np.random.default_rng(21)
        params = tiny_params(rng, dim=8, layers=1)
        out = apply_refine_layer(
            Tensor(rng.standard_normal((1, 2, 8))), Tensor(rng.standard_normal(1)), params.layers[0]
        )
        assert out.shape == (1, 2, 8)
        assert np.isfinite(out.data).all()

    def test_query_permutation_equivariance(self):
        rng = np.random.default_rng(22)
        params = tiny_params(rng, dim=8, layers=1)
        corr = Tensor(rng.standard_normal((9, 3, 8)))
        guide = Tensor(rng.standard_normal(9))
        base = apply_refine_layer(corr, guide, params.layers[0]).data
        perm = rng.permutation(9)
        permuted = apply_refine_layer(
            Tensor(corr.data[perm]), Tensor(guide.data[perm]), params.layers[0]
        ).data
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


class TestForwardAndLoss:
    def test_seg_shapes_by_way(self, pool8, split8, fast_config):
        rng = np.random.default_rng(23)
        params = ModelParams.create(
            rng, dim=16, n_prototypes=6, n_layers=2, heads=1,
            n_base=len(split8.train_classes),
        )
        bank = BasePrototypeBank.zeros(split8.train_classes, 16, 0.995)
        for n_way, want_cols in ((1, 2), (2, 3)):
            ep = episode_for(pool8, split8, fast_config, seed=40 + n_way, n_way=n_way)
            seg, features = forward(ep, params, bank, "train")
            assert seg.shape == (len(ep.query), want_cols)
            clouds = [cloud for way in ep.support for cloud, _ in way] + [ep.query]
            assert [f.shape for f in features] == [(len(cloud), 16) for cloud in clouds]
            base = T.mlp_forward(features[-1], params.base_head)
            assert base.shape == (len(ep.query), len(split8.train_classes) + 1)

    def test_same_params_serve_both_way_counts(self, pool8, split8, fast_config):
        # shapes above already passed: the identical `params` object ran
        # 1-way and 2-way episodes with no reshaping
        assert True

    def test_forward_deterministic(self, pool8, split8, fast_config):
        rng = np.random.default_rng(24)
        params = ModelParams.create(rng, 16, 6, 2, 1, n_base=4)
        bank = BasePrototypeBank.zeros(split8.train_classes, 16, 0.995)
        ep = episode_for(pool8, split8, fast_config, seed=50)
        a_seg, a_features = forward(ep, params, bank, "train")
        b_seg, b_features = forward(ep, params, bank, "train")
        assert (a_seg.data == b_seg.data).all()
        assert all((a.data == b.data).all() for a, b in zip(a_features, b_features))

    def test_forward_query_permutation_equivariant(self, pool8, split8, fast_config):
        rng = np.random.default_rng(25)
        params = ModelParams.create(rng, 16, 6, 2, 1, n_base=4)
        bank = BasePrototypeBank.zeros(split8.train_classes, 16, 0.995)
        for c in split8.train_classes:
            bank.apply_update(c, rng.standard_normal(16))
        ep = episode_for(pool8, split8, fast_config, seed=51)
        seg, _ = forward(ep, params, bank, "test")
        perm = rng.permutation(len(ep.query))
        permuted_ep = type(ep)(
            support=ep.support,
            query=ep.query.take(perm),
            query_gt=ep.query_gt[perm],
            target_classes=ep.target_classes,
        )
        seg_p, _ = forward(permuted_ep, params, bank, "test")
        np.testing.assert_allclose(seg_p.data, seg.data[perm], atol=1e-9)

    def test_loss_confident_correct_is_small(self):
        gt = np.array([0, 1, 1, 0])
        base_gt = np.array([0, 2, 1, 0])
        seg = np.full((4, 2), -40.0)
        seg[np.arange(4), gt] = 40.0
        base = np.full((4, 3), -40.0)
        base[np.arange(4), base_gt] = 40.0
        out = loss(Tensor(seg), Tensor(base), gt, base_gt)
        assert float(out.data) < 1e-12

    def test_loss_uniform_logits(self):
        gt = np.array([0, 1, 0, 1])
        base_gt = np.array([0, 1, 2, 3])
        out = loss(Tensor(np.zeros((4, 2))), Tensor(np.zeros((4, 4))), gt, base_gt)
        np.testing.assert_allclose(float(out.data), np.log(2) + np.log(4), rtol=1e-12)

    def test_loss_is_sum_of_terms(self):
        rng = np.random.default_rng(26)
        seg = rng.standard_normal((6, 2))
        base = rng.standard_normal((6, 5))
        gt = rng.integers(0, 2, size=6)
        base_gt = rng.integers(0, 5, size=6)
        total = float(loss(Tensor(seg), Tensor(base), gt, base_gt).data)
        a = float(T.cross_entropy(Tensor(base), base_gt).data)
        b = float(T.cross_entropy(Tensor(seg), gt).data)
        np.testing.assert_allclose(total, a + b, rtol=1e-12)

    def test_base_targets_mapping(self):
        labels = np.array([5, 2, 9, 2, -1])
        out = base_targets(labels, (2, 5))
        np.testing.assert_array_equal(out, [2, 1, 0, 1, 0])


class TestEndToEndGradient:
    def test_loss_gradient_matches_finite_differences(self):
        assert check_end_to_end(seed=99, trials=2, coords_per_param=2) < 1e-4


class TestMetaTrain:
    def test_zero_episodes_leaves_init(self, pool8, split8, fast_config):
        from pcseg.seeding import derive_seed

        result = meta_train(pool8, split8, fast_config)
        fresh = ModelParams.create(
            np.random.default_rng(derive_seed(fast_config.seed, "init")),
            dim=fast_config.dim,
            n_prototypes=fast_config.n_prototypes,
            n_layers=fast_config.hca_layers,
            heads=fast_config.heads,
            n_base=len(split8.train_classes),
        )
        for got, want in zip(result.params.parameters(), fresh.parameters()):
            assert got.name == want.name
            np.testing.assert_array_equal(got.data, want.data)
        assert (result.bank.prototypes == 0).all()
        assert result.losses == []

    def test_draws_the_train_stream(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        config = RunConfig(**{**fast_config.__dict__, "episodes": 3})
        want = [episode_key(ep) for ep in M.episode_stream(pool8, split8, "train", config, config.seed, config.episodes)]
        drawn = spy_episodes(monkeypatch)
        meta_train(pool8, split8, config)
        assert [episode_key(ep) for ep in drawn] == want

    def test_loss_trends_down_over_200_episodes(self, pool8, split8, fast_config):
        config = RunConfig(**{**fast_config.__dict__, "episodes": 200})
        result = meta_train(pool8, split8, config)
        losses = np.array(result.losses)
        assert losses.shape == (200,)
        assert np.isfinite(losses).all()
        assert losses[-50:].mean() < losses[:50].mean()

    def test_bank_rows_for_unseen_classes_stay_zero(self, pool8, split8, fast_config):
        config = RunConfig(**{**fast_config.__dict__, "episodes": 20})
        result = meta_train(pool8, split8, config)
        # test-fold classes never enter the bank (it only tracks train classes)
        assert result.bank.class_ids == split8.train_classes
        seen = result.bank.update_counts > 0
        zero_rows = (result.bank.prototypes == 0).all(axis=1)
        np.testing.assert_array_equal(zero_rows, ~seen)

    def test_nan_gradient_stops_before_the_update(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        clean = meta_train(pool8, split8, RunConfig(**{**fast_config.__dict__, "episodes": 2}))
        per_episode = 4 * fast_config.hca_layers  # layer norms per forward pass
        calls = []
        real_layer_norm = T.layer_norm

        def poisoned(t, gain, bias):
            out = real_layer_norm(t, gain, bias)
            calls.append(1)
            if len(calls) == 2 * per_episode + 1:  # the first layer norm of episode 2
                backward = out._backward

                def nan_gain(g):
                    gt, g_gain, g_bias = backward(g)
                    return gt, np.full_like(g_gain, np.nan), g_bias

                out._backward = nan_gain
            return out

        opts = []

        class Spy(T.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(T, "layer_norm", poisoned)
        monkeypatch.setattr(T, "AdamW", Spy)
        with pytest.raises(M.NonFiniteLossError, match=r"episode 2: gradient of layers\.0\.ln_point_attn\.gain"):
            meta_train(pool8, split8, RunConfig(**{**fast_config.__dict__, "episodes": 5}))
        assert opts[0].step_count == 2
        for got, want in zip(opts[0].params, clean.params.parameters()):
            assert got.name == want.name
            assert got.data.tobytes() == want.data.tobytes()


class TestEvaluate:
    @pytest.mark.parametrize("n_way", [1, 2])
    def test_ground_truth_scores_one(self, pool8, split8, fast_config, n_way):
        from pcseg import model as M

        config = RunConfig(**{**fast_config.__dict__, "n_way": n_way})
        episodes = list(M.episode_stream(pool8, split8, "test", config, 8, 4))
        result = M.score((ep.query_gt, ep) for ep in episodes)
        assert result.mean_iou == result.episode_miou_mean == 1.0
        assert result.n_episodes == 4
        assert set(result.per_class) <= set(split8.test_classes)
        assert all(iou == 1.0 for iou in result.per_class.values())

    def test_scores_the_test_stream(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        trained = meta_train(pool8, split8, fast_config)
        seed = fast_config.seed + 3  # the argument picks the stream, not the config's seed
        want = [episode_key(ep) for ep in M.episode_stream(pool8, split8, "test", fast_config, seed, 4)]
        drawn = spy_episodes(monkeypatch)
        result = M.evaluate(pool8, split8, trained.params, trained.bank, fast_config, 4, seed)
        assert [episode_key(ep) for ep in drawn] == want
        assert result.n_episodes == 4

    def test_non_finite_logits_raise(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        result = meta_train(pool8, split8, fast_config)
        real_forward = M.forward

        def nan_forward(*args, **kwargs):
            seg, features = real_forward(*args, **kwargs)
            seg.data[0, 0] = np.nan
            return seg, features

        monkeypatch.setattr(M, "forward", nan_forward)
        with pytest.raises(M.NonFiniteLossError, match="episode 0: segmentation logits"):
            M.evaluate(pool8, split8, result.params, result.bank, fast_config, 3, seed=1)

    def test_builds_no_graph(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        result = meta_train(pool8, split8, fast_config)
        kept = []
        real_forward = M.forward

        def keep(*args, **kwargs):
            seg, features = real_forward(*args, **kwargs)
            kept.append((seg, features))
            return seg, features

        made = {"nodes": 0, "closures": 0}
        real_init = T.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            real_init(tensor, *args, **kwargs)
            made["nodes"] += 1
            made["closures"] += tensor._backward is not None

        monkeypatch.setattr(M, "forward", keep)
        monkeypatch.setattr(T.Tensor, "__init__", counting_init)
        M.evaluate(pool8, split8, result.params, result.bank, fast_config, 3, seed=1)
        assert len(kept) == 3
        for seg, features in kept:
            for t in [seg, *features]:
                assert t._backward is None and t._parents == ()
        assert made["nodes"] > 100 and made["closures"] == 0

    def test_base_head_runs_only_in_training(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        heads = []
        real_mlp = T.mlp_forward

        def spy(t, params):
            heads.append(params)
            return real_mlp(t, params)

        monkeypatch.setattr(T, "mlp_forward", spy)
        config = RunConfig(**{**fast_config.__dict__, "episodes": 3})
        trained = meta_train(pool8, split8, config)
        assert sum(p is trained.params.base_head for p in heads) == 3
        heads.clear()
        M.evaluate(pool8, split8, trained.params, trained.bank, config, 4, seed=1)
        assert heads and not any(p is trained.params.base_head for p in heads)

    @pytest.mark.parametrize("where", ["logits", "forward"])
    def test_graph_recording_returns_after_a_failure(self, pool8, split8, fast_config, monkeypatch, where):
        from pcseg import model as M

        config = RunConfig(**{**fast_config.__dict__, "episodes": 3})
        clean = meta_train(pool8, split8, config)
        params = meta_train(pool8, split8, fast_config).params
        if where == "logits":  # evaluate raises after the forward pass
            params.decoder.w2.data = np.full_like(params.decoder.w2.data, 1e308)
        else:  # the forward pass itself raises, inside no_grad
            def failing(*args, **kwargs):
                raise M.NonFiniteLossError("forward failed")

            monkeypatch.setattr(M, "forward", failing)
        bank = BasePrototypeBank.zeros(split8.train_classes, fast_config.dim, fast_config.momentum)
        with np.errstate(all="ignore"), pytest.raises(M.NonFiniteLossError):
            M.evaluate(pool8, split8, params, bank, fast_config, 2, seed=1)
        monkeypatch.undo()  # meta_train runs the same `forward`
        x = Tensor(np.ones(2))
        assert T.add(x, x)._backward is not None
        again = meta_train(pool8, split8, config)  # without a graph, no gradient would reach the parameters
        assert again.losses == clean.losses
        for a, b in zip(again.params.parameters(), clean.params.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
