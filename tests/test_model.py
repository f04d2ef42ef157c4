"""Model pieces: prototypes, correlations, guidance, calibration,
refinement layers, forward/loss, the bank, and the training loop."""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pcseg.tensor as T
from experiments import read_only_result
from gradient_oracles import check_end_to_end, finite_difference_check
from pcseg.episodes import Episode, generate_episode
from pcseg.geometry import EmptyMaskError, PointCloud
from pcseg.model import (
    BasePrototypeBank,
    ModelParams,
    _update_bank_from_episode,
    apply_refine_layer,
    backbone_stub,
    base_guidance,
    calibrate_background,
    compute_correlations,
    extract_prototypes,
    forward,
    loss,
    meta_train,
    train_exclusions,
)
from pcseg.seeding import derive_seed
from pcseg.synth import synth_scene
from pcseg.tensor import Parameter, Tensor


def tiny_params(rng, dim=8, n_protos=4, layers=1, heads=1, n_base=3):
    return ModelParams.create(rng, dim=dim, n_prototypes=n_protos, n_layers=layers,
                              heads=heads, n_base=n_base)


def episode_for(pool, split, config, seed=11, n_way=1, k_shot=1):
    return generate_episode(
        pool, split.train_classes, n_way, k_shot, config.min_fg_points, config.max_points, seed
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


def shot(coords, mask):
    """A support shot as an `Episode` holds it: (cloud, mask)."""
    n = len(coords)
    return PointCloud(coords, np.zeros((n, 3)), np.zeros(n, dtype=np.int64)), mask


class TestExtractPrototypes:
    def test_single_prototype_is_masked_mean(self):
        rng = np.random.default_rng(4)
        coords = rng.uniform(0, 1, (30, 3))
        feats = Tensor(rng.standard_normal((30, 8)))
        mask = rng.random(30) < 0.5
        mask[0] = True
        out = extract_prototypes([feats], [shot(coords, mask)], 1)
        np.testing.assert_allclose(out.data[0], feats.data[mask].mean(axis=0))

    def test_budget_shared_across_shots(self):
        rng = np.random.default_rng(5)
        feats, shots = [], []
        for _ in range(2):
            coords = rng.uniform(0, 1, (60, 3))
            feats.append(Tensor(rng.standard_normal((60, 8))))
            shots.append(shot(coords, np.ones(60, dtype=bool)))
        out = extract_prototypes(feats, shots, 10)
        assert out.shape == (10, 8)
        # per-shot budget 5: the first five rows come from shot 1's features
        first_shot = extract_prototypes(feats[:1], shots[:1], 5)
        np.testing.assert_array_equal(out.data[:5], first_shot.data)

    def test_cycle_duplication_when_short(self):
        rng = np.random.default_rng(6)
        coords = rng.uniform(0, 1, (10, 3))
        feats = Tensor(rng.standard_normal((10, 4)))
        mask = np.zeros(10, dtype=bool)
        mask[[1, 4, 7]] = True  # 3 masked points, 5 prototypes requested
        out = extract_prototypes([feats], [shot(coords, mask)], 5)
        assert out.shape == (5, 4)
        np.testing.assert_array_equal(out.data[3], out.data[0])
        np.testing.assert_array_equal(out.data[4], out.data[1])
        assert len({tuple(r) for r in out.data[:3]}) == 3

    def test_all_empty_masks_raise(self):
        feats = Tensor(np.zeros((5, 4)))
        with pytest.raises(EmptyMaskError):
            extract_prototypes([feats], [shot(np.zeros((5, 3)), np.zeros(5, dtype=bool))], 3)

    def test_no_shots_raise(self):
        with pytest.raises(EmptyMaskError):
            extract_prototypes([], [], 3)

    def test_empty_shots_skipped(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(0, 1, (12, 3))
        feats = Tensor(rng.standard_normal((12, 4)))
        good = np.ones(12, dtype=bool)
        out = extract_prototypes([feats, feats], [shot(coords, good), shot(coords, np.zeros(12, dtype=bool))], 4)
        assert out.shape == (4, 4)


class TestComputeCorrelations:
    def test_output_shape_one_way(self):
        rng = np.random.default_rng(8)
        fq = Tensor(rng.standard_normal((4, 8)))
        protos = [Tensor(rng.standard_normal((2, 8))) for _ in range(2)]
        proj = ModelParams.create(rng, 8, 2, 1, 1, 2).proj
        assert compute_correlations(fq, protos, proj).shape == (4, 2, 8)

    def test_unequal_prototype_counts_raise(self):
        # 2 + 1 + 3 rows fill (N_Q, 3, 2) exactly, so only the count check can catch this.
        rng = np.random.default_rng(8)
        fq = Tensor(rng.standard_normal((5, 8)))
        protos = [Tensor(rng.standard_normal((rows, 8))) for rows in (2, 1, 3)]
        proj = ModelParams.create(rng, 8, 2, 1, 1, 2).proj
        with pytest.raises(ValueError):
            compute_correlations(fq, protos, proj)


class TestBasePrototypeBank:
    def test_momentum_formula(self):
        bank = BasePrototypeBank.zeros([1], 4)
        bank.update_counts[0] = 1  # pretend a first update happened at zero
        bank.apply_update(1, np.ones(4), 0.9)
        np.testing.assert_allclose(bank.prototypes[0], np.full(4, 0.1), rtol=1e-12)

    def test_momentum_one_freezes(self):
        bank = BasePrototypeBank.zeros([1], 4)
        bank.apply_update(1, np.ones(4), 1.0)        # first update assigns
        bank.apply_update(1, np.full(4, 99.0), 1.0)  # mu = 1 keeps the old value
        np.testing.assert_array_equal(bank.prototypes[0], np.ones(4))

    def test_three_updates_match_unrolled_recursion(self):
        mu = 0.8
        targets = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([2.0, 2.0])]
        bank = BasePrototypeBank.zeros([7], 2)
        for t in targets:
            bank.apply_update(7, t, mu)
        want = targets[0]
        for t in targets[1:]:
            want = mu * want + (1 - mu) * t
        np.testing.assert_allclose(bank.prototypes[0], want, rtol=1e-12)

    def test_first_update_bypasses_momentum(self):
        bank = BasePrototypeBank.zeros([2], 3)
        bank.apply_update(2, np.full(3, 5.0), 0.995)
        np.testing.assert_array_equal(bank.prototypes[0], np.full(3, 5.0))
        assert bank.update_counts[0] == 1

    def test_update_from_episode_skips_absent_class(self):
        rng = np.random.default_rng(11)
        support_feats, query_feats = rng.standard_normal((10, 4)), rng.standard_normal((6, 4))
        support_labels = np.array([1] * 4 + [3] * 6)
        query_labels = np.array([3, 1, 3, 3, 1, 3])
        support = PointCloud(rng.uniform(size=(10, 3)), rng.uniform(size=(10, 3)), support_labels)
        query = PointCloud(rng.uniform(size=(6, 3)), rng.uniform(size=(6, 3)), query_labels)
        episode = Episode([[(support, support_labels == 3)]], query, (query_labels == 3).astype(np.int64), (3,))
        bank = BasePrototypeBank.zeros([1, 2], 4)
        _update_bank_from_episode(bank, episode, [Tensor(support_feats), Tensor(query_feats)], 0.9)
        # class 1: one masked average per cloud, then their plain average
        want = np.mean([support_feats[:4].mean(axis=0), query_feats[[1, 4]].mean(axis=0)], axis=0)
        np.testing.assert_allclose(bank.prototypes[0], want, rtol=1e-12)
        # class 2 is in no cloud: its row stays untouched
        assert list(bank.update_counts) == [1, 0] and (bank.prototypes[1] == 0).all()


class TestBaseGuidance:
    def test_all_excluded_gives_zeros(self):
        rng = np.random.default_rng(13)
        bank = BasePrototypeBank.zeros([1, 2], 4)
        bank.apply_update(1, rng.standard_normal(4), 0.9)
        bank.apply_update(2, rng.standard_normal(4), 0.9)
        guide = base_guidance(Tensor(rng.standard_normal((3, 4))), bank, excluded={1, 2})
        np.testing.assert_array_equal(guide.data, np.zeros(3))

    def test_unseen_rows_ignored(self):
        rng = np.random.default_rng(14)
        bank = BasePrototypeBank.zeros([1, 2], 4)
        guide = base_guidance(Tensor(rng.standard_normal((3, 4))), bank, excluded=set())
        np.testing.assert_array_equal(guide.data, np.zeros(3))

    def test_matches_max_cosine_oracle(self):
        rng = np.random.default_rng(15)
        bank = BasePrototypeBank.zeros(list(range(5)), 6)
        for c in range(5):
            bank.apply_update(c, rng.standard_normal(6), 0.9)
        fq = rng.standard_normal((8, 6))
        guide = base_guidance(Tensor(fq), bank, excluded=set()).data
        for i in range(8):
            best = max(
                fq[i] @ p / (np.linalg.norm(fq[i]) * np.linalg.norm(p))
                for p in bank.prototypes
            )
            np.testing.assert_allclose(guide[i], best, atol=1e-12)


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


def random_episode(rng, n_way, k_shot, n_query, n_support=60):
    """An episode of uniform random clouds, a third of each support cloud masked."""
    def cloud(n):
        return PointCloud(rng.uniform(0, 1, (n, 3)), rng.uniform(0, 1, (n, 3)), np.zeros(n, dtype=np.int64))

    mask = np.arange(n_support) < n_support // 3
    support = [[(cloud(n_support), mask) for _ in range(k_shot)] for _ in range(n_way)]
    return Episode(support, cloud(n_query), np.zeros(n_query, dtype=np.int64), tuple(range(1, n_way + 1)))


def random_model(rng, dim, heads):
    """Random-init parameters and a bank with one updated row, so guidance is not zero."""
    params = ModelParams.create(rng, dim=dim, n_prototypes=4, n_layers=1, heads=heads, n_base=3)
    bank = BasePrototypeBank.zeros((7, 8, 9), dim)
    bank.apply_update(8, rng.standard_normal(dim), 0.9)
    return params, bank


class TestBlockPath:
    # Under no_grad, `apply_refine_layer` runs one class slice and then one
    # `T.row_blocks` range of query points at a time. Query sizes 257, 513 and
    # 2049 are where that joins a one-point rest to the block before it; dims
    # 12 and 20 are where `T.splits_rows` sends both halves whole.
    # The bytes match on OpenBLAS's `SkylakeX` core, which `GOLDEN_HOST` in
    # test_golden.py names; on its `Haswell` core dims 8 and 32 differ.
    @pytest.mark.parametrize("dim,heads", [(8, 2), (12, 3), (20, 4), (32, 4)])
    def test_no_grad_forward_matches_the_graph_recording_one(self, dim, heads):
        rng = np.random.default_rng(dim)
        params, bank = random_model(rng, dim, heads)
        for n_query in (100, 256, 257, 513, 2049, 3000):
            for n_way, k_shot in ((1, 1), (3, 1), (2, 3)):
                ep = random_episode(rng, n_way, k_shot, n_query)
                recorded = forward(ep, params, bank, ())[0]
                with T.no_grad():
                    blocked = forward(ep, params, bank, ())[0]
                assert recorded._backward is not None and blocked._backward is None
                assert blocked.data.tobytes() == recorded.data.tobytes(), (n_query, n_way, k_shot)

    def test_no_grad_forward_holds_about_five_correlation_arrays(self):
        # One (N_Q, N_C, D) float64 array at 2-way, 2,048 query points and D = 32
        # is 1.5 MB; whole-tensor refine layers peak near ten of them.
        rng = np.random.default_rng(29)
        params, bank = random_model(rng, 32, 4)
        ep = random_episode(rng, 2, 1, 2048)
        with T.no_grad():
            forward(ep, params, bank, ())
            tracemalloc.start()
            try:
                forward(ep, params, bank, ())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 6 * (3 * 2048 * 32 * 8), peak


class TestForwardAndLoss:
    def test_seg_shapes_by_way(self, pool8, split8, fast_config):
        rng = np.random.default_rng(23)
        params = ModelParams.create(
            rng, dim=16, n_prototypes=6, n_layers=2, heads=1,
            n_base=len(split8.train_classes),
        )
        bank = BasePrototypeBank.zeros(split8.train_classes, 16)
        for n_way, want_cols in ((1, 2), (2, 3)):
            ep = episode_for(pool8, split8, fast_config, seed=40 + n_way, n_way=n_way)
            seg, features = forward(ep, params, bank, ep.target_classes)
            assert seg.shape == (len(ep.query), want_cols)
            clouds = [cloud for way in ep.support for cloud, _ in way] + [ep.query]
            assert [f.shape for f in features] == [(len(cloud), 16) for cloud in clouds]
            base = T.mlp_forward(features[-1], params.base_head)
            assert base.shape == (len(ep.query), len(split8.train_classes) + 1)

    def test_features_are_support_way_by_way_then_query(self, pool8, split8, fast_config):
        # `episode_loss` hands these features on, and `_update_bank_from_episode`
        # pairs them with the clouds in this order.
        params = tiny_params(np.random.default_rng(27), dim=16, n_base=len(split8.train_classes))
        bank = BasePrototypeBank.zeros(split8.train_classes, 16)
        ep = episode_for(pool8, split8, fast_config, seed=52, n_way=2, k_shot=2)
        _, features = forward(ep, params, bank, ep.target_classes)
        clouds = [cloud for way in ep.support for cloud, _ in way] + [ep.query]
        assert len(features) == len(clouds) == 5
        for feat, cloud in zip(features, clouds):
            assert feat.data.tobytes() == backbone_stub(cloud, params.stub).data.tobytes()

    def test_refine_blocks_read_c_ordered_data(self, pool8, split8, fast_config, monkeypatch):
        # Each block after a transpose of the first two axes reads a C-ordered
        # copy; a strided view made the attention and the MLPs slower.
        calls = []
        real_layer_norm = T.layer_norm

        def contiguous_only(t, gain, bias):
            assert t.data.flags.c_contiguous, t.data.strides
            calls.append(t.shape)
            return real_layer_norm(t, gain, bias)

        monkeypatch.setattr(T, "layer_norm", contiguous_only)
        params = tiny_params(np.random.default_rng(28), dim=16, layers=2, n_base=len(split8.train_classes))
        bank = BasePrototypeBank.zeros(split8.train_classes, 16)
        ep = episode_for(pool8, split8, fast_config, seed=53, n_way=2)
        forward(ep, params, bank, ep.target_classes)
        assert len(calls) == 8  # four blocks per layer

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


class TestEndToEndGradient:
    def test_checks_the_loss_training_minimizes(self, monkeypatch):
        from pcseg import model as M

        calls = []
        real_episode_loss = M.episode_loss

        def spy(*args):
            calls.append(args)
            return real_episode_loss(*args)

        monkeypatch.setattr(M, "episode_loss", spy)
        check_end_to_end(seed=99, trials=1, coords_per_param=1)
        assert calls


@pytest.fixture(scope="module")
def untrained(pool8, split8, fast_config):
    """`meta_train` at `fast_config`'s 0 episodes on `pool8`, run once: the
    model at its init and a zero bank, with every array made read-only."""
    return read_only_result(meta_train(pool8, split8, fast_config))


class TestMetaTrain:
    def test_zero_episodes_leaves_init(self, untrained, split8, fast_config):
        fresh = ModelParams.create(
            np.random.default_rng(derive_seed(fast_config.seed, "init")),
            dim=fast_config.dim,
            n_prototypes=fast_config.n_prototypes,
            n_layers=fast_config.hca_layers,
            heads=fast_config.heads,
            n_base=len(split8.train_classes),
        )
        for got, want in zip(untrained.params.parameters(), fresh.parameters()):
            assert got.name == want.name
            np.testing.assert_array_equal(got.data, want.data)
        assert (untrained.bank.prototypes == 0).all()
        assert untrained.losses == []

    def test_draws_the_train_stream(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        config = dataclasses.replace(fast_config, episodes=3)
        want = [episode_key(ep) for ep in M.episode_stream(pool8, split8, "train", config, config.seed, config.episodes)]
        drawn = spy_episodes(monkeypatch)
        meta_train(pool8, split8, config)
        assert [episode_key(ep) for ep in drawn] == want

    def test_guidance_leaves_out_train_exclusions(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        config = dataclasses.replace(fast_config, episodes=3)
        ruled, passed = [], []
        real_forward = M.forward

        def rule(episode):
            ruled.append(train_exclusions(episode))
            return ruled[-1]

        def spy(episode, params, bank, excluded):
            assert excluded == episode.target_classes
            passed.append(excluded)
            return real_forward(episode, params, bank, excluded)

        monkeypatch.setattr(M, "train_exclusions", rule)
        monkeypatch.setattr(M, "forward", spy)
        meta_train(pool8, split8, config)
        assert len(passed) == 3 and all(a is b for a, b in zip(passed, ruled))

    def test_losses_are_the_episode_loss_values(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        config = dataclasses.replace(fast_config, episodes=3)
        values, loss_calls = [], []
        real_episode_loss, real_loss = M.episode_loss, M.loss

        def spy_episode_loss(*args):
            out = real_episode_loss(*args)
            values.append(float(out[0].data))
            return out

        def spy_loss(*args):
            loss_calls.append(args)
            return real_loss(*args)

        monkeypatch.setattr(M, "episode_loss", spy_episode_loss)
        monkeypatch.setattr(M, "loss", spy_loss)
        result = meta_train(pool8, split8, config)
        assert len(values) == 3 and result.losses == values
        assert len(loss_calls) == 3

    def test_loss_trends_down_over_200_episodes(self, pool8, split8, fast_config):
        config = dataclasses.replace(fast_config, episodes=200)
        result = meta_train(pool8, split8, config)
        losses = np.array(result.losses)
        assert losses.shape == (200,)
        assert np.isfinite(losses).all()
        assert losses[-50:].mean() < losses[:50].mean()

    def test_bank_steps_at_the_config_momentum(self, pool8, split8, fast_config, tmp_path, monkeypatch):
        from pcseg import io as pio

        config = dataclasses.replace(fast_config, episodes=3, momentum=0.5)
        updates = []
        real_update = BasePrototypeBank.apply_update

        def spy(bank, class_id, new_vec, momentum):
            updates.append((class_id, np.array(new_vec)))
            return real_update(bank, class_id, new_vec, momentum)

        monkeypatch.setattr(BasePrototypeBank, "apply_update", spy)
        result = meta_train(pool8, split8, config)
        bank = result.bank
        counts = Counter(class_id for class_id, _ in updates)
        assert max(counts.values()) >= 2  # some row takes a momentum step
        replay = {}
        for class_id, vec in updates:  # the first update of a row assigns it
            replay[class_id] = 0.5 * replay[class_id] + 0.5 * vec if class_id in replay else vec
        for row, class_id in enumerate(bank.class_ids):
            np.testing.assert_array_equal(bank.prototypes[row], replay.get(class_id, np.zeros(config.dim)))
            assert bank.update_counts[row] == counts[class_id]
        path = tmp_path / "model.txt"
        pio.save_model(path, result.params, bank, config, {"fold": 0, "classes": "1,2,3,4,5,6,7,8"})
        _, loaded, loaded_config, _ = pio.load_model(path)
        assert loaded_config.momentum == 0.5 and "momentum=0.5\n" in path.read_text().split("[bank]")[1]
        np.testing.assert_array_equal(loaded.prototypes, bank.prototypes)
        np.testing.assert_array_equal(loaded.update_counts, bank.update_counts)

    def test_bank_rows_for_unseen_classes_stay_zero(self, pool8, split8, fast_config):
        config = dataclasses.replace(fast_config, episodes=20)
        result = meta_train(pool8, split8, config)
        # test-fold classes never enter the bank (it only tracks train classes)
        assert result.bank.class_ids == split8.train_classes
        seen = result.bank.update_counts > 0
        zero_rows = (result.bank.prototypes == 0).all(axis=1)
        np.testing.assert_array_equal(zero_rows, ~seen)

    def test_nan_gradient_stops_before_the_update(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        clean = meta_train(pool8, split8, dataclasses.replace(fast_config, episodes=2))
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

                out._node._backward = nan_gain
            return out

        opts = []

        class Spy(T.AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opts.append(self)

        monkeypatch.setattr(T, "layer_norm", poisoned)
        monkeypatch.setattr(T, "AdamW", Spy)
        with pytest.raises(M.NonFiniteLossError, match=r"episode 2: gradient of layers\.0\.ln_point_attn\.gain"):
            meta_train(pool8, split8, dataclasses.replace(fast_config, episodes=5))
        assert opts[0].step_count == 2
        for got, want in zip(opts[0].params, clean.params.parameters()):
            assert got.name == want.name
            assert got.data.tobytes() == want.data.tobytes()


class TestEvaluate:
    @pytest.mark.parametrize("n_way", [1, 2])
    def test_ground_truth_scores_one(self, pool8, split8, fast_config, n_way):
        from pcseg import model as M

        config = dataclasses.replace(fast_config, n_way=n_way)
        episodes = list(M.episode_stream(pool8, split8, "test", config, 8, 4))
        result = M.score((ep.query_gt, ep) for ep in episodes)
        assert result.mean_iou == result.episode_miou_mean == 1.0
        assert result.n_episodes == 4
        assert set(result.per_class) <= set(split8.test_classes)
        assert all(iou == 1.0 for iou in result.per_class.values())

    def test_an_episode_with_no_tp_fp_or_fn_is_left_out_of_the_episode_mean(self, pool8, split8, fast_config):
        from pcseg import model as M

        episode = next(M.episode_stream(pool8, split8, "test", fast_config, 8, 1))
        pred = np.where(np.arange(episode.query_gt.size) % 2, episode.query_gt, 0)
        empty = dataclasses.replace(episode, query_gt=np.zeros_like(episode.query_gt))
        ordinary = M.score([(pred, episode)])
        result = M.score([(pred, episode), (empty.query_gt, empty)])
        assert 0.0 < ordinary.episode_miou_mean < 1.0
        assert result.episode_miou_mean == ordinary.episode_miou_mean and result.n_episodes == 2

    def test_scores_the_test_stream(self, pool8, split8, fast_config, untrained, monkeypatch):
        from pcseg import model as M

        seed = fast_config.seed + 3  # the argument picks the stream, not the config's seed
        want = [episode_key(ep) for ep in M.episode_stream(pool8, split8, "test", fast_config, seed, 4)]
        drawn = spy_episodes(monkeypatch)
        result = M.evaluate(pool8, split8, untrained.params, untrained.bank, fast_config, 4, seed)
        assert [episode_key(ep) for ep in drawn] == want
        assert result.n_episodes == 4

    def test_non_finite_logits_raise(self, pool8, split8, fast_config, untrained, monkeypatch):
        from pcseg import model as M

        real_forward = M.forward

        def nan_forward(*args, **kwargs):
            seg, features = real_forward(*args, **kwargs)
            seg.data[0, 0] = np.nan
            return seg, features

        monkeypatch.setattr(M, "forward", nan_forward)
        with pytest.raises(M.NonFiniteLossError, match="episode 0: segmentation logits"):
            M.evaluate(pool8, split8, untrained.params, untrained.bank, fast_config, 3, seed=1)

    def test_builds_no_graph(self, pool8, split8, fast_config, untrained, monkeypatch):
        from pcseg import model as M

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
        M.evaluate(pool8, split8, untrained.params, untrained.bank, fast_config, 3, seed=1)
        assert len(kept) == 3
        for seg, features in kept:
            for t in [seg, *features]:
                assert t._backward is None and t._parents == ()
        assert made["nodes"] > 100 and made["closures"] == 0

    def test_a_fresh_process_reuses_the_arrays_episodes_free(self):
        # Without raised malloc thresholds glibc hands each episode's freed
        # arrays back to the kernel, and a fresh process faults about 11,400
        # pages per episode back in.
        script = """
import resource
import numpy as np
from pcseg import model as M
from pcseg.config import RunConfig
from pcseg.episodes import make_split
from pcseg.synth import make_pool

pool = make_pool(5, 12, range(1, 9), blobs_per_scene=3, points_per_blob=800)
split = make_split(range(1, 9), 0)
config = RunConfig(seed=3, dim=32, n_prototypes=10, hca_layers=2, heads=1, max_points=2048,
                   min_fg_points=100, n_way=2)
params = M.ModelParams.for_config(np.random.default_rng(0), config, len(split.train_classes))
bank = M.BasePrototypeBank.zeros(split.train_classes, config.dim)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = M.evaluate(pool, split, params, bank, config, 8, 11)
print(result.n_episodes, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        episodes, faults = map(int, proc.stdout.split())
        assert episodes == 8
        assert faults / episodes < 2_000, faults / episodes

    def test_base_head_runs_only_in_training(self, pool8, split8, fast_config, monkeypatch):
        from pcseg import model as M

        heads = []
        real_mlp = T.mlp_forward

        def spy(t, params):
            heads.append(params)
            return real_mlp(t, params)

        monkeypatch.setattr(T, "mlp_forward", spy)
        config = dataclasses.replace(fast_config, episodes=3)
        trained = meta_train(pool8, split8, config)
        assert sum(p is trained.params.base_head for p in heads) == 3
        heads.clear()
        M.evaluate(pool8, split8, trained.params, trained.bank, config, 4, seed=1)
        assert heads and not any(p is trained.params.base_head for p in heads)
