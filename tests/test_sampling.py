"""Samplers: quota arithmetic, determinism, and Monte Carlo expectations."""

import numpy as np
import pytest

from pcseg.geometry import PointCloud
from pcseg.sampling import (
    biased_fg_count,
    biased_sample,
    cap_points,
    leakage_audit,
)


def labeled_cloud(n, fg_count, fg_class=1, seed=0):
    """n points, the first fg_count labeled fg_class, the rest 0."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[:fg_count] = fg_class
    return PointCloud(rng.uniform(0, 1, (n, 3)), rng.random((n, 3)), labels)


class TestBiasedQuota:
    def test_proportional_branch(self):
        # n=10, m=5, 4 foreground points -> quota floor(5*4/10) = 2
        assert biased_fg_count(10, 5, 4) == 2

    def test_small_cloud_branch(self):
        # n=3 < m=5 -> quota is the whole foreground set
        assert biased_fg_count(3, 5, 2) == 2

    def test_quota_never_exceeds_foreground(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 100))
            m = int(rng.integers(1, 100))
            p = int(rng.integers(0, n + 1))
            q = biased_fg_count(n, m, p)
            assert 0 <= q <= p
            if n >= m:
                assert q <= m


class TestBiasedSample:
    def test_output_size_exact(self):
        cloud = labeled_cloud(50, 10)
        for m in (1, 7, 50, 80):
            assert len(biased_sample(cloud, m, 1, 3)) == m

    def test_no_foreground_is_plain_uniform(self):
        cloud = labeled_cloud(40, 0)
        out = biased_sample(cloud, 12, 1, 5)
        assert len(out) == 12
        assert (out.labels == 0).all()

    def test_duplicates_from_double_sampling(self):
        # 2 points, both foreground, m=4: the quota takes both, the
        # whole-cloud draw takes both again -> every point duplicated
        cloud = labeled_cloud(2, 2)
        out = biased_sample(cloud, 4, 1, 0)
        assert len(out) == 4
        assert {tuple(p) for p in out.positions} == {tuple(p) for p in cloud.positions}

    def test_rejects_bad_m(self):
        cloud = labeled_cloud(10, 2)
        with pytest.raises(ValueError):
            biased_sample(cloud, 0, 1, 0)


class TestCapPoints:
    def test_identity_when_small(self):
        cloud = labeled_cloud(100, 10)
        out = cap_points(cloud, 20_480, 0)
        assert out is cloud

    def test_caps_when_large(self):
        cloud = labeled_cloud(3000, 100)
        assert len(cap_points(cloud, 2048, 0)) == 2048


class TestLeakageAudit:
    def test_all_background(self):
        cloud = labeled_cloud(500, 0)
        rep = leakage_audit(cloud, 1, 128, "biased", 20, 0)
        assert rep.mean_output_fg_fraction == 0.0
        assert rep.input_fg_fraction == 0.0

    def test_all_foreground(self):
        cloud = labeled_cloud(500, 500)
        rep = leakage_audit(cloud, 1, 128, "biased", 20, 0)
        assert rep.mean_output_fg_fraction == 1.0
        assert rep.density_ratio == 1.0

    def test_biased_mean_within_three_standard_errors(self):
        cloud = labeled_cloud(5_000, 1_500)  # f = 0.3
        m = 1024
        trials = 1000
        rep = leakage_audit(cloud, 1, m, "biased", trials, 7)
        f = rep.input_fg_fraction
        n_fg = biased_fg_count(5_000, m, 1_500)
        expected = (n_fg + (m - n_fg) * f) / m
        # Res_2 is a without-replacement draw: binomial variance is an upper bound.
        se = np.sqrt(expected * (1 - expected) / m / trials)
        assert abs(rep.mean_output_fg_fraction - expected) < 3 * se + 1e-9

    def test_uniform_unbiased_within_three_standard_errors(self):
        cloud = labeled_cloud(5_000, 1_500)
        rep = leakage_audit(cloud, 1, 1024, "uniform", 1000, 11)
        se = np.sqrt(0.3 * 0.7 / 1024 / 1000)
        assert abs(rep.mean_output_fg_fraction - 0.3) < 3 * se + 1e-9

    def test_uniform_row_is_the_cap_when_it_draws(self):
        # n > m: trial t is one default_rng(seed + t).choice(n, m) without
        # replacement, so the report is the mean of those draws' fractions
        cloud = labeled_cloud(300, 70)
        rep = leakage_audit(cloud, 1, 64, "uniform", 7, 40)
        fractions = [
            (cloud.labels[np.random.default_rng(40 + t).choice(300, size=64, replace=False)] == 1).mean()
            for t in range(7)
        ]
        mean = float(np.array(fractions).mean())
        assert rep.mean_output_fg_fraction == mean
        assert rep.density_ratio == mean / (70 / 300)
        assert rep.expected_biased_fraction == 70 / 300

    @pytest.mark.parametrize("n", [100, 2048])
    def test_uniform_row_keeps_a_cloud_that_fits(self, n):
        # n <= m: the cap keeps every point, so the row reads the input exactly
        cloud = labeled_cloud(n, n // 5 + 1)
        rep = leakage_audit(cloud, 1, 2048, "uniform", 5, 0)
        assert rep.mean_output_fg_fraction == rep.input_fg_fraction == (n // 5 + 1) / n
        assert rep.density_ratio == 1.0

    def test_biased_dominates_uniform(self):
        for fg in (500, 2_500, 4_500):
            cloud = labeled_cloud(5_000, fg)
            biased = leakage_audit(cloud, 1, 512, "biased", 100, 3)
            uniform = leakage_audit(cloud, 1, 512, "uniform", 100, 3)
            assert biased.mean_output_fg_fraction > uniform.mean_output_fg_fraction

    def test_report_round_trip_keys(self):
        cloud = labeled_cloud(100, 20)
        rep = leakage_audit(cloud, 1, 64, "uniform", 5, 0)
        text = rep.to_text()
        keys = [line.split("=")[0] for line in text.strip().splitlines()]
        assert keys == [
            "input_fg_fraction",
            "mean_output_fg_fraction",
            "expected_biased_fraction",
            "density_ratio",
            "trials",
        ]

    def test_rejects_unknown_sampler(self):
        cloud = labeled_cloud(100, 20)
        with pytest.raises(ValueError):
            leakage_audit(cloud, 1, 64, "sobol", 5, 0)

    def test_unknown_sampler_message_names_the_samplers(self):
        cloud = labeled_cloud(100, 20)
        with pytest.raises(ValueError) as exc:
            leakage_audit(cloud, 1, 64, "Biased", 5, 0)
        assert str(exc.value) == "sampler must be one of ['biased', 'uniform'], got 'Biased'"

    @pytest.mark.parametrize("sampler", ["biased", "uniform"])
    def test_rejects_bad_m(self, sampler):
        cloud = labeled_cloud(100, 20)
        with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
            leakage_audit(cloud, 1, 0, sampler, 5, 0)
