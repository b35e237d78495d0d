"""Unit tests for seeded randomness and the bounded Zipfian sampler."""

import numpy as np
import pytest

from repro.sim.rng import ZipfianSampler, derive_rng, make_rng, scrambled


def test_make_rng_deterministic():
    a = make_rng(42).integers(0, 1000, size=10)
    b = make_rng(42).integers(0, 1000, size=10)
    assert (a == b).all()


def test_make_rng_different_seeds_differ():
    a = make_rng(1).integers(0, 10**9)
    b = make_rng(2).integers(0, 10**9)
    assert a != b


def test_derive_rng_streams_independent():
    parent = make_rng(7)
    c1 = derive_rng(parent, 0)
    parent2 = make_rng(7)
    c2 = derive_rng(parent2, 1)
    assert c1.integers(0, 10**9) != c2.integers(0, 10**9)


class TestZipfianSampler:
    def test_samples_within_bounds(self):
        sampler = ZipfianSampler(100, seed=1)
        samples = sampler.sample(10_000)
        assert samples.min() >= 0
        assert samples.max() < 100

    def test_rank_zero_is_hottest(self):
        sampler = ZipfianSampler(1000, theta=0.99, seed=1)
        samples = sampler.sample(50_000)
        counts = np.bincount(samples, minlength=1000)
        assert counts[0] == counts.max()

    def test_skew_increases_with_theta(self):
        flat = ZipfianSampler(100, theta=0.0, seed=1).sample(20_000)
        skewed = ZipfianSampler(100, theta=1.2, seed=1).sample(20_000)
        top_flat = (flat == 0).mean()
        top_skewed = (skewed == 0).mean()
        assert top_skewed > 3 * top_flat

    def test_theta_zero_is_uniform(self):
        samples = ZipfianSampler(10, theta=0.0, seed=3).sample(100_000)
        counts = np.bincount(samples, minlength=10)
        assert counts.min() > 0.8 * counts.mean()

    def test_deterministic_given_seed(self):
        a = ZipfianSampler(50, seed=9).sample(100)
        b = ZipfianSampler(50, seed=9).sample(100)
        assert (a == b).all()

    def test_sample_one(self):
        sampler = ZipfianSampler(10, seed=0)
        assert 0 <= sampler.sample_one() < 10

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
    def test_one_batch_draws_the_keys_of_scalar_calls(self, seed):
        """``sample(n)`` is ``n`` calls of ``sample_one()``: each key costs
        one double from the same stream, so batching changes no key."""
        n = 500
        scalar = ZipfianSampler(1000, theta=0.9, seed=seed)
        reference = [scalar.sample_one() for _ in range(n)]
        batch = ZipfianSampler(1000, theta=0.9, seed=seed).sample(n)
        assert batch.tolist() == reference

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianSampler(0)
        with pytest.raises(ValueError):
            ZipfianSampler(10, theta=-1.0)


def test_scrambled_is_permutation_like():
    keys = np.arange(1000)
    out = scrambled(keys, 1000)
    assert out.min() >= 0
    assert out.max() < 1000
    # The multiplicative hash must spread the head of the distribution.
    head = scrambled(np.arange(10), 1000)
    assert len(np.unique(head)) == 10
    assert head.std() > 50
