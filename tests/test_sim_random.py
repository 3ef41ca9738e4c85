"""Unit tests for named random streams and distribution helpers."""

import numpy as np
import pytest

from repro.sim.random import (
    DiscreteEmpirical,
    RandomStreams,
    derive_seed,
    lognormal_params,
    sample_lognormal,
    sample_truncated_normal,
)


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(42)
        assert streams.get("a") is streams.get("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(42).get("arrivals").uniform(size=5)
        b = RandomStreams(42).get("arrivals").uniform(size=5)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(42)
        a = streams.get("a").uniform(size=100)
        b = streams.get("b").uniform(size=100)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").uniform(size=10)
        b = RandomStreams(2).get("x").uniform(size=10)
        assert not np.allclose(a, b)

    def test_spawn_is_reproducible(self):
        a = RandomStreams(7).spawn("child").get("s").uniform(size=4)
        b = RandomStreams(7).spawn("child").get("s").uniform(size=4)
        assert np.allclose(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_names_tracks_created(self):
        streams = RandomStreams(0)
        streams.get("b")
        streams.get("a")
        assert streams.names() == ("a", "b")


class TestLognormal:
    def test_params_hit_target_mean_and_cv(self):
        rng = np.random.default_rng(0)
        samples = sample_lognormal(rng, mean=900.0, cv=1.1, size=200_000)
        assert samples.mean() == pytest.approx(900.0, rel=0.02)
        assert samples.std() / samples.mean() == pytest.approx(1.1, rel=0.03)

    def test_zero_cv_is_constant(self):
        mu, sigma = lognormal_params(50.0, 0.0)
        assert sigma == 0.0
        assert np.exp(mu) == pytest.approx(50.0)

    def test_invalid_mean_raises(self):
        with pytest.raises(ValueError):
            lognormal_params(0.0, 1.0)

    def test_negative_cv_raises(self):
        with pytest.raises(ValueError):
            lognormal_params(10.0, -0.5)


class TestTruncatedNormal:
    def test_respects_bounds(self, rng):
        samples = sample_truncated_normal(rng, 100.0, 50.0, 20.0, 150.0, size=10_000)
        assert samples.min() >= 20.0
        assert samples.max() <= 150.0

    def test_scalar_draw(self, rng):
        value = sample_truncated_normal(rng, 40.0, 5.0, 20.0, 70.0)
        assert isinstance(value, float)
        assert 20.0 <= value <= 70.0

    @pytest.mark.parametrize(
        "window",
        [
            (40.0, 5.0, 20.0, 70.0),  # almost every draw lands inside
            (0.0, 1.0, 2.5, 3.0),  # ~8% per round: often several rounds
            (0.0, 1.0, 9.0, 10.0),  # far tail: all 64 rounds, then the clip
        ],
    )
    def test_scalar_draw_matches_size_one(self, window):
        scalar = np.random.default_rng(11)
        array = np.random.default_rng(11)
        for _ in range(40):
            value = sample_truncated_normal(scalar, *window)
            assert isinstance(value, float)
            assert value == sample_truncated_normal(array, *window, size=1)[0]
        assert scalar.bit_generator.state == array.bit_generator.state

    def test_empty_interval_raises(self, rng):
        with pytest.raises(ValueError):
            sample_truncated_normal(rng, 0.0, 1.0, 5.0, 5.0)

    def test_mean_approximately_preserved_for_wide_window(self, rng):
        samples = sample_truncated_normal(rng, 50.0, 5.0, 0.0, 100.0, size=50_000)
        assert samples.mean() == pytest.approx(50.0, abs=0.2)


class TestDiscreteEmpirical:
    def test_mean_and_variance(self):
        dist = DiscreteEmpirical([10.0, 20.0], [1.0, 1.0])
        assert dist.mean == pytest.approx(15.0)
        assert dist.variance == pytest.approx(25.0)

    def test_sampling_follows_weights(self, rng):
        dist = DiscreteEmpirical([0.0, 1.0], [1.0, 3.0])
        samples = dist.sample(rng, size=40_000)
        assert samples.mean() == pytest.approx(0.75, abs=0.01)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            DiscreteEmpirical([1.0, 2.0], [1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            DiscreteEmpirical([1.0], [-1.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DiscreteEmpirical([], [])
