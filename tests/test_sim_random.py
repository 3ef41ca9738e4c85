"""Unit tests for named random streams and distribution helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matchmaking.columnar import _DurationSource, _DurationStream
from repro.sim.random import (
    RandomStreams,
    derive_seed,
    drawn_in_blocks,
    lognormal_params,
    pcg64_state,
    sample_lognormal,
    sample_truncated_normal,
    seed_sequence_words,
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

    def test_fresh_restarts_the_named_sequence(self):
        streams = RandomStreams(42)
        first = streams.get("a").uniform(size=5)
        assert np.array_equal(streams.fresh("a").uniform(size=5), first)
        assert streams.fresh("a") is not streams.fresh("a")

    def test_spawn_is_reproducible(self):
        a = RandomStreams(7).spawn("child").get("s").uniform(size=4)
        b = RandomStreams(7).spawn("child").get("s").uniform(size=4)
        assert np.allclose(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")


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


class TestDrawnInBlocks:
    """A block-drawn stream yields what one draw at a time would."""

    @settings(deadline=None)
    @given(
        distribution=st.sampled_from(["random", "normal", "lognormal"]),
        block=st.integers(1, 64),
        draws=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_single_draws(self, distribution, block, draws, seed):
        args = {"random": (), "normal": (3.0, 2.0), "lognormal": (-1.0, 0.7)}[
            distribution
        ]
        single = getattr(np.random.default_rng(seed), distribution)
        blocks = getattr(np.random.default_rng(seed), distribution)
        stream = drawn_in_blocks(lambda size: blocks(*args, size=size), block)
        expected = [single(*args) for _ in range(draws)]
        got = [next(stream) for _ in range(draws)]
        assert got == expected
        assert all(type(value) is float for value in got)


class TestTruncatedNormal:
    def test_respects_bounds(self, rng):
        samples = sample_truncated_normal(rng, 100.0, 50.0, 20.0, 150.0, size=10_000)
        assert samples.min() >= 20.0
        assert samples.max() <= 150.0

    def test_empty_interval_raises(self, rng):
        with pytest.raises(ValueError):
            sample_truncated_normal(rng, 0.0, 1.0, 5.0, 5.0, size=1)

    def test_mean_approximately_preserved_for_wide_window(self, rng):
        samples = sample_truncated_normal(rng, 50.0, 5.0, 0.0, 100.0, size=50_000)
        assert samples.mean() == pytest.approx(50.0, abs=0.2)


class TestNumpyIdentities:
    """numpy behaviour the matchmaking engine relies on for bit-identity.

    If numpy's SeedSequence or PCG64 seeding, or the draw paths below,
    ever change, these fail here instead of silently moving every
    matchmaking output.
    """

    @staticmethod
    def _assert_states_match(seeds):
        words = seed_sequence_words(seeds)
        assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
        for seed, row in zip(seeds, words):
            assert np.array_equal(
                row, np.random.SeedSequence(seed).generate_state(4, np.uint64)
            ), seed
            state, inc = pcg64_state(row)
            expected = np.random.default_rng(seed).bit_generator.state
            assert expected["state"] == {"state": state, "inc": inc}, seed
            assert expected["has_uint32"] == 0

    def test_bulk_states_at_word_boundaries(self):
        self._assert_states_match([0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bulk_states_match_default_rng(self, seeds):
        self._assert_states_match(seeds)

    def test_bulk_words_of_no_seeds(self):
        assert seed_sequence_words([]).shape == (0, 4)

    def test_set_state_draws_as_default_rng(self):
        seed = derive_seed(3, "matchmaking-server:5:7")
        state, inc = pcg64_state(seed_sequence_words([seed])[0])
        shared = np.random.Generator(np.random.PCG64(0))
        # leave it mid-stream with half a uint64 buffered
        shared.integers(10, dtype=np.uint32)
        full = shared.bit_generator.state
        assert full["has_uint32"] == 1
        full.update(state={"state": state, "inc": inc}, has_uint32=0, uinteger=0)
        shared.bit_generator.state = full
        fresh = np.random.default_rng(seed)
        assert np.array_equal(
            shared.lognormal(5.0, 0.8, size=40), fresh.lognormal(5.0, 0.8, size=40)
        )

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 64, 65, 100])
    def test_refilled_duration_stream_equals_scalar_draws(self, count):
        # two streams interleave on the source's one shared generator
        mu, sigma = lognormal_params(300.0, 1.2)
        source = _DurationSource(9, n_servers=3, n_epochs=4, mu=mu, sigma=sigma)
        streams = {
            (server, epoch): _DurationStream(source, epoch * 3 + server)
            for server, epoch in ((2, 3), (0, 1))
        }
        drawn = {key: [] for key in streams}
        for _ in range(count):
            for key, stream in streams.items():
                drawn[key].append(stream.next())
        for (server, epoch), values in drawn.items():
            scalar = np.random.default_rng(
                derive_seed(9, f"matchmaking-server:{server}:{epoch}")
            )
            assert values == [float(scalar.lognormal(mu, sigma)) for _ in range(count)]

    #: (mu, sigma) of the live device's default service time (1250
    #: lookups/s, CV 0.35), and a wide one
    _LOGNORMAL = [(-7.188678000613483, 0.3399387307063912), (0.5, 1.3)]

    @pytest.mark.parametrize("mu, sigma", _LOGNORMAL)
    @pytest.mark.parametrize("n", [1, 3, 1024])
    def test_lognormal_blocks_equal_scalar_draws(self, mu, sigma, n):
        # the live device draws service times a block at a time and
        # consumes them in order: each block, a refill's included, must
        # be the next n scalar draws
        a, b = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(2):
            block = a.lognormal(mu, sigma, size=n).tolist()
            assert block == [b.lognormal(mu, sigma) for _ in range(n)]
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 7, 1000])
    def test_uniform_array_equals_random(self, n):
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        assert np.array_equal(a.uniform(size=n), b.random(n))
        assert a.bit_generator.state == b.bit_generator.state

    def test_scalar_uniform_equals_random(self):
        a, b = np.random.default_rng(22), np.random.default_rng(22)
        for _ in range(200):
            x, y = a.uniform(), b.random()
            assert type(x) is type(y) is float
            assert x == y
        assert a.bit_generator.state == b.bit_generator.state
