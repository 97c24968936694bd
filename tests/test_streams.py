"""Chunked stream opening: substreams gives substream's generators bit for bit."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matprod import streams
from matprod.ensembles import make_bounded_perturbation, projected_deviation_stat
from matprod.simulate import NormBiasedTwoPointHook, ProductSpec, summarize_simulation
from matprod.streams import substream, substreams
from matprod.verify import check_subquadratic

WORD = 2**32


def assert_same_streams(seed, key, ks):
    got = list(substreams(seed, key, ks))
    assert len(got) == len(ks)
    for k, rng in zip(ks, got):
        want = substream(seed, *key, k)
        assert rng.bit_generator.state == want.bit_generator.state, k
        assert rng.random(64).tobytes() == want.random(64).tobytes(), k


def raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.type


# trial ranges that start at 0 or end at 2**32 - 1, and some in between
trial_ranges = st.one_of(
    st.integers(0, 40).map(lambda t: range(t)),
    st.integers(1, 40).map(lambda t: range(WORD - t, WORD)),
    st.tuples(st.integers(0, WORD - 1), st.integers(0, 40)).map(
        lambda a: range(a[0], min(a[0] + a[1], WORD))),
)


class TestSubstreams:
    @given(seed=st.integers(0, 2**130 - 1),
           key=st.lists(st.integers(0, 2**70 - 1), max_size=3),
           ks=trial_ranges)
    def test_equals_substream(self, seed, key, ks):
        assert_same_streams(seed, tuple(key), ks)

    @pytest.mark.parametrize("seed", [0, 1729, WORD, 3**90])
    def test_trial_numbers_past_one_word_fall_back(self, seed):
        assert_same_streams(seed, (4,), range(WORD - 3, WORD + 3))

    def test_empty_range(self):
        assert list(substreams(5, (1,), range(0))) == []

    def test_negative_seed_raises_like_substream(self):
        want = raised(lambda: substream(-1, 0))
        assert raised(lambda: list(substreams(-1, (), range(2)))) is want

    @pytest.mark.parametrize("key", [(), (3,)])
    def test_negative_trial_number_raises_like_substream(self, key):
        want = raised(lambda: substream(3, *key, -1))
        assert raised(lambda: list(substreams(3, key, [-1, 0]))) is want
        assert raised(lambda: list(substreams(3, (*key, -2), [0]))) is want

    def test_chunk_of_8192(self):
        assert_same_streams(1729, (2, 7), range(8192))

    def test_seed_words_are_c_contiguous(self):
        words = streams._chunk_state(11, (3,), np.arange(5, dtype=np.uint32))
        assert words.shape == (5, 4) and words.flags.c_contiguous


class TestChunkedCallers:
    """The per-trial stream loops never open a stream one at a time."""

    @pytest.fixture(autouse=True)
    def no_single_streams(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a per-trial stream was opened with substream")

        monkeypatch.setattr(streams, "substream", fail)

    @pytest.mark.parametrize("mode,support", [("independent", "two-point"),
                                              ("independent", "uniform-sphere"),
                                              ("inverse", "two-point")])
    def test_summaries(self, mode, support):
        e = make_bounded_perturbation(3, 0.2 * np.eye(3), 0.3, 4, support)
        summarize_simulation(ProductSpec((e,) * 4, np.eye(3), mode=mode), 50, 7)

    def test_adapted_summary(self):
        hook = NormBiasedTwoPointHook(2, scale=0.2)
        spec = ProductSpec(factors=(), z0=np.eye(2), mode="adapted", adapted_hook=hook,
                           n_steps=5)
        summarize_simulation(spec, 50, 7)

    def test_checks_and_factor_stats(self):
        check_subquadratic(4.0, 2.0, trials=5, seed=3)
        projected_deviation_stat(
            make_bounded_perturbation(2, 0.1 * np.eye(2), 0.3, 2, "uniform-sphere"), 1)
