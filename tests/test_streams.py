"""Streams: uniforms gives substream's doubles bit for bit without opening a
generator, and the Monte Carlo kernel opens one only for a drawn factor."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matprod import simulate, streams
from matprod.ensembles import make_bounded_perturbation
from matprod.simulate import ProductSpec, summarize_simulation
from matprod.streams import substream, uniforms

WORD = 2**32


def assert_same_uniforms(seed, key, ks, n):
    got = uniforms(seed, key, ks, n)
    assert got.shape == (len(ks), n) and got.dtype == np.float64
    for k, row in zip(ks, got):
        assert row.tobytes() == substream(seed, *key, k).random(n).tobytes(), k


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


class TestUniforms:
    @given(seed=st.integers(0, 2**130 - 1),
           key=st.lists(st.integers(0, 2**70 - 1), max_size=3),
           ks=trial_ranges, n=st.integers(1, 300))
    def test_equals_substream(self, seed, key, ks, n):
        assert_same_uniforms(seed, tuple(key), ks, n)

    @pytest.mark.parametrize("seed", [0, 1729, WORD, 3**90])
    def test_trial_numbers_past_one_word_fall_back(self, seed):
        assert_same_uniforms(seed, (4,), range(WORD - 3, WORD + 3), 50)

    @pytest.mark.parametrize("n", [1, streams._CLOSED_DRAWS, streams._CLOSED_DRAWS + 1])
    def test_row_lengths_at_the_closed_form_limit(self, n):
        assert_same_uniforms(1729, (2, 7), range(300), n)

    def test_empty_range(self):
        assert uniforms(5, (1,), range(0), 7).shape == (0, 7)

    def test_negative_seed_raises_like_substream(self):
        want = raised(lambda: substream(-1, 0))
        assert raised(lambda: uniforms(-1, (), range(2), 3)) is want

    @pytest.mark.parametrize("key", [(), (3,)])
    def test_negative_trial_number_raises_like_substream(self, key):
        want = raised(lambda: substream(3, *key, -1))
        assert raised(lambda: uniforms(3, key, [-1, 0], 5)) is want
        assert raised(lambda: uniforms(3, (*key, -2), [0], 5)) is want

    def test_jump_table_sums_are_exact(self):
        # 16 limbs below 2**16 and a 1 against a column stay below 2**53, so
        # every partial sum of the float64 matmul is an exact integer
        table = streams._JUMPS
        assert table.shape == (4, 17, streams._CLOSED_DRAWS)
        assert np.array_equal(table, np.floor(table)) and table.min() >= 0
        assert table[:, :16].max() < 2**32 and table[:, 16].max() < 2**52 + 2**32
        assert ((2**16 - 1) * table[:, :16].sum(axis=1) + table[:, 16]).max() < 2**53


class TestChunkedCallers:
    """A finite-support chunk computes its uniforms; a trial with a drawn factor
    opens its own stream."""

    @pytest.mark.parametrize("mode,supports,opened", [
        ("independent", ["two-point"], 0),
        ("independent", ["uniform-sphere"], 50),
        ("inverse", ["two-point"], 0),
        ("independent", ["two-point", "uniform-sphere"], 50),
    ], ids=["independent-two-point", "independent-uniform-sphere", "inverse-two-point",
            "independent-mixed"])
    def test_summaries(self, mode, supports, opened, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return substream(*args)

        monkeypatch.setattr(simulate, "substream", counting)
        factors = [make_bounded_perturbation(3, 0.2 * np.eye(3), 0.3, 4, support)
                   for support in supports]
        summarize_simulation(ProductSpec(tuple(factors) * 4, np.eye(3), mode=mode), 50, 7)
        assert len(calls) == opened

