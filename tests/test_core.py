"""Core types: RNG handles, samples, distributions, hypotheses, error metrics.

Oracle notes: exact error rates below are hand-computed from explicit truth
tables before being asserted; multiset oracles use collections.Counter as an
independent path.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.core import (
    DiscreteDistribution,
    FunctionHypothesis,
    LabeledExample,
    MixtureHypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
    complement,
    draw_clean_sample,
    empirical_error,
    error_rate,
    labeled_index,
    labeled_pair,
    philox_keys,
    philox_uniforms,
)


class TestRngHandle:
    def test_same_seed_same_stream(self):
        a = RngHandle(7).generator().random(5)
        b = RngHandle(7).generator().random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngHandle(7).generator().random(5)
        b = RngHandle(8).generator().random(5)
        assert not np.array_equal(a, b)

    def test_split_is_hierarchical(self):
        a = RngHandle(7).split(1, 2).generator().random(5)
        b = RngHandle(7).split(1).split(2).generator().random(5)
        assert np.array_equal(a, b)

    def test_split_children_independent(self):
        r = RngHandle(7)
        a = r.split(0).generator().random(5)
        b = r.split(1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_split_does_not_consume_parent(self):
        r = RngHandle(7)
        r.split(0).generator().random(100)
        a = r.generator().random(5)
        assert np.array_equal(a, RngHandle(7).generator().random(5))


def _seed_sequence_key(h):
    return np.random.SeedSequence(h.seed, spawn_key=(h.stream, *h.path)).generate_state(
        2, np.uint64
    )


# One id of each word length SeedSequence splits an int into: one 32-bit word
# (0 included), two, and three or more.
_ids = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**140)
)
_handles = st.builds(RngHandle, _ids, _ids, st.lists(_ids, max_size=5).map(tuple))


class TestPhiloxKeys:
    FIXED = [
        RngHandle(0),
        RngHandle(5, 3),
        RngHandle(2**32 - 1, 0, (1, 2)),
        RngHandle(2**32, 1, (2**32,)),
        RngHandle(2**64, 2, (0, 2**64 + 1, 7)),
        RngHandle(2**130, 0, ()),
        RngHandle(7, 0, (1, 0, 1)),
        RngHandle(3, 2**40, (2**32 - 1, 2**33, 0, 0, 0, 9)),
    ]

    def test_fixed_cases_in_one_batch(self):
        keys = philox_keys([h.ids for h in self.FIXED])
        assert keys.dtype == np.uint64 and keys.shape == (len(self.FIXED), 2)
        for h, key in zip(self.FIXED, keys):
            assert np.array_equal(key, _seed_sequence_key(h)), h

    def test_empty_batch(self):
        assert philox_keys([]).shape == (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_handles, min_size=1, max_size=10))
    def test_matches_seed_sequence(self, handles):
        expected = np.array([_seed_sequence_key(h) for h in handles])
        assert np.array_equal(philox_keys([h.ids for h in handles]), expected)

    @pytest.mark.parametrize(
        "bad",
        [
            RngHandle(-1),
            RngHandle(1.5),
            RngHandle(1, -2),
            RngHandle(1, 0.5),
            RngHandle(1, 0, (3, -1)),
            RngHandle(1, 0, (2.5,)),
            RngHandle(2**64, 0, (-1,)),
            RngHandle(2**64, 0, (1.0,)),
        ],
        ids=repr,
    )
    def test_invalid_ids_raise_like_seed_sequence(self, bad):
        with pytest.raises(Exception) as expected:
            _seed_sequence_key(bad)
        with pytest.raises(Exception) as got:
            philox_keys([(1, 0, 2), bad.ids])
        assert got.type is expected.type


_words = st.integers(0, 2**64 - 1)


class TestPhiloxUniforms:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_words, _words), min_size=1, max_size=8), st.integers(1, 9))
    def test_matches_numpy_philox(self, keys, m):
        # m up to 9 crosses the boundaries of Philox's 4-word blocks.
        keys = np.array(keys, np.uint64)
        expected = [np.random.Generator(np.random.Philox(key=key)).random(m) for key in keys]
        got = philox_uniforms(keys, m)
        assert got.dtype == np.float64 and got.shape == (len(keys), m)
        assert np.array_equal(got, np.array(expected))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_handles, min_size=1, max_size=6))
    def test_keys_of_ids_give_the_handle_draws(self, handles):
        got = philox_uniforms(philox_keys([h.ids for h in handles]), 5)
        assert np.array_equal(got, [h.generator().random(5) for h in handles])


class TestSample:
    def test_from_pairs_round_trip(self):
        pairs = [(3, 1), (5, -1), (3, -1)]
        S = Sample.from_pairs(pairs)
        assert [tuple(ex) for ex in S] == pairs
        assert len(S) == 3

    def test_immutable(self):
        S = Sample.from_pairs([(0, 1)])
        with pytest.raises((ValueError, AttributeError)):
            S.points[0] = 5

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Sample([0], [2])

    def test_take_and_replace(self):
        S = Sample.from_pairs([(0, 1), (1, -1), (2, 1)])
        assert S.take(np.array([2, 0])).multiset() == {(2, 1): 1, (0, 1): 1}
        S2 = S.replace_at(np.array([1]), np.array([9]), np.array([1], dtype=np.int8))
        assert S2[1] == LabeledExample(9, 1)
        assert S[1] == LabeledExample(1, -1)  # original untouched

    def test_multiset_matches_counter_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 4, size=50)
        labs = rng.choice((-1, 1), size=50)
        S = Sample(pts, labs)
        oracle = collections.Counter(zip(pts.tolist(), labs.tolist()))
        assert S.multiset() == dict(oracle)

    def test_concat(self):
        a = Sample.from_pairs([(0, 1)])
        b = Sample.from_pairs([(1, -1)])
        assert a.concat(b).multiset() == {(0, 1): 1, (1, -1): 1}

    def test_empty(self):
        assert len(Sample.empty()) == 0


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution([0.5, 0.4])  # does not sum to 1
        with pytest.raises(ValueError):
            DiscreteDistribution([-0.5, 1.5])
        with pytest.raises(ValueError):
            DiscreteDistribution([])

    def test_uniform_and_point_mass(self):
        u = DiscreteDistribution.uniform(4)
        assert np.allclose(u.weights, 0.25)
        p = DiscreteDistribution.point_mass(2, 4)
        assert p.weight(2) == 1.0 and p.weight(0) == 0.0

    def test_sampling_deterministic_and_in_range(self):
        D = DiscreteDistribution([0.5, 0.0, 0.5])
        pts = D.sample_points(1000, RngHandle(3))
        assert np.array_equal(pts, D.sample_points(1000, RngHandle(3)))
        assert set(np.unique(pts)) <= {0, 2}  # zero-weight atom never drawn

    def test_point_mass_sampling(self):
        D = DiscreteDistribution.point_mass(1, 3)
        assert np.all(D.sample_points(50, RngHandle(0)) == 1)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((-1, 1)))
def test_labeled_index_round_trip(point, label):
    assert labeled_pair(labeled_index(point, label)) == LabeledExample(point, label)


class TestHypotheses:
    def test_table_evaluate(self):
        h = TableHypothesis([1, -1, 1])
        assert h.evaluate(1) == -1
        assert np.array_equal(h.evaluate_many(np.array([0, 2])), [1, 1])

    def test_function_hypothesis(self):
        h = FunctionHypothesis(lambda p: np.where(p % 2 == 0, 1, -1), domain_size=10)
        assert h.evaluate(4) == 1 and h.evaluate(5) == -1

    def test_error_rate_hand_oracle(self):
        # D = (0.5, 0.25, 0.25); h and c disagree only at point 2 -> 0.25.
        D = DiscreteDistribution([0.5, 0.25, 0.25])
        c = TableHypothesis([1, 1, 1])
        h = TableHypothesis([1, 1, -1])
        assert error_rate(h, c, D) == pytest.approx(0.25)

    def test_mixture_error_is_mean_of_components(self):
        D = DiscreteDistribution.uniform(4)
        c = TableHypothesis([1, 1, 1, 1])
        comps = [TableHypothesis([1, 1, 1, 1]), TableHypothesis([-1, -1, -1, -1])]
        mix = MixtureHypothesis(comps)
        assert error_rate(mix, c, D) == pytest.approx(0.5)

    def test_mixture_concept_rejected(self):
        D = DiscreteDistribution.uniform(2)
        mix = MixtureHypothesis([TableHypothesis([1, 1])])
        with pytest.raises(ValueError):
            error_rate(TableHypothesis([1, 1]), mix, D)

    def test_domain_size_check(self):
        D = DiscreteDistribution.uniform(4)
        with pytest.raises(ValueError):
            error_rate(TableHypothesis([1, 1]), TableHypothesis([1] * 4), D)

    def test_complement(self):
        D = DiscreteDistribution.uniform(3)
        c = TableHypothesis([1, -1, 1])
        assert error_rate(complement(c), c, D) == pytest.approx(1.0)

    def test_empirical_error(self):
        S = Sample.from_pairs([(0, 1), (1, 1), (2, -1), (3, -1)])
        h = TableHypothesis([1, -1, -1, -1])
        assert empirical_error(h, S) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            empirical_error(h, Sample.empty())

    def test_mixture_evaluate_many_needs_rng(self):
        mix = MixtureHypothesis([TableHypothesis([1]), TableHypothesis([-1])])
        out = mix.evaluate_many(np.zeros(100, dtype=np.int64), RngHandle(0))
        assert set(np.unique(out)) == {-1, 1}


class TestDrawCleanSample:
    def test_labels_match_concept(self):
        D = DiscreteDistribution.uniform(8)
        c = TableHypothesis(np.where(np.arange(8) < 4, 1, -1))
        S = draw_clean_sample(D, c, 200, RngHandle(5))
        assert np.array_equal(S.labels, c.evaluate_many(S.points))

    def test_zero_length(self):
        D = DiscreteDistribution.uniform(2)
        assert len(draw_clean_sample(D, TableHypothesis([1, 1]), 0, RngHandle(0))) == 0



def test_constructors_leave_caller_arrays_writeable():
    from noisylab.codes import ReceivedWord

    pts, labs = np.array([0, 1]), np.array([1, -1], dtype=np.int8)
    word, table = np.array([1, 0, -1], dtype=np.int8), np.array([1, -1], dtype=np.int8)
    S, r, h = Sample(pts, labs), ReceivedWord(word), TableHypothesis(table)
    assert all(a.flags.writeable for a in (pts, labs, word, table))
    assert not any(a.flags.writeable for a in (S.points, S.labels, r.symbols, h.table))
    labs[0] = -1  # the sample holds its own copy
    assert S.labels[0] == 1


def _two():
    return Sample([0, 1], [1, -1])


def _bad_inputs():
    from noisylab.codes import GeneratorMatrix, ReceivedWord, encode, signs_to_mask
    from noisylab.cryptoprim import ExtractorSpec, PrfKey, extract

    return {
        "sample-wrapping-ints": lambda: Sample([0, 1], np.array([255, 257])),
        "sample-fraction": lambda: Sample([0], np.array([1.7])),
        "sample-int8-min": lambda: Sample([0], np.array([-128], dtype=np.int8)),
        "sample-point-fraction": lambda: Sample([2.9], [1]),
        "replace-at-label-fraction": lambda: _two().replace_at([0], [2], [1.7]),
        "replace-at-label-wrapping-int": lambda: _two().replace_at([0], [2], np.array([255])),
        "replace-at-point-fraction": lambda: _two().replace_at([0], [2.9], [-1]),
        "received-word-wrapping-int": lambda: ReceivedWord(np.array([255, 1])),
        "received-word-fraction": lambda: ReceivedWord(np.array([0.5, 1.0])),
        "received-word-int8-min": lambda: ReceivedWord(np.array([-128, 1], dtype=np.int8)),
        "received-word-erase": lambda: ReceivedWord.erase(np.array([255, 1]), [1]),
        "signs-to-mask-fraction": lambda: signs_to_mask(np.array([1.9, -1.2])),
        "encode-fraction": lambda: encode(GeneratorMatrix([0b01, 0b10], 2), [1.7, -1.2]),
        "extract-fraction": lambda: extract(np.array([1.5, -1, 1, 1]), 0, ExtractorSpec(4, 2, 2)),
        "prf-key-fraction": lambda: PrfKey.from_signs(np.array([1.7, -1.0])),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_values_checked_before_integer_cast(case):
    # Each input would wrap or truncate into {-1, 0, +1} if cast first.
    with pytest.raises(ValueError):
        _bad_inputs()[case]()
