"""Core types: RNG handles, samples, distributions, hypotheses, error metrics.

Oracle notes: exact error rates below are hand-computed from explicit truth
tables before being asserted; multiset oracles use collections.Counter as an
independent path.
"""

import collections
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from noisylab.core import (
    DiscreteDistribution,
    MixtureHypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
    draw_clean_sample,
    empirical_error,
    error_rate,
    labeled_index,
)

from helpers import erase, evaluate, point_mass, sample_from_pairs


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

    def test_generator_is_sfc64_seeded_by_seed_sequence(self):
        # The layout every golden fixture rests on: the SFC64 generator
        # seeded by SeedSequence(seed, spawn_key=(0, *path)).
        # Seeds of one, three, four (no zero padding) and five 32-bit words;
        # ids at the one-to-two and two-to-three word boundaries.
        seeds = (0, 7, 2**70 + 3, 2**96, 2**128 + 1)
        paths = ((), (0,), (3, 1), (2, 2**33, 7), (2**32 - 1, 2**32, 2**64))
        for seed, path in itertools.product(seeds, paths):
            got = RngHandle(seed).split(*path).generator().bit_generator.state
            want = np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(0, *path))).state
            assert got.pop("bit_generator") == want.pop("bit_generator") == "SFC64"
            assert np.array_equal(got.pop("state")["state"], want.pop("state")["state"])
            assert got == want

    @pytest.mark.parametrize(
        "seed,path,error",
        [
            (-1, (), ValueError),
            (0, (3, -1), ValueError),
            (0, (np.int64(-2**40),), ValueError),
            (1.5, (), TypeError),
            (0, (2.0,), TypeError),
        ],
        ids=["negative-seed", "negative-id", "numpy-negative-id", "float-seed", "float-id"],
    )
    def test_seed_and_ids_are_non_negative_integers(self, seed, path, error):
        with pytest.raises(error):
            RngHandle(seed).split(*path).generator()


class TestSample:
    def test_from_pairs_round_trip(self):
        pairs = [(3, 1), (5, -1), (3, -1)]
        S = sample_from_pairs(pairs)
        assert list(zip(S.points.tolist(), S.labels.tolist())) == pairs
        assert len(S) == 3

    def test_immutable(self):
        S = sample_from_pairs([(0, 1)])
        with pytest.raises((ValueError, AttributeError)):
            S.points[0] = 5

    def test_label_validation(self):
        with pytest.raises(ValueError):
            Sample([0], [2])

    def test_take_and_replace(self):
        S = sample_from_pairs([(0, 1), (1, -1), (2, 1)])
        assert S.take(np.array([2, 0])).multiset() == {(2, 1): 1, (0, 1): 1}
        S2 = S.replace_at(np.array([1]), sample_from_pairs([(9, 1)]))
        assert (S2.points[1], S2.labels[1]) == (9, 1)
        assert (S.points[1], S.labels[1]) == (1, -1)  # original untouched

    def test_multiset_matches_counter_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 4, size=50)
        labs = rng.choice((-1, 1), size=50)
        S = Sample(pts, labs)
        oracle = collections.Counter(zip(pts.tolist(), labs.tolist()))
        assert S.multiset() == dict(oracle)

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
        for size in (0, -1):
            with pytest.raises(ValueError, match=rf"^size must be in \[1, inf\), got {size}$"):
                DiscreteDistribution.uniform(size)

    def test_uniform_and_point_mass(self):
        u = DiscreteDistribution.uniform(4)
        assert np.allclose(u.weights, 0.25)
        p = point_mass(2, 4)
        assert p.weights[2] == 1.0 and p.weights[0] == 0.0

    def test_sampling_deterministic_and_in_range(self):
        D = DiscreteDistribution([0.5, 0.0, 0.5])
        pts = D.sample_points(1000, RngHandle(3))
        assert np.array_equal(pts, D.sample_points(1000, RngHandle(3)))
        assert set(np.unique(pts)) <= {0, 2}  # zero-weight atom never drawn

    def test_point_mass_sampling(self):
        D = point_mass(1, 3)
        assert np.all(D.sample_points(50, RngHandle(0)) == 1)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from((-1, 1)))
def test_labeled_index_round_trip(point, label):
    assert labeled_index(point, label) == 2 * point + (label == -1)


class TestHypotheses:
    def test_table_evaluate(self):
        h = TableHypothesis([1, -1, 1])
        assert evaluate(h, 1) == -1
        assert np.array_equal(h.evaluate_many(np.array([0, 2])), [1, 1])

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
        short = TableHypothesis([1, 1])
        for h in (short, MixtureHypothesis([short, TableHypothesis([1] * 4)])):
            with pytest.raises(ValueError, match="hypothesis covers 2 points but the domain has 4"):
                error_rate(h, TableHypothesis([1] * 4), D)

    def test_empirical_error(self):
        S = sample_from_pairs([(0, 1), (1, 1), (2, -1), (3, -1)])
        h = TableHypothesis([1, -1, -1, -1])
        assert empirical_error(h, S) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            empirical_error(h, Sample.empty())

    @given(
        n=st.integers(1, 10**5),
        size=st.integers(1, 64),
        wrong=st.floats(0, 1),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_empirical_error_is_the_float64_mean_bit_for_bit(self, n, size, wrong, seed):
        gen = np.random.default_rng(seed)
        h = TableHypothesis(gen.choice(np.array([-1, 1], dtype=np.int8), size=size))
        pts = gen.integers(0, size, size=n)
        labs = np.where(gen.random(n) < wrong, -h.table[pts], h.table[pts])
        S = Sample(pts, labs)
        got = empirical_error(h, S)
        want = float((h.table[S.points] != S.labels).astype(np.float64).mean())
        assert type(got) is float
        assert got.hex() == want.hex()

    def test_empirical_error_point_beyond_the_table(self):
        with pytest.raises(ValueError, match="point 3 is outside the hypothesis's 2-point table"):
            empirical_error(TableHypothesis([1, 1]), Sample([3], [1]))


class TestDrawCleanSample:
    def test_labels_match_concept(self):
        D = DiscreteDistribution.uniform(8)
        c = TableHypothesis(np.where(np.arange(8) < 4, 1, -1))
        S = draw_clean_sample(D, c, 200, RngHandle(5))
        assert np.array_equal(S.labels, c.evaluate_many(S.points))

    @pytest.mark.parametrize(
        "weights", [np.full(8, 1 / 8), np.arange(8) / 28], ids=["uniform", "choice"]
    )
    def test_arrays_are_frozen_and_shared_with_nothing(self, weights):
        D = DiscreteDistribution(weights)
        c = TableHypothesis(np.where(np.arange(8) % 3 == 0, 1, -1))
        earlier = draw_clean_sample(D, c, 300, RngHandle(5))
        S = draw_clean_sample(D, c, 300, RngHandle(6))
        pts = D.sample_points(300, RngHandle(6))
        assert S == Sample(pts, c.table[pts])
        assert S.points.dtype == np.int64 and S.labels.dtype == np.int8
        for arr in (S.points, S.labels):
            assert not arr.flags.writeable
            for other in (c.table, D.weights, earlier.points, earlier.labels):
                assert not np.shares_memory(arr, other)

    def test_zero_length(self):
        D = DiscreteDistribution.uniform(2)
        assert len(draw_clean_sample(D, TableHypothesis([1, 1]), 0, RngHandle(0))) == 0

    def test_concept_smaller_than_the_domain(self):
        D = DiscreteDistribution.uniform(4)
        with pytest.raises(ValueError, match="concept covers 2 points but the domain has 4"):
            draw_clean_sample(D, TableHypothesis([1, 1]), 50, RngHandle(0))



def test_constructors_leave_caller_arrays_writeable():
    from noisylab.codes import ReceivedWord

    pts, labs = np.array([0, 1]), np.array([1, -1], dtype=np.int8)
    word, table = np.array([1, 0, -1], dtype=np.int8), np.array([1, -1], dtype=np.int8)
    S, r, h = Sample(pts, labs), ReceivedWord(word), TableHypothesis(table)
    assert all(a.flags.writeable for a in (pts, labs, word, table))
    assert not any(a.flags.writeable for a in (S.points, S.labels, r.symbols, h.table))
    labs[0] = -1  # the sample holds its own copy
    assert S.labels[0] == 1


def _bad_inputs():
    from noisylab.codes import GeneratorMatrix, ReceivedWord, encode, signs_to_mask
    from noisylab.cryptoprim import ExtractorSpec, PrfKey, extract

    return {
        "sample-wrapping-ints": lambda: Sample([0, 1], np.array([255, 257])),
        "sample-fraction": lambda: Sample([0], np.array([1.7])),
        "sample-int8-min": lambda: Sample([0], np.array([-128], dtype=np.int8)),
        "sample-point-fraction": lambda: Sample([2.9], [1]),
        "received-word-wrapping-int": lambda: ReceivedWord(np.array([255, 1])),
        "received-word-fraction": lambda: ReceivedWord(np.array([0.5, 1.0])),
        "received-word-int8-min": lambda: ReceivedWord(np.array([-128, 1], dtype=np.int8)),
        "received-word-erase": lambda: erase(np.array([255, 1]), [1]),
        "signs-to-mask-fraction": lambda: signs_to_mask(np.array([1.9, -1.2])),
        "encode-fraction": lambda: encode(GeneratorMatrix([0b01, 0b10], 2), 1.7),
        "extract-fraction": lambda: extract(np.float64(1.5), 0, ExtractorSpec(4, 2, 2)),
        "prf-key-fraction": lambda: PrfKey.from_signs(np.array([1.7, -1.0])),
        "prf-key-mask-fraction": lambda: PrfKey(2.0, 2),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_values_checked_before_integer_cast(case):
    # Each input would wrap or truncate into a valid value if cast first:
    # a ±1/0 symbol, or a packed mask in range.
    with pytest.raises(ValueError):
        _bad_inputs()[case]()


def _bad_sizes():
    from fractions import Fraction

    from noisylab.cryptoprim import ExtractorSpec, PrfDigestStore
    from noisylab.icesep import IceSepParams
    from noisylab.learn import AmplifyParams, Learner, bad_amplify
    from noisylab.noise import huber_sample, malicious_corrupt, noop
    from noisylab.sep import KeyValueLayout, SepParams

    def learner(n):
        return Learner(n=n, train=lambda points, labels, rng: [])

    sep = dict(eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15, w=8, d=4, u=2, n=4000)
    ice = dict(eta=0.1, kappa=0.7, w=8, d=4, n=4000)
    S, rng, D = sample_from_pairs([(0, 1)] * 5), RngHandle(0), DiscreteDistribution.uniform(2)
    # (call, field, bad value): the call raises "<field> must be an integer,
    # got <value>". Each once was accepted, or failed later with a TypeError.
    return {
        "AmplifyParams-k-fraction": (lambda: AmplifyParams(k=2.5), "k", 2.5),
        "AmplifyParams-k-bool": (lambda: AmplifyParams(k=True), "k", True),
        "Learner-n": (lambda: learner(2.5), "n", 2.5),
        "bad_amplify-k": (lambda: bad_amplify(learner(2), 1.5, 2, S, rng), "k", 1.5),
        "ExtractorSpec-u": (lambda: ExtractorSpec(8, 1.5, 4), "u", 1.5),
        "ExtractorSpec-u-bool": (lambda: ExtractorSpec(8, True, 4), "u", True),
        "ExtractorSpec-m_out": (lambda: ExtractorSpec(8, 2, 2.5), "m_out", 2.5),
        "PrfDigestStore-n_points": (lambda: PrfDigestStore(4, 10.5), "n_points", 10.5),
        "PrfDigestStore.packed-blocks": (
            lambda: PrfDigestStore(4, 10).packed([1], True), "blocks", True
        ),
        "SepParams-w": (lambda: SepParams(**{**sep, "w": 12.0}), "w", 12.0),
        "SepParams-d": (lambda: SepParams(**{**sep, "d": 6.5}), "d", 6.5),
        "SepParams-L": (lambda: SepParams(**{**sep, "L": 2.5}), "L", 2.5),
        "SepParams-n": (lambda: SepParams(**{**sep, "n": True}), "n", True),
        "IceSepParams-w": (lambda: IceSepParams(**{**ice, "w": 20.5}), "w", 20.5),
        "IceSepParams-d": (lambda: IceSepParams(**{**ice, "d": True}), "d", True),
        "uniform-size": (lambda: DiscreteDistribution.uniform(2.5), "size", 2.5),
        "draw_clean_sample-n": (
            lambda: draw_clean_sample(D, TableHypothesis([1, 1]), 2.5, rng), "n", 2.5
        ),
        "malicious_corrupt-n": (
            lambda: malicious_corrupt(D, TableHypothesis([1, 1]), 2.5, 0.1, noop, rng), "n", 2.5
        ),
        "huber_sample-n": (
            lambda: huber_sample(D, TableHypothesis([1, 1]), 0.1, D, True, rng), "n", True
        ),
        "KeyValueLayout.fit-w": (lambda: KeyValueLayout.fit(2.5, 3, Fraction(1, 2)), "w", 2.5),
    }


@pytest.mark.parametrize("case", sorted(_bad_sizes()))
def test_a_float_or_bool_size_is_one_error_naming_its_field(case):
    call, name, value = _bad_sizes()[case]
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
        call()


def test_numpy_integer_sizes_are_integers():
    from noisylab.bench.scenarios import ExperimentConfig
    from noisylab.learn import AmplifyParams

    config = ExperimentConfig(scenario="round-lemma", trials=np.int64(3), seed=np.uint8(7))
    assert (config.trials, config.seed) == (3, 7) and type(config.trials) is int
    assert AmplifyParams(k=np.int32(2)).k == 2
    assert len(DiscreteDistribution.uniform(np.int64(3))) == 3


def test_numpy_word_lengths_are_stored_as_ints():
    from noisylab.codes import Codeword, gen_random_linear_code
    from noisylab.cryptoprim import ExtractorSpec, PrfDigestStore, PrfKey, toeplitz_matrices

    # A numpy length of 64 once was kept as given, so 1 << w wrapped: each
    # call below raised or rejected a valid mask.
    G = gen_random_linear_code(0.5, np.int64(64), RngHandle(0))
    assert G.row_masks == gen_random_linear_code(0.5, 64, RngHandle(0)).row_masks
    word = Codeword(5, 3, np.int64(64))
    assert word == Codeword(5, 3, 64)
    spec = ExtractorSpec(w=np.int64(64), u=2, m_out=4)
    assert np.array_equal(toeplitz_matrices(spec), toeplitz_matrices(ExtractorSpec(64, 2, 4)))
    lengths = (G.w, word.w, spec.w, PrfKey(5, np.int64(64)).length,
               PrfDigestStore(np.int64(64), 10).length)
    assert [type(n) for n in lengths] == [int] * 5
