"""Learners and meta-learners: filter, amplification, selection, sizing.

The contradiction filter has an independent Counter-based oracle; amplify /
bad_amplify behavior is pinned down with deterministic crafted learners.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisylab.core import (
    DiscreteDistribution,
    MixtureHypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
    empirical_error,
    error_rate,
    philox_uniforms,
)
from noisylab.learn import (
    AmplifyParams,
    Learner,
    _stable_point_order,
    amplify,
    bad_amplify,
    bv_sample_size,
    ice_filter,
    ice_filter_keep,
    select_best_hypothesis,
    subsample_filter,
)

INT64_MAX = np.iinfo(np.int64).max


def _ice_oracle(pairs):
    """Independent canonical form: per point keep |c+ - c-| majority copies,
    earliest occurrences first, via plain Python counting."""
    counts = collections.Counter()
    for pt, lab in pairs:
        counts[pt, lab] += 1
    quota = {}
    for pt in {p for p, _ in pairs}:
        net = counts[pt, 1] - counts[pt, -1]
        if net != 0:
            quota[pt, 1 if net > 0 else -1] = abs(net)
    out = []
    used = collections.Counter()
    for i, (pt, lab) in enumerate(pairs):
        if (pt, lab) in quota and used[pt, lab] < quota[pt, lab]:
            used[pt, lab] += 1
            out.append(i)
    return out


class TestIceFilter:
    def test_hand_cases(self):
        # A single contradictory pair cancels entirely.
        assert len(ice_filter(Sample.from_pairs([(0, 1), (0, -1)]))) == 0
        # Odd copy survives, earliest occurrence kept.
        keep = ice_filter_keep(Sample.from_pairs([(0, 1), (0, -1), (0, 1)]))
        assert keep.tolist() == [0]
        # Mixed points.
        keep = ice_filter_keep(
            Sample.from_pairs([(1, -1), (0, 1), (1, -1), (1, 1)])
        )
        assert keep.tolist() == [0, 1]
        assert len(ice_filter(Sample.empty())) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from((-1, 1))),
            max_size=30,
        )
    )
    def test_matches_oracle(self, pairs):
        S = Sample.from_pairs(pairs) if pairs else Sample.empty()
        assert ice_filter_keep(S).tolist() == _ice_oracle(pairs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from((-1, 1))),
            max_size=30,
        )
    )
    def test_invariants(self, pairs):
        S = Sample.from_pairs(pairs) if pairs else Sample.empty()
        out = ice_filter(S)
        # Idempotent.
        assert ice_filter(out).multiset() == out.multiset()
        # No surviving contradictory pair.
        ms = out.multiset()
        assert not any(ms.get((p, 1)) and ms.get((p, -1)) for p, _ in ms)
        # Even cardinality drop.
        assert (len(S) - len(out)) % 2 == 0
        # Output multiset invariant under input permutation.
        rev = Sample.from_pairs(pairs[::-1]) if pairs else Sample.empty()
        assert ice_filter(rev).multiset() == ms

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sort_key_path_matches_stable_argsort(self, data):
        # The unique-key sort runs only for points in [0, INT64_MAX // n);
        # draw points on both sides of that limit, near its negative and
        # around zero, and require the stable argsort's positions either way.
        n = data.draw(st.integers(1, 30))
        limit = INT64_MAX // n
        # At n = 1 the limit is INT64_MAX itself: clamp the ranges to int64.
        point = st.one_of(
            st.integers(-3, 6),
            st.integers(limit - 2, min(limit + 1, INT64_MAX)),
            st.integers(max(-limit - 2, -(2**63)), -limit + 1),
            st.integers(-(2**63), INT64_MAX),
        )
        points = np.array(data.draw(st.lists(point, min_size=n, max_size=n)), np.int64)
        order, pts = _stable_point_order(points)
        expected = np.argsort(points, kind="stable")
        assert order.tolist() == expected.tolist()
        assert pts.tolist() == points[expected].tolist()

    @pytest.mark.parametrize("offset", [-1, 0], ids=["key-sort", "argsort"])
    def test_points_at_the_sort_key_limit(self, offset):
        labels = [1, -1, -1, 1, -1, 1, 1]
        top = INT64_MAX // len(labels) + offset
        pairs = list(zip([top, 0, top, top, 0, 0, top], labels))
        assert ice_filter_keep(Sample.from_pairs(pairs)).tolist() == _ice_oracle(pairs)


class TestSubsampleFilter:
    def test_subset_and_size(self):
        S = Sample.from_pairs([(i, 1) for i in range(20)])
        out = subsample_filter(S, 7, RngHandle(0))
        assert len(out) == 7 and set(out.points) <= set(range(20))
        assert len(set(out.points.tolist())) == 7  # without replacement

    def test_oversubscription_raises(self):
        S = Sample.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            subsample_filter(S, 2, RngHandle(0))


def _majority_learner(n):
    def train(points, labels, keys):
        return [TableHypothesis.constant(1 if s >= 0 else -1, 2) for s in labels.sum(axis=1)]

    return Learner(n=n, train=train, name="majority")


class TestLearner:
    def test_undersized_raises(self):
        A = _majority_learner(5)
        with pytest.raises(ValueError, match="needs 5"):
            A(Sample.from_pairs([(0, 1)]), RngHandle(0))

    def test_oversized_subsampled(self):
        A = _majority_learner(3)
        S = Sample.from_pairs([(0, 1)] * 10)
        assert A(S, RngHandle(0)).evaluate(0) == 1


def _recording_learner(n, domain=6):
    """A learner whose hypothesis records its group, its key and its draws;
    its random table makes holdout errors differ between groups."""

    def train(points, labels, keys):
        tables = np.where(philox_uniforms(keys, domain) < 0.5, 1, -1).astype(np.int8)
        hyps = []
        for p, l, key, table in zip(points, labels, keys, tables):
            h = TableHypothesis(table)
            h.record = (p.tolist(), l.tolist(), key.tolist(), table.tolist())
            hyps.append(h)
        return hyps

    return Learner(n=n, train=train, name="recording")


def _reference_groups(A, S_big, k, rng):
    """The groups and hypotheses of a plain loop over ``A(g, rng.split(1, i))``."""
    shuffled = S_big.take(rng.split(0).generator().permutation(len(S_big)))
    groups = [shuffled.take(np.arange(i * A.n, (i + 1) * A.n)) for i in range(k)]
    holdout = shuffled.take(np.arange(k * A.n, len(S_big)))
    return [A(g, rng.split(1, i)) for i, g in enumerate(groups)], holdout


_AMPLIFY_HANDLES = [
    RngHandle(0),
    RngHandle(12345),
    RngHandle(2**70 + 3),
    RngHandle(9, 4),
    RngHandle(5, 1, (2, 2**33)),
]


class TestAmplifyMatchesReferenceLoop:
    @staticmethod
    def _sample(m, seed):
        gen = np.random.default_rng(seed)
        return Sample(gen.integers(0, 6, size=m), gen.choice((-1, 1), size=m))

    @pytest.mark.parametrize("rng", _AMPLIFY_HANDLES, ids=repr)
    def test_amplify_components(self, rng):
        A, k = _recording_learner(3), 7
        S = self._sample(A.n * k, 1)
        ref, _ = _reference_groups(A, S, k, rng)
        mix = amplify(A, AmplifyParams(k=k), S, rng)
        assert [h.record for h in mix.components] == [h.record for h in ref]

    @pytest.mark.parametrize("rng", _AMPLIFY_HANDLES, ids=repr)
    def test_bad_amplify_pick(self, rng):
        A, k, n_test = _recording_learner(3), 6, 5
        S = self._sample(A.n * k + n_test, 2)
        ref, holdout = _reference_groups(A, S, k, rng)
        errors = np.array([empirical_error(h, holdout) for h in ref])
        best = np.flatnonzero(errors == errors.min())
        pick = int(best[rng.split(2).generator().integers(0, len(best))])
        assert bad_amplify(A, k, n_test, S, rng).record == ref[pick].record

    def test_call_and_amplify_share_the_train_handle(self):
        # Group i of amplify draws what A(group, rng.split(1, i)) draws, and a
        # call with handle r trains with the randomness of r.split(1).
        A, k = _recording_learner(2), 3
        for rng in _AMPLIFY_HANDLES:
            mix = amplify(A, AmplifyParams(k=k), self._sample(A.n * k, 4), rng)
            for i, h in enumerate(mix.components):
                draws = rng.split(1, i, 1).generator().random(6)
                assert h.record[3] == np.where(draws < 0.5, 1, -1).tolist()
                assert h.record[3] == A(self._sample(A.n, 3), rng.split(1, i)).record[3]

    def test_groups_build_no_seed_sequence(self, monkeypatch):
        # The k groups' keys come from one batch derivation; only the
        # permutation's handle builds a SeedSequence.
        built = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            built.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        A, k = _recording_learner(2), 50
        amplify(A, AmplifyParams(k=k), self._sample(A.n * k, 5), RngHandle(4))
        assert len(built) == 1


class TestAmplifyParams:
    def test_auto_formula(self):
        p = AmplifyParams.auto(eps_additional=0.1, delta=0.01)
        assert p.k == math.ceil(math.log(100) / 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            AmplifyParams(k=0)
        with pytest.raises(ValueError):
            AmplifyParams(k=1, delta=1.5)


class TestAmplify:
    def test_size_mismatch_raises(self):
        A = _majority_learner(2)
        with pytest.raises(ValueError, match="n·k"):
            amplify(A, AmplifyParams(k=3), Sample.from_pairs([(0, 1)] * 5), RngHandle(0))

    def test_mixture_of_k_components(self):
        A = _majority_learner(2)
        S = Sample.from_pairs([(0, 1)] * 6)
        mix = amplify(A, AmplifyParams(k=3), S, RngHandle(0))
        assert isinstance(mix, MixtureHypothesis) and len(mix.components) == 3

    def test_mixture_error_is_component_mean(self):
        # A learner whose output depends on its group's labels; with half the
        # examples labeled -1, permutation decides the component errors, and
        # the mixture error must equal their mean exactly.
        A = _majority_learner(2)
        S = Sample.from_pairs([(0, 1)] * 4 + [(0, -1)] * 4)
        mix = amplify(A, AmplifyParams(k=4), S, RngHandle(7))
        D = DiscreteDistribution.uniform(2)
        c = TableHypothesis([1, 1])
        comp_mean = np.mean([error_rate(h, c, D) for h in mix.components])
        assert error_rate(mix, c, D) == pytest.approx(comp_mean)


class TestBadAmplify:
    def test_size_mismatch_raises(self):
        A = _majority_learner(2)
        with pytest.raises(ValueError, match="n_test"):
            bad_amplify(A, 2, 1, Sample.from_pairs([(0, 1)] * 4), RngHandle(0))

    def test_selects_lowest_holdout_error(self):
        # Learner output is determined by its group content; the all-agreeing
        # holdout forces selection of a constant-(+1) hypothesis.
        A = _majority_learner(2)
        S = Sample.from_pairs([(0, 1)] * 8 + [(0, 1)] * 4)  # holdout all +1
        h = bad_amplify(A, 4, 4, S, RngHandle(1))
        assert h.evaluate(0) == 1

    def test_deterministic(self):
        A = _majority_learner(2)
        S = Sample.from_pairs([(0, 1)] * 6 + [(0, -1)] * 6)
        a = bad_amplify(A, 4, 4, S, RngHandle(2)).evaluate(0)
        b = bad_amplify(A, 4, 4, S, RngHandle(2)).evaluate(0)
        assert a == b


class TestSelectBest:
    def test_argmin_and_tie_break(self):
        S = Sample.from_pairs([(0, 1), (1, -1)])
        hyps = [
            TableHypothesis([-1, 1]),  # error 1.0
            TableHypothesis([1, -1]),  # error 0.0
            TableHypothesis([1, -1]),  # error 0.0 (tie, higher index)
        ]
        idx, best = select_best_hypothesis(hyps, S)
        assert idx == 1

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            select_best_hypothesis([], Sample.from_pairs([(0, 1)]))
        with pytest.raises(ValueError):
            select_best_hypothesis([TableHypothesis([1])], Sample.empty())


def test_bv_sample_size_formula():
    n, X, param = 3, 16, 0.5
    expected = math.ceil(n**4 * math.log2(2 * X) ** 2 / param**4)
    assert bv_sample_size(n, X, param) == expected
    assert bv_sample_size(n, X, param, C=2.0) == math.ceil(2 * n**4 * math.log2(2 * X) ** 2 / param**4)
    with pytest.raises(ValueError):
        bv_sample_size(1, 2, 0.0)

