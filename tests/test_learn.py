"""Learners and meta-learners: filter, amplification, selection.

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
)
from noisylab.learn import (
    AmplifyParams,
    Learner,
    amplify,
    bad_amplify,
    ice_filter,
    ice_filter_keep,
    select_best_hypothesis,
)

from helpers import evaluate, sample_from_pairs

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
        assert len(ice_filter(sample_from_pairs([(0, 1), (0, -1)]))) == 0
        # Odd copy survives, earliest occurrence kept.
        keep = ice_filter_keep(sample_from_pairs([(0, 1), (0, -1), (0, 1)]))
        assert keep.tolist() == [0]
        # Mixed points.
        keep = ice_filter_keep(
            sample_from_pairs([(1, -1), (0, 1), (1, -1), (1, 1)])
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
        S = sample_from_pairs(pairs) if pairs else Sample.empty()
        assert ice_filter_keep(S).tolist() == _ice_oracle(pairs)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from((-1, 1))),
            max_size=30,
        )
    )
    def test_invariants(self, pairs):
        S = sample_from_pairs(pairs) if pairs else Sample.empty()
        out = ice_filter(S)
        # Idempotent.
        assert ice_filter(out).multiset() == out.multiset()
        # No surviving contradictory pair.
        ms = out.multiset()
        assert not any(ms.get((p, 1)) and ms.get((p, -1)) for p, _ in ms)
        # Even cardinality drop.
        assert (len(S) - len(out)) % 2 == 0
        # Output multiset invariant under input permutation.
        rev = sample_from_pairs(pairs[::-1]) if pairs else Sample.empty()
        assert ice_filter(rev).multiset() == ms

    @pytest.mark.parametrize("offset", [-1, 0], ids=["key-sort", "argsort"])
    def test_points_at_the_sort_key_limit(self, offset):
        # Points just below and at INT64_MAX // n, past which a packed
        # ``point * n + i`` sort key would overflow int64. The ids name the
        # side of that limit; the filter sorts both with the stable argsort.
        labels = [1, -1, -1, 1, -1, 1, 1]
        top = INT64_MAX // len(labels) + offset
        pairs = list(zip([top, 0, top, top, 0, 0, top], labels))
        assert ice_filter_keep(sample_from_pairs(pairs)).tolist() == _ice_oracle(pairs)


def _majority_learner(n):
    def train(points, labels, rng):
        return [TableHypothesis.constant(1 if s >= 0 else -1, 2) for s in labels.sum(axis=1)]

    return Learner(n=n, train=train)


class TestLearner:
    @pytest.mark.parametrize("n", [0, -1])
    def test_size_below_one_rejected(self, n):
        # n = 0 once let amplify train k hypotheses on empty groups.
        with pytest.raises(ValueError, match=f"got {n}$"):
            _majority_learner(n)


def _recording_learner(n, domain=6):
    """A learner whose hypotheses record their group, the handle ``train`` got
    and their table, one row of uniforms each from that handle; the random
    tables make holdout errors differ between groups."""

    def train(points, labels, rng):
        tables = np.where(rng.generator().random((len(points), domain)) < 0.5, 1, -1)
        hyps = []
        for p, l, table in zip(points, labels, tables.astype(np.int8)):
            h = TableHypothesis(table)
            h.record = (p.tolist(), l.tolist(), rng, table.tolist())
            hyps.append(h)
        return hyps

    return Learner(n=n, train=train)


def _reference_groups(A, S_big, k, rng):
    """A plain reference: permute with ``rng.split(0)``, slice ``k`` groups
    of ``A.n``, and train them in one call with ``rng.split(1)``. Returns the
    hypotheses and the holdout."""
    shuffled = S_big.take(rng.split(0).generator().permutation(len(S_big)))
    groups = [shuffled.take(slice(i * A.n, (i + 1) * A.n)) for i in range(k)]
    holdout = shuffled.take(slice(k * A.n, len(S_big)))
    points = np.array([g.points for g in groups])
    labels = np.array([g.labels for g in groups])
    return A.train(points, labels, rng.split(1)), holdout


_AMPLIFY_HANDLES = [
    RngHandle(0),
    RngHandle(12345),
    RngHandle(2**70 + 3),
    RngHandle(9, (4,)),
    RngHandle(5, (1, 2, 2**33)),
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

    def test_group_i_gets_row_i_of_the_train_handle(self):
        # Group i of amplify gets row i of the uniforms drawn from
        # rng.split(1).
        A, k = _recording_learner(2), 3
        for rng in _AMPLIFY_HANDLES:
            mix = amplify(A, AmplifyParams(k=k), self._sample(A.n * k, 4), rng)
            draws = rng.split(1).generator().random((k, 6))
            want = np.where(draws < 0.5, 1, -1).tolist()
            assert [h.record[3] for h in mix.components] == want

    @pytest.mark.parametrize("rng", _AMPLIFY_HANDLES, ids=repr)
    def test_train_gets_the_split_one_handle(self, rng):
        # amplify and bad_amplify each make one train call, handed exactly
        # rng.split(1): the contract a learner draws its coins by.
        handed = []
        recording = _recording_learner(2)

        def train(points, labels, trng):
            handed.append((len(points), trng))
            return recording.train(points, labels, trng)

        A, k = Learner(n=2, train=train), 5
        amplify(A, AmplifyParams(k=k), self._sample(A.n * k, 6), rng)
        bad_amplify(A, k, 3, self._sample(A.n * k + 3, 7), rng)
        assert handed == [(k, rng.split(1)), (k, rng.split(1))]

    def test_groups_build_no_seed_sequence(self, monkeypatch):
        # The k groups train from one generator: the permutation's handle and
        # the train handle build a SeedSequence each, however many groups
        # there are.
        calls = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            calls.append(args)
            return seed_sequence(*args, **kwargs)

        def built(k):
            before = len(calls)
            A = _recording_learner(2)
            amplify(A, AmplifyParams(k=k), self._sample(A.n * k, 5), RngHandle(4))
            return len(calls) - before

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        assert built(1) == built(50) == 2


class TestAmplifyParams:
    def test_auto_formula(self):
        p = AmplifyParams.auto(eps_additional=0.1, delta=0.01)
        assert p.k == math.ceil(math.log(100) / 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            AmplifyParams(k=0)
        with pytest.raises(ValueError):
            AmplifyParams(k=1, delta=1.5)

    @pytest.mark.parametrize(
        "eps_additional,delta,message",
        [
            (0, 0.01, "eps_additional must be in (0, inf), got 0"),
            (0.1, 0, "delta must be in (0, 1), got 0"),
        ],
    )
    def test_auto_checks_its_arguments_before_deriving_k(self, eps_additional, delta, message):
        with pytest.raises(ValueError) as exc:
            AmplifyParams.auto(eps_additional, delta)
        assert str(exc.value) == message

    @pytest.mark.parametrize("eps_additional", [1e-200, 1e-160], ids=["eps-squared-is-0", "k-is-inf"])
    def test_auto_rejects_a_group_count_that_is_not_finite(self, eps_additional):
        with pytest.raises(ValueError, match=r"eps_additional=1e-\d+ .* group count .* not finite"):
            AmplifyParams.auto(eps_additional, 0.01)


class TestAmplify:
    def test_size_mismatch_raises(self):
        A = _majority_learner(2)
        with pytest.raises(ValueError, match="n·k"):
            amplify(A, AmplifyParams(k=3), sample_from_pairs([(0, 1)] * 5), RngHandle(0))

    def test_mixture_of_k_components(self):
        A = _majority_learner(2)
        S = sample_from_pairs([(0, 1)] * 6)
        mix = amplify(A, AmplifyParams(k=3), S, RngHandle(0))
        assert isinstance(mix, MixtureHypothesis) and len(mix.components) == 3

    def test_mixture_error_is_component_mean(self):
        # A learner whose output depends on its group's labels; with half the
        # examples labeled -1, permutation decides the component errors, and
        # the mixture error must equal their mean exactly.
        A = _majority_learner(2)
        S = sample_from_pairs([(0, 1)] * 4 + [(0, -1)] * 4)
        mix = amplify(A, AmplifyParams(k=4), S, RngHandle(7))
        D = DiscreteDistribution.uniform(2)
        c = TableHypothesis([1, 1])
        comp_mean = np.mean([error_rate(h, c, D) for h in mix.components])
        assert error_rate(mix, c, D) == pytest.approx(comp_mean)


class TestBadAmplify:
    def test_size_mismatch_raises(self):
        A = _majority_learner(2)
        with pytest.raises(ValueError, match="n_test"):
            bad_amplify(A, 2, 1, sample_from_pairs([(0, 1)] * 4), RngHandle(0))

    def test_zero_groups_rejected(self):
        # The sample size n·k + n_test matches, so only k itself is wrong.
        A = _majority_learner(2)
        with pytest.raises(ValueError, match=r"^k must be in \[1, inf\), got 0$"):
            bad_amplify(A, 0, 4, sample_from_pairs([(0, 1)] * 4), RngHandle(0))

    @pytest.mark.parametrize("n_test", [0, -1])
    def test_empty_holdout_rejected(self, n_test):
        # The sample size n·k + n_test matches, so only n_test itself is wrong.
        A = _majority_learner(2)
        S = sample_from_pairs([(0, 1)] * (A.n * 2 + n_test))
        with pytest.raises(ValueError, match=rf"^n_test must be in \[1, inf\), got {n_test}$"):
            bad_amplify(A, 2, n_test, S, RngHandle(0))

    def test_selects_lowest_holdout_error(self):
        # Learner output is determined by its group content; the all-agreeing
        # holdout forces selection of a constant-(+1) hypothesis.
        A = _majority_learner(2)
        S = sample_from_pairs([(0, 1)] * 8 + [(0, 1)] * 4)  # holdout all +1
        h = bad_amplify(A, 4, 4, S, RngHandle(1))
        assert evaluate(h, 0) == 1

    def test_deterministic(self):
        A = _majority_learner(2)
        S = sample_from_pairs([(0, 1)] * 6 + [(0, -1)] * 6)
        a = evaluate(bad_amplify(A, 4, 4, S, RngHandle(2)), 0)
        b = evaluate(bad_amplify(A, 4, 4, S, RngHandle(2)), 0)
        assert a == b


class TestSelectBest:
    def test_argmin_and_tie_break(self):
        S = sample_from_pairs([(0, 1), (1, -1)])
        hyps = [
            TableHypothesis([-1, 1]),  # error 1.0
            TableHypothesis([1, -1]),  # error 0.0
            TableHypothesis([1, -1]),  # error 0.0 (tie, higher index)
        ]
        idx, best = select_best_hypothesis(hyps, S)
        assert idx == 1

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            select_best_hypothesis([], sample_from_pairs([(0, 1)]))
        with pytest.raises(ValueError):
            select_best_hypothesis([TableHypothesis([1])], Sample.empty())
