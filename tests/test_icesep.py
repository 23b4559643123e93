"""Contradiction-filter separation: parameters, rounding, learner, coupling.

Small instance used throughout: w=8, d=4, eta=0.1, kappa=0.7, giving exact
key fraction 3/25 with block size 3 (key 24, value 176, domain 200) and a
default n of 4000 (hand-derived from the exact-fraction constraint).
"""

from fractions import Fraction

import numpy as np
import pytest

from noisylab.core import (
    DiscreteDistribution,
    RngHandle,
    Sample,
    TableHypothesis,
    draw_clean_sample,
    error_rate,
)
from noisylab.icesep import (
    BlockCounters,
    IceInstance,
    IceSepParams,
    ice_idealized_nasty_strategy,
    ice_malicious_learner,
    nasty_via_strong_malicious,
    round_vector,
)
from noisylab.codes import ReceivedWord, bitflip_list_decode, mask_to_signs
from noisylab.learn import ice_filter, ice_filter_keep, select_best_hypothesis
from noisylab.noise import (
    StrategyResult,
    contradict_replaced,
    nasty_corrupt,
    strong_malicious_corrupt,
)


def small_params(n=4000):
    return IceSepParams.create(eta=0.1, kappa=0.7, w=8, d=4, n=n)


def small_instance(n=4000, seed=0):
    return IceInstance.generate(small_params(n), RngHandle(seed))


class TestParams:
    def test_small_pack_derived_sizes(self):
        p = small_params()
        assert p.kappa_prime == pytest.approx(0.6)
        assert p.key_fraction == Fraction(3, 25)
        assert p.block_size == 3
        assert p.key_size == 24 and p.value_size == 176 and p.domain_size == 200
        assert p.R == pytest.approx(Fraction(3, 25) * 4000 / 8)

    def test_reference_pack_derived_sizes(self):
        p = IceSepParams.create(eta=0.05, kappa=0.7, w=20, d=10)
        assert p.key_fraction == Fraction(3, 50)
        assert p.block_size == 6
        assert p.key_size == 120 and p.value_size == 1880 and p.domain_size == 2000
        assert p.n == 20000  # ceil(50 w / eta)
        assert p.R == pytest.approx(60.0)
        assert p.tau == pytest.approx(0.025)
        assert p.decode_radius == 9

    def test_validation(self):
        with pytest.raises(ValueError, match="eta"):
            IceSepParams.create(eta=0.2, kappa=0.7, w=8, d=4)
        with pytest.raises(ValueError, match="kappa"):
            IceSepParams.create(eta=0.05, kappa=0.5, w=8, d=4)
        with pytest.raises(ValueError, match="d < w"):
            IceSepParams.create(eta=0.05, kappa=0.7, w=8, d=8)

    def test_exact_key_fraction(self):
        p = small_params()
        assert Fraction(p.key_size, p.domain_size) == p.key_fraction


class TestRoundVector:
    def test_extremes_deterministic(self):
        v = np.array([1.0, -1.0, 2.5, -3.0])
        for seed in range(5):
            z = round_vector(v, RngHandle(seed))
            assert z.tolist() == [1, -1, 1, -1]

    def test_unbiased(self):
        v = np.full(20000, 0.5)
        z = round_vector(v, RngHandle(1))
        assert abs(float(z.mean()) - 0.5) < 0.02  # ~3 sigma

    def test_zero_is_fair_coin(self):
        z = round_vector(np.zeros(10000), RngHandle(2))
        assert abs(float(z.mean())) < 0.03


class TestConcept:
    def test_key_side_repeats_encoded_key(self):
        inst = small_instance()
        c = inst.concept([1, -1, -1, 1])
        p = inst.params
        for j in range(p.w):
            for off in range(p.block_size):
                assert c.evaluate(j * p.block_size + off) == c.codeword.bits[j]

    def test_value_side_is_prf(self):
        from noisylab.cryptoprim import prf_truth_table

        inst = small_instance()
        c = inst.concept([1, 1, -1, -1])
        p = inst.params
        pts = np.arange(p.key_size, p.domain_size)
        assert np.array_equal(c.evaluate_many(pts), prf_truth_table(c.key, p.value_size))

    def test_key_length_validated(self):
        inst = small_instance()
        with pytest.raises(ValueError, match="bits"):
            inst.concept([1, -1])

    def test_code_dimensions_validated(self):
        from noisylab.codes import GeneratorMatrix

        with pytest.raises(ValueError, match="dimensions"):
            IceInstance(small_params(), GeneratorMatrix([0b11], 2))


class TestLearner:
    def test_clean_sample_recovery(self):
        inst = small_instance()
        for seed in range(3):
            c = inst.random_concept(RngHandle(100 + seed))
            S = draw_clean_sample(inst.distribution(), c, inst.params.n, RngHandle(seed))
            h, det = ice_malicious_learner(S, inst, RngHandle(200 + seed))
            assert not det["flagged"]
            assert det["selected_key"] == c.key
            assert error_rate(h, c, inst.distribution()) == 0.0

    def test_selection_matches_oracle(self):
        # Every decoded candidate built and scored explicitly, on a sample
        # with a tenth of its labels flipped.
        inst = small_instance()
        p = inst.params
        D = inst.distribution()
        for seed in range(4):
            c = inst.random_concept(RngHandle(300 + seed))
            S = draw_clean_sample(D, c, p.n, RngHandle(seed))
            flips = np.random.default_rng(seed).choice((-1, 1), size=p.n, p=(0.1, 0.9))
            S = Sample(S.points, S.labels * flips)
            h, det = ice_malicious_learner(S, inst, RngHandle(400 + seed))
            messages = bitflip_list_decode(
                inst.G, ReceivedWord(det["z"]), radius=p.decode_radius, cap=p.L
            )
            assert len(messages) == det["n_candidates"] > 1
            hyps = [inst.concept(mask_to_signs(m, p.d)) for m in messages]
            idx, best = select_best_hypothesis(hyps, ice_filter(S))
            assert det["selected_key"] == best.key
            assert np.array_equal(h.table, best.table)

    def test_learner_v_matches_block_counter_reconstruction(self):
        # Dual route: the learner's per-block estimate v equals the signed
        # reconstruction from the corruption accounting identity.
        inst = small_instance()
        p = inst.params
        c = inst.random_concept(RngHandle(5))
        D = inst.distribution()
        S_clean = draw_clean_sample(D, c, p.n, RngHandle(6))
        S_corr, ledger = strong_malicious_corrupt(
            S_clean, p.eta, contradict_replaced, RngHandle(7), c=c, D=D
        )
        _, det = ice_malicious_learner(S_corr, inst, RngHandle(8))
        counters = BlockCounters.from_trial(ledger, c, p)
        assert np.array_equal(
            counters.alpha_prime + counters.beta_prime,
            counters.alpha + counters.beta - counters.gamma,
        )
        v_reconstructed = counters.v_estimate(p.R, p.eta, c.codeword.bits)
        assert np.allclose(det["v"], v_reconstructed)

    def test_empty_sample_flags(self):
        inst = small_instance()
        h, det = ice_malicious_learner(Sample.empty(), inst, RngHandle(0))
        assert det["flagged"]
        assert h.domain_size == inst.params.domain_size

    def test_fully_contradictory_sample_flags(self):
        inst = small_instance()
        S = Sample.from_pairs([(0, 1), (0, -1), (5, 1), (5, -1)])
        h, det = ice_malicious_learner(S, inst, RngHandle(0))
        assert det["flagged"] and "filter" in det["flag_reason"]


class TestIdealizedNasty:
    def test_survivor_pattern(self):
        inst = small_instance()
        p = inst.params
        c = inst.random_concept(RngHandle(1))
        D = inst.distribution()
        S = draw_clean_sample(D, c, p.n, RngHandle(2))
        rate = p.kappa * p.eta
        S_corr, ledger = nasty_corrupt(
            S, rate, ice_idealized_nasty_strategy(inst), RngHandle(3), c=c, D=D
        )
        assert not ledger.flagged
        survivors = S_corr.take(ice_filter_keep(S_corr))
        assert np.all(survivors.points >= p.key_size)
        key_mask = S.points < p.key_size
        blk = p.block_of(S.points[key_mask])
        odd = int(np.sum(np.bincount(blk, minlength=p.w) % 2 == 1))
        assert len(survivors) == int((~key_mask).sum()) + odd

    def test_fresh_examples_correctly_labeled(self):
        inst = small_instance()
        c = inst.random_concept(RngHandle(1))
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(2))
        _, ledger = nasty_corrupt(
            S, 0.07, ice_idealized_nasty_strategy(inst), RngHandle(3), c=c, D=D
        )
        value_intro = ledger.introduced.points >= inst.params.key_size
        pts = ledger.introduced.points[value_intro]
        labs = ledger.introduced.labels[value_intro]
        assert np.array_equal(labs, c.evaluate_many(pts))

    def test_exhaustion_flagged(self):
        inst = small_instance()
        c = inst.random_concept(RngHandle(1))
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(2))
        _, ledger = nasty_corrupt(
            S, 0.005, ice_idealized_nasty_strategy(inst), RngHandle(3), c=c, D=D
        )
        assert ledger.flagged and ledger.flag_reason == "budget exhausted"


class TestCoupling:
    DOMAIN = 12

    @staticmethod
    def _concept():
        table = RngHandle(0).generator().choice((-1, 1), size=TestCoupling.DOMAIN)
        return TableHypothesis(table.astype(np.int8))

    def test_noop_inner_gives_filler_pairs_only(self):
        c = self._concept()
        D = DiscreteDistribution.uniform(self.DOMAIN)
        S = draw_clean_sample(D, c, 60, RngHandle(1))
        noop = lambda S_inner, z, c_, D_, rng: StrategyResult.empty()
        strong = nasty_via_strong_malicious(noop, filler_point=3)
        out, ledger = strong_malicious_corrupt(S, 0.3, strong, RngHandle(2), c=c, D=D)
        half = ledger.drawn_budget // 2
        # Surplus over the untouched inner sample: exactly `half` pairs at
        # the filler point.
        inner_mask = np.ones(60, dtype=bool)
        inner_mask[ledger.coin_set[: 2 * half]] = False
        S_inner = S.take(np.flatnonzero(inner_mask))
        diff = {
            key: out.multiset().get(key, 0) - S_inner.multiset().get(key, 0)
            for key in set(out.multiset()) | set(S_inner.multiset())
        }
        diff = {k: v for k, v in diff.items() if v}
        assert diff == ({(3, 1): half, (3, -1): half} if half else {})
        # The filter cancels the fillers exactly.
        assert ice_filter(out).multiset() == ice_filter(S_inner).multiset()

    def test_overbudget_inner_flagged_and_truncated(self):
        c = self._concept()
        D = DiscreteDistribution.uniform(self.DOMAIN)
        S = draw_clean_sample(D, c, 40, RngHandle(3))

        def greedy(S_inner, z, c_, D_, rng):
            # Ignores its budget: asks for one corruption per inner example.
            n = len(S_inner)
            return StrategyResult(np.arange(n), Sample(np.zeros(n), np.ones(n)))

        strong = nasty_via_strong_malicious(greedy)
        out, ledger = strong_malicious_corrupt(S, 0.4, strong, RngHandle(4), c=c, D=D)
        assert ledger.flagged and "non-malleable" in ledger.flag_reason
        assert ledger.budget <= 2 * (ledger.drawn_budget // 2)

    def test_multiset_identity_randomized(self):
        # Exact coupling identity over randomized trials, reconstructing the
        # simulated nasty output through the documented derived-rng path.
        c = self._concept()
        D = DiscreteDistribution.uniform(self.DOMAIN)

        def inner(S_inner, z, c_, D_, rng):
            g = rng.generator()
            k = int(g.integers(0, z + 1)) if z else 0
            idx = g.choice(len(S_inner), size=k, replace=False) if k else np.empty(0, int)
            pairs = [(g.integers(0, self.DOMAIN), g.choice((-1, 1))) for _ in idx]
            return StrategyResult(idx, Sample.from_pairs(pairs))

        strong = nasty_via_strong_malicious(inner)
        for t in range(20):
            r = RngHandle(50 + t)
            S = draw_clean_sample(D, c, 50, r.split(0))
            out, ledger = strong_malicious_corrupt(S, 0.3, strong, r.split(1), c=c, D=D)
            Z = ledger.coin_set
            half = len(Z) // 2
            mask = np.ones(50, dtype=bool)
            mask[Z[: 2 * half]] = False
            S_inner = S.take(np.flatnonzero(mask))
            res = inner(S_inner, half, c, D, r.split(1, 1, 0))
            S_nasty = S_inner.replace_at(res.positions, res.introduced.points, res.introduced.labels)
            # Filter outputs agree exactly.
            assert ice_filter(out).multiset() == ice_filter(S_nasty).multiset()
            # The raw surplus is exactly `half` contradictory pairs.
            ms_out, ms_nasty = out.multiset(), S_nasty.multiset()
            diff = {
                key: ms_out.get(key, 0) - ms_nasty.get(key, 0)
                for key in set(ms_out) | set(ms_nasty)
            }
            points = {x for x, _ in diff}
            assert all(diff.get((x, 1), 0) == diff.get((x, -1), 0) >= 0 for x in points)
            assert sum(diff.get((x, 1), 0) for x in points) == half
