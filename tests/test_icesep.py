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
    IceInstance,
    IceSepParams,
    ice_idealized_nasty_strategy,
    ice_malicious_learner,
    nasty_via_strong_malicious,
    round_vector,
)
from noisylab import cryptoprim
from noisylab.codes import ReceivedWord, bitflip_list_decode, encode
from noisylab.cryptoprim import PrfKey
from noisylab.learn import ice_filter, ice_filter_keep, select_best_hypothesis
from noisylab.noise import (
    StrategyResult,
    contradict_replaced,
    nasty_corrupt,
    strong_malicious_corrupt,
)

from helpers import BlockCounters, evaluate, sample_from_pairs


def small_params(n=4000):
    return IceSepParams(eta=0.1, kappa=0.7, w=8, d=4, n=n)


def small_instance(n=4000, seed=0):
    return IceInstance.generate(small_params(n), RngHandle(seed))


class TestParams:
    def test_small_pack_derived_sizes(self):
        p = small_params()
        assert p.key_fraction == Fraction(3, 25)
        assert p.layout.block_size == 3
        layout = p.layout
        assert layout.key_size == 24 and layout.value_size == 176 and layout.domain_size == 200
        assert p.R == pytest.approx(Fraction(3, 25) * 4000 / 8)

    def test_reference_pack_derived_sizes(self):
        p = IceSepParams(eta=0.05, kappa=0.7, w=20, d=10)
        assert p.key_fraction == Fraction(3, 50)
        assert p.layout.block_size == 6
        layout = p.layout
        assert layout.key_size == 120 and layout.value_size == 1880 and layout.domain_size == 2000
        assert p.n == 20000  # ceil(50 w / eta)
        assert p.R == pytest.approx(60.0)
        assert p.tau == pytest.approx(0.025)
        assert p.decode_radius == 9

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^eta must be in \(0, 0\.1\], got 0\.2$"):
            IceSepParams(eta=0.2, kappa=0.7, w=8, d=4)
        with pytest.raises(ValueError, match=r"^kappa must be in \(0\.5, 1\), got 0\.5$"):
            IceSepParams(eta=0.05, kappa=0.5, w=8, d=4)
        with pytest.raises(ValueError, match=r"^need d < w for a rate < 1 code$"):
            IceSepParams(eta=0.05, kappa=0.7, w=8, d=8)
        with pytest.raises(ValueError, match=r"^n must be in \[1, inf\), got 0$"):
            small_params(0)

    def test_exact_key_fraction(self):
        p = small_params()
        assert Fraction(p.layout.key_size, p.layout.domain_size) == p.key_fraction


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
        c = inst.concept(PrfKey.from_signs([1, -1, -1, 1]))
        p = inst.params
        assert c.key == PrfKey(0b0110, 4) and c.codeword == encode(inst.G, 0b0110)
        for j in range(p.w):
            for off in range(p.layout.block_size):
                assert evaluate(c, j * p.layout.block_size + off) == c.codeword.bits[j]

    def test_value_side_is_prf(self):
        from noisylab.cryptoprim import prf_truth_table

        inst = small_instance()
        c = inst.concept(PrfKey(0b1100, 4))
        p = inst.params
        pts = np.arange(p.layout.key_size, p.layout.domain_size)
        assert np.array_equal(c.evaluate_many(pts), prf_truth_table(c.key, p.layout.value_size))

    def test_key_length_validated(self):
        inst = small_instance()
        with pytest.raises(ValueError, match="bits"):
            inst.concept(PrfKey(0b10, 2))

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

    def test_truth_and_winner_hashed_once(self, monkeypatch):
        # The truth concept, the learner's scoring and its winner all read
        # the instance store, so the truth key is hashed once.
        hashed = []
        digests = cryptoprim._prf_digests

        def counting(key_bytes, counters):
            hashed.append(key_bytes)
            return digests(key_bytes, counters)

        monkeypatch.setattr(cryptoprim, "_prf_digests", counting)
        inst = small_instance()
        c = inst.random_concept(RngHandle(100))
        S = draw_clean_sample(inst.distribution(), c, inst.params.n, RngHandle(0))
        _, det = ice_malicious_learner(S, inst, RngHandle(200))
        assert det["selected_key"] == c.key
        assert hashed.count(c.key.mask.to_bytes(-(-c.key.length // 8), "little")) == 1
        assert len(hashed) == len(set(hashed))

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
            hyps = [inst.concept(PrfKey(m, p.d)) for m in messages]
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
            S_clean, p.eta, contradict_replaced, RngHandle(7), c=c
        )
        _, det = ice_malicious_learner(S_corr, inst, RngHandle(8))
        counters = BlockCounters.from_trial(ledger, c, p)
        assert np.array_equal(
            counters.alpha_prime + counters.beta_prime,
            counters.alpha + counters.beta - counters.gamma,
        )
        v_reconstructed = counters.v_estimate(p.R, p.eta, c.codeword.bits)
        assert np.allclose(det["v"], v_reconstructed)

    @staticmethod
    def with_contradictions(S, gen, domain_size):
        """``S`` with contradictory pairs inserted in random order: about half
        at points of ``S``, the rest at uniform points, some repeated."""
        n_pairs = int(gen.integers(1, len(S) + 50))
        n_old = n_pairs // 2 if len(S) else 0
        at = np.concatenate([
            gen.choice(S.points, size=n_old),
            gen.integers(0, domain_size, size=n_pairs - n_old),
        ])
        points = np.concatenate([S.points, at, at])
        labels = np.concatenate([S.labels, np.ones(n_pairs, np.int8), -np.ones(n_pairs, np.int8)])
        order = gen.permutation(len(points))
        return Sample(points[order], labels[order])

    def test_output_depends_only_on_the_filtered_sample(self):
        # The paper's ICE property: S and ice_filter(S) give the same run.
        inst = small_instance()
        p = inst.params
        D = inst.distribution()
        gen = np.random.default_rng(21)
        flagged = decoded = 0
        for trial in range(16):
            c = inst.random_concept(RngHandle(500 + trial))
            n = (0, 5, 300, p.n)[trial % 4]
            S = draw_clean_sample(D, c, n, RngHandle(trial)) if n else Sample.empty()
            flips = gen.choice((-1, 1), size=n, p=(0.15, 0.85))
            S = Sample(S.points, S.labels * flips)
            S = self.with_contradictions(S, gen, p.layout.domain_size)
            h, det = ice_malicious_learner(S, inst, RngHandle(600 + trial))
            h_f, det_f = ice_malicious_learner(ice_filter(S), inst, RngHandle(600 + trial))
            assert det["flagged"] == det_f["flagged"]
            assert det["flag_reason"] == det_f["flag_reason"]
            assert det["n_filtered"] == len(S) - len(ice_filter(S))
            assert det_f["n_filtered"] == 0
            for key in ("z", "v"):
                assert (key in det) == (key in det_f)
                if key in det:
                    assert np.array_equal(det[key], det_f[key])
            assert det.get("selected_key") == det_f.get("selected_key")
            assert np.array_equal(h.table, h_f.table)
            flagged += det["flagged"]
            decoded += "selected_key" in det
        assert flagged and decoded

    def test_learner_builds_no_filtered_sample(self, monkeypatch):
        # The learner reads net counts; the filter itself never runs.
        def refuse(S):
            raise AssertionError("contradiction filter called")

        import noisylab.icesep
        import noisylab.learn

        for module in (noisylab.learn, noisylab.icesep):
            for name in ("ice_filter", "ice_filter_keep"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        inst = small_instance()
        c = inst.random_concept(RngHandle(100))
        S = draw_clean_sample(inst.distribution(), c, inst.params.n, RngHandle(0))
        S = self.with_contradictions(S, np.random.default_rng(1), inst.params.layout.domain_size)
        _, det = ice_malicious_learner(S, inst, RngHandle(200))
        assert not det["flagged"] and det["selected_key"] == c.key

    def test_point_outside_domain_raises_index_error(self):
        inst = small_instance()
        with pytest.raises(IndexError):
            ice_malicious_learner(
                Sample([0, inst.params.layout.domain_size], [1, 1]), inst, RngHandle(0)
            )

    def test_empty_sample_flags(self):
        inst = small_instance()
        h, det = ice_malicious_learner(Sample.empty(), inst, RngHandle(0))
        assert det["flagged"]
        assert h.domain_size == inst.params.layout.domain_size

    def test_fully_contradictory_sample_flags(self):
        inst = small_instance()
        S = sample_from_pairs([(0, 1), (0, -1), (5, 1), (5, -1)])
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
            S, rate, ice_idealized_nasty_strategy(inst), RngHandle(3), c=c
        )
        assert not ledger.flagged
        survivors = S_corr.take(ice_filter_keep(S_corr))
        assert np.all(survivors.points >= p.layout.key_size)
        key_mask = S.points < p.layout.key_size
        blk = p.layout.block_of(S.points[key_mask])
        odd = int(np.sum(np.bincount(blk, minlength=p.w) % 2 == 1))
        assert len(survivors) == int((~key_mask).sum()) + odd

    def test_net_counts_give_the_survivors(self):
        # The scenario's idealized arm reads the survivors from the net
        # counts: the filter keeps |net| copies of each point, so it keeps
        # sum |net| examples, and none on the key side exactly when the key
        # side's net is all zero.
        layout = small_params().layout
        gen = np.random.default_rng(21)
        seen = set()
        for t in range(40):
            points = gen.integers(0, layout.domain_size, size=int(gen.integers(0, 300)))
            labels = gen.choice((-1, 1), size=points.size)
            if t % 2:
                # Key-side examples only in contradictory pairs.
                value = points >= layout.key_size
                key = gen.integers(0, layout.key_size, size=int(gen.integers(0, 20)))
                points = np.concatenate([points[value], key, key])
                labels = np.concatenate([labels[value], np.ones(key.size), -np.ones(key.size)])
                order = gen.permutation(points.size)
                points, labels = points[order], labels[order].astype(int)
            S = Sample(points, labels)
            survivors = S.take(ice_filter_keep(S))
            plus, minus = layout.point_counts(S)
            net = plus - minus
            assert len(survivors) == int(np.abs(net).sum())
            no_key = bool(np.all(survivors.points >= layout.key_size))
            assert no_key == (not net[: layout.key_size].any())
            seen.add(no_key)
        assert seen == {True, False}

    def test_fresh_examples_correctly_labeled(self):
        inst = small_instance()
        c = inst.random_concept(RngHandle(1))
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(2))
        _, ledger = nasty_corrupt(
            S, 0.07, ice_idealized_nasty_strategy(inst), RngHandle(3), c=c
        )
        value_intro = ledger.introduced.points >= inst.params.layout.key_size
        pts = ledger.introduced.points[value_intro]
        labs = ledger.introduced.labels[value_intro]
        assert np.array_equal(labs, c.evaluate_many(pts))

    def test_exhaustion_flagged(self):
        inst = small_instance()
        c = inst.random_concept(RngHandle(1))
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(2))
        _, ledger = nasty_corrupt(
            S, 0.005, ice_idealized_nasty_strategy(inst), RngHandle(3), c=c
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
        noop = lambda S_inner, z, c_, rng: StrategyResult.empty()
        strong = nasty_via_strong_malicious(noop, filler_point=3)
        out, ledger = strong_malicious_corrupt(S, 0.3, strong, RngHandle(2), c=c)
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

        def greedy(S_inner, z, c_, rng):
            # Ignores its budget: asks for one corruption per inner example.
            n = len(S_inner)
            return StrategyResult(np.arange(n), Sample(np.zeros(n), np.ones(n)))

        strong = nasty_via_strong_malicious(greedy)
        out, ledger = strong_malicious_corrupt(S, 0.4, strong, RngHandle(4), c=c)
        assert ledger.flagged and "non-malleable" in ledger.flag_reason
        assert ledger.budget <= 2 * (ledger.drawn_budget // 2)

    def test_multiset_identity_randomized(self):
        # Exact coupling identity over randomized trials, reconstructing the
        # simulated nasty output through the documented derived-rng path.
        c = self._concept()
        D = DiscreteDistribution.uniform(self.DOMAIN)

        def inner(S_inner, z, c_, rng):
            g = rng.generator()
            k = int(g.integers(0, z + 1)) if z else 0
            idx = g.choice(len(S_inner), size=k, replace=False) if k else np.empty(0, int)
            pairs = [(g.integers(0, self.DOMAIN), g.choice((-1, 1))) for _ in idx]
            return StrategyResult(idx, sample_from_pairs(pairs))

        strong = nasty_via_strong_malicious(inner)
        for t in range(20):
            r = RngHandle(50 + t)
            S = draw_clean_sample(D, c, 50, r.split(0))
            out, ledger = strong_malicious_corrupt(S, 0.3, strong, r.split(1), c=c)
            Z = ledger.coin_set
            half = len(Z) // 2
            mask = np.ones(50, dtype=bool)
            mask[Z[: 2 * half]] = False
            S_inner = S.take(np.flatnonzero(mask))
            res = inner(S_inner, half, c, r.split(1, 1, 0))
            S_nasty = S_inner.replace_at(res.positions, res.introduced)
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
