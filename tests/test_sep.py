"""Key/value separation: parameters, concepts, adversaries, learner.

Small instance used throughout: w=8 blocks, d=4, u=2, n=4000, with derived
sizes block=2, key side 16, value side 16 (hand-computed from the exact
kappa = 1/2 constraint).
"""

from fractions import Fraction

import numpy as np
import pytest

from noisylab.codes import Codeword, GeneratorMatrix
from noisylab.core import RngHandle, Sample, draw_clean_sample, error_rate
from noisylab.cryptoprim import PrfKey
from noisylab.learn import select_best_hypothesis
from noisylab.noise import nasty_corrupt, strong_malicious_corrupt
from noisylab.sep import (
    _SCORE_CHUNK,
    KeyValueConcept,
    KeyValueLayout,
    SepInstance,
    SepParams,
    budget_capped_plan,
    sep_key_erasure_strategy,
    sep_malicious_learner,
    sep_nasty_strategy,
    sep_simulate_T_nasty,
)


def small_params(n=4000):
    return SepParams.create(
        eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15, w=8, d=4, u=2, n=n
    )


def small_instance(n=4000):
    # Fixed full-rank code whose first row has weight 2, guaranteeing a
    # nonzero codeword inside the low-weight bound eta_N * w = 2.
    G = GeneratorMatrix([0b00000011, 0b00000100, 0b00011000, 0b01100000], 8)
    return SepInstance(small_params(n), G)


class TestSepParams:
    def test_small_pack_derived_sizes(self):
        p = small_params()
        assert p.block_size == 2
        assert p.key_size == 16 and p.value_size == 16 and p.domain_size == 32
        assert p.D == pytest.approx(0.95 * 0.5 * 4000 / 8)
        assert p.Delta == pytest.approx(4000**0.51)
        assert p.kappa == Fraction(1, 2)

    def test_reference_pack_derived_sizes(self):
        p = SepParams.create(
            eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15,
            w=24, d=12, u=8, n=50000,
        )
        assert p.block_size == 171
        assert p.key_size == 4104 and p.value_size == 4104
        assert p.domain_size == 8208
        assert p.D == pytest.approx(989.5833333333334)

    def test_kappa_lower_bound_enforced(self):
        # kappa must exceed eta_M / ((1 - eta_M) * tau) ~ 0.351.
        with pytest.raises(ValueError, match="kappa"):
            SepParams.create(
                eta_N=0.25, eta_M=0.05, kappa=0.3, rho=0.5, tau=0.15,
                w=8, d=4, u=2, n=1000,
            )

    def test_from_ratio_constructs(self):
        p = SepParams.from_ratio(1.5, w=10, d=4, u=2, n=2000)
        assert 0 < p.eta_N < p.eta_M < 0.5
        assert p.key_size + p.value_size == p.domain_size

    def test_exact_key_fraction(self):
        p = small_params()
        assert Fraction(p.key_size, p.domain_size) == p.kappa

    def test_block_of(self):
        p = small_params()
        assert p.block_of(np.array([0, 1, 2, 15])).tolist() == [0, 0, 1, 7]


class TestKeyValueLayout:
    def test_fit_and_counts(self):
        layout = KeyValueLayout.fit(8, 4, Fraction(1, 2))
        assert (layout.block_size, layout.key_size, layout.value_size) == (2, 16, 16)
        S = Sample([0, 1, 1, 3, 15, 16, 31], [1, -1, -1, 1, -1, 1, 1])
        n_plus, n_minus = layout.label_counts(S)
        assert n_plus.tolist() == [1, 1, 0, 0, 0, 0, 0, 0]
        assert n_minus.tolist() == [2, 0, 0, 0, 0, 0, 0, 1]
        assert layout.key_blocks(S.points).tolist() == [0, 0, 0, 1, 7, -1, -1]

    def test_non_integer_value_side_rejected(self):
        with pytest.raises(ValueError, match="integer value side"):
            KeyValueLayout(3, 1, Fraction(2, 5))


class TestBestCandidate:
    """The batched scorer against select_best_hypothesis over the explicit
    KeyValueConcepts of the same candidates."""

    @staticmethod
    def random_case(gen, n_candidates, n_examples):
        w = int(gen.integers(1, 6))
        layout = KeyValueLayout.fit(
            w, int(gen.integers(1, 10)), Fraction(int(gen.integers(1, 4)), 5)
        )
        key_bits = gen.choice((-1, 1), size=(n_candidates, w)).astype(np.int8)
        keys = [
            PrfKey.from_signs(gen.choice((-1, 1), size=int(gen.integers(1, 12))))
            for _ in range(n_candidates)
        ]
        # Label the sample by a random candidate with some labels flipped,
        # or else by coin flips, so the winner's index and the minimum count
        # both vary.
        t = int(gen.integers(0, n_candidates))
        truth = KeyValueConcept(layout, Codeword(key_bits[t], key_bits[t]), keys[t])
        points = gen.integers(0, layout.domain_size, size=n_examples)
        flip_rate = float(gen.choice((0.2, 0.5)))
        flips = gen.choice((-1, 1), size=n_examples, p=(flip_rate, 1 - flip_rate))
        return layout, key_bits, keys, Sample(points, truth.evaluate_many(points) * flips)

    @staticmethod
    def oracle(layout, S, key_bits, keys):
        hyps = [KeyValueConcept(layout, Codeword(b, b), k) for b, k in zip(key_bits, keys)]
        return select_best_hypothesis(hyps, S)[0]

    def test_matches_oracle_on_random_cases(self):
        gen = np.random.default_rng(11)
        chosen = set()
        for _ in range(60):
            layout, key_bits, keys, S = self.random_case(
                gen, int(gen.integers(1, 12)), int(gen.integers(1, 400))
            )
            idx = layout.best_candidate(S, key_bits, keys)
            assert idx == self.oracle(layout, S, key_bits, keys)
            chosen.add(idx)
        assert len(chosen) > 5

    def test_more_candidates_than_one_chunk(self):
        gen = np.random.default_rng(12)
        for n_candidates in (_SCORE_CHUNK + 1, 2 * _SCORE_CHUNK + 5):
            for _ in range(5):
                layout, key_bits, keys, S = self.random_case(gen, n_candidates, 300)
                idx = layout.best_candidate(S, key_bits, keys)
                assert idx == self.oracle(layout, S, key_bits, keys)

    def test_tie_picks_lowest_index(self):
        gen = np.random.default_rng(13)
        layout, key_bits, keys, S = self.random_case(gen, 2 * _SCORE_CHUNK + 5, 300)
        best = self.oracle(layout, S, key_bits, keys)
        # Copy the winner to position 3 and into the second chunk: the copies
        # tie with it for the fewest mistakes, and the first one wins.
        for i in (_SCORE_CHUNK + 8, 3):
            key_bits[i] = key_bits[best]
            keys[i] = keys[best]
        assert layout.best_candidate(S, key_bits, keys) == min(best, 3)
        assert self.oracle(layout, S, key_bits, keys) == min(best, 3)

    def test_point_outside_domain_raises_index_error(self):
        gen = np.random.default_rng(14)
        layout, key_bits, keys, S = self.random_case(gen, 4, 50)
        outside = S.concat(Sample([layout.domain_size], [1]))
        with pytest.raises(IndexError):
            self.oracle(layout, outside, key_bits, keys)
        with pytest.raises(IndexError):
            layout.best_candidate(outside, key_bits, keys)

    def test_empty_sample_raises_value_error(self):
        gen = np.random.default_rng(15)
        layout, key_bits, keys, _ = self.random_case(gen, 4, 50)
        with pytest.raises(ValueError):
            self.oracle(layout, Sample.empty(), key_bits, keys)
        with pytest.raises(ValueError):
            layout.best_candidate(Sample.empty(), key_bits, keys)


def test_budget_capped_plan_cut_off():
    plans = [(np.array([0, 1]), Sample([5, 6], [1, 1])), (np.array([2]), Sample([7], [-1]))]
    full = budget_capped_plan(plans, 3)
    assert full.positions.tolist() == [0, 1, 2] and not full.flagged
    assert full.introduced == Sample([5, 6, 7], [1, 1, -1])
    cut = budget_capped_plan(plans, 2)
    assert cut.positions.tolist() == plans[0][0].tolist()
    assert cut.introduced == plans[0][1]
    assert cut.flagged and cut.flag_reason == "budget exhausted"
    mid = budget_capped_plan(plans, 1)
    assert mid.positions.tolist() == [0] and mid.introduced == Sample([5], [1])
    assert mid.flagged and mid.flag_reason == "budget exhausted"


class TestSepConcept:
    def test_key_side_repeats_codeword(self):
        inst = small_instance()
        c = inst.concept(1, 0)  # first nonzero low-weight codeword
        p = inst.params
        for j in range(p.w):
            for off in range(p.block_size):
                assert c.evaluate(j * p.block_size + off) == c.codeword.bits[j]

    def test_value_side_is_prf(self):
        from noisylab.cryptoprim import prf_truth_table

        inst = small_instance()
        c = inst.concept(0, 1)
        p = inst.params
        table = prf_truth_table(c.key, p.value_size)
        pts = np.arange(p.key_size, p.domain_size)
        assert np.array_equal(c.evaluate_many(pts), table)

    def test_low_weight_index_zero_is_zero_codeword(self):
        inst = small_instance()
        assert inst.low_weight[0].weight == 0
        assert any(cw.weight > 0 for cw in inst.low_weight)

    def test_code_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            SepInstance(small_params(), GeneratorMatrix([0b11], 2))


class TestNastyStrategy:
    def test_minus_blocks_flipped_to_plus(self):
        inst = small_instance()
        p_idx = next(i for i, cw in enumerate(inst.low_weight) if cw.weight > 0)
        c = inst.concept(p_idx, 0)
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(1))
        out, ledger = nasty_corrupt(S, 0.25, sep_nasty_strategy(inst), RngHandle(2), c=c, D=D)
        assert not ledger.flagged
        key = out.points < inst.params.key_size
        assert np.all(out.labels[key] == 1)
        # Points themselves are unchanged.
        assert np.array_equal(out.points, S.points)

    def test_budget_exhaustion_flagged(self):
        inst = small_instance()
        p_idx = next(i for i, cw in enumerate(inst.low_weight) if cw.weight > 0)
        c = inst.concept(p_idx, 0)
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(1))
        _, ledger = nasty_corrupt(S, 0.001, sep_nasty_strategy(inst), RngHandle(2), c=c, D=D)
        assert ledger.flagged and ledger.flag_reason == "budget exhausted"
        assert ledger.budget <= ledger.drawn_budget


class TestKeyErasureStrategy:
    def test_erased_blocks_get_opposite_labels(self):
        inst = small_instance()
        c = inst.concept(1, 0)
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(3))
        # Rate chosen so the coin set comfortably exceeds one block's chunk
        # of ceil(D) = 238 positions at this small scale.
        out, ledger = strong_malicious_corrupt(
            S, 0.2, sep_key_erasure_strategy(inst), RngHandle(4), c=c, D=D
        )
        assert ledger.budget > 0
        p = inst.params
        blocks = p.block_of(ledger.introduced.points)
        for b, lab in zip(blocks, ledger.introduced.labels):
            assert int(lab) == -int(c.codeword.bits[b])
        # All introduced points live on the key side.
        assert np.all(ledger.introduced.points < p.key_size)


class TestLearner:
    def test_clean_sample_recovery(self):
        inst = small_instance()
        for p_idx in (0, 1):
            for q in (0, 3):
                c = inst.concept(p_idx, q)
                S = draw_clean_sample(inst.distribution(), c, inst.params.n, RngHandle(10 + q))
                h, det = sep_malicious_learner(S, inst)
                assert not det["flagged"]
                assert det["selected"][0] == p_idx
                # The zero codeword extracts to the same key under every
                # seed (the extractor is linear), so the seed is only
                # identifiable for nonzero codewords.
                if p_idx != 0:
                    assert det["selected"] == (p_idx, q)
                assert error_rate(h, c, inst.distribution()) == 0.0
                # z agrees with the true codeword everywhere it is determined.
                z = det["z"]
                assert np.all((z == 0) | (z == c.codeword.bits))

    def test_key_erasure_attack_recovery(self):
        inst = small_instance()
        c = inst.concept(1, 2)
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(5))
        S_corr, ledger = strong_malicious_corrupt(
            S, 0.2, sep_key_erasure_strategy(inst), RngHandle(6), c=c, D=D
        )
        assert ledger.budget > 0  # the attack actually fired
        h, det = sep_malicious_learner(S_corr, inst)
        assert not det["flagged"]
        z = det["z"]
        assert np.all((z == 0) | (z == c.codeword.bits))  # never wrong
        assert error_rate(h, c, D) <= 0.05

    def test_selection_matches_oracle(self):
        # Every (candidate, seed) concept built and scored explicitly. The
        # zero codeword gives every seed the same key, so its seeds tie.
        inst = small_instance()
        D = inst.distribution()
        seeds = inst.params.extractor_spec.seed_count()
        for p_idx, q, noise_seed in ((1, 2, 20), (0, 3, 21), (1, 1, 22)):
            c = inst.concept(p_idx, q)
            S = draw_clean_sample(D, c, inst.params.n, RngHandle(noise_seed))
            S_corr, _ = strong_malicious_corrupt(
                S, 0.2, sep_key_erasure_strategy(inst), RngHandle(noise_seed + 1), c=c, D=D
            )
            h, det = sep_malicious_learner(S_corr, inst)
            labels = [(p, s) for p in det["candidates"] for s in range(seeds)]
            idx, best = select_best_hypothesis([inst.concept(*pq) for pq in labels], S_corr)
            assert det["selected"] == labels[idx]
            assert np.array_equal(h.table, best.table)

    def test_too_small_sample_flags(self):
        # A sample far below the threshold leaves every bit erased; with a
        # list cap below the 2^d solution space, decoding fails -> flagged
        # constant fallback.
        params = SepParams.create(
            eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15,
            w=8, d=4, u=2, n=4000, L=8,
        )
        inst = SepInstance(
            params, GeneratorMatrix([0b00000011, 0b00000100, 0b00011000, 0b01100000], 8)
        )
        c = inst.concept(0, 0)
        S = draw_clean_sample(inst.distribution(), c, 10, RngHandle(7))
        h, det = sep_malicious_learner(S, inst)
        assert det["flagged"] and "decode failure" in det["flag_reason"]
        assert h.domain_size == inst.params.domain_size


class TestSimulate:
    def test_value_examples_consumed_in_order(self):
        inst = small_instance(n=200)
        p = inst.params
        c = inst.concept(0, 0)
        pts = RngHandle(8).generator().integers(p.key_size, p.domain_size, size=200)
        T = Sample(pts, c.evaluate_many(pts))
        out = sep_simulate_T_nasty(T, inst, RngHandle(9))
        key = out.points < p.key_size
        assert np.all(out.labels[key] == 1)
        n_value = int((~key).sum())
        assert np.array_equal(out.points[~key], T.points[:n_value])

    def test_exhaustion_raises(self):
        inst = small_instance(n=200)
        T = Sample([inst.params.key_size], [1])
        with pytest.raises(ValueError, match="value examples"):
            sep_simulate_T_nasty(T, inst, RngHandle(9))

    def test_key_fraction_statistic(self):
        inst = small_instance(n=4000)
        p = inst.params
        c = inst.concept(0, 0)
        pts = RngHandle(8).generator().integers(p.key_size, p.domain_size, size=p.n)
        T = Sample(pts, c.evaluate_many(pts))
        out = sep_simulate_T_nasty(T, inst, RngHandle(10))
        frac = float((out.points < p.key_size).mean())
        # 4-sigma band around kappa = 0.5.
        assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / p.n)
