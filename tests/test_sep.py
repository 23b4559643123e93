"""Key/value separation: parameters, concepts, adversaries, learner.

Small instance used throughout: w=8 blocks, d=4, u=2, n=4000, with derived
sizes block=2, key side 16, value side 16 (hand-computed from the exact
kappa = 1/2 constraint).
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from noisylab import cryptoprim, sep
from noisylab.codes import Codeword, GeneratorMatrix, masks_to_signs
from noisylab.core import RngHandle, Sample, draw_clean_sample, error_rate
from noisylab.cryptoprim import PrfDigestStore, PrfKey, extract
from noisylab.icesep import IceInstance, IceSepParams, ice_idealized_nasty_strategy
from noisylab.learn import select_best_hypothesis
from noisylab.noise import nasty_corrupt, strong_malicious_corrupt
from noisylab.sep import (
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

from helpers import (
    agreement_reference,
    evaluate,
    fit_block_size_reference,
    ice_idealized_block_plans,
    sep_nasty_block_plans,
)


def small_params(n=4000):
    return SepParams(
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
        assert p.layout.block_size == 2
        assert p.layout.key_size == 16 and p.layout.value_size == 16 and p.layout.domain_size == 32
        assert p.D == pytest.approx(0.95 * 0.5 * 4000 / 8)
        assert p.Delta == pytest.approx(4000**0.51)
        assert p.kappa == Fraction(1, 2)

    def test_reference_pack_derived_sizes(self):
        p = SepParams(
            eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15,
            w=24, d=12, u=8, n=50000,
        )
        assert p.layout.block_size == 171
        assert p.layout.key_size == 4104 and p.layout.value_size == 4104
        assert p.layout.domain_size == 8208
        assert p.D == pytest.approx(989.5833333333334)

    def test_kappa_lower_bound_enforced(self):
        # kappa must exceed eta_M / ((1 - eta_M) * tau) ~ 0.351.
        with pytest.raises(ValueError, match="kappa"):
            SepParams(
                eta_N=0.25, eta_M=0.05, kappa=0.3, rho=0.5, tau=0.15,
                w=8, d=4, u=2, n=1000,
            )

    @pytest.mark.parametrize("n", [0, -5])
    def test_sample_size_validated(self, n):
        with pytest.raises(ValueError, match=rf"^n must be in \[1, inf\), got {n}$"):
            small_params(n)

    def test_auto_sample_size(self):
        p = SepParams(eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15, w=8, d=4, u=2)
        assert p.n == math.ceil((4 * 8 / (0.95 * 0.5)) ** (1 / 0.49)) == 5390
        assert p.Delta <= p.D / 4

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"tau": -1}, r"tau must be in \(0, 1\), got -1"),
            ({"tau": 1}, r"tau must be in \(0, 1\), got 1"),
            ({"eta_M": 0}, r"eta_M must be in \(0, 0\.5\), got 0"),
            ({"eta_N": 1}, r"eta_N must be in \(0, 0\.5\), got 1"),
            ({"rho": 0.3}, "rho\\*w must be an integer"),
            # (1 - eta_M) * tau underflows to 0: once a ZeroDivisionError.
            ({"eta_M": 0.49999999999999994, "tau": 5e-324},
             r"need eta_M/\(\(1-eta_M\)\*tau\) = inf < kappa, got 1/2"),
        ],
    )
    def test_rates_validated(self, change, message):
        args = dict(eta_N=0.25, eta_M=0.05, kappa=0.5, rho=0.5, tau=0.15, w=8, d=4, u=2, n=100)
        with pytest.raises(ValueError, match=f"^{message}$"):
            SepParams(**{**args, **change})

    def test_exact_key_fraction(self):
        p = small_params()
        assert Fraction(p.layout.key_size, p.layout.domain_size) == p.kappa

    def test_block_of(self):
        p = small_params()
        assert p.layout.block_of(np.array([0, 1, 2, 15])).tolist() == [0, 0, 1, 7]


class TestKeyValueLayout:
    def test_fit_and_counts(self):
        layout = KeyValueLayout.fit(8, 4, Fraction(1, 2))
        assert (layout.block_size, layout.key_size, layout.value_size) == (2, 16, 16)
        S = Sample([0, 1, 1, 3, 15, 16, 31, 16], [1, -1, -1, 1, -1, 1, 1, -1])
        plus, minus = layout.point_counts(S)
        assert plus.shape == minus.shape == (layout.domain_size,)
        assert np.flatnonzero(plus).tolist() == [0, 3, 16, 31]
        assert minus[[1, 15, 16]].tolist() == [2, 1, 1] and minus.sum() == 4
        assert layout.block_sums(plus).tolist() == [1, 1, 0, 0, 0, 0, 0, 0]
        assert layout.block_sums(minus).tolist() == [2, 0, 0, 0, 0, 0, 0, 1]
        positions, counts = layout.block_positions(S.points[::-1])
        assert positions.tolist() == [5, 6, 7, 4, 3]
        assert counts.tolist() == [3, 1, 0, 0, 0, 0, 0, 1]

    def test_empty_sample_counts_nothing(self):
        layout = KeyValueLayout.fit(8, 4, Fraction(1, 2))
        plus, minus = layout.point_counts(Sample.empty())
        assert plus.shape == minus.shape == (layout.domain_size,)
        assert not plus.any() and not minus.any()

    def test_point_outside_domain_raises_index_error(self):
        layout = KeyValueLayout.fit(8, 4, Fraction(1, 2))
        with pytest.raises(IndexError, match="outside the domain"):
            layout.point_counts(Sample([3, layout.domain_size], [1, -1]))

    def test_non_integer_value_side_rejected(self):
        with pytest.raises(ValueError, match="integer value side"):
            KeyValueLayout(3, 1, Fraction(2, 5))

    def test_fit_matches_the_search_on_random_fractions(self):
        gen = np.random.default_rng(11)
        for _ in range(3000):
            q = int(gen.integers(2, 301))
            key_fraction = Fraction(int(gen.integers(1, q)), q)
            w, d = int(gen.integers(1, 65)), int(gen.integers(0, 13))
            layout = KeyValueLayout.fit(w, d, key_fraction)
            assert layout.block_size == fit_block_size_reference(w, d, key_fraction)
            assert layout.value_size >= 1 << d

    def test_fit_admits_the_largest_value_side_at_the_default_rates(self):
        assert KeyValueLayout.fit(24, 20, Fraction(1, 2)).domain_size == 2_097_168

    def test_fit_rejects_a_domain_over_the_limit(self):
        with pytest.raises(ValueError) as exc:
            KeyValueLayout.fit(24, 12, Fraction(1, 10**9))
        assert str(exc.value) == (
            "key fraction 1/1000000000 needs block size 1, a 24000000000-point domain; "
            "the limit is 4194304 points"
        )

    def test_domain_limit_message_abbreviates_long_numbers(self):
        # eta = 5e-324 gives a key fraction whose denominator has 324 digits.
        with pytest.raises(ValueError) as exc:
            IceSepParams(eta=5e-324, kappa=0.7, w=20, d=10)
        message = str(exc.value)
        assert "\n" not in message and len(message) <= 200
        assert message == (
            "key fraction 3/~5.000e323 needs block size 3, a ~1.000e325-point domain; "
            "the limit is 4194304 points"
        )

    @pytest.mark.parametrize(
        "w,d,message",
        [(0, 4, "w must be in [1, inf), got 0"), (8, -1, "d must be in [0, inf), got -1")],
        ids=["zero-w", "negative-d"],
    )
    def test_fit_rejects_a_bad_block_count_or_dimension(self, w, d, message):
        with pytest.raises(ValueError) as exc:
            KeyValueLayout.fit(w, d, Fraction(1, 2))
        assert str(exc.value) == message

    def test_fit_reads_a_float_key_fraction_as_its_decimal(self):
        assert KeyValueLayout.fit(8, 3, 0.5) == KeyValueLayout.fit(8, 3, Fraction(1, 2))
        assert KeyValueLayout.fit(8, 3, 0.2).key_fraction == Fraction(1, 5)
        with pytest.raises(ValueError, match=r"^key fraction must be a number, got True$"):
            KeyValueLayout.fit(8, 3, True)
        with pytest.raises(ValueError, match=r"^key fraction must be in \(0, 1\), got 1$"):
            KeyValueLayout.fit(8, 3, 1.0)


class TestBestCandidate:
    """The batched scorer, over a sample's per-point net label count, packed
    codeword and key masks and a digest store, against select_best_hypothesis
    over the explicit KeyValueConcepts of the same candidates on the sample."""

    @staticmethod
    def random_layout(gen):
        w = int(gen.integers(1, 6))
        return KeyValueLayout.fit(
            w, int(gen.integers(1, 10)), Fraction(int(gen.integers(1, 4)), 5)
        )

    @staticmethod
    def concepts(layout, codewords, masks, length):
        """The candidates as explicit concepts, read from a store of their own."""
        store = PrfDigestStore(length, layout.value_size)
        return [
            KeyValueConcept(layout, Codeword(int(cw), 0, layout.w), PrfKey(int(m), length), store)
            for cw, m in zip(codewords, masks)
        ]

    @classmethod
    def random_sample(cls, gen, layout, codewords, masks, length, n_examples):
        """Label points by a random candidate with some labels flipped, or else
        by coin flips, so the winner's index and the minimum count both vary."""
        t = int(gen.integers(0, len(masks)))
        (truth,) = cls.concepts(layout, codewords[t : t + 1], masks[t : t + 1], length)
        points = gen.integers(0, layout.domain_size, size=n_examples)
        flip_rate = float(gen.choice((0.2, 0.5)))
        flips = gen.choice((-1, 1), size=n_examples, p=(flip_rate, 1 - flip_rate))
        return Sample(points, truth.evaluate_many(points) * flips)

    @classmethod
    def random_case(cls, gen, n_candidates, n_examples):
        """A layout, packed codewords, keys of one length, a fresh store and
        a sample."""
        layout = cls.random_layout(gen)
        length = int(gen.integers(1, 12))
        codewords = gen.integers(0, 1 << layout.w, size=n_candidates)
        masks = gen.integers(0, 1 << length, size=n_candidates)
        store = PrfDigestStore(length, layout.value_size)
        S = cls.random_sample(gen, layout, codewords, masks, length, n_examples)
        return layout, codewords, masks, store, S

    @classmethod
    def oracle(cls, layout, S, codewords, masks, length):
        return select_best_hypothesis(cls.concepts(layout, codewords, masks, length), S)[0]

    @staticmethod
    def net(layout, S):
        plus, minus = layout.point_counts(S)
        return plus - minus

    def test_matches_oracle_on_random_cases(self):
        gen = np.random.default_rng(11)
        chosen = set()
        for _ in range(60):
            n_candidates = int(gen.choice((1, 17, int(gen.integers(2, 40)))))
            layout, codewords, masks, store, S = self.random_case(
                gen, n_candidates, int(gen.integers(1, 400))
            )
            idx = layout.best_candidate(self.net(layout, S), codewords, masks, store)
            assert idx == self.oracle(layout, S, codewords, masks, store.length)
            chosen.add(idx)
        assert len(chosen) > 5

    def test_one_store_serves_many_calls(self):
        # One store across calls with fresh samples and overlapping candidate
        # lists, as a learner's instance holds it across trials.
        gen = np.random.default_rng(16)
        layout = self.random_layout(gen)
        length = 6
        store = PrfDigestStore(length, layout.value_size)
        pool = gen.integers(0, 1 << length, size=12)
        for _ in range(15):
            n_candidates = int(gen.integers(1, 40))
            masks = gen.choice(pool, size=n_candidates)
            codewords = gen.integers(0, 1 << layout.w, size=n_candidates)
            S = self.random_sample(
                gen, layout, codewords, masks, length, int(gen.integers(1, 300))
            )
            idx = layout.best_candidate(self.net(layout, S), codewords, masks, store)
            assert idx == self.oracle(layout, S, codewords, masks, length)

    @pytest.mark.parametrize("n_candidates", [1, 17, 600])
    def test_matches_oracle_at_candidate_count(self, n_candidates):
        gen = np.random.default_rng(12 + n_candidates)
        for _ in range(3):
            layout, codewords, masks, store, S = self.random_case(gen, n_candidates, 300)
            idx = layout.best_candidate(self.net(layout, S), codewords, masks, store)
            assert idx == self.oracle(layout, S, codewords, masks, store.length)

    def test_tie_picks_lowest_index(self):
        gen = np.random.default_rng(13)
        layout, codewords, masks, store, S = self.random_case(gen, 600, 300)
        best = self.oracle(layout, S, codewords, masks, store.length)
        # Copy the winner to a high index and to index 3: the copies tie with
        # it for the fewest mistakes, and the lowest index wins.
        for i in (590, 3):
            codewords[i] = codewords[best]
            masks[i] = masks[best]
        assert layout.best_candidate(self.net(layout, S), codewords, masks, store) == min(best, 3)
        assert self.oracle(layout, S, codewords, masks, store.length) == min(best, 3)

    @staticmethod
    def int64_choice(layout, net, codewords, masks, store):
        """The winner from explicit int64 tables: key blocks repeated from the
        codeword signs, value side from the store's ±1 rows."""
        key = np.repeat(masks_to_signs(codewords, layout.w), layout.block_size, axis=1)
        tables = np.hstack([key, store.tables(masks)]).astype(np.int64)
        return int(np.argmax(tables @ net))

    @pytest.mark.parametrize(
        "total", [(1 << 24) - 1, 1 << 24, (1 << 30) + 3], ids=["2^24-1", "2^24", "2^30"]
    )
    def test_exact_at_float32_boundary(self, total):
        # Candidates 2 and 5 share a codeword and differ on the value side.
        # Where their rows agree the net is large, with their label, so
        # both beat every other candidate by far; where they differ, one
        # point gives candidate 5 the win by 2. Above 2^24 float32 cannot
        # tell their sums apart.
        gen = np.random.default_rng(total % 1000)
        layout = KeyValueLayout.fit(3, 9, Fraction(1, 5))
        length = 10
        store = PrfDigestStore(length, layout.value_size)
        codewords = gen.integers(0, 1 << layout.w, size=60)
        masks = gen.integers(0, 1 << length, size=60)
        codewords[2] = codewords[5]
        low, high = store.tables(masks[[2, 5]]).astype(np.int64)
        same = np.flatnonzero(low == high)
        value_net = np.zeros(layout.value_size, dtype=np.int64)
        base, extra = divmod(total - 1, len(same))
        value_net[same] = (base + (np.arange(len(same)) < extra)) * high[same]
        split = np.flatnonzero(low != high)[0]
        value_net[split] = high[split]
        net = np.concatenate([gen.integers(-3, 4, size=layout.key_size), value_net])
        assert int(np.abs(value_net).sum()) == total
        assert self.int64_choice(layout, net, codewords, masks, store) == 5
        assert layout.best_candidate(net, codewords, masks, store) == 5
        # An exact tie: the winner copied to a higher index and to index 0.
        for i in (50, 0):
            codewords[i] = codewords[5]
            masks[i] = masks[5]
        assert self.int64_choice(layout, net, codewords, masks, store) == 0
        assert layout.best_candidate(net, codewords, masks, store) == 0

    def test_warm_call_memory_at_sep_learner_size(self):
        # sep-learner's layout: 256 candidates over a 4,104-point value side.
        layout = KeyValueLayout(24, 171, Fraction(1, 2))
        assert layout.value_size == 4104
        gen = np.random.default_rng(18)
        store = PrfDigestStore(12, layout.value_size)
        codewords = gen.integers(0, 1 << layout.w, size=256)
        masks = gen.integers(0, 1 << 12, size=256, dtype=np.uint64)
        net = gen.integers(-2, 3, size=layout.domain_size)
        first = layout.best_candidate(net, codewords, masks, store)
        tracemalloc.start()
        try:
            assert layout.best_candidate(net, codewords, masks, store) == first
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_zero_net_picks_index_zero(self):
        # A sample of contradictory pairs only: every candidate makes half its
        # examples' mistakes, and the oracle breaks the tie at index 0 too.
        gen = np.random.default_rng(15)
        layout, codewords, masks, store, _ = self.random_case(gen, 4, 50)
        zero = np.zeros(layout.domain_size, dtype=np.int64)
        assert layout.best_candidate(zero, codewords, masks, store) == 0
        points = gen.integers(0, layout.domain_size, size=20)
        pairs = Sample(np.repeat(points, 2), np.tile([1, -1], 20))
        assert not self.net(layout, pairs).any()
        assert self.oracle(layout, pairs, codewords, masks, store.length) == 0

    def test_store_must_cover_the_value_side(self):
        gen = np.random.default_rng(17)
        layout, codewords, masks, store, S = self.random_case(gen, 4, 50)
        net = self.net(layout, S)
        short = PrfDigestStore(store.length, layout.value_size - 1)
        with pytest.raises(ValueError, match="value side"):
            layout.best_candidate(net, codewords, masks, short)
        with pytest.raises(ValueError, match="empty candidate list"):
            layout.best_candidate(net, codewords[:0], masks[:0], store)
        with pytest.raises(ValueError, match="3 codewords for 4 keys"):
            layout.best_candidate(net, codewords[:3], masks, store)
        with pytest.raises(ValueError, match="one per"):
            layout.best_candidate(net[:-1], codewords, masks, store)

    @pytest.mark.parametrize("form", [list, np.array], ids=["list", "array"])
    @pytest.mark.parametrize("bad", ["too-wide", "fraction", "negative"])
    def test_codeword_out_of_range_rejected(self, bad, form):
        layout = KeyValueLayout.fit(3, 4, Fraction(1, 5))
        store = PrfDigestStore(8, layout.value_size)
        net = np.ones(layout.domain_size, dtype=np.int64)
        codeword = {"too-wide": 1 << layout.w, "fraction": 0.5, "negative": -1}[bad]
        with pytest.raises(ValueError, match="codeword mask"):
            layout.best_candidate(net, form([codeword, 0]), [1, 2], store)

    # Layouts whose value side spans 3, 4 and 9 PRF blocks.
    MULTI_BLOCK = [(3, 10, Fraction(2, 5)), (4, 11, Fraction(1, 5)), (5, 12, Fraction(1, 5))]

    @classmethod
    def multi_block_case(cls, shape, n_candidates=40, length=10):
        """A layout from MULTI_BLOCK, random packed codewords and keys of one
        length, a fresh store, the store's ±1 value rows and a generator."""
        layout = KeyValueLayout.fit(*shape)
        gen = np.random.default_rng(layout.value_size)
        store = PrfDigestStore(length, layout.value_size)
        assert store.n_blocks == {1026: 3, 2048: 4, 4100: 9}[layout.value_size]
        codewords = gen.integers(0, 1 << layout.w, size=n_candidates)
        masks = gen.integers(0, 1 << length, size=n_candidates)
        rows = PrfDigestStore(length, layout.value_size).tables(masks).astype(np.int64)
        return layout, codewords, masks, store, rows, gen

    @staticmethod
    def hashed_blocks(monkeypatch):
        """A list that collects the counters handed to ``_prf_digests``."""
        handed = []
        digests = cryptoprim._prf_digests

        def counting(key_bytes, counters):
            handed.extend(counters)
            return digests(key_bytes, counters)

        monkeypatch.setattr(cryptoprim, "_prf_digests", counting)
        return handed

    @pytest.mark.parametrize("shape", MULTI_BLOCK, ids=["3-blocks", "4-blocks", "9-blocks"])
    def test_net_zero_on_first_block_prunes_nothing(self, shape, monkeypatch):
        # With no net on the key side or value block 0, every partial score
        # is 0 and every bound reaches the leader's score: every key is
        # hashed in full, and the choice is still the exhaustive one.
        layout, codewords, masks, store, _, gen = self.multi_block_case(shape)
        net = gen.integers(-3, 4, size=layout.domain_size)
        net[: layout.key_size + 512] = 0
        handed = self.hashed_blocks(monkeypatch)
        idx = layout.best_candidate(net, codewords, masks, store)
        assert len(handed) == len(set(masks.tolist())) * store.n_blocks
        assert idx == self.int64_choice(layout, net, codewords, masks, store)

    @pytest.mark.parametrize("shape", MULTI_BLOCK, ids=["3-blocks", "4-blocks", "9-blocks"])
    def test_first_block_leader_can_lose(self, shape):
        # The decoy's labels carry value block 0 and the truth's every later
        # block: the decoy leads on the key side plus block 0, the truth wins.
        layout, codewords, masks, store, rows, _ = self.multi_block_case(shape)
        decoy, truth = 3, 31
        codewords[decoy] = codewords[truth]
        value_net = np.concatenate([2 * rows[decoy, :512], 3 * rows[truth, 512:]])
        net = np.concatenate([np.zeros(layout.key_size, dtype=np.int64), value_net])
        assert int(np.argmax(rows[:, :512] @ value_net[:512])) == decoy
        assert self.int64_choice(layout, net, codewords, masks, store) == truth
        assert layout.best_candidate(net, codewords, masks, store) == truth

    @pytest.mark.parametrize("favour", [False, True], ids=["bound-at-best", "favour-each"])
    @pytest.mark.parametrize("shape", MULTI_BLOCK, ids=["3-blocks", "4-blocks", "9-blocks"])
    def test_exact_tie_picks_lowest_index(self, shape, favour):
        # Candidates 9 and 14 share a codeword. Where their rows agree the net
        # carries their label; where they differ it is zero, so they tie
        # exactly and each one's bound is its score. With ``favour``, one
        # later point favours each instead: still a tie, decided past block 0.
        layout, codewords, masks, store, rows, gen = self.multi_block_case(shape)
        a, b = 9, 14
        codewords[b] = codewords[a]
        value_net = np.where(rows[a] == rows[b], 2 * rows[a], 0)
        if favour:
            differ = np.flatnonzero(rows[a] != rows[b])
            later = differ[differ >= 512]
            value_net[later[0]], value_net[later[-1]] = rows[a, later[0]], rows[b, later[-1]]
        net = np.concatenate([gen.integers(-2, 3, size=layout.key_size), value_net])
        assert int(rows[a] @ value_net) == int(rows[b] @ value_net)
        assert self.int64_choice(layout, net, codewords, masks, store) == a
        assert layout.best_candidate(net, codewords, masks, store) == a
        # B copied to index 2: the copy ties with both and is the lowest.
        codewords[2], masks[2] = codewords[b], masks[b]
        assert self.int64_choice(layout, net, codewords, masks, store) == 2
        assert layout.best_candidate(net, codewords, masks, store) == 2

    def test_hashes_later_blocks_only_for_contenders(self, monkeypatch):
        # sep-learner's layout and candidate count, a sample labeled by one
        # candidate with a clean value side: block 0 rules out the rest, so
        # the call hashes far fewer than the 256 * 9 blocks of every row.
        layout = KeyValueLayout(24, 171, Fraction(1, 2))
        assert layout.value_size == 4104
        gen = np.random.default_rng(19)
        codewords = gen.integers(0, 1 << layout.w, size=256)
        masks = gen.integers(0, 1 << 12, size=256)
        (truth,) = self.concepts(layout, codewords[100:101], masks[100:101], 12)
        points = gen.integers(0, layout.domain_size, size=20_000)
        S = Sample(points, truth.evaluate_many(points))
        store = PrfDigestStore(12, layout.value_size)
        handed = self.hashed_blocks(monkeypatch)
        assert layout.best_candidate(self.net(layout, S), codewords, masks, store) == 100
        assert len(handed) < 2 * 256


    @staticmethod
    def recorded_packed(store, monkeypatch):
        """A list that collects, per call of ``store.packed``, the masks it is
        asked for (as ints) and its ``blocks``."""
        calls = []
        packed = store.packed

        def recording(masks, blocks=None):
            calls.append(([int(m) for m in masks], blocks))
            return packed(masks, blocks)

        monkeypatch.setattr(store, "packed", recording)
        return calls

    def test_leader_alone_is_scored_once_past_block_0(self, monkeypatch):
        # sep-learner's size, a sample labeled by candidate 100 with a clean
        # value side: no rival survives block 0, so the only whole row asked
        # for is the leader's, once.
        layout = KeyValueLayout(24, 171, Fraction(1, 2))
        gen = np.random.default_rng(19)
        codewords = gen.integers(0, 1 << layout.w, size=256)
        masks = gen.integers(0, 1 << 12, size=256)
        (truth,) = self.concepts(layout, codewords[100:101], masks[100:101], 12)
        points = gen.integers(0, layout.domain_size, size=20_000)
        S = Sample(points, truth.evaluate_many(points))
        store = PrfDigestStore(12, layout.value_size)
        calls = self.recorded_packed(store, monkeypatch)
        assert layout.best_candidate(self.net(layout, S), codewords, masks, store) == 100
        assert calls == [(masks.tolist(), 1), ([int(masks[100])], None)]

    @pytest.mark.parametrize("leader,rival", [(9, 14), (14, 9)], ids=["rival-above", "rival-below"])
    @pytest.mark.parametrize("shape", MULTI_BLOCK, ids=["3-blocks", "4-blocks", "9-blocks"])
    def test_rival_tying_the_leader_wins_only_from_a_lower_index(
        self, shape, leader, rival, monkeypatch
    ):
        # The two share a codeword, and the net carries their label where
        # their rows agree. Where they differ it is zero but for one point in
        # block 0 that favours the leader and one later point that favours the
        # rival: the leader leads after block 0, and the full scores tie.
        layout, codewords, masks, store, rows, gen = self.multi_block_case(shape)
        assert all(masks.tolist().count(masks[i]) == 1 for i in (leader, rival))
        codewords[rival] = codewords[leader]
        value_net = np.where(rows[leader] == rows[rival], 2 * rows[leader], 0)
        differ = np.flatnonzero(rows[leader] != rows[rival])
        first, later = differ[differ < 512][0], differ[differ >= 512][-1]
        value_net[first], value_net[later] = rows[leader, first], rows[rival, later]
        net = np.concatenate([gen.integers(-2, 3, size=layout.key_size), value_net])
        key = np.repeat(masks_to_signs(codewords, layout.w), layout.block_size, axis=1)
        partial = np.hstack([key, rows[:, :512]]) @ net[: layout.key_size + 512]
        assert int(np.argmax(partial)) == leader
        assert int(rows[leader] @ value_net) == int(rows[rival] @ value_net)
        assert self.int64_choice(layout, net, codewords, masks, store) == min(leader, rival)
        calls = self.recorded_packed(store, monkeypatch)
        assert layout.best_candidate(net, codewords, masks, store) == min(leader, rival)
        # The leader's whole row is asked for once, the rival's once.
        whole = [m for asked, blocks in calls if blocks is None for m in asked]
        assert whole.count(int(masks[leader])) == 1 and whole.count(int(masks[rival])) == 1


class TestAgreement:
    """``_agreement`` of packed rows against a bit-by-bit int64 loop."""

    @pytest.mark.parametrize(
        "n_rows,n_bytes", [(1, 192), (600, 64), (40, 576), (3, 0)],
        ids=["one-row", "three-chunks", "nine-blocks", "no-points"],
    )
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_a_bit_loop(self, n_rows, n_bytes, dtype):
        gen = np.random.default_rng(n_rows + n_bytes)
        rows = gen.integers(0, 256, size=(n_rows, n_bytes), dtype=np.uint8)
        # float64 carries values float32 cannot hold exactly.
        scale = 5 if dtype is np.float32 else 1 << 40
        net = gen.integers(-scale, scale, size=8 * n_bytes + 7, endpoint=True).astype(dtype)
        got = sep._agreement(rows, net)
        assert got.dtype == np.int64
        assert np.array_equal(got, agreement_reference(rows, net))

    @pytest.mark.parametrize("chunk_bits", [1, 700, 5000])
    def test_chunks_of_any_size_give_the_same_scores(self, chunk_bits, monkeypatch):
        # Chunks smaller than a row, of a few rows with a short last chunk,
        # and of many rows.
        gen = np.random.default_rng(chunk_bits)
        rows = gen.integers(0, 256, size=(23, 40), dtype=np.uint8)
        net = gen.integers(-9, 10, size=320).astype(np.float32)
        want = agreement_reference(rows, net)
        monkeypatch.setattr(sep, "_AGREEMENT_CHUNK_BITS", chunk_bits)
        assert np.array_equal(sep._agreement(rows, net), want)
        # A column slice, as the later blocks are read, is not contiguous.
        later = rows[:, 8:]
        assert np.array_equal(sep._agreement(later, net[64:]), agreement_reference(later, net[64:]))


def test_budget_capped_plan_cut_off():
    positions, introduced = np.array([0, 1, 2]), Sample([5, 6, 7], [1, 1, -1])
    full = budget_capped_plan(positions, introduced, 3)
    assert full.positions.tolist() == [0, 1, 2] and not full.flagged
    assert full.introduced == introduced and full.flag_reason is None
    cut = budget_capped_plan(positions, introduced, 2)
    assert cut.positions.tolist() == [0, 1] and cut.introduced == Sample([5, 6], [1, 1])
    assert cut.flagged and cut.flag_reason == "budget exhausted"
    mid = budget_capped_plan(positions, introduced, 1)
    assert mid.positions.tolist() == [0] and mid.introduced == Sample([5], [1])
    assert mid.flagged and mid.flag_reason == "budget exhausted"


@pytest.mark.parametrize("attack", ["sep", "ice"])
def test_key_block_attacks_match_block_by_block_reference(attack):
    # The array forms against the block-by-block loops, cut at every block
    # boundary, one past and one short of it, at 0, and at or past the plan's
    # end, on samples small enough to leave blocks empty.
    if attack == "sep":
        inst = small_instance()
        strategy, reference = sep_nasty_strategy(inst), sep_nasty_block_plans(inst.params.layout)
        key_length = inst.params.extractor_spec.m_out
    else:
        inst = IceInstance.generate(IceSepParams(eta=0.1, kappa=0.7, w=8, d=4), RngHandle(0))
        strategy = ice_idealized_nasty_strategy(inst)
        reference = ice_idealized_block_plans(inst.params.layout)
        key_length = inst.params.d
    layout = inst.params.layout
    all_minus = (1 << layout.w) - 1
    gen = np.random.default_rng(24)
    seen = set()
    for t in range(60):
        mask = (0, all_minus)[t] if t < 2 else int(gen.integers(0, all_minus + 1))
        key = PrfKey(int(gen.integers(0, 1 << key_length)), key_length)
        c = KeyValueConcept(layout, Codeword(mask, 0, layout.w), key, inst.prf_store)
        top = layout.key_size if t % 3 == 0 else layout.domain_size
        points = gen.integers(0, top, size=int(gen.integers(0, 60)))
        S = Sample(points, gen.choice((-1, 1), size=points.size))
        counts = layout.block_counts(S.points)
        # Each block's share of the plan, in plan order.
        if attack == "sep":
            blocks = np.flatnonzero(c.codeword.bits == -1)
            shares = counts[blocks]
        else:
            blocks = np.arange(layout.w)
            shares = counts - counts // 2
        ends = np.cumsum(shares)
        total = int(ends[-1]) if ends.size else 0
        seen.update(name for name, case in (
            ("all +1", mask == 0), ("all -1", mask == all_minus),
            ("empty block", (shares == 0).any()),
        ) if case)
        for z in sorted({0, total, total + 3, *ends.tolist(), *(ends + 1).tolist(),
                         *(ends - 1).clip(0).tolist()}):
            got, want = strategy(S, z, c, RngHandle(t)), reference(S, z, c, RngHandle(t))
            assert got.positions.dtype == np.int64
            assert np.array_equal(got.positions, want.positions), (t, z)
            assert got.introduced == want.introduced, (t, z)
            assert (got.flagged, got.flag_reason) == (want.flagged, want.flag_reason), (t, z)
            inside = int(np.searchsorted(ends, z, side="right"))
            if z == 0:
                seen.add("z = 0")
            elif z >= total:
                seen.add("whole plan")
            elif z in ends:
                seen.add("block boundary")
            elif counts[blocks[inside]] % 2:
                seen.add("inside an odd block")
            else:
                seen.add("inside an even block")
    assert seen == {
        "z = 0", "whole plan", "block boundary", "inside an odd block",
        "inside an even block", "all +1", "all -1", "empty block",
    }


class TestSepConcept:
    def test_key_side_repeats_codeword(self):
        inst = small_instance()
        c = inst.concept(1, 0)  # first nonzero low-weight codeword
        p = inst.params
        for j in range(p.w):
            for off in range(p.layout.block_size):
                assert evaluate(c, j * p.layout.block_size + off) == c.codeword.bits[j]

    def test_key_is_extracted_from_the_codeword(self):
        # c_{p,q} carries W_p and the packed key Ext(W_p, q); W_p's message is
        # the decoders' message int that indexes it.
        inst = small_instance()
        spec = inst.params.extractor_spec
        for p_idx, cw in enumerate(inst.low_weight):
            assert inst.low_weight_index[cw.message] == p_idx
            for q in (0, spec.seed_count() - 1):
                c = inst.concept(p_idx, q)
                assert c.codeword == cw
                assert c.key == PrfKey(extract(cw.mask, q, spec), spec.m_out)

    def test_key_matches_extract_for_every_seed(self):
        # The key is read from the instance's Toeplitz rows; extract hashes
        # the seed's rows itself.
        inst = small_instance()
        spec = inst.params.extractor_spec
        for p_idx, cw in enumerate(inst.low_weight):
            for q in range(spec.seed_count()):
                assert inst.concept(p_idx, q).key.mask == extract(cw.mask, q, spec)

    @pytest.mark.parametrize("q", [-1, 4, 1.5, True])
    def test_seed_out_of_range_rejected(self, q):
        # A seed follows the one mask rule, as extract's does.
        with pytest.raises(ValueError, match="seed"):
            small_instance().concept(1, q)

    @pytest.mark.parametrize(
        "p", [-1, 1.5, 1.0, True, "low-weight count"],
        ids=["negative", "fraction", "integral-float", "bool", "past-the-end"],
    )
    def test_codeword_index_rejected(self, p):
        # -1 once gave the last low-weight codeword's concept, 1.5 numpy's
        # IndexError and 1.0 a TypeError.
        inst = small_instance()
        n = len(inst.low_weight)
        p = n if p == "low-weight count" else p
        if isinstance(p, int) and not isinstance(p, bool):
            message = rf"^codeword index must be in \[0, {n}\), got {p!r}$"
        else:
            message = rf"^codeword index must be an integer, got {p!r}$"
        with pytest.raises(ValueError, match=message):
            inst.concept(p, 0)
        last = inst.concept(np.int64(n - 1), 0)
        assert last.codeword == inst.low_weight[n - 1] and last.key == inst.concept(n - 1, 0).key

    def test_value_side_is_prf(self):
        from noisylab.cryptoprim import prf_truth_table

        inst = small_instance()
        c = inst.concept(0, 1)
        p = inst.params
        table = prf_truth_table(c.key, p.layout.value_size)
        pts = np.arange(p.layout.key_size, p.layout.domain_size)
        assert np.array_equal(c.evaluate_many(pts), table)

    def test_store_must_match_the_key_and_value_side(self):
        inst = small_instance()
        p = inst.params
        c = inst.concept(1, 0)
        for store, match in (
            (PrfDigestStore(p.extractor_spec.m_out + 1, p.layout.value_size), "bit"),
            (PrfDigestStore(p.extractor_spec.m_out, p.layout.value_size + 1), "value side"),
        ):
            with pytest.raises(ValueError, match=match):
                KeyValueConcept(p.layout, c.codeword, c.key, store)

    def test_truth_and_winner_hashed_once(self, monkeypatch):
        # The scenario's truth concept, the learner's scoring and its winner
        # all read the instance store, so the truth key is hashed once.
        hashed = []
        digests = cryptoprim._prf_digests

        def counting(key_bytes, counters):
            hashed.append(key_bytes)
            return digests(key_bytes, counters)

        monkeypatch.setattr(cryptoprim, "_prf_digests", counting)
        inst = small_instance()
        c = inst.concept(1, 2)
        S = draw_clean_sample(inst.distribution(), c, inst.params.n, RngHandle(3))
        _, det = sep_malicious_learner(S, inst)
        assert det["selected"] == (1, 2)
        assert hashed.count(c.key.mask.to_bytes(-(-c.key.length // 8), "little")) == 1
        assert len(hashed) == len(set(hashed))

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
        out, ledger = nasty_corrupt(S, 0.25, sep_nasty_strategy(inst), RngHandle(2), c=c)
        assert not ledger.flagged
        key = out.points < inst.params.layout.key_size
        assert np.all(out.labels[key] == 1)
        # Points themselves are unchanged.
        assert np.array_equal(out.points, S.points)

    def test_budget_exhaustion_flagged(self):
        inst = small_instance()
        p_idx = next(i for i, cw in enumerate(inst.low_weight) if cw.weight > 0)
        c = inst.concept(p_idx, 0)
        D = inst.distribution()
        S = draw_clean_sample(D, c, inst.params.n, RngHandle(1))
        _, ledger = nasty_corrupt(S, 0.001, sep_nasty_strategy(inst), RngHandle(2), c=c)
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
            S, 0.2, sep_key_erasure_strategy(inst), RngHandle(4), c=c
        )
        assert ledger.budget > 0
        p = inst.params
        blocks = p.layout.block_of(ledger.introduced.points)
        for b, lab in zip(blocks, ledger.introduced.labels):
            assert int(lab) == -int(c.codeword.bits[b])
        # All introduced points live on the key side.
        assert np.all(ledger.introduced.points < p.layout.key_size)


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
            S, 0.2, sep_key_erasure_strategy(inst), RngHandle(6), c=c
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
                S, 0.2, sep_key_erasure_strategy(inst), RngHandle(noise_seed + 1), c=c
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
        params = SepParams(
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
        assert h.domain_size == inst.params.layout.domain_size


class TestSimulate:
    def test_value_examples_consumed_in_order(self):
        inst = small_instance(n=200)
        p = inst.params
        c = inst.concept(0, 0)
        pts = RngHandle(8).generator().integers(p.layout.key_size, p.layout.domain_size, size=200)
        T = Sample(pts, c.evaluate_many(pts))
        out = sep_simulate_T_nasty(T, inst, RngHandle(9))
        key = out.points < p.layout.key_size
        assert np.all(out.labels[key] == 1)
        n_value = int((~key).sum())
        assert np.array_equal(out.points[~key], T.points[:n_value])

    def test_exhaustion_raises(self):
        inst = small_instance(n=200)
        T = Sample([inst.params.layout.key_size], [1])
        with pytest.raises(ValueError, match="value examples"):
            sep_simulate_T_nasty(T, inst, RngHandle(9))

    def test_key_fraction_statistic(self):
        inst = small_instance(n=4000)
        p = inst.params
        c = inst.concept(0, 0)
        pts = RngHandle(8).generator().integers(p.layout.key_size, p.layout.domain_size, size=p.n)
        T = Sample(pts, c.evaluate_many(pts))
        out = sep_simulate_T_nasty(T, inst, RngHandle(10))
        frac = float((out.points < p.layout.key_size).mean())
        # 4-sigma band around kappa = 0.5.
        assert abs(frac - 0.5) < 4 * np.sqrt(0.25 / p.n)
