"""Corruption processes: protocols, ledgers, budget laws, model conversions."""

import numpy as np
import pytest
from scipy import stats

from noisylab.core import (
    DiscreteDistribution,
    RngHandle,
    Sample,
    TableHypothesis,
    draw_clean_sample,
)
from noisylab.noise import (
    CorruptionLedger,
    StrategyResult,
    contradict_replaced,
    fixed_rate_nasty_corrupt,
    flip_first_z_labels,
    huber_sample,
    malicious_corrupt,
    nasty_corrupt,
    noop,
    strong_malicious_corrupt,
)

from helpers import point_mass

D4 = DiscreteDistribution.uniform(4)
C4 = TableHypothesis([1, 1, -1, -1])


def clean(n=50, seed=0):
    return draw_clean_sample(D4, C4, n, RngHandle(seed))


# Each corruptor called at a given rate η on a short clean sample.
CORRUPTORS = {
    "malicious": lambda eta: malicious_corrupt(
        D4, C4, 10, eta, lambda i, prefix, c, rng: (0, 1), RngHandle(0)
    ),
    "strong-malicious": lambda eta: strong_malicious_corrupt(clean(10), eta, noop, RngHandle(0)),
    "nasty": lambda eta: nasty_corrupt(clean(10), eta, noop, RngHandle(0)),
    "fixed-rate-nasty": lambda eta: fixed_rate_nasty_corrupt(clean(10), eta, noop, RngHandle(0)),
    "huber": lambda eta: huber_sample(D4, C4, eta, point_mass(0, 8), 10, RngHandle(0)),
}


# The corruptors whose ledger's budget is a count of drawn η-coins.
COIN_COUNTED = ["malicious", "strong-malicious", "nasty"]


@pytest.mark.parametrize("corrupt", CORRUPTORS.values(), ids=CORRUPTORS)
def test_noise_rate_validation(corrupt):
    corrupt(0.0)
    for eta in (1.0, -0.1):
        with pytest.raises(ValueError, match="noise rate must be in"):
            corrupt(eta)


@pytest.mark.parametrize("corrupt", [CORRUPTORS[name] for name in COIN_COUNTED], ids=COIN_COUNTED)
def test_drawn_budget_is_a_python_int(corrupt):
    for eta in (0.0, 0.5):
        assert type(corrupt(eta)[1].drawn_budget) is int


ONLINE = {
    "malicious": lambda n: malicious_corrupt(D4, C4, n, 0.1, noop, RngHandle(0)),
    "huber": lambda n: huber_sample(D4, C4, 0.1, point_mass(0, 8), n, RngHandle(0)),
}


@pytest.mark.parametrize("corrupt", ONLINE.values(), ids=ONLINE)
def test_negative_n_is_checked_before_the_coins(corrupt):
    # Once numpy's "negative dimensions are not allowed", from drawing n coins.
    with pytest.raises(ValueError, match=r"^n must be in \[0, inf\), got -1$"):
        corrupt(-1)


class TestMalicious:
    def test_eta_zero_is_clean(self):
        def boom(*a):  # must never be called
            raise AssertionError("strategy called at eta = 0")

        S, ledger = malicious_corrupt(D4, C4, 30, 0.0, boom, RngHandle(1))
        assert np.array_equal(S.labels, C4.evaluate_many(S.points))
        assert ledger.budget == 0

    def test_online_protocol_prefix_only(self):
        seen = []

        def strategy(i, prefix, c, rng):
            seen.append((i, len(prefix)))
            return 0, -1

        _, ledger = malicious_corrupt(D4, C4, 40, 0.5, strategy, RngHandle(2))
        # The strategy only ever sees the examples before its position.
        assert all(i == plen for i, plen in seen)
        assert len(seen) == ledger.budget == ledger.drawn_budget

    def test_ledger_reapply_matches_output(self):
        strategy = lambda i, prefix, c, rng: (int(rng.generator().integers(0, 4)), 1)
        S, ledger = malicious_corrupt(D4, C4, 60, 0.3, strategy, RngHandle(3))
        assert ledger.reapply().multiset() == S.multiset()

    def test_coin_positions_hold_the_strategy_example(self):
        # The coins come from rng.split(0) and the clean sample from
        # rng.split(1). The strategy mislabels its point, so its example is
        # never a clean one.
        rng, n, eta = RngHandle(4), 80, 0.3
        strategy = lambda i, prefix, c, r: (i % 4, -int(c.table[i % 4]))
        S, _ = malicious_corrupt(D4, C4, n, eta, strategy, rng)
        coins = rng.split(0).generator().random(n) < eta
        S_clean = draw_clean_sample(D4, C4, n, rng.split(1))
        heads = np.flatnonzero(coins)
        assert 0 < heads.size < n
        assert S.points[heads].tolist() == (heads % 4).tolist()
        assert S.labels[heads].tolist() == (-C4.table[heads % 4]).tolist()
        assert np.array_equal(S.points[~coins], S_clean.points[~coins])
        assert np.array_equal(S.labels[~coins], S_clean.labels[~coins])

    def test_deterministic(self):
        strategy = lambda i, prefix, c, rng: (0, -1)
        a, _ = malicious_corrupt(D4, C4, 30, 0.4, strategy, RngHandle(9))
        b, _ = malicious_corrupt(D4, C4, 30, 0.4, strategy, RngHandle(9))
        assert a.multiset() == b.multiset()


class TestStrongMalicious:
    def test_writing_outside_coin_set_raises(self):
        S = clean()

        def bad(S_clean, Z, c, rng):
            outside = next(i for i in range(len(S_clean)) if i not in set(Z.tolist()))
            return StrategyResult(np.array([outside]), Sample([0], [1]))

        with pytest.raises(ValueError, match="outside"):
            strong_malicious_corrupt(S, 0.2, bad, RngHandle(4))

    @pytest.mark.parametrize("wrong", ["negative", "too-large"])
    def test_position_out_of_range_raises_first_outside(self, wrong):
        # A negative position that would wrap onto a coin, or one at n or
        # beyond, is outside Z; the error names the first such position.
        S = clean()
        n = len(S)
        z = int(strong_malicious_corrupt(S, 0.2, noop, RngHandle(4))[1].coin_set[0])
        first = z - n if wrong == "negative" else n
        later = n + 5 if wrong == "negative" else -1

        def bad(S_clean, Z, c, rng):
            assert z in Z
            return StrategyResult(np.array([z, first, later]), Sample([0, 0, 0], [1, 1, 1]))

        with pytest.raises(ValueError, match=rf"outside its coin set: position {first}$"):
            strong_malicious_corrupt(S, 0.2, bad, RngHandle(4))

    def test_unused_coins_stay_clean(self):
        S = clean()
        out, ledger = strong_malicious_corrupt(S, 0.3, noop, RngHandle(5))
        assert out.multiset() == S.multiset()
        assert ledger.drawn_budget == len(ledger.coin_set)

    def test_coin_set_law(self):
        # Mean |Z| over trials approximates eta * n (4-sigma tolerance).
        n, eta, trials = 200, 0.25, 300
        S = clean(n)
        sizes = [
            strong_malicious_corrupt(S, eta, noop, RngHandle(0).split(t))[1].drawn_budget
            for t in range(trials)
        ]
        se = np.sqrt(n * eta * (1 - eta) / trials)
        assert abs(np.mean(sizes) - eta * n) < 4 * se

    def test_contradict_replaced_strategy(self):
        S = clean(100)
        out, ledger = strong_malicious_corrupt(
            S, 0.2, contradict_replaced, RngHandle(6), c=C4
        )
        # Every introduced example contradicts some clean example.
        clean_ms = S.multiset()
        for pt, lab in zip(ledger.introduced.points, ledger.introduced.labels):
            assert clean_ms.get((int(pt), -int(lab)), 0) > 0


class TestNasty:
    def test_budget_exceeded_raises(self):
        S = clean(10)

        def greedy(S_clean, z, c, rng):
            return StrategyResult(np.arange(z + 1), Sample(np.zeros(z + 1), np.ones(z + 1)))

        with pytest.raises(ValueError, match="budget"):
            nasty_corrupt(S, 0.3, greedy, RngHandle(1))

    def test_budget_law_binomial(self):
        n, eta, trials = 100, 0.2, 500
        S = clean(n)
        budgets = np.array(
            [
                nasty_corrupt(S, eta, noop, RngHandle(11).split(t))[1].drawn_budget
                for t in range(trials)
            ]
        )
        # Kolmogorov-Smirnov against the Bin(n, eta) CDF (randomized midpoints
        # avoided: use a loose mean/variance check plus support bounds).
        assert budgets.min() >= 0 and budgets.max() <= n
        assert abs(budgets.mean() - n * eta) < 4 * np.sqrt(n * eta * (1 - eta) / trials)
        p = stats.chisquare(
            *_pooled(budgets, n, eta, trials), sum_check=False
        ).pvalue
        assert p > 1e-3

    def test_flip_first_z(self):
        S = clean(30)
        out, ledger = nasty_corrupt(S, 0.3, flip_first_z_labels, RngHandle(2))
        z = ledger.budget
        assert np.array_equal(out.labels[:z], -S.labels[:z])
        assert np.array_equal(out.labels[z:], S.labels[z:])


def _pooled(budgets, n, eta, trials, min_expected=5.0):
    observed = np.bincount(budgets, minlength=n + 1).astype(float)
    expected = trials * stats.binom.pmf(np.arange(n + 1), n, eta)
    obs, exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs.append(acc_o)
            exp.append(acc_e)
            acc_o = acc_e = 0.0
    obs[-1] += acc_o
    exp[-1] += acc_e
    return obs, exp


class TestFixedRate:
    def test_exact_count_enforced(self):
        S = clean(20)
        with pytest.raises(ValueError, match="exactly"):
            fixed_rate_nasty_corrupt(S, 0.25, noop, RngHandle(0))

    def test_floor_eta_n(self):
        S = clean(23)
        out, ledger = fixed_rate_nasty_corrupt(
            S, 0.25, flip_first_z_labels, RngHandle(0)
        )
        assert ledger.budget == 5  # floor(0.25 * 23)

    def test_eta_zero(self):
        S = clean(10)
        out, ledger = fixed_rate_nasty_corrupt(
            S, 0.0, flip_first_z_labels, RngHandle(0)
        )
        assert out.multiset() == S.multiset() and ledger.budget == 0


class TestHuber:
    def test_eta_zero_clean(self):
        outliers = point_mass(0, 8)
        S = huber_sample(D4, C4, 0.0, outliers, 40, RngHandle(1))
        assert np.array_equal(S.labels, C4.evaluate_many(S.points))

    def test_outlier_point_mass(self):
        # Outlier mass on labeled index 5 = (point 2, label -1); eta close to
        # 1 makes nearly all examples that outlier.
        outliers = point_mass(5, 8)
        S = huber_sample(D4, C4, 0.99, outliers, 300, RngHandle(2))
        is_outlier = (S.points == 2) & (S.labels == -1)
        clean_ok = S.labels == C4.evaluate_many(S.points)
        assert np.all(is_outlier | clean_ok)
        assert is_outlier.mean() > 0.9


class TestLedger:
    @staticmethod
    def _ledger(indices):
        S, idx = clean(10), np.array(indices, np.int64)
        return CorruptionLedger(
            corrupted_indices=idx,
            introduced=Sample(np.zeros(idx.size, np.int64), np.ones(idx.size, np.int8)),
            drawn_budget=idx.size,
            clean=S,
        )

    def test_duplicate_indices_rejected(self):
        for indices in ([1, 1], [9, 0, 4, 0], [0, 9, 9]):
            with pytest.raises(ValueError, match="distinct"):
                self._ledger(indices).validate()
        for indices in ([], [9, 0, 4]):
            self._ledger(indices).validate()

    @pytest.mark.parametrize("indices", [[3, 10, 3], [-1, -1]])
    def test_range_checked_before_distinctness(self, indices):
        with pytest.raises(ValueError, match="out of range"):
            self._ledger(indices).validate()

    @pytest.mark.parametrize("n_introduced", [1, 3])
    def test_strategy_length_mismatch_rejected(self, n_introduced):
        # Two positions (floor(0.2 * 10)) but a different number of examples.
        def lopsided(S_clean, k, c, rng):
            return StrategyResult(np.arange(k), clean(n_introduced))

        with pytest.raises(ValueError, match="arity"):
            fixed_rate_nasty_corrupt(clean(10), 0.2, lopsided, RngHandle(0))
