"""Test-only fixture builders and the ICE trial's per-block accounting.

Nothing in the package calls these: they build test inputs, or recount a
trial independently of the learner they check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from noisylab.codes import ReceivedWord
from noisylab.core import DiscreteDistribution, Sample
from noisylab.icesep import IceSepParams
from noisylab.learn import ice_filter_keep
from noisylab.noise import CorruptionLedger
from noisylab.sep import KeyValueConcept


def sample_from_pairs(pairs: Sequence[tuple[int, int]]) -> Sample:
    if not pairs:
        return Sample.empty()
    pts, labs = zip(*pairs)
    return Sample(np.array(pts, dtype=np.int64), np.array(labs, dtype=np.int8))


def point_mass(index: int, size: int) -> DiscreteDistribution:
    w = np.zeros(size)
    w[index] = 1.0
    return DiscreteDistribution(w)


def erase(bits: Sequence[int] | np.ndarray, positions: Sequence[int]) -> ReceivedWord:
    arr = np.array(bits)
    arr[list(positions)] = 0
    return ReceivedWord(arr)


@dataclass(frozen=True)
class BlockCounters:
    """Per-key-block corruption accounting for one trial.

    For block ``i`` with true bit ``b_i``: ``alpha`` counts uncorrupted clean
    examples, ``beta`` introduced examples with the correct label, ``gamma``
    correct examples cancelled by the filter, ``delta`` incorrectly-labeled
    survivors, and ``alpha_prime``/``beta_prime`` the post-filter survivors
    of the alpha/beta populations. ``alpha_prime + beta_prime = alpha + beta
    - gamma`` holds by construction.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    alpha_prime: np.ndarray
    beta_prime: np.ndarray

    @classmethod
    def from_trial(
        cls, ledger: CorruptionLedger, c: KeyValueConcept, params: IceSepParams
    ) -> "BlockCounters":
        S_corr = ledger.reapply()
        n = len(S_corr)
        survived = np.zeros(n, dtype=bool)
        survived[ice_filter_keep(S_corr)] = True
        corrupted = np.zeros(n, dtype=bool)
        corrupted[ledger.corrupted_indices] = True
        correct = S_corr.labels == c.evaluate_many(S_corr.points)

        def count(mask: np.ndarray) -> np.ndarray:
            return params.layout.block_counts(S_corr.points[mask])

        alpha = count(~corrupted)
        beta = count(corrupted & correct)
        alpha_prime = count(~corrupted & survived)
        beta_prime = count(corrupted & correct & survived)
        delta = count(~correct & survived)
        gamma = alpha + beta - alpha_prime - beta_prime
        return cls(alpha, beta, gamma, delta, alpha_prime, beta_prime)

    def v_estimate(self, R: float, eta: float, codeword_bits: np.ndarray) -> np.ndarray:
        """Signed reconstruction ``b_i * (alpha'_i + beta'_i - delta_i) /
        (R(1-eta))`` of the learner's per-block key-bit estimates."""
        raw = (self.alpha_prime + self.beta_prime - self.delta) / (R * (1 - eta))
        return codeword_bits.astype(np.float64) * raw
