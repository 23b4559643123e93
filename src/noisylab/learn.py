"""Learner interface and meta-learners.

Contains the contradictory-pair filter, the subsampling filter, success
amplification by sample splitting, its holdout-selection variant (which is a
counterexample generator, not an improvement), hypothesis selection, and the
quartic sample-size calculator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    Hypothesis,
    MixtureHypothesis,
    RngHandle,
    Sample,
    empirical_error,
    philox_keys,
)

__all__ = [
    "Learner",
    "AmplifyParams",
    "ice_filter",
    "ice_filter_keep",
    "subsample_filter",
    "amplify",
    "bad_amplify",
    "select_best_hypothesis",
    "bv_sample_size",
]


# A learner called with ``rng`` subsamples with ``rng.split(0)`` and trains
# with the randomness of ``rng.split(_TRAIN_ID)``.
_TRAIN_ID = 1


@dataclass(frozen=True)
class Learner:
    """A base learner: trains one hypothesis per length-``n`` sample.

    ``train(points, labels, keys)`` takes ``k`` samples as ``(k, n)`` point
    and ±1 label arrays and the ``(k, 2)`` Philox keys of their randomness
    (see :func:`~noisylab.core.philox_uniforms`), and returns ``k``
    hypotheses, row ``i``'s a function of row ``i`` alone. Calling the learner
    trains it on one sample: oversized samples are first reduced with
    :func:`subsample_filter`; undersized samples are an error.
    """

    n: int
    train: Callable[[np.ndarray, np.ndarray, np.ndarray], list[Hypothesis]]
    name: str = "learner"

    def __call__(self, S: Sample, rng: RngHandle) -> Hypothesis:
        if len(S) > self.n:
            S = subsample_filter(S, self.n, rng.split(0))
        elif len(S) < self.n:
            raise ValueError(f"learner needs {self.n} examples, got {len(S)}")
        keys = philox_keys([(*rng.ids, _TRAIN_ID)])
        return self.train(S.points[None], S.labels[None], keys)[0]


@dataclass(frozen=True)
class AmplifyParams:
    """Group count and target slack for success amplification."""

    k: int
    eps_additional: float = 0.1
    delta: float = 0.01

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if self.eps_additional <= 0:
            raise ValueError("eps_additional must be > 0")

    @classmethod
    def auto(cls, eps_additional: float, delta: float, C_k: float = 1.0) -> "AmplifyParams":
        """k = ⌈C_k · ln(1/δ) / ε_additional²⌉ (the constant defaults to 1)."""
        k = math.ceil(C_k * math.log(1.0 / delta) / eps_additional**2)
        return cls(k=max(k, 1), eps_additional=eps_additional, delta=delta)


def _stable_point_order(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.argsort(points, kind="stable")`` and the sorted points.

    With every point in ``[0, INT64_MAX // n)``, the unique keys
    ``points * n + i`` fit in int64 and one ``np.sort`` of them gives both,
    several times faster than the stable argsort; otherwise that runs.
    """
    n = points.size
    if n and points.min() >= 0 and points.max() < np.iinfo(np.int64).max // n:
        key = np.sort(points * n + np.arange(n))
        return key % n, key // n
    order = np.argsort(points, kind="stable")
    return order, points[order]


def ice_filter_keep(S: Sample) -> np.ndarray:
    """Positions surviving contradictory-pair cancellation (see ice_filter)."""
    n = len(S)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # One stable sort groups equal points and keeps each group in sample order.
    order, pts = _stable_point_order(S.points)
    labs = S.labels[order]
    new_group = np.r_[True, pts[1:] != pts[:-1]]
    starts = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1
    net = np.add.reduceat(labs, starts, dtype=np.int64)
    matches = labs == np.where(net >= 0, 1, -1)[group]
    # Matching examples earlier in the same group: this one's occurrence rank.
    before = np.cumsum(matches) - matches
    rank = before - before[starts][group]
    keep = np.zeros(n, dtype=bool)
    keep[order[matches & (rank < np.abs(net)[group])]] = True
    return np.flatnonzero(keep)


def ice_filter(S: Sample) -> Sample:
    """Cancel contradictory pairs ``(x,+1)``/``(x,-1)`` until none remain.

    Canonical form: for each point keep ``|c₊ - c₋|`` copies of its majority
    label, with the earliest occurrences surviving. Any maximal sequence of
    pair cancellations yields this multiset.
    """
    if len(S) == 0:
        return S
    return S.take(ice_filter_keep(S))


def subsample_filter(S: Sample, n: int, rng: RngHandle) -> Sample:
    """Uniform ``n``-subset of ``S`` without replacement, order randomized."""
    if n > len(S):
        raise ValueError(f"cannot subsample {n} from {len(S)} examples")
    perm = rng.generator().permutation(len(S))[:n]
    return S.take(perm)


def _train_groups(
    A: Learner, S_big: Sample, k: int, rng: RngHandle
) -> tuple[list[Hypothesis], Sample]:
    """Uniformly permute ``S_big`` and train ``A`` on each of its first ``k``
    runs of ``A.n`` examples, group ``i`` exactly as ``A(group, rng.split(1, i))``
    would, all ``k`` in one batch. Returns the hypotheses and the examples
    after the groups."""
    n = A.n
    perm = rng.split(0).generator().permutation(len(S_big))
    groups = perm[: k * n]
    ids = rng.ids
    keys = philox_keys([(*ids, 1, i, _TRAIN_ID) for i in range(k)])
    hyps = A.train(S_big.points[groups].reshape(k, n), S_big.labels[groups].reshape(k, n), keys)
    return hyps, S_big.take(perm[k * n :])


def amplify(
    A: Learner, params: AmplifyParams, S_big: Sample, rng: RngHandle
) -> MixtureHypothesis:
    """Success amplification by sample splitting.

    Uniformly permute the ``n·k`` sample, split into ``k`` groups, train one
    hypothesis per group, and return their uniform mixture.
    """
    k = params.k
    if len(S_big) != A.n * k:
        raise ValueError(f"need exactly n·k = {A.n * k} examples, got {len(S_big)}")
    hyps, _ = _train_groups(A, S_big, k, rng)
    return MixtureHypothesis(hyps)


def bad_amplify(
    A: Learner, k: int, n_test: int, S_big: Sample, rng: RngHandle
) -> Hypothesis:
    """Holdout-selection amplification (the flawed variant).

    Permute and split as in :func:`amplify`, hold out ``n_test`` examples, and
    return the trained hypothesis with the lowest empirical error on the
    holdout, ties broken uniformly at random.
    """
    if len(S_big) != A.n * k + n_test:
        raise ValueError(
            f"need exactly n·k + n_test = {A.n * k + n_test} examples, got {len(S_big)}"
        )
    hyps, holdout = _train_groups(A, S_big, k, rng)
    errors = np.array([empirical_error(h, holdout) for h in hyps])
    best = np.flatnonzero(errors == errors.min())
    pick = int(best[rng.split(2).generator().integers(0, len(best))])
    return hyps[pick]


def select_best_hypothesis(
    hyps: list[Hypothesis], S_test: Sample
) -> tuple[int, Hypothesis]:
    """Argmin of empirical test error; ties broken by lowest index."""
    if not hyps:
        raise ValueError("empty hypothesis list")
    if len(S_test) == 0:
        raise ValueError("empty test sample")
    errors = [empirical_error(h, S_test) for h in hyps]
    idx = int(np.argmin(errors))
    return idx, hyps[idx]


def bv_sample_size(n: int, domain_size: int, param: float, C: float = 1.0) -> int:
    """Quartic oversampling bound ``m = ⌈C·n⁴·(log₂(2|X|))²/param⁴⌉``."""
    if param <= 0:
        raise ValueError("param must be > 0")
    if C <= 0:
        raise ValueError("C must be > 0")
    return math.ceil(C * n**4 * math.log2(2 * domain_size) ** 2 / param**4)

