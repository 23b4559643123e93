"""Learner interface and meta-learners.

Contains the contradictory-pair filter, success amplification by sample
splitting, its holdout-selection variant (which is a counterexample generator,
not an improvement), and hypothesis selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import (
    MixtureHypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
    _check_intervals,
    _within,
    empirical_error,
)

__all__ = [
    "Learner",
    "AmplifyParams",
    "ice_filter",
    "ice_filter_keep",
    "amplify",
    "bad_amplify",
    "select_best_hypothesis",
]


@dataclass(frozen=True)
class Learner:
    """A base learner: trains one hypothesis per length-``n`` sample.

    ``train(points, labels, rng)`` takes ``k`` samples as ``(k, n)`` point and
    ±1 label arrays and one handle, from which it draws every row's
    randomness, and returns ``k`` hypotheses, row ``i``'s from row ``i``'s
    sample and coins. Rows must get independent coins (for example, row ``i``
    the ``i``-th of ``k`` uniforms from one generator). ``n`` is an integer >= 1.
    """

    n: int = field(metadata={"interval": "[1, inf)"})
    train: Callable[[np.ndarray, np.ndarray, RngHandle], list[TableHypothesis]]

    def __post_init__(self) -> None:
        _check_intervals(self)


@dataclass(frozen=True)
class AmplifyParams:
    """Group count and target slack for success amplification."""

    k: int = field(metadata={"interval": "[1, inf)"})
    eps_additional: float = field(default=0.1, metadata={"interval": "(0, inf)"})
    delta: float = field(default=0.01, metadata={"interval": "(0, 1)"})

    def __post_init__(self) -> None:
        _check_intervals(self)

    @classmethod
    def auto(cls, eps_additional: float, delta: float) -> "AmplifyParams":
        """k = ⌈ln(1/δ) / ε_additional²⌉, derived once both arguments have
        passed their declared intervals. A group count that is not a finite
        float (ε_additional so small that ε² underflows or the quotient
        overflows) is a :class:`ValueError`."""
        p = cls(k=1, eps_additional=eps_additional, delta=delta)
        eps_squared = p.eps_additional**2
        groups = math.log(1.0 / p.delta) / eps_squared if eps_squared else math.inf
        if not math.isfinite(groups):
            raise ValueError(
                f"eps_additional={p.eps_additional!r} (delta={p.delta!r}) gives the group "
                f"count ln(1/delta)/eps_additional^2 = {groups}, which is not finite"
            )
        return replace(p, k=max(math.ceil(groups), 1))


def ice_filter_keep(S: Sample) -> np.ndarray:
    """Positions surviving contradictory-pair cancellation (see ice_filter)."""
    n = len(S)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # One stable sort groups equal points and keeps each group in sample order.
    order = np.argsort(S.points, kind="stable")
    pts, labs = S.points[order], S.labels[order]
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


def _train_groups(
    A: Learner, S_big: Sample, k: int, rng: RngHandle
) -> tuple[list[TableHypothesis], Sample]:
    """Uniformly permute ``S_big`` with ``rng.split(0)`` and train ``A`` on
    each of its first ``k`` runs of ``A.n`` examples, all ``k`` in one
    ``train`` call with ``rng.split(1)``. Returns the hypotheses and the
    examples after the groups."""
    n = A.n
    perm = rng.split(0).generator().permutation(len(S_big))
    groups = perm[: k * n].reshape(k, n)
    hyps = A.train(S_big.points[groups], S_big.labels[groups], rng.split(1))
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
) -> TableHypothesis:
    """Holdout-selection amplification (the flawed variant).

    Permute and split as in :func:`amplify`, hold out ``n_test`` examples, and
    return the trained hypothesis with the lowest empirical error on the
    holdout, ties broken uniformly at random.
    """
    k = _within(k, "[1, inf)", "k", integer=True)
    n_test = _within(n_test, "[1, inf)", "n_test", integer=True)
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
    hyps: list[TableHypothesis], S_test: Sample
) -> tuple[int, TableHypothesis]:
    """Argmin of empirical test error; ties broken by lowest index."""
    if not hyps:
        raise ValueError("empty hypothesis list")
    if len(S_test) == 0:
        raise ValueError("empty test sample")
    errors = [empirical_error(h, S_test) for h in hyps]
    idx = int(np.argmin(errors))
    return idx, hyps[idx]

