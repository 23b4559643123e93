"""Executable corruption processes for five noise models.

Models: malicious (online per-example η-coin), strong malicious (adversary
sees the whole sample and the coin set), nasty (budget drawn first with a
Bin(n, η) law), fixed-rate nasty (exactly ⌊ηn⌋ replacements), and Huber
contamination (mixture with an outlier distribution). On one handle, a malicious
adversary replaying :func:`huber_sample`'s outlier draws gives its sample exactly.

An offline adversary is a plain function ``strategy(S_clean, budget, c,
rng)`` returning a :class:`StrategyResult`: the sample positions it rewrites
as an int64 array, and a :class:`~noisylab.core.Sample` of the examples
written there. The budget is an int for the nasty models and the coin set
(an array of positions) for strong malicious. The online adversary of
:func:`malicious_corrupt` is ``strategy(i, prefix, c, rng)`` and returns the
example written at position ``i``. A strategy that needs more (the
distribution, a concept-class instance) closes over it. :func:`noop`,
:func:`flip_first_z_labels`, :func:`flip_random_labels` and
:func:`contradict_replaced` are the stock strategies.

Every corruptor returns the corrupted sample together with a
:class:`CorruptionLedger` recording exactly which positions were touched and
how, so that tests can audit the adversary's moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DiscreteDistribution,
    RngHandle,
    Sample,
    TableHypothesis,
    _within,
    draw_clean_sample,
)

__all__ = [
    "CorruptionLedger",
    "StrategyResult",
    "malicious_corrupt",
    "strong_malicious_corrupt",
    "nasty_corrupt",
    "fixed_rate_nasty_corrupt",
    "huber_sample",
    "noop",
    "flip_first_z_labels",
    "flip_random_labels",
    "contradict_replaced",
]


@dataclass
class StrategyResult:
    """Adversary output: the rewritten positions, what is written there, and
    an optional trial flag.

    ``positions`` (int64) are distinct sample positions; position
    ``positions[i]`` receives example ``i`` of ``introduced``. A strategy
    sets ``flagged`` when the drawn budget was too small to carry out its
    scripted plan (an exhausted / non-malleable trial).
    """

    positions: np.ndarray
    introduced: Sample
    flagged: bool = False
    flag_reason: str | None = None

    @classmethod
    def empty(cls) -> "StrategyResult":
        """No corruptions."""
        return cls(np.empty(0, dtype=np.int64), Sample.empty())


@dataclass
class CorruptionLedger:
    """Full record of one corruption pass.

    ``corrupted_indices`` and ``introduced`` are parallel: position
    ``corrupted_indices[i]`` held ``clean[corrupted_indices[i]]`` and now holds
    ``introduced[i]``. ``budget`` is the realized corruption count;
    ``drawn_budget`` is the budget the process drew before the strategy chose
    how much of it to use (for strong malicious, the size of the coin set).
    """

    corrupted_indices: np.ndarray
    introduced: Sample
    drawn_budget: int
    clean: Sample
    coin_set: np.ndarray | None = None
    flagged: bool = False
    flag_reason: str | None = None

    @property
    def budget(self) -> int:
        return len(self.corrupted_indices)

    def validate(self) -> None:
        n = len(self.clean)
        if len(self.introduced) != self.budget:
            raise ValueError("ledger arity mismatch")
        if not self.budget:
            return
        if self.corrupted_indices.min() < 0 or self.corrupted_indices.max() >= n:
            raise ValueError("corrupted index out of range")
        if np.bincount(self.corrupted_indices).max() > 1:
            raise ValueError("corrupted indices must be distinct")

    def reapply(self) -> Sample:
        """Reconstruct the corrupted sample from the clean sample + ledger."""
        return self.clean.replace_at(self.corrupted_indices, self.introduced)


def _apply_choices(S_clean: Sample, result: StrategyResult, drawn_budget: int,
                   coin_set: np.ndarray | None = None) -> tuple[Sample, CorruptionLedger]:
    idx = result.positions
    ledger = CorruptionLedger(
        corrupted_indices=idx,
        introduced=result.introduced,
        drawn_budget=drawn_budget,
        clean=S_clean,
        coin_set=coin_set,
        flagged=result.flagged,
        flag_reason=result.flag_reason,
    )
    ledger.validate()
    return ledger.reapply(), ledger


def malicious_corrupt(
    D: DiscreteDistribution,
    c: TableHypothesis,
    n: int,
    eta: float,
    strategy: Callable[[int, Sample, TableHypothesis, RngHandle], tuple[int, int]],
    rng: RngHandle,
) -> tuple[Sample, CorruptionLedger]:
    """Online malicious corruption.

    For each position independently: with probability 1-η the clean example
    ``(x_i, c(x_i))``, otherwise the strategy's choice. The strategy is called
    once per corrupted position and only ever sees the examples emitted so
    far (the online protocol is enforced by construction: it receives the
    prefix, never the full sample).
    """
    _within(eta, "[0, 1)", "noise rate")
    clean = draw_clean_sample(D, c, n, rng.split(1))  # checks n before the coins
    gen = rng.split(0).generator()
    coins = gen.random(len(clean)) < eta
    out_pts = clean.points.copy()
    out_labs = clean.labels.copy()
    heads = np.flatnonzero(coins)
    for j, i in enumerate(heads.tolist()):
        prefix = Sample(out_pts[:i], out_labs[:i])
        point, label = strategy(i, prefix, c, rng.split(2, j))
        out_pts[i], out_labs[i] = int(point), int(label)
    result = StrategyResult(heads, Sample(out_pts[heads], out_labs[heads]))
    return _apply_choices(clean, result, drawn_budget=int(np.count_nonzero(coins)))


def strong_malicious_corrupt(
    S_clean: Sample,
    eta: float,
    strategy: Callable[..., StrategyResult],
    rng: RngHandle,
    c: TableHypothesis | None = None,
) -> tuple[Sample, CorruptionLedger]:
    """Strong malicious corruption.

    The coin set Z is drawn as independent η-coins over the positions; the
    strategy sees the entire clean sample and Z, and may replace any subset
    of Z (unused positions keep their clean examples). Writing outside Z is
    an error.
    """
    _within(eta, "[0, 1)", "noise rate")
    n = len(S_clean)
    gen = rng.split(0).generator()
    coins = gen.random(n) < eta
    Z = np.flatnonzero(coins)
    result = strategy(S_clean, Z, c, rng.split(1))
    pos = result.positions
    # A position outside [0, n) looks up the appended False.
    outside = pos[~np.append(coins, False)[np.where((pos >= 0) & (pos < n), pos, n)]]
    if outside.size:
        raise ValueError(f"strategy wrote outside its coin set: position {outside[0]}")
    return _apply_choices(S_clean, result, drawn_budget=len(Z), coin_set=Z)


def nasty_corrupt(
    S_clean: Sample,
    eta: float,
    strategy: Callable[..., StrategyResult],
    rng: RngHandle,
    c: TableHypothesis | None = None,
) -> tuple[Sample, CorruptionLedger]:
    """Nasty corruption with the budget-first protocol.

    A budget ``z`` is drawn first as the sum of n explicit η-coins (so its
    law is exactly Bin(n, η) and independent of the sample); the strategy
    sees the whole clean sample and ``z`` and returns at most ``z``
    replacements, applied in place.
    """
    _within(eta, "[0, 1)", "noise rate")
    n = len(S_clean)
    gen = rng.split(0).generator()
    z = int(np.count_nonzero(gen.random(n) < eta))
    result = strategy(S_clean, z, c, rng.split(1))
    if len(result.positions) > z:
        raise ValueError(f"strategy used {len(result.positions)} corruptions, budget {z}")
    return _apply_choices(S_clean, result, drawn_budget=z)


def fixed_rate_nasty_corrupt(
    S_clean: Sample,
    eta: float,
    strategy: Callable[..., StrategyResult],
    rng: RngHandle,
    c: TableHypothesis | None = None,
) -> tuple[Sample, CorruptionLedger]:
    """Fixed-rate nasty corruption: exactly ⌊ηn⌋ positions replaced."""
    _within(eta, "[0, 1)", "noise rate")
    n = len(S_clean)
    k = int(np.floor(eta * n))
    result = strategy(S_clean, k, c, rng.split(1))
    if len(result.positions) != k:
        raise ValueError(f"fixed-rate strategy must use exactly {k} corruptions, used {len(result.positions)}")
    return _apply_choices(S_clean, result, drawn_budget=k)


def huber_sample(
    D: DiscreteDistribution,
    c: TableHypothesis,
    eta: float,
    outliers: DiscreteDistribution,
    n: int,
    rng: RngHandle,
) -> Sample:
    """Huber contamination: each example is clean w.p. 1-η, else an outlier.

    ``outliers`` is a distribution over the labeled-example index space
    (see :func:`noisylab.core.labeled_index`).
    """
    _within(eta, "[0, 1)", "noise rate")
    S = draw_clean_sample(D, c, n, rng.split(1))  # checks n before the coins
    gen = rng.split(0).generator()
    coins = gen.random(len(S)) < eta
    n_out = int(np.count_nonzero(coins))
    if not n_out:
        return S
    drawn = outliers.sample_points(n_out, rng.split(2))
    pts = S.points.copy()
    labs = S.labels.copy()
    pts[coins] = drawn // 2
    labs[coins] = np.where(drawn % 2 == 1, -1, 1).astype(np.int8)
    return Sample(pts, labs)


# --------------------------------------------------------------------------
# Stock strategies
# --------------------------------------------------------------------------


def noop(S_clean: Sample, budget, c, rng) -> StrategyResult:
    """Uses no corruptions at all (any offline model)."""
    return StrategyResult.empty()


def flip_first_z_labels(S_clean: Sample, z: int, c, rng) -> StrategyResult:
    """Nasty/fixed-rate strategy: flip the labels of the first z positions."""
    z = min(z, len(S_clean))
    return StrategyResult(np.arange(z), Sample(S_clean.points[:z], -S_clean.labels[:z]))


def flip_random_labels(S_clean: Sample, z: int, c, rng: RngHandle) -> StrategyResult:
    """Nasty/fixed-rate strategy: flip the labels of z uniform positions."""
    z = min(z, len(S_clean))
    idx = rng.generator().choice(len(S_clean), size=z, replace=False)
    return StrategyResult(idx, Sample(S_clean.points[idx], -S_clean.labels[idx]))


def contradict_replaced(S_clean: Sample, Z: np.ndarray, c, rng: RngHandle) -> StrategyResult:
    """Strong-malicious strategy: each coin position becomes a contradiction
    of a uniformly chosen clean example (the canonical ICE attack)."""
    if len(Z) == 0 or len(S_clean) == 0:
        return StrategyResult.empty()
    targets = rng.generator().integers(0, len(S_clean), size=len(Z))
    return StrategyResult(Z, Sample(S_clean.points[targets], -S_clean.labels[targets]))
