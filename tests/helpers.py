"""Test-only fixture builders, the ICE trial's per-block accounting,
block-by-block references for the separation adversaries, a step-by-step
search for the key/value layout's block size, a pattern-by-pattern
reference for codes-suite's erasure check, bit-by-bit references for
unpacking masks and scoring packed rows, and the table of bad masks every
mask-taking entry point must reject.

Nothing in the package calls these: they build test inputs, recount a trial
independently of the learner they check, or plan an attack one key block (or
check one erasure pattern) at a time to check the package's array forms
against.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from noisylab.codes import (
    Codeword,
    GeneratorMatrix,
    ReceivedWord,
    encode,
    erasure_list_decode_many,
    masks_to_signs,
)
from noisylab.core import DiscreteDistribution, RngHandle, Sample, TableHypothesis
from noisylab.cryptoprim import ExtractorSpec, PrfDigestStore, PrfKey, extract
from noisylab.icesep import IceSepParams
from noisylab.learn import ice_filter_keep
from noisylab.noise import CorruptionLedger, StrategyResult
from noisylab.sep import KeyValueConcept, KeyValueLayout


def sample_from_pairs(pairs: Sequence[tuple[int, int]]) -> Sample:
    if not pairs:
        return Sample.empty()
    pts, labs = zip(*pairs)
    return Sample(np.array(pts, dtype=np.int64), np.array(labs, dtype=np.int8))


def point_mass(index: int, size: int) -> DiscreteDistribution:
    w = np.zeros(size)
    w[index] = 1.0
    return DiscreteDistribution(w)


def evaluate(h: TableHypothesis, point: int) -> int:
    """The label ``h`` gives one point."""
    return int(h.evaluate_many(np.asarray([point], dtype=np.int64))[0])


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


def budget_capped_plans(plans: Iterable[tuple[np.ndarray, Sample]], z: int) -> StrategyResult:
    """Concatenate ``plans``, each ``(positions, examples written there)``, in
    order, stopping at the budget ``z``: a plan item beyond the budget cuts the
    result there and flags the trial as budget exhausted."""
    positions = [np.empty(0, dtype=np.int64)]
    points = [np.empty(0, dtype=np.int64)]
    labels = [np.empty(0, dtype=np.int8)]
    used = 0
    flagged = False
    for pos, new in plans:
        if used + len(pos) > z:
            pos, new, flagged = pos[: z - used], new.take(slice(0, z - used)), True
        positions.append(pos)
        points.append(new.points)
        labels.append(new.labels)
        used += len(pos)
        if flagged:
            break
    return StrategyResult(
        np.concatenate(positions),
        Sample(np.concatenate(points), np.concatenate(labels)),
        flagged=flagged,
        flag_reason="budget exhausted" if flagged else None,
    )


def _key_blocks(layout: KeyValueLayout, points: np.ndarray) -> np.ndarray:
    """Key-block index of each point, ``-1`` on the value side."""
    return np.where(points < layout.key_size, layout.block_of(points), -1)


def sep_nasty_block_plans(layout: KeyValueLayout) -> Callable:
    """The separation's key-flipping adversary, one ``-1`` block at a time."""

    def strategy(S_clean: Sample, z: int, c: KeyValueConcept, rng) -> StrategyResult:
        blocks = _key_blocks(layout, S_clean.points)

        def block_plans():
            for j in np.flatnonzero(c.codeword.bits == -1):
                pos = np.flatnonzero(blocks == j)
                yield pos, Sample(S_clean.points[pos], np.ones(len(pos), dtype=np.int8))

        return budget_capped_plans(block_plans(), z)

    return strategy


def ice_idealized_block_plans(layout: KeyValueLayout) -> Callable:
    """The ICE pair-cancelling adversary, one key block at a time."""

    def strategy(S_clean: Sample, z: int, c: KeyValueConcept, rng: RngHandle) -> StrategyResult:
        gen = rng.generator()
        blocks = _key_blocks(layout, S_clean.points)

        def block_plans():
            for j in range(layout.w):
                positions = np.flatnonzero(blocks == j)
                offset = positions.size - positions.size // 2
                partners = positions[offset:]
                pts = S_clean.points[partners]
                labs = -S_clean.labels[partners]
                if positions.size % 2 == 1:
                    x = int(gen.integers(layout.key_size, layout.domain_size))
                    pts = np.append(pts, x)
                    labs = np.append(labs, evaluate(c, x))
                yield positions[:offset], Sample(pts, labs)

        return budget_capped_plans(block_plans(), z)

    return strategy


def fit_block_size_reference(w: int, d: int, key_fraction: Fraction) -> int:
    """``KeyValueLayout.fit``'s block size, found by trying each block size in
    turn from the smallest whose value side reaches ``2^d`` until the value
    side is an integer."""
    ratio = (1 - key_fraction) / key_fraction
    b = max(1, math.ceil((1 << d) / (ratio * w)))
    while True:
        value = w * b * ratio
        if value.denominator == 1 and value >= (1 << d):
            return b
        b += 1


def erasure_roundtrip_reference(G: GeneratorMatrix, max_erasures: int) -> tuple[int, bool]:
    """codes-suite's erasure check on one code, one pattern at a time:
    ``(decodes, ok)``. For every pattern of at most ``max_erasures`` erased
    positions, group the messages by punctured codeword; a pattern whose
    groups differ in size fails undecoded, and otherwise each distinct word
    must decode to exactly its group."""
    w, k = G.w, G.rows
    ok, decodes = True, 0
    for size in range(max_erasures + 1):
        for pattern in itertools.combinations(range(w), size):
            pat_mask = sum(1 << j for j in pattern)
            punctured = G.codeword_masks & np.uint64(((1 << w) - 1) ^ pat_mask)
            words, group_of = np.unique(punctured, return_inverse=True)
            decodes += words.size
            sizes = np.bincount(group_of)
            if (sizes != sizes[0]).any():
                ok = False
                continue
            # Row g: the messages of group g in ascending order.
            groups = np.argsort(group_of, kind="stable").reshape(words.size, sizes[0])
            consistent, decoded = erasure_list_decode_many(G, pat_mask, words, cap=1 << k)
            if not (consistent.all() and np.array_equal(decoded, groups)):
                ok = False
    return decodes, ok


def masks_to_signs_reference(masks: Iterable[int], w: int) -> np.ndarray:
    """``codes.masks_to_signs`` of a list of masks, one bit at a time: entry
    ``j`` of a row is -1 where bit ``j`` of its mask is set."""
    return np.array([[-1 if m >> j & 1 else 1 for j in range(w)] for m in masks], dtype=np.int8)


def agreement_reference(rows: np.ndarray, net: Sequence[float]) -> np.ndarray:
    """``h·net`` of each packed uint8 row ``h``, one bit at a time in int64:
    bit ``b`` of byte ``k`` is point ``8k + b``, labeled -1 where set."""
    scores = np.zeros(len(rows), dtype=np.int64)
    for i, row in enumerate(rows.tolist()):
        for k, byte in enumerate(row):
            for b in range(8):
                sign = -1 if byte >> b & 1 else 1
                scores[i] += sign * np.int64(net[8 * k + b])
    return scores


# The bad forms of a 4-bit packed mask: id -> (value, its message where one
# mask is taken, its message where a list of masks is taken). A single value
# goes to a list entry point as a one-entry list and gives its one-mask
# message there too. An entry point that takes one mask or a list reads only
# an array or a sequence other than str and bytes as a list, so there a
# bytes, set or generator is one mask and gets its one-mask message.
BAD_MASKS = {
    "bool": (True, "{what} must be an integer, got True", None),
    "np-bool": (np.True_, "{what} must be an integer, got np.True_", None),
    "bool-array": (
        np.array([True]),
        "{what} must be an integer, got array([ True])",
        "{what} must be an integer, got np.True_",
    ),
    "fraction": (1.5, "{what} must be an integer, got 1.5", None),
    "integral-float": (2.0, "{what} must be an integer, got 2.0", None),
    "str": ("3", "{what} must be an integer, got '3'", None),
    "0-d-array": (np.array(3), "{what} must be an integer, got array(3)", None),
    "negative": (-1, "{what} must be in [0, 2^4), got -1", None),
    "too-wide": (16, "{what} must be in [0, 2^4), got 16", None),
    "2-d": (
        np.zeros((1, 1), dtype=np.uint64),
        "{what} must be an integer, got array([[0]], dtype=uint64)",
        "{what}s must be one-dimensional",
    ),
    "bytes": (
        b"\x01\x02",
        "{what} must be an integer, got b'\\x01\\x02'",
        "{what}s must be an array or a sequence, got bytes",
    ),
    "set": (
        {1, 2},
        "{what} must be an integer, got {{1, 2}}",
        "{what}s must be an array or a sequence, got set",
    ),
    "generator": (
        (m for m in [1, 2]),  # never iterated: every entry point rejects it first
        "{what} must be an integer, got {value!r}",
        "{what}s must be an array or a sequence, got generator",
    ),
}


def _mask_entry_points() -> dict[str, tuple[str, str, Callable]]:
    """Every public entry point that takes a packed mask, each at 4 bits:
    id -> (its name for the mask, whether it takes ``"one"`` mask, a
    ``"list"`` of masks or ``"either"``, a call that hands it the value)."""
    G = GeneratorMatrix([1, 2, 4, 8], 4)
    spec = ExtractorSpec(w=4, u=4, m_out=2)
    layout = KeyValueLayout.fit(4, 2, Fraction(1, 2))
    net = np.zeros(layout.domain_size, dtype=np.int64)
    store = PrfDigestStore(4, layout.value_size)
    return {
        "Codeword-mask": ("codeword mask", "one", lambda m: Codeword(m, 0, 4)),
        "Codeword-message": ("message", "one", lambda m: Codeword(0, m, 4)),
        "PrfKey": ("key mask", "one", lambda m: PrfKey(m, 4)),
        "encode": ("message", "one", lambda m: encode(G, m)),
        "extract-source": ("source", "one", lambda m: extract(m, 0, spec)),
        "extract-seed": ("seed", "one", lambda m: extract(0, m, spec)),
        "masks_to_signs": ("mask", "either", lambda m: masks_to_signs(m, 4)),
        "GeneratorMatrix": ("row mask", "list", lambda m: GeneratorMatrix(m, 4)),
        "decode-words": ("word mask", "list", lambda m: erasure_list_decode_many(G, 0, m)),
        # A bad erasure or codeword list is rejected before its length is
        # compared with the one word or key.
        "decode-erasures": (
            "erasure mask", "either", lambda m: erasure_list_decode_many(G, m, [0])
        ),
        "packed": ("key mask", "list", lambda m: store.packed(m)),
        "best_candidate": (
            "codeword mask", "list", lambda m: layout.best_candidate(net, m, [0], store)
        ),
    }


def bad_mask_cases() -> list[tuple[str, Callable[[], object], str]]:
    """Every bad form at every entry point: ``(id, call, message)``, the
    message escaped and anchored as a ``pytest.raises`` pattern for exactly
    that one message."""
    cases = []
    for entry, (what, takes, call) in _mask_entry_points().items():
        for form, (value, one, many) in BAD_MASKS.items():
            if takes != "one" and many is None:
                value = [value]
            as_list = takes == "list" or takes == "either" and isinstance(value, np.ndarray)
            message = (many if as_list and many else one).format(what=what, value=value)
            cases.append((
                f"{entry}-{form}", lambda call=call, value=value: call(value),
                f"^{re.escape(message)}$",
            ))
    return cases
