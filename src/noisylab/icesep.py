"""Contradiction-filter separation: concepts, learner, adversaries, coupling.

The domain again splits into a key side (an exact ``(kappa + 1/2)*eta``
fraction, ``w`` equal blocks) and a value side. A concept is indexed by a
``d``-bit PRF key ``k``: block ``j`` is labeled by bit ``j`` of ``Enc(k)``
under a rate-``d/w`` random linear code, and value-side points by the PRF
under ``k``.

The learner reads the contradiction-filtered sample (:func:`ice_filter`)
through each point's net label count: the filter keeps ``|net|`` copies of
the majority label, so the counts give the filtered multiset without building
it. It estimates each key bit by a normalized per-block net count, randomly
rounds the estimates to signs, list-decodes within bit-flip radius
``(1/2 - tau)w``, and hypothesis-tests the candidates on the same counts.
The idealized nasty adversary converts key blocks into contradictory pairs
so they vanish under the filter; the coupling construction replays any
nasty strategy through a strong-malicious adversary so that the filter
output equals the nasty-corrupted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .codes import (
    MAX_WORD_BITS,
    DecodeFailure,
    GeneratorMatrix,
    ReceivedWord,
    bitflip_list_decode,
    encode,
    gen_random_linear_code,
)
from .core import DiscreteDistribution, RngHandle, Sample, TableHypothesis, _check_intervals
from .cryptoprim import PrfDigestStore, PrfKey
from .noise import StrategyResult
from .sep import _MAX_VALUE_BITS, KeyValueConcept, KeyValueLayout, _exact, budget_capped_plan

__all__ = [
    "IceSepParams",
    "IceInstance",
    "round_vector",
    "ice_malicious_learner",
    "ice_idealized_nasty_strategy",
    "nasty_via_strong_malicious",
]


@dataclass(frozen=True)
class IceSepParams:
    """Parameter pack for the contradiction-filter separation.

    The fields are the independent inputs: ``eta`` the corruption rate,
    ``kappa`` the separation constant, ``w`` the block count, ``d`` the key
    length, ``n`` the sample size (``ceil(50*w/eta)`` when omitted) and ``L``
    the decoded-list cap; ``tau = (kappa - 1/2)/8`` is derived. Each field
    declares its interval in its metadata, the one range the scenario
    registry also reads; a value outside it is a :class:`ValueError` naming
    the field, and the one check that links fields, ``d < w`` (a rate < 1
    code), follows. The key side carries an exact ``(kappa + 1/2)*eta``
    fraction of the uniform domain (the paper's ``2*kappa'*eta``, with
    ``kappa' = (kappa + 1/2)/2``); ``layout`` is that key/value split with the
    smallest fitting block size, derived once.
    """

    eta: float = field(metadata={"interval": "(0, 0.1]"})
    kappa: float = field(metadata={"interval": "(0.5, 1)"})
    w: int = field(metadata={"interval": f"[2, {MAX_WORD_BITS}]"})
    d: int = field(metadata={"interval": f"[1, {_MAX_VALUE_BITS}]"})
    n: int | None = field(default=None, metadata={"interval": "[1, inf)"})
    L: int = field(default=64, metadata={"interval": "[1, inf)"})
    layout: KeyValueLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_intervals(self)
        if self.d >= self.w:
            raise ValueError("need d < w for a rate < 1 code")
        key_fraction = (_exact(self.kappa, "kappa") + Fraction(1, 2)) * _exact(self.eta, "eta")
        # The layout's domain limit bounds 1/eta, and so the derived n.
        object.__setattr__(self, "layout", KeyValueLayout.fit(self.w, self.d, key_fraction))
        n = math.ceil(50 * self.w / self.eta) if self.n is None else self.n
        object.__setattr__(self, "n", n)

    @property
    def tau(self) -> float:
        return (self.kappa - 0.5) / 8

    @property
    def key_fraction(self) -> Fraction:
        """Exact key-side mass (kappa + 1/2)*eta."""
        return self.layout.key_fraction

    @property
    def R(self) -> float:
        """Expected examples per key block: ((kappa + 1/2)*eta/w) * n."""
        return float(self.key_fraction) * self.n / self.w

    @property
    def decode_radius(self) -> int:
        """Bit-flip list-decoding radius floor((1/2 - tau) * w)."""
        return math.floor((0.5 - self.tau) * self.w)


class IceInstance:
    """One sampled experiment instance: parameters plus a concrete code."""

    def __init__(self, params: IceSepParams, G: GeneratorMatrix):
        if G.w != params.w or G.rows != params.d:
            raise ValueError("code dimensions must be (d rows, w columns)")
        self.params = params
        self.G = G

    @classmethod
    def generate(cls, params: IceSepParams, rng: RngHandle) -> "IceInstance":
        G = gen_random_linear_code(params.d / params.w, params.w, rng)
        return cls(params, G)

    @cached_property
    def prf_store(self) -> PrfDigestStore:
        """Value-side PRF digest blocks of the decoded keys scored so far,
        each hashed once for the instance."""
        return PrfDigestStore(self.params.d, self.params.layout.value_size)

    def concept(self, key: PrfKey) -> KeyValueConcept:
        """Concept ``c_k``: codeword ``Enc(k)``, PRF key ``k``."""
        if key.length != self.params.d:
            raise ValueError(f"key must have {self.params.d} bits")
        return KeyValueConcept(self.params.layout, encode(self.G, key.mask), key, self.prf_store)

    def random_concept(self, rng: RngHandle) -> KeyValueConcept:
        bits = rng.generator().choice((-1, 1), size=self.params.d)
        return self.concept(PrfKey.from_signs(bits))

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution.uniform(self.params.layout.domain_size)


def round_vector(v: np.ndarray | Sequence[float], rng: RngHandle) -> np.ndarray:
    """Independent randomized rounding: ±1 w.p. (1±v)/2 for |v| <= 1, the
    sign of v otherwise; E[Round(v)] = v on [-1, 1]."""
    arr = np.asarray(v, dtype=np.float64)
    p_plus = (1 + np.clip(arr, -1.0, 1.0)) / 2
    u = rng.generator().random(arr.size)
    return np.where(u < p_plus, 1, -1).astype(np.int8)


def ice_malicious_learner(
    S: Sample, inst: IceInstance, rng: RngHandle
) -> tuple[TableHypothesis, dict]:
    """Filter contradictions, estimate key bits, round, decode, select.

    The learner depends on ``S`` only through the contradiction-filtered
    multiset, which it reads through per-point net label counts: the filter
    keeps ``|net|`` copies of each point's majority label, so nothing is
    sorted or rebuilt. Returns ``(hypothesis, details)``; an empty
    post-filter sample or a failed/overfull decode is a flagged failure with
    a constant fallback.
    """
    params = inst.params
    layout = params.layout
    plus, minus = layout.point_counts(S)
    net = plus - minus
    kept = int(np.abs(net).sum())
    details: dict = {"flagged": False, "flag_reason": None, "n_filtered": len(S) - kept}
    if kept == 0:
        details.update(flagged=True, flag_reason="no examples survive the filter")
        return TableHypothesis.constant(1, layout.domain_size), details

    # A block's surviving +1 labels minus its surviving -1 labels is its net.
    v = layout.block_sums(net) / (params.R * (1 - params.eta))
    z = round_vector(v, rng.split(0))
    details.update(v=v, z=z)

    try:
        messages = bitflip_list_decode(
            inst.G, ReceivedWord(z), radius=params.decode_radius, cap=params.L
        )
    except DecodeFailure as exc:
        details.update(flagged=True, flag_reason=f"decode failure: {exc}")
        return TableHypothesis.constant(1, layout.domain_size), details
    details["n_candidates"] = len(messages)
    if not messages:
        details.update(flagged=True, flag_reason="empty decode list")
        return TableHypothesis.constant(1, layout.domain_size), details

    # One array serves the codeword lookup and the store, which would each convert a list.
    keys = np.array(messages)
    idx = layout.best_candidate(net, inst.G.codeword_masks[keys], keys, inst.prf_store)
    best = inst.concept(PrfKey(messages[idx], params.d))
    details["selected_key"] = best.key
    return best, details


def ice_idealized_nasty_strategy(inst: IceInstance) -> Callable:
    """Nasty strategy converting key blocks into self-cancelling pairs.

    Per key block of ``s`` examples (sample order within a block), the first
    ``ceil(s/2)`` positions are rewritten: the first ``floor(s/2)`` of them
    with contradictions of the last ``floor(s/2)`` positions and, when ``s`` is
    odd, the middle one with a fresh correctly-labeled uniform value-side
    example, drawn per odd block in block order. After the filter, even
    blocks contribute nothing and odd blocks exactly one value example. The
    plan runs block by block; budget exhaustion cuts it and flags the trial.
    """
    layout = inst.params.layout

    def strategy(S_clean: Sample, z: int, c: KeyValueConcept, rng: RngHandle) -> StrategyResult:
        gen = rng.generator()
        positions, counts = layout.block_positions(S_clean.points)
        head = counts - counts // 2
        # Rank of each grouped position within its block: the first head[j]
        # of block j are rewritten, the rest are their partners.
        rank = np.arange(positions.size) - np.repeat(np.cumsum(counts) - counts, counts)
        rewritten = rank < np.repeat(head, counts)
        partners = positions[~rewritten]
        # An odd block's fresh example ends its slice of the plan; every other
        # slot takes the next partner's contradiction.
        fresh = np.zeros(int(head.sum()), dtype=bool)
        odd = np.flatnonzero(counts % 2)
        fresh[np.cumsum(head)[odd] - 1] = True
        x = np.array(
            [gen.integers(layout.key_size, layout.domain_size) for _ in range(odd.size)],
            dtype=np.int64,
        )
        points = np.empty(fresh.size, dtype=np.int64)
        labels = np.empty(fresh.size, dtype=np.int8)
        points[~fresh] = S_clean.points[partners]
        labels[~fresh] = -S_clean.labels[partners]
        points[fresh] = x
        labels[fresh] = c.evaluate_many(x)
        return budget_capped_plan(positions[rewritten], Sample(points, labels), z)

    return strategy


def nasty_via_strong_malicious(
    nasty_strategy: Callable, filler_point: int = 0
) -> Callable:
    """Replay a nasty strategy through a strong-malicious adversary.

    With coin set ``Z`` of size ``m``, the first ``2*floor(m/2)`` coin
    positions are rewritten (an odd leftover stays clean). The simulated
    nasty adversary acts on the clean examples at the unwritten positions
    with budget ``floor(m/2)``; if it replaces ``k`` examples, the strong
    adversary emits (1) contradictions of the ``k`` replaced examples, (2)
    the ``k`` introduced examples, and (3) ``floor(m/2) - k`` self-cancelling
    filler pairs at a fixed designated point. The output then equals the
    nasty-corrupted sample plus exactly ``floor(m/2)`` contradictory pairs as
    a multiset, so the contradiction filter maps it onto the nasty output.
    A nasty corruption count above ``floor(m/2)`` is a flagged non-malleable
    trial (the plan is truncated to stay within budget).
    """

    def strategy(S_clean: Sample, Z: np.ndarray, c, rng: RngHandle) -> StrategyResult:
        m = len(Z)
        half = m // 2
        written = Z[: 2 * half]
        inner_mask = np.ones(len(S_clean), dtype=bool)
        inner_mask[written] = False
        S_inner = S_clean.take(np.flatnonzero(inner_mask))

        inner = nasty_strategy(S_inner, half, c, rng.split(0))
        flagged = inner.flagged
        flag_reason = inner.flag_reason
        pos, new = inner.positions, inner.introduced
        if len(pos) > half:
            pos, new = pos[:half], new.take(slice(0, half))
            flagged = True
            flag_reason = "non-malleable: nasty corruption count exceeds half the coin set"
        replaced = S_inner.take(pos)
        fill = half - len(pos)
        points = np.concatenate([replaced.points, new.points, np.full(2 * fill, filler_point)])
        labels = np.concatenate([-replaced.labels, new.labels, np.tile(np.int8([1, -1]), fill)])
        return StrategyResult(
            written, Sample(points, labels), flagged=flagged, flag_reason=flag_reason
        )

    return strategy
