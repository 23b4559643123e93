"""Contradiction-filter separation: concepts, learner, adversaries, coupling.

The domain again splits into a key side (an exact ``2*kappa_prime*eta``
fraction, ``w`` equal blocks) and a value side. A concept is indexed by a
``d``-bit PRF key ``k``: block ``j`` is labeled by bit ``j`` of ``Enc(k)``
under a rate-``d/w`` random linear code, and value-side points by the PRF
under ``k``.

The learner first removes contradictory pairs (:func:`ice_filter`), estimates
each key bit by a normalized per-block count, randomly rounds the estimates
to signs, list-decodes within bit-flip radius ``(1/2 - tau)w``, and
hypothesis-tests the candidates. The idealized nasty adversary converts key
blocks into contradictory pairs so they vanish under the filter; the coupling
construction replays any nasty strategy through a strong-malicious adversary
so that the filter output equals the nasty-corrupted sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .codes import (
    DecodeFailure,
    GeneratorMatrix,
    ReceivedWord,
    bitflip_list_decode,
    encode,
    gen_random_linear_code,
    masks_to_signs,
)
from .core import (
    DiscreteDistribution,
    Hypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
)
from .cryptoprim import PrfKey
from .learn import ice_filter, ice_filter_keep
from .noise import CorruptionLedger, StrategyResult
from .sep import KeyValueConcept, KeyValueLayout, budget_capped_plan

__all__ = [
    "IceSepParams",
    "IceInstance",
    "BlockCounters",
    "round_vector",
    "ice_malicious_learner",
    "ice_idealized_nasty_strategy",
    "nasty_via_strong_malicious",
]


@dataclass(frozen=True)
class IceSepParams:
    """Parameter pack for the contradiction-filter separation.

    ``eta`` is the corruption rate, ``kappa`` the separation constant in
    (1/2, 1); derived constants are ``kappa_prime = (kappa + 1/2)/2`` and
    ``tau = (kappa - 1/2)/8``. The key side carries an exact
    ``2*kappa_prime*eta`` fraction of the uniform domain; ``layout`` is
    that key/value split, derived once from ``w``, ``block_size``, ``eta``
    and ``kappa``.
    """

    eta: float
    kappa: float
    w: int
    d: int
    n: int
    block_size: int
    L: int = 64
    slack: float = 1.25
    layout: KeyValueLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.eta <= 0.1:
            raise ValueError("eta must be in (0, 0.1]")
        if not 0.5 < self.kappa < 1:
            raise ValueError("kappa must be in (1/2, 1)")
        if self.d >= self.w:
            raise ValueError("need d < w for a rate < 1 code")
        layout = KeyValueLayout(self.w, self.block_size, self._key_fraction_exact(self.eta, self.kappa))
        object.__setattr__(self, "layout", layout)

    @classmethod
    def create(
        cls,
        eta: float,
        kappa: float,
        w: int,
        d: int,
        n: int | None = None,
        L: int = 64,
        slack: float = 1.25,
    ) -> "IceSepParams":
        b = KeyValueLayout.fit(w, d, cls._key_fraction_exact(eta, kappa)).block_size
        if n is None:
            n = math.ceil(50 * w / eta)
        return cls(eta=eta, kappa=kappa, w=w, d=d, n=n, block_size=b, L=L, slack=slack)

    @staticmethod
    def _key_fraction_exact(eta: float, kappa: float) -> Fraction:
        kappa_prime = (Fraction(str(kappa)) + Fraction(1, 2)) / 2
        return 2 * kappa_prime * Fraction(str(eta))

    @property
    def kappa_prime(self) -> float:
        return (self.kappa + 0.5) / 2

    @property
    def tau(self) -> float:
        return (self.kappa - 0.5) / 8

    @property
    def key_fraction(self) -> Fraction:
        """Exact key-side mass 2*kappa_prime*eta."""
        return self.layout.key_fraction

    @property
    def key_size(self) -> int:
        return self.layout.key_size

    @property
    def value_size(self) -> int:
        return self.layout.value_size

    @property
    def domain_size(self) -> int:
        return self.layout.domain_size

    @property
    def R(self) -> float:
        """Expected examples per key block: (2*kappa_prime*eta/w) * n."""
        return float(self.key_fraction) * self.n / self.w

    @property
    def Delta(self) -> float:
        return self.n ** 0.51

    @property
    def decode_radius(self) -> int:
        """Bit-flip list-decoding radius floor((1/2 - tau) * w)."""
        return math.floor((0.5 - self.tau) * self.w)

    def block_of(self, points: np.ndarray) -> np.ndarray:
        return self.layout.block_of(points)


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

    def concept(self, key_bits: Sequence[int] | np.ndarray) -> KeyValueConcept:
        """Concept ``c_k``: codeword ``Enc(k)``, PRF key ``k``."""
        key = PrfKey.from_signs(key_bits)
        if key.length != self.params.d:
            raise ValueError(f"key must have {self.params.d} bits")
        return KeyValueConcept(self.params.layout, encode(self.G, key_bits), key)

    def random_concept(self, rng: RngHandle) -> KeyValueConcept:
        bits = rng.generator().choice((-1, 1), size=self.params.d)
        return self.concept(bits)

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution.uniform(self.params.domain_size)


def round_vector(v: np.ndarray | Sequence[float], rng: RngHandle) -> np.ndarray:
    """Independent randomized rounding: ±1 w.p. (1±v)/2 for |v| <= 1, the
    sign of v otherwise; E[Round(v)] = v on [-1, 1]."""
    arr = np.asarray(v, dtype=np.float64)
    p_plus = (1 + np.clip(arr, -1.0, 1.0)) / 2
    u = rng.generator().random(arr.size)
    return np.where(u < p_plus, 1, -1).astype(np.int8)


def ice_malicious_learner(
    S: Sample, inst: IceInstance, rng: RngHandle
) -> tuple[Hypothesis, dict]:
    """Filter contradictions, estimate key bits, round, decode, select.

    Returns ``(hypothesis, details)``; an empty post-filter sample or a
    failed/overfull decode is a flagged failure with a constant fallback.
    """
    params = inst.params
    S_prime = ice_filter(S)
    details: dict = {"flagged": False, "flag_reason": None, "n_filtered": len(S) - len(S_prime)}
    if len(S_prime) == 0:
        details.update(flagged=True, flag_reason="no examples survive the filter")
        return TableHypothesis.constant(1, params.domain_size), details

    n_plus, n_minus = params.layout.label_counts(S_prime)
    v = (n_plus - n_minus) / (params.R * (1 - params.eta))
    z = round_vector(v, rng.split(0))
    details.update(v=v, z=z)

    try:
        messages = bitflip_list_decode(
            inst.G, ReceivedWord(z), radius=params.decode_radius, cap=params.L
        )
    except DecodeFailure as exc:
        details.update(flagged=True, flag_reason=f"decode failure: {exc}")
        return TableHypothesis.constant(1, params.domain_size), details
    details["n_candidates"] = len(messages)
    if not messages:
        details.update(flagged=True, flag_reason="empty decode list")
        return TableHypothesis.constant(1, params.domain_size), details

    key_bits = masks_to_signs(inst.G.codeword_masks[messages], params.w)
    keys = [PrfKey(m, params.d) for m in messages]
    idx = params.layout.best_candidate(S_prime, key_bits, keys)
    best = inst.concept(keys[idx].bits)
    details["selected_key"] = best.key
    return best, details


def ice_idealized_nasty_strategy(inst: IceInstance) -> Callable:
    """Nasty strategy converting key blocks into self-cancelling pairs.

    Per key block (sample order within a block): with ``h = floor(|S_j|/2)``,
    the first ``h`` positions become contradictions of the last ``h``
    positions; when ``|S_j|`` is odd the middle position becomes a fresh
    correctly-labeled uniform value-side example. After the filter, even
    blocks contribute nothing and odd blocks exactly one value example.
    Budget exhaustion stops the plan and flags the trial.
    """
    layout = inst.params.layout

    def strategy(S_clean: Sample, z: int, c: KeyValueConcept, D=None, rng=None) -> StrategyResult:
        gen = rng.generator()
        blocks = layout.key_blocks(S_clean.points)

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
                    labs = np.append(labs, c.evaluate(x))
                yield positions[:offset], Sample(pts, labs)

        return budget_capped_plan(block_plans(), z)

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

    def strategy(S_clean: Sample, Z: np.ndarray, c=None, D=None, rng: RngHandle | None = None) -> StrategyResult:
        m = len(Z)
        half = m // 2
        written = Z[: 2 * half]
        inner_mask = np.ones(len(S_clean), dtype=bool)
        inner_mask[written] = False
        S_inner = S_clean.take(np.flatnonzero(inner_mask))

        inner = nasty_strategy(S_inner, half, c, D, rng.split(0) if rng else None)
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
            return params.layout.block_counts(S_corr.points, mask)

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
