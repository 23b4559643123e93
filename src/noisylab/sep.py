"""Key/value separation construction with an erasure-decoding learner.

The domain splits into a key side (a ``kappa`` fraction, partitioned into
``w`` equal blocks) and a value side. A concept is indexed by a low-weight
codeword ``W_p`` of a random linear code and an extractor seed ``q``: key-side
points in block ``j`` are labeled by bit ``j`` of ``W_p``; value-side points
are labeled by the keyed PRF under the extracted key ``Ext(W_p, q)``.

The nasty adversary flips every example in a ``-1`` key block to ``+1``
(erasing the key information carried by corrupted blocks); the learner
estimates each key bit by thresholded per-block counts, erasure-list-decodes
the resulting partial word, and hypothesis-tests every candidate
``(codeword, seed)`` pair on the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .codes import (
    MAX_WORD_BITS,
    Codeword,
    DecodeFailure,
    GeneratorMatrix,
    ReceivedWord,
    _as_mask,
    _mask_array,
    _mask_bits,
    erasure_list_decode,
    gen_random_linear_code,
    low_weight_codewords,
)
from .core import (
    DiscreteDistribution,
    RngHandle,
    Sample,
    TableHypothesis,
    _as_number,
    _check_intervals,
    _within,
    labeled_index,
)
from .cryptoprim import (
    _PRF_BLOCK_BITS,
    MAX_SEED_BITS,
    ExtractorSpec,
    PrfDigestStore,
    PrfKey,
    extract_all_seeds,
    toeplitz_matrices,
)
from .noise import StrategyResult

__all__ = [
    "KeyValueLayout",
    "KeyValueConcept",
    "budget_capped_plan",
    "SepParams",
    "SepInstance",
    "sep_nasty_strategy",
    "sep_key_erasure_strategy",
    "sep_malicious_learner",
    "sep_simulate_T_nasty",
]

# Largest value-side dimension d of either separation: the value side has at
# least 2^d points, each with a truth-table entry, label counts and a PRF bit
# per scored key. A one-trial sep-learner run at d = 20 peaks at about 335 MB,
# and each step of d doubles the value side.
_MAX_VALUE_BITS = 20

# Largest domain a layout may span. Memory grows with the domain (a
# truth-table entry and two label counts per point), and sep at d = 20 with
# its default rates spans 2,097,168 points (the 335 MB above); this admits
# that with about 2x to spare. A float key fraction with many digits would
# otherwise ask for a block size, and a domain, of 10^11 points or more.
_MAX_DOMAIN_POINTS = 1 << 22

# Longest number an error message prints in full. A float key fraction read
# through its decimal string can have hundreds of digits.
_MAX_MESSAGE_DIGITS = 20


def _digits(n: int) -> str:
    """``n`` in decimal, or, past ``_MAX_MESSAGE_DIGITS`` digits, its leading
    four digits in scientific notation (truncated, so marked ``~``)."""
    text = str(n)
    if len(text) <= _MAX_MESSAGE_DIGITS:
        return text
    return f"~{text[0]}.{text[1:4]}e{len(text) - 1}"


def _exact(value: float | Fraction, what: str) -> Fraction:
    """``value`` as an exact fraction: a :class:`~fractions.Fraction` as
    given, any other number (:func:`~noisylab.core._as_number`) read through
    its decimal string, so ``0.7`` is ``7/10``."""
    if isinstance(value, Fraction):
        return value
    return Fraction(str(_as_number(value, what)))


@dataclass(frozen=True)
class KeyValueLayout:
    """Key/value split of the uniform domain ``{0, ..., domain_size - 1}``.

    The first ``key_size = w * block_size`` points form the key side, in ``w``
    equal blocks; the rest form the value side, sized so that the key side
    carries exactly ``key_fraction`` of the domain. The sizes are derived once.
    """

    w: int
    block_size: int
    key_fraction: Fraction
    key_size: int = field(init=False)
    value_size: int = field(init=False)
    domain_size: int = field(init=False)

    def __post_init__(self) -> None:
        key_size = self.w * self.block_size
        value = key_size * (1 - self.key_fraction) / self.key_fraction
        if value.denominator != 1:
            raise ValueError("block size does not give an integer value side")
        object.__setattr__(self, "key_size", key_size)
        object.__setattr__(self, "value_size", int(value))
        object.__setattr__(self, "domain_size", key_size + int(value))

    @classmethod
    def fit(cls, w: int, d: int, key_fraction: float | Fraction) -> "KeyValueLayout":
        """Smallest per-block size giving an exact ``key_fraction`` with an
        integer value side of at least ``2^d`` points; ``w`` must be an
        integer of at least 1, ``d`` one of at least 0 and ``key_fraction`` a
        number in (0, 1), read exactly by :func:`_exact`; a layout over more
        than ``_MAX_DOMAIN_POINTS`` points is a :class:`ValueError`, raised
        before anything is allocated. Its message abbreviates a number of more
        than ``_MAX_MESSAGE_DIGITS`` digits.

        With ``value_size / key_size = p/q`` in lowest terms, the value side
        ``w*b*p/q`` is an integer exactly when the block size ``b`` is a
        multiple of ``q // gcd(q, w*p)``; the value side grows with ``b``, so
        the answer is the least such multiple at or above the smallest ``b``
        whose value side reaches ``2^d``.
        """
        w = _within(w, "[1, inf)", "w", integer=True)
        d = _within(d, "[0, inf)", "d", integer=True)
        key_fraction = _exact(key_fraction, "key fraction")
        if not 0 < key_fraction < 1:
            raise ValueError(f"key fraction must be in (0, 1), got {key_fraction}")
        ratio = (1 - key_fraction) / key_fraction  # value_size / key_size
        b = max(1, math.ceil((1 << d) / (ratio * w)))
        step = ratio.denominator // math.gcd(ratio.denominator, w * ratio.numerator)
        b = -(-b // step) * step
        domain = int(w * b / key_fraction)
        if domain > _MAX_DOMAIN_POINTS:
            fraction = f"{_digits(key_fraction.numerator)}/{_digits(key_fraction.denominator)}"
            raise ValueError(
                f"key fraction {fraction} needs block size {_digits(b)}, "
                f"a {_digits(domain)}-point domain; the limit is {_MAX_DOMAIN_POINTS} points"
            )
        return cls(w, b, key_fraction)

    def block_of(self, points: np.ndarray) -> np.ndarray:
        """Key-block index of each point (caller restricts to the key side)."""
        return points // self.block_size

    def block_counts(self, points: np.ndarray) -> np.ndarray:
        """Key-side points per block."""
        return np.bincount(self.block_of(points[points < self.key_size]), minlength=self.w)

    def block_positions(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sample positions of the key-side points grouped by block, and
        the count per block.

        ``positions`` lists block 0's positions, then block 1's, and so on,
        each block's in sample order; ``counts[j]`` (as :meth:`block_counts`
        gives it) is the length of block ``j``'s run. One stable argsort over
        the key-side positions does the grouping.
        """
        key = np.flatnonzero(points < self.key_size)
        # In the narrowest dtype that holds every block index, the stable
        # sort is numpy's radix sort (uint8 for up to 256 blocks).
        blocks = self.block_of(points[key]).astype(np.min_scalar_type(self.w - 1))
        return key[np.argsort(blocks, kind="stable")], np.bincount(blocks, minlength=self.w)

    def point_counts(self, S: Sample) -> tuple[np.ndarray, np.ndarray]:
        """Per-point counts of ``+1`` and of ``-1`` labels in ``S``, one entry
        per domain point; a point outside the domain is an ``IndexError``."""
        top = int(S.points.max()) if len(S) else -1
        if top >= self.domain_size:
            raise IndexError(f"point {top} is outside the domain of size {self.domain_size}")
        # One bincount over labeled indices: even slots count x's +1 labels,
        # odd slots its -1 labels.
        counts = np.bincount(labeled_index(S.points, S.labels), minlength=2 * self.domain_size)
        return counts[0::2], counts[1::2]

    def block_sums(self, per_point: np.ndarray) -> np.ndarray:
        """Key-block totals of a per-point array over the domain."""
        return per_point[: self.key_size].reshape(self.w, self.block_size).sum(axis=1)

    def check_store(self, store: PrfDigestStore) -> None:
        """Reject a store that does not cover exactly the value side."""
        if store.n_points != self.value_size:
            raise ValueError(
                f"store covers {store.n_points} points, not the {self.value_size}-point value side"
            )

    def best_candidate(
        self,
        net: np.ndarray,
        codewords: Sequence[int] | np.ndarray,
        masks: Sequence[int] | np.ndarray,
        store: PrfDigestStore,
    ) -> int:
        """Index of the candidate that agrees most with the per-point net
        label count ``net``, the lowest index among ties.

        ``net`` holds, for each domain point, its ``+1`` labels minus its
        ``-1`` labels in a sample (the difference of :meth:`point_counts`).
        A ±1 table ``h`` agrees with it by ``h·net`` and mislabels ``(n -
        h·net)/2`` of the sample's ``n`` examples, so this is the choice of
        :func:`~noisylab.learn.select_best_hypothesis` over the candidates'
        tables on any sample with that net, made without building them. An
        all-zero net ties every candidate and picks index 0.

        Candidate ``i`` labels key block ``j`` by bit ``j`` of the packed
        codeword ``codewords[i]`` (an integer in ``[0, 2^w)``, else a
        :class:`ValueError`) and the value side by the PRF under the packed
        key ``masks[i]``; its value-side row comes from ``store``, a
        :class:`PrfDigestStore` over the value side, so a key block its owner
        has scored before is not hashed again.

        The test is exact and hashes the later value blocks only for
        candidates that can still win. Every candidate is first scored on its
        key blocks and value block 0 (the first 512 value points), and the
        leader of that partial score is scored on every block, giving ``S``.
        On each later point ``x`` a table agrees with the net by at most
        ``|net[x]|``, so a candidate's partial score plus ``Σ |value net|``
        over the later blocks bounds its full score. A candidate whose bound
        is below ``S`` can neither win nor tie. The other candidates, the
        leader's rivals, are scored on every block; the leader, already
        scored, is not scored again. The highest full score wins, the lowest
        index among ties, so a rival that ties ``S`` beats the leader only
        from a lower index. With one value block the partial score is the
        full score.

        Scores are read from the packed rows of :meth:`PrfDigestStore.packed`.
        A set bit labels its point -1, so a row's value-side agreement is
        ``Σ net - 2 · (net over set bits)``, and the key side's is ``Σ
        block sums - 2 · (block sums over set codeword bits)``. The value
        side's second term is one product of the unpacked rows' 0/1 bits
        with ``net``, a bounded chunk of rows at a time. Every term and
        partial sum of these products is an integer of magnitude at most
        ``Σ |value net|``, so they run exactly in float32 when that is below
        ``2^24``, and in float64 otherwise (exact below ``2^53``, far above
        any sample size).
        """
        n_candidates = len(masks)
        if n_candidates == 0:
            raise ValueError("empty candidate list")
        codewords = _mask_array(codewords, self.w, "codeword mask")
        if len(codewords) != n_candidates:
            raise ValueError(f"{len(codewords)} codewords for {n_candidates} keys")
        if len(net) != self.domain_size:
            raise ValueError(f"net has {len(net)} entries, not one per {self.domain_size} points")
        self.check_store(store)
        block_sums = self.block_sums(net)
        key_agree = int(block_sums.sum()) - 2 * (_mask_bits(codewords, self.w) @ block_sums)
        value_net = net[self.key_size :]
        exact = np.float32 if int(np.abs(value_net).sum()) < 1 << 24 else np.float64
        # Zero past the value side, to the end of the last block.
        padded = np.zeros(_PRF_BLOCK_BITS * store.n_blocks, dtype=exact)
        padded[: self.value_size] = value_net
        partial = key_agree + _agreement(store.packed(masks, min(1, store.n_blocks)), padded)
        leader = int(np.argmax(partial))
        if store.n_blocks <= 1:
            return leader
        # Row bytes past the first block cover the points from 512 on.
        tail = padded[_PRF_BLOCK_BITS:]
        later = slice(_PRF_BLOCK_BITS // 8, None)
        best = partial[leader] + _agreement(store.packed([masks[leader]])[:, later], tail)[0]
        bound = partial + int(np.abs(value_net[_PRF_BLOCK_BITS:]).sum())
        survivors = np.flatnonzero(bound >= best)  # the leader among them
        if survivors.size == 1:
            return leader
        rivals = survivors != leader
        scores = partial[survivors]
        scores[~rivals] = best
        rows = store.packed([masks[i] for i in survivors[rivals].tolist()])[:, later]
        scores[rivals] += _agreement(rows, tail)
        return int(survivors[np.argmax(scores)])


# Bits of packed rows that _agreement unpacks at once: the chunk's 0/1 bytes
# and their float copy stay within a few hundred KiB.
_AGREEMENT_CHUNK_BITS = 1 << 17


def _agreement(rows: np.ndarray, net: np.ndarray) -> np.ndarray:
    """``h·net`` of each packed row ``h`` over the points it covers, as int64.

    Point ``8k + b`` is bit ``b`` of byte ``k``, set where ``h`` is -1, and
    has net ``net[8k + b]`` (zero past the value side). ``net`` is integral
    in the float dtype the products run in; its entries past the row's
    points are ignored. The rows are unpacked and multiplied by ``net`` a
    chunk of about ``_AGREEMENT_CHUNK_BITS`` bits at a time.
    """
    n_bits = 8 * rows.shape[1]
    net = net[:n_bits]
    step = max(1, _AGREEMENT_CHUNK_BITS // max(1, n_bits))
    set_sum = np.empty(len(rows), dtype=np.int64)
    for lo in range(0, len(rows), step):
        bits = np.unpackbits(rows[lo : lo + step], axis=1, bitorder="little")
        set_sum[lo : lo + step] = bits.astype(net.dtype) @ net
    return int(net.sum(dtype=np.float64)) - 2 * set_sum


class KeyValueConcept(TableHypothesis):
    """A key/value concept, shared by both separations: key block ``j`` is
    labeled by bit ``j`` of ``codeword``, the value side by the PRF under
    ``key``, read from ``store`` (a :class:`PrfDigestStore` over the value
    side for keys of ``key``'s length). Carries its full truth table."""

    def __init__(
        self, layout: KeyValueLayout, codeword: Codeword, key: PrfKey, store: PrfDigestStore
    ):
        if store.length != key.length:
            raise ValueError(f"store holds {store.length}-bit keys, not {key.length}-bit")
        layout.check_store(store)
        self.codeword = codeword
        self.key = key
        # Read-only ±1 by construction: no re-check.
        self.table = np.concatenate(
            [np.repeat(codeword.bits, layout.block_size), store.tables([key.mask])[0]]
        )
        self.table.setflags(write=False)
        self.domain_size = layout.domain_size


def budget_capped_plan(positions: np.ndarray, introduced: Sample, z: int) -> StrategyResult:
    """The plan ``(positions, examples written there)`` cut to the budget
    ``z``.

    A plan longer than ``z`` keeps its first ``z`` entries and flags the trial
    as budget exhausted. A strategy lists its plan block by block, so the cut
    falls where a block-by-block plan would run out.
    """
    if len(positions) <= z:
        return StrategyResult(positions, introduced)
    return StrategyResult(
        positions[:z],
        introduced.take(slice(0, z)),
        flagged=True,
        flag_reason="budget exhausted",
    )


@dataclass(frozen=True)
class SepParams:
    """Parameter pack for the key/value separation experiment.

    The fields are the independent inputs: ``eta_N``/``eta_M`` the two noise
    rates, ``kappa`` the exact key-side mass (a float is read through its
    decimal string), ``rho`` the code rate and ``tau`` the tolerated erasure
    fraction, ``w`` the block (codeword) count, ``d`` the value-side dimension
    exponent, ``u`` the extractor seed length, ``n`` the sample size and ``L``
    the decoded-list cap. Each field declares its interval in its metadata,
    the one range the scenario registry also reads; a value outside it is a
    :class:`ValueError` naming the field. The checks that link fields follow:
    ``eta_M/((1-eta_M)*tau) < kappa`` and an integral ``rho*w``. Everything
    else is derived once: ``layout``, the key/value split of the domain with
    the smallest fitting block size, ``n`` when omitted (so that the threshold
    slack ``Delta = n^0.51`` is at most ``D/4``), and ``extractor_spec``,
    which extracts ``max(1, w // 2)`` key bits.
    """

    eta_N: float = field(metadata={"interval": "(0, 0.5)"})
    eta_M: float = field(metadata={"interval": "(0, 0.5)"})
    kappa: Fraction = field(metadata={"interval": "(0, 1)"})
    rho: float = field(metadata={"interval": "(0, 1)"})
    tau: float = field(metadata={"interval": "(0, 1)"})
    w: int = field(metadata={"interval": f"[1, {MAX_WORD_BITS}]"})
    d: int = field(metadata={"interval": f"[0, {_MAX_VALUE_BITS}]"})
    u: int = field(metadata={"interval": f"[0, {MAX_SEED_BITS}]"})
    n: int | None = field(default=None, metadata={"interval": "[1, inf)"})
    L: int = field(default=64, metadata={"interval": "[1, inf)"})
    layout: KeyValueLayout = field(init=False, repr=False, compare=False)
    extractor_spec: ExtractorSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_intervals(self)
        eta_M = self.eta_M
        kappa = _exact(self.kappa, "kappa")
        # Divided in turn: (1 - eta_M) * tau underflows to 0 at a subnormal tau.
        lower = eta_M / (1 - eta_M) / self.tau
        if not lower < kappa:
            raise ValueError(f"need eta_M/((1-eta_M)*tau) = {lower} < kappa, got {kappa}")
        rows = self.rho * self.w
        if abs(rows - round(rows)) > 1e-9:
            raise ValueError("rho*w must be an integer")
        # The layout's domain limit bounds 1/kappa, and so the derived n.
        object.__setattr__(self, "layout", KeyValueLayout.fit(self.w, self.d, kappa))
        n = self.n
        if n is None:
            n = math.ceil((4 * self.w / ((1 - eta_M) * float(kappa))) ** (1 / 0.49))
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "extractor_spec", ExtractorSpec(w=self.w, u=self.u, m_out=max(1, self.w // 2))
        )

    @property
    def D(self) -> float:
        """Expected clean (uncorrupted) examples per key block."""
        return (1 - self.eta_M) * float(self.kappa) * self.n / self.w

    @property
    def Delta(self) -> float:
        """Threshold slack n^0.51."""
        return self.n ** 0.51


class SepInstance:
    """One sampled experiment instance: parameters plus a concrete code."""

    def __init__(self, params: SepParams, G: GeneratorMatrix):
        if G.w != params.w:
            raise ValueError("code length must equal the block count")
        self.params = params
        self.G = G
        self.low_weight = low_weight_codewords(G, params.eta_N * params.w)
        # Message integer (as the decoders return it) -> low-weight index.
        self.low_weight_index = {cw.message: p for p, cw in enumerate(self.low_weight)}

    @classmethod
    def generate(cls, params: SepParams, rng: RngHandle) -> "SepInstance":
        G = gen_random_linear_code(params.rho, params.w, rng)
        return cls(params, G)

    @cached_property
    def extractor_matrices(self) -> np.ndarray:
        """Every seed's Toeplitz row masks, built once for the instance."""
        return toeplitz_matrices(self.params.extractor_spec)

    @cached_property
    def prf_store(self) -> PrfDigestStore:
        """Value-side PRF digest blocks of the extracted keys scored so far,
        each hashed once for the instance."""
        return PrfDigestStore(self.params.extractor_spec.m_out, self.params.layout.value_size)

    def concept(self, p: int, q: int) -> KeyValueConcept:
        """Concept ``c_{p,q}``: codeword ``W_p``, PRF key ``Ext(W_p, q)``. A
        ``p`` that is no integer index of ``low_weight``, or a bad seed ``q``,
        is a :class:`ValueError`."""
        p = _within(p, f"[0, {len(self.low_weight)})", "codeword index", integer=True)
        spec = self.params.extractor_spec
        q = _as_mask(q, spec.u, "seed")
        cw = self.low_weight[p]
        # Entry q of every seed's output: the rows are already built, not rehashed.
        mask = extract_all_seeds(cw.mask, spec, self.extractor_matrices)[q]
        key = PrfKey(int(mask), spec.m_out)
        return KeyValueConcept(self.params.layout, cw, key, self.prf_store)

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution.uniform(self.params.layout.domain_size)


def sep_nasty_strategy(inst: SepInstance):
    """Nasty strategy flipping every example in a ``-1`` key block to ``+1``.

    The plan lists the positions of every ``-1`` block, in block order and in
    sample order within a block, each relabelled ``+1``; if the drawn budget
    runs out mid-plan the trial is flagged as exhausted.
    """
    layout = inst.params.layout

    def strategy(S_clean: Sample, z: int, c: KeyValueConcept, rng) -> StrategyResult:
        positions, counts = layout.block_positions(S_clean.points)
        flip = positions[np.repeat(c.codeword.bits == -1, counts)]
        return budget_capped_plan(
            flip, Sample(S_clean.points[flip], np.ones(flip.size, dtype=np.int8)), z
        )

    return strategy


def sep_key_erasure_strategy(inst: SepInstance):
    """Strong-malicious strategy erasing whole key blocks.

    Spends the coin set in chunks of ``ceil(D)``: each chunk floods one
    uniformly chosen key block with oppositely-labeled in-block points, which
    pushes both of that block's label counts past the learner's threshold and
    turns its key-bit estimate into an erasure.
    """
    params = inst.params
    chunk = math.ceil(params.D)

    def strategy(S_clean: Sample, Z: np.ndarray, c: KeyValueConcept, rng: RngHandle) -> StrategyResult:
        n_erase = min(len(Z) // chunk, params.w)
        gen = rng.generator()
        blocks = gen.choice(params.w, size=n_erase, replace=False)
        pts = np.empty((n_erase, chunk), dtype=np.int64)
        for t, lo in enumerate((blocks * params.layout.block_size).tolist()):
            pts[t] = gen.integers(lo, lo + params.layout.block_size, size=chunk)
        labs = np.repeat(-c.codeword.bits[blocks], chunk)
        return StrategyResult(Z[: n_erase * chunk], Sample(pts.ravel(), labs))

    return strategy


def _key_bit_thresholds(
    s_plus: np.ndarray, s_minus: np.ndarray, params: SepParams
) -> np.ndarray:
    """Per-block key-bit estimates from the per-block ``+1`` and ``-1`` label
    counts: +1 / -1 when one count clears ``D - Delta`` and the other stays
    below it, 0 (erasure) otherwise."""
    thr = params.D - params.Delta
    z = np.zeros(params.w, dtype=np.int8)
    z[(s_minus < thr) & (thr <= s_plus)] = 1
    z[(s_plus < thr) & (thr <= s_minus)] = -1
    return z


def sep_malicious_learner(S: Sample, inst: SepInstance) -> tuple[TableHypothesis, dict]:
    """Threshold key bits, erasure-list-decode, hypothesis-test candidates.

    Returns ``(hypothesis, details)``; on decode failure or an empty
    candidate list the trial is flagged and a constant fallback returned.
    """
    params = inst.params
    layout = params.layout
    plus, minus = layout.point_counts(S)
    z = _key_bit_thresholds(layout.block_sums(plus), layout.block_sums(minus), params)
    details: dict = {"z": z, "flagged": False, "flag_reason": None, "candidates": []}

    try:
        messages = erasure_list_decode(inst.G, ReceivedWord(z), cap=params.L)
    except DecodeFailure as exc:
        details.update(flagged=True, flag_reason=f"decode failure: {exc}")
        return TableHypothesis.constant(1, layout.domain_size), details

    # Distinct messages give distinct codewords (G has full rank): no duplicates.
    candidate_ps = sorted(
        inst.low_weight_index[m] for m in messages if m in inst.low_weight_index
    )
    details["candidates"] = candidate_ps

    if not candidate_ps:
        details.update(flagged=True, flag_reason="no low-weight candidate decoded")
        return TableHypothesis.constant(1, layout.domain_size), details

    spec = params.extractor_spec
    seeds = spec.seed_count()
    masks = [inst.low_weight[p].mask for p in candidate_ps]
    extracted = np.concatenate(
        [extract_all_seeds(m, spec, inst.extractor_matrices) for m in masks]
    )
    # Candidate i is (candidate_ps[i // seeds], seed i % seeds).
    idx = layout.best_candidate(plus - minus, np.repeat(masks, seeds), extracted, inst.prf_store)
    p, q = candidate_ps[idx // seeds], idx % seeds
    details["selected"] = (p, q)
    return inst.concept(p, q), details


def sep_simulate_T_nasty(
    T_value: Sample, inst: SepInstance, rng: RngHandle
) -> Sample:
    """Rebuild the nasty-corrupted sample's law from clean value-side examples.

    Each of the ``n`` positions independently lands in key block ``j`` with
    probability ``kappa/w`` (for each ``j``) and otherwise consumes the next
    fresh example from ``T_value``; block positions become a uniform in-block
    point labeled ``+1``.
    """
    params = inst.params
    n = params.n
    gen = rng.generator()
    u = gen.random(n)
    kap = float(params.kappa)
    is_key = u < kap
    block = np.minimum((u / (kap / params.w)).astype(np.int64), params.w - 1)
    n_value = int((~is_key).sum())
    if n_value > len(T_value):
        raise ValueError(f"simulation needs {n_value} value examples, got {len(T_value)}")
    pts = np.empty(n, dtype=np.int64)
    labs = np.empty(n, dtype=np.int8)
    key_idx = np.flatnonzero(is_key)
    offsets = gen.integers(0, params.layout.block_size, size=key_idx.size)
    pts[key_idx] = block[key_idx] * params.layout.block_size + offsets
    labs[key_idx] = 1
    val_idx = np.flatnonzero(~is_key)
    pts[val_idx] = T_value.points[: val_idx.size]
    labs[val_idx] = T_value.labels[: val_idx.size]
    return Sample(pts, labs)
