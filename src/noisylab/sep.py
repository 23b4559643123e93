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
from typing import Iterable, Sequence

import numpy as np

from .codes import (
    CodeParams,
    Codeword,
    DecodeFailure,
    GeneratorMatrix,
    ReceivedWord,
    binary_entropy,
    erasure_list_decode,
    gen_random_linear_code,
    low_weight_codewords,
    signs_to_mask,
)
from .core import (
    DiscreteDistribution,
    Hypothesis,
    RngHandle,
    Sample,
    TableHypothesis,
)
from .cryptoprim import (
    ExtractorSpec,
    PrfKey,
    extract,
    extract_all_seeds,
    prf_truth_table,
    prf_truth_tables,
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

# Candidates whose value-side tables are held at once while scoring.
_SCORE_CHUNK = 16


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
    def fit(cls, w: int, d: int, key_fraction: Fraction) -> "KeyValueLayout":
        """Smallest per-block size giving an exact ``key_fraction`` with an
        integer value side of at least ``2^d`` points."""
        ratio = (1 - key_fraction) / key_fraction  # value_size / key_size
        b = max(1, math.ceil((1 << d) / (ratio * w)))
        while True:
            value = w * b * ratio
            if value.denominator == 1 and value >= (1 << d):
                return cls(w, b, key_fraction)
            b += 1

    def block_of(self, points: np.ndarray) -> np.ndarray:
        """Key-block index of each point (caller restricts to the key side)."""
        return points // self.block_size

    def key_blocks(self, points: np.ndarray) -> np.ndarray:
        """Key-block index of each point, ``-1`` on the value side."""
        return np.where(points < self.key_size, self.block_of(points), -1)

    def block_counts(self, points: np.ndarray, where: np.ndarray | None = None) -> np.ndarray:
        """Key-side points per block, counting only ``where`` if given."""
        key = points < self.key_size
        if where is not None:
            key &= where
        return np.bincount(self.block_of(points[key]), minlength=self.w)

    def label_counts(self, S: Sample) -> tuple[np.ndarray, np.ndarray]:
        """Per-block counts of ``+1`` and of ``-1`` labels in ``S``."""
        return (
            self.block_counts(S.points, S.labels == 1),
            self.block_counts(S.points, S.labels == -1),
        )

    def table(self, key_bits: np.ndarray, prf_key: PrfKey) -> np.ndarray:
        """Read-only concept table: block ``j`` labeled ``key_bits[j]``, the
        value side by the PRF under ``prf_key``."""
        table = np.concatenate(
            [
                np.repeat(key_bits.astype(np.int8), self.block_size),
                prf_truth_table(prf_key, self.value_size),
            ]
        )
        table.setflags(write=False)
        return table

    def best_candidate(
        self, S: Sample, key_bits: np.ndarray, keys: Sequence[PrfKey]
    ) -> int:
        """Index of the candidate that mislabels the fewest examples of ``S``,
        the lowest index among ties: the choice of
        :func:`~noisylab.learn.select_best_hypothesis` over the candidates'
        tables, made without building them.

        Candidate ``i`` labels key block ``j`` by ``key_bits[i, j]`` and the
        value side by the PRF under ``keys[i]``. With ``net`` the per-point
        count of ``+1`` labels minus ``-1`` labels, a ±1 table ``h`` makes
        ``(n - h·net)/2`` mistakes. Value-side tables are built
        ``_SCORE_CHUNK`` candidates at a time, which bounds the memory used.
        """
        if not keys:
            raise ValueError("empty candidate list")
        if key_bits.shape != (len(keys), self.w):
            raise ValueError(f"key_bits must have shape ({len(keys)}, {self.w})")
        n = len(S)
        if n == 0:
            raise ValueError("empty test sample")
        top = int(S.points.max())
        if top >= self.domain_size:
            raise IndexError(f"point {top} is outside the domain of size {self.domain_size}")
        # One bincount over labeled indices 2x + [label = -1]: even slots
        # count x's +1 labels, odd slots its -1 labels.
        counts = np.bincount(2 * S.points + (S.labels == -1), minlength=2 * self.domain_size)
        net = counts[0::2] - counts[1::2]
        block_net = net[: self.key_size].reshape(self.w, self.block_size).sum(axis=1)
        agree = key_bits.astype(np.int64) @ block_net
        # The value-side products run in float64 (BLAS). They are exact: every
        # term and partial sum is an integer of magnitude at most n < 2^53.
        value_net = net[self.key_size :].astype(np.float64)
        for start in range(0, len(keys), _SCORE_CHUNK):
            tables = prf_truth_tables(keys[start : start + _SCORE_CHUNK], self.value_size)
            agree[start : start + len(tables)] += (tables @ value_net).astype(np.int64)
        mistakes = (n - agree) // 2
        return int(np.argmin(mistakes))


class KeyValueConcept(TableHypothesis):
    """A key/value concept, shared by both separations: key block ``j`` is
    labeled by bit ``j`` of ``codeword``, the value side by the PRF under
    ``key``. Carries its full truth table."""

    def __init__(self, layout: KeyValueLayout, codeword: Codeword, key: PrfKey):
        # layout.table is read-only ±1 by construction: no re-check.
        self.codeword = codeword
        self.key = key
        self.table = layout.table(codeword.bits, key)
        self.domain_size = layout.domain_size


def budget_capped_plan(plans: Iterable[tuple[np.ndarray, Sample]], z: int) -> StrategyResult:
    """Concatenate ``plans``, each ``(positions, examples written there)``, in
    order, stopping at the budget ``z``.

    A plan item beyond the budget cuts the result there and flags the trial as
    budget exhausted.
    """
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


@dataclass(frozen=True)
class SepParams:
    """Parameter pack for the key/value separation experiment.

    ``eta_N``/``eta_M`` are the two noise rates, ``kappa`` the exact key-side
    mass, ``w`` the block (codeword) count, ``d`` the value-side dimension
    exponent, ``u`` the extractor seed length, ``m_out`` the extracted key
    length, ``n`` the sample size, and ``slack`` the multiplicative slack
    applied to every asymptotic inequality at desk scale. ``layout`` is the
    key/value split of the domain, derived from ``w``, ``block_size`` and
    ``kappa``.
    """

    eta_N: float
    eta_M: float
    kappa: Fraction
    code: CodeParams
    w: int
    d: int
    u: int
    n: int
    block_size: int
    m_out: int
    slack: float = 1.25
    layout: KeyValueLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 < self.eta_N < 1 or not 0 < self.eta_M < 1:
            raise ValueError("noise rates must be in (0, 1)")
        lower = self.eta_M / ((1 - self.eta_M) * self.code.tau)
        if not lower < self.kappa < 1:
            raise ValueError(
                f"need eta_M/((1-eta_M)*tau) = {lower} < kappa < 1, got {self.kappa}"
            )
        object.__setattr__(self, "layout", KeyValueLayout(self.w, self.block_size, self.kappa))
        rows = self.code.rho * self.w
        if abs(rows - round(rows)) > 1e-9:
            raise ValueError("rho*w must be an integer")

    @classmethod
    def create(
        cls,
        eta_N: float,
        eta_M: float,
        kappa: float | Fraction,
        rho: float,
        tau: float,
        w: int,
        d: int,
        u: int,
        n: int | None = None,
        lam: float | None = None,
        m_out: int | None = None,
        L: int = 64,
        slack: float = 1.25,
    ) -> "SepParams":
        """Explicit-rate construction (desk-scale parameter packs)."""
        kap = kappa if isinstance(kappa, Fraction) else Fraction(str(kappa))
        if lam is None:
            lam = 0.5 * (rho + binary_entropy(eta_N) - 1)
        code = CodeParams(rho=rho, tau=tau, lam=lam, eta_N=eta_N, L=L)
        b = KeyValueLayout.fit(w, d, kap).block_size
        if n is None:
            n = cls._auto_n(w, eta_M, kap)
        if m_out is None:
            m_out = max(1, w // 2)
        return cls(
            eta_N=eta_N, eta_M=eta_M, kappa=kap, code=code,
            w=w, d=d, u=u, n=n, block_size=b, m_out=m_out, slack=slack,
        )

    @classmethod
    def from_ratio(
        cls, r: float, w: int, d: int, u: int, n: int | None = None,
        L: int = 64, slack: float = 1.25,
    ) -> "SepParams":
        """Rate pack derived from the ratio ``r > 1``:
        ``eta_N = 2^(-8r)``, ``eta_M = H(eta_N)/(H(eta_N)+2)``, code constants
        auto-derived, and ``kappa`` placed just above its lower bound."""
        if r <= 1:
            raise ValueError("ratio must be > 1")
        eta_N = 2.0 ** (-8 * r)
        H = binary_entropy(eta_N)
        eta_M = H / (H + 2)
        code = CodeParams.derive(eta_N, eta_M, L=L)
        # Snap the rate down to an integer number of rows at this finite w
        # (the derived rate is asymptotic; rounding down never exceeds it).
        rows = max(1, math.floor(code.rho * w))
        rho_w = rows / w
        code = CodeParams(
            rho=rho_w, tau=code.tau, lam=0.5 * (rho_w + H - 1), eta_N=eta_N, L=L
        )
        kappa_f = 0.998 * eta_M / ((1 - eta_M) * code.tau) + 0.002
        kap = Fraction(kappa_f).limit_denominator(10_000)
        b = KeyValueLayout.fit(w, d, kap).block_size
        if n is None:
            n = cls._auto_n(w, eta_M, kap)
        return cls(
            eta_N=eta_N, eta_M=eta_M, kappa=kap, code=code,
            w=w, d=d, u=u, n=n, block_size=b, m_out=max(1, w // 2), slack=slack,
        )

    @staticmethod
    def _auto_n(w: int, eta_M: float, kappa: Fraction) -> int:
        # Size n so the threshold slack Delta = n^0.51 is at most D/4.
        base = 4 * w / ((1 - eta_M) * float(kappa))
        return math.ceil(base ** (1 / 0.49))

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
    def D(self) -> float:
        """Expected clean (uncorrupted) examples per key block."""
        return (1 - self.eta_M) * float(self.kappa) * self.n / self.w

    @property
    def Delta(self) -> float:
        """Threshold slack n^0.51."""
        return self.n ** 0.51

    @property
    def extractor_spec(self) -> ExtractorSpec:
        return ExtractorSpec(w=self.w, u=self.u, m_out=self.m_out)

    def block_of(self, points: np.ndarray) -> np.ndarray:
        """Key-block index of each point (caller restricts to the key side)."""
        return self.layout.block_of(points)


class SepInstance:
    """One sampled experiment instance: parameters plus a concrete code."""

    def __init__(self, params: SepParams, G: GeneratorMatrix):
        if G.w != params.w:
            raise ValueError("code length must equal the block count")
        self.params = params
        self.G = G
        self.low_weight = low_weight_codewords(G, params.eta_N * params.w)
        # Message integer (as the decoders return it) -> low-weight index.
        self.low_weight_index = {
            signs_to_mask(cw.message): p for p, cw in enumerate(self.low_weight)
        }

    @classmethod
    def generate(cls, params: SepParams, rng: RngHandle) -> "SepInstance":
        G = gen_random_linear_code(params.code.rho, params.w, rng)
        return cls(params, G)

    @cached_property
    def extractor_matrices(self) -> np.ndarray:
        """Every seed's Toeplitz matrix, built once for the instance."""
        return toeplitz_matrices(self.params.extractor_spec)

    def concept(self, p: int, q: int) -> KeyValueConcept:
        """Concept ``c_{p,q}``: codeword ``W_p``, PRF key ``Ext(W_p, q)``."""
        cw = self.low_weight[p]
        key = PrfKey.from_signs(extract(cw.bits, q, self.params.extractor_spec))
        return KeyValueConcept(self.params.layout, cw, key)

    def distribution(self) -> DiscreteDistribution:
        return DiscreteDistribution.uniform(self.params.domain_size)


def sep_nasty_strategy(inst: SepInstance):
    """Nasty strategy flipping every example in a ``-1`` key block to ``+1``.

    Blocks are processed in index order (sample order within a block); if the
    drawn budget runs out mid-plan the trial is flagged as exhausted.
    """
    layout = inst.params.layout

    def strategy(S_clean: Sample, z: int, c: KeyValueConcept, D=None, rng=None) -> StrategyResult:
        blocks = layout.key_blocks(S_clean.points)

        def block_plans():
            for j in np.flatnonzero(c.codeword.bits == -1):
                pos = np.flatnonzero(blocks == j)
                yield pos, Sample(S_clean.points[pos], np.ones(len(pos), dtype=np.int8))

        return budget_capped_plan(block_plans(), z)

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

    def strategy(S_clean: Sample, Z: np.ndarray, c: KeyValueConcept, D=None, rng=None) -> StrategyResult:
        n_erase = min(len(Z) // chunk, params.w)
        gen = rng.generator()
        blocks = gen.choice(params.w, size=n_erase, replace=False)
        pts = np.empty((n_erase, chunk), dtype=np.int64)
        for t, lo in enumerate((blocks * params.block_size).tolist()):
            pts[t] = gen.integers(lo, lo + params.block_size, size=chunk)
        labs = np.repeat(-c.codeword.bits[blocks], chunk)
        return StrategyResult(Z[: n_erase * chunk], Sample(pts.ravel(), labs))

    return strategy


def _key_bit_thresholds(S: Sample, params: SepParams) -> np.ndarray:
    """Per-block key-bit estimates: +1 / -1 when one label count clears
    ``D - Delta`` and the other stays below it, 0 (erasure) otherwise."""
    s_plus, s_minus = params.layout.label_counts(S)
    thr = params.D - params.Delta
    z = np.zeros(params.w, dtype=np.int8)
    z[(s_minus < thr) & (thr <= s_plus)] = 1
    z[(s_plus < thr) & (thr <= s_minus)] = -1
    return z


def sep_malicious_learner(
    S: Sample, inst: SepInstance, rng: RngHandle | None = None
) -> tuple[Hypothesis, dict]:
    """Threshold key bits, erasure-list-decode, hypothesis-test candidates.

    Returns ``(hypothesis, details)``; on decode failure or an empty
    candidate list the trial is flagged and a constant fallback returned.
    """
    params = inst.params
    z = _key_bit_thresholds(S, params)
    details: dict = {"z": z, "flagged": False, "flag_reason": None, "candidates": []}

    try:
        messages = erasure_list_decode(inst.G, ReceivedWord(z), cap=params.code.L)
    except DecodeFailure as exc:
        details.update(flagged=True, flag_reason=f"decode failure: {exc}")
        return TableHypothesis.constant(1, params.domain_size), details

    # Distinct messages give distinct codewords (G has full rank): no duplicates.
    candidate_ps = sorted(
        inst.low_weight_index[m] for m in messages if m in inst.low_weight_index
    )
    details["candidates"] = candidate_ps

    if not candidate_ps:
        details.update(flagged=True, flag_reason="no low-weight candidate decoded")
        return TableHypothesis.constant(1, params.domain_size), details

    seeds = params.extractor_spec.seed_count()
    codewords = [inst.low_weight[p].bits for p in candidate_ps]
    extracted = np.concatenate(
        [extract_all_seeds(bits, inst.extractor_matrices) for bits in codewords]
    )
    place = np.uint64(1) << np.arange(params.m_out, dtype=np.uint64)
    keys = [PrfKey(m, params.m_out) for m in ((extracted == -1) @ place).tolist()]
    # Candidate i is (candidate_ps[i // seeds], seed i % seeds).
    idx = params.layout.best_candidate(S, np.repeat(codewords, seeds, axis=0), keys)
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
    offsets = gen.integers(0, params.block_size, size=key_idx.size)
    pts[key_idx] = block[key_idx] * params.block_size + offsets
    labs[key_idx] = 1
    val_idx = np.flatnonzero(~is_key)
    pts[val_idx] = T_value.points[: val_idx.size]
    labs[val_idx] = T_value.labels[: val_idx.size]
    return Sample(pts, labs)
