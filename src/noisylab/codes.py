"""GF(2) linear codes with erasure and bit-flip list decoding.

Sign convention (fixed once, package-wide): the GF(2) symbol 0 is the sign
``+1`` and the GF(2) symbol 1 is the sign ``-1``; the Hamming weight of a
±1 word is its distance from the all-``+1`` word, i.e. its count of ``-1``
entries. Words of length ``w <= 64`` are packed into integer bitmasks where
bit ``j`` is set iff position ``j`` carries ``-1``.

Decoding is exact at desk scale: erasures by Gaussian elimination on the
punctured generator, bit flips by full codeword enumeration through the
packed-bit kernels. Both decoders return sorted message integers (bit ``i``
is message position ``i``, as in :attr:`GeneratorMatrix.codeword_masks`).
The erasure decoder works on batches: :func:`erasure_list_decode_many` runs
one elimination for every packed word that shares an erasure pattern, and
:func:`erasure_list_decode` is its one-word case for a :class:`ReceivedWord`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _kernels
from .core import RngHandle, _frozen

__all__ = [
    "DecodeFailure",
    "binary_entropy",
    "CodeParams",
    "Codeword",
    "ReceivedWord",
    "GeneratorMatrix",
    "gen_random_linear_code",
    "encode",
    "erasure_list_decode",
    "erasure_list_decode_many",
    "bitflip_list_decode",
    "low_weight_codewords",
    "signs_to_mask",
    "mask_to_signs",
    "masks_to_signs",
]

MAX_WORD_BITS = 64


class DecodeFailure(Exception):
    """List size exceeded the cap; the caller treats this as decode failure."""


def binary_entropy(p: float) -> float:
    """H(p) in bits; H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("entropy argument must be in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@dataclass(frozen=True)
class CodeParams:
    """Rate/list-decoding parameter pack.

    ``rho`` is the rate, ``tau`` the tolerated erasure fraction, ``lam`` the
    low-weight subcode exponent, ``eta_N`` the weight-bound fraction, and
    ``L`` the decoded-list cap.
    """

    rho: float
    tau: float
    lam: float
    eta_N: float
    L: int = 64

    @classmethod
    def derive(cls, eta_N: float, eta_M: float, L: int = 64) -> "CodeParams":
        """Auto-derive (rho, tau, lam) from the two noise rates.

        Requires ``0 < eta_N < eta_M < 1 - 1/(1 + H(eta_N)) < 0.5``. The
        constants are::

            rho = 1 - 0.999·H(eta_N) - 0.001·eta_M/(1-eta_M)
            xi  = 0.001·H(eta_N) - 0.001·eta_M/(1-eta_M)
            tau = 1 - rho - xi = 0.998·H(eta_N) + 0.002·eta_M/(1-eta_M)
            lam = (rho + H(eta_N) - 1)/2
        """
        H = binary_entropy(eta_N)
        upper = 1 - 1 / (1 + H)
        if not (0 < eta_N < eta_M < upper < 0.5):
            raise ValueError(
                f"need 0 < eta_N < eta_M < 1 - 1/(1+H(eta_N)) < 0.5; "
                f"got eta_N={eta_N}, eta_M={eta_M}, bound={upper}"
            )
        ratio = eta_M / (1 - eta_M)
        rho = 1 - 0.999 * H - 0.001 * ratio
        xi = 0.001 * H - 0.001 * ratio
        tau = 1 - rho - xi
        lam = 0.5 * (rho + H - 1)
        assert abs(tau - (0.998 * H + 0.002 * ratio)) < 1e-12
        return cls(rho=rho, tau=tau, lam=lam, eta_N=eta_N, L=L)


def signs_to_mask(bits: Sequence[int] | np.ndarray) -> int:
    """Pack a ±1 word into a bitmask (bit j set iff position j is -1)."""
    mask = 0
    for j, b in enumerate(np.asarray(bits).tolist()):
        if b == -1:
            mask |= 1 << j
        elif b != 1:
            raise ValueError("word entries must be ±1")
    return mask


def mask_to_signs(mask: int, w: int) -> np.ndarray:
    """Unpack a bitmask into a ±1 word of length ``w``."""
    j = np.arange(w, dtype=np.uint64)
    bits = (np.uint64(mask) >> j) & np.uint64(1)
    return np.where(bits == 1, -1, 1).astype(np.int8)


def masks_to_signs(masks: Sequence[int] | np.ndarray, w: int) -> np.ndarray:
    """Unpack bitmasks into ±1 words of length ``w``, one row per mask."""
    j = np.arange(w, dtype=np.uint64)
    bits = (np.asarray(masks, dtype=np.uint64)[:, None] >> j) & np.uint64(1)
    return np.where(bits == 1, -1, 1).astype(np.int8)


def _lex_key(mask: int, w: int) -> int:
    """Sort key realizing lexicographic order on (b_0, ..., b_{w-1}) with
    +1 < -1 (GF(2) 0 before 1): the bit-reversed mask."""
    key = 0
    for j in range(w):
        key = (key << 1) | ((mask >> j) & 1)
    return key


@dataclass(frozen=True)
class Codeword:
    """A ±1 codeword, together with the message that encodes to it."""

    bits: np.ndarray
    message: np.ndarray

    @property
    def weight(self) -> int:
        """Hamming distance from the all-+1 word (count of -1 entries)."""
        return int((self.bits == -1).sum())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Codeword):
            return NotImplemented
        return np.array_equal(self.bits, other.bits) and np.array_equal(
            self.message, other.message
        )


class ReceivedWord:
    """A channel output: symbols over {-1, +1} plus 0 marking an erasure."""

    __slots__ = ("symbols",)

    def __init__(self, symbols: Sequence[int] | np.ndarray):
        arr = np.asarray(symbols)
        if arr.ndim != 1:
            raise ValueError("received word must be one-dimensional")
        if arr.size and not ((arr == 0) | (np.abs(arr) == 1)).all():
            raise ValueError("symbols must be in {-1, 0(=erasure), +1}")
        self.symbols = _frozen(arr.astype(np.int8, copy=False), symbols)

    @classmethod
    def erase(cls, bits: Sequence[int] | np.ndarray, positions: Sequence[int]) -> "ReceivedWord":
        arr = np.array(bits)
        arr[list(positions)] = 0
        return cls(arr)

    def __len__(self) -> int:
        return int(self.symbols.size)

    @property
    def erasures(self) -> np.ndarray:
        return np.flatnonzero(self.symbols == 0)


class GeneratorMatrix:
    """A full-row-rank GF(2) generator matrix (rows = unit-message codewords)."""

    __slots__ = ("w", "row_masks", "__dict__")

    def __init__(self, row_masks: Sequence[int], w: int):
        if w < 1 or w > MAX_WORD_BITS:
            raise ValueError(f"codeword length must be in [1, {MAX_WORD_BITS}]")
        masks = tuple(int(m) for m in row_masks)
        if not masks:
            raise ValueError("at least one row required")
        if any(m < 0 or m >= (1 << w) for m in masks):
            raise ValueError("row mask out of range for codeword length")
        if _gf2_rank(list(masks)) != len(masks):
            raise ValueError("generator matrix must have full row rank")
        self.w = w
        self.row_masks = masks

    @property
    def rows(self) -> int:
        return len(self.row_masks)

    @property
    def rate(self) -> float:
        return self.rows / self.w

    @cached_property
    def codeword_masks(self) -> np.ndarray:
        """All ``2^rows`` codeword bitmasks, indexed by message integer
        (bit i of the index = GF(2) value of message position i)."""
        return _kernels.codeword_table(
            np.array(self.row_masks, dtype=np.uint64)
        )

    @cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Transposed view: entry j packs the rows with a 1 in position j."""
        cols = []
        for j in range(self.w):
            coef = 0
            for i, row in enumerate(self.row_masks):
                if (row >> j) & 1:
                    coef |= 1 << i
            cols.append(coef)
        return tuple(cols)

    def to_text(self) -> str:
        """Hex row-major serialization (one zero-padded hex row per line)."""
        width = (self.w + 3) // 4
        lines = [f"w={self.w} rows={self.rows}"]
        lines += [format(m, f"0{width}x") for m in self.row_masks]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GeneratorMatrix":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        try:
            header = dict(part.split("=") for part in lines[0].split())
            w, rows = int(header["w"]), int(header["rows"])
            masks = [int(ln, 16) for ln in lines[1:]]
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(f"malformed serialized code: {exc!r}") from exc
        if len(masks) != rows:
            raise ValueError("row count mismatch in serialized code")
        return cls(masks, w)


def _gf2_rank(rows: list[int]) -> int:
    """Rank of bitmask rows over GF(2) by Gaussian elimination."""
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def gen_random_linear_code(
    rho: float, w: int, rng: RngHandle, max_attempts: int = 1000
) -> GeneratorMatrix:
    """Uniformly random full-row-rank generator matrix at rate ``rho``.

    ``rho·w`` must be an integer number of rows; rank-deficient draws are
    regenerated (up to ``max_attempts``).
    """
    if not 0 < rho < 1:
        raise ValueError("rate must be in (0, 1)")
    if not 1 <= w <= MAX_WORD_BITS:
        raise ValueError(f"codeword length must be in [1, {MAX_WORD_BITS}]")
    k_float = rho * w
    k = round(k_float)
    if abs(k_float - k) > 1e-9 or k < 1:
        raise ValueError(f"rho*w must be a positive integer, got {k_float}")
    gen = rng.generator()
    for _ in range(max_attempts):
        masks = [int(x) for x in gen.integers(0, 1 << w, size=k, dtype=np.uint64)]
        if _gf2_rank(list(masks)) == k:
            return GeneratorMatrix(masks, w)
    raise RuntimeError("could not draw a full-rank generator matrix")


def _message_mask(msg: Sequence[int] | np.ndarray, k: int) -> int:
    arr = np.asarray(msg)
    if arr.size != k:
        raise ValueError(f"message length {arr.size} != {k} rows")
    return signs_to_mask(arr)


def encode(G: GeneratorMatrix, msg: Sequence[int] | np.ndarray) -> Codeword:
    """GF(2) matrix-vector product, as ±1 words."""
    mmask = _message_mask(msg, G.rows)
    cmask = 0
    for i in range(G.rows):
        if (mmask >> i) & 1:
            cmask ^= G.row_masks[i]
    return Codeword(bits=mask_to_signs(cmask, G.w), message=mask_to_signs(mmask, G.rows))


def erasure_list_decode_many(
    G: GeneratorMatrix, erased_mask: int, word_masks: Sequence[int] | np.ndarray, cap: int = 64
) -> tuple[np.ndarray, np.ndarray]:
    """Erasure-list-decode a batch of packed words that share one erasure pattern.

    ``erased_mask`` packs the erased positions; each entry of ``word_masks``
    packs a word's ``-1`` positions (its bits on erased positions are
    ignored). Returns ``(consistent, solutions)``: ``consistent[i]`` says
    whether some message agrees with word ``i`` on every visible position,
    and row ``i`` of the uint64 array ``solutions`` is then the full affine
    solution space, ``2^f`` sorted message integers, where ``f`` is the
    number of free message positions of the punctured code. Rows of
    inconsistent words carry no meaning.

    One Gaussian elimination on the visible columns serves every word: each
    reduced row remembers which visible positions were XORed into it, so a
    word's right-hand side is the parity of ``word & combo``. Inconsistency
    beats the cap: :class:`DecodeFailure` is raised when ``2^f > cap``, or
    ``f`` is above the ``2^24`` listing limit, and at least one word is
    consistent; when none is, ``solutions`` has no columns.
    """
    w, k = G.w, G.rows
    full = (1 << w) - 1
    erased = operator.index(erased_mask)
    if not 0 <= erased <= full:
        raise ValueError(f"erasure mask out of range for code length {w}")
    if isinstance(word_masks, np.ndarray):
        if word_masks.size and word_masks.dtype.kind not in "iu":
            raise ValueError("word masks must be integers")
        words = word_masks
    else:  # Python ints on both sides of 2^63 would make a float array
        words = np.array([operator.index(m) for m in word_masks], dtype=object)
    if words.ndim != 1:
        raise ValueError("word masks must be one-dimensional")
    if words.size and (words.min() < 0 or words.max() > full):
        raise ValueError(f"word mask out of range for code length {w}")
    words = words.astype(np.uint64)

    # Reduced row echelon form over the k unknowns, one equation per visible
    # position j (coefficients column_masks[j], right-hand side word bit j).
    # pivots[p] = (coefficients, combo): the row whose leading unknown is p,
    # and the visible positions whose equations were summed into it.
    pivots: dict[int, tuple[int, int]] = {}
    zero_combos: list[int] = []
    cols = G.column_masks
    for j in range(w):
        if (erased >> j) & 1:
            continue
        coef, combo = cols[j], 1 << j
        for p, (pcoef, pcombo) in pivots.items():
            if (coef >> p) & 1:
                coef ^= pcoef
                combo ^= pcombo
        if not coef:  # 0 = parity(word & combo): a consistency check
            zero_combos.append(combo)
            continue
        lead = (coef & -coef).bit_length() - 1
        for p, (pcoef, pcombo) in pivots.items():
            if (pcoef >> lead) & 1:
                pivots[p] = (pcoef ^ coef, pcombo ^ combo)
        pivots[lead] = (coef, combo)

    # One parity per (word, reduced row): pivot rows give the particular
    # solution with every free unknown 0; all-zero rows must have parity 0.
    pivot_cols = list(pivots)
    combos = np.array([pivots[p][1] for p in pivot_cols] + zero_combos, dtype=np.uint64)
    parities = (np.bitwise_count(words[:, None] & combos) & 1).astype(np.uint64)
    consistent = ~parities[:, len(pivot_cols):].any(axis=1)

    free_cols = [c for c in range(k) if c not in pivots]
    f = len(free_cols)
    if 1 << f > cap or f > _kernels.MAX_TABLE_ROWS:
        if consistent.any():
            limit = (
                f"the list cap {cap}"
                if 1 << f > cap
                else f"the listing limit 2^{_kernels.MAX_TABLE_ROWS}"
            )
            raise DecodeFailure(f"solution space 2^{f} exceeds {limit}")
        return consistent, np.zeros((words.size, 0), dtype=np.uint64)
    particular = (
        parities[:, : len(pivot_cols)] << np.array(pivot_cols, dtype=np.uint64)
    ).sum(axis=1, dtype=np.uint64)
    # Each row's leading unknown is its lowest set bit, so every pivot row
    # that contains free column c has its pivot below c, and c is the highest
    # bit of c's null vector. With the free columns ascending the span table
    # is sorted, and XOR with a particular solution (0 on every free column)
    # keeps each row sorted.
    null_basis = [
        (1 << c) | sum(1 << p for p, (pcoef, _) in pivots.items() if (pcoef >> c) & 1)
        for c in free_cols
    ]
    null_space = _kernels.codeword_table(np.array(null_basis, dtype=np.uint64))
    return consistent, particular[:, None] ^ null_space


def erasure_list_decode(
    G: GeneratorMatrix, r: ReceivedWord, cap: int = 64
) -> list[int]:
    """Exact set of messages consistent with ``r`` on its non-erased positions.

    The one-word case of :func:`erasure_list_decode_many`: the full affine
    solution space as sorted message integers. An inconsistent word gives
    ``[]``, even when its solution space would exceed ``cap``; a consistent
    one raises :class:`DecodeFailure` if its solutions exceed ``cap``.
    """
    if len(r) != G.w:
        raise ValueError(f"received word length {len(r)} != code length {G.w}")
    erased = sum(1 << j for j in np.flatnonzero(r.symbols == 0).tolist())
    word = sum(1 << j for j in np.flatnonzero(r.symbols == -1).tolist())
    consistent, solutions = erasure_list_decode_many(G, erased, [word], cap)
    return solutions[0].tolist() if consistent[0] else []


def bitflip_list_decode(
    G: GeneratorMatrix, r: ReceivedWord, radius: int, cap: int = 64
) -> list[int]:
    """All messages whose codeword lies within Hamming ``radius`` of ``r``,
    as sorted message integers.

    Exact by enumeration of all ``2^rows`` codewords (packed-bit kernel).
    Raises :class:`DecodeFailure` when the list exceeds ``cap``.
    """
    if len(r) != G.w:
        raise ValueError(f"received word length {len(r)} != code length {G.w}")
    if (r.symbols == 0).any():
        raise ValueError("bit-flip decoding takes a fully-determined ±1 word")
    target = signs_to_mask(r.symbols)
    full = (1 << G.w) - 1
    dists = _kernels.hamming_scan(G.codeword_masks, target, full)
    hits = np.flatnonzero(dists <= radius)
    if hits.size > cap:
        raise DecodeFailure(f"list size {hits.size} exceeds the cap {cap}")
    return hits.tolist()


def low_weight_codewords(G: GeneratorMatrix, weight_bound: float) -> list[Codeword]:
    """All codewords of Hamming weight <= bound, sorted lexicographically.

    Lexicographic order reads positions 0..w-1 with +1 before -1, so index
    ``p`` in the returned list selects the p-th lightest-ordered codeword.
    """
    full = (1 << G.w) - 1
    weights = _kernels.hamming_scan(G.codeword_masks, 0, full)
    hits = np.flatnonzero(weights <= weight_bound)
    entries = []
    for h in hits.tolist():
        cmask = int(G.codeword_masks[h])
        entries.append((_lex_key(cmask, G.w), cmask, h))
    entries.sort()
    return [
        Codeword(bits=mask_to_signs(cmask, G.w), message=mask_to_signs(m, G.rows))
        for _, cmask, m in entries
    ]
