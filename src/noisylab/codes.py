"""GF(2) linear codes with erasure and bit-flip list decoding.

Sign convention (fixed once, package-wide): the GF(2) symbol 0 is the sign
``+1`` and the GF(2) symbol 1 is the sign ``-1``; the Hamming weight of a
±1 word is its distance from the all-``+1`` word, i.e. its count of ``-1``
entries. Words of length ``w <= 64`` are packed into integer bitmasks where
bit ``j`` is set iff position ``j`` carries ``-1``.

Decoding is exact at desk scale: erasures by Gaussian elimination on the
punctured generator, bit flips by full codeword enumeration through the
packed-bit kernels. Both decoders return sorted message integers (bit ``i``
is message position ``i``, as in :attr:`GeneratorMatrix.codeword_masks`), and
:func:`encode` takes one; a :class:`Codeword` is packed the same way, with its
±1 form derived on demand.
The erasure decoder works on batches: :func:`erasure_list_decode_many` takes
one erasure pattern shared by every packed word, or one pattern per word, and
runs one elimination per distinct pattern; visited in column-lexicographic
order, each pattern resumes from the saved state of the longest column prefix
it shares with the one before. :func:`erasure_list_decode` is its one-word
case for a :class:`ReceivedWord`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _kernels
from .core import RngHandle, _as_int, _frozen, _within

__all__ = [
    "DecodeFailure",
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
# The sign of GF(2) symbols 0 and 1, indexed by the symbol.
_SIGNS = np.array([1, -1], dtype=np.int8)
_SIGNS.setflags(write=False)
# Draws gen_random_linear_code makes for a full-rank matrix before it gives up.
MAX_CODE_ATTEMPTS = 1000


class DecodeFailure(Exception):
    """List size exceeded the cap; the caller treats this as decode failure."""


def signs_to_mask(bits: Sequence[int] | np.ndarray) -> int:
    """Pack a ±1 word into a bitmask (bit j set iff position j is -1)."""
    arr = np.asarray(bits)
    minus = arr == -1
    if arr.ndim != 1 or np.count_nonzero(minus) + np.count_nonzero(arr == 1) != arr.size:
        raise ValueError("word entries must be ±1")
    return _pack_bits(minus)


def _pack_bits(flags: np.ndarray) -> int:
    """The bitmask of a 1-d boolean array: bit ``j`` set iff ``flags[j]``."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def mask_to_signs(mask: int, w: int) -> np.ndarray:
    """Unpack a bitmask into a ±1 word of length ``w``: the one-mask case of
    :func:`masks_to_signs`."""
    return masks_to_signs(mask, w)


def masks_to_signs(masks: int | Sequence[int] | np.ndarray, w: int) -> np.ndarray:
    """Unpack bitmasks into ±1 words of length ``w`` in ``[1, MAX_WORD_BITS]``,
    one row per mask; a single mask gives a single word. Each mask must be an
    integer in ``[0, 2^w)``; a breach of either is a :class:`ValueError`."""
    w = _check_word_bits(w, "word length")
    if _many_masks(masks):
        arr = _mask_array(masks, w, "mask")
    else:
        arr = np.asarray(_as_mask(masks, w, "mask"), dtype=np.uint64)
    return _SIGNS.take(_mask_bits(arr, w))


def _mask_bits(masks: np.ndarray, w: int) -> np.ndarray:
    """Bits ``0 .. w-1`` of uint64 ``masks`` as 0/1 uint8, along a new last
    axis: each mask's 8 little-endian bytes, unpacked."""
    as_bytes = masks.astype("<u8")[..., None].view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, count=w, bitorder="little")


def _check_word_bits(n: int, what: str) -> int:
    """Words, messages and keys fit one packed uint64: an integer ``n`` in
    ``[1, MAX_WORD_BITS]``, returned as a Python int, so shifting by it never
    wraps. Callers store and use the returned length."""
    if type(n) is not int:
        n = _as_int(n, what)
    if not 1 <= n <= MAX_WORD_BITS:
        raise ValueError(f"{what} must be in [1, {MAX_WORD_BITS}], got {n}")
    return n


def _as_mask(value: object, bits: int, what: str) -> int:
    """``value`` as a Python int in ``[0, 2^bits)``, the one rule for a packed
    mask: an integer by :func:`~noisylab.core._as_int`'s rule (Python or
    numpy, never a bool, a float or an array), and in range; a breach of
    either is a :class:`ValueError`."""
    if type(value) is not int:
        value = _as_int(value, what)
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{what} must be in [0, 2^{bits}), got {value}")
    return value


def _many_masks(value: object) -> bool:
    """Whether ``value`` is a list of masks: an array, or a sequence that is
    not a ``str``, ``bytes`` or ``bytearray``. A set, a generator or bytes is
    not, so no list of masks depends on iteration order or reads bytes as ints."""
    return isinstance(value, np.ndarray) or (
        isinstance(value, Sequence) and not isinstance(value, (str, bytes, bytearray))
    )


def _mask_array(values: Sequence[int] | np.ndarray, bits: int, what: str) -> np.ndarray:
    """``values`` as a 1-d uint64 array of masks, each as by :func:`_as_mask`
    (``bits <= MAX_WORD_BITS``). A list of Python ints or an integer array is
    passed by its smallest and largest entry; any other form, or one that
    fails, is checked entry by entry, so a breach raises :func:`_as_mask`'s
    message for the first bad entry. A form that is not a list of masks (see
    :func:`_many_masks`) or a multi-dimensional array is a :class:`ValueError`."""
    if not _many_masks(values):
        raise ValueError(f"{what}s must be an array or a sequence, got {type(values).__name__}")
    if isinstance(values, np.ndarray):
        if values.ndim != 1:
            raise ValueError(f"{what}s must be one-dimensional")
        kind = values.dtype.kind
        if kind in "iu" and (
            not values.size or (kind == "u" or values.min() >= 0) and int(values.max()) >> bits == 0
        ):
            return values.astype(np.uint64, copy=False)
    elif isinstance(values, list) and set(map(type, values)) == {int}:
        if min(values) >= 0 and max(values) >> bits == 0:
            return np.array(values, dtype=np.uint64)
    return np.array([_as_mask(m, bits, what) for m in values], dtype=np.uint64)


@dataclass(frozen=True)
class Codeword:
    """A length-``w`` codeword and the message that encodes to it, packed.

    Bit ``j`` of ``mask`` is codeword position ``j`` and bit ``i`` of
    ``message`` is message position ``i``, each set where the ±1 word has -1.
    """

    mask: int
    message: int
    w: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _check_word_bits(self.w, "codeword length"))
        object.__setattr__(self, "mask", _as_mask(self.mask, self.w, "codeword mask"))
        object.__setattr__(self, "message", _as_mask(self.message, self.w, "message"))

    @property
    def bits(self) -> np.ndarray:
        """The codeword as a ±1 word."""
        return mask_to_signs(self.mask, self.w)

    @property
    def weight(self) -> int:
        """Hamming distance from the all-+1 word (count of -1 entries)."""
        return self.mask.bit_count()


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

    def __len__(self) -> int:
        return int(self.symbols.size)


class GeneratorMatrix:
    """A full-row-rank GF(2) generator matrix (rows = unit-message codewords)."""

    __slots__ = ("w", "row_masks", "__dict__")

    def __init__(self, row_masks: Sequence[int], w: int):
        w = _check_word_bits(w, "codeword length")
        masks = tuple(_mask_array(row_masks, w, "row mask").tolist())
        if not masks:
            raise ValueError("at least one row required")
        if _gf2_rank(masks) != len(masks):
            raise ValueError("generator matrix must have full row rank")
        self.w = w
        self.row_masks = masks

    @property
    def rows(self) -> int:
        return len(self.row_masks)

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
        """Parse the :meth:`to_text` form: a header of ``w=`` and ``rows=``,
        each once and in decimal digits, then one row per line in hex digits
        of either case. Any other key, or a sign, prefix or underscore that
        ``int`` would take, is a :class:`ValueError`."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("malformed serialized code: no header line")
        header: dict[str, int] = {}
        for part in lines[0].split():
            key, _, value = part.partition("=")
            if key not in ("w", "rows"):
                raise ValueError(
                    f"malformed serialized code: unknown header key {key!r} "
                    "(expected w and rows)"
                )
            if key in header:
                raise ValueError(f"malformed serialized code: header key {key!r} repeated")
            if not re.fullmatch("[0-9]+", value):
                raise ValueError(
                    f"malformed serialized code: header {key}={value!r} is not decimal digits"
                )
            header[key] = int(value)
        missing = [key for key in ("w", "rows") if key not in header]
        if missing:
            raise ValueError(f"malformed serialized code: header lacks {missing}")
        for ln in lines[1:]:
            if not re.fullmatch("[0-9a-fA-F]+", ln):
                raise ValueError(f"malformed serialized code: row {ln!r} is not hex digits")
        if len(lines) - 1 != header["rows"]:
            raise ValueError("row count mismatch in serialized code")
        return cls([int(ln, 16) for ln in lines[1:]], header["w"])


def _gf2_rank(rows: Sequence[int]) -> int:
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


def gen_random_linear_code(rho: float, w: int, rng: RngHandle) -> GeneratorMatrix:
    """Uniformly random full-row-rank generator matrix at rate ``rho``.

    ``rho·w`` must be an integer number of rows; rank-deficient draws are
    regenerated (up to ``MAX_CODE_ATTEMPTS`` draws).
    """
    _within(rho, "(0, 1)", "rate")
    w = _check_word_bits(w, "codeword length")
    k_float = rho * w
    k = round(k_float)
    if abs(k_float - k) > 1e-9 or k < 1:
        raise ValueError(f"rho*w must be a positive integer, got {k_float}")
    gen = rng.generator()
    for _ in range(MAX_CODE_ATTEMPTS):
        masks = gen.integers(0, 1 << w, size=k, dtype=np.uint64).tolist()
        if _gf2_rank(masks) == k:
            return GeneratorMatrix(masks, w)
    raise RuntimeError("could not draw a full-rank generator matrix")


def encode(G: GeneratorMatrix, message: int) -> Codeword:
    """The codeword of a message int: the XOR of the rows its set bits select."""
    msg = _as_mask(message, G.rows, "message")
    cmask = 0
    for i, row in enumerate(G.row_masks):
        if (msg >> i) & 1:
            cmask ^= row
    return Codeword(cmask, msg, G.w)


def erasure_list_decode_many(
    G: GeneratorMatrix,
    erased_masks: int | Sequence[int] | np.ndarray,
    word_masks: Sequence[int] | np.ndarray,
    cap: int = 64,
) -> tuple[np.ndarray, np.ndarray]:
    """Erasure-list-decode a batch of packed words, each under its erasure pattern.

    ``erased_masks`` packs the erased positions: one int shared by every
    word, or one mask per word. Each entry of ``word_masks`` packs a word's
    ``-1`` positions (its bits on erased positions are ignored). Returns
    ``(consistent, solutions)``: ``consistent[i]`` says whether some message
    agrees with word ``i`` on every visible position, and row ``i`` of the
    uint64 array ``solutions`` is then the full affine solution space, ``2^f``
    sorted message integers, where ``f`` is the number of free message
    positions of the punctured code. Rows of inconsistent words carry no
    meaning. Every pattern of a batch must leave the same ``f``, else
    :class:`ValueError`.

    One Gaussian elimination on the visible columns serves every word of a
    pattern: each reduced row remembers which visible positions were XORed
    into it, so a word's right-hand side is the parity of ``word & combo``.
    Inconsistency beats the cap: :class:`DecodeFailure` is raised when
    ``2^f > cap``, or ``f`` is above the ``2^24`` listing limit, and at least
    one word is consistent; when none is, ``solutions`` has no columns. A
    ``cap`` that is not an integer >= 1 is a :class:`ValueError`.
    """
    cap = _within(cap, "[1, inf)", "list cap", integer=True)
    w, k = G.w, G.rows
    words = _mask_array(word_masks, w, "word mask")
    if _many_masks(erased_masks):
        erased = _mask_array(erased_masks, w, "erasure mask")
        if erased.size != words.size:
            raise ValueError(f"{erased.size} erasure masks for {words.size} word masks")
        # The distinct masks, by a stable sort: np.unique's quicksort would
        # page in about 0.4 MB more of numpy's sort code.
        perm = np.argsort(erased, kind="stable")
        by_value = erased[perm]
        first = np.ones(by_value.size, dtype=bool)
        first[1:] = by_value[1:] != by_value[:-1]
        values = by_value[first].tolist()
        # Column-lexicographic order: by bit 0, then bit 1, and so on.
        visit = sorted(range(len(values)), key=lambda u: f"{values[u]:0{w}b}"[::-1])
        patterns = [values[u] for u in visit]
        rank = np.empty(len(visit), dtype=np.intp)
        rank[visit] = np.arange(len(visit))
        which = np.empty_like(perm)  # each word's pattern, as an index into patterns
        which[perm] = rank[np.cumsum(first) - 1]
    else:  # one pattern: its table row broadcasts over the words
        patterns, which = [_as_mask(erased_masks, w, "erasure mask")], slice(None)

    # Reduced row echelon form over the k unknowns, one equation per visible
    # position j (coefficients column_masks[j], right-hand side word bit j).
    # pivots[p] = (coefficients, combo): the row whose leading unknown is p,
    # and the visible positions whose equations were summed into it.
    # In column-lexicographic order, each pattern resumes from the state after
    # the columns it shares with the one before (the lowest bit where the two
    # differ); a state is saved only at a column some pattern resumes from.
    resume = [0] + [((a ^ b) & -(a ^ b)).bit_length() - 1 for a, b in zip(patterns, patterns[1:])]
    wanted = set(resume)
    saved: dict[int, tuple[dict[int, tuple[int, int]], list[int]]] = {0: ({}, [])}
    # Per pattern: its pivot unknowns, its reduced rows' combos (pivot rows
    # first, then all-zero rows) and its null-space basis.
    pivot_rows: list[list[int]] = []
    combo_rows: list[list[int]] = []
    null_rows: list[list[int]] = []
    cols = G.column_masks
    for pattern, start in zip(patterns, resume):
        pivots, zero_combos = dict(saved[start][0]), list(saved[start][1])
        for j in range(start, w):
            if j > start and j in wanted:
                saved[j] = (dict(pivots), list(zero_combos))
            if (pattern >> j) & 1:
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
        pivot_rows.append(list(pivots))
        combo_rows.append([combo for _, combo in pivots.values()] + zero_combos)
        # Each row's leading unknown is its lowest set bit, so every pivot row
        # that contains free column c has its pivot below c, and c is the
        # highest bit of c's null vector. With the free columns ascending the
        # span table is sorted, and XOR with a particular solution (0 on every
        # free column) keeps each row sorted.
        null_rows.append([
            (1 << c) | sum(1 << p for p, (pcoef, _) in pivots.items() if (pcoef >> c) & 1)
            for c in range(k)
            if c not in pivots
        ])

    ranks = {len(row) for row in pivot_rows}
    if len(ranks) > 1:
        raise ValueError(
            "erasure masks of one batch must leave one number of free message "
            f"positions, got {sorted(k - r for r in ranks)}"
        )
    n, r = len(patterns), max(ranks, default=k)
    f = k - r
    # One parity per (word, reduced row of its pattern): pivot rows give the
    # particular solution with every free unknown 0; all-zero rows must have
    # parity 0, and padding with combo 0 adds rows of parity 0.
    width = max(map(len, combo_rows), default=r)
    combos = np.array(
        [row + [0] * (width - len(row)) for row in combo_rows], dtype=np.uint64
    ).reshape(n, width)
    parities = np.bitwise_count(words[:, None] & combos[which]) & 1
    consistent = ~parities[:, r:].any(axis=1)

    if 1 << f > cap or f > _kernels.MAX_TABLE_ROWS:
        if consistent.any():
            limit = (
                f"the list cap {cap}"
                if 1 << f > cap
                else f"the listing limit 2^{_kernels.MAX_TABLE_ROWS}"
            )
            raise DecodeFailure(f"solution space 2^{f} exceeds {limit}")
        return consistent, np.zeros((words.size, 0), dtype=np.uint64)
    shifts = np.array(pivot_rows, dtype=np.uint64).reshape(n, r)
    particular = (parities[:, :r].astype(np.uint64) << shifts[which]).sum(axis=1, dtype=np.uint64)
    null_space = _kernels.codeword_table(np.array(null_rows, dtype=np.uint64).reshape(n, f))
    return consistent, particular[:, None] ^ null_space[which]


def erasure_list_decode(
    G: GeneratorMatrix, r: ReceivedWord, cap: int = 64
) -> list[int]:
    """Exact set of messages consistent with ``r`` on its non-erased positions.

    The one-word case of :func:`erasure_list_decode_many`: the full affine
    solution space as sorted message integers. An inconsistent word gives
    ``[]``, even when its solution space would exceed ``cap``; a consistent
    one raises :class:`DecodeFailure` if its solutions exceed ``cap``. A
    ``cap`` that is not an integer >= 1 is a :class:`ValueError`.
    """
    if len(r) != G.w:
        raise ValueError(f"received word length {len(r)} != code length {G.w}")
    erased, word = _pack_bits(r.symbols == 0), _pack_bits(r.symbols == -1)
    consistent, solutions = erasure_list_decode_many(G, erased, [word], cap)
    return solutions[0].tolist() if consistent[0] else []


def bitflip_list_decode(
    G: GeneratorMatrix, r: ReceivedWord, radius: int, cap: int = 64
) -> list[int]:
    """All messages whose codeword lies within Hamming ``radius`` of ``r``,
    as sorted message integers.

    Exact by enumeration of all ``2^rows`` codewords (packed-bit kernel).
    Raises :class:`DecodeFailure` when the list exceeds ``cap``, and
    :class:`ValueError` unless ``radius`` is an integer >= 0 and ``cap`` one >= 1.
    """
    if len(r) != G.w:
        raise ValueError(f"received word length {len(r)} != code length {G.w}")
    radius = _within(radius, "[0, inf)", "decoding radius", integer=True)
    cap = _within(cap, "[1, inf)", "list cap", integer=True)
    if (r.symbols == 0).any():
        raise ValueError("bit-flip decoding takes a fully-determined ±1 word")
    dists = _kernels.hamming_scan(G.codeword_masks, _pack_bits(r.symbols == -1))
    hits = np.flatnonzero(dists <= radius)
    if hits.size > cap:
        raise DecodeFailure(f"list size {hits.size} exceeds the cap {cap}")
    return hits.tolist()


def low_weight_codewords(G: GeneratorMatrix, weight_bound: float) -> list[Codeword]:
    """All codewords of Hamming weight <= bound, sorted lexicographically.

    Lexicographic order reads positions 0..w-1 with +1 before -1, so index
    ``p`` in the returned list selects the p-th lightest-ordered codeword.
    """
    weights = _kernels.hamming_scan(G.codeword_masks, 0)
    hits = np.flatnonzero(weights <= weight_bound)
    masks = G.codeword_masks[hits]
    # np.lexsort's last key is the primary one: position 0, then 1, ...
    positions = np.arange(G.w - 1, -1, -1, dtype=np.uint64)
    order = np.lexsort((masks >> positions[:, None]) & np.uint64(1))
    return [
        Codeword(cmask, m, G.w)
        for cmask, m in zip(masks[order].tolist(), hits[order].tolist())
    ]
