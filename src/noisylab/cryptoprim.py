"""Concrete keyed pseudorandom function and seeded extractor.

Both primitives are instantiated from BLAKE2b, which is the single documented
cryptographic primitive in the package:

* The PRF output on point ``x`` is bit ``x mod 512`` of the keyed BLAKE2b
  stream block ``x // 512`` (counter mode), so bulk truth tables cost one hash
  per 512 points. A :class:`PrfDigestStore` keeps one dict per stream block,
  mapping each key it has hashed that far to that block's 64 bytes, and
  hashes a (key, block) pair at most once. It hands out packed rows, whole or
  cut to their first blocks (the raw stream bytes, point ``x`` at bit ``x %
  8`` of byte ``x // 8``); ±1 truth tables are the unpacked view of whole
  rows.
* The extractor is a Toeplitz universal hash ``T[i, j] = t[i + j]`` over
  GF(2). Seed ``q``'s defining bits ``t[0 .. w + m_out - 2]`` are bit ``k % 8``
  of byte ``k // 8`` of one BLAKE2b digest (personalization ``b"toeplitz"``,
  ``max(1, ceil((w + m_out - 1) / 8))`` bytes) of ``q`` as 4 little-endian
  bytes followed by 4 zero bytes. Output bit ``i`` is the GF(2) inner product
  of row ``i`` with the source, so the extractor is GF(2)-linear in the source
  for every fixed seed.

Signs follow the package convention: +1 encodes GF(2) zero, -1 encodes one.
Keys, seeds, extractor sources and outputs are packed like the decoders'
message integers (bit ``i`` set where the ±1 word has -1), checked and
(un)packed by :mod:`noisylab.codes`' one mask rule; keys are 1 to 64 bits, as
words are. ±1 keys enter only at :meth:`PrfKey.from_signs`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .codes import _SIGNS, _as_mask, _check_word_bits, _mask_array, signs_to_mask
from .core import _check_intervals, _within

__all__ = [
    "PrfKey",
    "prf_truth_table",
    "PrfDigestStore",
    "ExtractorSpec",
    "extract",
    "toeplitz_matrices",
    "extract_all_seeds",
]

_PRF_BLOCK_BITS = 512  # one 64-byte BLAKE2b digest per counter block
_PRF_BLOCK_BYTES = _PRF_BLOCK_BITS // 8
MAX_SEED_BITS = 16
# The ±1 signs of each byte value's 8 bits, least significant first: one
# gather unpacks a row of stream bytes into points.
_BYTE_SIGNS = _SIGNS.take(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
)
_BYTE_SIGNS.setflags(write=False)


@dataclass(frozen=True)
class PrfKey:
    """A key of 1 to 64 bits selecting one function from the keyed-hash family.

    The key is packed: bit ``i`` of ``mask`` is key position ``i``, set where
    the ±1 key has ``-1``, as the decoders' message integers are packed.
    """

    mask: int
    length: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "length", _check_word_bits(self.length, "key length"))
        object.__setattr__(self, "mask", _as_mask(self.mask, self.length, "key mask"))

    @classmethod
    def from_signs(cls, bits: Sequence[int] | np.ndarray) -> "PrfKey":
        """The key of a ±1 vector."""
        return cls(signs_to_mask(bits), len(bits))


def _key_bytes(mask: int, length: int) -> bytes:
    """The BLAKE2b key: the mask's ``ceil(length / 8)`` little-endian bytes."""
    return mask.to_bytes(-(-length // 8), "little")


def _prf_digests(key_bytes: bytes, counters: list[bytes]) -> list[bytes]:
    """The keyed BLAKE2b stream blocks at ``counters``, 64 bytes each.

    The key is absorbed once; each block hashes from a copy of that state.
    """
    keyed = hashlib.blake2b(key=key_bytes, digest_size=64)
    digests = []
    for c in counters:
        h = keyed.copy()
        h.update(c)
        digests.append(h.digest())
    return digests


class PrfDigestStore:
    """PRF truth tables at points ``0 .. n_points-1`` for keys of 1 to 64 bits,
    each (key, block) pair hashed at most once. :meth:`packed` returns the
    keys' raw streams as rows of bytes, whole or cut to their first blocks,
    and :meth:`tables` is the unpacked ±1 view of whole rows; both check the
    masks with :func:`~noisylab.codes._mask_array`.

    Block ``b`` hashes the 8-byte little-endian counter ``b`` (one hash per
    key per 512 points); a row has ``n_blocks`` of them. The store keeps one
    dict per block, mapping each mask hashed that far to the block's 64
    bytes. A mask's hashed blocks are always a leading run, extended when a
    caller asks for more, so a mask lacks some of the first ``b`` blocks
    exactly when block ``b - 1``'s dict lacks it. The store grows only with
    the keys and blocks actually asked for; its owner decides how long it
    lives.
    """

    def __init__(self, length: int, n_points: int):
        self.length = _check_word_bits(length, "key length")
        self.n_points = n_points = _within(n_points, "[0, inf)", "n_points", integer=True)
        self.n_blocks = -(-n_points // _PRF_BLOCK_BITS)
        self._counters = [b.to_bytes(8, "little") for b in range(self.n_blocks)]
        self._blocks: list[dict[int, bytes]] = [{} for _ in range(self.n_blocks)]

    def packed(self, masks: Sequence[int] | np.ndarray, blocks: int | None = None) -> np.ndarray:
        """Raw digest streams of the keys with packed ``masks``: one read-only
        uint8 row of ``64 * blocks`` bytes per mask, in the given order, the
        first ``blocks`` of the ``n_blocks`` stream blocks (every block by
        default). Point ``x`` is bit ``x % 8`` (little-endian) of byte ``x //
        8``, set where the PRF outputs -1; bits past ``n_points`` pad the last
        block. Blocks of a mask not hashed before are hashed first; ``blocks``
        that is not an integer in ``[0, n_blocks]`` is a :class:`ValueError`."""
        if blocks is None:
            blocks = self.n_blocks
        blocks = _within(blocks, f"[0, {self.n_blocks}]", "blocks", integer=True)
        masks = _mask_array(masks, self.length, "key mask").tolist()
        wanted = self._blocks[:blocks]
        if wanted:
            last = wanted[-1]
            for m in dict.fromkeys([m for m in masks if m not in last]):
                have = 0  # blocks of m stored so far, always a leading run
                while m in wanted[have]:
                    have += 1
                new = _prf_digests(_key_bytes(m, self.length), self._counters[have:blocks])
                for block, digest in zip(wanted[have:], new):
                    block[m] = digest
        stream = b"".join([block[m] for m in masks for block in wanted])
        return np.frombuffer(stream, dtype=np.uint8).reshape(len(masks), blocks * _PRF_BLOCK_BYTES)

    def tables(self, masks: Sequence[int] | np.ndarray) -> np.ndarray:
        """±1 truth tables of the keys with packed ``masks``, one int8 row per
        mask in the given order: the unpacked view of :meth:`packed`."""
        rows = self.packed(masks)
        signs = _BYTE_SIGNS.take(rows, axis=0).reshape(rows.shape[0], 8 * rows.shape[1])
        return signs[:, : self.n_points]


def prf_truth_table(key: PrfKey, n_points: int) -> np.ndarray:
    """±1 outputs at points ``0 .. n_points-1`` (one hash per 512 points):
    the one-key reference for :class:`PrfDigestStore` rows."""
    return PrfDigestStore(key.length, n_points).tables([key.mask])[0]


@dataclass(frozen=True)
class ExtractorSpec:
    """Toeplitz universal-hash extractor dimensions.

    ``w`` source bits in (at most 64, one packed word), ``m_out`` bits out,
    selected by a ``u``-bit seed. ``u`` stays small (≤ 16) so callers can
    enumerate all seeds; the full Toeplitz defining string is expanded from
    the seed by a fixed hash. ``u`` and ``m_out`` are integers, ``m_out <= w``.
    """

    w: int
    u: int = field(metadata={"interval": f"[0, {MAX_SEED_BITS}]"})
    m_out: int = field(metadata={"interval": "[0, inf)"})

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _check_word_bits(self.w, "source length"))
        _check_intervals(self)
        if self.m_out > self.w:
            raise ValueError(f"m_out must be at most w = {self.w}, got {self.m_out}")

    def seed_count(self) -> int:
        return 1 << self.u


def _toeplitz_rows(seed: int, spec: ExtractorSpec) -> list[int]:
    """The seed's ``m_out`` Toeplitz rows as ``w``-bit masks: row ``i`` packs
    ``T[i, j] = t[i + j]`` in bit ``j``, i.e. bits ``i .. i + w - 1`` of t."""
    need = spec.w + spec.m_out - 1
    digest = hashlib.blake2b(
        seed.to_bytes(4, "little") + bytes(4),
        digest_size=max(1, -(-need // 8)),
        person=b"toeplitz",
    ).digest()
    t = int.from_bytes(digest, "little")
    full = (1 << spec.w) - 1
    return [(t >> i) & full for i in range(spec.m_out)]


def toeplitz_matrices(spec: ExtractorSpec) -> np.ndarray:
    """Every seed's Toeplitz rows, stacked by seed: ``(2^u, m_out)`` uint64
    row masks."""
    rows = [_toeplitz_rows(q, spec) for q in range(spec.seed_count())]
    return np.array(rows, dtype=np.uint64).reshape(spec.seed_count(), spec.m_out)


def _key_masks(rows: np.ndarray, src: int) -> np.ndarray:
    """Key masks of uint64 Toeplitz ``rows`` (last axis: output bit ``i``)
    applied to the packed source ``src``: bit ``i`` is the parity of
    ``row_i & src``."""
    parities = (np.bitwise_count(rows & np.uint64(src)) & 1).astype(np.uint64)
    place = np.arange(rows.shape[-1], dtype=np.uint64)
    return (parities << place).sum(axis=-1, dtype=np.uint64)


def extract(x: int, seed: int, spec: ExtractorSpec) -> int:
    """Apply the seed's Toeplitz matrix to the packed source word ``x``.

    Output bit ``i`` is the GF(2) inner product of row ``i`` (``T[i, j] =
    t[i + j]``) with the source; the result is an ``m_out``-bit key mask.
    Linear in ``x`` for every fixed seed.
    """
    src = _as_mask(x, spec.w, "source")
    rows = _toeplitz_rows(_as_mask(seed, spec.u, "seed"), spec)
    return int(_key_masks(np.array(rows, dtype=np.uint64), src))


def extract_all_seeds(x: int, spec: ExtractorSpec, matrices: np.ndarray) -> np.ndarray:
    """``extract(x, q, spec)`` for every seed ``q`` at once, as entry ``q``.

    ``matrices`` is :func:`toeplitz_matrices` of ``spec``; the result is a
    ``(2^u,)`` uint64 array of key masks.
    """
    return _key_masks(matrices, _as_mask(x, spec.w, "source"))
