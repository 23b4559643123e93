"""Concrete keyed pseudorandom function and seeded extractor.

Both primitives are instantiated from BLAKE2b, which is the single documented
cryptographic primitive in the package:

* The PRF output on point ``x`` is bit ``x mod 512`` of the keyed BLAKE2b
  stream block ``x // 512`` (counter mode), so bulk truth tables cost one hash
  per 512 points.
* The extractor is a Toeplitz-style universal hash whose defining bit string
  is expanded from the short seed with BLAKE2b (personalization
  ``b"toeplitz"``); it is GF(2)-linear in the source for every fixed seed.

Signs follow the package convention: +1 encodes GF(2) zero, -1 encodes one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import signs_to_mask

__all__ = [
    "PrfKey",
    "prf_truth_table",
    "prf_truth_tables",
    "ExtractorSpec",
    "extract",
    "toeplitz_matrices",
    "extract_all_seeds",
]

_PRF_BLOCK_BITS = 512  # one 64-byte BLAKE2b digest per counter block
MAX_SEED_BITS = 16


@dataclass(frozen=True)
class PrfKey:
    """A ``length``-bit key selecting one function from the keyed-hash family.

    The key is packed: bit ``i`` of ``mask`` is key position ``i``, set where
    the ±1 key has ``-1``, as the decoders' message integers are packed.
    """

    mask: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("key must be nonempty")
        if not 0 <= self.mask < 1 << self.length:
            raise ValueError(f"key mask must be in [0, 2^{self.length})")

    @classmethod
    def from_signs(cls, bits: Sequence[int] | np.ndarray) -> "PrfKey":
        """The key of a ±1 vector."""
        arr = np.asarray(bits)
        return cls(signs_to_mask(arr), arr.size)

    @property
    def bits(self) -> np.ndarray:
        """The key as a ±1 vector."""
        packed = np.frombuffer(self.key_bytes(), dtype=np.uint8)
        return _bits_to_signs(np.unpackbits(packed, bitorder="little")[: self.length])

    def key_bytes(self) -> bytes:
        """The mask in ``ceil(length / 8)`` little-endian bytes (position
        ``i`` is bit ``i % 8`` of byte ``i // 8``)."""
        return self.mask.to_bytes(-(-self.length // 8), "little")


def _prf_digests(key_bytes: bytes, counters: list[bytes]) -> bytes:
    """The keyed BLAKE2b stream blocks at ``counters``, joined (64 bytes each).

    The key is absorbed once; each block hashes from a copy of that state.
    """
    keyed = hashlib.blake2b(key=key_bytes, digest_size=64)
    digests = []
    for c in counters:
        h = keyed.copy()
        h.update(c)
        digests.append(h.digest())
    return b"".join(digests)


def _bits_to_signs(bits: np.ndarray) -> np.ndarray:
    """0/1 bits to ±1 int8 signs (bit 1 -> -1)."""
    return 1 - 2 * bits.astype(np.int8)


def prf_truth_tables(keys: Sequence[PrfKey], n_points: int) -> np.ndarray:
    """±1 outputs at points ``0 .. n_points-1`` under each key, one row per key.

    Block ``b`` hashes the 8-byte little-endian counter ``b``; the joined
    digests of all keys are unpacked in one call (one hash per key per 512
    points).
    """
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    n_blocks = -(-n_points // _PRF_BLOCK_BITS)
    counters = [b.to_bytes(8, "little") for b in range(n_blocks)]
    stream = b"".join(_prf_digests(key.key_bytes(), counters) for key in keys)
    bits = np.unpackbits(np.frombuffer(stream, dtype=np.uint8), bitorder="little")
    bits = bits.reshape(len(keys), n_blocks * _PRF_BLOCK_BITS)[:, :n_points]
    return _bits_to_signs(bits)


def prf_truth_table(key: PrfKey, n_points: int) -> np.ndarray:
    """±1 outputs at points ``0 .. n_points-1`` (one hash per 512 points)."""
    return prf_truth_tables([key], n_points)[0]


@dataclass(frozen=True)
class ExtractorSpec:
    """Toeplitz universal-hash extractor dimensions.

    ``w`` source bits in, ``m_out`` bits out, selected by a ``u``-bit seed.
    ``u`` stays small (≤ 16) so callers can enumerate all seeds; the full
    Toeplitz defining string is expanded from the seed by a fixed hash.
    """

    w: int
    u: int
    m_out: int

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("source length must be >= 1")
        if not 0 <= self.u <= MAX_SEED_BITS:
            raise ValueError(f"seed length must be in [0, {MAX_SEED_BITS}]")
        if not 0 <= self.m_out <= self.w:
            raise ValueError("output length must be in [0, w]")

    def seed_count(self) -> int:
        return 1 << self.u


def _toeplitz_diagonal(seed: int, spec: ExtractorSpec) -> np.ndarray:
    """The ``w + m_out - 1`` defining bits t of T[i, j] = t[i + j]."""
    need = spec.w + spec.m_out - 1
    digest_size = min(64, max(1, -(-need // 8)))
    stream = b""
    counter = 0
    while len(stream) * 8 < need:
        stream += hashlib.blake2b(
            seed.to_bytes(4, "little") + counter.to_bytes(4, "little"),
            digest_size=digest_size,
            person=b"toeplitz",
        ).digest()
        counter += 1
    return np.unpackbits(np.frombuffer(stream, dtype=np.uint8), bitorder="little")[
        :need
    ]


def _toeplitz_matrix(seed: int, spec: ExtractorSpec) -> np.ndarray:
    """The seed's ``m_out x w`` matrix ``T[i, j] = t[i + j]`` as 0/1 bits."""
    if spec.m_out == 0:
        return np.zeros((0, spec.w), dtype=np.uint8)
    t = _toeplitz_diagonal(seed, spec)
    return t[np.arange(spec.m_out)[:, None] + np.arange(spec.w)[None, :]]


def toeplitz_matrices(spec: ExtractorSpec) -> np.ndarray:
    """Every seed's Toeplitz matrix, stacked by seed: shape ``(2^u, m_out, w)``."""
    return np.stack([_toeplitz_matrix(q, spec) for q in range(spec.seed_count())])


def _source_bits(x: Sequence[int] | np.ndarray, w: int) -> np.ndarray:
    """The ±1 source word as 0/1 bits (-1 -> 1), after checking it."""
    arr = np.asarray(x)
    if arr.shape != (w,):
        raise ValueError(f"source must have length {w}, got {arr.shape}")
    if not (np.abs(arr) == 1).all():
        raise ValueError("source bits must be ±1")
    return (arr == -1).astype(np.uint8)


def _gf2_apply(matrices: np.ndarray, src: np.ndarray) -> np.ndarray:
    """±1 signs of the GF(2) product of 0/1 ``matrices`` with 0/1 ``src``.

    The uint8 row sums may wrap modulo 256, which keeps their parity.
    """
    return _bits_to_signs((matrices @ src) & 1)


def extract(x: Sequence[int] | np.ndarray, seed: int, spec: ExtractorSpec) -> np.ndarray:
    """Apply the seed's Toeplitz matrix to the ±1 source word.

    Output bit ``i`` is the GF(2) inner product of row ``i`` (``T[i, j] =
    t[i + j]``) with the source; the result is a ±1 vector of length
    ``m_out``. Linear in ``x`` for every fixed seed.
    """
    src = _source_bits(x, spec.w)
    if not 0 <= seed < spec.seed_count():
        raise ValueError(f"seed must be in [0, 2^{spec.u})")
    return _gf2_apply(_toeplitz_matrix(seed, spec), src)


def extract_all_seeds(x: Sequence[int] | np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """``extract(x, q, spec)`` for every seed ``q`` at once, as row ``q``.

    ``matrices`` is :func:`toeplitz_matrices` of ``spec``; the result has
    shape ``(2^u, m_out)``.
    """
    return _gf2_apply(matrices, _source_bits(x, matrices.shape[2]))
