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

__all__ = [
    "PrfKey",
    "prf_eval",
    "prf_truth_table",
    "ExtractorSpec",
    "extract",
]

_PRF_BLOCK_BITS = 512  # one 64-byte BLAKE2b digest per counter block
MAX_SEED_BITS = 16


def _signs_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a ±1 vector into bytes (-1 -> bit 1), little-endian within bytes."""
    gf2 = (bits == -1).astype(np.uint8)
    return np.packbits(gf2, bitorder="little").tobytes()


@dataclass(frozen=True)
class PrfKey:
    """A ±1 key vector selecting one function from the keyed-hash family."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("key must be nonempty")
        if any(b not in (-1, 1) for b in self.bits):
            raise ValueError("key bits must be ±1")

    @classmethod
    def from_signs(cls, bits: Sequence[int] | np.ndarray) -> "PrfKey":
        return cls(tuple(np.asarray(bits).tolist()))

    @property
    def length(self) -> int:
        return len(self.bits)

    def key_bytes(self) -> bytes:
        return _signs_to_bytes(np.array(self.bits, dtype=np.int8))


def _prf_block(key: PrfKey, block: int) -> np.ndarray:
    """512 PRF output bits (as a 0/1 array) for counter block ``block``."""
    digest = hashlib.blake2b(
        block.to_bytes(8, "little"), key=key.key_bytes(), digest_size=64
    ).digest()
    return np.unpackbits(np.frombuffer(digest, dtype=np.uint8), bitorder="little")


def prf_eval(key: PrfKey, x: int) -> int:
    """Deterministic ±1 output of the keyed function at point ``x``."""
    if x < 0:
        raise ValueError("point index must be >= 0")
    bit = _prf_block(key, x // _PRF_BLOCK_BITS)[x % _PRF_BLOCK_BITS]
    return -1 if bit else 1


def prf_truth_table(key: PrfKey, n_points: int) -> np.ndarray:
    """±1 outputs at points ``0 .. n_points-1`` (one hash per 512 points)."""
    if n_points < 0:
        raise ValueError("n_points must be >= 0")
    n_blocks = -(-n_points // _PRF_BLOCK_BITS)
    if n_blocks == 0:
        return np.empty(0, dtype=np.int8)
    bits = np.concatenate([_prf_block(key, b) for b in range(n_blocks)])[:n_points]
    return np.where(bits == 1, -1, 1).astype(np.int8)


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


def extract(x: Sequence[int] | np.ndarray, seed: int, spec: ExtractorSpec) -> np.ndarray:
    """Apply the seed's Toeplitz matrix to the ±1 source word.

    Output bit ``i`` is the GF(2) inner product of row ``i`` (``T[i, j] =
    t[i + j]``) with the source; the result is a ±1 vector of length
    ``m_out``. Linear in ``x`` for every fixed seed.
    """
    arr = np.asarray(x)
    if arr.shape != (spec.w,):
        raise ValueError(f"source must have length {spec.w}, got {arr.shape}")
    if not (np.abs(arr) == 1).all():
        raise ValueError("source bits must be ±1")
    if not 0 <= seed < spec.seed_count():
        raise ValueError(f"seed must be in [0, 2^{spec.u})")
    if spec.m_out == 0:
        return np.empty(0, dtype=np.int8)
    t = _toeplitz_diagonal(seed, spec)
    src = (arr == -1).astype(np.uint8)
    idx = np.arange(spec.m_out)[:, None] + np.arange(spec.w)[None, :]
    out = (t[idx] & src[None, :]).sum(axis=1) % 2
    return np.where(out == 1, -1, 1).astype(np.int8)
