"""Packed-bit GF(2) kernels: the inner loop of code enumeration and list decoding.

- ``codeword_table(row_masks)``: expand the 2^k GF(2) row-span of ``k`` bitmask
  rows into a table indexed by message integer, for one matrix or a stack.
- ``hamming_scan(table, target)``: popcount of ``table ^ target`` per entry
  (Hamming distances).

Both operate on codewords packed into single ``uint64`` words (word length
<= 64 bits).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_TABLE_ROWS", "codeword_table", "hamming_scan"]

# codeword_table refuses more rows than this: 2^24 uint64 entries is 128 MiB.
MAX_TABLE_ROWS = 24


def codeword_table(row_masks: np.ndarray) -> np.ndarray:
    """All 2^k XOR combinations of ``k`` uint64 row bitmasks.

    Entry ``m`` is the XOR of the rows selected by the set bits of ``m``
    (bit ``i`` of the index selects row ``i``). Entry 0 is 0. The rows are
    the last axis: a ``(n, k)`` stack of matrices gives a ``(n, 2^k)`` table.
    """
    rows = np.asarray(row_masks, dtype=np.uint64)
    k = rows.shape[-1]
    if k > MAX_TABLE_ROWS:
        raise ValueError(f"refusing to expand 2^{k} codewords (k > {MAX_TABLE_ROWS})")
    table = np.zeros(rows.shape[:-1] + (1 << k,), dtype=np.uint64)
    size = 1
    for i in range(k):
        table[..., size : 2 * size] = table[..., :size] ^ rows[..., i, None]
        size *= 2
    return table


def hamming_scan(table: np.ndarray, target: int) -> np.ndarray:
    """Per-entry popcount of ``table ^ target``."""
    table = np.asarray(table, dtype=np.uint64)
    return np.bitwise_count(table ^ np.uint64(target)).astype(np.int64)
