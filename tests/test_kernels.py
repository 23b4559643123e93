"""Packed-bit kernels against independent Python-int oracles."""

import numpy as np
import pytest

from noisylab import _kernels


def _oracle_table(row_masks):
    """Independent span enumeration with Python ints."""
    k = len(row_masks)
    out = []
    for m in range(1 << k):
        acc = 0
        for i in range(k):
            if (m >> i) & 1:
                acc ^= int(row_masks[i])
        out.append(acc)
    return np.array(out, dtype=np.uint64)


def test_codeword_table_matches_oracle():
    gen = np.random.default_rng(0)
    for k in (1, 3, 6):
        rows = gen.integers(0, 1 << 16, size=k, dtype=np.uint64)
        assert np.array_equal(_kernels.codeword_table(rows), _oracle_table(rows))


def test_codeword_table_of_a_stack_is_each_matrix_table():
    rows = np.random.default_rng(2).integers(0, 1 << 16, size=(3, 4), dtype=np.uint64)
    table = _kernels.codeword_table(rows)
    assert table.shape == (3, 16)
    for got, matrix in zip(table, rows):
        assert np.array_equal(got, _oracle_table(matrix))
    assert _kernels.codeword_table(np.zeros((2, 0), dtype=np.uint64)).tolist() == [[0], [0]]


def test_hamming_scan_matches_popcount_oracle():
    gen = np.random.default_rng(1)
    rows = gen.integers(0, 1 << 20, size=8, dtype=np.uint64)
    table = _kernels.codeword_table(rows)
    target = np.uint64(gen.integers(0, 1 << 20))
    got = _kernels.hamming_scan(table, target)
    oracle = np.array(
        [bin(int(t) ^ int(target)).count("1") for t in table],
        dtype=np.int64,
    )
    assert np.array_equal(got, oracle)


def test_row_count_cap():
    rows = np.zeros(25, dtype=np.uint64)
    with pytest.raises(ValueError):
        _kernels.codeword_table(rows)
