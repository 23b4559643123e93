"""Keyed PRF and Toeplitz extractor: determinism, structure, linearity."""

import hashlib

import numpy as np
import pytest

from noisylab.codes import masks_to_signs
from noisylab.cryptoprim import (
    ExtractorSpec,
    PrfKey,
    extract,
    extract_all_seeds,
    prf_truth_table,
    prf_truth_tables,
    toeplitz_matrices,
)

KEY_A = PrfKey.from_signs([1, -1, 1, -1, 1, 1, -1, -1])
KEY_B = PrfKey.from_signs([1, -1, 1, -1, 1, 1, -1, 1])


def spec_prf(key: PrfKey, x: int) -> int:
    """The documented PRF, hashed on its own: bit ``x % 512`` of the keyed
    BLAKE2b digest of the 8-byte little-endian counter ``x // 512``."""
    digest = hashlib.blake2b((x // 512).to_bytes(8, "little"), key=key.key_bytes(), digest_size=64)
    bit = (digest.digest()[(x % 512) // 8] >> (x % 8)) & 1
    return -1 if bit else 1


class TestPrfKey:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrfKey(0, 0)
        with pytest.raises(ValueError):
            PrfKey(-1, 4)
        with pytest.raises(ValueError):
            PrfKey(16, 4)
        with pytest.raises(ValueError):
            PrfKey.from_signs([1, 0])
        with pytest.raises(ValueError):
            PrfKey.from_signs([])

    def test_packed_key_is_the_message_int(self):
        # A decoder's message int is the key: packing its ±1 form gives the
        # same key, whose bytes are the int's little-endian bytes.
        gen = np.random.default_rng(4)
        for d in range(1, 64):
            for m in (0, (1 << d) - 1, int(gen.integers(0, 1 << d, dtype=np.uint64))):
                key = PrfKey(m, d)
                assert PrfKey.from_signs(masks_to_signs([m], d)[0]) == key
                assert key.key_bytes() == int(m).to_bytes(-(-d // 8), "little")
                assert np.array_equal(key.bits, masks_to_signs([m], d)[0])
            with pytest.raises(ValueError):
                PrfKey(1 << d, d)

    def test_key_bytes_hand_oracle(self):
        # Bits (-1 -> 1) little-endian in the byte: 01010011b = 0x4a reversed;
        # positions 1,3,6,7 are -1 -> bits 1,3,6,7 set -> 0b11001010 = 0xca.
        assert KEY_A.key_bytes() == bytes([0b11001010])
        assert KEY_A.length == 8

    def test_key_bytes_span_bytes(self):
        # Position 8 is bit 0 of the second byte; a 9-bit key packs into 2 bytes.
        key = PrfKey.from_signs([-1, 1, 1, 1, 1, 1, 1, 1, -1])
        assert key.key_bytes() == bytes([0b00000001, 0b00000001])
        assert PrfKey.from_signs([1] * 16).key_bytes() == bytes(2)


class TestPrf:
    def test_eval_matches_truth_table_across_blocks(self):
        table = prf_truth_table(KEY_A, 1200)  # spans three 512-bit blocks
        for x in (0, 1, 511, 512, 513, 1023, 1024, 1199):
            assert spec_prf(KEY_A, x) == table[x]

    def test_deterministic(self):
        assert np.array_equal(prf_truth_table(KEY_A, 600), prf_truth_table(KEY_A, 600))

    def test_keys_give_different_functions(self):
        assert not np.array_equal(prf_truth_table(KEY_A, 512), prf_truth_table(KEY_B, 512))

    def test_roughly_balanced(self):
        table = prf_truth_table(KEY_A, 4096)
        assert abs(float(table.mean())) < 0.1

    def test_validation(self):
        with pytest.raises(ValueError):
            prf_truth_table(KEY_A, -1)
        assert prf_truth_table(KEY_A, 0).size == 0


class TestExtractorSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExtractorSpec(w=8, u=17, m_out=4)
        with pytest.raises(ValueError):
            ExtractorSpec(w=8, u=4, m_out=9)
        assert ExtractorSpec(w=8, u=4, m_out=4).seed_count() == 16


class TestExtract:
    SPEC = ExtractorSpec(w=10, u=4, m_out=5)

    def test_gf2_linear_in_source(self):
        gen = np.random.default_rng(0)
        for seed in range(4):
            for _ in range(10):
                x = gen.choice((-1, 1), size=10)
                y = gen.choice((-1, 1), size=10)
                lhs = extract(x * y, seed, self.SPEC)
                rhs = extract(x, seed, self.SPEC) * extract(y, seed, self.SPEC)
                assert np.array_equal(lhs, rhs)

    def test_toeplitz_diagonal_structure(self):
        # With unit sources e_j (single -1 at j), output bit i is t[i + j]:
        # shifting the source by one shifts the output window by one.
        for seed in (0, 7):
            outs = []
            for j in range(10):
                e = np.ones(10, dtype=np.int8)
                e[j] = -1
                outs.append(extract(e, seed, self.SPEC))
            for j in range(9):
                assert np.array_equal(outs[j + 1][:-1], outs[j][1:])

    def test_seeds_differ(self):
        x = np.array([-1] * 10)
        assert any(
            not np.array_equal(extract(x, 0, self.SPEC), extract(x, s, self.SPEC))
            for s in range(1, 16)
        )

    def test_all_plus_maps_to_all_plus(self):
        # GF(2) linearity: the zero source extracts to the zero word.
        assert np.all(extract(np.ones(10, dtype=np.int8), 3, self.SPEC) == 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            extract(np.ones(9, dtype=np.int8), 0, self.SPEC)
        with pytest.raises(ValueError):
            extract(np.ones(10, dtype=np.int8), 16, self.SPEC)
        with pytest.raises(ValueError):
            extract(np.zeros(10, dtype=np.int8), 0, self.SPEC)

    def test_m_out_zero(self):
        spec = ExtractorSpec(w=4, u=2, m_out=0)
        assert extract(np.ones(4, dtype=np.int8), 1, spec).size == 0

    def test_deterministic(self):
        x = np.array([1, -1] * 5)
        assert np.array_equal(extract(x, 5, self.SPEC), extract(x, 5, self.SPEC))


class TestBatched:
    @pytest.mark.parametrize("n_points", [0, 511, 512, 1200])
    def test_prf_truth_tables_rows_match_single_key(self, n_points):
        keys = [KEY_A, KEY_B, PrfKey.from_signs([-1] * 12), KEY_A]
        tables = prf_truth_tables(keys, n_points)
        assert tables.shape == (len(keys), n_points) and tables.dtype == np.int8
        for key, row in zip(keys, tables):
            assert np.array_equal(row, prf_truth_table(key, n_points))
            assert row.tolist() == [spec_prf(key, x) for x in range(n_points)]

    def test_prf_truth_tables_no_keys(self):
        assert prf_truth_tables([], 600).shape == (0, 600)

    def test_all_seeds_match_extract(self):
        spec = ExtractorSpec(w=10, u=4, m_out=5)
        matrices = toeplitz_matrices(spec)
        assert matrices.shape == (16, 5, 10)
        gen = np.random.default_rng(1)
        for _ in range(8):
            x = gen.choice((-1, 1), size=10)
            out = extract_all_seeds(x, matrices)
            assert out.shape == (16, 5) and out.dtype == np.int8
            for q in range(16):
                assert np.array_equal(out[q], extract(x, q, spec))

    def test_all_seeds_m_out_zero(self):
        spec = ExtractorSpec(w=4, u=2, m_out=0)
        out = extract_all_seeds(np.array([1, -1, -1, 1]), toeplitz_matrices(spec))
        assert out.shape == (4, 0) and out.dtype == np.int8

    def test_all_seeds_validation(self):
        matrices = toeplitz_matrices(ExtractorSpec(w=10, u=2, m_out=3))
        with pytest.raises(ValueError):
            extract_all_seeds(np.ones(9, dtype=np.int8), matrices)
        with pytest.raises(ValueError):
            extract_all_seeds(np.array([1.5] + [1] * 9), matrices)
