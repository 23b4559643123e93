"""Keyed PRF and Toeplitz extractor: determinism, structure, linearity.

Both are checked against oracles hashed straight from the documented spec in
the module docstring of :mod:`noisylab.cryptoprim`.
"""

import hashlib

import numpy as np
import pytest

from noisylab import cryptoprim
from noisylab.codes import mask_to_signs, masks_to_signs
from noisylab.cryptoprim import (
    ExtractorSpec,
    PrfDigestStore,
    PrfKey,
    extract,
    extract_all_seeds,
    prf_truth_table,
    toeplitz_matrices,
)

KEY_A = PrfKey.from_signs([1, -1, 1, -1, 1, 1, -1, -1])
KEY_B = PrfKey.from_signs([1, -1, 1, -1, 1, 1, -1, 1])


def spec_prf(key: PrfKey, x: int) -> int:
    """The documented PRF, hashed on its own: bit ``x % 512`` of the keyed
    BLAKE2b digest of the 8-byte little-endian counter ``x // 512``, keyed
    with the mask's ``ceil(length / 8)`` little-endian bytes."""
    key_bytes = key.mask.to_bytes(-(-key.length // 8), "little")
    digest = hashlib.blake2b((x // 512).to_bytes(8, "little"), key=key_bytes, digest_size=64)
    bit = (digest.digest()[(x % 512) // 8] >> (x % 8)) & 1
    return -1 if bit else 1


def spec_extract(x: int, seed: int, spec: ExtractorSpec) -> int:
    """The documented extractor, computed on its own: the Toeplitz diagonal
    ``t`` is the little-endian bit string of the BLAKE2b digest (person
    ``b"toeplitz"``, ``max(1, ceil((w + m_out - 1) / 8))`` bytes) of the
    seed's 4 little-endian bytes and 4 zero bytes, and output bit ``i`` is
    ``sum_j T[i, j] x_j`` over GF(2) with ``T[i, j] = t[i + j]``."""
    need = spec.w + spec.m_out - 1
    digest = hashlib.blake2b(
        seed.to_bytes(4, "little") + bytes(4), digest_size=max(1, -(-need // 8)), person=b"toeplitz"
    ).digest()
    t = [(digest[k // 8] >> (k % 8)) & 1 for k in range(need)]
    out = 0
    for i in range(spec.m_out):
        bit = 0
        for j in range(spec.w):
            bit ^= t[i + j] & (x >> j) & 1
        out |= bit << i
    return out


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

    @pytest.mark.parametrize("mask", [1.5, 2.0, np.float64(3.0), "3", None])
    def test_non_integer_mask_rejected(self, mask):
        with pytest.raises(ValueError, match="integer"):
            PrfKey(mask, 2)

    def test_numpy_integer_mask_normalised(self):
        key = PrfKey(np.uint64(3), 2)
        assert key == PrfKey(3, 2) and hash(key) == hash(PrfKey(3, 2))
        assert type(key.mask) is int
        assert np.array_equal(prf_truth_table(key, 600), prf_truth_table(PrfKey(3, 2), 600))
        with pytest.raises(ValueError):
            PrfKey(np.uint64(4), 2)

    def test_packed_key_is_the_message_int(self):
        # A decoder's message int is the key: packing its ±1 form gives the
        # same key, and unpacking the key gives that form back.
        gen = np.random.default_rng(4)
        for d in range(1, 65):
            for m in (0, (1 << d) - 1, int(gen.integers(0, 1 << d, dtype=np.uint64))):
                key = PrfKey(m, d)
                assert PrfKey.from_signs(masks_to_signs([m], d)[0]) == key
                assert np.array_equal(mask_to_signs(key.mask, key.length), masks_to_signs([m], d)[0])
            with pytest.raises(ValueError):
                PrfKey(1 << d, d)

    @staticmethod
    def hashed_key_bytes(key, monkeypatch) -> bytes:
        """The bytes the PRF keys BLAKE2b with for ``key``."""
        keyed = []
        digests = cryptoprim._prf_digests

        def recording(key_bytes, counters):
            keyed.append(key_bytes)
            return digests(key_bytes, counters)

        monkeypatch.setattr(cryptoprim, "_prf_digests", recording)
        prf_truth_table(key, 1)
        return keyed[0]

    def test_key_bytes_hand_oracle(self, monkeypatch):
        # Bits (-1 -> 1) little-endian in the byte: 01010011b = 0x4a reversed;
        # positions 1,3,6,7 are -1 -> bits 1,3,6,7 set -> 0b11001010 = 0xca.
        assert self.hashed_key_bytes(KEY_A, monkeypatch) == bytes([0b11001010])
        assert KEY_A.length == 8

    def test_key_bytes_span_bytes(self, monkeypatch):
        # Position 8 is bit 0 of the second byte; a 9-bit key packs into 2 bytes.
        key = PrfKey.from_signs([-1, 1, 1, 1, 1, 1, 1, 1, -1])
        assert self.hashed_key_bytes(key, monkeypatch) == bytes([0b00000001, 0b00000001])
        assert self.hashed_key_bytes(PrfKey.from_signs([1] * 16), monkeypatch) == bytes(2)

    def test_key_length_at_most_64(self):
        key = PrfKey(1 << 63, 64)
        assert mask_to_signs(key.mask, key.length)[63] == -1
        for build in (lambda: PrfKey(1, 65), lambda: PrfKey.from_signs([1] * 65)):
            with pytest.raises(ValueError, match=r"^key length must be in \[1, 64\], got 65$"):
                build()


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


# Specs for the oracle checks: one-bit sources, m_out = 0, m_out = w and a
# full 64-bit source word.
ORACLE_SPECS = [
    ExtractorSpec(w=1, u=0, m_out=0),
    ExtractorSpec(w=1, u=1, m_out=1),
    ExtractorSpec(w=4, u=2, m_out=0),
    ExtractorSpec(w=10, u=4, m_out=5),
    ExtractorSpec(w=24, u=8, m_out=12),
    ExtractorSpec(w=33, u=3, m_out=33),
    ExtractorSpec(w=64, u=2, m_out=64),
]


class TestExtract:
    SPEC = ExtractorSpec(w=10, u=4, m_out=5)

    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"w{s.w}-u{s.u}-m{s.m_out}")
    def test_matches_spec_oracle(self, spec):
        gen = np.random.default_rng(spec.w * 100 + spec.m_out)
        for _ in range(6):
            x = int(gen.integers(0, 1 << spec.w, dtype=np.uint64))
            seed = int(gen.integers(0, spec.seed_count()))
            assert extract(x, seed, spec) == spec_extract(x, seed, spec)
        full = (1 << spec.w) - 1
        assert extract(full, spec.seed_count() - 1, spec) == spec_extract(
            full, spec.seed_count() - 1, spec
        )

    def test_gf2_linear_in_source(self):
        # XOR of packed sources is GF(2) addition: Ext(x ^ y) = Ext(x) ^ Ext(y).
        gen = np.random.default_rng(0)
        for seed in range(4):
            for _ in range(10):
                x, y = (int(v) for v in gen.integers(0, 1 << 10, size=2))
                lhs = extract(x ^ y, seed, self.SPEC)
                assert lhs == extract(x, seed, self.SPEC) ^ extract(y, seed, self.SPEC)

    def test_toeplitz_diagonal_structure(self):
        # With unit sources e_j (bit j set), output bit i is t[i + j]:
        # shifting the source by one shifts the output window by one.
        low = (1 << (self.SPEC.m_out - 1)) - 1
        for seed in (0, 7):
            outs = [extract(1 << j, seed, self.SPEC) for j in range(10)]
            for j in range(9):
                assert outs[j + 1] & low == outs[j] >> 1

    def test_seeds_differ(self):
        x = (1 << 10) - 1
        assert any(extract(x, 0, self.SPEC) != extract(x, s, self.SPEC) for s in range(1, 16))

    def test_all_plus_maps_to_all_plus(self):
        # GF(2) linearity: the zero source (all +1) extracts to the zero key.
        assert extract(0, 3, self.SPEC) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            extract(1 << 10, 0, self.SPEC)  # an 11-bit source
        with pytest.raises(ValueError):
            extract(-1, 0, self.SPEC)
        with pytest.raises(ValueError):
            extract(0, 16, self.SPEC)
        with pytest.raises(ValueError):
            extract(1.0, 0, self.SPEC)
        with pytest.raises(ValueError):
            ExtractorSpec(w=65, u=2, m_out=3)
        # A fractional seed once raised AttributeError from int.to_bytes, and
        # True once extracted under seed 1.
        with pytest.raises(ValueError, match=r"^seed must be an integer, got 1.5$"):
            extract(1, 1.5, self.SPEC)
        with pytest.raises(ValueError, match=r"^seed must be an integer, got True$"):
            extract(1, True, self.SPEC)

    def test_m_out_zero(self):
        spec = ExtractorSpec(w=4, u=2, m_out=0)
        assert extract(0b1010, 1, spec) == 0

    def test_deterministic(self):
        x = 0b0101010101
        assert extract(x, 5, self.SPEC) == extract(x, 5, self.SPEC)


class TestPrfDigestStore:
    @pytest.mark.parametrize("n_points", [0, 511, 512, 1200])
    def test_rows_match_single_key(self, n_points):
        gen = np.random.default_rng(n_points)
        for length in (1, 8, 12, 33):
            store = PrfDigestStore(length, n_points)
            # Unordered, with repeats: each row is its own mask's table.
            masks = gen.integers(0, 1 << length, size=6, dtype=np.uint64)
            masks = np.concatenate([masks, masks[[3, 0, 3]]])
            tables = store.tables(masks)
            assert tables.shape == (len(masks), n_points) and tables.dtype == np.int8
            for m, row in zip(masks.tolist(), tables):
                key = PrfKey(m, length)
                assert np.array_equal(row, prf_truth_table(key, n_points))
            assert np.array_equal(store.tables(masks[::-1].tolist()), tables[::-1])
        key = PrfKey.from_signs([-1] * 12)
        row = PrfDigestStore(12, n_points).tables([key.mask])[0]
        assert row.tolist() == [spec_prf(key, x) for x in range(n_points)]

    @pytest.mark.parametrize("n_points", [0, 511, 512, 1200])
    def test_packed_rows_unpack_to_tables(self, n_points):
        gen = np.random.default_rng(100 + n_points)
        for length in (1, 8, 33, 64):
            store = PrfDigestStore(length, n_points)
            masks = gen.integers(0, 1 << min(length, 63), size=5, dtype=np.uint64)
            packed = store.packed(masks)
            n_blocks = -(-n_points // 512)
            assert packed.shape == (5, 64 * n_blocks) and packed.dtype == np.uint8
            bits = np.unpackbits(packed, axis=1, bitorder="little")[:, :n_points]
            tables = store.tables(masks)
            assert np.array_equal(bits == 1, tables == -1)
            for m, row in zip(masks.tolist(), tables):
                assert np.array_equal(row, prf_truth_table(PrfKey(m, length), n_points))

    def test_no_masks(self):
        assert PrfDigestStore(8, 600).tables([]).shape == (0, 600)
        assert PrfDigestStore(8, 600).packed([]).shape == (0, 128)

    def test_seen_masks_are_not_hashed_again(self, monkeypatch):
        hashed = []
        digests = cryptoprim._prf_digests

        def counting(key_bytes, counters):
            hashed.append(key_bytes)
            return digests(key_bytes, counters)

        monkeypatch.setattr(cryptoprim, "_prf_digests", counting)
        for method, other in (("tables", "packed"), ("packed", "tables")):
            store = PrfDigestStore(8, 1200)
            rows = getattr(store, method)
            hashed.clear()
            first = rows([5, 9, 5, 200])
            assert sorted(hashed) == [bytes([5]), bytes([9]), bytes([200])]
            hashed.clear()
            again = rows(np.array([200, 9, 5], dtype=np.uint64))
            assert hashed == []
            assert np.array_equal(again, first[[3, 1, 0]])
            # The other view reads the same digests.
            getattr(store, other)([9, 200])
            assert hashed == []
            rows([5, 7])
            assert hashed == [bytes([7])]

    @pytest.mark.parametrize("whole_first", [False, True], ids=["leading-first", "whole-first"])
    def test_leading_blocks_are_a_prefix(self, whole_first):
        masks = [5, 9, 5, 4000]
        store = PrfDigestStore(12, 1200)
        assert store.n_blocks == 3
        if whole_first:
            whole = store.packed(masks)
        leading = {b: store.packed(masks, b) for b in (1, 0, 2, np.int64(3))}
        if not whole_first:
            whole = store.packed(masks)
        assert np.array_equal(whole, PrfDigestStore(12, 1200).packed(masks))
        for b, rows in leading.items():
            assert rows.shape == (4, 64 * b) and rows.dtype == np.uint8
            assert np.array_equal(rows, whole[:, : 64 * b])

    def test_each_block_hashed_once(self, monkeypatch):
        handed: dict[bytes, list[bytes]] = {}
        digests = cryptoprim._prf_digests

        def counting(key_bytes, counters):
            handed.setdefault(key_bytes, []).extend(counters)
            return digests(key_bytes, counters)

        monkeypatch.setattr(cryptoprim, "_prf_digests", counting)
        store = PrfDigestStore(8, 1200)
        masks = [5, 9, 5, 200]
        store.packed(masks, 1)
        store.packed(masks)
        store.tables(masks)
        every_block = [b.to_bytes(8, "little") for b in range(store.n_blocks)]
        assert handed == {bytes([m]): every_block for m in (5, 9, 200)}

    def test_mixed_prefix_lengths_hash_each_block_once(self, monkeypatch):
        # Block 0 for some keys, every block for others (some of them already
        # holding block 0), then block 0 again, then a middle prefix: each
        # (key, block) pair is hashed once, and every call returns the bytes
        # a fresh store returns.
        handed = []
        digests = cryptoprim._prf_digests

        def counting(key_bytes, counters):
            handed.extend((key_bytes, c) for c in counters)
            return digests(key_bytes, counters)

        monkeypatch.setattr(cryptoprim, "_prf_digests", counting)
        store = PrfDigestStore(12, 2000)
        assert store.n_blocks == 4
        calls = [([5, 9, 5, 4000], 1), ([9, 77, 4000, 77], None), ([77, 5, 9, 3], 1),
                 ([3, 5, 4000, 9], 2), (np.array([5, 3, 77, 9], dtype=np.uint64), None)]
        for masks, blocks in calls:
            got = store.packed(masks, blocks)
            monkeypatch.setattr(cryptoprim, "_prf_digests", digests)
            assert np.array_equal(got, PrfDigestStore(12, 2000).packed(masks, blocks))
            monkeypatch.setattr(cryptoprim, "_prf_digests", counting)
        assert len(handed) == len(set(handed))
        counters = [b.to_bytes(8, "little") for b in range(4)]
        keys = [5, 9, 4000, 77, 3]
        assert set(handed) == {(m.to_bytes(2, "little"), c) for m in keys for c in counters}

    @pytest.mark.parametrize(
        "blocks", [-1, 4, 1.0, np.float64(2.0), "1"],
        ids=["negative", "past-the-row", "float", "np-float", "str"],
    )
    def test_bad_block_count_rejected(self, blocks):
        with pytest.raises(ValueError, match="blocks"):
            PrfDigestStore(8, 1200).packed([1], blocks)

    @pytest.mark.parametrize(
        "mask", [-1, 256, 1 << 64, 1.5, 2.0, np.float64(3.0), "3", None, True, np.False_],
        ids=["negative", "too-wide", "too-wide-64", "fraction", "float", "np-float", "str", "none",
             "bool", "np-bool"],
    )
    def test_bad_mask_rejected(self, mask):
        store = PrfDigestStore(8, 600)
        for rows in (store.packed, store.tables):
            with pytest.raises(ValueError, match="key mask"):
                rows([0, mask])

    def test_float_array_rejected(self):
        store = PrfDigestStore(8, 600)
        for rows in (store.packed, store.tables):
            with pytest.raises(ValueError, match="integer"):
                rows(np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "masks",
        [np.array([-1, 3]), np.array([3, 256], dtype=np.uint16), np.array([[1, 2]]),
         np.array([True, False])],
        ids=["negative", "too-wide", "two-dimensional", "bool"],
    )
    def test_bad_int_array_rejected(self, masks):
        store = PrfDigestStore(8, 600)
        for rows in (store.packed, store.tables):
            with pytest.raises(ValueError, match="key mask"):
                rows(masks)

    def test_wide_keys_checked_one_by_one(self):
        # numpy reads a list holding 2^63 as float64: a list of Python ints
        # is checked as ints. Keys are at most 64 bits, as words are.
        store = PrfDigestStore(64, 600)
        rows = store.tables([1 << 63, 0])
        assert np.array_equal(rows[0], prf_truth_table(PrfKey(1 << 63, 64), 600))
        with pytest.raises(ValueError, match=r"^key length must be in \[1, 64\], got 70$"):
            PrfDigestStore(70, 600)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrfDigestStore(0, 600)
        with pytest.raises(ValueError):
            PrfDigestStore(8, -1)


class TestBatched:
    @pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"w{s.w}-u{s.u}-m{s.m_out}")
    def test_all_seeds_match_spec_oracle(self, spec):
        matrices = toeplitz_matrices(spec)
        assert matrices.shape == (spec.seed_count(), spec.m_out) and matrices.dtype == np.uint64
        gen = np.random.default_rng(spec.w)
        for _ in range(3):
            x = int(gen.integers(0, 1 << spec.w, dtype=np.uint64))
            out = extract_all_seeds(x, spec, matrices)
            assert out.tolist() == [spec_extract(x, q, spec) for q in range(spec.seed_count())]

    def test_all_seeds_match_extract(self):
        spec = ExtractorSpec(w=10, u=4, m_out=5)
        matrices = toeplitz_matrices(spec)
        assert matrices.shape == (16, 5)
        gen = np.random.default_rng(1)
        for _ in range(8):
            x = int(gen.integers(0, 1 << 10))
            out = extract_all_seeds(x, spec, matrices)
            assert out.shape == (16,) and out.dtype == np.uint64
            for q in range(16):
                assert int(out[q]) == extract(x, q, spec)

    def test_all_seeds_gf2_linear_in_source(self):
        spec = ExtractorSpec(w=24, u=3, m_out=12)
        matrices = toeplitz_matrices(spec)
        gen = np.random.default_rng(2)
        for _ in range(10):
            x, y = (int(v) for v in gen.integers(0, 1 << 24, size=2))
            lhs = extract_all_seeds(x ^ y, spec, matrices)
            rhs = extract_all_seeds(x, spec, matrices) ^ extract_all_seeds(y, spec, matrices)
            assert np.array_equal(lhs, rhs)

    def test_all_seeds_m_out_zero(self):
        spec = ExtractorSpec(w=4, u=2, m_out=0)
        out = extract_all_seeds(0b0110, spec, toeplitz_matrices(spec))
        assert out.shape == (4,) and out.dtype == np.uint64 and not out.any()

    def test_all_seeds_validation(self):
        spec = ExtractorSpec(w=10, u=2, m_out=3)
        matrices = toeplitz_matrices(spec)
        with pytest.raises(ValueError):
            extract_all_seeds(1 << 10, spec, matrices)  # an 11-bit source
        with pytest.raises(ValueError):
            extract_all_seeds(1.5, spec, matrices)
