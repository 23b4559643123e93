"""Linear codes: packing, encoding, list decoding, low-weight enumeration.

Decoders are checked against brute-force enumeration oracles over all 2^k
messages; entropy against scipy's entropy as an independent path.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from noisylab.codes import (
    CodeParams,
    DecodeFailure,
    GeneratorMatrix,
    ReceivedWord,
    binary_entropy,
    bitflip_list_decode,
    encode,
    erasure_list_decode,
    erasure_list_decode_many,
    gen_random_linear_code,
    low_weight_codewords,
    mask_to_signs,
    masks_to_signs,
    signs_to_mask,
)
from noisylab.core import RngHandle


def test_binary_entropy_against_scipy():
    for p in (0.1, 0.25, 0.5, 0.9):
        assert binary_entropy(p) == pytest.approx(
            stats.entropy([p, 1 - p], base=2)
        )
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    with pytest.raises(ValueError):
        binary_entropy(1.5)


@given(st.integers(1, 20), st.data())
def test_mask_round_trip(w, data):
    mask = data.draw(st.integers(0, (1 << w) - 1))
    assert signs_to_mask(mask_to_signs(mask, w)) == mask


@given(st.integers(1, 64), st.data())
def test_masks_to_signs_rows_match_mask_to_signs(w, data):
    masks = data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=6))
    rows = masks_to_signs(masks, w)
    assert rows.shape == (len(masks), w) and rows.dtype == np.int8
    for m, row in zip(masks, rows):
        assert np.array_equal(row, mask_to_signs(m, w))


def test_signs_to_mask_validation():
    with pytest.raises(ValueError):
        signs_to_mask([1, 0, -1])


def test_low_weight_order_is_lexicographic():
    # Oracle: sort codewords by the tuple of GF(2) bits read left to right.
    G = gen_random_linear_code(0.5, 10, RngHandle(3))
    got = low_weight_codewords(G, 10)  # all codewords
    keys = [tuple(1 if b == -1 else 0 for b in cw.bits) for cw in got]
    assert keys == sorted(keys)
    assert len(got) == 2 ** G.rows


class TestGeneratorMatrix:
    def test_rank_enforced(self):
        with pytest.raises(ValueError, match="rank"):
            GeneratorMatrix([0b011, 0b101, 0b110], 3)  # row3 = row1 xor row2
        GeneratorMatrix([0b011, 0b101], 3)

    def test_text_round_trip(self):
        G = gen_random_linear_code(0.5, 12, RngHandle(1))
        G2 = GeneratorMatrix.from_text(G.to_text())
        assert G2.w == G.w and G2.row_masks == G.row_masks

    def test_codeword_masks_match_encode(self):
        G = gen_random_linear_code(0.5, 8, RngHandle(2))
        for m in range(2 ** G.rows):
            cw = encode(G, mask_to_signs(m, G.rows))
            assert int(G.codeword_masks[m]) == signs_to_mask(cw.bits)

    def test_column_masks_transpose(self):
        G = gen_random_linear_code(0.5, 8, RngHandle(2))
        for j in range(G.w):
            for i in range(G.rows):
                assert ((G.column_masks[j] >> i) & 1) == ((G.row_masks[i] >> j) & 1)

    def test_rate(self):
        G = gen_random_linear_code(0.25, 8, RngHandle(0))
        assert G.rows == 2 and G.rate == 0.25


def test_gen_random_code_validation():
    with pytest.raises(ValueError, match="integer"):
        gen_random_linear_code(0.3, 8, RngHandle(0))  # 2.4 rows
    with pytest.raises(ValueError):
        gen_random_linear_code(0.0, 8, RngHandle(0))


def test_encode_is_gf2_linear():
    # Sign products realize GF(2) addition: Enc(m1 (*) m2) = Enc(m1)(*)Enc(m2).
    G = gen_random_linear_code(0.5, 10, RngHandle(4))
    gen = np.random.default_rng(0)
    for _ in range(20):
        m1 = gen.choice((-1, 1), size=G.rows)
        m2 = gen.choice((-1, 1), size=G.rows)
        lhs = encode(G, m1 * m2).bits
        rhs = encode(G, m1).bits * encode(G, m2).bits
        assert np.array_equal(lhs, rhs)


def test_codeword_weight():
    cw = encode(GeneratorMatrix([0b1011], 4), [-1])
    assert cw.weight == 3


class TestReceivedWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReceivedWord([2, 1])
        r = ReceivedWord.erase([1, -1, 1], [0, 2])
        assert r.erasures.tolist() == [0, 2]
        assert len(r) == 3


def _all_messages(k):
    return [mask_to_signs(m, k) for m in range(1 << k)]


class TestErasureDecode:
    def test_exhaustive_against_brute_force(self):
        G = gen_random_linear_code(0.5, 6, RngHandle(5))
        for pattern in itertools.chain.from_iterable(
            itertools.combinations(range(6), s) for s in range(3)
        ):
            for m in range(1 << G.rows):
                msg = mask_to_signs(m, G.rows)
                word = ReceivedWord.erase(encode(G, msg).bits, pattern)
                got = erasure_list_decode(G, word, cap=8)
                # Brute force: all messages whose codeword matches off-pattern.
                oracle = []
                vis = np.setdiff1d(np.arange(6), np.array(pattern, dtype=np.int64))
                target = encode(G, msg).bits[vis]
                for m2 in range(1 << G.rows):
                    if np.array_equal(encode(G, mask_to_signs(m2, G.rows)).bits[vis], target):
                        oracle.append(m2)
                assert got == oracle and m in got

    def test_inconsistent_word_empty(self):
        # Repetition code {+++, ---}: the word (+,+,-) matches no codeword.
        G = GeneratorMatrix([0b111], 3)
        assert erasure_list_decode(G, ReceivedWord([1, 1, -1])) == []

    def test_cap_exceeded_raises(self):
        G = gen_random_linear_code(0.5, 8, RngHandle(6))
        all_erased = ReceivedWord(np.zeros(8, dtype=np.int8))
        with pytest.raises(DecodeFailure):
            erasure_list_decode(G, all_erased, cap=8)  # 2^4 solutions

    def test_result_sorted_by_message_int(self):
        G = gen_random_linear_code(0.5, 8, RngHandle(6))
        sols = erasure_list_decode(G, ReceivedWord(np.zeros(8, dtype=np.int8)), cap=16)
        assert sols == sorted(sols)

    def test_length_mismatch(self):
        G = GeneratorMatrix([0b111], 3)
        with pytest.raises(ValueError):
            erasure_list_decode(G, ReceivedWord([1, 1]))

    def test_inconsistency_beats_cap(self):
        # Message bit 0 is read twice (positions 0, 1); bit 1 only at the
        # erased positions 2, 3, so a consistent word has 2 solutions.
        G = GeneratorMatrix([0b0011, 0b1100], 4)
        assert erasure_list_decode(G, ReceivedWord([1, -1, 0, 0]), cap=1) == []
        with pytest.raises(DecodeFailure):
            erasure_list_decode(G, ReceivedWord([1, 1, 0, 0]), cap=1)


@st.composite
def _erasure_batches(draw):
    """A full-rank code, an erasure mask, a cap and a batch of packed words:
    codewords with random bits flipped, consistent when the flips miss the
    visible positions or form a punctured codeword."""
    w = draw(st.integers(1, 10))
    k = draw(st.integers(1, w))
    rows = draw(st.lists(st.integers(1, (1 << w) - 1), min_size=k, max_size=k))
    try:
        G = GeneratorMatrix(rows, w)
    except ValueError:
        assume(False)
    full = (1 << w) - 1
    erased = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    cw = G.codeword_masks
    words = [
        int(cw[m]) ^ flips
        for m, flips in draw(
            st.lists(
                st.tuples(st.integers(0, (1 << k) - 1), st.integers(0, full)),
                min_size=1,
                max_size=draw(st.sampled_from([1, 8])),
            )
        )
    ]
    cap = draw(st.one_of(st.just(1), st.integers(1, 1 << k)))
    return G, erased, words, cap


@settings(max_examples=300, deadline=None)
@given(_erasure_batches())
def test_erasure_list_decode_many_against_brute_force(batch):
    G, erased, words, cap = batch
    visible = np.uint64(((1 << G.w) - 1) ^ erased)
    cw = G.codeword_masks
    # Brute force: the messages whose codeword agrees with the word on every
    # visible position. Every consistent word has 2^f of them.
    oracle = [np.flatnonzero(((cw ^ np.uint64(word)) & visible) == 0) for word in words]
    n_solutions = int(((cw & visible) == 0).sum())
    expect_consistent = [o.size > 0 for o in oracle]
    if n_solutions > cap and any(expect_consistent):
        with pytest.raises(DecodeFailure):
            erasure_list_decode_many(G, erased, words, cap)
        return
    consistent, solutions = erasure_list_decode_many(G, erased, words, cap)
    assert consistent.tolist() == expect_consistent
    assert solutions.dtype == np.uint64
    assert solutions.shape == (len(words), n_solutions if n_solutions <= cap else 0)
    for ok, row, o in zip(consistent, solutions, oracle):
        if ok:
            assert row.tolist() == o.tolist()


class TestErasureDecodeMany:
    G = GeneratorMatrix([0b0011, 0b1100], 4)

    def test_all_inconsistent_over_cap_does_not_raise(self):
        consistent, solutions = erasure_list_decode_many(self.G, 0b1100, [0b01, 0b10], cap=1)
        assert consistent.tolist() == [False, False] and solutions.shape == (2, 0)
        with pytest.raises(DecodeFailure):
            erasure_list_decode_many(self.G, 0b1100, [0b01, 0b00], cap=1)

    @pytest.mark.parametrize("erased", [-1, 1 << 4])
    def test_erasure_mask_out_of_range(self, erased):
        with pytest.raises(ValueError, match="erasure mask"):
            erasure_list_decode_many(self.G, erased, [0])

    @pytest.mark.parametrize("word", [1 << 4, -1])
    def test_word_out_of_range(self, word):
        with pytest.raises(ValueError, match="word mask"):
            erasure_list_decode_many(self.G, 0, [0, word])

    def test_non_integer_words_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            erasure_list_decode_many(self.G, 0, np.array([1.0]))
        with pytest.raises(TypeError):
            erasure_list_decode_many(self.G, 0, [1.0])

    def test_word_masks_across_bit_63(self):
        # Python ints below and above 2^63 in one list; w = 64, one row.
        G = GeneratorMatrix([1 | 1 << 63], 64)
        words = [0, 1 | 1 << 63, 1 << 63]
        for batch in (words, np.array(words, dtype=np.uint64)):
            consistent, solutions = erasure_list_decode_many(G, 0, batch)
            assert consistent.tolist() == [True, True, False]
            assert solutions[:2].tolist() == [[0], [1]]

    def test_bits_on_erased_positions_ignored(self):
        plain = erasure_list_decode_many(self.G, 0b1100, [0b00, 0b11], cap=4)
        noisy = erasure_list_decode_many(self.G, 0b1100, [0b0100, 0b1111], cap=4)
        for a, b in zip(plain, noisy):
            assert np.array_equal(a, b)
        assert plain[1].tolist() == [[0, 2], [1, 3]]

    def test_empty_batch(self):
        consistent, solutions = erasure_list_decode_many(self.G, 0b1100, [], cap=4)
        assert consistent.shape == (0,) and solutions.shape == (0, 2)
        assert solutions.dtype == np.uint64


class TestBitflipDecode:
    def test_against_brute_force(self):
        gen = np.random.default_rng(1)
        for trial in range(10):
            w = int(gen.integers(5, 11))
            k = max(1, w // 2)
            G = gen_random_linear_code(k / w, w, RngHandle(100 + trial))
            target = gen.choice((-1, 1), size=w).astype(np.int8)
            radius = int(gen.integers(0, w + 1))
            got = bitflip_list_decode(G, ReceivedWord(target), radius, cap=1 << k)
            oracle = [
                m
                for m in range(1 << k)
                if int((encode(G, mask_to_signs(m, k)).bits != target).sum()) <= radius
            ]
            assert got == oracle

    def test_erasures_rejected(self):
        G = GeneratorMatrix([0b111], 3)
        with pytest.raises(ValueError, match="fully-determined"):
            bitflip_list_decode(G, ReceivedWord([1, 0, 1]), 1)

    def test_cap_exceeded(self):
        G = gen_random_linear_code(0.5, 8, RngHandle(7))
        with pytest.raises(DecodeFailure):
            bitflip_list_decode(G, ReceivedWord(np.ones(8, dtype=np.int8)), 8, cap=2)


class TestLowWeight:
    def test_against_brute_force(self):
        G = gen_random_linear_code(0.5, 12, RngHandle(8))
        bound = 4
        got = low_weight_codewords(G, bound)
        oracle = [
            encode(G, m) for m in _all_messages(G.rows) if encode(G, m).weight <= bound
        ]
        oracle.sort(key=lambda cw: tuple(1 if b == -1 else 0 for b in cw.bits))
        assert len(got) == len(oracle)
        for a, b in zip(got, oracle):
            assert np.array_equal(a.bits, b.bits) and np.array_equal(a.message, b.message)

    def test_zero_codeword_always_first(self):
        G = gen_random_linear_code(0.5, 12, RngHandle(9))
        got = low_weight_codewords(G, 3)
        assert got[0].weight == 0


class TestCodeParams:
    def test_derive_identities(self):
        cp = CodeParams.derive(eta_N=0.01, eta_M=0.05)
        H = binary_entropy(0.01)
        ratio = 0.05 / 0.95
        assert cp.rho == pytest.approx(1 - 0.999 * H - 0.001 * ratio)
        assert cp.tau == pytest.approx(0.998 * H + 0.002 * ratio)
        assert cp.lam == pytest.approx(0.5 * (cp.rho + H - 1))

    def test_derive_bounds(self):
        with pytest.raises(ValueError):
            CodeParams.derive(eta_N=0.25, eta_M=0.2)  # eta_M < eta_N
        with pytest.raises(ValueError):
            CodeParams.derive(eta_N=0.25, eta_M=0.6)
