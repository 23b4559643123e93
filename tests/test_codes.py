"""Linear codes: packing, encoding, list decoding, low-weight enumeration.

Decoders are checked against brute-force enumeration oracles over all 2^k
messages; entropy against scipy's entropy as an independent path.
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from noisylab.codes import (
    MAX_WORD_BITS,
    Codeword,
    DecodeFailure,
    GeneratorMatrix,
    ReceivedWord,
    bitflip_list_decode,
    encode,
    erasure_list_decode,
    erasure_list_decode_many,
    gen_random_linear_code,
    low_weight_codewords,
    mask_to_signs,
    masks_to_signs,
    signs_to_mask,
    _as_mask,
    _mask_array,
)
from noisylab.core import RngHandle

from helpers import bad_mask_cases, erase, masks_to_signs_reference


@given(st.integers(1, 20), st.data())
def test_mask_round_trip(w, data):
    mask = data.draw(st.integers(0, (1 << w) - 1))
    assert signs_to_mask(mask_to_signs(mask, w)) == mask


@pytest.mark.parametrize("w", [1, 8, 20, 63, 64])
def test_masks_to_signs_matches_a_bit_loop(w):
    gen = np.random.default_rng(w)
    top = (1 << w) - 1
    drawn = gen.integers(0, top, size=20, endpoint=True, dtype=np.uint64).tolist()
    masks = [0, top, 1 << (w - 1), *drawn]
    if w == 64:
        masks += [1 << 63, (1 << 63) + 5]
    want = masks_to_signs_reference(masks, w)
    for form in (masks, np.array(masks, dtype=np.uint64)):
        rows = masks_to_signs(form, w)
        assert rows.dtype == np.int8 and np.array_equal(rows, want)
    assert np.array_equal(masks_to_signs(masks[-1], w), want[-1])
    assert np.array_equal(Codeword(masks[-1], 0, w).bits, want[-1])


@given(st.integers(1, 64), st.data())
def test_masks_to_signs_rows_match_mask_to_signs(w, data):
    masks = data.draw(st.lists(st.integers(0, (1 << w) - 1), max_size=6))
    rows = masks_to_signs(masks, w)
    assert rows.shape == (len(masks), w) and rows.dtype == np.int8
    for m, row in zip(masks, rows):
        assert np.array_equal(row, mask_to_signs(m, w))


BAD_MASK_CASES = bad_mask_cases()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: mask_to_signs(20, 4), r"mask must be in \[0, 2\^4\)"),  # bit 4 once dropped
        (lambda: mask_to_signs(1.5, 4), "mask must be an integer, got 1.5"),  # once read as 1
        (lambda: masks_to_signs([-1], 4), r"mask must be in \[0, 2\^4\)"),  # once OverflowError
        (lambda: masks_to_signs(np.array([16], dtype=np.uint64), 4),
         r"mask must be in \[0, 2\^4\), got 16"),
        (lambda: masks_to_signs(np.array([1.0]), 4), "mask must be an integer, got np.float64"),
        (lambda: masks_to_signs([1], 70), r"word length must be in \[1, 64\], got 70"),  # padded
        (lambda: masks_to_signs([1], 0), r"word length must be in \[1, 64\], got 0"),  # empty rows
        (lambda: mask_to_signs(0, 0), r"word length must be in \[1, 64\], got 0"),
        # Each once built a code: int() truncated the fractions and parsed the string.
        (lambda: GeneratorMatrix([1.5, 2.7], 4), "^row mask must be an integer, got 1.5$"),
        (lambda: GeneratorMatrix(["3"], 4), "^row mask must be an integer, got '3'$"),
        *((call, message) for _, call, message in BAD_MASK_CASES),
    ],
    ids=["bit-past-w", "float", "negative", "array-past-w", "float-array", "w-70", "w-0",
         "one-mask-w-0", "GeneratorMatrix-fractions", "GeneratorMatrix-str",
         *(case_id for case_id, _, _ in BAD_MASK_CASES)],
)
def test_masks_to_signs_rejects_a_bad_mask_or_length(call, message):
    # Past its own rows, the one table of bad masks (tests/helpers.py): every
    # bad form at every entry point that takes a packed mask, each with
    # exactly one message.
    with pytest.raises(ValueError, match=message):
        call()


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, MAX_WORD_BITS), st.data())
def test_one_mask_and_a_mask_array_follow_one_rule(bits, data):
    # Guard: _as_mask (one mask) and _mask_array (many) are the only mask
    # checks. Every value is accepted by both, as the same int, or rejected by
    # both with the same message: alone, in a list or a tuple, and (a numpy
    # scalar) in an array of its own dtype. Any other iterable holding it is
    # not a list of masks and is rejected by its type.
    numpy_ints = st.sampled_from(INT_DTYPES).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)
    )
    value = data.draw(
        st.integers(-3, 3)
        | st.integers((1 << bits) - 3, (1 << bits) + 3)
        | st.integers(-(1 << 70), 1 << 70)
        | numpy_ints
        | st.booleans()
        | st.booleans().map(np.bool_)
        | st.floats()
        | st.floats(width=32).map(np.float32)
        | st.text(max_size=3)
        | st.none()
    )

    def outcome(check):
        try:
            return check()
        except ValueError as exc:
            return str(exc)

    one = outcome(lambda: [_as_mask(value, bits, "mask")])
    forms = [[value], (value,)] + ([np.array([value])] if isinstance(value, np.generic) else [])
    for form in forms:
        assert outcome(lambda: _mask_array(form, bits, "mask").tolist()) == one
    for form in ({value}, (v for v in [value]), str(value), repr(value).encode()):
        message = f"masks must be an array or a sequence, got {type(form).__name__}"
        assert outcome(lambda: _mask_array(form, bits, "mask")) == message


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
        # Hex digits of either case, header keys in either order.
        G3 = GeneratorMatrix.from_text("rows=2 w=8\n0F\na5\n")
        assert G3.w == 8 and G3.row_masks == (0x0F, 0xA5)

    def test_codeword_masks_match_encode(self):
        G = gen_random_linear_code(0.5, 8, RngHandle(2))
        for m in range(2 ** G.rows):
            cw = encode(G, m)
            assert int(G.codeword_masks[m]) == cw.mask == signs_to_mask(cw.bits)
            assert cw.message == m and cw.w == G.w

    def test_column_masks_transpose(self):
        G = gen_random_linear_code(0.5, 8, RngHandle(2))
        for j in range(G.w):
            for i in range(G.rows):
                assert ((G.column_masks[j] >> i) & 1) == ((G.row_masks[i] >> j) & 1)

    def test_rate(self):
        G = gen_random_linear_code(0.25, 8, RngHandle(0))
        assert G.rows == 2


def test_gen_random_code_validation():
    with pytest.raises(ValueError, match="integer"):
        gen_random_linear_code(0.3, 8, RngHandle(0))  # 2.4 rows
    with pytest.raises(ValueError):
        gen_random_linear_code(0.0, 8, RngHandle(0))


def test_encode_is_gf2_linear():
    # XOR of packed messages is GF(2) addition: Enc(m1 ^ m2) = Enc(m1) ^ Enc(m2),
    # which on the ±1 words is the sign product.
    G = gen_random_linear_code(0.5, 10, RngHandle(4))
    gen = np.random.default_rng(0)
    for _ in range(20):
        m1, m2 = (int(m) for m in gen.integers(0, 1 << G.rows, size=2))
        assert encode(G, m1 ^ m2).mask == encode(G, m1).mask ^ encode(G, m2).mask
        lhs = encode(G, m1 ^ m2).bits
        assert np.array_equal(lhs, encode(G, m1).bits * encode(G, m2).bits)


def test_codeword_weight():
    cw = encode(GeneratorMatrix([0b1011], 4), 1)
    assert cw.weight == 3
    assert cw == Codeword(0b1011, 1, 4)
    assert cw.bits.tolist() == [-1, -1, 1, -1]


class TestCodewordValidation:
    def test_mask_and_message_normalised_to_int(self):
        cw = Codeword(np.uint64(3), np.int64(1), 4)
        assert cw == Codeword(3, 1, 4) and hash(cw) == hash(Codeword(3, 1, 4))
        assert type(cw.mask) is int and type(cw.message) is int
        assert cw.weight == 2

    @pytest.mark.parametrize(
        "args",
        [(1.5, 0, 4), (2.0, 0, 4), (3, 1.0, 4), (-1, 0, 4), (16, 0, 4), (3, 16, 4), (0, 0, 0), (0, 0, 65)],
    )
    def test_bad_values_rejected(self, args):
        with pytest.raises(ValueError):
            Codeword(*args)

    def test_encode_message_checked(self):
        G = GeneratorMatrix([0b01, 0b10], 2)
        assert encode(G, np.uint8(3)) == encode(G, 3)
        for bad in (-1, 4, 1.0, "1"):
            with pytest.raises(ValueError):
                encode(G, bad)


class TestReceivedWord:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReceivedWord([2, 1])
        r = erase([1, -1, 1], [0, 2])
        assert r.symbols.tolist() == [0, -1, 0]
        assert len(r) == 3


class TestErasureDecode:
    def test_exhaustive_against_brute_force(self):
        G = gen_random_linear_code(0.5, 6, RngHandle(5))
        for pattern in itertools.chain.from_iterable(
            itertools.combinations(range(6), s) for s in range(3)
        ):
            for m in range(1 << G.rows):
                word = erase(encode(G, m).bits, pattern)
                got = erasure_list_decode(G, word, cap=8)
                # Brute force: all messages whose codeword matches off-pattern.
                oracle = []
                vis = np.setdiff1d(np.arange(6), np.array(pattern, dtype=np.int64))
                target = encode(G, m).bits[vis]
                for m2 in range(1 << G.rows):
                    if np.array_equal(encode(G, m2).bits[vis], target):
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


def _solution_count(G, erased):
    """2^f by brute force: the messages whose codeword is 0 on every visible
    position."""
    visible = np.uint64(((1 << G.w) - 1) ^ erased)
    return int(((G.codeword_masks & visible) == 0).sum())


@st.composite
def _erasure_batches(draw):
    """A full-rank code, erasure masks, a cap and a batch of packed words:
    codewords with random bits flipped, consistent when the flips miss the
    visible positions or form a punctured codeword. The masks are one int
    shared by every word, or one mask per word (a list or a uint64 array),
    drawn in any order and with repeats from a pool of patterns that all
    leave the same number of free message positions."""
    w = draw(st.integers(1, 10))
    k = draw(st.integers(1, w))
    rows = draw(st.lists(st.integers(1, (1 << w) - 1), min_size=k, max_size=k))
    try:
        G = GeneratorMatrix(rows, w)
    except ValueError:
        assume(False)
    full = (1 << w) - 1
    some_mask = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    per_word = draw(st.booleans())
    cw = G.codeword_masks
    words = [
        int(cw[m]) ^ flips
        for m, flips in draw(
            st.lists(
                st.tuples(st.integers(0, (1 << k) - 1), st.integers(0, full)),
                min_size=1,
                max_size=16 if per_word else draw(st.sampled_from([1, 8])),
            )
        )
    ]
    if not per_word:
        return G, draw(some_mask), words, draw(st.one_of(st.just(1), st.integers(1, 1 << k)))
    # The pool: the drawn patterns that leave the most common solution count,
    # each given to at least one word when there are enough words.
    by_count: dict[int, list[int]] = {}
    for m in draw(st.lists(some_mask, min_size=1, max_size=8, unique=True)):
        by_count.setdefault(_solution_count(G, m), []).append(m)
    pool = max(by_count.values(), key=len)
    masks = draw(st.permutations([pool[i % len(pool)] for i in range(len(words))]))
    erased = masks if draw(st.booleans()) else np.array(masks, dtype=np.uint64)
    cap = draw(st.one_of(st.just(1), st.integers(1, 1 << k)))
    return G, erased, words, cap


@settings(max_examples=300, deadline=None)
@given(_erasure_batches())
def test_erasure_list_decode_many_against_brute_force(batch):
    G, erased, words, cap = batch
    masks = [erased] * len(words) if isinstance(erased, int) else [int(m) for m in erased]
    cw = G.codeword_masks
    # Brute force: the messages whose codeword agrees with the word on every
    # visible position of its pattern. Every consistent word has 2^f of them.
    oracle = [
        np.flatnonzero(((cw ^ np.uint64(word)) & np.uint64(((1 << G.w) - 1) ^ mask)) == 0)
        for word, mask in zip(words, masks)
    ]
    n_solutions = _solution_count(G, masks[0])
    assert {_solution_count(G, mask) for mask in masks} == {n_solutions}
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
        with pytest.raises(ValueError, match="word mask must be an integer"):
            erasure_list_decode_many(self.G, 0, np.array([1.0]))
        with pytest.raises(ValueError, match="word mask must be an integer"):
            erasure_list_decode_many(self.G, 0, [1.0])
        with pytest.raises(ValueError, match="erasure mask must be an integer"):
            erasure_list_decode_many(self.G, 1.0, [0])

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
        consistent, solutions = erasure_list_decode_many(self.G, [], [], cap=4)
        assert consistent.shape == (0,) and solutions.shape[0] == 0

    def test_per_word_masks_match_one_call_per_mask(self):
        # Patterns 0b0001 and 0b0100 each leave f = 0 here, in either order.
        masks = [0b0100, 0b0001, 0b0100, 0b0000]
        words = [0b0011, 0b1110, 0b0001, 0b1111]
        consistent, solutions = erasure_list_decode_many(self.G, masks, words, cap=1)
        for mask, word, ok, row in zip(masks, words, consistent, solutions):
            one_ok, one_row = erasure_list_decode_many(self.G, mask, [word], cap=1)
            assert ok == one_ok[0] and row.tolist() == one_row[0].tolist()
        assert consistent.tolist() == [True, True, False, True]

    def test_mixed_free_counts_rejected(self):
        # Erasing positions 2 and 3 frees message bit 1; erasing nothing frees none.
        with pytest.raises(ValueError, match=r"one number of free message positions, got \[0, 1\]"):
            erasure_list_decode_many(self.G, [0, 0b1100], [0, 0], cap=4)

    @pytest.mark.parametrize("masks", [[0, 0], np.zeros(3, dtype=np.uint64), []])
    def test_mask_count_must_match_words(self, masks):
        with pytest.raises(ValueError, match="erasure masks for 1 word masks"):
            erasure_list_decode_many(self.G, masks, [0])

    @pytest.mark.parametrize(
        "masks,message",
        [
            ([0, 1 << 4], "erasure mask must be in"),
            ([-1, 0], "erasure mask must be in"),
            (np.array([0, 1 << 4]), r"erasure mask must be in \[0, 2\^4\), got 16"),
            (np.array([-1, 0]), r"erasure mask must be in \[0, 2\^4\), got -1"),
            ([0, 1.0], "erasure mask must be an integer"),
            (np.array([0.0, 1.0]), r"erasure mask must be an integer, got np.float64\(0.0\)"),
            (np.zeros((2, 1), dtype=np.uint64), "erasure masks must be one-dimensional"),
        ],
        ids=["list-high", "list-negative", "array-high", "array-negative", "list-float",
             "array-float", "array-2d"],
    )
    def test_mask_array_entries_checked(self, masks, message):
        with pytest.raises(ValueError, match=message):
            erasure_list_decode_many(self.G, masks, [0, 0])


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
                if int((encode(G, m).bits != target).sum()) <= radius
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

    def test_negative_radius_and_small_cap_rejected(self):
        # Before these checks, radius -1 listed nothing and cap 0 raised
        # DecodeFailure; an inconsistent erasure word hid cap 0 entirely.
        G = GeneratorMatrix([0b0011, 0b1100], 4)
        word = ReceivedWord([1, 1, 1, 1])
        with pytest.raises(ValueError, match=r"^decoding radius must be in \[0, inf\), got -1$"):
            bitflip_list_decode(G, word, -1)
        with pytest.raises(ValueError, match=r"^decoding radius must be an integer, got 1.5$"):
            bitflip_list_decode(G, word, 1.5)
        for cap in (0, -5):
            message = rf"^list cap must be in \[1, inf\), got {cap}$"
            with pytest.raises(ValueError, match=message):
                bitflip_list_decode(G, word, 1, cap=cap)
            with pytest.raises(ValueError, match=message):
                erasure_list_decode(G, ReceivedWord([1, -1, 0, 0]), cap=cap)
        for cap in (2.5, True):
            with pytest.raises(ValueError, match=rf"^list cap must be an integer, got {cap!r}$"):
                erasure_list_decode(G, ReceivedWord([1, -1, 0, 0]), cap=cap)


class TestLowWeight:
    def test_against_brute_force(self):
        G = gen_random_linear_code(0.5, 12, RngHandle(8))
        bound = 4
        got = low_weight_codewords(G, bound)
        oracle = [
            encode(G, m) for m in range(1 << G.rows) if (encode(G, m).bits == -1).sum() <= bound
        ]
        oracle.sort(key=lambda cw: tuple(1 if b == -1 else 0 for b in cw.bits))
        assert len(got) == len(oracle)
        for a, b in zip(got, oracle):
            assert np.array_equal(a.bits, b.bits) and a.message == b.message

    def test_zero_codeword_always_first(self):
        G = gen_random_linear_code(0.5, 12, RngHandle(9))
        got = low_weight_codewords(G, 3)
        assert got[0].weight == 0

