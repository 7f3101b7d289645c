import struct
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genspace import (
    DecodeError,
    ExactDistribution,
    GenericSpace,
    PrefixCode,
    average_length,
    build_generic_code,
    collapse,
    decode,
    encode,
    frame_bits,
    generic_space,
    huffman_oracle,
    shannon_entropy,
    unframe_bits,
)
from genspace.coding import (
    _canonical_codewords,
    _ceil_log2_ratios,
    _kraft_sum,
    _unframe,
    format_code_table,
    parse_code_table,
)
from genspace._decoder import decode_hex
from genspace.distribution import parse_distribution
from helpers import (
    distribution_texts,
    fraction_huffman,
    fraction_parse,
    heap_huffman,
    random_distribution,
    random_dyadic_space,
    reference_decode,
    reference_generic_code,
    reference_prefix_code_error,
    window_decode,
)

F = Fraction

DYADIC = ExactDistribution([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
DYADIC_CODE = build_generic_code(GenericSpace(8, (4, 2, 1, 1)))


class TestBuildGenericCode:
    def test_dyadic_example(self):
        assert DYADIC_CODE.codewords == ("0", "10", "110", "111")
        assert DYADIC_CODE.mode == "exact"

    def test_uniform_fixed_length(self):
        code = build_generic_code(GenericSpace(4, (1, 1, 1, 1)))
        assert code.codewords == ("00", "01", "10", "11")
        assert code.mode == "exact"

    def test_non_dyadic_fallback(self):
        # ceil(log2(3/2)) = 1, ceil(log2(3)) = 2
        code = build_generic_code(GenericSpace(3, (2, 1)))
        assert code.mode == "fallback"
        assert code.codewords == ("0", "10")
        assert code.kraft_sum() == F(3, 4)

    def test_unsorted_counts_still_block_aligned(self):
        # Sorting by descending count must happen before block assignment.
        code = build_generic_code(GenericSpace(8, (1, 4, 1, 2)))
        assert code.mode == "exact"
        assert code.lengths() == (3, 1, 3, 2)
        assert code.kraft_sum() == 1

    def test_single_symbol(self):
        code = build_generic_code(GenericSpace(1, (1,)))
        assert code.codewords == ("",)
        assert code.kraft_sum() == 1


class TestEncodeDecode:
    def test_encode_example(self):
        assert encode(DYADIC_CODE, [0, 1, 0, 3]) == "0100111"

    def test_encode_empty(self):
        assert encode(DYADIC_CODE, []) == ""

    def test_encode_single(self):
        assert encode(DYADIC_CODE, [2]) == "110"

    def test_encode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            encode(DYADIC_CODE, [4])

    @pytest.mark.parametrize(
        "symbols, bad", [([0, -1], -1), ([1, 5, -1, 9], 5), ([-2, 7], -2)]
    )
    def test_encode_names_first_bad_symbol(self, symbols, bad):
        with pytest.raises(ValueError, match=f"symbol index {bad} out of range"):
            encode(DYADIC_CODE, symbols)

    @pytest.mark.parametrize("make", [iter, lambda s: (x for x in s)], ids=["iterator", "generator"])
    def test_encode_reads_an_iterable_once(self, make):
        assert encode(DYADIC_CODE, make([0, 1, 0, 3])) == "0100111"
        with pytest.raises(ValueError, match="symbol index 5 out of range"):
            encode(DYADIC_CODE, make([0, 5, -1]))

    def test_decode_example(self):
        assert decode(DYADIC_CODE, "0100111") == [0, 1, 0, 3]

    def test_decode_empty(self):
        assert decode(DYADIC_CODE, "") == []

    def test_decode_dangling_prefix(self):
        with pytest.raises(DecodeError, match="incomplete"):
            decode(DYADIC_CODE, "11")

    def test_decode_unmatched_bits(self):
        incomplete = PrefixCode(("0", "10", "110"))
        with pytest.raises(DecodeError, match="match no codeword"):
            decode(incomplete, "111")

    def test_decode_rejects_non_bits(self):
        with pytest.raises(DecodeError):
            decode(DYADIC_CODE, "01x")

    # A lone surrogate, which str.encode refuses; "0b1", which int(..., 2) takes.
    @pytest.mark.parametrize("bits", ["0\ud800", "0b1"], ids=["surrogate", "0b-prefix"])
    def test_decode_refuses_a_surrogate_and_a_0b_prefix(self, bits):
        with pytest.raises(DecodeError, match="^stream contains characters other than 0 and 1$"):
            decode(DYADIC_CODE, bits)


class TestAverageLength:
    def test_dyadic_meets_entropy_exactly(self):
        stats = average_length(DYADIC_CODE, DYADIC)
        assert stats.average_length == F(7, 4)
        assert stats.entropy_gap == 0.0

    def test_uniform(self):
        uniform = collapse(4, (1, 1, 1, 1))
        code = build_generic_code(GenericSpace(4, (1, 1, 1, 1)))
        assert average_length(code, uniform).average_length == 2

    def test_fallback_bent_coin(self):
        bent = ExactDistribution([F(2, 3), F(1, 3)])
        code = build_generic_code(generic_space(bent))
        stats = average_length(code, bent)
        assert stats.average_length == F(4, 3)
        assert stats.entropy_gap == pytest.approx(
            4 / 3 - 0.9182958340544896, abs=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            average_length(DYADIC_CODE, ExactDistribution([F(1, 2), F(1, 2)]))


class TestHuffmanOracle:
    def test_dyadic_lengths(self):
        assert huffman_oracle(DYADIC).lengths() == (1, 2, 3, 3)

    def test_uniform_lengths(self):
        assert huffman_oracle(collapse(4, (1, 1, 1, 1))).lengths() == (2, 2, 2, 2)

    def test_two_symbols(self):
        assert huffman_oracle(ExactDistribution([F(2, 3), F(1, 3)])).lengths() == (1, 1)

    def test_single_symbol(self):
        assert huffman_oracle(ExactDistribution([F(1)])).codewords == ("",)

    def test_deterministic(self):
        dist = ExactDistribution([F(1, 4)] * 4)
        assert huffman_oracle(dist).codewords == huffman_oracle(dist).codewords

    def test_never_beaten_by_generic_code(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            dist = random_distribution(rng, min_outcomes=2)
            generic = average_length(
                build_generic_code(generic_space(dist)), dist
            ).average_length
            huffman = average_length(huffman_oracle(dist), dist).average_length
            assert huffman <= generic


@given(st.one_of(distribution_texts(max_bits=8, max_outcomes=40), distribution_texts()))
def test_huffman_and_average_length_match_fraction_oracle(text):
    probs = fraction_parse(text)
    dist = parse_distribution(text)
    code = huffman_oracle(dist)
    assert code.codewords == fraction_huffman(probs)
    for c in (code, build_generic_code(generic_space(dist))):
        expected = sum((p * n for p, n in zip(probs, c.lengths())), start=F(0))
        assert average_length(c, dist).average_length == expected


@given(st.one_of(distribution_texts(max_bits=8, max_outcomes=40), distribution_texts()))
def test_generic_code_reads_a_distribution_as_its_space(text):
    dist = parse_distribution(text)
    assert build_generic_code(dist) == build_generic_code(generic_space(dist))


# Counts drawn mostly from a few small values, so that equal weights, and
# equal merged weights, are common.
tied_counts = st.lists(
    st.sampled_from([1, 1, 1, 2, 2, 3, 4, 6, 8]) | st.integers(1, 2**70), min_size=1, max_size=1000
)


def dyadic_counts(exponents):
    """Powers of two 2**e, padded with the binary digits of what is left up to a power of two."""
    counts = [1 << e for e in exponents]
    total = sum(counts)
    pad = (1 << (total - 1).bit_length()) - total
    return counts + [1 << k for k in range(pad.bit_length()) if pad >> k & 1]


@settings(deadline=None)
@given(tied_counts)
@example([1] * 1000)
@example([2, 1, 1, 2, 3, 3, 1])
def test_huffman_matches_heap_oracle(counts):
    dist = collapse(sum(counts), counts)
    assert huffman_oracle(dist) == heap_huffman(dist)


@settings(deadline=None)
@given(tied_counts | st.lists(st.integers(0, 12), min_size=1, max_size=1000).map(dyadic_counts))
@example([1] * 1024)
def test_generic_code_matches_reference(counts):
    space = GenericSpace(sum(counts), tuple(counts))
    assert build_generic_code(space) == reference_generic_code(space)


# Dyadic counts times an odd k >= 3: an unreduced space whose D is not a power of two.
scaled_dyadic_counts = st.builds(
    lambda counts, k: [c * k for c in counts],
    st.lists(st.integers(0, 12), min_size=1, max_size=200).map(dyadic_counts),
    st.integers(1, 2**40).map(lambda j: 2 * j + 1),
)


@settings(deadline=None)
@given(tied_counts | scaled_dyadic_counts)
@example([3, 3])
@example([6, 3, 3])
def test_generic_code_table_reloads_as_built(counts):
    code = build_generic_code(GenericSpace(sum(counts), tuple(counts)))
    assert parse_code_table(format_code_table(code)) == code


@pytest.mark.parametrize("space", [GenericSpace(6, (3, 3)), GenericSpace(12, (6, 3, 3))])
def test_unreduced_dyadic_space_gets_an_exact_code(space):
    code = build_generic_code(space)
    assert code.mode == "exact"
    assert average_length(code, collapse(space.dimension, space.counts)).entropy_gap == 0.0


@given(st.lists(st.text("01x", max_size=5), min_size=1, max_size=8))
@example(["", "1x"])
@example(["0x", ""])
@example(["1", "0\ud800"])  # a lone surrogate, which str.encode refuses
@example(["1", "0b1"])  # int("0b1", 2) is 1
def test_prefix_code_checks_match_per_word_reference(words):
    expected = reference_prefix_code_error(words)
    if expected is None:
        PrefixCode(tuple(words))
        return
    with pytest.raises(ValueError) as excinfo:
        PrefixCode(tuple(words))
    assert str(excinfo.value) == expected


class TestDyadicOptimality:
    def test_exact_mode_matches_entropy_as_rationals(self):
        rng = np.random.default_rng(73)
        for _ in range(40):
            space = random_dyadic_space(rng, max_log2=10, max_parts=32)
            code = build_generic_code(space)
            assert code.mode == "exact"
            assert code.kraft_sum() == 1
            dist = collapse(space.dimension, space.counts)
            # Dyadic probabilities make -log2(p_i) an integer; the exact
            # entropy is then a rational independent of any float path.
            exact_entropy = sum(
                (
                    p * (p.denominator.bit_length() - 1)
                    for p in dist.probs
                ),
                start=F(0),
            )
            for word, p in zip(code.codewords, dist.probs):
                assert len(word) == p.denominator.bit_length() - 1
            stats = average_length(code, dist)
            assert stats.average_length == exact_entropy
            oracle_stats = average_length(huffman_oracle(dist), dist)
            assert oracle_stats.average_length == exact_entropy

    def test_fallback_within_one_bit_of_entropy(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            dist = random_distribution(rng, min_outcomes=2)
            code = build_generic_code(generic_space(dist))
            avg = float(average_length(code, dist).average_length)
            entropy = shannon_entropy(dist, 2)
            assert entropy - 1e-12 <= avg < entropy + 1.0


@given(
    st.lists(st.integers(min_value=0, max_value=3), min_size=0, max_size=500),
)
def test_decode_inverts_encode(symbols):
    assert decode(DYADIC_CODE, encode(DYADIC_CODE, symbols)) == symbols


def test_decode_inverts_encode_on_random_dyadic_codes():
    rng = np.random.default_rng(83)
    for _ in range(20):
        space = random_dyadic_space(rng, max_log2=8, max_parts=16)
        code = build_generic_code(space)
        symbols = [int(s) for s in rng.integers(0, space.size, size=10_000)]
        assert decode(code, encode(code, symbols)) == symbols


@st.composite
def prefix_codes(draw):
    """Random prefix-free codes of every kind the decoder must handle.

    Grown from the one-symbol code ("",): a codeword is replaced by the
    leaf at the end of a random path of up to 40 bits below it, plus the
    sibling of every node on that path, which keeps the code complete and
    makes codewords longer than the decoder's root window.  Dropping
    codewords then makes it incomplete.  The words are used as drawn
    (non-canonical), reassigned canonically, or round-tripped through a
    code table file.
    """
    words = [""]
    for _ in range(draw(st.integers(0, 10))):
        word = words.pop(draw(st.integers(0, len(words) - 1)))
        path = draw(st.text("01", min_size=1, max_size=40))
        words += [word + path[:j] + "10"[int(path[j])] for j in range(len(path))]
        words.append(word + path)
    if len(words) > 1 and draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=len(words), max_size=len(words)))
        words = [w for w, k in zip(words, keep) if k] or words[:1]
    words = tuple(draw(st.permutations(words)))
    form = draw(st.sampled_from(["drawn", "canonical", "table"]))
    if form == "canonical":
        words = _canonical_codewords([len(w) for w in words])
    code = PrefixCode(words)
    if form == "table" or code.kraft_sum() == 1:
        code = parse_code_table(format_code_table(code))
    return code


@st.composite
def bit_streams(draw, code):
    """A valid stream for `code`, or one truncated, corrupted or random."""
    symbols = draw(st.lists(st.integers(0, code.size - 1), max_size=30))
    bits = encode(code, symbols)
    change = draw(
        st.sampled_from(
            ["none", "truncate", "flip", "append", "random", "non-bit", "flip-after-symbol"]
        )
    )
    if change == "truncate" and bits:
        bits = bits[: draw(st.integers(0, len(bits) - 1))]
    elif change == "flip" and bits:
        i = draw(st.integers(0, len(bits) - 1))
        bits = bits[:i] + "10"[int(bits[i])] + bits[i + 1 :]
    elif change == "append":
        bits += draw(st.text("01", min_size=1, max_size=45))
    elif change == "random":
        bits = draw(st.text("01", max_size=300))
    elif change == "non-bit":
        i = draw(st.integers(0, len(bits)))
        bits = bits[:i] + draw(st.sampled_from(["2", " ", "_", "x"])) + bits[i:]
    elif change == "flip-after-symbol" and bits:
        # The bit after a codeword that ends inside a 4-bit step, so the step
        # that completes the symbol also reads the bad bit.
        ends = accumulate(len(code.codewords[s]) for s in symbols)
        inside = [e for e in ends if e % 4 and e < len(bits)] or [len(bits) - 1]
        i = draw(st.sampled_from(inside))
        bits = bits[:i] + "10"[int(bits[i])] + bits[i + 1 :]
    if draw(st.booleans()):  # a length that is not a multiple of 4
        bits = bits[: len(bits) - len(bits) % 4 + draw(st.sampled_from([1, 2, 3]))]
    return bits


def _decode_outcome(decoder, code, bits):
    try:
        return decoder(code, bits)
    except DecodeError as exc:
        return f"DecodeError: {exc}"


def _assert_decodes_like_oracles(code, bits):
    """`decode` agrees with both oracles; a bit stream also decodes through GSC1."""
    outcome = _decode_outcome(decode, code, bits)
    assert outcome == _decode_outcome(reference_decode, code, bits)
    assert outcome == _decode_outcome(window_decode, code, bits)
    if not set(bits) - {"0", "1"}:
        framed = _unframe(frame_bits(bits))
        assert _decode_outcome(lambda c, _: decode_hex(c.codewords, *framed), code, bits) == outcome


def _fraction_kraft_sum(words):
    return sum(F(1, 2 ** len(w)) for w in words)


@given(st.lists(st.text("01", max_size=70), min_size=1, max_size=60))
def test_kraft_sum_matches_fraction_sum(words):
    assert _kraft_sum(words) == _fraction_kraft_sum(words)


@given(prefix_codes())
def test_code_table_mode_follows_fraction_kraft_sum(code):
    assert code.kraft_sum() == _fraction_kraft_sum(code.codewords)
    loaded = parse_code_table(format_code_table(code))
    assert loaded.mode == ("exact" if _fraction_kraft_sum(code.codewords) == 1 else "fallback")


@given(prefix_codes())
def test_mode_is_exact_exactly_when_fraction_kraft_sum_is_one(code):
    assert code.mode == ("exact" if _fraction_kraft_sum(code.codewords) == 1 else "fallback")


@given(prefix_codes(), st.data())
def test_decode_matches_bit_by_bit_reference(code, data):
    _assert_decodes_like_oracles(code, data.draw(bit_streams(code)))


class TestDecodeAgainstReference:
    """Fixed cases for the table decoder's edges, checked against both oracles."""

    LONG = PrefixCode(("0", "10", "11" + "0" * 38, "11" + "1" * 38))

    @pytest.mark.parametrize(
        "code, bits",
        [
            # Window of the final codeword runs past the end of the stream.
            (DYADIC_CODE, "011"),
            (PrefixCode(("0", "10", "110")), "011"),
            (PrefixCode(("0", "10", "110")), "0111"),
            # Codewords longer than the root table's window.
            (LONG, "0" + "11" + "1" * 38 + "10" + "11" + "0" * 38),
            (LONG, "0" + "11" + "0" * 20),
            (LONG, "10" + "11" + "0" * 37 + "1"),
            (LONG, "11" + "01" * 19),
            # One-symbol codes.
            (PrefixCode(("",)), ""),
            (PrefixCode(("",)), "0"),
            (PrefixCode(("",)), "x"),
            (PrefixCode(("01",)), "0101"),
            (PrefixCode(("01",)), "010"),
            # A non-bit character after a decoding error still wins.
            (DYADIC_CODE, "11x"),
            # A 4-bit step completes a symbol and then reaches a dead prefix.
            (PrefixCode(("0", "10", "110")), "00111"),
            (PrefixCode(("0", "10", "110")), "01110"),
            (PrefixCode(("00", "01")), "0010"),
            # A codeword of 32 bits or more is looked up on the stream: it ends
            # on a step boundary, inside a step, and in the last bits.
            (LONG, "11" + "1" * 38 + "0"),
            (LONG, "0" + "11" + "0" * 38 + "10" + "0"),
            (LONG, "10" + "11" + "1" * 38 + "1"),
            (LONG, "10" + "11" + "1" * 30),
            # Streams of 1, 2 and 3 bits past the last full step.
            (DYADIC_CODE, "01101110"),
            (DYADIC_CODE, "0110111011"),
            (DYADIC_CODE, "01101110111"),
        ],
    )
    def test_matches_reference(self, code, bits):
        _assert_decodes_like_oracles(code, bits)

    def test_long_codewords_round_trip(self):
        symbols = [2, 0, 3, 1, 1, 2, 3, 0]
        assert decode(self.LONG, encode(self.LONG, symbols)) == symbols

    def test_large_alphabet_with_long_and_missing_codewords(self):
        # 2047 codewords, all longer than the 10-bit root window: 2046 of
        # 11 bits and one of 31 bits; codeword 00000000101 is missing.
        words = [format(i, "011b") for i in range(2048) if i != 5]
        words[-1] += "0" * 20
        code = PrefixCode(tuple(words))
        symbols = [0, 2046, 1000, 5, 2046, 2045]
        bits = encode(code, symbols)
        assert decode(code, bits) == symbols
        missing = "00000000101"
        for stream in (bits[:-3], bits + missing, missing + bits, bits[:-20] + "1"):
            _assert_decodes_like_oracles(code, stream)

    def test_codeword_of_10000_bits(self):
        # Its prefixes are no table states, so memory stays near the stream's size.
        code = build_generic_code(GenericSpace(2**10000, (1, 2**10000 - 1)))
        symbols = [1, 0, 1, 1, 0, 0, 1]
        bits = encode(code, symbols)
        tracemalloc.start()
        try:
            assert decode(code, bits) == symbols
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        for stream in (bits[:5000], bits[:-2], "1" + "0" * 9998 + "1" + bits, bits + "1" * 9000):
            _assert_decodes_like_oracles(code, stream)

    def test_round_trip_with_a_4096_symbol_code(self):
        rng = np.random.default_rng(89)
        code = build_generic_code(GenericSpace(2**13 + 1, (3,) + (2,) * 4095))
        assert code.size == 2**12
        symbols = [int(s) for s in rng.integers(0, code.size, size=20_000)]
        assert decode(code, encode(code, symbols)) == symbols

    def test_non_canonical_table(self):
        code = parse_code_table("0\t11\n1\t0\n2\t101\n3\t100\n")
        assert decode(code, "110101100") == [0, 1, 2, 3]


@given(st.integers(1, 2**4096) | st.integers(0, 4096).map(lambda k: 2**k), st.data())
def test_ceil_log2_ratio_matches_shift_loop(numerator, data):
    denominator = data.draw(
        st.integers(1, 2**4096)
        | st.integers(0, 4096).map(lambda k: 2**k)
        | st.sampled_from([numerator, numerator + 1, max(numerator - 1, 1)])
    )
    length = 0
    while (denominator << length) < numerator:
        length += 1
    assert _ceil_log2_ratios(numerator, [denominator]) == [length]


class TestPrefixCodeValidation:
    def test_rejects_prefix_collision(self):
        with pytest.raises(ValueError, match="prefix"):
            PrefixCode(("0", "01"))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="prefix"):
            PrefixCode(("10", "10"))

    def test_rejects_non_bitstring(self):
        with pytest.raises(ValueError, match="bitstring"):
            PrefixCode(("0", "1x"))

    def test_a_code_is_its_codewords(self):
        assert PrefixCode._fields == ("codewords",)
        with pytest.raises(TypeError):
            PrefixCode(("0", "1"), "exact")

    def test_canonical_assignment_rejects_kraft_violation(self):
        from genspace.coding import _canonical_codewords

        with pytest.raises(ValueError, match="Kraft"):
            _canonical_codewords([1, 1, 2])


class TestFraming:
    def test_round_trip(self):
        for bits in ("", "1", "0100111", "1" * 64, "01" * 1000):
            assert unframe_bits(frame_bits(bits)) == bits

    def test_header_layout(self):
        blob = frame_bits("0100111")
        assert blob[:4] == b"GSC1"
        assert int.from_bytes(blob[4:12], "little") == 7
        assert blob[12:] == bytes([0b01001110])

    def test_bad_magic(self):
        with pytest.raises(DecodeError, match="header"):
            unframe_bits(b"JUNK" + b"\0" * 9)

    def test_truncated_payload(self):
        blob = frame_bits("1" * 20)
        with pytest.raises(DecodeError, match="bits"):
            unframe_bits(blob[:-1])

    def test_nonzero_padding_rejected(self):
        blob = bytearray(frame_bits("10"))
        blob[-1] |= 0b00000001
        with pytest.raises(DecodeError, match="padding"):
            unframe_bits(bytes(blob))


@given(st.text("01", max_size=300))
def test_frame_round_trips_every_bitstring(bits):
    blob = frame_bits(bits)
    assert len(blob) == 12 + (len(bits) + 7) // 8
    assert unframe_bits(blob) == bits


@given(st.text("01"), st.characters().filter(lambda c: c not in "01"), st.text("01"))
@example("", " ", "01")  # int(..., 2) would accept whitespace, "_", signs
@example("0", "_", "1")
@example("", "+", "1")
@example("", "-", "1")
@example("1", "\u0661", "")  # ARABIC-INDIC DIGIT ONE, a digit to int()
@example("0", "\ud800", "")  # a lone surrogate, which str.encode refuses
@example("0", "b", "1")  # int("0b1", 2) is 1
def test_frame_rejects_non_bit_characters(head, bad, tail):
    with pytest.raises(ValueError, match="other than 0 and 1"):
        frame_bits(head + bad + tail)


@given(st.binary(max_size=40))
@example(b"GSC1" + bytes(8))
def test_unframe_arbitrary_bytes(blob):
    try:
        bits = unframe_bits(blob)
    except DecodeError:
        return
    assert frame_bits(bits) == blob


@given(st.binary(max_size=40), st.data())
def test_unframe_valid_header_arbitrary_payload(payload, data):
    bit_count = data.draw(
        st.integers(max(0, 8 * len(payload) - 9), 8 * len(payload) + 9)
        | st.integers(0, 2**64 - 1)
    )
    blob = b"GSC1" + struct.pack("<Q", bit_count) + payload
    try:
        bits = unframe_bits(blob)
    except DecodeError:
        return
    assert len(bits) == bit_count
    assert frame_bits(bits) == blob


class TestGoldenStream:
    """GSC1 bytes pinned by hand: any change to encode/frame shows here."""

    FALLBACK_CODE = build_generic_code(GenericSpace(7, (3, 2, 1, 1)))

    CASES = [
        # (code, symbols, bit count, framed stream as hex)
        (DYADIC_CODE, [0, 1, 0, 3], 7, "4753433107000000000000004e"),
        (DYADIC_CODE, [3, 3, 1], 8, "475343310800000000000000fe"),
        (DYADIC_CODE, [2, 3, 2, 3, 0, 0, 0, 0], 16, "475343311000000000000000df70"),
        (DYADIC_CODE, [], 0, "475343310000000000000000"),
        (FALLBACK_CODE, [1, 2, 3], 8, "47534331080000000000000065"),
        (FALLBACK_CODE, [2, 3, 0, 1, 0, 0], 14, "475343310e000000000000009440"),
        (FALLBACK_CODE, [0, 1, 2, 3, 3, 2, 1], 18, "475343311200000000000000196c40"),
        (FALLBACK_CODE, [], 0, "475343310000000000000000"),
    ]

    def test_codes(self):
        assert self.FALLBACK_CODE.mode == "fallback"
        assert self.FALLBACK_CODE.codewords == ("00", "01", "100", "101")

    @pytest.mark.parametrize("code, symbols, bit_count, blob_hex", CASES)
    def test_bytes_and_round_trip(self, code, symbols, bit_count, blob_hex):
        bits = encode(code, symbols)
        assert len(bits) == bit_count
        blob = frame_bits(bits)
        assert blob == bytes.fromhex(blob_hex)
        assert decode(code, unframe_bits(blob)) == symbols


class TestCodeTable:
    def test_round_trip_preserves_codewords(self):
        text = format_code_table(DYADIC_CODE)
        assert text == "0\t0\n1\t10\n2\t110\n3\t111\n"
        loaded = parse_code_table(text)
        assert loaded.codewords == DYADIC_CODE.codewords
        assert loaded.mode == "exact"

    @pytest.mark.parametrize(
        "code",
        [
            DYADIC_CODE,
            build_generic_code(GenericSpace(7, (3, 2, 1, 1))),
            huffman_oracle(ExactDistribution([F(1, 3), F(1, 3), F(1, 6), F(1, 6)])),
            PrefixCode(("0", "10", "110")),
        ],
        ids=["generic-exact", "generic-fallback", "huffman", "incomplete"],
    )
    def test_table_reloads_as_the_code_it_was_written_from(self, code):
        assert parse_code_table(format_code_table(code)) == code

    def test_incomplete_table_loads_as_fallback(self):
        loaded = parse_code_table("0\t0\n1\t10\n")
        assert loaded.mode == "fallback"

    def test_missing_index_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            parse_code_table("0\t0\n2\t10\n")

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_code_table("0\t0\n0\t10\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="TAB"):
            parse_code_table("0 0\n")

    @pytest.mark.parametrize(
        "text",
        ["+0\t0\n\u0661\t1\n", "0\t0\n\u0661\t1\n", "0\t0\n+1\t1\n", " 0\t0\n1\t1\n", "\t0\n1\t1\n"],
    )
    def test_index_is_ascii_digits(self, text):
        # int() would take the signed, spaced and non-ASCII indices here.
        with pytest.raises(ValueError, match="malformed index"):
            parse_code_table(text)
