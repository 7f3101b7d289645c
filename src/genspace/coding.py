"""Prefix codes read off the generic space, plus an independent Huffman oracle.

Every generic code takes one path: symbol i, with count N_i of the generic
dimension D, gets length l_i = ceil(log2(D / N_i)), and the lengths are
assigned canonically (Schwartz & Kallick, 1964).  Mode "exact" means the
code is complete (Kraft sum 1), which happens exactly when every D / N_i is
a power of two; its average length then equals the Shannon entropy.
"fallback" codes stay prefix-free, within one bit of the entropy.

This is the paper's construction.  For D = 2^L and power-of-two counts,
write the D generic-space outcomes as L-bit words and give the symbols, by
descending count with ties in symbol order, consecutive blocks.  Block i
starts at O_i = sum(N_j, j < i), a multiple of N_i, so its members share a
prefix of length l_i = L - log2(N_i): O_i >> (L - l_i) = sum(2^(l_i - l_j),
j < i), the canonical codeword value.  The two assignments give the same words.

Streams are strings of "0"/"1" characters, and :func:`frame_bits` packs
them into the GSC1 container.  :func:`decode` accepts every prefix-free
code: canonical or not, complete or not (Kraft sum < 1), with codewords of
any length.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from typing import NamedTuple, Sequence

from .distribution import ExactDistribution, GenericSpace, _int_tokens, _make_checked
from .entropy import shannon_entropy

__all__ = [
    "PrefixCode",
    "CodeStats",
    "DecodeError",
    "build_generic_code",
    "encode",
    "decode",
    "average_length",
    "huffman_oracle",
    "frame_bits",
    "unframe_bits",
    "format_code_table",
    "parse_code_table",
]

STREAM_MAGIC = b"GSC1"

MODES = ("exact", "fallback", "huffman")

# Width in bits of the decoder's root window (zlib's inflate uses 9), so the
# root table has at most 2**_ROOT_BITS entries.
_ROOT_BITS = 10

# str.translate table that deletes "0" and "1": whatever is left is not a bit.
_DELETE_BITS = str.maketrans("", "", "01")


class DecodeError(ValueError):
    """A bit stream does not decode under the given code or framing."""


_PrefixCodeFields = NamedTuple("_PrefixCodeFields", [("codewords", tuple), ("mode", str)])


class PrefixCode(_PrefixCodeFields):
    """An ordered symbol -> bitstring map, checked prefix-free on construction.

    mode "exact" promises a complete code (Kraft sum exactly 1); "fallback"
    marks an incomplete generic code or table; "huffman" marks oracle-built
    codes.  A code table stores no mode, so it reloads as "exact" exactly
    when it is complete, the rule :func:`build_generic_code` applies too.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)  # so `_replace` checks too

    def __init__(self, codewords: tuple[str, ...], mode: str) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown code mode {mode!r}")
        if not codewords:
            raise ValueError("code needs at least one codeword")
        # One check over all the words; the loop only finds the first bad one.
        joined = "".join(codewords)
        if joined.translate(_DELETE_BITS) or len(codewords) > 1 and "" in codewords:
            for i, word in enumerate(codewords):
                if set(word) - {"0", "1"}:
                    raise ValueError(f"codeword {i} is not a bitstring: {word!r}")
                if word == "" and len(codewords) > 1:
                    raise ValueError("empty codeword only allowed in a one-symbol code")
        ordered = sorted(codewords)
        if any(map(str.startswith, ordered[1:], ordered)):
            short, long = next(p for p in zip(ordered, ordered[1:]) if p[1].startswith(p[0]))
            raise ValueError(f"not prefix-free: {short!r} is a prefix of {long!r}")
        # Prefix-freeness already forces the Kraft sum <= 1; exact mode
        # additionally promises completeness.
        if mode == "exact" and (kraft := _kraft_sum(codewords)) != 1:
            raise ValueError(f"exact code must have Kraft sum 1, got {kraft}")

    @property
    def size(self) -> int:
        return len(self.codewords)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.codewords)

    def kraft_sum(self) -> Fraction:
        return _kraft_sum(self.codewords)


def _kraft_sum(words: Sequence[str]) -> Fraction:
    """Sum of 2^-len(w), added in integers over 2^(longest length)."""
    top = max(len(w) for w in words)
    return Fraction(sum(1 << (top - len(w)) for w in words), 1 << top)


class CodeStats(NamedTuple):
    """Exact average codeword length and its gap above the entropy."""

    average_length: Fraction
    entropy_gap: float


def _ceil_log2_ratios(numerator: int, denominators: Sequence[int]) -> list[int]:
    """max(ceil(log2(numerator / den)), 0) for each den, over positive integers, exactly."""
    bits = numerator.bit_length()
    # den << k has numerator's bit length, so it is >= numerator or one doubling short.
    return [k + ((den << k) < numerator) if (k := bits - den.bit_length()) >= 0 else 0
            for den in denominators]


def _canonical_codewords(lengths: Sequence[int]) -> tuple[str, ...]:
    """Assign codewords canonically: shortest first, lexicographic within length.

    Ties between equal lengths keep original symbol order.  Requires the
    lengths to satisfy the Kraft inequality.
    """
    order = sorted(range(len(lengths)), key=lengths.__getitem__)
    words: list[str] = [""] * len(lengths)
    code = 0
    prev_len = 0
    for i in order:
        length = lengths[i]
        code <<= length - prev_len
        if code >> length:
            raise ValueError("codeword lengths violate the Kraft inequality")
        # The leading 1 pads `code` to `length` bits; [3:] drops "0b1".
        words[i] = bin(code | 1 << length)[3:]
        code += 1
        prev_len = length
    return tuple(words)


def build_generic_code(space: GenericSpace | ExactDistribution) -> PrefixCode:
    """Derive a prefix code from a generic space.

    Lengths ceil(log2(D / count)), assigned canonically; on a dyadic space
    these are the block prefixes of the module docstring.  The mode is
    "exact" when the code is complete, else "fallback".  A distribution is
    a reduced space, so for it "exact" means that D and every count are
    powers of two.  Codewords are returned in original symbol order.
    """
    d = space.dimension
    counts = space.counts
    lengths = _ceil_log2_ratios(d, counts)
    # 2^-length <= count / D, equal exactly when count << length == D, and
    # the counts sum to D: the Kraft sum is 1 exactly when all are equal.
    complete = all(c << n == d for c, n in zip(counts, lengths))
    return PrefixCode(_canonical_codewords(lengths), mode="exact" if complete else "fallback")


def _require_bits(bits: str, error: type[ValueError]) -> None:
    if bits.translate(_DELETE_BITS):
        raise error("stream contains characters other than 0 and 1")


def encode(code: PrefixCode, symbols: Sequence[int]) -> str:
    """Concatenate the codewords of a symbol-index sequence."""
    words = code.codewords
    # min() rules out negative indices, which words[s] would wrap; an index
    # past the end raises IndexError.  The list comprehension is about twice
    # as fast as map(words.__getitem__, ...), a slot-wrapper call per symbol.
    if min(symbols, default=0) >= 0:
        try:
            return "".join([words[s] for s in symbols])
        except IndexError:
            pass
    n = len(words)
    bad = next(s for s in symbols if not 0 <= s < n)
    raise ValueError(f"symbol index {bad} out of range for a {n}-symbol code")


def _window_table(
    words: Sequence[str], lengths: set[int]
) -> tuple[int, dict, dict, list[int]]:
    """Decoding tables for a prefix-free code without an empty codeword.

    ``lengths`` is the set of the codeword lengths.

    Returns ``(width, leaves, table, long_lengths)``.  ``leaves`` maps every
    ``width``-bit window that starts with a codeword of at most ``width``
    bits to that codeword's (symbol, length).  ``table`` maps every codeword
    to its symbol; it resolves the codewords longer than ``width``, whose
    distinct lengths are ``long_lengths``, in ascending order.
    """
    width = min(max(lengths), _ROOT_BITS)
    table = dict(zip(words, range(len(words))))
    # tails[k] lists the k-bit strings that complete a codeword k bits
    # shorter than `width` to a full window: bin(2**k + i) is "0b1" and then
    # i in k bits.
    tails = {
        k: [bin(i)[3:] for i in range(1 << k, 2 << k)]
        for k in {width - n for n in lengths if n <= width}
    }
    leaves = {
        word + tail: (symbol, len(word))
        for symbol, word in enumerate(words)
        if len(word) <= width
        for tail in tails[width - len(word)]
    }
    return width, leaves, table, sorted(n for n in lengths if n > width)


def _decode_error(bits: str, pos: int, max_len: int) -> DecodeError:
    """The error for a stream whose codeword starting at `pos` fails to match."""
    _require_bits(bits, DecodeError)
    if len(bits) - pos >= max_len:
        return DecodeError(f"bits {bits[pos : pos + max_len]!r} match no codeword")
    return DecodeError(f"incomplete codeword {bits[pos:]!r} at end of stream")


def decode(code: PrefixCode, bits: str) -> list[int]:
    """Recover the unique symbol sequence from concatenated codewords.

    Raises :class:`DecodeError` on bits that match no codeword or on a
    truncated final codeword.
    """
    words = code.codewords
    lengths = set(map(len, words))
    max_len = max(lengths)
    if max_len == 0:
        _require_bits(bits, DecodeError)
        if bits:
            raise DecodeError("zero-length codeword is not uniquely decodable")
        return []
    width, leaves, table, long_lengths = _window_table(words, lengths)
    n = len(bits)
    # Zero padding lets every window be full width; a codeword that reaches
    # into the padding is caught after the loop.  Every consumed bit lies in
    # a matched codeword, so the stream is checked for non-bit characters
    # only on the error path.
    padded = bits + "0" * max_len
    out: list[int] = []
    append = out.append
    pos = 0
    # The inner loop is the fast path.  A window missing from the root table
    # (a codeword longer than `width`, or bad bits) lands in the handler,
    # which resolves one codeword through `table` and re-enters the loop.
    while pos < n:
        try:
            while pos < n:
                symbol, length = leaves[padded[pos : pos + width]]
                append(symbol)
                pos += length
        except KeyError:
            for length in long_lengths:
                symbol = table.get(padded[pos : pos + length])
                if symbol is not None:
                    break
            else:
                raise _decode_error(bits, pos, max_len) from None
            append(symbol)
            pos += length
    if pos > n:
        raise _decode_error(bits, pos - len(words[out.pop()]), max_len)
    return out


def average_length(code: PrefixCode, dist: ExactDistribution) -> CodeStats:
    """Exact expected codeword length and its gap above the Shannon entropy."""
    if code.size != dist.size:
        raise ValueError(
            f"dimension mismatch: code has {code.size} symbols, distribution {dist.size}"
        )
    avg = Fraction(
        sum(c * length for c, length in zip(dist.counts, code.lengths())), dist.dimension
    )
    return CodeStats(average_length=avg, entropy_gap=float(avg) - shannon_entropy(dist, 2))


def huffman_oracle(dist: ExactDistribution) -> PrefixCode:
    """Textbook Huffman code over the exact weights, the integer counts c_i.

    The counts are the probabilities scaled by D, so every comparison of
    merged weights comes out as it would on the rationals.  Two queues (van
    Leeuwen, 1976), the sorted leaves and a FIFO of merged nodes, both keep
    (weight, lowest original index in the subtree) order, so weight ties merge
    the lowest indices first.  The lengths are assigned canonically.  Serves
    as the independent optimality reference for :func:`build_generic_code`.
    """
    n = dist.size
    if n == 1:
        return PrefixCode(("",), mode="huffman")
    # Key w * n + m orders (weight w, lowest index m) as one int; a merge adds
    # the weights and keeps the smaller m.  Ids: sorted leaves 0..n-1, a sentinel
    # n, then merged nodes, whose keys come out sorted (equal weights in rising m).
    # Each merge takes the smaller front, a or b, twice; unset keys are largest.
    keys = sorted([c * n + i for i, c in enumerate(dist.counts)])
    keys += [(dist.dimension + 1) * n] * (n + 1)
    up = [0] * (2 * n)
    a, b = 0, n + 1
    for node in range(n + 1, 2 * n):
        p, a, b = (a, a + 1, b) if keys[a] < keys[b] else (b, a, b + 1)
        q, a, b = (a, a + 1, b) if keys[a] < keys[b] else (b, a, b + 1)
        up[p] = up[q] = node
        keys[node] = keys[p] + keys[q] - max(keys[p] % n, keys[q] % n)
    # Parents have larger ids: one reverse pass turns up[node] into its depth.
    for node in range(2 * n - 2, -1, -1):
        up[node] = up[up[node]] + 1
    lengths = [0] * n
    for leaf in range(n):
        lengths[keys[leaf] % n] = up[leaf]
    return PrefixCode(_canonical_codewords(lengths), mode="huffman")


def frame_bits(bits: str) -> bytes:
    """Pack a bitstring into the stream container.

    Layout: magic "GSC1", unsigned 64-bit little-endian bit count, then the
    payload packed most-significant-bit-first with a zero-padded final byte.
    """
    _require_bits(bits, ValueError)
    value = int(bits or "0", 2) << (-len(bits) % 8)
    payload = value.to_bytes((len(bits) + 7) // 8, "big")
    return STREAM_MAGIC + struct.pack("<Q", len(bits)) + payload


def unframe_bits(blob: bytes) -> str:
    """Inverse of :func:`frame_bits`, with strict container validation."""
    if len(blob) < 12 or blob[:4] != STREAM_MAGIC:
        raise DecodeError("missing GSC1 stream header")
    (bit_count,) = struct.unpack("<Q", blob[4:12])
    payload = blob[12:]
    expected_bytes = (bit_count + 7) // 8
    if len(payload) != expected_bytes:
        raise DecodeError(
            f"payload holds {len(payload)} bytes, header declares {bit_count} bits"
        )
    value = int.from_bytes(payload, "big")
    padding = 8 * expected_bytes - bit_count
    if value & ((1 << padding) - 1):
        raise DecodeError("nonzero padding bits in final byte")
    return format(value >> padding, f"0{bit_count}b") if bit_count else ""


def format_code_table(code: PrefixCode) -> str:
    """One "index<TAB>bitstring" line per symbol."""
    return "".join(f"{i}\t{w}\n" for i, w in enumerate(code.codewords))


def parse_code_table(text: str) -> PrefixCode:
    """Load a code table; mode is inferred from the Kraft sum.

    A complete table (Kraft sum exactly 1) loads as "exact", anything else
    as "fallback".
    """
    entries: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'index<TAB>bitstring'")
        try:
            index = _int_tokens(parts[:1])[0]
        except ValueError:
            raise ValueError(f"line {lineno}: malformed index {parts[0]!r}") from None
        if index in entries:
            raise ValueError(f"line {lineno}: duplicate symbol index {index}")
        entries[index] = parts[1].strip()
    if not entries:
        raise ValueError("empty code table")
    size = len(entries)
    if sorted(entries) != list(range(size)):
        raise ValueError(f"table must cover indices 0..{size - 1} exactly once")
    words = tuple(entries[i] for i in range(size))
    return PrefixCode(words, mode="exact" if _kraft_sum(words) == 1 else "fallback")
