"""Prefix codes read off the generic space, plus an independent Huffman oracle.

Every generic code takes one path: symbol i, with count N_i of the generic
dimension D, gets length l_i = ceil(log2(D / N_i)), and the lengths are
assigned canonically (Schwartz & Kallick, 1964).  A code's mode is read off
its codewords: "exact" when it is complete (Kraft sum 1), which a generic
code is exactly when every D / N_i is a power of two, and its average length
then equals the Shannon entropy; else "fallback", prefix-free and, for a
generic code, within one bit of the entropy.  A Huffman code is complete, so
it reports "exact".

This is the paper's construction.  For D = 2^L and power-of-two counts,
write the D generic-space outcomes as L-bit words and give the symbols, by
descending count with ties in symbol order, consecutive blocks.  Block i
starts at O_i = sum(N_j, j < i), a multiple of N_i, so its members share a
prefix of length l_i = L - log2(N_i): O_i >> (L - l_i) = sum(2^(l_i - l_j),
j < i), the canonical codeword value.  The two assignments give the same words.

Streams are strings of "0"/"1" characters, and :func:`frame_bits` packs
them into the GSC1 container.  :func:`decode` accepts every prefix-free
code: canonical or not, complete or not (Kraft sum < 1), with codewords of
any length, through the 4-bit state table of :mod:`genspace._decoder`.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Sequence
from fractions import Fraction
from typing import NamedTuple

from ._decoder import DecodeError, decode_hex
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


def _is_bits(text: str) -> bool:
    """Whether text is all "0" and "1"; isascii() first, as encode() raises on a lone surrogate."""
    return text.isascii() and not text.encode().translate(None, b"01")


_PrefixCodeFields = NamedTuple("_PrefixCodeFields", [("codewords", tuple)])


class PrefixCode(_PrefixCodeFields):
    """An ordered symbol -> bitstring map, checked prefix-free on construction.

    Its :attr:`mode` is read off the codewords, so a code table, which
    stores only codewords, reloads as the code it was written from.
    """

    __slots__ = ()
    _make = classmethod(_make_checked)  # so `_replace` checks too

    def __init__(self, codewords: tuple[str, ...]) -> None:
        if not codewords:
            raise ValueError("code needs at least one codeword")
        # One check over all the words; the loop only finds the first bad one.
        if not _is_bits("".join(codewords)) or len(codewords) > 1 and "" in codewords:
            for i, word in enumerate(codewords):
                if not _is_bits(word):
                    raise ValueError(f"codeword {i} is not a bitstring: {word!r}")
                if word == "" and len(codewords) > 1:
                    raise ValueError("empty codeword only allowed in a one-symbol code")
        ordered = sorted(codewords)
        if any(map(str.startswith, ordered[1:], ordered)):
            short, long = next(p for p in zip(ordered, ordered[1:]) if p[1].startswith(p[0]))
            raise ValueError(f"not prefix-free: {short!r} is a prefix of {long!r}")

    @property
    def mode(self) -> str:
        """Completeness, read off the codewords: "exact" when the Kraft sum is 1, else "fallback".

        A Huffman code is complete, so it reports "exact".
        """
        return "exact" if _kraft_sum(self.codewords) == 1 else "fallback"

    @property
    def size(self) -> int:
        return len(self.codewords)

    def lengths(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.codewords)

    def kraft_sum(self) -> Fraction:
        return _kraft_sum(self.codewords)


def _kraft_sum(words: Sequence[str]) -> Fraction:
    """Sum of 2^-len(w), added in integers over 2^(longest length)."""
    top = max(map(len, words))
    return Fraction(sum([1 << (top - len(w)) for w in words]), 1 << top)


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
    these are the block prefixes of the module docstring.  The code is
    complete, mode "exact", exactly when every count << length == D.  A
    distribution is a reduced space, so for it "exact" means that D and every
    count are powers of two.  Codewords are returned in original symbol order.
    """
    return PrefixCode(_canonical_codewords(_ceil_log2_ratios(space.dimension, space.counts)))


def _require_bits(bits: str, error: type[ValueError]) -> None:
    if not _is_bits(bits):
        raise error("stream contains characters other than 0 and 1")


def _pack(bits: str, error: type[ValueError]) -> bytes:
    """A "0"/"1" string packed most-significant-bit-first, the final byte zero-padded."""
    _require_bits(bits, error)
    return (int(bits or "0", 2) << (-len(bits) % 8)).to_bytes((len(bits) + 7) // 8, "big")


def encode(code: PrefixCode, symbols: Iterable[int]) -> str:
    """Concatenate the codewords of a sequence of symbol indices, read once."""
    words = code.codewords
    if not isinstance(symbols, Sequence):  # min() below would use up an iterator
        symbols = list(symbols)
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


def decode(code: PrefixCode, bits: str) -> list[int]:
    """Recover the unique symbol sequence from concatenated codewords.

    Reads the stream 4 bits at a time through a state table that holds only
    the states the stream reaches (:mod:`genspace._decoder`), and the last
    len(bits) % 4 bits one at a time.  Raises :class:`DecodeError` on bits
    that match no codeword or on a truncated final codeword.
    """
    return decode_hex(code.codewords, _pack(bits, DecodeError), len(bits))


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
        return PrefixCode(("",))
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
    return PrefixCode(_canonical_codewords(lengths))


def frame_bits(bits: str) -> bytes:
    """Pack a bitstring into the stream container.

    Layout: magic "GSC1", unsigned 64-bit little-endian bit count, then the
    payload packed most-significant-bit-first with a zero-padded final byte.
    """
    return STREAM_MAGIC + struct.pack("<Q", len(bits)) + _pack(bits, ValueError)


def _unframe(blob: bytes) -> tuple[bytes, int]:
    """The payload bytes of a GSC1 stream and its bit count, after the checks."""
    if len(blob) < 12 or blob[:4] != STREAM_MAGIC:
        raise DecodeError("missing GSC1 stream header")
    (bit_count,) = struct.unpack("<Q", blob[4:12])
    payload = blob[12:]
    if len(payload) != (bit_count + 7) // 8:
        raise DecodeError(f"payload holds {len(payload)} bytes, header declares {bit_count} bits")
    if payload and payload[-1] & ((1 << (-bit_count % 8)) - 1):
        raise DecodeError("nonzero padding bits in final byte")
    return payload, bit_count


def unframe_bits(blob: bytes) -> str:
    """Inverse of :func:`frame_bits`, with strict container validation."""
    payload, bit_count = _unframe(blob)
    value = int.from_bytes(payload, "big") >> (-bit_count % 8)
    return format(value, f"0{bit_count}b") if bit_count else ""


def format_code_table(code: PrefixCode) -> str:
    """One "index<TAB>bitstring" line per symbol."""
    return "".join(f"{i}\t{w}\n" for i, w in enumerate(code.codewords))


def parse_code_table(text: str) -> PrefixCode:
    """Load a code table; a complete table (Kraft sum 1) reports mode "exact"."""
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
    return PrefixCode(tuple(entries[i] for i in range(size)))
