"""The stream decoder behind :func:`genspace.coding.decode` and ``code decode``.

Table-driven decoding in the style of Choueka, Klein & Perl (SIGIR 1985)
and Sieminski (IPL 1988), 4 bits at a time.  A state is the pending
prefix: fewer than max_len bits, with no codeword among its prefixes.  For
nibble value v, its row holds the symbols the nibble completes at index 2v
and the next state's row at 2v + 1.  A row is filled from memoised 2-bit
walks the first time the stream reaches its state, so the table holds only
the states the stream visits.  There is no set of codeword prefixes: a
prefix that leads to no codeword dies at max_len bits, as in a bit-by-bit
decoder.  A pending prefix of _LONG_BITS or more is no state; its codeword
is looked up on the stream, so a long codeword adds no rows keyed by long
prefixes.
"""

from __future__ import annotations

from itertools import islice
from operator import length_hint
from typing import Sequence

_LONG_BITS = 32

# bytes.translate table from hex digit h to 2 * int(h, 16), its index in a row.
_HEX_ENTRIES = bytes.maketrans(b"0123456789abcdef", bytes(range(0, 32, 2)))
_NIBBLES = [format(c, "04b") for c in range(16)]


class DecodeError(ValueError):
    """A bit stream does not decode under the given code or framing."""


def decode_hex(words: Sequence[str], digits: str, nbits: int) -> list[int]:
    """Decode the first `nbits` bits of the hex digits `digits`, most significant first.

    `words` are the codewords of a prefix-free code, indexed by symbol.
    """
    max_len = max(map(len, words))
    if max_len == 0:
        if nbits:
            raise DecodeError("zero-length codeword is not uniquely decodable")
        return []
    symbol_of = dict(zip(words, range(len(words))))
    lengths = sorted(set(map(len, words)))
    stream = ""  # the stream as "0"/"1" characters, built only for a long codeword
    rows: dict[str, list] = {}
    prefix_of: dict[int, str] = {}
    halves: dict[str, tuple] = {}

    def row_of(prefix: str) -> list:
        if prefix not in rows:
            prefix_of[id(rows.setdefault(prefix, []))] = prefix
        return rows[prefix]

    def walk(prefix: str, bits: str) -> tuple[tuple[int, ...], str]:
        """Feed `bits` to `prefix` one at a time: (symbols, new prefix); stop at max_len bits."""
        symbols: tuple[int, ...] = ()
        for bit in bits:
            prefix += bit
            if (symbol := symbol_of.get(prefix)) is not None:
                symbols += (symbol,)
                prefix = ""
            elif len(prefix) >= max_len:
                break
        return symbols, prefix

    def half(prefix: str) -> tuple:
        if prefix not in halves:
            halves[prefix] = tuple([walk(prefix, pair) for pair in ("00", "01", "10", "11")])
        return halves[prefix]

    full, rest = divmod(nbits, 4)
    nibbles = iter(digits[:full].encode().translate(_HEX_ENTRIES))
    tail = _NIBBLES[int(digits[full], 16)][:rest] if rest else ""
    out: list[int] = []
    row = row_of("")
    while True:  # the for loop is the fast path; a row's first visit lands below it
        try:
            for c in nibbles:
                out += row[c]
                row = row[c + 1]
            break
        except IndexError:
            prefix = prefix_of[id(row)]
        if len(prefix) >= max_len:  # no codeword matches: the walk below raises
            tail = ""
            break
        if len(prefix) < _LONG_BITS:  # fill the row from 2-bit walks, then take nibble c
            for symbols, middle in half(prefix):
                for more, end in half(middle):
                    row += (symbols + more, row_of(end))
            out += row[c]
            row = row[c + 1]
            continue
        # A long codeword: find its length on the stream, not through more states.
        stream = stream or format(int(digits, 16), f"0{4 * len(digits)}b")[:nbits]
        start = 4 * (full - length_hint(nibbles) - 1) - len(prefix)
        ends = (start + n for n in lengths if stream[start : start + n] in symbol_of)
        if (end := next(ends, None)) is None:  # the walk below raises
            tail = stream[start + len(prefix) :]
            break
        out.append(symbol_of[stream[start:end]])
        step = -(-end // 4)  # the first nibble after the codeword
        symbols, prefix = walk("", stream[end : 4 * step])
        out += symbols
        row = row_of(prefix)
        if step > full:  # the codeword ran into the last nbits % 4 bits
            tail = ""
            break
        skip = step - full + length_hint(nibbles)
        next(islice(nibbles, skip, skip), None)
    for filled in rows.values():  # rows refer to each other: free them without the cyclic GC
        filled.clear()
    symbols, prefix = walk(prefix_of[id(row)], tail)
    if len(prefix) >= max_len:
        raise DecodeError(f"bits {prefix[:max_len]!r} match no codeword")
    if prefix:
        raise DecodeError(f"incomplete codeword {prefix!r} at end of stream")
    out += symbols
    return out
