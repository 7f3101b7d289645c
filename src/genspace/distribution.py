"""Exact rational distributions and their generic-space form.

A finite distribution whose probabilities are reduced fractions n_i/d_i can
be rewritten over the common denominator D = lcm(d_1, ..., d_N) as counts
N_i = n_i * D / d_i with sum(N_i) = D.  D is the smallest uniform sample
space that collapses onto the observed distribution when the N_i outcomes
of each group are merged into one indistinguishable outcome; we call D the
generic dimension and the pair (D, counts) the generic space.

Everything here is exact, and a distribution is its own generic space: it
stores the integers (D, counts), reduced so that gcd(D, *counts) == 1, and
no operation rounds.  :func:`collapse` takes any uniform space onto that
reduced form.  `fractions.Fraction` views of the probabilities are built
only at the edges, on request.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = [
    "ExactDistribution",
    "parse_distribution",
    "format_distribution",
    "generic_space",
    "collapse",
    "tensor_product",
]

Space = tuple[int, tuple[int, ...]]  # a generic space (D, counts)

def _int_tokens(tokens: Sequence[str]) -> list[int]:
    """The values of tokens of ASCII digits [0-9]+, which int() alone does not enforce."""
    # One check over all the tokens at once; int() itself refuses an empty one.
    # isascii(): int() and str.isdigit() also take other Unicode digits.
    # encode(): bytes.isdigit() took 7.6 us, str.isdigit() 86 us, on 20 KB of digits (3.11).
    joined = "".join(tokens)
    if joined and not (joined.isascii() and joined.encode().isdigit()):
        raise ValueError("malformed integer token")
    return list(map(int, tokens))


def _rational_tokens(tokens: Sequence[str], kind: str, positive: bool = False) -> tuple:
    """The numerator and denominator lists of "n/d" or "n" tokens of ASCII digits.

    One check covers every token; the per-token pass after a failure, a zero
    denominator, (with `positive`) a zero numerator or a part past int()'s digit
    limit names the first bad `kind` token.
    """
    parts = [token.partition("/") for token in tokens]
    nums = [num for num, _, _ in parts]
    dens = [den if slash else "1" for _, slash, den in parts]
    with suppress(ValueError):  # a malformed token, or one past int()'s digit limit
        values = _int_tokens(nums + dens)
        ints = values[:len(nums)], values[len(nums):]
        if 0 not in ints[1] and not (positive and 0 in ints[0]):
            return ints
    # Python versions without the limit have no such function; 0 means no limit.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for token, num, den in zip(tokens, nums, dens):
        digits = num + den
        if not (num and den and digits.isascii() and digits.isdigit()):
            raise ValueError(f"malformed {kind} token {token!r}")
        if limit and (n := max(len(num), len(den))) > limit:
            detail = f"({n} digits; at most {limit})"
            raise ValueError(f"malformed {kind} token '{token[:20]}...' {detail}")
        if int(den) == 0:
            raise ValueError(f"malformed {kind} token {token!r} (zero denominator)")
        if int(num) == 0 and positive:
            raise ValueError(f"zero {kind} token {token!r}")
    raise AssertionError("every token passed its own check")


def _common_space(nums: Sequence[int], dens: Sequence[int], what: str = "probabilities") -> Space:
    """The generic space of the ratios nums[i] / dens[i].

    D is the lcm of the denominators, and the space is then divided by
    gcd(D, *counts), which makes it unique.
    """
    if not nums:
        raise ValueError("distribution needs at least one outcome")
    dimension = math.lcm(*dens)
    counts = [num * (dimension // den) for num, den in zip(nums, dens)]
    total = sum(counts)
    if total != dimension:
        raise ValueError(f"{what} sum to {Fraction(total, dimension)}, expected 1")
    g = math.gcd(dimension, *counts)
    return dimension // g, tuple(c // g for c in counts)


class _ReducedSpace:
    """A reduced integer space: `dimension` D and the `counts` over it.

    The reduced form is unique, so equality and hashing read (D, counts),
    and only within one subclass.
    """

    __slots__ = ("dimension", "counts")

    @classmethod
    def _of(cls, dimension: int, counts: tuple):
        """Wrap a valid, reduced space without re-checking it."""
        obj = cls.__new__(cls)
        obj.dimension, obj.counts = dimension, counts
        return obj

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.dimension == other.dimension and self.counts == other.counts

    def __hash__(self) -> int:
        return hash((self.dimension, self.counts))


class ExactDistribution(_ReducedSpace):
    """An ordered list of strictly positive rationals that sum to exactly 1.

    Stored as its reduced generic space: `dimension` D and integer
    `counts`, with p_i = counts[i] / D.  Input order defines outcome
    identity; entries are never sorted or deduplicated.  `probs`, the reduced
    `Fraction` view, is built on each request and not kept (an int index is
    O(1)); `_bits` is the Shannon entropy in bits that the entropy layer keeps.
    """

    __slots__ = ("_bits",)

    def __init__(self, probs: Iterable[Fraction | int]):
        entries = tuple(Fraction(p) for p in probs)
        for i, p in enumerate(entries):
            if p.numerator <= 0:
                raise ValueError(f"probability at index {i} is {p}; all must be > 0")
        nums, dens = [p.numerator for p in entries], [p.denominator for p in entries]
        self.dimension, self.counts = _common_space(nums, dens)

    @property
    def probs(self) -> tuple[Fraction, ...]:
        """The probabilities as reduced fractions counts[i] / dimension."""
        return tuple(Fraction(c, self.dimension) for c in self.counts)

    @property
    def size(self) -> int:
        """Number of outcomes in the measurement space."""
        return len(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.probs)

    def __getitem__(self, i: int | slice) -> Fraction | tuple[Fraction, ...]:
        return self.probs[i] if isinstance(i, slice) else Fraction(self.counts[i], self.dimension)

    def __repr__(self) -> str:
        return f"ExactDistribution({format_distribution(self)!r})"


def parse_distribution(text: str) -> ExactDistribution:
    """Parse whitespace-separated "n/d" (or integer "n") tokens.

    A '#' starts a comment that runs to the end of the line.  Tokens are
    ASCII digits; they need not be reduced.
    """
    tokens = [token for line in text.splitlines() for token in line.split("#", 1)[0].split()]
    nums, dens = _rational_tokens(tokens, "probability", positive=True)
    return ExactDistribution._of(*_common_space(nums, dens))


def format_distribution(dist: ExactDistribution) -> str:
    """Canonical one-line form: reduced "n/d" tokens, single-space separated."""
    return " ".join(f"{p.numerator}/{p.denominator}" for p in dist.probs)


def generic_space(dist: ExactDistribution) -> ExactDistribution:
    """The minimal generic space of a distribution: the distribution itself.

    A distribution stores its reduced space (D, counts), whose dimension is
    the lcm of the reduced denominators, the smallest D for which every
    D * p_i is an integer; the counts are then coprime as a set.
    """
    return dist


def collapse(dimension: int, counts: Sequence[int]) -> ExactDistribution:
    """Merge each block of a uniform `dimension`-outcome space into one outcome.

    Returns the distribution with p_i = counts[i] / dimension, stored over
    the space divided by gcd(dimension, *counts), so (600, (300, 300))
    gives the space (2, (1, 1)).  The dimension and every count must be of
    type int (a bool is refused), every count >= 1, and they must sum to
    the dimension.
    """
    counts = tuple(counts)
    if type(dimension) is not int or set(map(type, counts)) - {int}:
        bad = next(x for x in (dimension, *counts) if type(x) is not int)
        raise TypeError(f"dimension and counts must be ints, got {bad!r}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not counts:
        raise ValueError("counts must be non-empty")
    for i, c in enumerate(counts):
        if c < 1:
            raise ValueError(f"count at index {i} is {c}; all must be >= 1")
    if sum(counts) != dimension:
        raise ValueError(f"counts sum to {sum(counts)} but dimension is {dimension}")
    g = math.gcd(dimension, *counts)
    return ExactDistribution._of(dimension // g, tuple(c // g for c in counts))


def tensor_product(p: ExactDistribution, q: ExactDistribution) -> ExactDistribution:
    """Joint distribution of two independent variables, row-major order."""
    # gcd(a_i * b_j) = gcd(a) * gcd(b) = 1, so the product space is reduced.
    return ExactDistribution._of(
        p.dimension * q.dimension, tuple(a * b for a in p.counts for b in q.counts)
    )
