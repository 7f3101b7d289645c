"""Exact two-variable joints: marginals, conditional entropy, mutual information.

A joint is stored as an integer matrix of counts over one common
denominator D, reduced so that gcd(D, *cells) == 1; the `Fraction` view
`cells` is built on each request, not kept.  Zero cells are allowed (0 log
0 counts as 0) as long as every row and column keeps positive mass, so the
marginals are always valid distributions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .distribution import (
    ExactDistribution,
    _common_space,
    _int_tokens,
    _rational_tokens,
    _ReducedSpace,
    collapse,
    tensor_product,
)
from .entropy import _in_base, _log_ratio, shannon_entropy

__all__ = [
    "JointDistribution",
    "InequalityReport",
    "product_joint",
    "marginals",
    "joint_entropy",
    "conditional_entropy",
    "mutual_information",
    "check_inequalities",
    "parse_joint",
    "format_joint",
]


def _rows(flat: Sequence[int], width: int) -> tuple:
    """`flat` cut into rows of `width` cells, in row-major order."""
    return tuple(zip(*[iter(flat)] * width))


def _common_matrix(nums: Sequence[int], dens: Sequence[int], width: int) -> tuple[int, tuple]:
    """The reduced integer matrix, `width` cells a row, of the ratios nums[i] / dens[i]."""
    if not nums or not width:
        raise ValueError("joint distribution must have at least one cell")
    for i, num in enumerate(nums):
        if num < 0:
            cell = Fraction(num, dens[i])
            raise ValueError(f"cell ({i // width},{i % width}) is negative: {cell}")
    dimension, flat = _common_space(nums, dens, "cells")
    counts = _rows(flat, width)
    for what, lines in (("row", counts), ("column", zip(*counts))):
        for i, line in enumerate(lines):
            if not any(line):
                raise ValueError(f"{what} {i} has zero mass")
    return dimension, counts


class JointDistribution(_ReducedSpace):
    """An R x C matrix of non-negative rationals summing to exactly 1.

    Stored as `dimension` D and the integer matrix `counts`, with cell
    (r, c) equal to counts[r][c] / D; `cells` is the reduced `Fraction`
    view, built on each request and not kept.
    """

    __slots__ = ()

    def __init__(self, cells: Iterable[Iterable[Fraction | int]]):
        rows = tuple(tuple(Fraction(c) for c in row) for row in cells)
        width = len(rows[0]) if rows else 0
        if width and any(len(row) != width for row in rows):
            raise ValueError("all rows must have the same number of cells")
        flat = [c for row in rows for c in row]
        nums, dens = [c.numerator for c in flat], [c.denominator for c in flat]
        self.dimension, self.counts = _common_matrix(nums, dens, width)

    @property
    def cells(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(c, self.dimension) for c in r) for r in self.counts)

    @property
    def rows(self) -> int:
        return len(self.counts)

    @property
    def cols(self) -> int:
        return len(self.counts[0])

    def transpose(self) -> "JointDistribution":
        return JointDistribution._of(self.dimension, tuple(zip(*self.counts)))


def product_joint(px: ExactDistribution, py: ExactDistribution) -> JointDistribution:
    """The independent joint with cells p_i * q_j: `tensor_product` in rows."""
    prod = tensor_product(px, py)
    return JointDistribution._of(prod.dimension, _rows(prod.counts, py.size))


def marginals(joint: JointDistribution) -> tuple[ExactDistribution, ExactDistribution]:
    """Exact row-sum (X) and column-sum (Y) distributions."""
    d, counts = joint.dimension, joint.counts
    return collapse(d, list(map(sum, counts))), collapse(d, list(map(sum, zip(*counts))))


def joint_entropy(joint: JointDistribution, base: int = 2) -> float:
    """H(X, Y): the entropy kernel over the non-zero cells m, as the triples (m, D, m)."""
    d = joint.dimension
    return _in_base(_log_ratio(d, [(m, d, m) for row in joint.counts for m in row if m])[0], base)


def _information(joint: JointDistribution) -> tuple[float, float, list[int], list[int]]:
    """I(X; Y) in bits, a bound on its rounding error, and the row and column sums.

    The entropy kernel over the non-zero cells m (row sum r, column sum c) as
    (m, m*D, r*c): independence gives exactly 0.0, the transpose the same sum.
    """
    d, counts = joint.dimension, joint.counts
    rows, cols = list(map(sum, counts)), list(map(sum, zip(*counts)))
    triples = [(m, m * d, r * c) for r, row in zip(rows, counts) for c, m in zip(cols, row) if m]
    return (*_log_ratio(d, triples), rows, cols)


def mutual_information(joint: JointDistribution, base: int = 2) -> float:
    """I(X; Y): exactly 0.0 on an independent joint, and the same float as I(Y; X)."""
    return _in_base(_information(joint)[0], base)


def conditional_entropy(joint: JointDistribution, base: int = 2) -> float:
    """H(X | Y) = H(X) - I(X; Y)."""
    x, _ = marginals(joint)
    return shannon_entropy(x, base) - mutual_information(joint, base)


class InequalityReport(NamedTuple):
    """Entropy quantities of a joint and the elementary inequality verdicts."""

    h_x: float
    h_y: float
    h_joint: float
    h_x_given_y: float
    h_y_given_x: float
    mi_xy: float
    mi_yx: float
    independent: bool
    conditioning_reduces_entropy: bool
    mi_nonnegative: bool
    mi_symmetric: bool
    independence_consistent: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.conditioning_reduces_entropy
            and self.mi_nonnegative
            and self.mi_symmetric
            and self.independence_consistent
        )


def check_inequalities(joint: JointDistribution) -> InequalityReport:
    """Verify H(X) >= H(X|Y), I >= 0, and I(X;Y) = I(Y;X) on one joint.

    H(X|Y) = H(X) - I and H(Y|X) = H(Y) - I.  The kernel's terms do not
    depend on the order of X and Y, so `mi_yx` is the float `mi_xy` and
    `mi_symmetric` holds by construction.  I >= 0 (and so H(X) >= H(X|Y))
    is judged against the kernel's error bound.  Independence is decided in
    integers, counts[r][c] * D == row_r * col_c, and then I must be 0.0.
    """
    mi, bound, rows, cols = _information(joint)
    d, counts = joint.dimension, joint.counts
    h_x, h_y = shannon_entropy(collapse(d, rows), 2), shannon_entropy(collapse(d, cols), 2)
    independent = all(m * d == r * c for r, row in zip(rows, counts) for c, m in zip(cols, row))
    return InequalityReport(
        h_x=h_x,
        h_y=h_y,
        h_joint=joint_entropy(joint, 2),
        h_x_given_y=h_x - mi,
        h_y_given_x=h_y - mi,
        mi_xy=mi,
        mi_yx=mi,
        independent=independent,
        conditioning_reduces_entropy=mi >= -bound,
        mi_nonnegative=mi >= -bound,
        mi_symmetric=True,
        independence_consistent=not independent or mi == 0.0,
    )


def parse_joint(text: str) -> JointDistribution:
    """Parse the joint file format: a "R C" line, then R rows of C rationals.

    '#' comments run to end of line; blank lines are skipped.
    """
    lines = [body for raw in text.splitlines() if (body := raw.split("#", 1)[0].strip())]
    if not lines:
        raise ValueError("empty joint file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"expected header 'R C', got {lines[0]!r}")
    try:
        n_rows, n_cols = _int_tokens(header)
    except ValueError:
        raise ValueError(f"malformed header {lines[0]!r}") from None
    if len(lines) != n_rows + 1:
        raise ValueError(f"expected {n_rows} joint rows, got {len(lines) - 1}")
    tokens: list[str] = []
    for line in lines[1:]:
        row = line.split()
        if len(row) != n_cols:
            # A malformed token in an earlier row is the first error.
            _rational_tokens(tokens, "rational")
            raise ValueError(f"expected {n_cols} cells per row, got {len(row)}: {line!r}")
        tokens += row
    return JointDistribution._of(*_common_matrix(*_rational_tokens(tokens, "rational"), n_cols))


def format_joint(joint: JointDistribution) -> str:
    """Inverse of :func:`parse_joint`."""
    lines = [f"{joint.rows} {joint.cols}"]
    lines.extend(
        " ".join(f"{c.numerator}/{c.denominator}" for c in row) for row in joint.cells
    )
    return "\n".join(lines) + "\n"
