"""Geometric probability: unit state vectors, density matrices, measurement.

A distribution embeds into a real Hilbert space as the unit vector whose
components are sqrt(p_i); the probability of an outcome axis is then the
squared inner product (cosine squared of the angle) between state and
axis.  The same vector arises by starting from the uniform state in the
generic space (all components 1/sqrt(D)) and collapsing each block of
counts[i] axes onto its diagonal, which preserves the norm.

Density matrices generalize this to mixed states: a symmetric positive
semidefinite matrix with unit trace, measured by operators m_z that sum
to the identity, yields outcome probabilities trace(rho @ m_z).  A
measurement is one read-only (k, n, n) array, with its operators as views.

Everything works in real arithmetic.  Validation refuses non-finite
entries and takes eigenvalues from LAPACK (``np.linalg.eigvalsh``); the
tests keep a cyclic Jacobi eigensolver as an independent oracle for it.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import _BORN_NAMES
from .distribution import ExactDistribution, _int_tokens, collapse

__all__ = list(_BORN_NAMES)

UNIT_NORM_TOL = 1e-9
SYMMETRY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
COMPLETENESS_TOL = 1e-10
_SAMPLE_BLOCK = 2**14

# A matrix entry: ASCII digits, an optional leading minus, point and exponent.
_DECIMAL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class JspsVector:
    """A unit-norm real vector whose squared components are probabilities.

    Canonical constructions use the nonnegative square root, but negated
    components are accepted: probabilities only see the squares.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[float]):
        arr = np.asarray(tuple(components))
        if np.iscomplexobj(arr):
            raise ValueError("state vector is complex; components must be real")
        arr = arr.astype(float, copy=False)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("state vector must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("state vector components must be finite")
        norm_sq = float(np.dot(arr, arr))
        if abs(norm_sq - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"state vector has squared norm {norm_sq}, expected 1")
        arr.setflags(write=False)
        self.components = arr

    @property
    def size(self) -> int:
        return int(self.components.size)

    def probabilities(self) -> np.ndarray:
        """Squared components; a float probability vector."""
        return self.components**2

    def angles(self) -> np.ndarray:
        """arccos of each component: the angle to each outcome axis."""
        return np.arccos(np.clip(self.components, -1.0, 1.0))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"JspsVector({self.components.tolist()!r})"


def jsps_from_distribution(dist: ExactDistribution) -> JspsVector:
    """Embed a distribution as the unit vector with components sqrt(p_i)."""
    d = dist.dimension
    return JspsVector(math.sqrt(c / d) for c in dist.counts)


def collapse_jsps(dimension: int, counts: Sequence[int]) -> JspsVector:
    """Collapse the uniform generic-space state onto block diagonals.

    Each block of counts[i] axes carrying amplitude 1/sqrt(D) collapses
    onto its diagonal with amplitude sqrt(counts[i]/D); the norm is
    preserved, so the result squares to the collapsed distribution.
    """
    return jsps_from_distribution(collapse(dimension, counts))


def born_probability(psi: JspsVector, outcome: JspsVector) -> float:
    """Probability of `outcome` given state `psi`: their squared inner product."""
    if psi.size != outcome.size:
        raise ValueError(f"dimension mismatch: state {psi.size}, outcome {outcome.size}")
    return float(np.dot(outcome.components, psi.components)) ** 2


def _require_finite(a: np.ndarray, what: str) -> None:
    """Refuse NaN and inf, which fail no tolerance check; leading indices fill `what`."""
    if not np.isfinite(a).all():
        *lead, i, j = index = tuple(np.argwhere(~np.isfinite(a))[0])
        name = what.format(*lead)
        raise ValueError(f"{name} entry ({i}, {j}) is {a[index]}; entries must be finite")


class DensityValidation(NamedTuple):
    """Diagnostics for a candidate density matrix."""

    symmetry_defect: float
    trace_defect: float
    eigenvalues: tuple[float, ...]
    symmetric: bool
    unit_trace: bool
    psd: bool

    @property
    def valid(self) -> bool:
        return self.symmetric and self.unit_trace and self.psd

    def problems(self) -> list[str]:
        return [issue for ok, issue in (
            (self.symmetric, f"symmetry defect {self.symmetry_defect:.3g} > {SYMMETRY_TOL}"),
            (self.unit_trace, f"trace defect {self.trace_defect:.3g} > {TRACE_TOL}"),
            (self.psd, f"minimum eigenvalue {min(self.eigenvalues):.6g} < 0"),
        ) if not ok]


def validate_density(matrix: np.ndarray) -> DensityValidation:
    """Check symmetry, unit trace, and positive semidefiniteness.

    Eigenvalues (ascending) come from ``np.linalg.eigvalsh`` applied to
    the symmetric part; a floor of -1e-10 absorbs rounding in user input.
    Complex entries, even with a zero imaginary part, an empty matrix and
    non-finite entries raise ValueError.
    """
    if np.iscomplexobj(matrix):
        raise ValueError("density matrix is complex; entries must be real")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        raise ValueError("density matrix must be at least 1 x 1")
    _require_finite(a, "matrix")
    symmetry_defect = float(np.max(np.abs(a - a.T), initial=0.0))
    trace_defect = float(abs(np.trace(a) - 1.0))
    eigenvalues = tuple(float(v) for v in np.linalg.eigvalsh((a + a.T) / 2.0))
    return DensityValidation(
        symmetry_defect, trace_defect, eigenvalues, symmetry_defect <= SYMMETRY_TOL,
        trace_defect <= TRACE_TOL, min(eigenvalues) >= EIGENVALUE_FLOOR,
    )


class DensityMatrix:
    """Symmetric positive semidefinite matrix with unit trace."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        if not (report := validate_density(entries)).valid:
            raise ValueError("not a density matrix: " + "; ".join(report.problems()))
        arr = np.array(entries, dtype=float)
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def pure(cls, psi: JspsVector) -> "DensityMatrix":
        """Rank-one density of a pure state: the outer product psi psi^T."""
        return cls(np.outer(psi.components, psi.components))

    @property
    def dimension(self) -> int:
        return int(self.entries.shape[0])


class MeasurementSet:
    """Positive semidefinite operators that sum to the identity.

    Held as one read-only (k, n, n) float array; `operators` are views into it.
    Complex operators are refused, even with a zero imaginary part.
    """

    __slots__ = ("_stack", "operators")

    def __init__(self, operators: Sequence[np.ndarray]):
        if not (ops := tuple(operators)):
            raise ValueError("measurement needs at least one operator")
        try:
            stack = np.stack(ops)
        except ValueError:  # operators of different shapes
            stack = np.empty(0)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("measurement operators must be square and equally sized")
        if not stack.size:
            raise ValueError("measurement operators must be at least 1 x 1")
        if np.iscomplexobj(stack):
            i = next(i for i, op in enumerate(ops) if np.iscomplexobj(op))
            raise ValueError(f"operator {i} is complex; entries must be real")
        stack = stack.astype(float, copy=False)
        _require_finite(stack, "operator {}")
        # S - S^T is exactly antisymmetric, so its largest entry is its largest magnitude.
        asymmetric = (stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL
        if asymmetric.any():
            raise ValueError(f"operator {asymmetric.argmax()} is not symmetric")
        indefinite = np.linalg.eigvalsh(stack)[:, 0] < EIGENVALUE_FLOOR
        if indefinite.any():
            raise ValueError(f"operator {indefinite.argmax()} is not positive semidefinite")
        self._hold(stack)

    def _hold(self, stack: np.ndarray) -> "MeasurementSet":
        """Refuse a stack that does not sum to the identity; hold the rest read-only."""
        if np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1]))) > COMPLETENESS_TOL:
            raise ValueError("measurement operators do not sum to the identity")
        stack.setflags(write=False)
        self._stack, self.operators = stack, tuple(stack)
        return self

    @classmethod
    def von_neumann(cls, basis: Sequence[JspsVector] | np.ndarray) -> "MeasurementSet":
        """Rank-one projectors a a^T over an orthonormal basis, so positive semidefinite."""
        if not (rows := [getattr(b, "components", b) for b in basis]):
            raise ValueError("von Neumann measurement needs at least one basis vector")
        if np.iscomplexobj(mat := np.vstack(rows)):
            raise ValueError("basis is complex; entries must be real")
        mat = mat.astype(float, copy=False)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("von Neumann measurement needs a complete basis")
        _require_finite(mat, "basis")
        gram_defect = np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0])))
        if gram_defect > COMPLETENESS_TOL:
            raise ValueError(f"basis is not orthonormal (Gram defect {gram_defect:.3g})")
        return cls.__new__(cls)._hold(np.einsum("ki,kj->kij", mat, mat))

    @property
    def dimension(self) -> int:
        return int(self._stack.shape[1])

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.operators)


def measure(rho: DensityMatrix, measurement: MeasurementSet) -> list[float]:
    """Outcome probabilities trace(rho @ m_z): one O(k n^2) einsum over the stack.

    Its sums may differ from k separate traces in the last bits.
    """
    if (n := rho.dimension) != (m := measurement.dimension):
        raise ValueError(f"dimension mismatch: state {n}, measurement {m}")
    return np.einsum("ij,kji->k", rho.entries, measurement._stack).tolist()


def sample(psi: JspsVector, seed: int, draws: int) -> list[int]:
    """Per-outcome counts of `draws` draws with probabilities the squared components.

    Inverse-CDF sampling with numpy's PCG64 generator seeded with `seed`, so
    counts reproduce bit-for-bit on a platform: outcome k counts the uniform
    draws u with c[k-1] <= u < c[k], c the cumulative squares, read off sorted
    blocks of 2**14 draws in one buffer: memory is bounded, counts unchanged.
    """
    if draws < 1:
        raise ValueError(f"number of draws must be >= 1, got {draws}")
    cumulative = np.cumsum(psi.probabilities())
    cumulative[-1] = 1.0
    generator = np.random.Generator(np.random.PCG64(seed))
    buffer, below = np.empty(min(draws, _SAMPLE_BLOCK)), 0
    for start in range(0, draws, _SAMPLE_BLOCK):
        block = generator.random(out=buffer[: draws - start])
        block.sort()
        below += np.searchsorted(block, cumulative, side="left")
    return np.diff(below, prepend=0).tolist()


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format: a line "N", then N rows of N decimals.

    N is ASCII digits; an entry is ASCII digits with an optional leading
    minus, decimal point and exponent (`-0.5`, `.5`, `1e+16`), as
    :func:`format_matrix` writes them.  A leading `+`, `_`, other Unicode
    digits, `nan`, `inf` and an entry past the float range are refused.
    """
    lines = [line for line in (l.strip() for l in text.splitlines()) if line]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        (n,) = _int_tokens(lines[0].split())
    except ValueError:
        raise ValueError(f"malformed matrix size line {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, got {n}")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"expected {n} entries per row, got {len(tokens)}: {line!r}")
        row = [float(t) for t in tokens if _DECIMAL.fullmatch(t)]
        # An entry past the float range, such as 1e400, reads as inf.
        if len(row) != n or not all(map(math.isfinite, row)):
            raise ValueError(f"malformed matrix entry in row {line!r}")
        rows.append(row)
    return np.array(rows, dtype=float)


def format_matrix(matrix: np.ndarray) -> str:
    """Inverse of :func:`parse_matrix`; full float precision."""
    a = np.asarray(matrix, dtype=float)
    lines = [str(a.shape[0])]
    lines.extend(" ".join(repr(x) for x in row) for row in a.tolist())
    return "\n".join(lines) + "\n"
