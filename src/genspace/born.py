"""Geometric probability: unit state vectors, density matrices, measurement.

A distribution embeds into a real Hilbert space as the unit vector whose
components are sqrt(p_i); the probability of an outcome axis is then the
squared inner product (cosine squared of the angle) between state and
axis.  The same vector arises by starting from the uniform state in the
generic space (all components 1/sqrt(D)) and collapsing each block of
counts[i] axes onto its diagonal, which preserves the norm.

Density matrices generalize this to mixed states: a symmetric positive
semidefinite matrix with unit trace, measured by operators m_z that sum
to the identity, yields outcome probabilities trace(rho @ m_z).

Everything works in real arithmetic.  Validation refuses non-finite
entries and takes eigenvalues from LAPACK (``np.linalg.eigvalsh``); the
tests keep a cyclic Jacobi eigensolver as an independent oracle for it.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .distribution import ExactDistribution, _int_tokens, collapse

__all__ = [
    "JspsVector",
    "DensityMatrix",
    "DensityValidation",
    "MeasurementSet",
    "jsps_from_distribution",
    "collapse_jsps",
    "born_probability",
    "measure",
    "validate_density",
    "sample",
    "parse_matrix",
    "format_matrix",
]

UNIT_NORM_TOL = 1e-9
SYMMETRY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
COMPLETENESS_TOL = 1e-10

# A matrix entry: ASCII digits, an optional leading minus, point and exponent.
_DECIMAL = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class JspsVector:
    """A unit-norm real vector whose squared components are probabilities.

    Canonical constructions use the nonnegative square root, but negated
    components are accepted: probabilities only see the squares.
    """

    __slots__ = ("components",)

    def __init__(self, components: Iterable[float]):
        arr = np.asarray(tuple(components), dtype=float)
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
    """Refuse NaN and inf: every tolerance comparison against NaN is False."""
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"{what} entry ({i}, {j}) is {a[i, j]}; entries must be finite")


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
        issues = []
        if not self.symmetric:
            issues.append(f"symmetry defect {self.symmetry_defect:.3g} > {SYMMETRY_TOL}")
        if not self.unit_trace:
            issues.append(f"trace defect {self.trace_defect:.3g} > {TRACE_TOL}")
        if not self.psd:
            issues.append(f"minimum eigenvalue {min(self.eigenvalues):.6g} < 0")
        return issues


def validate_density(matrix: np.ndarray) -> DensityValidation:
    """Check symmetry, unit trace, and positive semidefiniteness.

    Eigenvalues (ascending) come from ``np.linalg.eigvalsh`` applied to
    the symmetric part; a floor of -1e-10 absorbs rounding in user input.
    Non-finite entries raise ValueError.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a, "matrix")
    symmetry_defect = float(np.max(np.abs(a - a.T), initial=0.0))
    trace_defect = float(abs(np.trace(a) - 1.0))
    eigenvalues = tuple(float(v) for v in np.linalg.eigvalsh((a + a.T) / 2.0))
    return DensityValidation(
        symmetry_defect=symmetry_defect,
        trace_defect=trace_defect,
        eigenvalues=eigenvalues,
        symmetric=symmetry_defect <= SYMMETRY_TOL,
        unit_trace=trace_defect <= TRACE_TOL,
        psd=min(eigenvalues) >= EIGENVALUE_FLOOR,
    )


class DensityMatrix:
    """Symmetric positive semidefinite matrix with unit trace."""

    __slots__ = ("entries",)

    def __init__(self, entries: np.ndarray):
        arr = np.array(entries, dtype=float)
        report = validate_density(arr)
        if not report.valid:
            raise ValueError("not a density matrix: " + "; ".join(report.problems()))
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
    """Positive semidefinite operators that sum to the identity."""

    __slots__ = ("operators",)

    def __init__(self, operators: Sequence[np.ndarray], _validated: bool = False):
        ops = tuple(np.array(op, dtype=float) for op in operators)
        if not ops:
            raise ValueError("measurement needs at least one operator")
        n = ops[0].shape[0]
        for op in ops:
            if op.ndim != 2 or op.shape != (n, n):
                raise ValueError("measurement operators must be square and equally sized")
        if not _validated:
            for i, op in enumerate(ops):
                _require_finite(op, f"operator {i}")
                if np.max(np.abs(op - op.T)) > SYMMETRY_TOL:
                    raise ValueError(f"operator {i} is not symmetric")
                if np.linalg.eigvalsh(op)[0] < EIGENVALUE_FLOOR:
                    raise ValueError(f"operator {i} is not positive semidefinite")
        total = sum(ops)
        if np.max(np.abs(total - np.eye(n))) > COMPLETENESS_TOL:
            raise ValueError("measurement operators do not sum to the identity")
        for op in ops:
            op.setflags(write=False)
        self.operators = ops

    @classmethod
    def von_neumann(cls, basis: Sequence[JspsVector] | np.ndarray) -> "MeasurementSet":
        """Rank-one projectors a a^T over an orthonormal basis.

        Orthonormality is checked directly (it already implies the
        operators are positive semidefinite and sum to the identity).
        """
        rows = [
            b.components if isinstance(b, JspsVector) else np.asarray(b, dtype=float)
            for b in basis
        ]
        mat = np.vstack(rows)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError("von Neumann measurement needs a complete basis")
        _require_finite(mat, "basis")
        gram_defect = np.max(np.abs(mat @ mat.T - np.eye(mat.shape[0])))
        if gram_defect > COMPLETENESS_TOL:
            raise ValueError(f"basis is not orthonormal (Gram defect {gram_defect:.3g})")
        return cls([np.outer(r, r) for r in rows], _validated=True)

    @property
    def dimension(self) -> int:
        return int(self.operators[0].shape[0])

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.operators)


def measure(rho: DensityMatrix, measurement: MeasurementSet) -> list[float]:
    """Outcome probabilities trace(rho @ m_z) for each operator."""
    if rho.dimension != measurement.dimension:
        raise ValueError(
            f"dimension mismatch: state {rho.dimension}, measurement {measurement.dimension}"
        )
    return [float(np.trace(rho.entries @ op)) for op in measurement]


def sample(psi: JspsVector, seed: int, draws: int) -> list[int]:
    """Draw outcomes with probabilities equal to the squared components.

    Inverse-CDF sampling over the cumulative squared components c, driven
    by numpy's PCG64 generator seeded with `seed`, so counts are
    reproducible bit-for-bit on a given platform: outcome k counts the
    uniform draws u with c[k-1] <= u < c[k], read off the sorted draws.
    Returns per-outcome counts summing to `draws`.
    """
    if draws < 1:
        raise ValueError(f"number of draws must be >= 1, got {draws}")
    cumulative = np.cumsum(psi.probabilities())
    cumulative[-1] = 1.0
    u = np.random.Generator(np.random.PCG64(seed)).random(draws)
    u.sort()
    return np.diff(np.searchsorted(u, cumulative, side="left"), prepend=0).tolist()


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
