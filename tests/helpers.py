"""Seeded random generators and reference implementations shared by the tests."""

import math
from fractions import Fraction

import numpy as np

from genspace import DecodeError, ExactDistribution, GenericSpace, JointDistribution


def random_composition(rng, total, parts):
    """Positive integers of length `parts` summing to `total`."""
    assert 1 <= parts <= total
    if parts == 1:
        return [total]
    cuts = np.sort(rng.choice(total - 1, size=parts - 1, replace=False) + 1)
    bounds = [0, *cuts.tolist(), total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_distribution(rng, max_outcomes=6, max_denominator=64, min_outcomes=1):
    n = int(rng.integers(min_outcomes, max_outcomes + 1))
    q = int(rng.integers(max(n, 2), max_denominator + 1))
    return ExactDistribution(Fraction(w, q) for w in random_composition(rng, q, n))


def random_generic_space(rng, max_dimension=512, max_parts=6):
    d = int(rng.integers(2, max_dimension + 1))
    parts = int(rng.integers(1, min(max_parts, d) + 1))
    return GenericSpace(d, tuple(random_composition(rng, d, parts)))


def random_dyadic_space(rng, max_log2=12, max_parts=64):
    """Generic space with a power-of-two dimension and power-of-two counts.

    Built by repeatedly halving a random splittable block, which reaches
    every power-of-two composition.
    """
    k = int(rng.integers(1, max_log2 + 1))
    d = 2**k
    target = int(rng.integers(2, min(max_parts, d) + 1))
    counts = [d]
    while len(counts) < target:
        splittable = [i for i, c in enumerate(counts) if c > 1]
        if not splittable:
            break
        c = counts.pop(int(rng.choice(splittable)))
        counts.extend([c // 2, c // 2])
    order = rng.permutation(len(counts))
    return GenericSpace(d, tuple(int(counts[i]) for i in order))


def random_joint(rng, max_rows=8, max_cols=8, max_denominator=64):
    """Random exact joint with strictly positive marginals."""
    r = int(rng.integers(1, max_rows + 1))
    c = int(rng.integers(1, max_cols + 1))
    q = int(rng.integers(r + c, max_denominator + 1))
    weights = np.zeros((r, c), dtype=int)
    for i in range(r):
        weights[i, int(rng.integers(0, c))] += 1
    for j in range(c):
        if weights[:, j].sum() == 0:
            weights[int(rng.integers(0, r)), j] += 1
    remaining = q - int(weights.sum())
    for flat in rng.integers(0, r * c, size=remaining):
        weights[flat // c, flat % c] += 1
    return JointDistribution(
        [[Fraction(int(w), q) for w in row] for row in weights]
    )


def random_unit_vector(rng, dim):
    while True:
        v = rng.normal(size=dim)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def gram_schmidt_basis(rng, dim):
    """Random orthonormal basis, rows of the returned matrix.

    Classical Gram-Schmidt with a second orthogonalization pass to push the
    Gram defect down to rounding level.
    """
    basis = []
    while len(basis) < dim:
        v = rng.normal(size=dim)
        for _ in range(2):
            for b in basis:
                v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            basis.append(v / norm)
    return np.vstack(basis)


def reference_decode(code, bits):
    """Bit-by-bit decoder: the oracle for the table-driven `genspace.decode`.

    Grows the current prefix one bit at a time and emits a symbol as soon as
    the prefix is a codeword; raises DecodeError with the same messages.
    """
    if set(bits) - {"0", "1"}:
        raise DecodeError("stream contains characters other than 0 and 1")
    table = {w: i for i, w in enumerate(code.codewords) if w}
    if not table and bits:
        raise DecodeError("zero-length codeword is not uniquely decodable")
    max_len = max((len(w) for w in code.codewords), default=0)
    out = []
    current = ""
    for bit in bits:
        current += bit
        symbol = table.get(current)
        if symbol is not None:
            out.append(symbol)
            current = ""
        elif len(current) >= max_len:
            raise DecodeError(f"bits {current!r} match no codeword")
    if current:
        raise DecodeError(f"incomplete codeword {current!r} at end of stream")
    return out


MAX_EIGEN_DIM = 64


def jacobi_eigenvalues(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    The independent oracle for the LAPACK ``eigvalsh`` validation in
    `genspace.born`.  Sweeps row-cyclically over the upper triangle,
    annihilating each off-diagonal entry with a plane rotation, until the
    off-diagonal Frobenius norm drops to `tol`.  Ascending-sorted
    eigenvalues.

    Intended for desk-scale validation; dimensions above 64 are refused.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n > MAX_EIGEN_DIM:
        raise ValueError(f"eigensolver supports dimensions <= {MAX_EIGEN_DIM}, got {n}")
    if np.max(np.abs(a - a.T), initial=0.0) > 1e-8:
        raise ValueError("eigensolver requires a symmetric matrix")
    if n == 1:
        return a.diagonal().copy()

    off_mask = ~np.eye(n, dtype=bool)

    def off_norm() -> float:
        # Summed directly over the off-diagonal entries; subtracting the
        # diagonal from the full norm would cancel catastrophically here.
        return math.sqrt(float(np.sum(a[off_mask] ** 2)))

    for _ in range(max_sweeps):
        if off_norm() <= tol:
            return np.sort(a.diagonal().copy())
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    a[p, q] = a[q, p] = 0.0
                    continue
                # Rotation with |angle| <= pi/4 (tan = t), which keeps the
                # cyclic sweep monotonically convergent; hypot avoids
                # overflow when the diagonal gap dwarfs the entry.
                tau = float(a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0:
                    t = 1.0 / (tau + math.hypot(tau, 1.0))
                else:
                    t = -1.0 / (-tau + math.hypot(tau, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
    if off_norm() <= tol:
        return np.sort(a.diagonal().copy())
    raise RuntimeError(f"Jacobi iteration did not converge in {max_sweeps} sweeps")


def reference_sample(psi, seed, draws):
    """Per-draw inverse-CDF sampler: the oracle for `genspace.sample`.

    Looks each uniform draw up in the cumulative squared components with
    ``searchsorted(..., side="right")`` and counts the outcomes.
    """
    if draws < 1:
        raise ValueError(f"number of draws must be >= 1, got {draws}")
    cumulative = np.cumsum(psi.probabilities())
    cumulative[-1] = 1.0
    rng = np.random.Generator(np.random.PCG64(seed))
    outcomes = np.searchsorted(cumulative, rng.random(draws), side="right")
    return [int(c) for c in np.bincount(outcomes, minlength=psi.size)]
