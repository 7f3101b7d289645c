"""Seeded random generators and reference implementations shared by the tests."""

import decimal
import heapq
import math
import re
import sys
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from hypothesis import target

from genspace import DecodeError, ExactDistribution, JointDistribution, PrefixCode, collapse
from genspace.born import COMPLETENESS_TOL, EIGENVALUE_FLOOR, SYMMETRY_TOL
from genspace.coding import _require_bits
from genspace.distribution import _int_tokens


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


def reduced_space(dimension, counts):
    """collapse(dimension, counts) over the same D, for two or more counts.

    While gcd(D, *counts) > 1, one unit moves from the largest count to the
    next, so the space is reduced without shrinking D.  One outcome has only
    the space (1, (1,)).
    """
    counts = list(counts)
    i = counts.index(max(counts))
    while len(counts) > 1 and math.gcd(dimension, *counts) > 1:
        counts[i] -= 1
        counts[(i + 1) % len(counts)] += 1
    return collapse(dimension, counts)


def random_generic_space(rng, max_dimension=512, max_parts=6):
    d = int(rng.integers(2, max_dimension + 1))
    parts = int(rng.integers(1, min(max_parts, d) + 1))
    return reduced_space(d, random_composition(rng, d, parts))


def random_wide_space(rng, max_bits=4096, max_parts=6):
    """A generic space with D up to 2**max_bits: a third near-certain, the rest random.

    A near-certain space puts 1-10 units on every part but the last.
    """
    bits = int(rng.integers(1, max_bits + 1))
    parts = int(rng.integers(1, max_parts + 1))
    if rng.random() < 1 / 3:
        small = [int(x) for x in rng.integers(1, 11, size=parts - 1)]
        d = sum(small) + 1 + int.from_bytes(rng.bytes(bits // 8 + 1), "little") % 2**bits
        return reduced_space(d, (*small, d - sum(small)))
    d = max(parts, int.from_bytes(rng.bytes(bits // 8 + 1), "little") % 2**bits)
    cuts = sorted({1 + int.from_bytes(rng.bytes(bits // 8 + 1), "little") % (d - 1)
                   for _ in range(parts - 1)}) if d > 1 else []
    edges = [0, *cuts, d]
    return reduced_space(d, [b - a for a, b in zip(edges, edges[1:])])


def random_dyadic_space(rng, max_log2=12, max_parts=64):
    """Generic space with a power-of-two dimension and power-of-two counts.

    Built by repeatedly halving a random splittable block, which reaches
    every power-of-two composition, then reduced: D is 2^k over the
    smallest count.
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
    return collapse(d, [int(counts[i]) for i in order])


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


# Width in bits of the window decoder's root window (zlib's inflate uses 9), so the
# root table has at most 2**_ROOT_BITS entries.
_ROOT_BITS = 10


def _window_table(words, lengths):
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


def _decode_error(bits, pos, max_len):
    """The error for a stream whose codeword starting at `pos` fails to match."""
    _require_bits(bits, DecodeError)
    if len(bits) - pos >= max_len:
        return DecodeError(f"bits {bits[pos : pos + max_len]!r} match no codeword")
    return DecodeError(f"incomplete codeword {bits[pos:]!r} at end of stream")


def window_decode(code, bits):
    """The 10-bit window decoder that `genspace.decode` replaced, kept verbatim.

    A second oracle next to `reference_decode`: same outcomes and messages.
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


def reference_measurement_set(ops):
    """Per-operator checks: the oracle for the stacked `MeasurementSet` checks.

    Copies each operator, then checks finiteness, symmetry and positivity
    one operator at a time, and completeness last, with the library's
    messages and tolerances.  Returns the copies.
    """
    ops = tuple(np.array(op, dtype=float) for op in ops)
    if not ops:
        raise ValueError("measurement needs at least one operator")
    n = ops[0].shape[0]
    for op in ops:
        if op.ndim != 2 or op.shape != (n, n):
            raise ValueError("measurement operators must be square and equally sized")
    for i, op in enumerate(ops):
        if not np.isfinite(op).all():
            r, c = np.argwhere(~np.isfinite(op))[0]
            raise ValueError(f"operator {i} entry ({r}, {c}) is {op[r, c]}; entries must be finite")
        if np.max(np.abs(op - op.T)) > SYMMETRY_TOL:
            raise ValueError(f"operator {i} is not symmetric")
        if np.linalg.eigvalsh(op)[0] < EIGENVALUE_FLOOR:
            raise ValueError(f"operator {i} is not positive semidefinite")
    if np.max(np.abs(sum(ops) - np.eye(n))) > COMPLETENESS_TOL:
        raise ValueError("measurement operators do not sum to the identity")
    return ops


def reference_measure(rho, ops):
    """The k traces trace(rho @ m_z): the oracle for the one-einsum `measure`."""
    return [float(np.trace(rho.entries @ op)) for op in ops]


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


# --- Fraction and per-item oracles -------------------------------------------
# The rational-arithmetic implementations the library used before it stored
# distributions and joints as integer generic spaces, and the heap Huffman,
# code builders and regex token parsers it used before its linear passes; the
# differential tests compare the library with them, results and messages.

_ORACLE_TOKEN = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def fraction_parse(text):
    """Probabilities of a distribution file, as a tuple of reduced Fractions."""
    probs = []
    for line in text.splitlines():
        for token in line.split("#", 1)[0].split():
            m = _ORACLE_TOKEN.fullmatch(token)
            if m is None or int(m.group(2) or 1) == 0:
                raise ValueError(f"malformed probability token {token!r}")
            p = Fraction(int(m.group(1)), int(m.group(2) or 1))
            if p == 0:
                raise ValueError(f"zero probability token {token!r}")
            probs.append(p)
    if not probs or sum(probs) != 1:
        raise ValueError("probabilities must sum to 1")
    return tuple(probs)


def fraction_generic_space(probs):
    """(D, counts): D the lcm of the reduced denominators, counts p_i * D."""
    dimension = math.lcm(*(p.denominator for p in probs))
    return dimension, tuple(p.numerator * (dimension // p.denominator) for p in probs)


def fraction_shannon_entropy(probs, base=2):
    """-sum(p log_b p) over the non-zero probabilities, per reduced Fraction."""
    bits = 0.0 - sum(
        float(p) * (math.log2(p.numerator) - math.log2(p.denominator)) for p in probs if p
    )
    return bits / math.log2(base)


def fraction_projection_ratio(probs):
    return math.prod(probs, start=Fraction(1))


def fraction_projection_entropy(probs):
    """2 log2 N + log2(prod(p_i)) / N in bits, from the exact Fraction product."""
    ratio = fraction_projection_ratio(probs)
    log2_ratio = math.log2(ratio.numerator) - math.log2(ratio.denominator)
    return 2.0 * math.log2(len(probs)) + log2_ratio / len(probs)


def heap_huffman_lengths(weights):
    """Huffman codeword lengths from a heap of (weight, lowest index, tree) nodes.

    The construction `huffman_oracle` used before its two-queue one: ties
    go to the subtree holding the lowest original index, and the lengths
    are read off by walking the tuple tree.
    """
    n = len(weights)
    if n == 1:
        return [0]
    # The index is unique per node, so the tree itself is never compared.
    heap = [(w, i, i) for i, w in enumerate(weights)]
    heapq.heapify(heap)
    while len(heap) > 1:
        w1, i1, t1 = heapq.heappop(heap)
        w2, i2, t2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, min(i1, i2), (t1, t2)))
    lengths = [0] * n
    stack = [(heap[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = depth
    return lengths


def fraction_huffman(probs):
    """Huffman codewords over a heap of Fraction weights, assigned canonically."""
    return reference_canonical_codewords(heap_huffman_lengths(probs))


def heap_huffman(dist):
    """`huffman_oracle` as built from a heap over the integer counts."""
    return PrefixCode(reference_canonical_codewords(heap_huffman_lengths(dist.counts)))


def reference_canonical_codewords(lengths):
    """Canonical codewords, sorted by the key (length, index) and written with format()."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    words = [""] * len(lengths)
    code = 0
    prev_len = 0
    for i in order:
        length = lengths[i]
        code <<= length - prev_len
        if length > 0 and code >> length:
            raise ValueError("codeword lengths violate the Kraft inequality")
        words[i] = format(code, f"0{length}b") if length > 0 else ""
        code += 1
        prev_len = length
    return tuple(words)


def reference_generic_code(space):
    """`build_generic_code` as the paper's block prefixes when D and every count are powers of two.

    Otherwise Shannon lengths, assigned canonically.
    """
    d, counts = space.dimension, space.counts
    if d & (d - 1) == 0 and all(c & (c - 1) == 0 for c in counts):
        total_bits = d.bit_length() - 1
        order = sorted(range(len(counts)), key=lambda i: (-counts[i], i))
        words = [""] * len(counts)
        offset = 0
        for i in order:
            length = total_bits - (counts[i].bit_length() - 1)
            prefix = offset >> (total_bits - length)
            words[i] = format(prefix, f"0{length}b") if length > 0 else ""
            offset += counts[i]
        return PrefixCode(tuple(words))
    lengths = []
    for c in counts:
        length = max(d.bit_length() - c.bit_length(), 0)
        lengths.append(length + ((c << length) < d))
    return PrefixCode(reference_canonical_codewords(lengths))


def reference_prefix_code_error(words):
    """The message `PrefixCode(words)` raises, by the per-word checks, or None."""
    for i, word in enumerate(words):
        if set(word) - {"0", "1"}:
            return f"codeword {i} is not a bitstring: {word!r}"
        if word == "" and len(words) > 1:
            return "empty codeword only allowed in a one-symbol code"
    ordered = sorted(words)
    for shorter, longer in zip(ordered, ordered[1:]):
        if longer.startswith(shorter):
            return f"not prefix-free: {shorter!r} is a prefix of {longer!r}"
    return None


def fraction_joint_cells(text):
    """The cells of a joint file, as a tuple of rows of reduced Fractions."""
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [row for row in rows if row][1:]
    return tuple(tuple(Fraction(*map(int, t.split("/"))) for t in row) for row in rows)


def fraction_marginals(cells):
    """Row sums and column sums of a Fraction matrix."""
    return tuple(sum(row) for row in cells), tuple(sum(col) for col in zip(*cells))


def fraction_independent(cells):
    """Every cell equals the product of its marginals, as rationals."""
    x, y = fraction_marginals(cells)
    return all(cell == x[r] * y[c] for r, row in enumerate(cells) for c, cell in enumerate(row))


def _regex_token(token, kind):
    """(num, den) of one token by the regex, with the messages of the parsers."""
    m = _ORACLE_TOKEN.fullmatch(token)
    if m is None:
        raise ValueError(f"malformed {kind} token {token!r}")
    limit = sys.get_int_max_str_digits()
    n = max(len(m.group(1)), len(m.group(2) or ""))
    if limit and n > limit:
        detail = f"({n} digits; at most {limit})"
        raise ValueError(f"malformed {kind} token '{token[:20]}...' {detail}")
    den = int(m.group(2) or 1)
    if den == 0:
        raise ValueError(f"malformed {kind} token {token!r} (zero denominator)")
    return int(m.group(1)), den


def regex_parse_distribution(text):
    """`parse_distribution` reading one token at a time with a regex."""
    probs = []
    for line in text.splitlines():
        for token in line.split("#", 1)[0].split():
            num, den = _regex_token(token, "probability")
            if num == 0:
                raise ValueError(f"zero probability token {token!r}")
            probs.append(Fraction(num, den))
    return ExactDistribution(probs)


def regex_parse_joint(text):
    """`parse_joint` reading one row, then one token, at a time with a regex."""
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append(body)
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
    rows = []
    for line in lines[1:]:
        tokens = line.split()
        if len(tokens) != n_cols:
            raise ValueError(f"expected {n_cols} cells per row, got {len(tokens)}: {line!r}")
        rows.append([Fraction(*_regex_token(t, "rational")) for t in tokens])
    return JointDistribution(rows)


def _token(draw, count, dimension):
    """count/dimension as a token: reduced, or times k/k for a drawn k > 1."""
    if count == 0 and draw(st.booleans()):
        return "0"
    g = math.gcd(count, dimension)
    k = draw(st.integers(1, 4))
    num, den = count // g * k, dimension // g * k
    return str(num) if den == 1 else f"{num}/{den}"


def _composition(draw, total, parts):
    """`parts` positive integers summing to `total`, from distinct cut points."""
    cuts = sorted(draw(st.sets(st.integers(1, total - 1), min_size=parts - 1, max_size=parts - 1)))
    edges = [0, *cuts, total]
    return [b - a for a, b in zip(edges, edges[1:])]


@st.composite
def distribution_texts(draw, max_bits=4096, max_outcomes=8):
    """A valid distribution file over D' up to 2**max_bits, tokens often not reduced.

    The token denominators share D' (possibly scaled per token), whose gcd
    with the counts need not be 1, so the reduced D can be smaller.
    """
    dimension = draw(st.integers(1, 2**max_bits))
    n = draw(st.integers(1, min(max_outcomes, dimension)))
    counts = _composition(draw, dimension, n) if n > 1 else [dimension]
    return " ".join(_token(draw, c, dimension) for c in counts)


@st.composite
def joint_texts(draw, max_bits=4096, max_side=5):
    """A valid joint file with zero cells, over a D' up to 2**max_bits."""
    rows = draw(st.integers(1, max_side))
    cols = draw(st.integers(1, max_side))
    # Cells that keep every row and column positive, plus any drawn others.
    support = {(r, r % cols) for r in range(rows)} | {(c % rows, c) for c in range(cols)}
    for r in range(rows):
        for c in range(cols):
            if draw(st.booleans()):
                support.add((r, c))
    dimension = draw(st.integers(len(support), 2**max_bits))
    masses = iter(_composition(draw, dimension, len(support)) if len(support) > 1 else [dimension])
    counts = [[next(masses) if (r, c) in support else 0 for c in range(cols)] for r in range(rows)]
    lines = [" ".join(_token(draw, x, dimension) for x in row) for row in counts]
    return f"{rows} {cols}\n" + "\n".join(lines) + "\n"


# --- decimal oracle ---------------------------------------------------------


def decimal_projection_entropy(dimension, counts, base=2):
    """log_b(N^2 * prod(c_i / D)^(1/N)) in 60-digit decimal arithmetic, as a float.

    Each log(c_i / D) has at most the size of log D, so for D below
    2**(10**6) its absolute error is under 1e-50 and only the final
    rounding to float is left.
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        n = len(counts)
        nats = 2 * dec(n).ln() + sum((dec(c) / dec(dimension)).ln() for c in counts) / n
        return float(nats / dec(base).ln())


def decimal_log_ratio(dimension, triples):
    """sum((m/D) * log2(a/b)) over integer triples, as a 60-digit Decimal.

    With x = a/b - 1 and |x| < 1e-15 the logarithm is the series of
    ln(1 + x), so its error stays near 1e-45 relative however close to 1 the
    ratio is.
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        total = dec(0)
        for m, a, b in triples:
            x = dec(a - b) / dec(b)
            if abs(x) < dec("1e-15"):
                ln = x - x**2 / 2 + x**3 / 3 - x**4 / 4
            else:
                ln = (dec(a) / dec(b)).ln()
            total += dec(m) / dec(dimension) * ln
        return total / dec(2).ln()


def within_bound(value, reference, bound, label):
    """|value - reference| <= bound, in exact decimals; hypothesis maximises the ratio."""
    err = abs(decimal.Decimal(value) - reference)
    target(float(err / decimal.Decimal(bound)) if bound else float(err > 0), label=f"{label} error/bound")
    return err <= decimal.Decimal(bound)


def decimal_shannon_entropy(dimension, counts):
    """H in bits of the space (D, counts), zero counts skipped, as a 60-digit Decimal."""
    return decimal_log_ratio(dimension, [(c, dimension, c) for c in counts if c])


def decimal_mutual_information(dimension, counts):
    """I(X; Y) in bits of an integer joint over `dimension`, as a 60-digit Decimal.

    Each term is (m/D) * log2(m*D / (r*c)), from the exact integers.
    """
    rows, cols = [sum(row) for row in counts], [sum(col) for col in zip(*counts)]
    return decimal_log_ratio(dimension, [
        (m, m * dimension, r * c) for r, row in zip(rows, counts) for c, m in zip(cols, row) if m
    ])


def fraction_renyi_entropy(probs, order):
    """log2(sum p^r) / (1 - r) from the reduced Fractions, in 60-digit decimal arithmetic."""
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        total = sum((dec(p.numerator) / dec(p.denominator)) ** dec(order) for p in probs)
        return float(total.ln() / dec(2).ln() / (1 - dec(order)))


def _decimal_log1p(x):
    """ln(1 + x) of a Decimal, by its series where 1 + x would round x away."""
    if abs(x) < decimal.Decimal("1e-20"):
        return x - x**2 / 2 + x**3 / 3 - x**4 / 4
    return (1 + x).ln()


def decimal_renyi_tsallis(dimension, counts, order):
    """Renyi entropy in bits and Tsallis entropy of (D, counts), as 80-digit Decimals.

    sum p^r - 1 is formed as expm1(r * ln p_max) plus the other terms, each
    from its series near 0, so near certainty it does not cancel to 0.
    """
    dec = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        r, rest = dec(order), list(counts)
        top = max(rest)
        rest.remove(top)
        y = r * _decimal_log1p(dec(top - dimension) / dec(dimension))
        expm1 = y + y**2 / 2 + y**3 / 6 + y**4 / 24 if abs(y) < dec("1e-20") else y.exp() - 1
        dev = expm1 + sum((dec(c) / dec(dimension)) ** r for c in rest)
        return _decimal_log1p(dev) / (1 - r) / dec(2).ln(), dev / (1 - r)


@st.composite
def wide_spaces(draw, max_bits=4096, max_outcomes=8):
    """A generic space over D up to 2**max_bits: near-certain, near-uniform or random.

    Near-certain spaces put 1-10 units on every outcome but the last;
    near-uniform ones move up to 1000 units between equal counts.  Each is
    reduced over the D drawn (:func:`reduced_space`).
    """
    n = draw(st.integers(1, max_outcomes))
    top = 2 ** draw(st.integers(1, max_bits))
    kind = draw(st.sampled_from(["near-certain", "near-uniform", "random"]))
    if kind == "near-certain":
        small = [draw(st.integers(1, 10)) for _ in range(n - 1)]
        dimension = draw(st.integers(sum(small) + 1, max(sum(small) + 1, top)))
        counts = [*small, dimension - sum(small)]
    elif kind == "near-uniform":
        counts = [draw(st.integers(1, max(1, top // n)))] * n
        for _ in range(draw(st.integers(0, 3))):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            moved = min(draw(st.integers(0, 1000)), counts[i] - 1)
            counts[i] -= moved
            counts[j] += moved
        dimension = sum(counts)
    else:
        dimension = draw(st.integers(n, max(n, top)))
        counts = _composition(draw, dimension, n) if n > 1 else [dimension]
    return reduced_space(dimension, counts)


@st.composite
def near_certain_counts(draw, max_bits=4096, max_side=4):
    """An integer joint whose last cell holds all but a few units of the mass."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    counts = [[draw(st.integers(1, 100)) for _ in range(cols)] for _ in range(rows)]
    counts[-1][-1] = draw(st.integers(1, 2**max_bits))
    return counts


@st.composite
def far_below_product_counts(draw, max_bits=4096, max_side=4):
    """An n x n integer joint, n >= 2, whose diagonal cells m have m * D far below r * c."""
    n = draw(st.integers(2, max_side))
    big = st.integers(2 ** (max_bits // 2), 2**max_bits)
    small = st.integers(1, 100)
    return [[draw(small if i == j else big) for j in range(n)] for i in range(n)]


@st.composite
def near_independent_counts(draw, max_bits=2048, max_side=4):
    """A product matrix p_i * q_j with up to 1000 units moved from one cell to another.

    The p_i and q_j are up to 2**bits, for a drawn bits <= max_bits.
    """
    bits = draw(st.integers(1, max_bits))
    side = st.lists(st.integers(1, 2**bits), min_size=1, max_size=max_side)
    p, q = draw(side), draw(side)
    counts = [[x * y for y in q] for x in p]
    (i, j), (k, l) = (draw(st.tuples(st.integers(0, len(p) - 1), st.integers(0, len(q) - 1)))
                      for _ in range(2))
    moved = min(draw(st.integers(0, 1000)), counts[i][j] - 1)
    counts[i][j] -= moved
    counts[k][l] += moved
    return counts
