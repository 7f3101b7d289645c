"""Combinatorial volumes and the entropy family they induce.

For a generic space (D, counts) the volume of the absolutely typical
ensemble is V_info = prod(N_i ** N_i) and the volume of the generic
uniform distribution is V_uinfo = D ** D.  Their ratio R = V_uinfo/V_info
is a pure number >= 1, and (1/D) * log2(R) reproduces the Shannon entropy
of the collapsed distribution, so R ** (1/D) = 2 ** H acts as the
effective dimension: the size of a uniform distribution with equal
uncertainty.

Every formula reads the integer generic space (D, counts) of the
distribution; a probability becomes the float c / D (the correctly rounded
quotient of two integers) only inside the final logarithm or
multiplication.  One kernel, `_log_ratio`, sums (m/d) * log2(a/b) over
integer triples with a derived error bound: the Shannon entropy is the
triples (c, D, c), the joint entropy the same over the cells, mutual
information (m, m*D, r*c), and log2(R) is D * H, formed exactly and rounded
once.  Each is within (4 * bits(D) + 5) eps of the sum of its terms' sizes,
at any D the parser accepts and near certainty too; a log volume past the
float range is inf, never nan.
"""

from __future__ import annotations

import math
from contextlib import suppress
from fractions import Fraction
from typing import Iterable, NamedTuple

from .distribution import ExactDistribution, GenericSpace

__all__ = [
    "VolumeReport",
    "EntropySuite",
    "combinatorial_volumes",
    "shannon_entropy",
    "shannon_via_ratio",
    "effective_dimension",
    "renyi_entropy",
    "tsallis_entropy",
    "projection_ratio",
    "projection_entropy",
    "entropy_suite",
]

#: Above this generic dimension the exact big-integer volumes are skipped
#: and only the log-domain values are reported.
DEFAULT_EXACT_LIMIT = 512


def _in_base(bits: float, base: int) -> float:
    """An entropy in bits converted to logarithm base `base`, an integer >= 2."""
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"logarithm base must be an integer >= 2, got {base!r}")
    return bits / math.log2(base)


class VolumeReport(NamedTuple):
    """Exact and log-domain combinatorial volumes of a generic space.

    `v_info`, `v_uinfo` and `ratio` are present only when the exact path
    ran (`exact_computed`); the log2 fields are always filled in.
    `log2_ratio` is D * H from the entropy kernel, not a difference of the
    log volumes, so log2_ratio / D is within the kernel's bound of H.  Each
    log2 field is inf where its value is past the float range (the log
    volumes from about D = 2^1014), and none is ever nan.
    """

    v_info: int | None
    v_uinfo: int | None
    log2_v_info: float
    log2_v_uinfo: float
    ratio: Fraction | None
    log2_ratio: float
    exact_computed: bool


class EntropySuite(NamedTuple):
    """Bundle of the entropy quantities for one distribution.

    `renyi` and `tsallis` are (order, value) pairs when requested.
    Invariants: 0 <= shannon <= log_b(N) and 1 <= effective_dimension <= N.
    """

    shannon: float
    shannon_via_ratio: float
    effective_dimension: float
    projection: float
    base: int
    renyi: tuple[float, float] | None = None
    tsallis: tuple[float, float] | None = None


def _log_ratio(d: int, triples: Iterable[tuple[int, int, int]]) -> tuple[float, float]:
    """math.fsum of (m/d) * log2(a/b) over integer triples, and a bound on its error.

    For 1 <= m <= d, 1 <= a, b <= d**2 and 1/d <= a/b <= d.  log2(a/b) is
    log2(a) - log2(b), or log1p((a - b)/b) / ln 2 from the exact numerator where
    that difference is below 1 in size; a == b gives exactly 0.0.  Running error
    analysis (Higham, ch. 3), u = eps/2, quotients correctly rounded, log1p and
    log2 within 1 ulp: a log1p term is within 7.5u relative (the condition number
    is at most 1.45 there); log2 of an integer is within 2u log2(a) + 2.5u, so any
    other term is within (2 log2(ab) + 8)u <= (4 bits(d) + 4)eps.  With fsum's u,
    (4 bits(d) + 5) eps sum|term| bounds the error, plus bits(d) subnormals a
    term for a weight, quotient or product below the normal range.
    """
    ln2, log1p, log2 = math.log(2), math.log1p, math.log2
    terms = [m / d * (log1p((a - b) / b) / ln2 if -1.0 < (t := log2(a) - log2(b)) < 1.0 else t)
             for m, a, b in triples]
    bits = d.bit_length()
    bound = (4 * bits + 5) * math.ulp(1.0) * sum(map(abs, terms)) + len(terms) * bits * math.ulp(0.0)
    return math.fsum(terms), bound


def combinatorial_volumes(
    space: GenericSpace | ExactDistribution, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> VolumeReport:
    """Compute V_info = prod(N_i^N_i) and V_uinfo = D^D for a generic space.

    The exact big-integer values (and their exact ratio) are produced when
    the dimension does not exceed `exact_limit`.  The log-domain values
    sum(N_i * log2 N_i) and D * log2 D are computed unconditionally, and are
    inf once they pass the float range.  `log2_ratio` is D * H, with H the
    Shannon entropy from the kernel: formed exactly and rounded once, it is
    finite whenever D * H is and inf otherwise.
    """
    d = space.dimension
    num, den = shannon_entropy(space, 2).as_integer_ratio()
    log2_ratio = log2_v_info = log2_v_uinfo = math.inf
    # A value past the float range stays inf; once D*H is, so are both log volumes.
    with suppress(OverflowError):
        log2_ratio = d * num / den
        log2_v_info = sum(c * math.log2(c) for c in space.counts)
        log2_v_uinfo = d * math.log2(d)
    exact = d <= exact_limit
    if exact:
        v_info = math.prod(c**c for c in space.counts)
        v_uinfo = d**d
        # Shifting out the common power of two first spares Fraction a long gcd
        # when D is a power of two (the exponent is the lowest set bit's index).
        twos = min((v & -v).bit_length() - 1 for v in (v_uinfo, v_info))
        ratio = Fraction(v_uinfo >> twos, v_info >> twos)
    else:
        v_info = v_uinfo = ratio = None
    return VolumeReport(
        v_info=v_info,
        v_uinfo=v_uinfo,
        log2_v_info=log2_v_info,
        log2_v_uinfo=log2_v_uinfo,
        ratio=ratio,
        log2_ratio=log2_ratio,
        exact_computed=exact,
    )


def shannon_entropy(dist: ExactDistribution | GenericSpace, base: int = 2) -> float:
    """-sum(p_i log_b p_i), the kernel over (c_i, D, c_i); a distribution keeps it in bits."""
    bits = getattr(dist, "_bits", None)
    if bits is None:
        bits = _log_ratio(dist.dimension, [(c, dist.dimension, c) for c in dist.counts])[0]
        if isinstance(dist, ExactDistribution):
            dist._bits = bits
    return _in_base(bits, base)


def shannon_via_ratio(space: GenericSpace | ExactDistribution, base: int = 2) -> float:
    """Entropy as (1/D) * log_b of the volume ratio V_uinfo / V_info.

    (1/D) * log2(D^D / prod(N_i^N_i)) = sum((N_i/D) * log2(D/N_i)), which is
    the kernel's sum over (N_i, D, N_i): the same float as
    :func:`shannon_entropy` of the same space, within the kernel's bound at
    every D.
    """
    return shannon_entropy(space, base)


def effective_dimension(dist: ExactDistribution) -> float:
    """R^(1/D) computed as 2^H: the size of an equally uncertain uniform.

    Base-independent because R is a pure ratio; ranges from 1 (certainty)
    to N (uniform).
    """
    return 2.0 ** shannon_entropy(dist, 2)


def _check_order(order: float, family: str) -> None:
    if not (math.isfinite(order) and order > 0 and order != 1):
        raise ValueError(f"{family} order must be finite, > 0 and != 1, got {order}")


def _scaled_power(c: int, top: int, order: float) -> float:
    """(c/top)^r for 1 <= c <= top and r < 1, to a few ulps, also where c/top underflows.

    c/top is q * 2^-k with q in (1/2, 2), and k*r = n + f/den exactly (r = num/den),
    so (c/top)^r = q^r * 2^(-f/den) * 2^-n, each factor a float.
    """
    k, (num, den) = top.bit_length() - c.bit_length(), order.as_integer_ratio()
    n, f = divmod(k * num, den)
    return math.ldexp(((c << k) / top) ** order * 2.0 ** (-f / den), -n)


def renyi_entropy(dist: ExactDistribution, order: float, base: int = 2) -> float:
    """(1 - r)^-1 * log_b(sum p_i^r) for finite r > 0, r != 1: the one power sum.

    With g = ln(D/c_max) and s = ln(1 + sum (c_i/c_max)^r) over the counts
    less one copy of c_max, ln(sum p^r) = s - r*g, and the entropy is
    g + (s - g)/(1 - r) nats: two terms of one sign, and no r*g to overflow.
    g is log1p of the exact D - c_max when D < 2*c_max, so near certainty
    keeps its relative accuracy; certainty gives 0.0, never -0.0.
    """
    _check_order(order, "Renyi")
    d, rest = dist.dimension, list(dist.counts)
    rest.remove(top := max(rest))
    g = math.log1p((d - top) / top) if 2 * top > d else math.log(d / top)
    if order < 1:  # only then can a c/top below the float range matter
        s = math.log1p(math.fsum([_scaled_power(c, top, order) for c in rest]))
    else:
        s = math.log1p(math.fsum([(c / top) ** order for c in rest]))
    return _in_base((g + (s - g) / (1.0 - order)) / math.log(2), base)


def tsallis_entropy(dist: ExactDistribution, order: float) -> float:
    """(q - 1)^-1 * (1 - sum p_i^q) for finite q > 0, q != 1.

    Read off the Renyi entropy, sum p^q = 2^((1-q) H_q), as expm1((1-q) H_q
    ln 2) / (1-q): accurate near certainty, finite at any order.  No base, as
    it is not of logarithmic form; the q -> 1 limit is the natural-log Shannon.
    """
    _check_order(order, "Tsallis")
    return math.expm1((1.0 - order) * renyi_entropy(dist, order, 2) * math.log(2)) / (1.0 - order)


def projection_ratio(dist: ExactDistribution) -> Fraction:
    """Exact product of all probabilities.

    Equals prod(N_i) / D^N: the volume of the hypercuboid with edges N_i
    relative to the hypercube of edge D in the N-dimensional space.  It
    builds D**N exactly, N * log2(D) bits (125 MB at N = 1e5, D ~ 2^10000).
    """
    return Fraction(math.prod(dist.counts), dist.dimension ** dist.size)


def projection_entropy(dist: ExactDistribution, base: int = 2) -> float:
    """log_b(N^2 * prod(p_i)^(1/N)), an entropy measure in measurement space.

    Cheaper than the Shannon entropy and shares its uniform-maximum,
    additivity and grouping behaviour, but can go negative when some
    outcome is very unlikely.  Evaluated in the log domain from the counts,
    as 2 log2 N + sum(log2 N_i) / N - log2 D.
    """
    n = dist.size
    log2_prod = math.fsum(map(math.log2, dist.counts))
    return _in_base(2.0 * math.log2(n) + log2_prod / n - math.log2(dist.dimension), base)


def entropy_suite(
    dist: ExactDistribution,
    base: int = 2,
    renyi_order: float | None = None,
    tsallis_order: float | None = None,
) -> EntropySuite:
    """Evaluate the whole entropy family for one distribution.

    Order 1 is the Shannon limit of both families, which the standalone
    functions refuse: `renyi_order=1` gives the Shannon entropy in `base`,
    `tsallis_order=1` the natural-log Shannon entropy.
    """
    shannon = shannon_entropy(dist, base)
    renyi = tsallis = None
    if renyi_order is not None:
        bits = shannon_entropy(dist, 2) if renyi_order == 1 else renyi_entropy(dist, renyi_order, 2)
        renyi = (renyi_order, _in_base(bits, base))
    if tsallis_order is not None:
        q, ln2 = tsallis_order, math.log(2)
        h = (shannon_entropy(dist, 2) * ln2 if q == 1 else tsallis_entropy(dist, q) if q != renyi_order
             else math.expm1((1.0 - q) * bits * ln2) / (1.0 - q))  # one power sum for equal orders
        tsallis = (q, h)
    return EntropySuite(
        shannon=shannon,
        shannon_via_ratio=shannon_via_ratio(dist, base),
        effective_dimension=effective_dimension(dist),
        projection=projection_entropy(dist, base),
        base=base,
        renyi=renyi,
        tsallis=tsallis,
    )
