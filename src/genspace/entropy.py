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
multiplication.  The tests hold the direct-formula and volume-ratio routes
to an absolute difference of 1e-9 for D <= 512 (acceptance criterion 3);
near-certain inputs with a large D lose digits to cancellation in both
routes (ROADMAP item 1).
"""

from __future__ import annotations

import math
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


def _check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise ValueError(f"logarithm base must be an integer >= 2, got {base!r}")


class VolumeReport(NamedTuple):
    """Exact and log-domain combinatorial volumes of a generic space.

    `v_info`, `v_uinfo` and `ratio` are present only when the exact path
    ran (`exact_computed`); the log2 fields are always filled in.
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


def combinatorial_volumes(
    space: GenericSpace | ExactDistribution, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> VolumeReport:
    """Compute V_info = prod(N_i^N_i) and V_uinfo = D^D for a generic space.

    The exact big-integer values (and their exact ratio) are produced when
    the dimension does not exceed `exact_limit`; log-domain values are
    computed unconditionally as sum(N_i * log2 N_i) and D * log2 D.
    """
    d = space.dimension
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
        log2_ratio=log2_v_uinfo - log2_v_info,
        exact_computed=exact,
    )


def _shannon_bits(dimension: int, counts: Iterable[int]) -> float:
    """sum((c/D) * (log2 D - log2 c)), in bits, over the non-zero counts.

    The terms are >= 0 and the sum starts from the integer 0, so a certain
    distribution gives +0.0, never -0.0.
    """
    log2_d = math.log2(dimension)
    return sum((c / dimension) * (log2_d - math.log2(c)) for c in counts if c)


def shannon_entropy(dist: ExactDistribution, base: int = 2) -> float:
    """-sum(p_i log_b p_i), each term evaluated from the exact count c_i / D."""
    _check_base(base)
    return _shannon_bits(dist.dimension, dist.counts) / math.log2(base)


def shannon_via_ratio(space: GenericSpace | ExactDistribution, base: int = 2) -> float:
    """Entropy as (1/D) * log_b of the volume ratio, in the log domain.

    Equals (D log_b D - sum(N_i log_b N_i)) / D.  The tests hold it within
    1e-9 of :func:`shannon_entropy` of the collapsed distribution for
    D <= 512; near-certain inputs with a large D lose digits to
    cancellation (ROADMAP item 1).
    """
    _check_base(base)
    bits = combinatorial_volumes(space, exact_limit=0).log2_ratio
    return bits / (space.dimension * math.log2(base))


def effective_dimension(dist: ExactDistribution) -> float:
    """R^(1/D) computed as 2^H: the size of an equally uncertain uniform.

    Base-independent because R is a pure ratio; ranges from 1 (certainty)
    to N (uniform).
    """
    return 2.0 ** shannon_entropy(dist, 2)


def _power_sum(dist: ExactDistribution, order: float) -> float:
    """sum(p_i ** order), each p_i the float c_i / D."""
    d = dist.dimension
    return sum((c / d) ** order for c in dist.counts)


def _check_order(order: float, family: str) -> None:
    if not (math.isfinite(order) and order > 0 and order != 1):
        raise ValueError(f"{family} order must be finite, > 0 and != 1, got {order}")


def renyi_entropy(dist: ExactDistribution, order: float, base: int = 2) -> float:
    """(1 - r)^-1 * log_b(sum p_i^r) for finite r > 0, r != 1."""
    _check_base(base)
    _check_order(order, "Renyi")
    return math.log2(_power_sum(dist, order)) / ((1.0 - order) * math.log2(base))


def tsallis_entropy(dist: ExactDistribution, order: float) -> float:
    """(q - 1)^-1 * (1 - sum p_i^q) for finite q > 0, q != 1.

    Not of logarithmic form, so there is no base; the q -> 1 limit is the
    natural-log Shannon entropy.
    """
    _check_order(order, "Tsallis")
    return (1.0 - _power_sum(dist, order)) / (order - 1.0)


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
    _check_base(base)
    n = dist.size
    log2_prod = math.fsum(map(math.log2, dist.counts))
    bits = 2.0 * math.log2(n) + log2_prod / n - math.log2(dist.dimension)
    return bits / math.log2(base)


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
    _check_base(base)
    bits = _shannon_bits(dist.dimension, dist.counts)
    shannon = bits / math.log2(base)
    renyi = None
    if renyi_order is not None:
        h = shannon if renyi_order == 1 else renyi_entropy(dist, renyi_order, base)
        renyi = (renyi_order, h)
    tsallis = None
    if tsallis_order is not None:
        h = bits * math.log(2) if tsallis_order == 1 else tsallis_entropy(dist, tsallis_order)
        tsallis = (tsallis_order, h)
    return EntropySuite(
        shannon=shannon,
        shannon_via_ratio=shannon_via_ratio(dist, base),
        # 2^H in bits, as effective_dimension computes it.
        effective_dimension=2.0**bits,
        projection=projection_entropy(dist, base),
        base=base,
        renyi=renyi,
        tsallis=tsallis,
    )
