"""Probes for the known numeric defects, run once per invocation outside timing.

The workloads keep their inputs inside the range where the library works
today; these probes show, on every run, whether the defects outside that
range are still there.  A FAIL here is reported, not counted as a failed op.
"""

from __future__ import annotations

import math
from fractions import Fraction

from genspace import distribution, entropy


def _near_certain(dimension: int, small: int) -> distribution.ExactDistribution:
    p = Fraction(small, dimension)
    return distribution.ExactDistribution([p, 1 - p])


def overflow_2e1024() -> str:
    """D above 2^1024 in combinatorial_volumes and entropy_suite."""
    dist = _near_certain(2**1100 + 1, 3)
    try:
        volumes = entropy.combinatorial_volumes(distribution.generic_space(dist))
        suite = entropy.entropy_suite(dist)
    except OverflowError as exc:
        return f"FAIL (OverflowError: {exc})"
    if not (math.isfinite(volumes.log2_ratio) and math.isfinite(suite.shannon_via_ratio)):
        return "FAIL (non-finite result)"
    return "PASS"


def cancellation_k60() -> str:
    """p = (3/D, 1 - 3/D) with D = 2^60 + 1: volume-ratio entropy against direct."""
    dist = _near_certain(2**60 + 1, 3)
    h = entropy.shannon_entropy(dist)
    via = entropy.shannon_via_ratio(distribution.generic_space(dist))
    rel = abs(via - h) / h
    return "PASS" if rel <= 1e-9 else f"FAIL (relative error {rel:.3g})"


def negative_zero() -> str:
    """shannon_entropy must not return -0.0, for a certain or a near-certain distribution."""
    cases = {"p = (1)": distribution.ExactDistribution([1]), "p = (2^-1100, 1 - 2^-1100)": _near_certain(2**1100, 1)}
    bad = [name for name, dist in cases.items() if math.copysign(1.0, entropy.shannon_entropy(dist)) < 0]
    return f"FAIL (-0.0 for {' and '.join(bad)})" if bad else "PASS"


PROBES = {f.__name__: f for f in (overflow_2e1024, cancellation_k60, negative_zero)}


def run_probes() -> dict[str, str]:
    results = {}
    for name, probe in PROBES.items():
        try:
            results[name] = probe()
        except Exception as exc:  # a probe reports any crash as its verdict
            results[name] = f"FAIL ({type(exc).__name__}: {exc})"
    return results
