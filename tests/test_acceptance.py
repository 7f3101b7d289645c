"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`) and enforces its runtime budget.
"""

import contextlib
import math
import sys
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from genspace import (
    DensityMatrix,
    ExactDistribution,
    JspsVector,
    MeasurementSet,
    average_length,
    born_probability,
    build_generic_code,
    check_inequalities,
    collapse,
    combinatorial_volumes,
    conditional_entropy,
    decode,
    encode,
    generic_space,
    huffman_oracle,
    joint_entropy,
    jsps_from_distribution,
    marginals,
    measure,
    mutual_information,
    parse_distribution,
    product_joint,
    projection_entropy,
    renyi_entropy,
    sample,
    shannon_entropy,
    shannon_via_ratio,
    tensor_product,
    tsallis_entropy,
)
from genspace.entropy import _log_ratio
from helpers import (
    decimal_shannon_entropy,
    gram_schmidt_basis,
    random_distribution,
    random_dyadic_space,
    random_generic_space,
    random_joint,
    random_unit_vector,
    random_wide_space,
)

F = Fraction


@contextlib.contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[criterion {number}] PASS: {description} ({elapsed:.2f}s)")


def test_criterion_1_reference_coin_table():
    rows = [
        ("1/2 1/2", 2, 2.0000),
        ("1/4 3/4", 4, 1.7548),
        ("1/16 15/16", 16, 1.2634),
        ("1/256 255/256", 256, 1.0259),
    ]
    with criterion(1, "reference coin table: generic and effective dimensions", 1.0):
        for text, expected_dim, expected_eff in rows:
            dist = parse_distribution(text)
            space = generic_space(dist)
            assert space.dimension == expected_dim
            eff = 2.0 ** shannon_entropy(dist, 2)
            assert abs(eff - expected_eff) <= 5e-4


def test_criterion_2_dyadic_coding_example():
    with criterion(2, "dyadic four-symbol code meets entropy exactly", 1.0):
        dist = ExactDistribution([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
        code = build_generic_code(generic_space(dist))
        assert code.codewords == ("0", "10", "110", "111")
        assert code.mode == "exact"
        stats = average_length(code, dist)
        assert stats.average_length == F(7, 4)
        # Every probability is a power of two, so the entropy itself is the
        # rational sum p_i * (-log2 p_i) with integer logs.
        exact_entropy = sum(
            (p * (p.denominator.bit_length() - 1) for p in dist.probs), start=F(0)
        )
        assert stats.average_length == exact_entropy
        assert stats.entropy_gap == 0.0


def test_criterion_3_entropy_identity_on_random_generic_spaces():
    rng = np.random.default_rng(30303)
    with criterion(3, "volume-ratio entropy identity on 1300 generic spaces", 10.0):
        for _ in range(1000):
            space = random_generic_space(rng, max_dimension=512, max_parts=6)
            via_ratio = shannon_via_ratio(space, 2)
            direct = shannon_entropy(collapse(space.dimension, space.counts), 2)
            assert abs(via_ratio - direct) <= 1e-9
            report = combinatorial_volumes(space, exact_limit=512)
            assert report.exact_computed
            exact_log2_ratio = math.log2(report.ratio.numerator) - math.log2(
                report.ratio.denominator
            )
            assert abs(exact_log2_ratio - report.log2_ratio) <= 1e-9
        # Past D = 512, up to 2^4096: both routes and log2_ratio / D within the
        # entropy kernel's bound of a decimal oracle, near-certain spaces included.
        for _ in range(300):
            space = random_wide_space(rng, max_bits=4096, max_parts=6)
            d = space.dimension
            reference = decimal_shannon_entropy(d, space.counts)
            _, bound = _log_ratio(d, [(c, d, c) for c in space.counts])
            via_ratio = shannon_via_ratio(space, 2)
            direct = shannon_entropy(collapse(d, space.counts), 2)
            log2_ratio = combinatorial_volumes(space, exact_limit=0).log2_ratio
            values = [Decimal(via_ratio), Decimal(direct)]
            if math.isinf(log2_ratio):  # only where D * H is past the float range
                assert d * reference > Decimal(sys.float_info.max)
            else:
                values.append(Decimal(log2_ratio) / d)
            for value in values:
                assert abs(value - reference) <= Decimal(bound)


def test_criterion_4_dyadic_coding_optimality():
    rng = np.random.default_rng(40404)
    with criterion(4, "dyadic codes: Kraft 1, entropy equality, round trips", 10.0):
        for _ in range(200):
            space = random_dyadic_space(rng, max_log2=12, max_parts=64)
            code = build_generic_code(space)
            assert code.mode == "exact"
            assert code.kraft_sum() == 1
            dist = collapse(space.dimension, space.counts)
            exact_entropy = sum(
                (p * (p.denominator.bit_length() - 1) for p in dist.probs),
                start=F(0),
            )
            assert average_length(code, dist).average_length == exact_entropy
            assert average_length(huffman_oracle(dist), dist).average_length == (
                exact_entropy
            )
            symbols = [int(s) for s in rng.integers(0, space.size, size=10_000)]
            assert decode(code, encode(code, symbols)) == symbols


def test_criterion_5_projection_entropy_properties():
    rng = np.random.default_rng(50505)
    with criterion(5, "projection entropy: uniform, additivity, grouping, sign", 5.0):
        for n in range(2, 65):
            uniform = ExactDistribution([F(1, n)] * n)
            assert abs(projection_entropy(uniform, 2) - math.log2(n)) <= 1e-9
        for _ in range(100):
            p = random_distribution(rng)
            q = random_distribution(rng)
            assert abs(
                projection_entropy(tensor_product(p, q), 2)
                - projection_entropy(p, 2)
                - projection_entropy(q, 2)
            ) <= 1e-9
        for _ in range(500):
            dist = random_distribution(rng, min_outcomes=2)
            n = dist.size
            p_last = dist.probs[-1]
            t = F(int(rng.integers(1, 32)), 32)
            split = ExactDistribution(
                dist.probs[:-1] + (p_last * t, p_last * (1 - t))
            )
            inner = ExactDistribution([t, 1 - t])
            rhs = (
                n / (n + 1) * projection_entropy(dist, 2)
                + 2 / (n + 1) * projection_entropy(inner, 2)
                + math.log2(float(p_last)) / (n + 1)
                + 2 * math.log2(n + 1)
                - (n / (n + 1)) * 2 * math.log2(n)
                - (2 / (n + 1)) * 2 * math.log2(2)
            )
            assert abs(projection_entropy(split, 2) - rhs) <= 1e-9
        assert projection_entropy(ExactDistribution([F(1, 100), F(99, 100)]), 2) < 0


def test_criterion_6_information_inequalities():
    rng = np.random.default_rng(60606)
    with criterion(6, "information inequalities on 1000 random joints", 10.0):
        for _ in range(1000):
            joint = random_joint(rng, max_rows=8, max_cols=8, max_denominator=64)
            x, y = marginals(joint)
            h_x = shannon_entropy(x, 2)
            h_y = shannon_entropy(y, 2)
            h_xy = joint_entropy(joint, 2)
            h_x_given_y = conditional_entropy(joint, 2)
            h_y_given_x = conditional_entropy(joint.transpose(), 2)
            mi_xy = h_x - h_x_given_y
            mi_yx = h_y - h_y_given_x
            assert h_x >= h_x_given_y - 1e-12
            assert mi_xy >= -1e-12
            assert abs(mi_xy - mi_yx) <= 1e-12
            assert abs(h_xy - (h_y + h_x_given_y)) <= 1e-12
            assert check_inequalities(joint).all_pass
        for _ in range(100):
            joint = product_joint(random_distribution(rng), random_distribution(rng))
            assert mutual_information(joint, 2) <= 1e-12


def test_criterion_7_born_rule():
    rng = np.random.default_rng(70707)
    with criterion(7, "Born rule: Parseval sums, pure-state traces, sampling", 10.0):
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            psi = JspsVector(random_unit_vector(rng, dim))
            basis = gram_schmidt_basis(rng, dim)
            axes = [JspsVector(row) for row in basis]
            projections = [born_probability(psi, a) for a in axes]
            assert abs(sum(projections) - 1.0) <= 1e-10
            rho = DensityMatrix.pure(psi)
            probs = measure(rho, MeasurementSet.von_neumann(basis))
            for traced, projected in zip(probs, projections):
                assert abs(traced - projected) <= 1e-12
        counts = sample(
            jsps_from_distribution(ExactDistribution([F(2, 3), F(1, 3)])),
            seed=42,
            draws=100_000,
        )
        sigma = math.sqrt(100_000 * 2 / 9)
        assert abs(counts[0] - 66_667) <= 4 * sigma


def test_criterion_8_renyi_tsallis_limits():
    rng = np.random.default_rng(80808)
    with criterion(8, "Renyi/Tsallis order-1 limits approach Shannon", 5.0):
        for _ in range(100):
            dist = random_distribution(rng)
            h_bits = shannon_entropy(dist, 2)
            h_nats = h_bits * math.log(2)
            for order in (1.0 + 1e-6, 1.0 - 1e-6):
                assert abs(renyi_entropy(dist, order, 2) - h_bits) <= 1e-4
                assert abs(tsallis_entropy(dist, order) - h_nats) <= 1e-4
