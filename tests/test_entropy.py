import math
import sys
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from genspace import (
    ExactDistribution,
    GenericSpace,
    average_length,
    build_generic_code,
    combinatorial_volumes,
    effective_dimension,
    entropy,
    entropy_suite,
    generic_space,
    projection_entropy,
    projection_ratio,
    renyi_entropy,
    shannon_entropy,
    shannon_via_ratio,
    tensor_product,
    tsallis_entropy,
)
from genspace.distribution import collapse, parse_distribution
from genspace.entropy import DEFAULT_EXACT_LIMIT, _log_ratio
from helpers import (
    _composition,
    decimal_projection_entropy,
    decimal_renyi_tsallis,
    decimal_shannon_entropy,
    distribution_texts,
    fraction_parse,
    fraction_projection_entropy,
    fraction_projection_ratio,
    fraction_renyi_entropy,
    fraction_shannon_entropy,
    near_certain_counts,
    random_distribution,
    wide_spaces,
    within_bound,
)

F = Fraction

DYADIC = ExactDistribution([F(1, 2), F(1, 4), F(1, 8), F(1, 8)])
BENT_COIN = ExactDistribution([F(2, 3), F(1, 3)])


class TestCombinatorialVolumes:
    def test_bent_coin_volumes(self):
        report = combinatorial_volumes(GenericSpace(3, (2, 1)))
        assert report.v_info == 4  # 2^2 * 1^1
        assert report.v_uinfo == 27  # 3^3
        assert report.ratio == F(27, 4)

    def test_fair_coin_volumes(self):
        report = combinatorial_volumes(GenericSpace(2, (1, 1)))
        assert (report.v_info, report.v_uinfo) == (1, 4)
        assert report.ratio == 4

    def test_dyadic_volumes_match_entropy_power(self):
        report = combinatorial_volumes(GenericSpace(8, (4, 2, 1, 1)))
        assert report.v_info == 4**4 * 2**2
        assert report.v_uinfo == 8**8
        # R = 2^(D * H) with D = 8 and H = 7/4.
        assert report.ratio == 2 ** int(8 * 1.75)

    def test_exact_path_skipped_above_limit(self):
        space = GenericSpace(600, (300, 300))
        report = combinatorial_volumes(space, exact_limit=512)
        assert not report.exact_computed
        assert report.v_info is None and report.v_uinfo is None and report.ratio is None
        assert report.log2_ratio == pytest.approx(600.0, abs=1e-9)

    def test_log_domain_agrees_with_exact(self):
        rng = np.random.default_rng(2203)
        for _ in range(50):
            space = generic_space(random_distribution(rng, min_outcomes=2))
            report = combinatorial_volumes(space)
            assert report.exact_computed
            assert math.log2(report.v_uinfo) == pytest.approx(
                report.log2_v_uinfo, rel=1e-9
            )
            if report.v_info > 1:
                assert math.log2(report.v_info) == pytest.approx(
                    report.log2_v_info, rel=1e-9
                )
            assert report.log2_ratio == pytest.approx(
                report.log2_v_uinfo - report.log2_v_info, abs=1e-12
            )
            assert report.ratio >= 1

    def test_ratio_is_one_exactly_for_single_outcome(self):
        assert combinatorial_volumes(GenericSpace(7, (7,))).ratio == 1
        rng = np.random.default_rng(2207)
        for _ in range(30):
            space = generic_space(random_distribution(rng, min_outcomes=2))
            assert combinatorial_volumes(space).ratio > 1


@st.composite
def exact_volume_spaces(draw):
    """Dyadic spaces, whose volumes share a large power of two, and spaces of odd D."""
    if draw(st.booleans()):
        dimension = 2 ** draw(st.integers(0, 12))
        counts = [dimension]
        for i in draw(st.lists(st.integers(0, 63), max_size=40)):
            if counts[i % len(counts)] > 1:
                half = counts.pop(i % len(counts)) // 2
                counts += [half, half]
    else:
        dimension = 2 * draw(st.integers(1, 2047)) + 1
        counts = _composition(draw, dimension, draw(st.integers(1, min(dimension, 8))))
    return GenericSpace(dimension, tuple(counts))


@given(exact_volume_spaces())
@example(GenericSpace(4096, (64,) * 64))
def test_exact_ratio_is_the_reduced_fraction(space):
    report = combinatorial_volumes(space, exact_limit=space.dimension)
    assert report.ratio == Fraction(report.v_uinfo, report.v_info)
    assert (report.v_info, report.v_uinfo) == (
        math.prod(c**c for c in space.counts),
        space.dimension**space.dimension,
    )


class TestShannonEntropy:
    def test_dyadic_example(self):
        assert shannon_entropy(DYADIC, 2) == 1.75

    def test_fair_coin(self):
        assert shannon_entropy(ExactDistribution([F(1, 2), F(1, 2)]), 2) == 1.0

    def test_quarter_coin(self):
        # -(1/4) log2(1/4) - (3/4) log2(3/4)
        assert shannon_entropy(ExactDistribution([F(1, 4), F(3, 4)]), 2) == pytest.approx(
            0.8112781244591328, abs=1e-12
        )

    def test_base_must_be_integer_at_least_two(self):
        with pytest.raises(ValueError):
            shannon_entropy(DYADIC, 1)
        with pytest.raises(ValueError):
            shannon_entropy(DYADIC, 2.5)

    @pytest.mark.parametrize(
        "dist",
        [ExactDistribution([F(1)]), ExactDistribution([F(1, 2**1100), 1 - F(1, 2**1100)])],
    )
    def test_certain_and_near_certain_give_positive_zero(self, dist):
        for base in (2, 10):
            h = shannon_entropy(dist, base)
            assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_base_change(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            dist = random_distribution(rng)
            h2 = shannon_entropy(dist, 2)
            for base in (3, 10):
                assert shannon_entropy(dist, base) * math.log2(base) == pytest.approx(
                    h2, abs=1e-9
                )


class TestShannonViaRatio:
    def test_dyadic_example(self):
        assert shannon_via_ratio(GenericSpace(8, (4, 2, 1, 1)), 2) == pytest.approx(
            1.75, abs=1e-12
        )

    def test_fair_coin(self):
        assert shannon_via_ratio(GenericSpace(2, (1, 1)), 2) == pytest.approx(1.0)

    def test_bent_coin_equals_direct_formula(self):
        via = shannon_via_ratio(GenericSpace(3, (2, 1)), 2)
        assert via == pytest.approx(math.log2(27 / 4) / 3, abs=1e-12)
        assert via == pytest.approx(shannon_entropy(BENT_COIN, 2), abs=1e-12)

    def test_identity_with_direct_formula_random(self):
        rng = np.random.default_rng(505)
        for _ in range(100):
            dist = random_distribution(rng)
            space = generic_space(dist)
            for base in (2, 3, 10):
                assert shannon_via_ratio(space, base) == pytest.approx(
                    shannon_entropy(dist, base), abs=1e-9
                )

    def test_scale_invariance(self):
        # Replacing (D, counts) by (kD, k * counts) is a per-dimension no-op.
        rng = np.random.default_rng(606)
        for _ in range(30):
            dist = random_distribution(rng, min_outcomes=2)
            space = generic_space(dist)
            reference = shannon_via_ratio(space, 2)
            for k in (2, 3, 7):
                scaled = GenericSpace(
                    k * space.dimension, tuple(k * c for c in space.counts)
                )
                assert shannon_via_ratio(scaled, 2) == pytest.approx(
                    reference, abs=1e-9
                )


class TestEffectiveDimension:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/2 1/2", 2.0),
            ("1/4 3/4", 1.7548),
            ("1/16 15/16", 1.2634),
            ("1/256 255/256", 1.0259),
        ],
    )
    def test_reference_coins(self, text, expected):
        from genspace import parse_distribution

        assert effective_dimension(parse_distribution(text)) == pytest.approx(
            expected, abs=5e-4
        )

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(707)
        for _ in range(50):
            dist = random_distribution(rng)
            eff = effective_dimension(dist)
            assert 1.0 - 1e-12 <= eff <= dist.size + 1e-9
        uniform = ExactDistribution([F(1, 5)] * 5)
        assert effective_dimension(uniform) == pytest.approx(5.0, abs=1e-9)
        near_certain = ExactDistribution([F(1, 4096), F(4095, 4096)])
        assert effective_dimension(near_certain) < 1.01


class TestRenyiEntropy:
    def test_uniform_all_orders_equal_log_n(self):
        fair = ExactDistribution([F(1, 2), F(1, 2)])
        assert renyi_entropy(fair, 2.0, 2) == pytest.approx(1.0, abs=1e-12)
        assert renyi_entropy(fair, 0.5, 2) == pytest.approx(1.0, abs=1e-12)

    def test_collision_entropy(self):
        # sum p^2 = 1/16 + 9/16 = 5/8, so H_2 = -log2(5/8) = log2(8/5)
        dist = ExactDistribution([F(1, 4), F(3, 4)])
        assert renyi_entropy(dist, 2.0, 2) == pytest.approx(
            math.log2(8 / 5), abs=1e-12
        )

    def test_order_one_limit_approaches_shannon(self):
        assert renyi_entropy(DYADIC, 1.0 + 1e-6, 2) == pytest.approx(1.75, abs=1e-4)
        assert renyi_entropy(DYADIC, 1.0 - 1e-6, 2) == pytest.approx(1.75, abs=1e-4)

    def test_invalid_orders(self):
        for order in (1.0, 0.0, -2.0):
            with pytest.raises(ValueError):
                renyi_entropy(DYADIC, order, 2)

    def test_large_order_does_not_underflow(self):
        # sum p^2000 = 2^-1999 is below the float range; the true value is 1 bit.
        fair = ExactDistribution([F(1, 2), F(1, 2)])
        assert renyi_entropy(fair, 2000.0, 2) == 1.0
        assert entropy_suite(fair, renyi_order=2000).renyi == (2000, 1.0)

    @pytest.mark.parametrize("order", [2.0, 0.5])
    def test_matches_fraction_oracle(self, order):
        rng = np.random.default_rng(909)
        dists = [random_distribution(rng) for _ in range(50)]
        dists.append(ExactDistribution([F(3, 2**64 + 1), F(2**64 - 2, 2**64 + 1)]))
        for dist in dists:
            expected = fraction_renyi_entropy(dist.probs, order)
            assert renyi_entropy(dist, order, 2) == pytest.approx(expected, abs=1e-12)

    def test_monotone_nonincreasing_in_order(self):
        rng = np.random.default_rng(808)
        orders = (0.25, 0.5, 0.99, 1.01, 2.0, 4.0)
        for _ in range(25):
            dist = random_distribution(rng)
            values = [renyi_entropy(dist, r, 2) for r in orders]
            for lo, hi in zip(values, values[1:]):
                assert lo >= hi - 1e-12


class TestTsallisEntropy:
    def test_fair_coin_order_two(self):
        assert tsallis_entropy(ExactDistribution([F(1, 2), F(1, 2)]), 2.0) == 0.5

    def test_certainty(self):
        assert tsallis_entropy(ExactDistribution([F(1)]), 2.0) == 0.0

    def test_order_one_limit_is_natural_log_shannon(self):
        fair = ExactDistribution([F(1, 2), F(1, 2)])
        assert tsallis_entropy(fair, 1.0 + 1e-6) == pytest.approx(math.log(2), abs=1e-4)
        assert tsallis_entropy(fair, 1.0 - 1e-6) == pytest.approx(math.log(2), abs=1e-4)

    def test_invalid_orders(self):
        for order in (1.0, 0.0, -1.0):
            with pytest.raises(ValueError):
                tsallis_entropy(DYADIC, order)


class TestProjectionRatio:
    def test_fair_coin(self):
        assert projection_ratio(ExactDistribution([F(1, 2), F(1, 2)])) == F(1, 4)

    def test_dyadic(self):
        # 1/2 * 1/4 * 1/8 * 1/8
        assert projection_ratio(DYADIC) == F(1, 512)

    def test_both_forms_agree_exactly(self):
        rng = np.random.default_rng(909)
        for _ in range(30):
            dist = random_distribution(rng)
            space = generic_space(dist)
            hypercuboid_form = F(
                math.prod(space.counts), space.dimension**space.size
            )
            assert projection_ratio(dist) == hypercuboid_form
        assert projection_ratio(BENT_COIN) == F(2, 9)


class TestProjectionEntropy:
    def test_uniform_two_equals_shannon(self):
        fair = ExactDistribution([F(1, 2), F(1, 2)])
        assert projection_entropy(fair, 2) == pytest.approx(1.0, abs=1e-12)

    def test_dyadic_value(self):
        # log2(16 * (1/512)^(1/4)) = 4 - 9/4
        assert projection_entropy(DYADIC, 2) == pytest.approx(1.75, abs=1e-12)

    def test_can_be_negative(self):
        lopsided = ExactDistribution([F(1, 100), F(99, 100)])
        value = projection_entropy(lopsided, 2)
        assert value == pytest.approx(-1.3291778797349196, abs=1e-9)
        assert value < 0

    def test_uniform_is_log_n_and_increasing(self):
        previous = 0.0
        for n in range(2, 65):
            uniform = ExactDistribution([F(1, n)] * n)
            value = projection_entropy(uniform, 2)
            assert value == pytest.approx(math.log2(n), abs=1e-9)
            assert value > previous
            previous = value

    def test_additive_over_independent_distributions(self):
        rng = np.random.default_rng(1010)
        for _ in range(40):
            p = random_distribution(rng)
            q = random_distribution(rng)
            assert projection_entropy(tensor_product(p, q), 2) == pytest.approx(
                projection_entropy(p, 2) + projection_entropy(q, 2), abs=1e-9
            )

    @pytest.mark.parametrize("base", [2, 3])
    def test_grouping_rule(self, base):
        # Splitting the last outcome p_n = q1 + q2 re-weights the value by
        # n/(n+1) and 2/(n+1) plus explicit log corrections.
        rng = np.random.default_rng(1111)
        for _ in range(60):
            dist = random_distribution(rng, min_outcomes=2)
            n = dist.size
            p_last = dist.probs[-1]
            t = F(int(rng.integers(1, 16)), 16)
            q1, q2 = p_last * t, p_last * (1 - t)
            split = ExactDistribution(dist.probs[:-1] + (q1, q2))
            inner = ExactDistribution([t, 1 - t])
            log = lambda x: math.log(x, base)
            rhs = (
                n / (n + 1) * projection_entropy(dist, base)
                + 2 / (n + 1) * projection_entropy(inner, base)
                + log(float(p_last)) / (n + 1)
                + 2 * log(n + 1)
                - (n / (n + 1)) * 2 * log(n)
                - (2 / (n + 1)) * 2 * log(2)
            )
            assert projection_entropy(split, base) == pytest.approx(rhs, abs=1e-9)


def test_shannon_grouping_rule():
    # H(p_1..p_{n-1}, q1, q2) = H(p_1..p_n) + p_n H(q1/p_n, q2/p_n)
    rng = np.random.default_rng(1212)
    for _ in range(60):
        dist = random_distribution(rng, min_outcomes=2)
        p_last = dist.probs[-1]
        t = F(int(rng.integers(1, 16)), 16)
        split = ExactDistribution(dist.probs[:-1] + (p_last * t, p_last * (1 - t)))
        inner = ExactDistribution([t, 1 - t])
        expected = shannon_entropy(dist, 2) + float(p_last) * shannon_entropy(inner, 2)
        assert shannon_entropy(split, 2) == pytest.approx(expected, abs=1e-9)


def test_entropy_suite_bundles_consistent_values():
    suite = entropy_suite(DYADIC, base=2, renyi_order=2.0, tsallis_order=2.0)
    assert suite.shannon == 1.75
    assert suite.shannon_via_ratio == pytest.approx(1.75, abs=1e-12)
    assert suite.effective_dimension == pytest.approx(2**1.75, abs=1e-12)
    assert suite.projection == pytest.approx(1.75, abs=1e-12)
    assert suite.renyi[0] == 2.0
    assert suite.renyi[1] == pytest.approx(renyi_entropy(DYADIC, 2.0, 2))
    assert suite.tsallis[1] == pytest.approx(tsallis_entropy(DYADIC, 2.0))
    assert 0.0 <= suite.shannon <= math.log2(DYADIC.size)
    assert 1.0 <= suite.effective_dimension <= DYADIC.size


@pytest.mark.parametrize("base", [2, 3, 10])
def test_entropy_suite_forms_one_power_sum_for_equal_orders(base):
    near_certain = collapse(2**60 + 1, (3, 2**60 - 2))
    for dist in (DYADIC, BENT_COIN, ExactDistribution([F(1, 6), F(1, 10), F(11, 15)]), near_certain):
        with mock.patch.object(entropy, "renyi_entropy", wraps=entropy.renyi_entropy) as renyi:
            suite = entropy_suite(dist, base, 2.0, 2.0)
        assert renyi.call_count == 1
        assert suite.renyi == (2.0, renyi_entropy(dist, 2.0, base))
        assert suite.tsallis == (2.0, tsallis_entropy(dist, 2.0))


@pytest.mark.parametrize("base", [2, 3, 10])
def test_entropy_suite_owns_the_order_one_limits(base):
    for dist in (DYADIC, BENT_COIN, ExactDistribution([F(1, 6), F(1, 10), F(11, 15)])):
        suite = entropy_suite(dist, base, renyi_order=1, tsallis_order=1)
        assert suite.renyi == (1, suite.shannon)
        assert suite.shannon == shannon_entropy(dist, base)
        assert suite.tsallis == (1, shannon_entropy(dist, 2) * math.log(2))
        assert suite.effective_dimension == effective_dimension(dist)
    # The standalone functions keep refusing order 1.
    with pytest.raises(ValueError):
        renyi_entropy(DYADIC, 1, base)
    with pytest.raises(ValueError):
        tsallis_entropy(DYADIC, 1)


# Distributions over D up to 2**4096 with non-reduced tokens, plus small D
# (many equal counts) and one-outcome distributions.
any_distribution = st.one_of(
    distribution_texts(max_bits=6, max_outcomes=12), distribution_texts()
)


@given(any_distribution)
@example("1")
@example(f"2/4 1/{2**4096} {2**4095 - 1}/{2**4096}")
def test_entropies_match_fraction_oracle(text):
    probs = fraction_parse(text)
    dist = parse_distribution(text)
    assert projection_ratio(dist) == fraction_projection_ratio(probs)
    for base in (2, 10):
        expected = fraction_shannon_entropy(probs, base)
        assert shannon_entropy(dist, base) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
def test_non_finite_orders_are_refused(order):
    for call in (
        lambda: renyi_entropy(DYADIC, order),
        lambda: tsallis_entropy(DYADIC, order),
        lambda: entropy_suite(DYADIC, renyi_order=order),
        lambda: entropy_suite(DYADIC, tsallis_order=order),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            call()


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raised."""
    try:
        return f(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@given(any_distribution)
@example("1")
@example(f"3/{2**1100 + 1} {2**1100 - 2}/{2**1100 + 1}")
def test_distribution_reads_as_its_generic_space(text):
    dist = parse_distribution(text)
    space = generic_space(dist)
    for limit in (0, DEFAULT_EXACT_LIMIT):
        assert _outcome(combinatorial_volumes, dist, limit) == _outcome(
            combinatorial_volumes, space, limit
        )
    for base in (2, 10):
        assert _outcome(shannon_via_ratio, dist, base) == _outcome(shannon_via_ratio, space, base)


def _projection_bound(dist, expected):
    return max(1.0, abs(expected)) * dist.dimension.bit_length() * 2.0**-50


@given(any_distribution)
@example("1")
@example(f"1/{2**4096} {2**4096 - 1}/{2**4096}")
@example(" ".join([f"1/{2**4096}"] * 7 + [f"{2**4096 - 7}/{2**4096}"]))
def test_projection_entropy_matches_decimal_oracle(text):
    dist = parse_distribution(text)
    for base in (2, 10):
        expected = decimal_projection_entropy(dist.dimension, dist.counts, base)
        assert abs(projection_entropy(dist, base) - expected) <= _projection_bound(dist, expected)
    # The exact Fraction route that the log-domain sum replaced meets the same bound.
    expected = decimal_projection_entropy(dist.dimension, dist.counts)
    fraction_route = fraction_projection_entropy(fraction_parse(text))
    assert abs(fraction_route - expected) <= _projection_bound(dist, expected)


@given(wide_spaces())
# The inputs of the benchmark probes cancellation_k60 and overflow_2e1024.
@example(GenericSpace(2**60 + 1, (3, 2**60 - 2)))
@example(GenericSpace(2**1100 + 1, (3, 2**1100 - 2)))
# D * log2(D) and sum(c * log2(c)) are both inf here, and their difference was nan.
@example(GenericSpace(2**1020 + 1, (3, 2**1020 - 2)))
@example(GenericSpace(2**4096, (2**4095,) * 2))
def test_shannon_entropy_is_within_the_kernel_bound_of_a_decimal_oracle(space):
    d, counts = space.dimension, space.counts
    reference = decimal_shannon_entropy(d, counts)
    h, bound = _log_ratio(d, [(c, d, c) for c in counts])
    assert within_bound(h, reference, bound, "H")
    assert shannon_via_ratio(space, 2) == h
    dist = collapse(d, counts)
    h_dist, bound_dist = _log_ratio(dist.dimension, [(c, dist.dimension, c) for c in dist.counts])
    assert shannon_entropy(dist, 2) == shannon_via_ratio(dist, 2) == h_dist
    assert within_bound(h_dist, reference, bound_dist, "H reduced")
    # log2_ratio is D * H rounded once; inf only where D * H is past the float range.
    report = combinatorial_volumes(space, exact_limit=0)
    if math.isinf(report.log2_ratio):
        assert d * reference > Decimal(sys.float_info.max)
    else:
        assert within_bound(Decimal(report.log2_ratio) / d, reference, bound, "log2_ratio / D")
    assert not any(map(math.isnan, (report.log2_v_info, report.log2_v_uinfo, report.log2_ratio)))


@given(st.one_of(any_distribution, wide_spaces().map(
    lambda space: " ".join(f"{c}/{space.dimension}" for c in space.counts))))
@example(f"3/{2**1100 + 1} {2**1100 - 2}/{2**1100 + 1}")
@example(f"{(2**1100 + 1) // 3}/{2**1100 + 1} {2**1100 + 1 - (2**1100 + 1) // 3}/{2**1100 + 1}")
def test_no_entropy_raises_or_returns_nan(text):
    dist = parse_distribution(text)
    gap = average_length(build_generic_code(dist), dist).entropy_gap
    values = [effective_dimension(dist), projection_entropy(dist), gap]
    for limit in (0, DEFAULT_EXACT_LIMIT):
        report = combinatorial_volumes(dist, limit)
        values += [report.log2_v_info, report.log2_v_uinfo, report.log2_ratio]
    for order in (0.5, 2.0):
        suite = entropy_suite(dist, 10, renyi_order=order, tsallis_order=order)
        values += [suite.shannon, suite.shannon_via_ratio, suite.effective_dimension,
                   suite.projection, suite.renyi[1], suite.tsallis[1]]
    assert not any(map(math.isnan, values))
    # Only a log volume or D * H may pass the float range.
    assert all(map(math.isfinite, values[:3] + values[-12:]))


# --- Renyi and Tsallis: one power sum ---------------------------------------

NEAR_CERTAIN = GenericSpace(2**60 + 1, (3, 2**60 - 2))  # p = (3/D, 1 - 3/D)


def _flat_space(counts):
    flat = [c for row in counts for c in row]
    return GenericSpace(sum(flat), tuple(flat))


@settings(deadline=None)
@given(st.one_of(wide_spaces(), near_certain_counts().map(_flat_space)),
       st.sampled_from([0.5, 2.0, 3.7, 40.0]))
@example(NEAR_CERTAIN, 2.0)
@example(GenericSpace(2**1100 + 3, (3, 2**1100)), 0.5)  # 3/2**1100 is below the float range
@example(GenericSpace(2**2000 + 1, (1, 2**2000)), 0.5)
def test_renyi_and_tsallis_match_decimal_oracle(space, order):
    # Within 1e-14 relative, measured against at least the smallest normal float:
    # a subnormal result has too few bits for a relative error.
    renyi, tsallis = decimal_renyi_tsallis(space.dimension, space.counts, order)
    smallest = Decimal(sys.float_info.min)
    for name, value, reference in (("Renyi", renyi_entropy(space, order), renyi),
                                   ("Tsallis", tsallis_entropy(space, order), tsallis)):
        err = abs(Decimal(value) - reference)
        if reference >= smallest:
            target(float(err / reference), label=f"{name} relative error")
        assert err <= Decimal(1e-14) * max(reference, smallest), (name, value, reference)


class TestPowerSum:
    def test_near_certainty_keeps_its_relative_accuracy(self):
        # sum p^2 = 1 - 6/D + 18/D^2: a plain sum of p^2 rounds it to 1 and reads 0.
        renyi, tsallis = renyi_entropy(NEAR_CERTAIN, 2.0), tsallis_entropy(NEAR_CERTAIN, 2.0)
        assert renyi == pytest.approx(7.508030868316214e-18, rel=1e-14, abs=0)
        assert tsallis == pytest.approx(5.204170427930421e-18, rel=1e-14, abs=0)

    def test_large_order_is_finite(self):
        # r * log2(c_max/D) = -4e308 would overflow; it is never formed.
        uniform = ExactDistribution([F(1, 16)] * 16)
        assert renyi_entropy(uniform, 1e308) == 4.0
        assert tsallis_entropy(uniform, 1e308) == pytest.approx(1 / 1e308, rel=1e-12)

    @pytest.mark.parametrize("order", [5e-324, 0.5, 2.0, 1e308])
    def test_certainty_gives_positive_zero(self, order):
        certain = ExactDistribution([F(1)])
        for value in (renyi_entropy(certain, order), tsallis_entropy(certain, order)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0


@given(wide_spaces(), st.floats(min_value=5e-324, max_value=1.7e308).filter(lambda r: r != 1))
@example(GenericSpace(1, (1,)), 2.0)
def test_renyi_and_tsallis_are_finite_and_non_negative(space, order):
    for value in (renyi_entropy(space, order), tsallis_entropy(space, order)):
        assert math.isfinite(value) and math.copysign(1.0, value) == 1.0, value
