import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genspace import (
    ExactDistribution,
    JointDistribution,
    check_inequalities,
    conditional_entropy,
    joint_entropy,
    marginals,
    mutual_information,
    product_joint,
    shannon_entropy,
    tensor_product,
)
from genspace.distribution import parse_distribution
from genspace.entropy import _log_ratio
from genspace.joint import _information, format_joint, parse_joint
from helpers import (
    decimal_mutual_information,
    decimal_shannon_entropy,
    distribution_texts,
    far_below_product_counts,
    fraction_independent,
    fraction_joint_cells,
    fraction_marginals,
    fraction_parse,
    fraction_shannon_entropy,
    joint_texts,
    near_certain_counts,
    near_independent_counts,
    random_distribution,
    random_joint,
    within_bound,
)

F = Fraction

FAIR_PRODUCT = product_joint(
    ExactDistribution([F(1, 2), F(1, 2)]), ExactDistribution([F(1, 2), F(1, 2)])
)
CORRELATED = JointDistribution([[F(1, 2), F(0)], [F(0), F(1, 2)]])
TRIANGULAR = JointDistribution([[F(1, 2), F(1, 4)], [F(0), F(1, 4)]])


class TestConstruction:
    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 3/4"):
            JointDistribution([[F(1, 2), F(1, 4)]])

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            JointDistribution([[F(3, 2), F(-1, 2)]])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            JointDistribution([[F(1, 2), F(1, 2)], [F(0), F(0)]])

    def test_zero_column_rejected(self):
        with pytest.raises(ValueError, match="column 1"):
            JointDistribution([[F(1, 2), F(0)], [F(1, 2), F(0)]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="same number"):
            JointDistribution([[F(1, 2), F(1, 4)], [F(1, 4)]])


class TestMarginals:
    def test_product_of_fair_coins(self):
        x, y = marginals(FAIR_PRODUCT)
        assert x.probs == (F(1, 2), F(1, 2))
        assert y.probs == (F(1, 2), F(1, 2))

    def test_perfectly_correlated(self):
        x, y = marginals(CORRELATED)
        assert x.probs == y.probs == (F(1, 2), F(1, 2))

    def test_triangular(self):
        x, y = marginals(TRIANGULAR)
        assert x.probs == (F(3, 4), F(1, 4))
        assert y.probs == (F(1, 2), F(1, 2))


class TestConditionalEntropy:
    def test_independent_fair_coins(self):
        assert conditional_entropy(FAIR_PRODUCT, 2) == pytest.approx(1.0, abs=1e-12)

    def test_perfectly_correlated(self):
        # H(X,Y) = 1 and H(Y) = 1.
        assert conditional_entropy(CORRELATED, 2) == pytest.approx(0.0, abs=1e-12)

    def test_triangular(self):
        # H(X,Y) = 3/2, H(Y) = 1.
        assert joint_entropy(TRIANGULAR, 2) == pytest.approx(1.5, abs=1e-12)
        assert conditional_entropy(TRIANGULAR, 2) == pytest.approx(0.5, abs=1e-12)


class TestMutualInformation:
    def test_independent_is_zero(self):
        assert mutual_information(FAIR_PRODUCT, 2) == pytest.approx(0.0, abs=1e-12)

    def test_perfectly_correlated_is_one_bit(self):
        assert mutual_information(CORRELATED, 2) == pytest.approx(1.0, abs=1e-12)

    def test_triangular(self):
        # H(3/4, 1/4) - 1/2
        assert mutual_information(TRIANGULAR, 2) == pytest.approx(
            0.31127812445913283, abs=1e-11
        )


class TestCheckInequalities:
    def test_product_joint(self):
        report = check_inequalities(FAIR_PRODUCT)
        assert report.all_pass
        assert report.independent

    def test_correlated_joint(self):
        report = check_inequalities(CORRELATED)
        assert report.all_pass
        assert not report.independent
        assert report.mi_xy == pytest.approx(1.0, abs=1e-12)

    def test_random_joints_always_pass(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            report = check_inequalities(random_joint(rng))
            assert report.all_pass

    def test_random_product_joints_detected_as_independent(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            joint = product_joint(random_distribution(rng), random_distribution(rng))
            report = check_inequalities(joint)
            assert report.independent
            assert report.mi_xy <= 1e-12


def test_chain_rule_and_symmetry_on_random_joints():
    rng = np.random.default_rng(103)
    for _ in range(200):
        joint = random_joint(rng)
        x, y = marginals(joint)
        h_xy = joint_entropy(joint, 2)
        h_x_given_y = conditional_entropy(joint, 2)
        h_y_given_x = conditional_entropy(joint.transpose(), 2)
        assert h_xy == pytest.approx(
            shannon_entropy(y, 2) + h_x_given_y, abs=1e-12
        )
        mi_xy = mutual_information(joint, 2)
        mi_yx = mutual_information(joint.transpose(), 2)
        assert mi_xy == pytest.approx(mi_yx, abs=1e-12)
        # Shared-volume decomposition of the joint uncertainty.
        assert mi_xy + h_x_given_y + h_y_given_x == pytest.approx(h_xy, abs=1e-11)


@given(joint_texts(max_bits=64))
@example("2 2\n1/2 0\n0 1/2\n")
@example("2 3\n1/6 1/6 1/6\n1/6 1/6 1/6\n")
def test_check_inequalities_matches_conditional_entropy_route(text):
    # The report computes the marginals once; every field is bit for bit the
    # value of the separate calls, on the joint and on its transpose.
    joint = parse_joint(text)
    x, y = marginals(joint)
    h_x, h_y = shannon_entropy(x, 2), shannon_entropy(y, 2)
    report = check_inequalities(joint)
    assert (report.h_x, report.h_y, report.h_joint) == (h_x, h_y, joint_entropy(joint, 2))
    flipped = joint.transpose()
    assert (report.h_x_given_y, report.h_y_given_x) == (
        conditional_entropy(joint, 2), conditional_entropy(flipped, 2)
    )
    assert (report.mi_xy, report.mi_yx) == (
        mutual_information(joint, 2), mutual_information(flipped, 2)
    )


def _joint(counts):
    """The joint of an integer matrix over its sum."""
    d = sum(map(sum, counts))
    return JointDistribution([[F(m, d) for m in row] for row in counts])


@given(
    st.one_of(
        joint_texts().map(lambda text: parse_joint(text).counts),
        near_certain_counts(),
        far_below_product_counts(),
        near_independent_counts(),
    )
)
# [[e, 1/2 - e], [1/2 - e, e]], e = 2^-k: log1p of (m*D - r*c) / (r*c) alone gets -1 here.
@example([[1, 2**59 - 1], [2**59 - 1, 1]])
@example([[1, 2**1099 - 1], [2**1099 - 1, 1]])
# [[1 - 3e, e], [e, e]], e = 2^-1500: a float ratio m*D / (r*c) overflows here.
@example([[2**1500 - 3, 1], [1, 1]])
@example([[2**64 - 3, 1], [1, 1]])
@example([[2**4096 - 3, 1], [1, 1]])
def test_information_is_within_its_bound_of_a_decimal_oracle(counts):
    joint = _joint(counts)
    mi, bound, _, _ = _information(joint)
    assert mutual_information(joint, 2) == mi == mutual_information(joint.transpose(), 2)
    reference = decimal_mutual_information(joint.dimension, joint.counts)
    assert within_bound(mi, reference, bound, "I(X;Y)")
    # The joint entropy reads the same kernel over the cells.
    d, cells = joint.dimension, [m for row in joint.counts for m in row]
    h, h_bound = _log_ratio(d, [(m, d, m) for m in cells if m])
    assert joint_entropy(joint, 2) == h
    assert within_bound(h, decimal_shannon_entropy(d, cells), h_bound, "H(X,Y)")
    report = check_inequalities(joint)
    assert report.all_pass and report.mi_xy == report.mi_yx == mi


@given(distribution_texts(max_outcomes=6), distribution_texts(max_outcomes=6))
def test_product_joint_has_exactly_zero_information(tx, ty):
    joint = product_joint(parse_distribution(tx), parse_distribution(ty))
    assert mutual_information(joint, 2) == mutual_information(joint.transpose(), 3) == 0.0
    report = check_inequalities(joint)
    assert report.independent and report.all_pass and report.mi_xy == report.mi_yx == 0.0


@given(joint_texts(max_bits=6))
@example("1 1\n1\n")
@example("2 3\n1/12 1/6 1/4\n1/12 1/6 1/4\n")
def test_volume_ratio_is_two_to_the_information_per_outcome(text):
    # D^D * prod(m^m) / (prod(r^r) * prod(c^c)) = 2^(D * I): the paper's volumes, in integers.
    joint = parse_joint(text)
    d, counts = joint.dimension, joint.counts
    rows, cols = [sum(row) for row in counts], [sum(col) for col in zip(*counts)]
    cells = math.prod(m**m for row in counts for m in row)
    ratio = F(d**d * cells, math.prod(r**r for r in rows) * math.prod(c**c for c in cols))
    mi = mutual_information(joint, 2)
    assert ratio >= 1
    assert (ratio == 1) == check_inequalities(joint).independent == (mi == 0.0)
    log2_ratio = math.log2(ratio.numerator) - math.log2(ratio.denominator)
    assert log2_ratio == pytest.approx(d * mi, abs=1e-9)


def test_large_product_joint_passes():
    # A difference of separately rounded entropies gives I(X;Y) = -1.2e-12 here.
    rng = np.random.default_rng(2)
    px, py = (parse_distribution(" ".join(f"{w}/{sum(ws)}" for w in ws))
              for ws in (rng.integers(1, 1000, size=1000).tolist() for _ in range(2)))
    report = check_inequalities(product_joint(px, py))
    assert report.independent and report.all_pass
    assert report.mi_xy == report.mi_yx == 0.0


class TestJointFile:
    def test_round_trip(self):
        text = format_joint(TRIANGULAR)
        assert parse_joint(text) == TRIANGULAR

    def test_comments_and_integers(self):
        text = "# 2x2 correlated\n2 2\n1/2 0  # first row\n0 1/2\n"
        assert parse_joint(text) == CORRELATED

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            parse_joint("2 2\n1/2 1/2\n")

    def test_cell_count_mismatch(self):
        with pytest.raises(ValueError, match="cells per row"):
            parse_joint("1 3\n1/2 1/2\n")

    def test_malformed_cell(self):
        with pytest.raises(ValueError, match="oops"):
            parse_joint("1 2\n1/2 oops\n")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_joint("# only comments\n")

    @pytest.mark.parametrize("header", ["\u0662 +1", "2 +1", "\u0662 1", "2 1_0", "-2 1"])
    def test_header_is_ascii_digits(self, header):
        # int() would take the signs, "_" and non-ASCII digits here.
        with pytest.raises(ValueError, match="malformed header"):
            parse_joint(f"{header}\n1/2\n1/2\n")


def test_cells_are_the_cells_built_from():
    cells = ((F(2, 4), 0, F(1, 8)), (0, F(1, 4), F(1, 8)))
    joint = JointDistribution(cells)
    assert joint.cells == cells == parse_joint(format_joint(joint)).cells
    assert all(type(c) is Fraction for row in joint.cells for c in row)
    assert joint.transpose().cells == tuple(zip(*cells))


@given(st.one_of(joint_texts(max_bits=6), joint_texts()))
@example("2 2\n1/2 0\n0/7 2/4\n")
@example("1 1\n3/3\n")
def test_joint_matches_fraction_oracle(text):
    cells = fraction_joint_cells(text)
    joint = parse_joint(text)
    assert joint.cells == cells
    other = JointDistribution(cells)
    assert other == joint and hash(other) == hash(joint) and other.cells == cells
    assert joint.transpose().cells == tuple(zip(*cells))
    assert parse_joint(format_joint(joint)) == joint
    x, y = marginals(joint)
    assert (x.probs, y.probs) == fraction_marginals(cells)
    assert check_inequalities(joint).independent == fraction_independent(cells)
    flat = [c for row in cells for c in row]
    assert joint_entropy(joint, 2) == pytest.approx(fraction_shannon_entropy(flat), rel=1e-12)


@given(distribution_texts(max_bits=64, max_outcomes=5), distribution_texts(max_bits=64, max_outcomes=5))
def test_product_joint_matches_fraction_oracle(tx, ty):
    joint = product_joint(parse_distribution(tx), parse_distribution(ty))
    cells = tuple(tuple(p * q for q in fraction_parse(ty)) for p in fraction_parse(tx))
    assert joint.cells == cells
    assert JointDistribution(cells) == joint
    assert fraction_independent(cells)
    assert check_inequalities(joint).independent


@given(distribution_texts(max_bits=64, max_outcomes=5), distribution_texts(max_bits=64, max_outcomes=5))
def test_product_joint_is_tensor_product_in_rows(tx, ty):
    p, q = parse_distribution(tx), parse_distribution(ty)
    joint, prod = product_joint(p, q), tensor_product(p, q)
    assert joint.dimension == prod.dimension
    assert [c for row in joint.counts for c in row] == list(prod.counts)
    assert (joint.rows, joint.cols) == (p.size, q.size)


@given(distribution_texts(max_bits=64, max_outcomes=5), joint_texts(max_bits=64))
@example("1/2 1/2", "1 2\n1/2 1/2\n")
@example("1", "1 1\n1\n")
def test_distribution_never_equals_joint(dist_text, joint_text):
    dist, joint = parse_distribution(dist_text), parse_joint(joint_text)
    assert dist != joint and joint != dist
    assert dist.__eq__(joint) is NotImplemented and joint.__eq__(dist) is NotImplemented
