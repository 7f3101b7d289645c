import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genspace import (
    ExactDistribution,
    collapse,
    format_distribution,
    generic_space,
    parse_distribution,
    tensor_product,
)
from genspace.joint import parse_joint
from helpers import (
    distribution_texts,
    fraction_generic_space,
    fraction_parse,
    joint_texts,
    regex_parse_distribution,
    regex_parse_joint,
)

F = Fraction

# Positive integer weights; dividing by their sum gives a valid exact
# distribution, which covers arbitrary rational probabilities.
weights_lists = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=6)


def dist_from_weights(weights):
    total = sum(weights)
    return ExactDistribution(F(w, total) for w in weights)


class TestParse:
    def test_dyadic_example(self):
        dist = parse_distribution("1/2 1/4 1/8 1/8")
        assert dist.probs == (F(1, 2), F(1, 4), F(1, 8), F(1, 8))
        assert dist.size == 4

    def test_integer_shorthand(self):
        assert parse_distribution("1").probs == (F(1),)

    def test_comments_and_multiline(self):
        text = "# a coin\n2/3  # head\n1/3  # tail\n"
        assert parse_distribution(text).probs == (F(2, 3), F(1, 3))

    def test_sum_violation_reports_exact_sum(self):
        with pytest.raises(ValueError, match=r"sum to 2/3"):
            parse_distribution("1/3 1/3")

    def test_malformed_token_is_named(self):
        with pytest.raises(ValueError, match=r"one/2"):
            parse_distribution("1/2 one/2")

    def test_decimal_tokens_rejected(self):
        with pytest.raises(ValueError, match=r"0\.5"):
            parse_distribution("0.5 0.5")

    def test_negative_token_rejected(self):
        with pytest.raises(ValueError, match=r"-1/2"):
            parse_distribution("-1/2 3/2")

    def test_zero_probability_token(self):
        with pytest.raises(ValueError, match=r"zero probability"):
            parse_distribution("0/2 1")

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match=r"1/0"):
            parse_distribution("1/0")

    def test_empty_input(self):
        with pytest.raises(ValueError):
            parse_distribution("# nothing here\n")


class TestExactDistribution:
    def test_bent_coin(self):
        dist = ExactDistribution([F(2, 3), F(1, 3)])
        assert dist.size == 2
        assert dist[0] == F(2, 3)

    def test_fair_coin(self):
        assert ExactDistribution([F(1, 2), F(1, 2)]).probs == (F(1, 2), F(1, 2))

    def test_entries_stored_reduced(self):
        dist = ExactDistribution([F(4, 8), F(2, 8), F(1, 8), F(1, 8)])
        assert dist.probs == (F(1, 2), F(1, 4), F(1, 8), F(1, 8))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ExactDistribution([])

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError, match="index 1"):
            ExactDistribution([F(1), F(0)])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            ExactDistribution([F(3, 2), F(-1, 2)])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="3/4"):
            ExactDistribution([F(1, 2), F(1, 4)])

    def test_len_iter_and_repr(self):
        dist = ExactDistribution([F(4, 8), F(1, 4), F(1, 4)])
        assert len(dist) == 3
        assert list(dist) == [F(1, 2), F(1, 4), F(1, 4)]
        assert repr(dist) == "ExactDistribution('1/2 1/4 1/4')"

    def test_an_index_reads_the_counts(self, monkeypatch):
        dist = ExactDistribution([F(1, 2), F(1, 3), F(1, 6)])
        for i in (0, 2, -1, -3, slice(None), slice(1, None), slice(None, None, -2), slice(5, 9)):
            assert dist[i] == dist.probs[i]
        for i in (3, -4):
            with pytest.raises(IndexError):
                dist[i]
        # An int index builds one Fraction, not the whole view.
        monkeypatch.setattr(ExactDistribution, "probs", property(lambda self: 1 / 0))
        assert (dist[0], dist[-1]) == (F(1, 2), F(1, 6))


class TestGenericSpaceConstruction:
    def test_a_distribution_is_its_own_generic_space(self):
        dist = parse_distribution("1/2 1/4 1/8 1/8")
        assert generic_space(dist) is dist

    def test_dyadic_example(self):
        space = generic_space(parse_distribution("1/2 1/4 1/8 1/8"))
        assert (space.dimension, space.counts) == (8, (4, 2, 1, 1))

    def test_bent_coin(self):
        space = generic_space(ExactDistribution([F(2, 3), F(1, 3)]))
        assert (space.dimension, space.counts) == (3, (2, 1))

    def test_single_outcome(self):
        space = generic_space(ExactDistribution([F(1)]))
        assert (space.dimension, space.counts) == (1, (1,))

    @staticmethod
    def brute_force_minimal_dimension(dist):
        # Smallest D making every D * p_i an integer, found by trial.
        d = 1
        while True:
            if all((d * p).denominator == 1 for p in dist.probs):
                return d, tuple(int(d * p) for p in dist.probs)
            d += 1

    def test_matches_brute_force_on_mixed_denominators(self):
        dist = ExactDistribution([F(1, 6), F(1, 10), F(11, 15)])
        assert self.brute_force_minimal_dimension(dist) == (30, (5, 3, 22))
        space = generic_space(dist)
        assert (space.dimension, space.counts) == (30, (5, 3, 22))

    def test_matches_brute_force_on_random_distributions(self):
        rng = np.random.default_rng(7101)
        for _ in range(25):
            weights = [int(w) for w in rng.integers(1, 20, size=rng.integers(1, 5))]
            dist = dist_from_weights(weights)
            space = generic_space(dist)
            assert self.brute_force_minimal_dimension(dist) == (
                space.dimension,
                space.counts,
            )

    def test_field_types(self):
        for dimension, counts in [
            (3, (2.9, 1.2)),
            (True, (True,)),
            (2, (1, True)),
            (3.0, (2, 1)),
            (4, (2, np.int64(2))),
            ("3", (2, 1)),
        ]:
            with pytest.raises(TypeError, match="must be ints"):
                collapse(dimension, counts)
        assert collapse(3, [2, 1]).counts == (2, 1)

    def test_type_validation(self):
        with pytest.raises(ValueError, match="sum to 3"):
            collapse(4, (2, 1))
        with pytest.raises(ValueError, match="count at index 1"):
            collapse(2, (2, 0))
        with pytest.raises(ValueError, match="dimension"):
            collapse(0, ())
        with pytest.raises(ValueError, match="^counts must be non-empty$"):
            collapse(1, ())


class TestCollapse:
    def test_bent_coin(self):
        assert collapse(3, (2, 1)).probs == (F(2, 3), F(1, 3))

    def test_uniform(self):
        assert collapse(4, (1, 1, 1, 1)).probs == (F(1, 4),) * 4

    def test_dyadic_example(self):
        assert collapse(8, (4, 2, 1, 1)).probs == (F(1, 2), F(1, 4), F(1, 8), F(1, 8))

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            collapse(5, (2, 1))

    def test_zero_count(self):
        with pytest.raises(ValueError):
            collapse(3, (3, 0))


class TestTensorProduct:
    def test_uniform_product(self):
        p = ExactDistribution([F(1, 2), F(1, 2)])
        assert tensor_product(p, p).probs == (F(1, 4),) * 4

    def test_row_major_order(self):
        p = ExactDistribution([F(2, 3), F(1, 3)])
        q = ExactDistribution([F(1, 2), F(1, 2)])
        assert tensor_product(p, q).probs == (F(1, 3), F(1, 3), F(1, 6), F(1, 6))

    def test_identity_element(self):
        one = ExactDistribution([F(1)])
        p = ExactDistribution([F(2, 3), F(1, 3)])
        assert tensor_product(one, p) == p
        assert tensor_product(p, one) == p


@given(weights_lists)
def test_collapse_inverts_generic_space(weights):
    dist = dist_from_weights(weights)
    space = generic_space(dist)
    assert collapse(space.dimension, space.counts) == dist


@given(distribution_texts(), st.integers(1, 2**64), st.integers(1, 2**4096))
@example("1", 1, 2**4096)
def test_collapse_divides_out_a_common_factor(text, m, k):
    dist = parse_distribution(text)
    # (m*D, m*counts) is a space that need not be reduced; k scales it again.
    dimension, counts = m * dist.dimension, [m * c for c in dist.counts]
    assert collapse(k * dimension, [k * c for c in counts]) == collapse(dimension, counts) == dist


@given(weights_lists)
def test_generic_space_counts_are_coprime_and_sum_to_dimension(weights):
    space = generic_space(dist_from_weights(weights))
    assert sum(space.counts) == space.dimension
    assert math.gcd(*space.counts) == 1


@given(weights_lists)
def test_parse_format_round_trip(weights):
    dist = dist_from_weights(weights)
    assert parse_distribution(format_distribution(dist)) == dist


@given(weights_lists, weights_lists)
def test_tensor_product_sums_to_one_and_divides_dimension_bound(wp, wq):
    p = dist_from_weights(wp)
    q = dist_from_weights(wq)
    prod = tensor_product(p, q)
    assert sum(prod.probs) == 1
    d_prod = generic_space(prod).dimension
    bound = generic_space(p).dimension * generic_space(q).dimension
    assert bound % d_prod == 0


# Every token in both file formats, with the value it stands for (None: the
# token is malformed in both).  Only the joint format admits a zero.
TOKENS = [
    ("1/2", F(1, 2)),
    ("2/4", F(1, 2)),
    ("007/014", F(1, 2)),
    ("3/8", F(3, 8)),
    ("1", F(1)),
    ("5/5", F(1)),
    ("0", F(0)),
    ("0/3", F(0)),
    ("+1/2", None),
    ("1/+2", None),
    ("-1/2", None),
    ("1_0/20", None),
    ("\u0661/\u0662", None),  # Arabic-Indic digits
    ("\uff11/\uff12", None),  # fullwidth digits
    ("\u00bd", None),
    ("0.5", None),
    ("1e0", None),
    ("0x1/0x2", None),
    ("1/", None),
    ("/2", None),
    ("1//2", None),
    ("1/2/3", None),
    ("1/0", None),
    ("0/0", None),
]


@pytest.mark.parametrize("token, value", TOKENS)
def test_both_parsers_read_a_token_alike(token, value):
    if value is None:
        with pytest.raises(ValueError, match="malformed probability token") as dist_err:
            parse_distribution(token)
        with pytest.raises(ValueError, match="malformed rational token") as joint_err:
            parse_joint(f"1 1\n{token}\n")
        assert repr(token) in str(dist_err.value) and repr(token) in str(joint_err.value)
        return
    rest = f"{(1 - value).numerator}/{(1 - value).denominator}"
    if value == 0:
        joint_text = f"2 2\n{token} 1/2\n1/2 0\n"
        with pytest.raises(ValueError, match="zero probability token"):
            parse_distribution(f"{token} 1")
    elif value == 1:
        joint_text = f"1 1\n{token}\n"
        assert parse_distribution(token).probs == (value,)
    else:
        joint_text = f"1 2\n{token} {rest}\n"
        assert parse_distribution(f"{token} {rest}").probs[0] == value
    assert parse_joint(joint_text).cells[0][0] == value


@given(distribution_texts())
@example("1")
@example("2/4 3/6")
def test_parse_matches_fraction_oracle(text):
    probs = fraction_parse(text)
    space = fraction_generic_space(probs)
    dist = parse_distribution(text)
    assert dist.probs == probs
    assert (dist.dimension, dist.counts) == space
    assert (generic_space(dist).dimension, generic_space(dist).counts) == space
    # The Fraction constructor and the integer one (from a space that is not
    # reduced) give the same distribution.
    for other in (ExactDistribution(probs), collapse(3 * space[0], [3 * c for c in space[1]])):
        assert other == dist and hash(other) == hash(dist)
        assert other.probs == probs


@given(distribution_texts(max_bits=64, max_outcomes=4), distribution_texts(max_bits=64, max_outcomes=4))
def test_tensor_product_matches_fraction_products(tp, tq):
    prod = tensor_product(parse_distribution(tp), parse_distribution(tq))
    expected = tuple(a * b for a in fraction_parse(tp) for b in fraction_parse(tq))
    assert prod.probs == expected
    assert (prod.dimension, prod.counts) == fraction_generic_space(expected)


# Tokens past int()'s default 4300-digit limit make int() raise, so they also
# test that the parsers report the first bad token in file order.
LONG = "9" * 4400
TOKEN_POOL = [token for token, _ in TOKENS] + [LONG, f"1/{LONG}", "0/" + LONG, "1/1"]


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def token_files(draw):
    """Tokens from TOKEN_POOL or arbitrary short text, between blanks, newlines and comments."""
    tokens = draw(st.lists(st.sampled_from(TOKEN_POOL) | st.text(max_size=3), max_size=8))
    sep = st.sampled_from([" ", "\n", "\t", " # note\n"])
    seps = draw(st.lists(sep, min_size=len(tokens), max_size=len(tokens)))
    return "".join(t + s for t, s in zip(tokens, seps))


@st.composite
def joint_token_files(draw):
    """A joint header and rows of pool tokens; row and cell counts are often wrong."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    header = draw(st.sampled_from([f"{rows} {cols}"] * 3 + [f"+{rows} {cols}", f"{rows}", "x y"]))
    lines = [header]
    for _ in range(draw(st.sampled_from([rows, rows, rows + 1, max(rows - 1, 0)]))):
        n = draw(st.sampled_from([cols, cols, cols + 1, max(cols - 1, 0)]))
        lines.append(" ".join(draw(st.lists(st.sampled_from(TOKEN_POOL), min_size=n, max_size=n))))
    return "\n".join(lines)


@pytest.mark.parametrize("bad", ["1_0/3", "+1/2", "-1/2", "\uff11/\uff12", "1/", "/2", "1//2", "long"])
def test_the_first_bad_token_is_named(bad, digit_limit):
    # A part one digit past the limit, then a token that is malformed too.
    bad = "1/" + "9" * (digit_limit + 1) if bad == "long" else bad
    named = f"'{bad[:20]}...' ({digit_limit + 1} digits; at most {digit_limit})" if len(bad) > 20 else repr(bad)
    for parse, reference, text, kind in (
        (parse_distribution, regex_parse_distribution, f"1/4 {bad}\n1/2 x/4", "probability"),
        (parse_joint, regex_parse_joint, f"2 2\n1/4 {bad}\n1/2 x/4\n", "rational"),
    ):
        message = f"malformed {kind} token {named}"
        assert _outcome(parse, text) == _outcome(reference, text) == (ValueError, message)


@settings(deadline=None)
@given(distribution_texts(max_bits=64) | token_files())
@example("0 +1")
@example("+1 0")
@example(f"0 {LONG}")
@example(f"1/0 {LONG}")
@example("1//2 /")
@example("1/2 0/0")
@example("1/2 0 1/2")
def test_parse_distribution_matches_regex_reference(text):
    assert _outcome(parse_distribution, text) == _outcome(regex_parse_distribution, text)


@settings(deadline=None)
@given(joint_texts(max_bits=64) | joint_token_files())
@example("2 2\n+1 1\n1\n")
@example("2 2\n1 1\n1/0 0\n")
@example("0 3\n")
def test_parse_joint_matches_regex_reference(text):
    assert _outcome(parse_joint, text) == _outcome(regex_parse_joint, text)
