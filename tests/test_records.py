"""The six result records: named tuples, immutable, and checked where they validate."""

from fractions import Fraction as F

import pytest

from genspace import (
    CodeStats,
    DensityValidation,
    EntropySuite,
    InequalityReport,
    PrefixCode,
    VolumeReport,
    average_length,
    build_generic_code,
    check_inequalities,
    combinatorial_volumes,
    entropy_suite,
    parse_distribution,
    parse_joint,
    validate_density,
)


def _fair_coin():
    return parse_distribution("1/2 1/2")


INEQUALITY_FIELDS = dict(
    h_x=1.0, h_y=1.0, h_joint=2.0, h_x_given_y=1.0, h_y_given_x=1.0, mi_xy=0.0, mi_yx=0.0,
    independent=True, conditioning_reduces_entropy=True, mi_nonnegative=True,
    mi_symmetric=True, independence_consistent=True,
)

# (record class, keyword fields, the library call that returns the same record, repr)
RECORDS = [
    (
        PrefixCode,
        dict(codewords=("0", "1")),
        lambda: build_generic_code(_fair_coin()),
        "PrefixCode(codewords=('0', '1'))",
    ),
    (
        CodeStats,
        dict(average_length=F(1), entropy_gap=0.0),
        lambda: average_length(build_generic_code(_fair_coin()), _fair_coin()),
        "CodeStats(average_length=Fraction(1, 1), entropy_gap=0.0)",
    ),
    (
        VolumeReport,
        dict(v_info=1, v_uinfo=4, log2_v_info=0.0, log2_v_uinfo=2.0, ratio=F(4),
             log2_ratio=2.0, exact_computed=True),
        lambda: combinatorial_volumes(_fair_coin()),
        "VolumeReport(v_info=1, v_uinfo=4, log2_v_info=0.0, log2_v_uinfo=2.0, "
        "ratio=Fraction(4, 1), log2_ratio=2.0, exact_computed=True)",
    ),
    (
        EntropySuite,
        dict(shannon=1.0, shannon_via_ratio=1.0, effective_dimension=2.0, projection=1.0,
             base=2, renyi=(2.0, 1.0)),
        lambda: entropy_suite(_fair_coin(), renyi_order=2.0),
        "EntropySuite(shannon=1.0, shannon_via_ratio=1.0, effective_dimension=2.0, "
        "projection=1.0, base=2, renyi=(2.0, 1.0), tsallis=None)",
    ),
    (
        InequalityReport,
        INEQUALITY_FIELDS,
        lambda: check_inequalities(parse_joint("2 2\n1/4 1/4\n1/4 1/4\n")),
        "InequalityReport(h_x=1.0, h_y=1.0, h_joint=2.0, h_x_given_y=1.0, h_y_given_x=1.0, "
        "mi_xy=0.0, mi_yx=0.0, independent=True, conditioning_reduces_entropy=True, "
        "mi_nonnegative=True, mi_symmetric=True, independence_consistent=True)",
    ),
    (
        DensityValidation,
        dict(symmetry_defect=0.0, trace_defect=0.0, eigenvalues=(0.5, 0.5), symmetric=True,
             unit_trace=True, psd=True),
        lambda: validate_density([[0.5, 0.0], [0.0, 0.5]]),
        "DensityValidation(symmetry_defect=0.0, trace_defect=0.0, eigenvalues=(0.5, 0.5), "
        "symmetric=True, unit_trace=True, psd=True)",
    ),
]
IDS = [record[0].__name__ for record in RECORDS]


@pytest.mark.parametrize("cls, fields, call, text", RECORDS, ids=IDS)
def test_keyword_construction_matches_the_library_record(cls, fields, call, text):
    record = cls(**fields)
    assert type(record) is cls
    assert record._asdict() == {**cls._field_defaults, **fields}
    assert record == call()
    # The library's record too: its fields are Python values, not numpy scalars.
    assert repr(record) == repr(call()) == text


@pytest.mark.parametrize("cls, fields, call, text", RECORDS, ids=IDS)
def test_records_are_immutable(cls, fields, call, text):
    record = cls(**fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__


@pytest.mark.parametrize("cls, fields, call, text", RECORDS, ids=IDS)
def test_equal_values_hash_equal(cls, fields, call, text):
    assert hash(cls(**fields)) == hash(cls(**fields)) == hash(call())
    assert len({cls(**fields), call()}) == 1


def test_records_are_tuples():
    code = PrefixCode(("0", "1"))
    assert len(code) == 1 and code[0] == ("0", "1") and code.size == 2
    suite = entropy_suite(_fair_coin())
    assert suite._replace(projection=0.5).projection == 0.5
    assert suite.projection == 1.0


def test_replace_keeps_the_class_and_its_properties():
    code = PrefixCode(("0", "1"))._replace(codewords=("1", "0"))
    assert type(code) is PrefixCode and code.lengths() == (1, 1)


@pytest.mark.parametrize(
    "make, error, match",
    [
        (lambda: PrefixCode(("0", "1"))._replace(codewords=("0", "0")),
         ValueError, "not prefix-free"),
        (lambda: PrefixCode._make(((),)), ValueError, "at least one codeword"),
    ],
)
def test_make_and_replace_run_the_constructor_checks(make, error, match):
    with pytest.raises(error, match=match):
        make()
