import sys

import pytest


@pytest.fixture
def digit_limit():
    """Pin int()'s digit limit at CPython's default for one test, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    current = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(old)
    assert current == 4300, "the CLI changed the process-wide limit"
