"""The golden CLI corpus: every case in tests/golden/expected.json, run through `cli.main`.

Text output is compared byte for byte.  `--json` output is parsed and its
floats compared to 1e-12 relative, since libm may differ in the last bit
between hosts.  Rewrite the expectations with `python tests/golden/regen.py`.
This test imports neither numpy nor hypothesis, so it also runs where only
the CLI's standard-library dependencies are installed.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent / "golden"))
import regen  # noqa: E402


def _close(actual, expected) -> bool:
    """Equal JSON values, floats to 1e-12 relative."""
    if isinstance(expected, float) and type(actual) is float:
        return actual == pytest.approx(expected, rel=1e-12)
    if isinstance(expected, dict) and isinstance(actual, dict):
        return actual.keys() == expected.keys() and all(_close(actual[k], v) for k, v in expected.items())
    if isinstance(expected, list) and isinstance(actual, list):
        return len(actual) == len(expected) and all(map(_close, actual, expected))
    return type(actual) is type(expected) and actual == expected


def _matches(actual: dict, expected: dict) -> bool:
    if "--json" in expected["argv"] and expected["exit"] == 0:
        stdout = json.loads("\n".join(actual["stdout"])), json.loads("\n".join(expected["stdout"]))
        return _close(*stdout) and all(actual[k] == expected[k] for k in expected if k != "stdout")
    return actual == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_cli_matches_the_golden_corpus():
    expected = json.loads(regen.EXPECTED.read_text())
    assert [(case["argv"], case["fault"]) for case in expected] == regen.cases()
    failed = [
        " ".join(case["argv"])
        for case in expected
        if not _matches(regen.run_case(case["argv"], case["fault"]), case)
    ]
    assert not failed, f"{len(failed)} cases differ; python tests/golden/regen.py rewrites them"
