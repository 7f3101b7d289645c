"""Rewrite expected.json: every CLI case of the golden corpus, run through `cli.main`.

Run from the repository root with `python tests/golden/regen.py`; it needs
only the standard library and the source tree.  Each case runs in-process,
in a fresh copy of `inputs/` as the working directory, with int()'s digit
limit pinned at CPython's default of 4300.  It records the exit code, stdout
and stderr (as lists of lines), and the SHA-256 of each file the case wrote
or changed.  `tests/test_golden.py` runs the same cases and compares.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
INPUTS, EXPECTED = HERE / "inputs", HERE / "expected.json"
sys.path.insert(0, str(HERE.parents[1] / "src"))

from genspace import cli, joint  # noqa: E402

# A case is an argv, or (argv, fault): the fault is a name in FAULTS.
CASES = [
    ["analyze", "dyadic.dist"],
    ["analyze", "dyadic.dist", "--json"],
    ["analyze", "coin.dist", "--renyi", "2", "--tsallis", "2"],
    ["analyze", "coin.dist", "--json", "--renyi", "2", "--tsallis", "2"],
    ["analyze", "bent.dist", "--base", "3", "--renyi", "0.5", "--tsallis", "3.7"],
    ["analyze", "random.dist", "--exact-limit", "4"],
    ["analyze", "random.dist", "--json", "--base", "10", "--renyi", "40"],
    ["analyze", "comments.dist", "--renyi", "1", "--tsallis", "1"],
    ["analyze", "one.dist", "--renyi", "2", "--tsallis", "2"],
    ["analyze", "one.dist", "--json"],
    ["analyze", "near_certain.dist", "--renyi", "2", "--tsallis", "2"],
    ["analyze", "near_certain.dist", "--json", "--renyi", "2", "--tsallis", "2"],
    ["analyze", "wide.dist", "--renyi", "2", "--tsallis", "2"],
    ["analyze", "wide.dist", "--json"],
    ["analyze", "wide_even.dist"],
    ["analyze", "wide_even.dist", "--json"],
    ["analyze", "u16.dist", "--json", "--renyi", "1e308"],
    ["analyze", "volume.dist", "--exact-limit", "2000"],
    ["analyze", "badsum.dist"],
    ["analyze", "malformed.dist"],
    ["analyze", "zero.dist"],
    ["analyze", "long.dist"],
    ["analyze", "missing.dist"],
    ["analyze", "dyadic.dist", "--base", "1"],
    ["analyze", "dyadic.dist", "--exact-limit", "0"],
    ["analyze", "dyadic.dist", "--renyi", "-1"],
    ["code", "build", "coin.dist"],
    ["code", "build", "bent.dist", "--json", "-o", "bent.table"],
    ["code", "build", "random.dist", "-o", "random.code"],
    ["code", "build", "near_certain.dist"],
    ["code", "build", "dyadic.dist", "-o", "dyadic.dist"],
    ["code", "build", "malformed.dist"],
    ["code", "encode", "dyadic.code", "s.txt", "out.gsc"],
    ["code", "encode", "bent.code", "bent_s.txt", "out.gsc"],
    ["code", "encode", "dyadic.code", "badsym.txt", "out.gsc"],
    ["code", "encode", "dyadic.code", "range.txt", "out.gsc"],
    ["code", "encode", "dyadic.code", "s.txt", "s.txt"],
    ["code", "encode", "bad.code", "s.txt", "out.gsc"],
    ["code", "decode", "dyadic.code", "s.gsc"],
    ["code", "decode", "dyadic.code", "s.gsc", "back.txt"],
    ["code", "decode", "dyadic.code", "s.gsc", "s.gsc"],
    ["code", "decode", "bent.code", "corrupt.gsc"],
    ["code", "decode", "dyadic.code", "badmagic.gsc"],
    ["code", "decode", "dyadic.code", "short.gsc"],
    ["code", "decode", "dyadic.code", "padding.gsc"],
    ["table1"],
    ["table1", "--json"],
    ["check", "indep.joint"],
    ["check", "dep.joint", "--json"],
    ["check", "random.joint"],
    ["check", "badrows.joint"],
    ["check", "zerorow.joint"],
    ["check", "malformed.joint"],
    (["check", "random.joint"], "failed_check"),
    (["check", "random.joint", "--json"], "failed_check"),
]


def _failed_check(j: joint.JointDistribution) -> joint.InequalityReport:
    """A report whose I >= 0 verdict fails, which no valid joint gives: exit 4."""
    return joint.check_inequalities(j)._replace(mi_nonnegative=False)


FAULTS = {"failed_check": lambda: mock.patch.object(cli, "check_inequalities", _failed_check)}


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def run_case(argv: list[str], fault: str | None = None) -> dict:
    """The exit code, output lines and written files of one CLI run on a copy of the inputs."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    old_limit = sys.get_int_max_str_digits()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(shutil.copytree(INPUTS, Path(tmp) / "inputs"))
        before = _digests(work)
        try:
            os.chdir(work)
            sys.set_int_max_str_digits(4300)
            with FAULTS[fault]() if fault else nullcontext(), redirect_stdout(out), redirect_stderr(err):
                status = cli.main(argv)
        finally:
            sys.set_int_max_str_digits(old_limit)
            os.chdir(cwd)
        files = {k: v for k, v in _digests(work).items() if before.get(k) != v}
    return {
        "argv": argv,
        "fault": fault,
        "exit": status,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
        "files": files,
    }


def cases() -> list[tuple[list[str], str | None]]:
    return [case if isinstance(case, tuple) else (case, None) for case in CASES]


if __name__ == "__main__":
    results = [run_case(argv, fault) for argv, fault in cases()]
    EXPECTED.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {len(results)} cases to {EXPECTED}")
