"""The package namespace: lazy Born-rule names and the public export list."""

import os
import subprocess
import sys

import pytest

import genspace


def _run(code):
    """Run `code` in a fresh interpreter with this process's import path."""
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)},
        timeout=60,
    )


def test_cli_import_leaves_numpy_unloaded():
    result = _run(
        "import sys, genspace.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        "assert 'genspace.born' not in sys.modules, 'genspace.born imported'\n"
    )
    assert result.returncode == 0, result.stderr


def test_born_names_resolve_on_first_access():
    result = _run(
        "import sys, genspace\n"
        "assert 'numpy' not in sys.modules\n"
        "rho = genspace.DensityMatrix([[1.0]])\n"
        "assert 'numpy' in sys.modules\n"
        "assert genspace.born is sys.modules['genspace.born']\n"
        "assert type(rho) is genspace.born.DensityMatrix\n"
    )
    assert result.returncode == 0, result.stderr


def test_born_module_and_names():
    from genspace import DensityMatrix, born

    assert genspace.born is born
    assert genspace.DensityMatrix is born.DensityMatrix is DensityMatrix
    assert genspace.sample is born.sample
    assert {"born", "DensityMatrix", "sample"} <= set(dir(genspace))


def test_star_import_exports_every_public_name():
    namespace = {}
    exec("from genspace import *", namespace)
    assert set(genspace.__all__) <= set(namespace)
    assert len(genspace.__all__) == len(set(genspace.__all__))
    assert "jacobi_eigenvalues" not in genspace.__all__


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        genspace.no_such_name
