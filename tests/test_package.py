"""The package namespace: lazy Born-rule names and the public export list."""

import inspect
import os
import subprocess
import sys

import pytest

import genspace
from genspace import coding, distribution, entropy, joint

# genspace.__all__ before the layer lists became the package's export list.
FORTY_SIX_NAMES = [
    "ExactDistribution", "GenericSpace", "parse_distribution", "format_distribution",
    "generic_space", "collapse", "tensor_product", "VolumeReport", "EntropySuite",
    "combinatorial_volumes", "shannon_entropy", "shannon_via_ratio", "effective_dimension",
    "renyi_entropy", "tsallis_entropy", "projection_ratio", "projection_entropy",
    "entropy_suite", "JspsVector", "DensityMatrix", "DensityValidation", "MeasurementSet",
    "jsps_from_distribution", "collapse_jsps", "born_probability", "measure",
    "validate_density", "sample", "PrefixCode", "CodeStats", "DecodeError",
    "build_generic_code", "encode", "decode", "average_length", "huffman_oracle",
    "frame_bits", "unframe_bits", "JointDistribution", "InequalityReport", "product_joint",
    "marginals", "joint_entropy", "conditional_entropy", "mutual_information",
    "check_inequalities",
]
# Removed from the API since: a distribution is its own generic space, and the
# exact projection ratio built D**N.
REMOVED_NAMES = {"GenericSpace", "projection_ratio"}
LAYER_NAMES = {
    "parse_joint", "format_joint", "parse_code_table", "format_code_table",
    "parse_matrix", "format_matrix",
}


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


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # The result records are named tuples; dataclasses would pull in inspect.
    result = _run(
        "import sys, genspace.cli\n"
        "loaded = {'numpy', 'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
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


def test_born_names_are_the_born_export_list():
    assert genspace._BORN_NAMES == tuple(genspace.born.__all__)


def test_every_public_born_class_and_function_is_a_born_name():
    # born.__all__ is read from _BORN_NAMES, so the check above cannot catch a new
    # public name in genspace.born that was never added to the one list.
    born = genspace.born
    defined = {
        name for name, value in vars(born).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == born.__name__
    }
    assert defined == set(genspace._BORN_NAMES)


def test_every_layer_name_is_the_package_name():
    layers = (distribution, entropy, genspace.born, coding, joint)
    for layer in layers:
        for name in layer.__all__:
            assert getattr(genspace, name) is getattr(layer, name), (layer.__name__, name)
    assert genspace.__all__ == [name for layer in layers for name in layer.__all__]


def test_export_list_keeps_the_forty_six_names_in_order():
    kept = [name for name in FORTY_SIX_NAMES if name not in REMOVED_NAMES]
    assert [name for name in genspace.__all__ if name in FORTY_SIX_NAMES] == kept
    assert set(genspace.__all__) - set(FORTY_SIX_NAMES) == LAYER_NAMES
    assert len(genspace.__all__) == 50 and not REMOVED_NAMES & set(dir(genspace))
