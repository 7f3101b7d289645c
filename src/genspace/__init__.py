"""Exact-arithmetic generic spaces for finite discrete distributions.

The package turns a distribution of rational probabilities into its
minimal uniform "generic space", and builds on that construction:
combinatorial-volume entropy identities, effective dimension, optimal
prefix coding in the dyadic case, a geometric (Born-rule) probability
model, and elementary information-inequality checks.

The Born-rule names (and ``genspace.born``) load on first use, so that
``import genspace`` and the CLI do not import numpy.
"""

import importlib

from .coding import (
    CodeStats,
    DecodeError,
    PrefixCode,
    average_length,
    build_generic_code,
    decode,
    encode,
    frame_bits,
    huffman_oracle,
    unframe_bits,
)
from .distribution import (
    ExactDistribution,
    GenericSpace,
    collapse,
    format_distribution,
    generic_space,
    parse_distribution,
    tensor_product,
)
from .entropy import (
    EntropySuite,
    VolumeReport,
    combinatorial_volumes,
    effective_dimension,
    entropy_suite,
    projection_entropy,
    projection_ratio,
    renyi_entropy,
    shannon_entropy,
    shannon_via_ratio,
    tsallis_entropy,
)
from .joint import (
    InequalityReport,
    JointDistribution,
    check_inequalities,
    conditional_entropy,
    joint_entropy,
    marginals,
    mutual_information,
    product_joint,
)

__version__ = "0.1.0"

# Resolved from genspace.born by __getattr__ (PEP 562) on first access.
_BORN_NAMES = (
    "JspsVector",
    "DensityMatrix",
    "DensityValidation",
    "MeasurementSet",
    "jsps_from_distribution",
    "collapse_jsps",
    "born_probability",
    "measure",
    "validate_density",
    "sample",
)

__all__ = [
    "ExactDistribution",
    "GenericSpace",
    "parse_distribution",
    "format_distribution",
    "generic_space",
    "collapse",
    "tensor_product",
    "VolumeReport",
    "EntropySuite",
    "combinatorial_volumes",
    "shannon_entropy",
    "shannon_via_ratio",
    "effective_dimension",
    "renyi_entropy",
    "tsallis_entropy",
    "projection_ratio",
    "projection_entropy",
    "entropy_suite",
    *_BORN_NAMES,
    "PrefixCode",
    "CodeStats",
    "DecodeError",
    "build_generic_code",
    "encode",
    "decode",
    "average_length",
    "huffman_oracle",
    "frame_bits",
    "unframe_bits",
    "JointDistribution",
    "InequalityReport",
    "product_joint",
    "marginals",
    "joint_entropy",
    "conditional_entropy",
    "mutual_information",
    "check_inequalities",
]


def __getattr__(name: str):
    if name == "born" or name in _BORN_NAMES:
        # import_module, not `from . import born`: the latter asks this
        # package for `born` and so would re-enter __getattr__.
        born = importlib.import_module(".born", __name__)
        return born if name == "born" else getattr(born, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_BORN_NAMES, "born"})
