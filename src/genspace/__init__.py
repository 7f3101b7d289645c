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

from . import coding, distribution, entropy, joint
from .coding import *
from .distribution import *
from .entropy import *
from .joint import *

__version__ = "0.1.0"

# genspace.born.__all__, resolved by __getattr__ (PEP 562) on first access;
# reading born.__all__ itself would import numpy.
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
    "parse_matrix",
    "format_matrix",
)

__all__ = [*distribution.__all__, *entropy.__all__, *_BORN_NAMES, *coding.__all__, *joint.__all__]


def __getattr__(name: str):
    if name == "born" or name in _BORN_NAMES:
        # import_module, not `from . import born`: the latter asks this
        # package for `born` and so would re-enter __getattr__.
        born = importlib.import_module(".born", __name__)
        return born if name == "born" else getattr(born, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_BORN_NAMES, "born"})
