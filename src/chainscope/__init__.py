"""Finite metric spaces: chain connectivity, sequence tests, Lipschitz-type
moduli, and level-set approximation.

The package computes, on concrete finite data, the objects that the theory
of chain-connected metric spaces defines in the limit: strict epsilon
chains and their components, staged smallness tests for sequence prefixes,
five slope-style moduli for scalar functions, and the partition-of-unity
construction that approximates a function by scaled integer levels.

Each module's ``__all__`` names its public API; the package exports all
of them.
"""

from . import approximation, chains, errors, fixtures, harness, metric
from . import moduli, sequences
from .approximation import *  # noqa: F403
from .chains import *  # noqa: F403
from .errors import *  # noqa: F403
from .fixtures import *  # noqa: F403
from .harness import *  # noqa: F403
from .metric import *  # noqa: F403
from .moduli import *  # noqa: F403
from .sequences import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (metric, chains, sequences, moduli, approximation,
                   fixtures, harness, errors)
    for name in module.__all__
]
