"""Citation-concentration analysis with Leimkuhler curves.

The package models how total citations concentrate in the most-cited
sources.  It provides the empirical Leimkuhler polygon of a count
dataset, eight parametric curve families (a base power form, its
generalized and Pareto variants, and five mixture families capturing
heterogeneity across sources), concentration indices (Gini,
generalized Gini, Pietra), nonlinear least-squares fitting with
CAIC-based model ranking, curve dominance orderings, and report
rendering.  The `leimkuhler` console script exposes the same pipeline
on the command line.

Each module's `__all__` declares its public names; the package
re-exports them all.
"""

import sys

from ._version import __version__
from .curves import *
from .empirical import *
from .fit import *
from .indices import *
from .order import *
from .report import *
from .specfun import *

# the wildcard imports bind `fit` to the function, so the submodules
# are taken from sys.modules
__all__ = ["__version__"] + [
    name
    for module in ("curves", "empirical", "fit", "indices", "order", "report", "specfun")
    for name in sys.modules[f"{__name__}.{module}"].__all__
]
