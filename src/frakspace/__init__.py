"""Smoothness analysis on Ahlfors-regular point clouds.

Build weighted point clouds from iterated function systems, approximate
functions by local polynomials in weighted L^u, form fractional sharp
maximal functions, assemble Calderon- and Besov-type norms, and verify the
expected inequalities between all of these with budgeted constants.

Each module declares its public names in its own ``__all__``; the package
re-exports all of them.
"""
from . import errors, functions, geometry, maximal, measure, norms, polyapprox, verify
from .errors import *  # noqa: F401,F403
from .functions import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .maximal import *  # noqa: F401,F403
from .measure import *  # noqa: F401,F403
from .norms import *  # noqa: F401,F403
from .polyapprox import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *functions.__all__,
    *geometry.__all__,
    *maximal.__all__,
    *measure.__all__,
    *norms.__all__,
    *polyapprox.__all__,
    *verify.__all__,
]
