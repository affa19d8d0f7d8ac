"""Exact invariants of Hecke congruence groups and machine-checkable
certificates for one-dimensional spaces of weight-3/2 cusp forms carrying
the cube of the eta multiplier.

The public names are those of the modules' own ``__all__`` lists; each is
importable from here.  ``cuspdim.classify`` is the function, not the module.
"""

from . import classify as _classify, exact, gamma0, multiplier, oracle, qseries, verify
from .classify import *  # noqa: F403
from .exact import *  # noqa: F403
from .gamma0 import *  # noqa: F403
from .multiplier import *  # noqa: F403
from .oracle import *  # noqa: F403
from .qseries import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (_classify, exact, gamma0, multiplier, oracle, qseries, verify)
    for name in module.__all__
)
