"""Optimal linear spectral statistics for detecting weak principal components.

The pipeline: solve the spectral fixed-point equation for a discrete
population bulk, differentiate the forward map toward a spike
distribution, solve the first-kind integral equation for the best test
function, and validate power by Monte Carlo against the top-eigenvalue
test.  The public names are those of each module's ``__all__``.
"""

__version__ = "0.1.0"

from . import classical, kernel, measures, mp, optimal, simulate, weak_derivative
from .classical import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .mp import *  # noqa: F401,F403
from .optimal import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .weak_derivative import *  # noqa: F401,F403

__all__ = [name for module in (classical, kernel, measures, mp, optimal, simulate,
                               weak_derivative)
           for name in module.__all__]
