"""Cost-effective multi-LiDAR placement.

Voxelize a region of interest, segment it into the non-detectable subspaces
cut out by spinning-beam cones, and search sensor poses that minimize the
worst subspace's volume-to-surface-area ratio.  A Monte Carlo detection-rate
estimator validates the objective as a detection proxy.

The package re-exports every name in its library modules' ``__all__``.
"""

from . import bees, cost, geometry, odr, scenario, segmentation
from .bees import *  # noqa: F401,F403
from .cost import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .odr import *  # noqa: F401,F403
from .scenario import *  # noqa: F401,F403
from .segmentation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bees, cost, geometry, odr, scenario, segmentation)
    for name in module.__all__
]
