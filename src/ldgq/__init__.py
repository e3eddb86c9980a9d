"""Q-tensor analysis toolkit for nematic liquid crystals.

Closed-form bulk phase analysis, explicit norm bounds for energy minimizers,
a 3D gradient-flow minimizer of the one-constant free energy (quartic,
general even-polynomial, and penalized variants), and an independent
second-moment oracle built from orientation distributions on the sphere.
"""

# each module's __all__, and the exception classes of errors
from .bounds import *
from .bulk import *
from .errors import *
from .moments import *
from .qtensor import *
from .solver import *

__version__ = "0.1.0"
