"""orbitlab: lattice-orbit approximation experiments in the plane and on the modular quotient.

The package's names are those each module declares public in its ``__all__``
(``errors`` defines only public exception classes).
"""

__version__ = "0.1.0"

from .errors import *
from .matrices import *
from .enumeration import *
from .approx import *
from .homogeneous import *
from .ergodic import *
