"""Borders, mutual overlaps, exact pair counts, and their limits.

The package splits into small layers: wordcore holds the word-level
definitions and linear-time border machinery, counting the exact
recurrences, oracle the brute-force enumerations that cross-check them,
asymptotics the certified interval arithmetic for the limiting
constants, and cli the command-line front end.

Each library layer declares its own public names in its __all__; this
module only imports them and composes the package's __all__ from those
lists, so a public name is added or retired in its layer alone.
"""

from .asymptotics import *
from .counting import *
from .errors import *
from .oracle import *
from .wordcore import *

__version__ = "0.3.0"

__all__ = ["__version__"]
__all__ += asymptotics.__all__
__all__ += counting.__all__
__all__ += errors.__all__
__all__ += oracle.__all__
__all__ += wordcore.__all__
