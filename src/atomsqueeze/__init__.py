"""atomsqueeze: transient quadrature squeezing from a single two-level emitter.

Truncated Fock-space states and loss (fock), vacuum/one-photon
superpositions and squeezed vacuum (superposition), resonant atom-field
dynamics (jaynes_cummings), phase-space grids (wigner), homodyne Monte
Carlo (homodyne), temporal modes and the detection budget (modes), and a
command line front end (cli).
"""

from .errors import *
from .fock import *
from .homodyne import *
from .jaynes_cummings import *
from .modes import *
from .superposition import *
from .wigner import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *fock.__all__, *homodyne.__all__, *jaynes_cummings.__all__,
    *modes.__all__, *superposition.__all__, *wigner.__all__, "__version__",
]
