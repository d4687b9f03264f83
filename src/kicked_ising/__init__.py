"""Kicked Ising chain simulator.

Exact state-vector dynamics of periodically kicked Ising chains, with
quasi-energy spectra, entanglement entropies, the geometric measure of
entanglement, and quantum-Fisher-information depth certification.
"""

__version__ = "0.1.0"

# Each module states its public names in its own __all__; the package
# re-exports them all, and lists them by ``+=``, a form static tools follow.
from .core import *
from .entanglement import *
from .experiment import *
from .floquet import *
from .qfi import *
from .spectral import *

__all__ = []
__all__ += core.__all__
__all__ += entanglement.__all__
__all__ += experiment.__all__
__all__ += floquet.__all__
__all__ += qfi.__all__
__all__ += spectral.__all__
__all__ += ["__version__"]
