"""Open-cavity polariton spectra from weak to ultrastrong coupling.

Numerical engine for a one-dimensional cavity terminated by a perfect
mirror and a partially transparent membrane, filled with a Lorentz
dielectric. Exposes the bulk medium response, the discrete two-mode
diagonalization, boundary-condition cavity spectra with resonance and
dissipation-rate extraction, the cavity Green's function, an
input-output layer comparing two dissipation-rate prescriptions, and
equal-time field commutator scalings. Natural units throughout:
c = hbar = eps0 = 1.
"""

# each module's __all__ lists its public names; the package's joins them
from . import cavity, dielectric, errors, fluct, greens, hopfield, iomodel, tables
from .cavity import *  # noqa: F403
from .dielectric import *  # noqa: F403
from .errors import *  # noqa: F403
from .fluct import *  # noqa: F403
from .greens import *  # noqa: F403
from .hopfield import *  # noqa: F403
from .iomodel import *  # noqa: F403
from .tables import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (cavity, dielectric, errors, fluct, greens, hopfield, iomodel, tables)
    for name in module.__all__
]
