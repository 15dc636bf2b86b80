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

from .cavity import (
    Branch,
    CavityConfig,
    Resonance,
    find_resonances,
    intracavity_transfer,
    kappa_bare,
    kappa_mbc,
    reflection,
    tuned_length,
)
from .dielectric import (
    MediumParams,
    bulk_dispersion,
    epsilon,
    group_velocity,
    in_stop_band,
    refractive_index,
    wavenumber,
)
from .errors import (
    BranchError,
    ConfigError,
    PolaritonError,
    ResonanceScanError,
    StepSizeError,
    StopBandError,
    ToleranceError,
)
from .fluct import (
    FieldCommutators,
    backward_commutator_decay,
    forward_commutator_decay,
    mode_commutators,
    solve_omega_q,
)
from .greens import (
    delta_jump,
    fd_error,
    fd_step,
    green_function,
    membrane_jump,
    ode_residual,
)
from .hopfield import BogoliubovProblem, HopfieldModes, hopfield_modes, weight
from .iomodel import (
    figure2_sweep,
    kappa_fit,
    kappa_rwa,
    output_amplitude,
    polariton_response,
)
from .tables import SweepTable, write_csv

__version__ = "0.1.0"

__all__ = [
    "BogoliubovProblem",
    "Branch",
    "BranchError",
    "CavityConfig",
    "ConfigError",
    "FieldCommutators",
    "HopfieldModes",
    "MediumParams",
    "PolaritonError",
    "Resonance",
    "ResonanceScanError",
    "StepSizeError",
    "StopBandError",
    "SweepTable",
    "ToleranceError",
    "backward_commutator_decay",
    "bulk_dispersion",
    "delta_jump",
    "epsilon",
    "fd_error",
    "fd_step",
    "figure2_sweep",
    "find_resonances",
    "forward_commutator_decay",
    "green_function",
    "group_velocity",
    "hopfield_modes",
    "in_stop_band",
    "intracavity_transfer",
    "kappa_bare",
    "kappa_fit",
    "kappa_mbc",
    "kappa_rwa",
    "membrane_jump",
    "mode_commutators",
    "ode_residual",
    "output_amplitude",
    "polariton_response",
    "reflection",
    "refractive_index",
    "solve_omega_q",
    "tuned_length",
    "wavenumber",
    "weight",
    "write_csv",
]
