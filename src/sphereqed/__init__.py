"""Body-assisted collective decay and long-living two-atom entanglement near
a lossy dielectric microsphere.

The package splits into four layers: `special` (complex-argument spherical
Bessel machinery), `microsphere` (Mie coefficients, collective rates, field
resonances), `dynamics` (single-excitation amplitude evolution under a
Lorentzian resonance) and `steady_state` (stationary two-qubit density matrix
and concurrence).  `cli` wires them into reproducible CSV sweeps.
"""

from .dynamics import (
    CouplingParams,
    DriveSpec,
    amplitude_closed,
    ode_coeffs,
    prepare_drive,
)
from .microsphere import (
    DrudeLorentzParams,
    SphereSystem,
    find_resonances,
)
from .steady_state import (
    SteadyState,
    assemble_density,
    concurrence_oracle,
    concurrence_closed_form,
    decayed_steady_state,
    steady_state_from_params,
)

__version__ = "0.1.0"

__all__ = [
    "CouplingParams",
    "DriveSpec",
    "DrudeLorentzParams",
    "SphereSystem",
    "SteadyState",
    "amplitude_closed",
    "assemble_density",
    "concurrence_oracle",
    "concurrence_closed_form",
    "decayed_steady_state",
    "find_resonances",
    "ode_coeffs",
    "prepare_drive",
    "steady_state_from_params",
]
