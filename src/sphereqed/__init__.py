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
    amplitude_volterra,
    ode_coeffs,
    prepare_drive,
    rabi_g,
    regime_amplitude,
    regime_classify,
    sample_closed,
)
from .microsphere import (
    DrudeLorentzParams,
    NonConvergenceError,
    PoleError,
    Resonance,
    SphereSystem,
    collective_rate,
    collective_rates,
    find_resonances,
    mie_coefficient,
    permittivity,
    rates_pm,
    single_term_rate,
)
from .steady_state import (
    BASIS_LABELS,
    SteadyState,
    TwoQubitDensity,
    UndecayedTrajectoryError,
    alpha_beta_regime,
    assemble_density,
    concurrence_oracle,
    concurrence_closed_form,
    entanglement_check,
    integrate_alpha_beta,
    steady_state_from_params,
)

__version__ = "0.1.0"

__all__ = [
    "BASIS_LABELS",
    "CouplingParams",
    "DriveSpec",
    "DrudeLorentzParams",
    "NonConvergenceError",
    "PoleError",
    "Resonance",
    "SphereSystem",
    "SteadyState",
    "TwoQubitDensity",
    "UndecayedTrajectoryError",
    "alpha_beta_regime",
    "amplitude_closed",
    "amplitude_volterra",
    "assemble_density",
    "collective_rate",
    "collective_rates",
    "concurrence_oracle",
    "concurrence_closed_form",
    "entanglement_check",
    "find_resonances",
    "integrate_alpha_beta",
    "mie_coefficient",
    "ode_coeffs",
    "permittivity",
    "prepare_drive",
    "rabi_g",
    "rates_pm",
    "regime_amplitude",
    "regime_classify",
    "sample_closed",
    "single_term_rate",
    "steady_state_from_params",
]
