"""Stationary two-qubit state left behind after the excitation has decayed.

The populations alpha_pm of the symmetric/antisymmetric metastable states and
their coherence beta are time integrals of bilinear combinations of the
amplitudes C_pm(t).  Because the closed-form amplitudes are finite sums of
t^p e^{lambda t} modes, every integral has an exact closed form; quadrature on
a sampled trajectory is kept in the test suite as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BRANCHES,
    AmplitudeTrajectory,
    CouplingParams,
    DriveSpec,
    amplitude_closed,
    amplitude_modes,
)

# computational two-qubit basis ordering used for every 4x4 matrix here
BASIS_LABELS = ("11", "12", "21", "22")


class UndecayedTrajectoryError(ValueError):
    """Trajectory has not decayed at its endpoint; the stationary integrals
    would be truncated."""


@dataclass(frozen=True)
class SteadyState:
    """(alpha_+, alpha_-, beta) of the stationary density operator.

    beta may be None when a regime closed form does not provide it (no
    dominant Rabi branch to expand around).
    """

    alpha_plus: float
    alpha_minus: float
    beta: complex | None

    def __post_init__(self):
        if self.alpha_plus < -1e-12 or self.alpha_minus < -1e-12:
            raise ValueError("populations must be non-negative")
        if self.alpha_plus + self.alpha_minus > 1.0 + 1e-9:
            raise ValueError("alpha_+ + alpha_- must not exceed 1")
        if self.beta is not None:
            bound = self.alpha_plus * self.alpha_minus + 1e-9
            if abs(self.beta) ** 2 > bound:
                raise ValueError("|beta|^2 exceeds alpha_+ alpha_- (coherence block not positive)")


@dataclass(frozen=True)
class TwoQubitDensity:
    """4x4 density matrix in the basis {|1,1>, |1,2>, |2,1>, |2,2>}."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian to 1e-12")
        if abs(np.trace(m).real - 1.0) > 1e-12 or abs(np.trace(m).imag) > 1e-12:
            raise ValueError("density matrix trace must be 1 to 1e-12")
        if np.min(np.linalg.eigvalsh(m)) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "matrix", m)


def _mode_overlap(modes_a, modes_b) -> complex:
    """integral_0^inf C_a(t) conj(C_b(t)) dt for exponential-mode sums."""
    total = 0.0 + 0.0j
    for ca, la, pa in modes_a:
        for cb, lb, pb in modes_b:
            sigma = la + np.conj(lb)
            if sigma.real >= 0:
                raise ValueError("mode integral diverges: non-decaying amplitude product")
            n = pa + pb
            total += ca * np.conj(cb) * math.factorial(n) / (-sigma) ** (n + 1)
    return total


def steady_state_from_params(
    p: CouplingParams, d: DriveSpec, gamma32_pm: tuple[float, float] | None = None
) -> SteadyState:
    """Exact stationary (alpha_+, alpha_-, beta) from the closed-form modes."""
    if gamma32_pm is None:
        gamma32_pm = (p.gamma32_pm("+"), p.gamma32_pm("-"))
    g32p, g32m = gamma32_pm
    modes_p = amplitude_modes(p, d, "+")
    modes_m = amplitude_modes(p, d, "-")
    ipp = _mode_overlap(modes_p, modes_p).real
    imm = _mode_overlap(modes_m, modes_m).real
    ipm = _mode_overlap(modes_p, modes_m)
    alpha_plus = 0.5 * g32p * ipp + 0.5 * g32m * imm
    alpha_minus = 0.5 * g32m * ipp + 0.5 * g32p * imm
    beta = 0.5 * g32p * ipm + 0.5 * g32m * np.conj(ipm)
    return SteadyState(alpha_plus=alpha_plus, alpha_minus=alpha_minus, beta=complex(beta))


def _require_decayed(endpoints) -> None:
    """Raise UndecayedTrajectoryError unless |C| < 1e-6 at the end of every
    (branch, C(T_end)) pair: the stationary integrals run to infinity, and
    an amplitude still alive at T_end means the horizon is too short."""
    for b, c_end in endpoints:
        if abs(c_end) >= 1e-6:
            raise UndecayedTrajectoryError(
                f"|C_{b}(T_end)| = {abs(c_end):.3e} >= 1e-6; extend the trajectory"
            )


def integrate_alpha_beta(
    traj: AmplitudeTrajectory, gamma32_pm: tuple[float, float]
) -> SteadyState:
    """Stationary state from a trajectory's parameter set.

    The trajectory must have decayed at its endpoint (|C| < 1e-6 on both
    branches); the integrals themselves are evaluated analytically from the
    exponential-mode expansion carried by traj.params and traj.drive.
    """
    _require_decayed((b, traj.branch(b)[-1]) for b in BRANCHES)
    return steady_state_from_params(traj.params, traj.drive, gamma32_pm)


def decayed_steady_state(
    p: CouplingParams, d: DriveSpec, t_end: float, gamma32_pm: tuple[float, float]
) -> SteadyState:
    """Stationary state from the closed-form modes, once the closed-form
    amplitudes have decayed at t_end (|C_pm(t_end)| < 1e-6): the guard of
    integrate_alpha_beta, evaluated at t_end without sampling a trajectory."""
    _require_decayed((b, amplitude_closed(p, d, b, t_end)) for b in BRANCHES)
    return steady_state_from_params(p, d, gamma32_pm)


def alpha_beta_regime(
    p: CouplingParams,
    d: DriveSpec,
    regime: str,
    dominance_min: float = 5.0,
) -> SteadyState:
    """Regime closed forms for the stationary state.

    The beta expressions hold only when one Rabi frequency clearly dominates
    the other; below dominance_min the coherence is reported as None instead
    of extrapolating the formula outside its derivation.
    """
    g32p, g32m = p.gamma32_pm("+"), p.gamma32_pm("-")
    gaa = p.gamma32_aa
    dwc = p.delta_omega_c
    fp, fm = complex(d.f_plus0), complex(d.f_minus0)
    gp, gm = p.g_plus, p.g_minus
    dom_plus = gp >= gm
    g_dom = gp if dom_plus else gm
    g_sub = gm if dom_plus else gp
    fp2, fm2 = abs(fp) ** 2, abs(fm) ** 2

    if regime == "A":
        # Rabi integral on the dominant branch, two-channel decay on the weak
        i_plus = fp2 / (gp**2 * gaa) if dom_plus else 2.0 * fp2 / (gaa**2 * dwc)
        i_minus = 2.0 * fm2 / (gaa**2 * dwc) if dom_plus else fm2 / (gm**2 * gaa)
        alpha_p = 0.5 * g32p * i_plus + 0.5 * g32m * i_minus
        alpha_m = 0.5 * g32m * i_plus + 0.5 * g32p * i_minus
    elif regime == "B":
        alpha_p = 0.5 * g32p * fp2 / (gp**2 * gaa) + 0.5 * g32m * fm2 / (gm**2 * gaa)
        alpha_m = 0.5 * g32m * fp2 / (gp**2 * gaa) + 0.5 * g32p * fm2 / (gm**2 * gaa)
    elif regime == "C":
        den_p = gaa**2 * (dwc + 2.0 * gp**2 / gaa)
        den_m = gaa**2 * (dwc + 2.0 * gm**2 / gaa)
        alpha_p = g32p * fp2 / den_p + g32m * fm2 / den_m
        alpha_m = g32m * fp2 / den_p + g32p * fm2 / den_m
    else:
        raise ValueError(f"no stationary closed form for regime {regime!r}")

    cross = g32p * fp * np.conj(fm) + g32m * np.conj(fp) * fm
    if g_sub > 0 and g_dom < dominance_min * g_sub:
        beta = None
    elif regime in ("A", "B"):
        beta = complex(cross * gaa / (2.0 * g_dom**4))
    else:
        beta = complex(cross / (gaa**2 * (dwc + g_dom**2 / gaa)))
    return SteadyState(alpha_plus=float(alpha_p), alpha_minus=float(alpha_m), beta=beta)


def assemble_density(s: SteadyState) -> TwoQubitDensity:
    """Expand the stationary operator into the computational basis.

    rho = alpha_+ |+><+| + alpha_- |-><-| + (beta |+><-| + h.c.)
          + (1 - alpha_+ - alpha_-) |1,1><1,1|
    with |+-> = (|2,1> +- |1,2>)/sqrt(2).
    """
    beta = 0.0 + 0.0j if s.beta is None else complex(s.beta)
    plus = np.zeros(4, dtype=complex)
    minus = np.zeros(4, dtype=complex)
    isq2 = 1.0 / math.sqrt(2.0)
    plus[2], plus[1] = isq2, isq2      # (|2,1> + |1,2>)/sqrt(2)
    minus[2], minus[1] = isq2, -isq2   # (|2,1> - |1,2>)/sqrt(2)
    rho = (
        s.alpha_plus * np.outer(plus, plus.conj())
        + s.alpha_minus * np.outer(minus, minus.conj())
        + beta * np.outer(plus, minus.conj())
        + np.conj(beta) * np.outer(minus, plus.conj())
    )
    rho[0, 0] += 1.0 - s.alpha_plus - s.alpha_minus
    return TwoQubitDensity(matrix=rho)


def concurrence_closed_form(s: SteadyState) -> float:
    """Concurrence from the two nonzero spin-flip eigenvalues.

    lambda_pm = (1/2){a+^2 + a-^2 - 2[(Re b)^2 - (Im b)^2]}
                +- (1/2) sqrt([(a+ + a-)^2 - 4(Re b)^2][(a+ - a-)^2 + 4(Im b)^2])
    and C = sqrt(lambda_+) - sqrt(lambda_-).
    """
    if s.beta is None:
        raise ValueError("concurrence needs a definite beta")
    ap, am = s.alpha_plus, s.alpha_minus
    br, bi = s.beta.real, s.beta.imag
    mid = 0.5 * (ap**2 + am**2 - 2.0 * (br**2 - bi**2))
    rad = ((ap + am) ** 2 - 4.0 * br**2) * ((ap - am) ** 2 + 4.0 * bi**2)
    if rad < 0:
        if rad < -1e-9:
            raise ValueError("inconsistent steady state: negative discriminant")
        rad = 0.0
    lam_p = mid + 0.5 * math.sqrt(rad)
    if lam_p < -1e-9:
        raise ValueError(f"inconsistent steady state: eigenvalue {lam_p}")
    if lam_p <= 0.0:
        return 0.0
    # lambda_- through the product identity lambda_+ lambda_- =
    # (alpha_+ alpha_- - |beta|^2)^2, which avoids the mid - half
    # cancellation near the positivity boundary
    det_block = ap * am - (br**2 + bi**2)
    sq_m = abs(det_block) / math.sqrt(lam_p)
    return max(math.sqrt(lam_p) - sq_m, 0.0)


def concurrence_oracle(rho) -> float:
    """Wootters concurrence of an arbitrary two-qubit density matrix via the
    full spin-flip construction (general-purpose cross-check).

    The needed square roots of the eigenvalues of rho * rho_tilde are the
    singular values of A = sqrt(rho) (sy x sy) sqrt(rho)^*: A A^dagger is
    similar to rho * rho_tilde, and an SVD delivers each sqrt(lambda) with
    full absolute accuracy even when an eigenvalue sits at zero.
    """
    m = rho.matrix if isinstance(rho, TwoQubitDensity) else np.asarray(rho, dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    w, v = np.linalg.eigh(m)
    sqrt_m = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    roots = np.linalg.svd(sqrt_m @ flip @ sqrt_m.conj(), compute_uv=False)
    roots = np.sort(roots)[::-1]
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def entanglement_check(s: SteadyState, dominance: float) -> bool:
    """True when one of alpha_+/alpha_- dominates both the other population
    and |beta| by the given factor, the regime of near-pure Bell states."""
    if dominance <= 1:
        raise ValueError("dominance must exceed 1")
    b = 0.0 if s.beta is None else abs(s.beta)
    return (
        s.alpha_plus >= dominance * max(s.alpha_minus, b)
        or s.alpha_minus >= dominance * max(s.alpha_plus, b)
    )
