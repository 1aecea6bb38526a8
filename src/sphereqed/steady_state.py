"""Stationary two-qubit state left behind after the excitation has decayed.

The populations alpha_pm of the symmetric/antisymmetric metastable states and
their coherence beta are time integrals of bilinear combinations of the
amplitudes C_pm(t).  Because the closed-form amplitudes are finite sums of
t^p e^{lambda t} modes, every integral has an exact closed form; quadrature on
a sampled trajectory is kept in the test suite as an independent check.

The chain from the closed-form modes to the concurrence (_mode_overlap,
steady_state_from_params, decayed_steady_state, SteadyState and
concurrence_closed_form) works elementwise on one value per point, as the
dynamics chain does: a sweep is one call, a float is one point, and every
check is made per point and raises a PointError that names the first point
failing it.  assemble_density and concurrence_oracle take one state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BRANCHES,
    CouplingParams,
    DriveSpec,
    PointError,
    _check,
    _mode_sum,
    amplitude_modes,
)

class UndecayedTrajectoryError(PointError):
    """Trajectory has not decayed at its endpoint; the stationary integrals
    would be truncated."""


@dataclass(frozen=True)
class SteadyState:
    """(alpha_+, alpha_-, beta) of the stationary density operator, each a
    number or one value per point.

    beta may be None when a regime closed form does not provide it (no
    dominant Rabi branch to expand around).
    """

    alpha_plus: float
    alpha_minus: float
    beta: complex | None

    def __post_init__(self):
        ap, am = self.alpha_plus, self.alpha_minus
        _check((ap < -1e-12) | (am < -1e-12), "populations must be non-negative")
        _check(ap + am > 1.0 + 1e-9, "alpha_+ + alpha_- must not exceed 1")
        if self.beta is not None:
            _check(np.abs(self.beta) ** 2 > ap * am + 1e-9,
                   "|beta|^2 exceeds alpha_+ alpha_- (coherence block not positive)")


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


def _mode_overlap(modes_a, modes_b):
    """integral_0^inf C_a(t) conj(C_b(t)) dt for exponential-mode sums, at
    every point of the modes.

    The terms of mode pairs (1, 1) and (2, 2), and of (1, 2) and (2, 1), are
    added first: where the two modes of each branch are complex conjugates
    (complex roots of a real ODE) those terms are too, so an exactly real
    integral comes out with imaginary part 0."""

    def term(a, b):
        (ca, la, pa), (cb, lb, pb) = a, b
        sigma = la + np.conj(lb)
        _check(sigma.real >= 0, "mode integral diverges: non-decaying amplitude product")
        n = pa + pb
        # n! for the mode powers n = pa + pb <= 2
        return ca * np.conj(cb) * np.maximum(n, 1) / (-sigma) ** (n + 1)

    (a1, a2), (b1, b2) = modes_a, modes_b
    return (term(a1, b1) + term(a2, b2)) + (term(a1, b2) + term(a2, b1))


def steady_state_from_params(p: CouplingParams, d: DriveSpec) -> SteadyState:
    """Exact stationary (alpha_+, alpha_-, beta) from the closed-form modes."""
    return _steady_state(p, *(amplitude_modes(p, d, b) for b in BRANCHES))


def _steady_state(p: CouplingParams, modes_p, modes_m) -> SteadyState:
    """(alpha_+, alpha_-, beta) from the amplitude_modes of both branches."""
    g32p, g32m = p.gamma32_pm("+"), p.gamma32_pm("-")
    ipp = _mode_overlap(modes_p, modes_p).real
    imm = _mode_overlap(modes_m, modes_m).real
    ipm = _mode_overlap(modes_p, modes_m)
    alpha_plus = 0.5 * g32p * ipp + 0.5 * g32m * imm
    alpha_minus = 0.5 * g32m * ipp + 0.5 * g32p * imm
    beta = 0.5 * g32p * ipm + 0.5 * g32m * np.conj(ipm)
    return SteadyState(alpha_plus=alpha_plus, alpha_minus=alpha_minus, beta=beta)


def decayed_steady_state(p: CouplingParams, d: DriveSpec, t_end: float) -> SteadyState:
    """Stationary state from the closed-form modes, once the closed-form
    amplitudes have decayed at t_end.

    Raises UndecayedTrajectoryError unless |C_pm(t_end)| < 1e-6 at every
    point (t_end is a number or one per point): the stationary integrals
    run to infinity, and an amplitude still alive at t_end means the
    horizon is too short.
    """
    modes = [amplitude_modes(p, d, b) for b in BRANCHES]
    t_end = np.asarray(t_end, dtype=float)
    for b, branch_modes in zip(BRANCHES, modes):
        c_end = np.ravel(np.abs(_mode_sum(branch_modes, t_end)))
        _check(c_end >= 1e-6, lambda k: UndecayedTrajectoryError(
            f"|C_{b}(T_end)| = {c_end[k]:.3e} >= 1e-6; extend the trajectory", k))
    return _steady_state(p, *modes)


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
    and C = sqrt(lambda_+) - sqrt(lambda_-), at every point of s.
    """
    if s.beta is None:
        raise ValueError("concurrence needs a definite beta")
    ap, am = np.asarray(s.alpha_plus, dtype=float), np.asarray(s.alpha_minus, dtype=float)
    beta = np.asarray(s.beta, dtype=complex)
    br, bi = beta.real, beta.imag
    mid = 0.5 * (ap**2 + am**2 - 2.0 * (br**2 - bi**2))
    rad = ((ap + am) ** 2 - 4.0 * br**2) * ((ap - am) ** 2 + 4.0 * bi**2)
    _check(rad < -1e-9, "inconsistent steady state: negative discriminant")
    lam_p = mid + 0.5 * np.sqrt(np.where(rad < 0, 0.0, rad))
    flat = np.ravel(lam_p)
    _check(flat < -1e-9, lambda k: PointError(
        f"inconsistent steady state: eigenvalue {float(flat[k])}", k))
    # lambda_- through the product identity lambda_+ lambda_- =
    # (alpha_+ alpha_- - |beta|^2)^2, which avoids the mid - half
    # cancellation near the positivity boundary; C = 0 where lambda_+ <= 0
    zero = lam_p <= 0.0
    det_block = ap * am - (br**2 + bi**2)
    root = np.sqrt(np.where(zero, 1.0, lam_p))
    sq_m = np.abs(det_block) / root
    return np.where(zero, 0.0, np.maximum(root - sq_m, 0.0))[()]


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
