"""Stationary two-qubit state left behind after the excitation has decayed.

The populations alpha_pm of the symmetric/antisymmetric metastable states and
their coherence beta are time integrals of bilinear combinations of the
amplitudes C_pm(t).  Each amplitude solves C'' + a1 C' + a2 C = 0 with
C(0) = 0 and C'(0) = F(0), so each integral is a rational function of the
ODE coefficients of its two branches and of their drives (_overlap);
quadrature on a sampled trajectory is kept in the test suite as an
independent check.

The chain from the ODE coefficients to the concurrence (_overlap,
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
    amplitude_closed,
    ode_coeffs,
)

class UndecayedTrajectoryError(PointError):
    """Trajectory has not decayed at its endpoint; the stationary integrals
    would be truncated."""


@dataclass(frozen=True)
class SteadyState:
    """(alpha_+, alpha_-, beta) of the stationary density operator, each a
    number or one value per point."""

    alpha_plus: float
    alpha_minus: float
    beta: complex

    def __post_init__(self):
        ap, am = self.alpha_plus, self.alpha_minus
        _check((ap < -1e-12) | (am < -1e-12), "populations must be non-negative")
        _check(ap + am > 1.0 + 1e-9, "alpha_+ + alpha_- must not exceed 1")
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


def _overlap(a, f_a, b, f_b):
    """integral_0^inf C_a(t) conj(C_b(t)) dt of two branches with ODE
    coefficients a = (a1, a2), b = (b1, b2) and drives f_a, f_b, at every
    point.

    With x = (C, C'), x' = A x, A = [[0, 1], [-a2, -a1]] and x(0) = (0, F(0)),
    the integral of x_a x_b^dagger solves the Sylvester equation
    A_a P + P A_b^dagger = -x_a(0) x_b(0)^dagger (Bartels & Stewart 1972,
    Comm. ACM 15, 820), whose (1, 1) entry is, with s = a1 + conj(b1),
        f_a conj(f_b) s / ((a2 - conj(b2))^2 + s (a1 conj(b2) + a2 conj(b1))).
    It holds for both branches decaying, and has no root difference in it:
    a double root (critical coupling) is an ordinary point."""
    a1, a2 = a
    c1, c2 = np.conj(b[0]), np.conj(b[1])
    s = a1 + c1
    return f_a * np.conj(f_b) * s / ((a2 - c2) ** 2 + s * (a1 * c2 + a2 * c1))


def steady_state_from_params(p: CouplingParams, d: DriveSpec) -> SteadyState:
    """Exact stationary (alpha_+, alpha_-, beta) from the ODE coefficients
    and drives of both branches (_overlap).

    Raises PointError where an amplitude does not decay: by the Routh-Hurwitz
    conditions for a complex quadratic, both roots of a branch lie in the
    left half plane iff Re a1 > 0 and Re a1 Re(a1 conj(a2)) > (Im a2)^2, the
    second being the sign of the denominator of the branch's own
    integral of |C|^2.
    """
    cp, cm = (ode_coeffs(p, b) for b in BRANCHES)
    for a1, a2 in (cp, cm):
        _check((a1.real <= 0) | (a1.real * (a1 * np.conj(a2)).real <= a2.imag**2),
               "stationary integral diverges: non-decaying amplitude")
    fp, fm = (np.asarray(d.f0(b), dtype=complex) for b in BRANCHES)
    g32p, g32m = p.gamma32_pm("+"), p.gamma32_pm("-")
    ipp = _overlap(cp, fp, cp, fp).real
    imm = _overlap(cm, fm, cm, fm).real
    ipm = _overlap(cp, fp, cm, fm)
    alpha_plus = 0.5 * g32p * ipp + 0.5 * g32m * imm
    alpha_minus = 0.5 * g32m * ipp + 0.5 * g32p * imm
    beta = 0.5 * g32p * ipm + 0.5 * g32m * np.conj(ipm)
    return SteadyState(alpha_plus=alpha_plus, alpha_minus=alpha_minus, beta=beta)


def decayed_steady_state(p: CouplingParams, d: DriveSpec, t_end: float) -> SteadyState:
    """steady_state_from_params, once the closed-form amplitudes have
    decayed at t_end.

    Raises UndecayedTrajectoryError unless |C_pm(t_end)| < 1e-6 at every
    point (t_end is a number or one per point): the stationary integrals
    run to infinity, and an amplitude still alive at t_end means the
    horizon is too short.
    """
    for b in BRANCHES:
        c_end = np.ravel(np.abs(amplitude_closed(p, d, b, t_end)))
        _check(c_end >= 1e-6, lambda k: UndecayedTrajectoryError(
            f"|C_{b}(T_end)| = {c_end[k]:.3e} >= 1e-6; extend the trajectory", k))
    return steady_state_from_params(p, d)


def assemble_density(s: SteadyState) -> TwoQubitDensity:
    """Expand the stationary operator into the computational basis.

    rho = alpha_+ |+><+| + alpha_- |-><-| + (beta |+><-| + h.c.)
          + (1 - alpha_+ - alpha_-) |1,1><1,1|
    with |+-> = (|2,1> +- |1,2>)/sqrt(2).
    """
    plus = np.zeros(4, dtype=complex)
    minus = np.zeros(4, dtype=complex)
    isq2 = 1.0 / math.sqrt(2.0)
    plus[2], plus[1] = isq2, isq2      # (|2,1> + |1,2>)/sqrt(2)
    minus[2], minus[1] = isq2, -isq2   # (|2,1> - |1,2>)/sqrt(2)
    rho = (
        s.alpha_plus * np.outer(plus, plus.conj())
        + s.alpha_minus * np.outer(minus, minus.conj())
        + s.beta * np.outer(plus, minus.conj())
        + np.conj(s.beta) * np.outer(minus, plus.conj())
    )
    rho[0, 0] += 1.0 - s.alpha_plus - s.alpha_minus
    return TwoQubitDensity(matrix=rho)


def concurrence_closed_form(s: SteadyState) -> float:
    """Concurrence from the two nonzero spin-flip eigenvalues.

    lambda_pm = (1/2){a+^2 + a-^2 - 2[(Re b)^2 - (Im b)^2]}
                +- (1/2) sqrt([(a+ + a-)^2 - 4(Re b)^2][(a+ - a-)^2 + 4(Im b)^2])
    and C = sqrt(lambda_+) - sqrt(lambda_-), at every point of s.
    """
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
