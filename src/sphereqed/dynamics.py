"""Single-excitation amplitude dynamics in the symmetric/antisymmetric basis.

The two amplitudes C_+(t), C_-(t) obey decoupled linear Volterra equations
with a Lorentzian memory kernel
    K_pm(t) = -(1/2) Gamma31_pm * dwc * exp(-(i*Delta + dwc) t)
and a drive that decays with the same complex rate.  Differentiating once
turns each equation into a damped-oscillator ODE whose closed-form solution
is implemented in amplitude_closed; volterra_branch integrates the original
memory equation by trapezoid quadrature of the history and serves as an
independent numerical cross-check of that closed form.  It runs its
predictor-corrector step once, for one block of steps on unit inputs, and
then advances block by block with that exact linear map; the history of
completed blocks enters through FFT convolutions over a hierarchy of tiles.

The closed-form chain (rabi_g, ode_coeffs, amplitude_modes, amplitude_closed,
prepare_drive) works elementwise: each rate field of CouplingParams, each
drive amplitude of DriveSpec and each rate argument may be an array with one
value per point (a sweep), and a float is one point.  Every check is made per
point and raises PointError naming the first point that fails it.
volterra_branch, one branch per call, and the regime forms take one point.

All rates and frequencies in this module share one unit.  The natural choice
is Gamma32_AA = 1 (the clock of the irreversible decay channel); conversion
from the microsphere's Gamma_0 units happens in the CLI layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BRANCHES = ("+", "-")

# Steps per block of the Volterra integrator: the length of its linear block
# map and of the causal convolution inside a block; the smallest FFT tile of
# the history has twice as many points.
VOLTERRA_BLOCK = 256


class PointError(ValueError):
    """A check failed at some points of a call that takes one value per
    point; point is the flat index of the first point that failed it (0 for
    a one-point call).  A call makes its checks one after another, so a
    point before `point` may fail a check made later."""

    def __init__(self, message: str, point: int = 0):
        super().__init__(message)
        self.point = point


def _check(failed, error) -> None:
    """Raise at the first point where failed holds: PointError(error, k) for
    a text error, else the exception error(k) of that point k."""
    failed = np.ravel(failed)
    if failed.any():
        k = int(failed.argmax())
        raise PointError(error, k) if isinstance(error, str) else error(k)


def _branch_sign(branch: str) -> float:
    if branch == "+":
        return 1.0
    if branch == "-":
        return -1.0
    raise ValueError(f"branch must be '+' or '-', got {branch!r}")


@dataclass(frozen=True)
class CouplingParams:
    """Rate set entering the amplitude equations (one common rate unit).

    gamma31_* couple the strong transition to the resonance of half width
    delta_omega_c; gamma32_* damp the upper state into the metastable level.
    detuning_delta is omega_C - omega31; dipole_shift is the coherent
    dipole-dipole coupling of the strong transition (an input knob, 0 by
    default).  Each field is a float or an array with one value per point.
    """

    gamma31_aa: float
    gamma31_ab: float
    gamma32_aa: float
    gamma32_ab: float
    delta_omega_c: float
    detuning_delta: float = 0.0
    dipole_shift: float = 0.0

    def __post_init__(self):
        _check((self.gamma31_aa <= 0) | (self.gamma32_aa <= 0),
               "single-atom rates gamma31_aa, gamma32_aa must be > 0")
        _check(self.delta_omega_c <= 0, "delta_omega_c must be > 0")
        _check(np.abs(self.gamma31_ab) > self.gamma31_aa * (1 + 1e-12),
               "|gamma31_ab| must not exceed gamma31_aa")
        _check(np.abs(self.gamma32_ab) > self.gamma32_aa * (1 + 1e-12),
               "|gamma32_ab| must not exceed gamma32_aa")

    def gamma31_pm(self, branch: str):
        """Gamma31_AA +- Gamma31_AB, at least 0: the bound above lets
        |Gamma31_AB| exceed Gamma31_AA by 1e-12 relative, and such a
        branch is uncoupled (g = 0)."""
        return np.maximum(self.gamma31_aa + _branch_sign(branch) * self.gamma31_ab, 0.0)

    def gamma32_pm(self, branch: str):
        return self.gamma32_aa + _branch_sign(branch) * self.gamma32_ab

    def g(self, branch: str):
        return rabi_g(self.gamma31_pm(branch), self.delta_omega_c)


@dataclass(frozen=True)
class DriveSpec:
    """Initial drive amplitudes F_pm(0), a number or one per point; the
    drive itself decays as F_pm(t) = F_pm(0) exp(-(i*Delta + dwc) t), which
    satisfies the source-elimination condition of the closed form
    identically."""

    f_plus0: complex
    f_minus0: complex

    def f0(self, branch: str):
        return self.f_plus0 if branch == "+" else self.f_minus0


def rabi_g(gamma31_pm, delta_omega_c):
    """Vacuum Rabi frequency g_pm = sqrt(Gamma31_pm * dwc / 2)."""
    _check((gamma31_pm < 0) | (delta_omega_c < 0), "rates must be >= 0")
    return np.sqrt(0.5 * gamma31_pm * delta_omega_c)


def ode_coeffs(p: CouplingParams, branch: str):
    """Coefficients (a1, a2) of the second-order amplitude ODE
    C'' + a1 C' + a2 C = 0 for the given branch."""
    s = _branch_sign(branch)
    dwc = p.delta_omega_c
    a1 = 1j * (p.detuning_delta - s * p.dipole_shift) + dwc + 0.5 * p.gamma32_aa
    a2 = p.g(branch) ** 2 + (p.detuning_delta - 1j * dwc) * (
        s * p.dipole_shift + 1j * 0.5 * p.gamma32_aa
    )
    return a1, a2


def amplitude_modes(p: CouplingParams, d: DriveSpec, branch: str):
    """Exponential-mode decomposition C(t) = sum_k coeff_k t^power_k e^{rate_k t}.

    Returns two modes (coeff, rate, power), each entry one value per point.
    A point has power 0 in both modes in the generic case.  Where the two
    ODE roots collide (|q| < 1e-9 |a1|, a removable singularity) the first
    mode is the degenerate one, (F(0), -a1/2, 1), and the second has
    coefficient 0 at the same rate.
    """
    a1, a2 = ode_coeffs(p, branch)
    f0 = np.asarray(d.f0(branch), dtype=complex)
    q = np.sqrt(a1 * a1 - 4.0 * a2)
    double = np.abs(q) < 1e-9 * np.maximum(np.abs(a1), 1e-30)
    q_or_1 = np.where(double, 1.0, q)
    half = -a1 / 2.0
    lam1 = np.where(double, half, (-a1 + q) / 2.0)
    lam2 = np.where(double, half, (-a1 - q) / 2.0)
    return [
        (np.where(double, f0, f0 / q_or_1), lam1, double.astype(int)),
        (np.where(double, 0.0, -f0 / q_or_1), lam2, 0),
    ]


def amplitude_closed(p: CouplingParams, d: DriveSpec, branch: str, t):
    """Closed-form amplitude C_pm(t) under C(0) = 0, C'(0) = F(0).

    Exact for the exponentially decaying drive model.  t broadcasts
    against the points of p and d: times of one point, or one time per
    point.  The degenerate double-root limit F(0) t e^{-a1 t/2} is used at
    the points where |q| < 1e-9 |a1| (removable singularity).
    """
    t = np.asarray(t, dtype=float)
    out = 0j
    for coeff, rate, power in amplitude_modes(p, d, branch):
        out = out + coeff * t**power * np.exp(rate * t)
    return out[()]


def volterra_branch(
    p: CouplingParams, d: DriveSpec, branch: str, t_max: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the memory-kernel equation for one branch by explicit
    second-order stepping with trapezoid quadrature of the history integral.

    Deliberately does NOT reduce the exponential kernel to an auxiliary ODE,
    so the result is numerically independent of amplitude_closed.  The step
    must satisfy step * max(|a1|, sqrt|a2|) <= 0.01, and t_max must be > 0.

    The history sum S_n = sum_{j=1..n} k_{n+1-j} c_j of step n is split at
    blocks of VOLTERRA_BLOCK steps (Hairer, Lubich & Schlichte 1985, SIAM J.
    Sci. Stat. Comput. 6, 532).  Inside a block the step is linear in the
    state (c_s, f_s) at the block start and in g_r = far_r + drive_r, where
    far_r is the part of the history sum from completed blocks.  The step
    runs for one block on each of three unit inputs, which gives the exact
    linear map of every block: c over the block is c_s u + f_s v + (col * g),
    a causal convolution, and f at its end is c_s u_f + f_s v_f plus the dot
    product of the reversed f response with g.  When block e completes, the
    last 2^z blocks of history (z the number of trailing zero bits of e) are
    added to the far sums of the next 2^z blocks by one FFT convolution
    against the sampled kernel; these squares tile the history triangle
    exactly once.  Cost is O(N log^2 N) for N steps, and no FFT has more
    than 2N points.
    """
    a1, a2 = ode_coeffs(p, branch)
    scale = max(abs(a1), math.sqrt(abs(a2)))
    if step <= 0 or step * scale > 0.01 + 1e-12:
        raise ValueError(
            f"step {step} violates step*max(|a1|,sqrt|a2|) <= 0.01 (scale {scale:.3g})"
        )
    if t_max <= 0:
        raise ValueError(f"t_max must be > 0, got {t_max}")
    s = _branch_sign(branch)
    w = s * 1j * p.dipole_shift - 0.5 * p.gamma32_aa
    mu = 1j * p.detuning_delta + p.delta_omega_c
    kappa = -0.5 * p.gamma31_pm(branch) * p.delta_omega_c
    f0 = complex(d.f0(branch))

    n_steps = int(math.ceil(t_max / step))
    t = np.arange(n_steps + 1) * step
    karr = kappa * np.exp(-mu * t)
    farr = f0 * np.exp(-mu * t)

    h = step
    half_h = 0.5 * h
    end_weight = half_h * complex(karr[0])
    first = min(VOLTERRA_BLOCK, n_steps)
    # at the r-th step of a block, h k_r, ..., h k_1 pair with c of steps 1..r
    reversed_kernel = h * karr[first - 1 : 0 : -1]
    near_kernel = [reversed_kernel[first - 1 - r :] for r in range(first)]
    dot = np.dot
    # c and f after each step of one block from each unit input, the rows
    # of (c_s, f_s, g_0) = I
    c_unit = np.zeros((3, first + 1), dtype=complex)
    f_unit = np.zeros((3, first), dtype=complex)
    for k, (c_n, f_n, g_0) in enumerate(np.eye(3).tolist()):
        c_k = c_unit[k]
        g = [g_0] + [0.0] * (first - 1)
        for r in range(first):
            c_pred = c_n + h * f_n
            # C(0) = 0, so the trapezoid end term at t = 0 vanishes
            near = complex(dot(near_kernel[r], c_k[1 : r + 1]))
            mem = g[r] + near + end_weight * c_pred
            f_pred = w * c_pred + mem
            c_next = c_n + half_h * (f_n + f_pred)
            mem += end_weight * (c_next - c_pred)
            f_n = w * c_next + mem
            c_n = c_next
            c_k[r + 1] = c_next
            f_unit[k, r] = f_n
    u, v, col = c_unit[:, 1:]
    # f at the end of a full block; g_j reaches it through f_unit[2, -1 - j]
    u_f, v_f = f_unit[:2, -1]
    col_f = f_unit[2, ::-1]

    c = np.zeros(n_steps + 1, dtype=complex)
    # far[n]: h times the part of S_n from completed blocks
    far = np.zeros(n_steps, dtype=complex)
    tile_kernels: dict[int, np.ndarray] = {}
    c_s = 0j
    f_s = complex(farr[0])
    for start in range(0, n_steps, VOLTERRA_BLOCK):
        stop = min(start + VOLTERRA_BLOCK, n_steps)
        m = stop - start
        g = far[start:stop] + farr[start + 1 : stop + 1]
        convolved = np.convolve(col[:m], g)[:m]
        c[start + 1 : stop + 1] = c_s * u[:m] + f_s * v[:m] + convolved
        if stop == n_steps:
            break
        f_s = c_s * u_f + f_s * v_f + complex(np.dot(col_f, g))
        c_s = complex(c[stop])
        blocks = stop // VOLTERRA_BLOCK
        size = (blocks & -blocks) * VOLTERRA_BLOCK
        if size not in tile_kernels:
            tile_kernels[size] = np.fft.fft(h * karr[: 2 * size], 2 * size)
        history = np.fft.fft(c[stop - size + 1 : stop + 1], 2 * size)
        history *= tile_kernels[size]
        reach = min(size, n_steps - stop)
        far[stop : stop + reach] += np.fft.ifft(history)[size : size + reach]
    return t, c


def prepare_drive(
    gd_rates: tuple[float, float, float], delta_omega_c: float
) -> DriveSpec:
    """Drive amplitudes produced by a preparation atom D that deposits one
    excitation into the resonance over a quarter Rabi period.

    gd_rates = (Gamma31_DD, Gamma31_AD, Gamma31_BD), each rate a float or one
    per point like delta_omega_c.  The loss factor exp(-pi*dwc/(2 g_D))
    accounts for photon escape during the interaction time
    Delta t = pi/(2 g_D).
    """
    gamma_dd, gamma_ad, gamma_bd = gd_rates
    _check(gamma_dd <= 0, "Gamma31_DD must be > 0")
    g_d = rabi_g(gamma_dd, delta_omega_c)
    loss = np.exp(-math.pi * delta_omega_c / (2.0 * g_d))
    # signed squares (Gamma_AD +/- Gamma_BD) dwc / 2; the antisymmetric one
    # flips sign with the labeling of A and B
    gd_plus_sq = 0.5 * (gamma_ad + gamma_bd) * delta_omega_c
    gd_minus_sq = 0.5 * (gamma_ad - gamma_bd) * delta_omega_c
    pref = -loss / math.sqrt(2.0) / g_d
    return DriveSpec(f_plus0=pref * gd_plus_sq, f_minus0=pref * gd_minus_sq)


def regime_classify(p: CouplingParams, ratio_min: float) -> str | None:
    """First of the coupling regimes A, B, C whose inequality chain holds with
    every 'much greater' read as a factor >= ratio_min; None otherwise.

    A: g_big >> Gamma32_AA >> dwc >> g_small
    B: g_big >> g_small >> Gamma32_AA >> dwc
    C: Gamma32_AA >> g_big >> g_small, dwc
    """
    if ratio_min <= 1:
        raise ValueError("ratio_min must exceed 1")
    g_pm = p.g("+"), p.g("-")
    g_big, g_small = max(g_pm), min(g_pm)
    gaa = p.gamma32_aa
    dwc = p.delta_omega_c

    def gg(x, y):
        return x >= ratio_min * y

    if gg(g_big, gaa) and gg(gaa, dwc) and gg(dwc, g_small):
        return "A"
    if gg(g_big, g_small) and gg(g_small, gaa) and gg(gaa, dwc):
        return "B"
    if gg(gaa, g_big) and gg(g_big, g_small) and gg(g_big, dwc):
        return "C"
    return None


def regime_amplitude(
    p: CouplingParams, d: DriveSpec, regime: str, branch: str, t
):
    """Asymptotic amplitude formula for the given regime and branch.

    Regime A uses damped Rabi oscillation on the strongly coupled branch and
    two-channel exponential decay on the weak one; regime B applies the Rabi
    form to both branches, regime C the two-channel decay to both.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    f0 = complex(d.f0(branch))
    g_b = p.g(branch)
    g_other = p.g("-" if branch == "+" else "+")
    gaa = p.gamma32_aa
    dwc = p.delta_omega_c

    def rabi():
        return f0 / g_b * np.exp(-gaa * t / 4.0) * np.sin(g_b * t)

    def two_channel():
        return 2.0 * f0 / gaa * (np.exp(-dwc * t) - np.exp(-gaa * t / 2.0))

    if regime == "A":
        out = rabi() if g_b >= g_other else two_channel()
    elif regime == "B":
        out = rabi()
    elif regime == "C":
        out = two_channel()
    else:
        raise ValueError(f"no asymptotic formula for regime {regime!r}")
    return complex(out) if scalar else np.asarray(out)
