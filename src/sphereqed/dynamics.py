"""Single-excitation amplitude dynamics in the symmetric/antisymmetric basis.

The two amplitudes C_+(t), C_-(t) obey decoupled linear Volterra equations
with a Lorentzian memory kernel
    K_pm(t) = -(1/2) Gamma31_pm * dwc * exp(-(i*Delta + dwc) t)
and a drive that decays with the same complex rate.  Differentiating once
turns each equation into a damped-oscillator ODE whose closed-form solution
is implemented in amplitude_closed; volterra_branch integrates the original
memory equation by trapezoid quadrature of the history and serves as an
independent numerical cross-check of that closed form.

All rates and frequencies in this module share one unit.  The natural choice
is Gamma32_AA = 1 (the clock of the irreversible decay channel); conversion
from the microsphere's Gamma_0 units happens in the CLI layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BRANCHES = ("+", "-")

# Steps per block of the Volterra history sum: the direct near part covers at
# most this many terms, and the smallest FFT convolution twice as many points.
VOLTERRA_BLOCK = 256


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
    default).
    """

    gamma31_aa: float
    gamma31_ab: float
    gamma32_aa: float
    gamma32_ab: float
    delta_omega_c: float
    detuning_delta: float = 0.0
    dipole_shift: float = 0.0

    def __post_init__(self):
        if self.gamma31_aa <= 0 or self.gamma32_aa <= 0:
            raise ValueError("single-atom rates gamma31_aa, gamma32_aa must be > 0")
        if self.delta_omega_c <= 0:
            raise ValueError("delta_omega_c must be > 0")
        if abs(self.gamma31_ab) > self.gamma31_aa * (1 + 1e-12):
            raise ValueError("|gamma31_ab| must not exceed gamma31_aa")
        if abs(self.gamma32_ab) > self.gamma32_aa * (1 + 1e-12):
            raise ValueError("|gamma32_ab| must not exceed gamma32_aa")

    def gamma31_pm(self, branch: str) -> float:
        return self.gamma31_aa + _branch_sign(branch) * self.gamma31_ab

    def gamma32_pm(self, branch: str) -> float:
        return self.gamma32_aa + _branch_sign(branch) * self.gamma32_ab

    @property
    def g_plus(self) -> float:
        return rabi_g(self.gamma31_pm("+"), self.delta_omega_c)

    @property
    def g_minus(self) -> float:
        return rabi_g(self.gamma31_pm("-"), self.delta_omega_c)

    def g(self, branch: str) -> float:
        return rabi_g(self.gamma31_pm(branch), self.delta_omega_c)


@dataclass(frozen=True)
class DriveSpec:
    """Initial drive amplitudes F_pm(0); the drive itself decays as
    F_pm(t) = F_pm(0) exp(-(i*Delta + dwc) t), which satisfies the
    source-elimination condition of the closed form identically."""

    f_plus0: complex
    f_minus0: complex

    def f0(self, branch: str) -> complex:
        return self.f_plus0 if branch == "+" else self.f_minus0


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Sampled C_pm(t) with the parameter set and drive that produced it."""

    times: np.ndarray
    c_plus: np.ndarray | None
    c_minus: np.ndarray | None
    params: CouplingParams
    drive: DriveSpec

    def branch(self, branch: str) -> np.ndarray:
        arr = self.c_plus if branch == "+" else self.c_minus
        if arr is None:
            raise ValueError(f"branch {branch!r} was not integrated in this trajectory")
        return arr


def rabi_g(gamma31_pm: float, delta_omega_c: float) -> float:
    """Vacuum Rabi frequency g_pm = sqrt(Gamma31_pm * dwc / 2)."""
    if gamma31_pm < 0 or delta_omega_c < 0:
        raise ValueError("rates must be >= 0")
    return math.sqrt(0.5 * gamma31_pm * delta_omega_c)


def ode_coeffs(p: CouplingParams, branch: str) -> tuple[complex, complex]:
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

    Returns a list of (coeff, rate, power) with power 0 in the generic case
    and the single degenerate (power 1) mode when the two ODE roots collide.
    """
    a1, a2 = ode_coeffs(p, branch)
    f0 = complex(d.f0(branch))
    q = np.sqrt(complex(a1 * a1 - 4.0 * a2))
    if abs(q) < 1e-9 * max(abs(a1), 1e-30):
        return [(f0, -a1 / 2.0, 1)]
    lam1 = (-a1 + q) / 2.0
    lam2 = (-a1 - q) / 2.0
    return [(f0 / q, lam1, 0), (-f0 / q, lam2, 0)]


def amplitude_closed(p: CouplingParams, d: DriveSpec, branch: str, t):
    """Closed-form amplitude C_pm(t) under C(0) = 0, C'(0) = F(0).

    Exact for the exponentially decaying drive model.  Accepts scalar or
    array t; the degenerate double-root limit F(0) t e^{-a1 t/2} is used when
    |q| < 1e-9 |a1| (removable singularity).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    out = np.zeros(t.shape, dtype=complex)
    for coeff, rate, power in amplitude_modes(p, d, branch):
        out = out + coeff * t**power * np.exp(rate * t)
    return complex(out) if scalar else out


def volterra_branch(
    p: CouplingParams, d: DriveSpec, branch: str, t_max: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the memory-kernel equation for one branch by explicit
    second-order stepping with trapezoid quadrature of the history integral.

    Deliberately does NOT reduce the exponential kernel to an auxiliary ODE,
    so the result is numerically independent of amplitude_closed.  The step
    must satisfy step * max(|a1|, sqrt|a2|) <= 0.01.

    The history sum S_n = sum_{j=1..n} k_{n+1-j} c_j of step n is split at
    blocks of VOLTERRA_BLOCK steps (Hairer, Lubich & Schlichte 1985, SIAM J.
    Sci. Stat. Comput. 6, 532).  The terms of the unfinished block are one
    direct dot product.  When block e completes, the last 2^z blocks of
    history (z the number of trailing zero bits of e) are added to the sums
    of the next 2^z blocks by one FFT convolution against the sampled kernel;
    these squares tile the history triangle exactly once.  Cost is
    O(N log^2 N) for N steps, and no FFT has more than 2N points.
    """
    a1, a2 = ode_coeffs(p, branch)
    scale = max(abs(a1), math.sqrt(abs(a2)))
    if step <= 0 or step * scale > 0.01 + 1e-12:
        raise ValueError(
            f"step {step} violates step*max(|a1|,sqrt|a2|) <= 0.01 (scale {scale:.3g})"
        )
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
    c = np.zeros(n_steps + 1, dtype=complex)
    # far[n]: h times the part of S_n from completed blocks
    far = np.zeros(n_steps, dtype=complex)
    # near_kernel[r] pairs with c[start + 1 : start + 1 + r] at the r-th step
    # of a block: h k_r, ..., h k_1
    first = min(VOLTERRA_BLOCK, n_steps)
    reversed_kernel = h * karr[first - 1 : 0 : -1]
    near_kernel = [reversed_kernel[first - 1 - r :] for r in range(first)]
    tile_kernels: dict[int, np.ndarray] = {}
    dot = np.dot
    c_n = 0j
    f_n = complex(farr[0])
    for start in range(0, n_steps, VOLTERRA_BLOCK):
        stop = min(start + VOLTERRA_BLOCK, n_steps)
        far_block = far[start:stop].tolist()
        drive_block = farr[start + 1 : stop + 1].tolist()
        for n in range(start, stop):
            r = n - start
            c_pred = c_n + h * f_n
            # C(0) = 0, so the trapezoid end term at t = 0 vanishes
            mem = (
                far_block[r]
                + complex(dot(near_kernel[r], c[start + 1 : n + 1]))
                + end_weight * c_pred
            )
            drive_next = drive_block[r]
            f_pred = w * c_pred + mem + drive_next
            c_next = c_n + half_h * (f_n + f_pred)
            mem += end_weight * (c_next - c_pred)
            f_n = w * c_next + mem + drive_next
            c_n = c_next
            c[n + 1] = c_next
        if stop == n_steps:
            break
        blocks = stop // VOLTERRA_BLOCK
        size = (blocks & -blocks) * VOLTERRA_BLOCK
        if size not in tile_kernels:
            tile_kernels[size] = np.fft.fft(h * karr[: 2 * size], 2 * size)
        history = np.fft.fft(c[stop - size + 1 : stop + 1], 2 * size)
        history *= tile_kernels[size]
        reach = min(size, n_steps - stop)
        far[stop : stop + reach] += np.fft.ifft(history)[size : size + reach]
    return t, c


def amplitude_volterra(
    p: CouplingParams, d: DriveSpec, t_max: float, step: float, branch: str | None = None
) -> AmplitudeTrajectory:
    """Volterra-integrated trajectory; both branches unless one is requested."""
    wanted = BRANCHES if branch is None else (branch,)
    arrays: dict[str, np.ndarray] = {}
    times = None
    for b in wanted:
        times, arrays[b] = volterra_branch(p, d, b, t_max, step)
    return AmplitudeTrajectory(
        times=times,
        c_plus=arrays.get("+"),
        c_minus=arrays.get("-"),
        params=p,
        drive=d,
    )


def sample_closed(
    p: CouplingParams, d: DriveSpec, t_max: float, n_samples: int = 2000
) -> AmplitudeTrajectory:
    """Closed-form trajectory sampled on a uniform grid (both branches)."""
    t = np.linspace(0.0, t_max, n_samples)
    return AmplitudeTrajectory(
        times=t,
        c_plus=amplitude_closed(p, d, "+", t),
        c_minus=amplitude_closed(p, d, "-", t),
        params=p,
        drive=d,
    )


def prepare_drive(
    gd_rates: tuple[float, float, float], delta_omega_c: float
) -> DriveSpec:
    """Drive amplitudes produced by a preparation atom D that deposits one
    excitation into the resonance over a quarter Rabi period.

    gd_rates = (Gamma31_DD, Gamma31_AD, Gamma31_BD).  The loss factor
    exp(-pi*dwc/(2 g_D)) accounts for photon escape during the interaction
    time Delta t = pi/(2 g_D).
    """
    gamma_dd, gamma_ad, gamma_bd = gd_rates
    if gamma_dd <= 0:
        raise ValueError("Gamma31_DD must be > 0")
    g_d = rabi_g(gamma_dd, delta_omega_c)
    loss = math.exp(-math.pi * delta_omega_c / (2.0 * g_d))
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
    g_big = max(p.g_plus, p.g_minus)
    g_small = min(p.g_plus, p.g_minus)
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
