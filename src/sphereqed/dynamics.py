"""Single-excitation amplitude dynamics in the symmetric/antisymmetric basis.

The two amplitudes C_+(t), C_-(t) obey decoupled linear Volterra equations
with a Lorentzian memory kernel
    K_pm(t) = -(1/2) Gamma31_pm * dwc * exp(-(i*Delta + dwc) t)
and a drive that decays with the same complex rate.  Differentiating once
turns each equation into a damped-oscillator ODE whose closed-form solution
is implemented in amplitude_closed; volterra_amplitudes integrates the
original memory equations of both branches by trapezoid quadrature of the
history and serves as an independent numerical cross-check of that closed
form.  It runs its predictor-corrector step per branch for the first 64
steps of a block's response to a unit amplitude, doubles that response to a
block of 2048 steps, each doubling applying the map of the steps known so
far, and then advances both branches block by block with the block's exact
linear map, C' at each block end following from C.  The history of
completed blocks enters through FFT convolutions over a hierarchy of
tiles.

The closed-form chain (rabi_g, ode_coeffs, amplitude_modes, amplitude_closed,
prepare_drive) works elementwise: each rate field of CouplingParams, each
drive amplitude of DriveSpec and each rate argument may be an array with one
value per point (a sweep), and a float is one point.  Every check is made per
point and raises PointError naming the first point that fails it.
volterra_amplitudes takes one point.

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
VOLTERRA_BLOCK = 2048

# Steps of the block response that the integrator's step loop runs; the rest
# is doubled up to VOLTERRA_BLOCK.  Doubled from 64 steps, the amplitudes of
# the direct-history-sum tests (1 to 8193 steps) lie within 3.2e-15 of that
# sum, relative to each one's maximum; doubled from one step, within 3.1e-14.
VOLTERRA_BASE = 64


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
    return _mode_sum(amplitude_modes(p, d, branch), np.asarray(t, dtype=float))


def _mode_sum(modes, t):
    """sum_k coeff_k t^power_k e^{rate_k t} of one branch's amplitude_modes
    at the float times t."""
    out = 0j
    for coeff, rate, power in modes:
        out = out + coeff * t**power * np.exp(rate * t)
    return out[()]


def volterra_amplitudes(
    p: CouplingParams, d: DriveSpec, t_max: float, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, C_+, C_-): the memory-kernel equations of both branches,
    integrated by explicit second-order stepping with trapezoid quadrature
    of the history integral.

    Deliberately does NOT reduce the exponential kernel to an auxiliary ODE,
    so the result is numerically independent of amplitude_closed.  The step
    must satisfy step * max(|a1|, sqrt|a2|) <= 0.01 for both branches, and
    t_max must be > 0.  The run takes ceil(t_max / step) steps, a ratio
    within 1e-9 above an integer taken as that integer (t_max = n * step
    written in floats can read n + 2e-12 steps).

    The history sum S_n = sum_{j=1..n} k_{n+1-j} c_j of step n is split at
    blocks of B = VOLTERRA_BLOCK steps (Hairer, Lubich & Schlichte 1985,
    SIAM J. Sci. Stat. Comput. 6, 532).  Inside a block the step is linear
    in the state (c_s, f_s) at the block start and in g_r = far_r + drive_r,
    where far_r is the part of the history sum from completed blocks.  With
    w = s i dipole_shift - gamma32_AA/2, a = w + (h/2) k_0, rho = 1 + h a/2
    and beta = (h/2)(1 + h a), one step is
        c_{r+1} = rho c_r + beta f_r + (h/2)(g_r + near_r),
        f_{r+1} = a c_{r+1} + g_r + near_r,
    near_r being the in-block part of h S_r.  So c takes its inputs through
    x_1 = rho c_s + beta f_s + (h/2) g_0 and x_{r+1} = beta g_{r-1} + (h/2)
    g_r, and the response y of c to x_1 = 1 with no input gives the exact
    linear map of a block of m steps from its first m steps: c over the
    block is c_s u + f_s v + (col * g), a causal convolution, with
    u = rho y, v = beta y and col = (h/2) y + beta (y one step later).
    f at the end of a block follows from c by the step's second line,
    f_m = a c_m + g_{m-1} + h sum_{j=1..m-1} k_{m-j} c_j over the block.
    The step itself runs per branch for the first VOLTERRA_BASE steps of
    y only.  y is then doubled up to B steps: its steps m+1..2m are the map
    of its first m steps applied to c and f at step m and to the far sum
    of those m steps, which is one FFT convolution against the sampled
    kernel.  When block e completes, the last 2^z blocks of history (z the
    number of trailing zero bits of e) are added to the far sums of the
    next 2^z blocks by the same FFT convolution; these squares tile the
    history triangle exactly once.  Both branches advance together, each
    with its own kernel.  Cost is O(N log^2 N) for N steps, and no FFT has
    more than 2N points.
    """
    scale = max(max(abs(a1), math.sqrt(abs(a2)))
                for a1, a2 in (ode_coeffs(p, b) for b in BRANCHES))
    if step <= 0 or step * scale > 0.01 + 1e-12:
        raise ValueError(
            f"step {step} violates step*max(|a1|,sqrt|a2|) <= 0.01 (scale {scale:.3g})"
        )
    if t_max <= 0:
        raise ValueError(f"t_max must be > 0, got {t_max}")
    h = step
    half_h = 0.5 * h
    n_steps = max(1, math.ceil(t_max / step - 1e-9))
    t = np.arange(n_steps + 1) * step
    # the kernel and the drive of each branch are its multiples kappa and
    # F(0) of decay, sampled where they are used
    decay = np.exp(-(1j * p.detuning_delta + p.delta_omega_c) * t)
    kappa = np.array([[-0.5 * p.gamma31_pm(b) * p.delta_omega_c] for b in BRANCHES],
                     dtype=complex)
    f0 = np.array([[d.f0(b)] for b in BRANCHES], dtype=complex)

    block = min(VOLTERRA_BLOCK, n_steps)
    # h k_0, ..., h k_{block-1}: every kernel sample that a block reads
    hk = h * (kappa * decay[:block])
    w = np.array([_branch_sign(b) * 1j * p.dipole_shift - 0.5 * p.gamma32_aa
                  for b in BRANCHES])
    a = w + half_h * kappa[:, 0]
    # rho = 1 + eps is applied as y + eps y, which keeps eps's digits
    eps = half_h * a
    beta = half_h * (1.0 + h * a)

    def end_slope(c_block, g_last):
        """f after the last of the m steps of a block, from c over them and
        g_{m-1}."""
        m = c_block.shape[1]
        return (a * c_block[:, -1] + g_last
                + np.einsum("ij,ij->i", hk[:, m - 1 : 0 : -1], c_block[:, :-1]))

    def block_map(response):
        """(u, v, col_hat) of a response over m steps: the maps of c_s and
        f_s over a block of m steps, and the 2m-point transform of g's."""
        later = response[:, 1:]
        col = half_h * later + beta[:, None] * response[:, :-1]
        return (later + eps[:, None] * later, beta[:, None] * later,
                np.fft.fft(col, 2 * later.shape[1]))

    def advance(maps, c_s, f_s, g):
        """c over a block of g.shape[1] steps from (c_s, f_s), with inputs g."""
        u, v, col_hat = maps
        m = g.shape[1]
        convolved = np.fft.ifft(np.fft.fft(g, col_hat.shape[1]) * col_hat)[:, :m]
        return c_s[:, None] * u[:, :m] + f_s[:, None] * v[:, :m] + convolved

    # the transforms of each branch's kernel, by tile size
    tile_kernels: dict[int, list[np.ndarray]] = {}

    def far_sums(k, history, size):
        """h times the sums over history, c of branch k at `size` steps, at
        each of the size steps after them."""
        if size not in tile_kernels:
            tile_kernels[size] = [np.fft.fft(h * (kappa[j] * decay[: 2 * size]), 2 * size)
                                  for j in range(2)]
        history = np.fft.fft(history, 2 * size)
        history *= tile_kernels[size][k]
        return np.fft.ifft(history)[size:]

    # y[:, r]: c after step r of a block from x_1 = 1 with no input, and 0
    # at r = 0
    base = min(VOLTERRA_BASE, block)
    y = np.zeros((2, base + 1), dtype=complex)
    dot = np.dot
    for k in range(2):
        a_k, eps_k, beta_k = complex(a[k]), complex(eps[k]), complex(beta[k])
        # at step r of a block, h k_r, ..., h k_1 pair with c of steps 1..r
        reversed_kernel = hk[k, base - 1 : 0 : -1]
        y_k = y[k]
        c_r, f_r = 1.0, a_k
        y_k[1] = c_r
        for r in range(1, base):
            near = complex(dot(reversed_kernel[base - 1 - r :], y_k[1 : r + 1]))
            c_r += eps_k * c_r + beta_k * f_r + half_h * near
            f_r = a_k * c_r + near
            y_k[r + 1] = c_r
    while y.shape[1] <= block:
        m = y.shape[1] - 1
        g = np.array([far_sums(k, y[k, 1:], m) for k in range(2)])
        later = advance(block_map(y), y[:, m], end_slope(y[:, 1:], 0.0), g)
        y = np.concatenate((y, later), axis=1)[:, : block + 1]

    maps = block_map(y)
    c = np.zeros((2, n_steps + 1), dtype=complex)
    # far[:, n]: h times the part of S_n from completed blocks
    far = np.zeros((2, n_steps), dtype=complex)
    c_s = np.zeros(2, dtype=complex)
    f_s = f0[:, 0] * decay[0]
    for start in range(0, n_steps, VOLTERRA_BLOCK):
        stop = min(start + VOLTERRA_BLOCK, n_steps)
        g = far[:, start:stop] + f0 * decay[start + 1 : stop + 1]
        c[:, start + 1 : stop + 1] = advance(maps, c_s, f_s, g)
        if stop == n_steps:
            break
        c_s, f_s = c[:, stop], end_slope(c[:, start + 1 : stop + 1], g[:, -1])
        blocks = stop // VOLTERRA_BLOCK
        size = (blocks & -blocks) * VOLTERRA_BLOCK
        reach = min(size, n_steps - stop)
        # one branch at a time: a (2, 2 size) transform needs more memory
        for k in range(2):
            far[k, stop : stop + reach] += far_sums(
                k, c[k, stop - size + 1 : stop + 1], size)[:reach]
    return t, c[0], c[1]


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
