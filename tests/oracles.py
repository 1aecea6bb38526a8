"""Independent oracles used across the test suite.

Nothing in here goes through the package's recurrence machinery: Bessel
functions come from mpmath half-integer Bessel calls at 40 digits, the
free-space rates from the closed-form dyadic Green function, the Volterra
amplitudes from the direct O(N^2) trapezoid-history quadrature, the
stationary integrals from plain trapezoid quadrature on dense samples, and
the resonance search from a refinement that takes its candidates one at a
time through the scalar recurrences.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

from sphereqed.microsphere import (
    BLOCK,
    Resonance,
    permittivity,
    refractive_index,
    resonance_kind,
    size_parameter,
)
from sphereqed.special import (
    RecurrenceDomainError,
    riccati_deriv_all,
    sph_h1n_all,
    sph_jn_all,
)

mp.mp.dps = 40


def mp_spherical_j(l: int, z: complex) -> complex:
    zc = mp.mpc(z)
    if zc == 0:
        return complex(1.0 if l == 0 else 0.0)
    val = mp.sqrt(mp.pi / (2 * zc)) * mp.besselj(l + mp.mpf(1) / 2, zc)
    return complex(val)


def mp_spherical_y(l: int, z: complex) -> complex:
    zc = mp.mpc(z)
    val = mp.sqrt(mp.pi / (2 * zc)) * mp.bessely(l + mp.mpf(1) / 2, zc)
    return complex(val)


def mp_spherical_h1(l: int, z: complex) -> complex:
    return mp_spherical_j(l, z) + 1j * mp_spherical_y(l, z)


def mp_riccati_deriv(kind: str, l: int, z: complex) -> complex:
    """[z f_l(z)]' from mpmath values and the exact derivative identity."""
    fn = mp_spherical_j if kind == "J" else mp_spherical_h1
    if l == 0:
        return fn(0, z) + complex(z) * (-fn(1, z))
    return complex(z) * fn(l - 1, z) - l * fn(l, z)


def mp_bessel_ratio(kind: str, l: int, z: complex) -> complex:
    """f_l(z)/f_{l-1}(z) for f = j_l (kind "J") or h_l^(1) (kind "H1"), as a
    ratio of half-integer-order cylinder functions at 50 digits: the factor
    sqrt(pi/2z) cancels, and nothing passes through complex128 before the
    final rounding, so it holds where j_l or h_l leave float64 (l = 300 at
    small z, where mp_spherical_j underflows)."""
    fn = mp.besselj if kind == "J" else mp.hankel1
    with mp.workdps(50):
        zc = mp.mpc(z)
        half = mp.mpf(1) / 2
        return complex(fn(l + half, zc) / fn(l - half, zc))


def mp_log_derivative(kind: str, l: int, z: complex) -> complex:
    """[z f_l(z)]'/f_l(z) = z f_{l-1}(z)/f_l(z) - l, in mpmath throughout
    (see mp_bessel_ratio)."""
    fn = mp.besselj if kind == "J" else mp.hankel1
    with mp.workdps(50):
        zc = mp.mpc(z)
        half = mp.mpf(1) / 2
        return complex(zc * fn(l - half, zc) / fn(l + half, zc) - l)


def mp_mie_coefficient(omega_p: float, gamma: float, radius: float, l: int, omega: float) -> complex:
    """TM scattering coefficient assembled from scratch with mpmath pieces."""
    om = mp.mpc(omega)
    eps = 1 + mp.mpf(omega_p) ** 2 / (1 - om * om - 1j * om * mp.mpf(gamma))
    n2 = mp.sqrt(eps)
    if mp.im(n2) < 0:
        n2 = -n2
    z1 = 2 * mp.pi * om * mp.mpf(radius)
    z2 = n2 * z1
    j1 = mp_spherical_j(l, complex(z1))
    h1 = mp_spherical_h1(l, complex(z1))
    j2 = mp_spherical_j(l, complex(z2))
    rj1 = mp_riccati_deriv("J", l, complex(z1))
    rh1 = mp_riccati_deriv("H1", l, complex(z1))
    rj2 = mp_riccati_deriv("J", l, complex(z2))
    epsc = complex(eps)
    num = epsc * j2 * rj1 - j1 * rj2
    den = epsc * j2 * rh1 - h1 * rj2
    return -num / den


def mp_collective_rate(
    omega_p: float,
    gamma: float,
    radius: float,
    atom_distance: float,
    theta: float,
    omega: float,
    lmax: int,
) -> float:
    """Whole multipole rate sum assembled from scratch with mpmath pieces."""
    kr = 2 * mp.pi * mp.mpf(omega) * (mp.mpf(radius) + mp.mpf(atom_distance))
    total = mp.mpf(0)
    for l in range(1, lmax + 1):
        bl = mp_mie_coefficient(omega_p, gamma, radius, l, omega)
        hl = mp_spherical_h1(l, complex(kr))
        jl = mp_spherical_j(l, complex(kr))
        pl = mp.legendre(l, mp.cos(mp.mpf(theta)))
        core = mp.re(mp.mpc(hl) * (mp.mpc(jl) + mp.mpc(bl) * mp.mpc(hl)))
        total += mp.mpf(1.5) * l * (l + 1) * (2 * l + 1) / kr**2 * core * pl
    return float(total)


def free_space_cross_rate(kr: float, theta: float) -> float:
    """Gamma_AB/Gamma_0 for two radial dipoles at radius r, angular
    separation theta, from the closed-form free-space dyadic Green function.

    With A at the pole and B at angle theta, the chord distance is
    d = 2 r sin(theta/2); projecting both radial dipole directions onto the
    separation axis gives the transverse/longitudinal weights below.
    """
    if theta == 0.0:
        return 1.0
    half = theta / 2.0
    x = 2.0 * kr * math.sin(half)
    cos_ab = math.cos(theta)
    proj = -math.sin(half) * math.sin(half)  # (dA.rho)(dB.rho)
    sx, cx = math.sin(x), math.cos(x)
    trans = sx * (1.0 - 1.0 / x**2) + cx / x
    longi = -sx * (1.0 - 3.0 / x**2) - 3.0 * cx / x
    return 1.5 / x * (trans * cos_ab + longi * proj)


def trapezoid_steady_state(times, c_plus, c_minus, gamma32_pm):
    """(alpha_+, alpha_-, beta) by trapezoid quadrature on sampled amplitudes."""
    g32p, g32m = gamma32_pm
    p2 = np.abs(c_plus) ** 2
    m2 = np.abs(c_minus) ** 2
    pm = c_plus * np.conj(c_minus)
    alpha_p = np.trapezoid(0.5 * g32p * p2 + 0.5 * g32m * m2, times)
    alpha_m = np.trapezoid(0.5 * g32m * p2 + 0.5 * g32p * m2, times)
    beta = np.trapezoid(0.5 * g32p * pm + 0.5 * g32m * np.conj(pm), times)
    return float(alpha_p), float(alpha_m), complex(beta)


def direct_volterra_branch(p, d, branch: str, t_max: float, step: float):
    """(t, C) of one branch of the memory-kernel equation by explicit
    second-order stepping with the whole trapezoid history summed directly at
    every step: O(N^2), the same weights and predictor-corrector step as
    sphereqed.dynamics.volterra_branch without its blocked FFT history sum."""
    s = 1.0 if branch == "+" else -1.0
    w = s * 1j * p.dipole_shift - 0.5 * p.gamma32_aa
    mu = 1j * p.detuning_delta + p.delta_omega_c
    kappa = -0.5 * p.gamma31_pm(branch) * p.delta_omega_c
    f0 = complex(d.f0(branch))

    n_steps = int(math.ceil(t_max / step))
    t = np.arange(n_steps + 1) * step
    karr = kappa * np.exp(-mu * t)
    farr = f0 * np.exp(-mu * t)

    c = np.zeros(n_steps + 1, dtype=complex)
    f = np.zeros(n_steps + 1, dtype=complex)
    f[0] = farr[0]
    h = step
    for n in range(n_steps):
        c_pred = c[n] + h * f[n]
        # trapezoid over the full history 0..t_{n+1}, predictor at the far end
        mem = h * 0.5 * (karr[n + 1] * c[0] + karr[0] * c_pred)
        if n >= 1:
            mem += h * np.dot(karr[n:0:-1], c[1 : n + 1])
        f_pred = w * c_pred + mem + farr[n + 1]
        c[n + 1] = c[n] + 0.5 * h * (f[n] + f_pred)
        mem += 0.5 * h * karr[0] * (c[n + 1] - c_pred)
        f[n + 1] = w * c[n + 1] + mem + farr[n + 1]
    return t, c


def _denominator_terms(sys, l: int, omega):
    """t1 = eps j_l(z2) [z1 h_l(z1)]' and t2 = h_l(z1) [z2 j_l(z2)]' at a
    scalar or (column path) 1-D array omega."""
    eps = permittivity(sys.params, omega)
    z1 = size_parameter(omega, sys.radius)
    z2 = refractive_index(sys.params, omega) * z1
    j2 = sph_jn_all(l, z2)
    h1 = sph_h1n_all(l, z1)
    rj2 = riccati_deriv_all(j2, z2)
    rh1 = riccati_deriv_all(h1, z1)
    return eps * j2[l] * rh1[l], h1[l] * rj2[l]


def _balance(sys, l: int, omega):
    t1, t2 = _denominator_terms(sys, l, omega)
    denom = abs(t1) + abs(t2)
    if np.ndim(denom) == 0:
        return 1.0 if denom == 0.0 else abs(t1 - t2) / denom
    with np.errstate(invalid="ignore"):
        return np.where(denom == 0.0, 1.0, abs(t1 - t2) / denom)


def _denominator(sys, l: int, omega: complex) -> complex:
    t1, t2 = _denominator_terms(sys, l, omega)
    return complex(t1 - t2)


def _newton_root(sys, l: int, omega0: float):
    om = complex(omega0)
    for _ in range(50):
        h = 1e-7 * abs(om)
        try:
            d0 = _denominator(sys, l, om)
            dp = _denominator(sys, l, om + h)
            dm = _denominator(sys, l, om - h)
        except RecurrenceDomainError:
            return None
        deriv = (dp - dm) / (2.0 * h)
        if deriv == 0:
            return None
        step = d0 / deriv
        om -= step
        if abs(step) < 1e-12:
            return om
    return None


def _golden_minimum(sys, l: int, a: float, b: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = _balance(sys, l, x1)
    f2 = _balance(sys, l, x2)
    for _ in range(60):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = _balance(sys, l, x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = _balance(sys, l, x2)
        if b - a < 1e-12 * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def scalar_find_resonances(sys, omega_lo: float, omega_hi: float, l_range,
                           grid_per_unit: int = 2000):
    """sphereqed.microsphere.find_resonances with every candidate refined
    on its own: golden section and Newton steps are single-point calls of
    the scalar recurrences.  Same grid, thresholds, iteration caps, window
    and width filters, acceptance checks, dedup rule and sort."""
    found = []
    npts = max(64, int(grid_per_unit * (omega_hi - omega_lo))) + 1
    grid = np.linspace(omega_lo, omega_hi, npts)
    for l in l_range:
        vals = np.concatenate(
            [_balance(sys, l, grid[i : i + BLOCK]) for i in range(0, npts, BLOCK)]
        )
        minima = [
            i
            for i in range(1, npts - 1)
            if vals[i] < vals[i - 1] and vals[i] < vals[i + 1] and vals[i] < 0.5
        ]
        roots = []
        for i in minima:
            root = _newton_root(sys, l, _golden_minimum(sys, l, grid[i - 1], grid[i + 1]))
            if root is None:
                continue
            wc, dwc = root.real, -root.imag
            if not (omega_lo <= wc <= omega_hi) or dwc <= 0:
                continue
            ref = abs(_denominator(sys, l, wc + 3.0 * dwc))
            if abs(_denominator(sys, l, root)) >= 1e-8 * ref:
                continue
            if any(abs(root - r) < 10.0 * max(dwc, 1e-12) for r in roots):
                continue
            roots.append(root)
            found.append(Resonance(omega_c=wc, delta_omega_c=dwc, l=l,
                                   kind=resonance_kind(wc, sys.params)))
    found.sort(key=lambda r: (r.omega_c, r.l))
    return found
