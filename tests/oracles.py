"""Independent oracles used across the test suite.

Bessel functions come from mpmath half-integer Bessel calls at 40 digits,
the free-space rates from the closed-form dyadic Green function, the
Volterra amplitudes from the direct O(N^2) trapezoid-history quadrature and
the stationary integrals from plain trapezoid quadrature on dense samples,
and the resonance search's f, its derivative and its roots from mpmath
Bessel calls, mp.diff and mp.findroot: none of these goes through the
package's recurrences.  The scalar resonance search oracle does: it takes
its candidates one at a time through the package's ratio rows, forms j_l
and h_l as its own float64 running products of them, and builds the Mie
denominator and its derivative from their raw products instead of the
package's log-derivative form.  The paper's asymptotic regime forms
(regime_classify, regime_amplitude, alpha_beta_regime) are the reference
side of acceptance criterion 5, which compares the closed forms against
them.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from sphereqed.dynamics import CouplingParams, DriveSpec
from sphereqed.microsphere import (
    HANDOVER_WIDTH,
    Resonance,
    _search_grid,
    permittivity,
    refractive_index,
    resonance_kind,
    size_parameter,
)
from sphereqed.special import sph_jn_h1n_ratios
from sphereqed.steady_state import SteadyState

mp.mp.dps = 40

# grid points per _balance call of scalar_find_resonances: its own size, so
# that retuning the package's rate blocks leaves the oracle's calls alone
_GRID_CHUNK = 32


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
    small z, where mp_spherical_j underflows).

    Above Im z = 20 the h ratio is -i K_{l+1/2}(-iz)/K_{l-1/2}(-iz)
    (DLMF 10.27.8): there H_nu^(1) = J_nu + i Y_nu cancels by about
    e^{-2 Im z} below the order's turning point, so that mpmath's hankel1
    keeps 10 of the 50 digits at l = 1, z = 3 + 50i and comes out 0 at
    200i; both forms agree to the last bit below Im z = 40."""
    half = mp.mpf(1) / 2
    with mp.workdps(50):
        zc = mp.mpc(z)
        if kind == "H1" and mp.im(zc) > 20:
            w = -1j * zc
            return complex(-1j * mp.besselk(l + half, w) / mp.besselk(l - half, w))
        fn = mp.besselj if kind == "J" else mp.hankel1
        return complex(fn(l + half, zc) / fn(l - half, zc))


def mp_growth(m: float, n: float, z: complex) -> float:
    """How far the two solutions of x <- (2k + 1)/z - 1/x separate between
    orders m and n, in e-folds: the integral of 2 Re acosh((k + 1/2)/z)
    over k, by quadrature at 30 digits (no closed form), at Re z >= 0 (the
    rate is the same at -z)."""
    with mp.workdps(30):
        zc = mp.mpc(z)
        if mp.re(zc) < 0:
            zc = -zc
        rate = lambda k: 2 * mp.re(mp.acosh((k + mp.mpf(1) / 2) / zc))
        # the rate has a kink at the turning point k + 1/2 = |z|
        turning = abs(zc) - mp.mpf(1) / 2
        return float(mp.quad(rate, [m, turning, n] if m < turning < n else [m, n]))


def mp_log_derivative(kind: str, l: int, z: complex) -> complex:
    """[z f_l(z)]'/f_l(z) = z f_{l-1}(z)/f_l(z) - l, in mpmath throughout
    (see mp_bessel_ratio)."""
    fn = mp.besselj if kind == "J" else mp.hankel1
    with mp.workdps(50):
        zc = mp.mpc(z)
        half = mp.mpf(1) / 2
        return complex(zc * fn(l - half, zc) / fn(l + half, zc) - l)


def _mp_spherical(kind: str, l: int, z):
    """j_l(z) (kind "J") or h_l^(1)(z) (kind "H1") as an mpmath number."""
    fn = mp.besselj if kind == "J" else mp.hankel1
    return mp.sqrt(mp.pi / (2 * z)) * fn(l + mp.mpf(1) / 2, z)


def mp_mie_b(omega_p: float, gamma: float, radius: float, l: int, omega: float) -> complex:
    """TM scattering coefficient B_l assembled from scratch with mpmath pieces,
    l >= 1, in mpmath throughout: j_l(n k R) leaves float64 next to
    omega = 1, where |n| is large."""
    om = mp.mpc(omega)
    eps = 1 + mp.mpf(omega_p) ** 2 / (1 - om * om - 1j * om * mp.mpf(gamma))
    n2 = mp.sqrt(eps)
    if mp.im(n2) < 0:
        n2 = -n2
    z1 = 2 * mp.pi * om * mp.mpf(radius)
    z2 = n2 * z1

    def riccati(kind, z):
        return z * _mp_spherical(kind, l - 1, z) - l * _mp_spherical(kind, l, z)

    j1 = _mp_spherical("J", l, z1)
    h1 = _mp_spherical("H1", l, z1)
    j2 = _mp_spherical("J", l, z2)
    num = eps * j2 * riccati("J", z1) - j1 * riccati("J", z2)
    den = eps * j2 * riccati("H1", z1) - h1 * riccati("J", z2)
    return complex(-num / den)


def _mp_reduced_denominator(omega_p: float, gamma: float, radius: float, l: int, om):
    """f = eps D_h(k R) - D_j(n k R) at the mpmath frequency om, in mpmath
    throughout, with n on the branch Im n >= 0 and D(z) = [z f_l(z)]'/f_l(z)
    = z f_{l-1}(z)/f_l(z) - l from half-integer-order cylinder functions."""
    eps = 1 + mp.mpf(omega_p) ** 2 / (1 - om * om - 1j * om * mp.mpf(gamma))
    n = mp.sqrt(eps)
    if mp.im(n) < 0:
        n = -n
    z1 = 2 * mp.pi * om * mp.mpf(radius)
    z2 = n * z1
    half = mp.mpf(1) / 2
    d_h = z1 * mp.hankel1(l - half, z1) / mp.hankel1(l + half, z1) - l
    d_j = z2 * mp.besselj(l - half, z2) / mp.besselj(l + half, z2) - l
    return eps * d_h - d_j


def mp_denominator_slope(omega_p: float, gamma: float, radius: float, l: int,
                         omega: complex) -> complex:
    """df/domega of the resonance search's f (see _mp_reduced_denominator)
    by mp.diff at 50 digits."""
    with mp.workdps(50):
        return complex(mp.diff(
            lambda om: _mp_reduced_denominator(omega_p, gamma, radius, l, om), mp.mpc(omega)))


def mp_resonance(omega_p: float, gamma: float, radius: float, l: int,
                 omega0: complex) -> complex:
    """The root omega_c - i delta_omega_c of f near omega0 by mp.findroot at
    50 digits."""
    with mp.workdps(50):
        return complex(mp.findroot(
            lambda om: _mp_reduced_denominator(omega_p, gamma, radius, l, om), mp.mpc(omega0)))


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
        bl = mp_mie_b(omega_p, gamma, radius, l, omega)
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


def pole_fit(omega, rate, omega_c: float, delta_omega_c: float):
    """(half width, fitted rates) of the one-pole model
    rate = b + Re[A / (omega - w0 + i w)] fitted to samples near a root
    omega_c - i delta_omega_c, by one linear least-squares solve.

    With x = (omega - omega_c)/delta_omega_c and h = w/delta_omega_c the
    model reads (rate - b)((x - x0)^2 + h^2) = Re A (x - x0) + Im A h, so
    rate x^2 is linear in (rate x, rate, x^2, x, 1) with the coefficients
    2 x0 and -(x0^2 + h^2) on the first two (Levy 1959, IRE Trans. Autom.
    Control 4, 37).  The rates are scaled to a peak of 1 for the solve.
    """
    x = (np.asarray(omega) - omega_c) / delta_omega_c
    scale = np.max(np.abs(rate))
    g = np.asarray(rate) / scale
    basis = np.column_stack([g * x, g, x * x, x, np.ones_like(x)])
    c = np.linalg.lstsq(basis, g * x * x, rcond=None)[0]
    x0 = c[0] / 2.0
    h2 = -c[1] - x0 * x0
    b = c[2]
    re_a = c[3] + 2.0 * b * x0
    im_a_h = c[4] - b * (x0 * x0 + h2) + re_a * x0
    u = x - x0
    fitted = b + (re_a * u + im_a_h) / (u * u + h2)
    return math.sqrt(h2) * delta_omega_c, fitted * scale


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
    sphereqed.dynamics.volterra_amplitudes without its blocked FFT history sum."""
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
    gp, gm = p.g("+"), p.g("-")
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

def _denominator_terms(sys, l: int, omega):
    """t1 = eps j_l(z2) [z1 h_l(z1)]' and t2 = h_l(z1) [z2 j_l(z2)]' at each
    frequency of omega, a scalar (one frequency) or a 1-D array, l >= 1, with
    [z f_l(z)]' = z f_{l-1}(z) - l f_l(z), and f_l the running product of
    the ratio rows."""
    eps = permittivity(sys.params, omega)
    z1 = size_parameter(omega, sys.radius)
    z2 = refractive_index(eps) * z1
    j2, h1 = (np.cumprod(rows, axis=0) for rows in sph_jn_h1n_ratios(l, z2, z1))
    rj2 = z2 * j2[l - 1] - l * j2[l]
    rh1 = z1 * h1[l - 1] - l * h1[l]
    return eps * j2[l] * rh1, h1[l] * rj2


def _denominator_slope(sys, l: int, omega: complex) -> complex:
    """dF/domega of F = t1 - t2 (see _denominator_terms) at one frequency,
    by the product rule on the raw products: f_l'(z) = f_{l-1}(z)
    - (l + 1) f_l(z)/z, [z f_l(z)]'' = (l (l + 1)/z - z) f_l(z), and
    z2' = n' z1 + n z1' with n' = eps'/(2 n)."""
    p = sys.params
    eps = permittivity(p, omega)
    deps = p.omega_p**2 * (2.0 * omega + 1j * p.gamma) / (
        1.0 - omega * omega - 1j * omega * p.gamma) ** 2
    n = refractive_index(eps)
    z1 = size_parameter(omega, sys.radius)
    z2 = n * z1
    dz1 = 2.0 * math.pi * sys.radius
    dz2 = deps / (2.0 * n) * z1 + n * dz1
    j2, h1 = (np.cumprod(rows, axis=0)[:, 0] for rows in sph_jn_h1n_ratios(l, z2, z1))
    rj2 = z2 * j2[l - 1] - l * j2[l]
    rh1 = z1 * h1[l - 1] - l * h1[l]
    dj2 = j2[l - 1] - (l + 1) * j2[l] / z2
    dh1 = h1[l - 1] - (l + 1) * h1[l] / z1
    dt1 = (deps * j2[l] * rh1 + eps * dj2 * dz2 * rh1
           + eps * j2[l] * (l * (l + 1) / z1 - z1) * h1[l] * dz1)
    dt2 = dh1 * dz1 * rj2 + h1[l] * (l * (l + 1) / z2 - z2) * j2[l] * dz2
    return complex(dt1 - dt2)


def _balance(sys, l: int, omega):
    t1, t2 = _denominator_terms(sys, l, omega)
    denom = abs(t1) + abs(t2)
    with np.errstate(invalid="ignore"):
        return np.where(denom == 0.0, 1.0, abs(t1 - t2) / denom)


def _denominator(sys, l: int, omega: complex) -> complex:
    t1, t2 = _denominator_terms(sys, l, omega)
    return complex((t1 - t2).item())


def _newton_root(sys, l: int, omega0: float):
    om = complex(omega0)
    for _ in range(50):
        d0 = _denominator(sys, l, om)
        # NaN below H1_IM_MIN, where h_l^(1) is not accurate
        if cmath.isnan(d0):
            return None
        deriv = _denominator_slope(sys, l, om)
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
    f1 = _balance(sys, l, x1).item()
    f2 = _balance(sys, l, x2).item()
    for _ in range(60):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = _balance(sys, l, x1).item()
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = _balance(sys, l, x2).item()
        if b - a < HANDOVER_WIDTH * max(1.0, abs(a)):
            break
    return 0.5 * (a + b)


def scalar_find_resonances(sys, omega_lo: float, omega_hi: float, l_range):
    """sphereqed.microsphere.find_resonances with every candidate refined
    on its own: golden section and Newton steps are single-point calls of
    the scalar recurrences, Newton on the raw Mie denominator F with its
    own closed-form derivative.  Same grid, thresholds, iteration caps,
    window and width filters, acceptance checks, dedup rule and sort.
    Every candidate, the band-gap ones too (which find_resonances starts
    from their grid points), takes a golden-section start closed at
    HANDOVER_WIDTH, a stricter reference than find_resonances'
    _GOLDEN_WIDTH, and one Newton pass to 1e-12, with no restart from the
    HANDOVER_WIDTH lattice: the roots agree to rel 1e-12 all the same."""
    found = []
    grid = _search_grid(omega_lo, omega_hi)
    npts = len(grid)
    for l in l_range:
        vals = np.concatenate(
            [_balance(sys, l, grid[i : i + _GRID_CHUNK]) for i in range(0, npts, _GRID_CHUNK)]
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
