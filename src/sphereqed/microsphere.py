"""Microsphere physics: permittivity, TM Mie coefficients, collective decay rates,
and field-resonance extraction.

Unit conventions (used throughout the package):
    frequencies in units of the transverse resonance frequency omega_T,
    lengths in units of lambda_T = 2 pi c / omega_T,
    decay rates in units of the free-space single-atom rate Gamma_0.
With these choices the size parameter of a length L at frequency omega is
simply 2 pi * omega * L, and hbar, c, epsilon_0 and the dipole moment drop
out of every formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import (
    H1_IM_MIN,
    L_MAX_SUPPORTED,
    legendre_all,
    riccati_deriv_all,
    sph_h1n_all,
    sph_h1n_ratio,
    sph_jn_all,
    sph_jn_ratio,
)

# adaptive series truncation: stop after this many consecutive negligible terms
_TAIL_RUN = 5
_TAIL_RTOL = 1e-12
# orders per window of the geometric tail bound at the l = L_MAX_SUPPORTED cap
_TAIL_WIDTH = 12

# sweep points that collective_rates evaluates together.  A constant, so a
# point's value never depends on how a caller groups its points; small, so
# the (orders x points) work arrays stay a few hundred kB.
BLOCK = 32


class NonConvergenceError(RuntimeError):
    """Raised when the multipole series or a root refinement fails to settle."""


class PoleError(ArithmeticError):
    """Raised when a Mie coefficient is evaluated essentially on a resonance pole."""


@dataclass(frozen=True)
class DrudeLorentzParams:
    """Single-oscillator dielectric model; omega_p and gamma in omega_T units."""

    omega_p: float
    gamma: float

    def __post_init__(self):
        if self.omega_p < 0:
            raise ValueError("omega_p must be >= 0")
        if self.gamma <= 0:
            raise ValueError("absorption parameter gamma must be > 0")

    @property
    def omega_l(self) -> float:
        """Upper band-gap edge sqrt(1 + omega_p^2)."""
        return math.sqrt(1.0 + self.omega_p**2)


@dataclass(frozen=True)
class SphereSystem:
    """Sphere of given radius with two radially polarized atoms at equal height.

    radius and atom_distance (surface-to-atom) are in lambda_T units; theta is
    the angle between the two radial dipole directions, theta = pi for
    diametrically opposite atoms.
    """

    params: DrudeLorentzParams
    radius: float
    atom_distance: float
    theta: float = math.pi

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be > 0")
        if self.atom_distance <= 0:
            raise ValueError("atoms must sit strictly outside the sphere (atom_distance > 0)")
        if not 0.0 <= self.theta <= math.pi + 1e-12:
            raise ValueError("theta must lie in [0, pi]")

    @property
    def r(self) -> float:
        """Radial atom position R + Delta r in lambda_T units."""
        return self.radius + self.atom_distance


def resonance_kind(omega_c: float, params: DrudeLorentzParams) -> str:
    """SG for mid-frequencies inside the band gap (1, omega_L), WG otherwise."""
    return "SG" if 1.0 < omega_c < params.omega_l else "WG"


@dataclass(frozen=True)
class Resonance:
    """A sphere-assisted field resonance: complex root omega_c - i*delta_omega_c
    of the TM reflection-coefficient denominator at multipole order l."""

    omega_c: float
    delta_omega_c: float
    l: int
    kind: str = "WG"

    def __post_init__(self):
        if self.omega_c <= 0 or self.delta_omega_c <= 0:
            raise ValueError("resonance needs omega_c > 0 and delta_omega_c > 0")
        if self.kind not in ("SG", "WG"):
            raise ValueError("kind must be 'SG' or 'WG'")


def permittivity(p: DrudeLorentzParams, omega):
    """Drude-Lorentz permittivity eps(omega) = 1 + omega_p^2/(1 - omega^2 - i omega gamma),
    elementwise for an array omega."""
    return 1.0 + p.omega_p**2 / (1.0 - omega * omega - 1j * omega * p.gamma)


def refractive_index(p: DrudeLorentzParams, omega):
    """Principal sqrt of the permittivity with Im >= 0 (decaying field inside
    the absorbing medium), elementwise for an array omega."""
    n = np.sqrt(permittivity(p, omega))
    if np.ndim(n):
        return np.where(n.imag < 0, -n, n)
    return -n if n.imag < 0 else n


def size_parameter(omega: complex, length: float) -> complex:
    """k * length = 2 pi * omega * length in the normalized units."""
    return 2.0 * math.pi * omega * length


def _mie_arrays(params: DrudeLorentzParams, radius: float, lmax: int, omega):
    """Numerator/denominator arrays of the TM scattering coefficient for
    l = 0..lmax at frequency omega (complex allowed); an array omega gives
    one column per frequency."""
    eps = permittivity(params, omega)
    z1 = size_parameter(omega, radius)
    z2 = refractive_index(params, omega) * z1
    ej2 = sph_jn_all(lmax, z2)
    rj2 = riccati_deriv_all(ej2, z2)
    ej2 *= eps
    # num = eps j2 rj1 - j1 rj2 and den = eps j2 rh1 - h1 rj2, built in
    # place and in this order so that few (orders x frequencies) arrays are
    # alive at once
    j1 = sph_jn_all(lmax, z1)
    num = riccati_deriv_all(j1, z1)
    num *= ej2
    j1 *= rj2
    num -= j1
    del j1
    h1 = sph_h1n_all(lmax, z1)
    den = riccati_deriv_all(h1, z1)
    den *= ej2
    h1 *= rj2
    den -= h1
    return num, den


def mie_coefficient(sys: SphereSystem, l: int, omega: complex) -> complex:
    """TM scattering coefficient B_l^N(omega); accepts complex omega so the
    same expression can be driven to its complex poles."""
    if l < 1:
        raise ValueError("Mie coefficient defined for l >= 1")
    if l > L_MAX_SUPPORTED:
        raise ValueError(f"l={l} exceeds supported maximum {L_MAX_SUPPORTED}")
    if omega == 0:
        raise ValueError("omega must be nonzero")
    num, den = _mie_arrays(sys.params, sys.radius, l, omega)
    if abs(den[l]) < 1e-300:
        raise PoleError(f"Mie denominator vanishes at l={l}, omega={omega}")
    return complex(-num[l] / den[l])


def _shared(values: np.ndarray):
    """The single value that every entry of values holds, or values itself.
    A shared value is evaluated once, and through the scalar recurrences,
    which are faster for one argument."""
    return values[0] if np.all(values == values[0]) else values


def _rate_orders(params: DrudeLorentzParams, radius: float, r: np.ndarray,
                 omega: np.ndarray, lmax: int):
    """Per-order contributions to Gamma_AA/Gamma_0 for l = 0..lmax (rows) at
    each point (columns), and a Legendre-free magnitude envelope.

    The cross rate Gamma_AB differs only by the factor P_l(cos theta), and
    the single-atom rate has P_l(1) = 1.  |terms| = weight * |Re h(j + Bh)|
    bounds each cross-rate term (|P_l| <= 1) but beats through zero as the
    scattered phase rotates; env_mag = weight * (j^2 + |B h| |h|) is
    monotone in the tail and supplies a clean geometric decay rate.
    |B h^2| is assembled as |B h| * |h| to stay clear of h^2 overflow.  A
    frequency (or k r) shared by the whole block is evaluated once, so a
    delta_r sweep builds its Mie arrays once and a theta sweep everything
    but the Legendre factor.
    """
    shape = (lmax + 1, -1)
    bl, den = (np.reshape(a, shape) for a in _mie_arrays(params, radius, lmax, _shared(omega)))
    # B_l = -num/den, and 0 where the denominator vanishes
    with np.errstate(divide="ignore", invalid="ignore"):
        bl /= den
    bl[~(np.abs(den) > 0)] = 0.0
    del den
    np.negative(bl, out=bl)
    kr = _shared(2.0 * math.pi * omega * r)
    hr = np.reshape(sph_h1n_all(lmax, kr), shape)
    scattered = bl * hr
    del bl
    env_mag = np.abs(scattered)
    env_mag *= np.abs(hr)
    jr = np.reshape(sph_jn_all(lmax, kr), shape)
    env_mag += np.abs(jr) ** 2
    # h (j + B h), the scattered part already holding B h
    scattered += jr
    del jr
    scattered *= hr
    ls = np.arange(lmax + 1, dtype=float)[:, None]
    weight = 1.5 * ls * (ls + 1.0) * (2.0 * ls + 1.0) / kr**2
    full = (lmax + 1, len(omega))
    return (np.broadcast_to(weight * scattered.real, full),
            np.broadcast_to(weight * env_mag, full))


def _five_term_sums(terms: np.ndarray, env: np.ndarray):
    """Per column: the partial sum at the order where _TAIL_RUN consecutive
    envelopes first fall below _TAIL_RTOL of the running total (with a
    Gamma_0 floor), whether that happened, and the sum of every term."""
    total = np.cumsum(terms, axis=0)
    small = env < _TAIL_RTOL * (np.abs(total) + 1.0)
    count = len(small) - _TAIL_RUN + 1
    run = small[:count].copy()
    for k in range(1, _TAIL_RUN):
        run &= small[k : k + count]
    columns = np.arange(terms.shape[1])
    first = np.argmax(run, axis=0)
    return total[first + _TAIL_RUN - 1, columns], run[first, columns], total[-1]


def _tail_bound(env_re: np.ndarray, env_mag: np.ndarray) -> np.ndarray:
    """Per column: a geometric bound on the orders beyond the cap, or inf
    where the magnitude envelope does not decay.  The decay rate comes from
    the monotone magnitude envelope, the amplitude from the recent |Re|
    maxima (the dissipative fraction of the evanescent response only shrinks
    with l, so this anchors a conservative geometric tail)."""
    width = _TAIL_WIDTH
    m1 = env_mag[-2 * width : -width].max(axis=0)
    m2 = env_mag[-width:].max(axis=0)
    amp = env_re[-2 * width :].max(axis=0)
    decays = (m1 > 0) & (m2 < m1)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (m2 / m1) ** (1.0 / width)  # per-order geometric factor
        bound = amp * q / (1.0 - q)
    return np.where(decays, bound, np.inf)


def _block_rates(params: DrudeLorentzParams, radius: float, r: np.ndarray,
                 omega: np.ndarray, cos_theta: np.ndarray):
    """collective_rates for one block of points.

    The block starts at one lmax for all its points; points whose Gamma_AA
    or Gamma_AB has not settled there are redone once, at the cap."""
    scale = np.maximum(
        2.0 * math.pi * omega * r,
        np.abs(refractive_index(params, omega)) * 2.0 * math.pi * omega * radius,
    )
    lmax = min(L_MAX_SUPPORTED, int(scale.max()) + 60)
    rates = np.full((2, len(omega)), np.nan)
    done = np.zeros((2, len(omega)), dtype=bool)
    failure = {}
    with np.errstate(invalid="ignore", over="ignore"):
        while True:
            todo = np.flatnonzero(~done.all(axis=0))
            terms, env_mag = _rate_orders(params, radius, r[todo], omega[todo], lmax)
            p_l = np.reshape(legendre_all(lmax, _shared(cos_theta[todo])), (lmax + 1, -1))
            # order 0 carries no weight and is not part of the series
            terms, env_mag, p_l = terms[1:], env_mag[1:], p_l[1:]
            env_re = np.abs(terms)
            at_cap = lmax == L_MAX_SUPPORTED
            bound = _tail_bound(env_re, env_mag) if at_cap else None
            for which, series in enumerate((terms, terms * p_l)):
                settled_sum, settled, full_sum = _five_term_sums(series, env_re)
                new = settled & ~done[which, todo]
                rates[which, todo[new]] = settled_sum[new]
                done[which, todo[new]] = True
                if not at_cap:
                    continue
                # 1e-5 Gamma_0 absolute floor, far below any resolvable
                # feature of the near-surface sweeps this cap serves
                rest = ~done[which, todo]
                accept = rest & (bound < 1e-5 * np.maximum(np.abs(full_sum), 1.0))
                rates[which, todo[accept]] = full_sum[accept]
                refused = rest & ~accept
                for k, total in zip(todo[refused], full_sum[refused]):
                    failure.setdefault(k, "did not settle" if np.isfinite(total) else "overflow")
            if at_cap or done.all():
                break
            # free this pass's arrays before the larger pass at the cap
            del terms, env_mag, p_l, env_re, series
            lmax = L_MAX_SUPPORTED
    for k in np.flatnonzero(~np.isfinite(rates).all(axis=0)):
        failure.setdefault(k, "overflow")
    if failure:
        k = min(failure)
        om = float(omega[k])
        if failure[k] == "overflow":
            raise NonConvergenceError(
                f"multipole term overflow at omega={om} (resonant order beyond float64 range)"
            )
        raise NonConvergenceError(
            f"multipole series did not settle by l={L_MAX_SUPPORTED} at "
            f"omega={om} (atoms too close to the surface)"
        )
    return rates


def collective_rates(params: DrudeLorentzParams, radius: float, r, omega, cos_theta):
    """(Gamma_AA, Gamma_AB)/Gamma_0 of two radial dipoles at radial position
    r outside a sphere of the given radius, at frequency omega, with
    cos(theta) between the dipole directions.  r, omega and cos_theta
    broadcast against each other; both results have the broadcast shape.

    Points are evaluated BLOCK at a time: the Bessel, Mie and Legendre
    recurrences loop over the order l and run for every point of a block at
    once, and the per-order terms are shared by Gamma_AA and Gamma_AB.  Each
    multipole sum stops once five consecutive term envelopes fall below
    1e-12 of the running total.  Close to the surface the scattered part
    only decays geometrically as (R/r)^{2l}; if the l = 300 cap is reached
    first, the remaining tail is bounded geometrically and accepted when
    below 1e-5 of the total (with a 1 Gamma_0 floor).  Beyond that the
    geometry needs orders that overflow float64 and NonConvergenceError is
    raised, naming the frequency of the first point that failed.
    """
    r, omega, cos_theta = np.broadcast_arrays(
        np.asarray(r, dtype=float), np.asarray(omega, dtype=float),
        np.asarray(cos_theta, dtype=float),
    )
    if np.any(omega <= 0):
        raise ValueError("omega must be > 0")
    if np.any(r <= radius):
        raise ValueError("atoms must sit strictly outside the sphere (r > radius)")
    shape = omega.shape
    r, omega, cos_theta = r.ravel(), omega.ravel(), cos_theta.ravel()
    rates = np.empty((2, omega.size))
    for start in range(0, omega.size, BLOCK):
        block = slice(start, start + BLOCK)
        rates[:, block] = _block_rates(params, radius, r[block], omega[block], cos_theta[block])
    return rates[0].reshape(shape), rates[1].reshape(shape)


def collective_rate(sys: SphereSystem, omega: float, same_atom: bool = False) -> float:
    """Collective decay rate Gamma_{A'A''}/Gamma_0 for radial dipoles: one
    point of collective_rates.

    same_atom selects the single-atom rate (theta_eff = 0); otherwise the
    cross rate at the system's dipole angle.
    """
    cos_theta = 1.0 if same_atom else math.cos(sys.theta)
    return float(collective_rates(sys.params, sys.radius, sys.r, omega, cos_theta)[1])


def rates_pm(sys: SphereSystem, omega: float) -> tuple[float, float]:
    """(Gamma_+, Gamma_-) = Gamma_AA +/- Gamma_AB in Gamma_0 units."""
    gaa, gab = collective_rates(sys.params, sys.radius, sys.r, omega, math.cos(sys.theta))
    return float(gaa + gab), float(gaa - gab)


def single_term_rate(sys: SphereSystem, res: Resonance, same_atom: bool = False) -> float:
    """The l = res.l term of the multipole sum alone, evaluated at omega_c.

    Near a sharp resonance this term carries essentially the whole rate; far
    from resonance it carries no approximation guarantee.
    """
    cos_theta = 1.0 if same_atom else math.cos(sys.theta)
    terms, _ = _rate_orders(sys.params, sys.radius, np.array([sys.r]),
                            np.array([res.omega_c]), res.l)
    return float(terms[res.l, 0] * legendre_all(res.l, cos_theta)[res.l])


def _order_terms(sys: SphereSystem, l: int, omega: np.ndarray):
    """The terms eps D_h(z1) and D_j(z2) of f = eps D_h - D_j at order l, at
    each frequency of the 1-D array omega, with z1 = k R, z2 = n k R and
    D_f(z) = [z f_l(z)]' / f_l(z) = z f_{l-1}(z) / f_l(z) - l.

    f is the TM Mie denominator eps j_l(z2) [z1 h_l(z1)]' - h_l(z1) [z2 j_l(z2)]'
    divided by j_l(z2) h_l(z1): it has the same zeros, and the two terms
    are the denominator's two terms divided by the same factor.  f needs
    only the ratios j_l/j_{l-1} and h_l/h_{l-1}, which stay bounded where
    j_l(z2) or h_l(z1) leave float64.

    The first term, and so f and the balance ratio, is NaN at a point where
    k R lies below H1_IM_MIN, where h_l^(1) is not accurate, so that the
    search drops it.  A non-finite term at any other point raises
    OverflowError.
    """
    eps = permittivity(sys.params, omega)
    z1 = size_parameter(omega, sys.radius)
    z2 = refractive_index(sys.params, omega) * z1
    q = sph_h1n_ratio(l, z1)
    r = sph_jn_ratio(l, z2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dh = z1 / q
        dh -= l
        dh *= eps
        dj = z2 / r
        dj -= l
    finite = np.isfinite(q) & np.isfinite(r) & np.isfinite(dh) & np.isfinite(dj)
    finite |= np.imag(z1) < H1_IM_MIN
    if not finite.all():
        raise OverflowError(
            f"Bessel ratio recurrences overflowed for l={l} at omega={omega[~finite][0]}"
        )
    return dh, dj


def _balance(t1, t2):
    """|t1 - t2| / (|t1| + |t2|), and 1 where both terms vanish.

    The denominator rides an exponential envelope in omega (through j_l(z2)
    inside the gap), and f has poles at the zeros of j_l(z2); the
    normalized cancellation ratio is the same for both, O(1) away from a
    resonance and dipping sharply at one, which makes it the right quantity
    to bracket on a real-frequency grid.
    """
    denom = np.abs(t1) + np.abs(t2)
    with np.errstate(invalid="ignore"):
        return np.where(denom == 0.0, 1.0, np.abs(t1 - t2) / denom)


def _reduced_denominator(sys: SphereSystem, l: int, omega: np.ndarray) -> np.ndarray:
    """f = eps D_h - D_j of order l at each frequency of the 1-D array omega
    (see _order_terms)."""
    dh, dj = _order_terms(sys, l, omega)
    return dh - dj


def _denominator_balance(sys: SphereSystem, l: int, omega: np.ndarray) -> np.ndarray:
    """The balance ratio of order l at each frequency of the 1-D array omega
    (see _order_terms and _balance)."""
    return _balance(*_order_terms(sys, l, omega))


def _newton_root(sys: SphereSystem, l: int, omega0):
    """Complex Newton iteration on f (see _order_terms) from real starts.

    The iterates of all starts move together: each step makes one call
    each at omega and omega +/- h over the iterates still active.  An
    iterate converges when its step falls below 1e-12; it is dropped when
    the derivative vanishes, when it leaves the region where h_l^(1) is
    accurate, or after 50 steps.  Returns an array of roots, NaN where a
    start was dropped; a scalar start gives its root or None.
    """
    om = np.array(omega0, dtype=complex, ndmin=1)
    roots = np.full(len(om), np.nan, dtype=complex)
    active = np.arange(len(om))
    for _ in range(50):
        d0 = _reduced_denominator(sys, l, om[active])
        inside = ~np.isnan(d0)
        active, d0 = active[inside], d0[inside]
        if not active.size:
            break
        w = om[active]
        h = 1e-7 * np.abs(w)
        deriv = (_reduced_denominator(sys, l, w + h)
                 - _reduced_denominator(sys, l, w - h)) / (2.0 * h)
        moving = deriv != 0
        active, w = active[moving], w[moving]
        step = d0[moving] / deriv[moving]
        om[active] = w - step
        done = np.abs(step) < 1e-12
        roots[active[done]] = om[active[done]]
        active = active[~done]
        if not active.size:
            break
    if np.ndim(omega0):
        return roots
    return None if np.isnan(roots[0]) else complex(roots[0])


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_real_minimum(sys: SphereSystem, l: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section minimization of the balance ratio on each bracket
    [a_k, b_k], all brackets together: each step probes the still-open
    brackets in one call, and a bracket closes when it is narrower than
    1e-12 max(1, |a_k|), or after 60 steps."""
    a, b = a.copy(), b.copy()
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _denominator_balance(sys, l, x1)
    f2 = _denominator_balance(sys, l, x2)
    open_ = np.arange(len(a))
    for _ in range(60):
        left = f1[open_] <= f2[open_]
        # left: the minimum lies in [a, x2], and x1 becomes the new x2
        lo, hi = open_[left], open_[~left]
        b[lo], x2[lo], f2[lo] = x2[lo], x1[lo], f1[lo]
        x1[lo] = b[lo] - _GOLDEN * (b[lo] - a[lo])
        a[hi], x1[hi], f1[hi] = x1[hi], x2[hi], f2[hi]
        x2[hi] = a[hi] + _GOLDEN * (b[hi] - a[hi])
        f = _denominator_balance(sys, l, np.where(left, x1[open_], x2[open_]))
        f1[lo], f2[hi] = f[left], f[~left]
        a_open = a[open_]
        open_ = open_[~(b[open_] - a_open < 1e-12 * np.maximum(1.0, np.abs(a_open)))]
        if not open_.size:
            break
    return 0.5 * (a + b)


def find_resonances(
    sys: SphereSystem,
    omega_lo: float,
    omega_hi: float,
    l_range,
    grid_per_unit: int = 2000,
) -> list[Resonance]:
    """Locate field resonances omega_c - i*delta_omega_c in a frequency window.

    Every evaluation reads order l alone, through the log-derivative form
    f = eps D_h - D_j of the TM Mie denominator (see _order_terms), built
    from the Bessel ratios j_l/j_{l-1} and h_l/h_{l-1}: nothing overflows up
    to l = 300.  For each multipole order the balance ratio of the two
    terms is sampled on a real grid (grid_per_unit points per unit
    omega_T, at least 64 across the window) in one call, interior local
    minima are sharpened by golden-section search on the same ratio and
    then handed to a complex Newton iteration on f.  The candidates of an
    order are refined together, one column of the ratio recurrences per
    candidate (a single candidate keeps the scalar loop).  Converged roots
    are kept when they fall inside the window, have positive width and
    suppress f by at least 1e-8 relative to its off-resonance value at
    omega_c + 3*delta_omega_c.
    """
    if not (0 < omega_lo < omega_hi):
        raise ValueError("need 0 < omega_lo < omega_hi")
    found: list[Resonance] = []
    npts = max(64, int(grid_per_unit * (omega_hi - omega_lo))) + 1
    grid = np.linspace(omega_lo, omega_hi, npts)
    for l in l_range:
        if l < 1 or l > L_MAX_SUPPORTED:
            raise ValueError(f"l={l} outside 1..{L_MAX_SUPPORTED}")
        vals = _denominator_balance(sys, l, grid)
        mid = vals[1:-1]
        minima = np.flatnonzero((mid < vals[:-2]) & (mid < vals[2:]) & (mid < 0.5)) + 1
        if not minima.size:
            continue
        starts = _refine_real_minimum(sys, l, grid[minima - 1], grid[minima + 1])
        roots = _newton_root(sys, l, starts)
        wc, dwc = roots.real, -roots.imag
        # dropped candidates are NaN and fail every comparison
        ok = (omega_lo <= wc) & (wc <= omega_hi) & (dwc > 0)
        kept = roots[ok]
        if kept.size:
            ref = np.abs(_reduced_denominator(sys, l, wc[ok] + 3.0 * dwc[ok]))
            kept = kept[np.abs(_reduced_denominator(sys, l, kept)) < 1e-8 * ref]
        unique: list[complex] = []
        for root in kept.tolist():
            wc, dwc = root.real, -root.imag
            if any(abs(root - r) < 10.0 * max(dwc, 1e-12) for r in unique):
                continue
            unique.append(root)
            found.append(
                Resonance(
                    omega_c=wc,
                    delta_omega_c=dwc,
                    l=l,
                    kind=resonance_kind(wc, sys.params),
                )
            )
    found.sort(key=lambda r: (r.omega_c, r.l))
    return found
