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
    legendre_all,
    sph_jn_h1n_ratio,
    sph_jn_h1n_ratios,
)

# Highest multipole order of the rate sum, to which every block sums: enough
# for size parameters up to ~kR = 66 plus the evanescent tail.  B_l is
# subnormal near this order.
L_MAX_SUPPORTED = 300

# adaptive series truncation: stop after this many consecutive negligible terms
_TAIL_RUN = 5
_TAIL_RTOL = 1e-12
# orders per window of the geometric tail bound at the l = L_MAX_SUPPORTED cap
_TAIL_WIDTH = 12

# points of a frequency sweep that collective_rates evaluates together.  A
# block takes sweep points while they need at most 3 BLOCK columns of the j
# recurrence (k R and n k R per distinct frequency, k r per distinct
# (frequency, k r) pair) and are at most 2 BLOCK points: 32 points of a
# frequency sweep, 64 of a delta_r or theta sweep.  So the work arrays,
# orders x up to 3 BLOCK columns, stay a few hundred kB each; the point cap
# is measured (over three rate_sweep benchmark passes, blocks of 80 or 94
# distance points raised the peak RSS by about 0.5 MB, of 64 by 0.1 MB).
# A point's value does not depend on its block: no column reads another.
BLOCK = 32

# real-frequency grid points per unit omega_T of the resonance search
GRID_PER_UNIT = 2000
# (order, grid point) pairs per grid call of the resonance search: the work
# arrays of the ratio recurrences take about 1.5 kB per pair, so a call
# stays near 25 MB, and a search of up to 40 orders on 400 grid points
# makes one call
_GRID_PAIRS = 2**14
# relative bracket width at which the resonance search's golden section
# hands its candidate to Newton.  Measured on 574 searches (the
# resonance_scan job lists of seeds 0-10, passes 0-3, the demo window and
# l 60-200 over 1.04-1.06): the root sets stay identical at 1e-5 and first
# differ at 1e-4, and the narrowest width found is delta_omega_c = 3.6e-7
HANDOVER_WIDTH = 1e-7


class NonConvergenceError(RuntimeError):
    """Raised when the multipole series fails to settle; point is the flat
    index of the first sweep point that failed."""

    def __init__(self, message: str, point: int):
        super().__init__(message)
        self.point = point


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


def _sphere_arguments(params: DrudeLorentzParams, radius: float, omega):
    """eps, z1 = k R and z2 = n k R at each frequency of omega: the
    arguments of the Mie terms, with n on the branch of refractive_index."""
    z1 = size_parameter(omega, radius)
    return permittivity(params, omega), z1, refractive_index(params, omega) * z1


def _reduced_terms(eps, z1, ratio1, z2, ratio2, l):
    """eps D_1(z1) and D_2(z2), with z1 = k R, z2 = n k R and the
    log-derivative D(z) = [z f_l(z)]'/f_l(z) = z f_{l-1}(z)/f_l(z) - l formed
    from ratio = f_l/f_{l-1}; l is an order or a column of orders.

    With h_l^(1) at z1 and j_l at z2 these are the two terms of the TM Mie
    denominator eps j_l(z2) [z1 h_l(z1)]' - h_l(z1) [z2 j_l(z2)]' divided by
    j_l(z2) h_l(z1), and their difference f = eps D_h - D_j has its zeros;
    with j_l at z1 they are those of the numerator divided by j_l(z2) j_l(z1).
    The ratios stay bounded where j_l(z2) or h_l(z1) leave float64.  The
    arithmetic is out of place: numpy's in-place complex multiply takes
    another loop for a one-element array, and a point's terms would depend
    on how many points share its call.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return (z1 / ratio1 - l) * eps, z2 / ratio2 - l


def _mie_arrays(params: DrudeLorentzParams, radius: float, lmax: int, omega, kr):
    """Numerator and denominator of the TM scattering coefficient
    B_l = -num/den for l = 1..lmax (rows) at each frequency of the 1-D array
    omega (complex allowed), and the sph_jn_ratios and sph_h1n_ratios rows
    at each k r of kr, from one run of the ratio loop for both kinds, j on
    concat(k R, n k R, kr) and h on concat(k R, kr).
    num = j_l(k R) (eps D_j(k R) - D_j(n k R)) and den = h_l(k R) f, the
    Mie terms divided by j_l(n k R) (_reduced_terms).

    Only the ratios of j_l(n k R) are formed, and D_j at k R and at n k R
    come from the same code: a vacuum sphere gives num = 0 exactly.  B_l is
    one quotient: near l = 300 it is subnormal, and j_l/h_l formed first
    would round it differently.
    """
    eps, z1, z2 = _sphere_arguments(params, radius, omega)
    m = len(z1)
    rj, rh = sph_jn_h1n_ratios(lmax, np.concatenate([z1, z2, kr]), np.concatenate([z1, kr]))
    rj1, rj2, q1 = rj[:, :m], rj[1:, m : 2 * m], rh[:, :m]
    ls = np.arange(1, lmax + 1)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num = np.subtract(*_reduced_terms(eps, z1, rj1[1:], z2, rj2, ls))
        den = np.subtract(*_reduced_terms(eps, z1, q1[1:], z2, rj2, ls))
        # j_l and h_l at k R are the running products of their ratio rows
        num *= np.cumprod(rj1, axis=0)[1:]
        den *= np.cumprod(q1, axis=0)[1:]
    return num, den, rj[:, 2 * m :], rh[:, m:]


def _rate_orders(params: DrudeLorentzParams, radius: float, r: np.ndarray,
                 omega: np.ndarray, lmax: int):
    """Per-order contributions to Gamma_AA/Gamma_0 for l = 1..lmax (rows) at
    each point (columns), and a Legendre-free magnitude envelope of the last
    2 _TAIL_WIDTH orders, which is all _tail_bound reads; order 0 carries no
    weight and is not part of the series.

    The cross rate Gamma_AB differs only by the factor P_l(cos theta), and
    the single-atom rate has P_l(1) = 1.  |terms| = weight * |Re h(j + Bh)|
    bounds each cross-rate term (|P_l| <= 1) but beats through zero as the
    scattered phase rotates; env_mag = weight * (j^2 + |B h| |h|) is
    monotone in the tail and supplies a clean geometric decay rate.
    |B h^2| is assembled as |B h| * |h| to stay clear of h^2 overflow.  The
    terms and the Bessel rows at k r are built per distinct (frequency, k r),
    the Mie arrays per distinct frequency: a theta sweep builds one column
    of each, a delta_r sweep one Mie column.  The rows of j_l(k r) and
    h_l(k r) are formed in the array the ratio loop wrote, which is let go
    before the terms are weighted.
    """
    kr = 2.0 * math.pi * omega * r
    (omega, kr), at_point = np.unique(np.stack([omega, kr]), axis=1, return_inverse=True)
    freqs, at_freq = np.unique(omega, return_inverse=True)
    num, den, rj, rh = _mie_arrays(params, radius, lmax, freqs, kr)
    # B_l = -num/den, and 0 where the denominator vanishes
    with np.errstate(divide="ignore", invalid="ignore"):
        bl = np.where(np.abs(den) > 0, -num / den, 0.0)
    del num, den
    # j_l and h_l at k r, the running products of the ratio rows, in place.
    # A float64 product: Re h_l is off j_l by 8.65e-12 at l = 90, z = 80
    # (4.4e-15 when formed in 80-bit long double)
    jr = np.cumprod(rj, axis=0, out=rj)[1:]
    hr = np.cumprod(rh, axis=0, out=rh)[1:]
    scattered = np.take(bl, at_freq, axis=1)
    scattered *= hr
    del bl
    tail = slice(-2 * _TAIL_WIDTH, None)
    env_mag = np.abs(scattered[tail])
    env_mag *= np.abs(hr[tail])
    env_mag += np.abs(jr[tail]) ** 2
    # h (j + B h), the scattered part already holding B h
    scattered += jr
    scattered *= hr
    del rj, rh, jr, hr
    ls = np.arange(1, lmax + 1, dtype=float)[:, None]
    weight = 1.5 * ls * (ls + 1.0) * (2.0 * ls + 1.0) / kr**2
    terms = weight * scattered.real
    del scattered
    env_mag *= weight[tail]
    return terms[:, at_point], env_mag[:, at_point]


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
                 omega: np.ndarray, cos_theta: np.ndarray, start: int):
    """collective_rates for one block of points, in one pass to the
    L_MAX_SUPPORTED cap.

    Each sum takes the five-term rule where it settles; a column that does
    not settle takes its full sum when the tail bound beyond the cap allows.
    NonConvergenceError names the first failing column, start + its index
    in the block, as its point."""
    with np.errstate(invalid="ignore", over="ignore"):
        terms, env_mag = _rate_orders(params, radius, r, omega, L_MAX_SUPPORTED)
        cosines, at_cos = np.unique(cos_theta, return_inverse=True)
        # the cross-rate terms, P_l(cos theta) times the terms
        cross = legendre_all(L_MAX_SUPPORTED, cosines)[1:, at_cos]
        cross *= terms
        env_re = np.abs(terms)
        bound = _tail_bound(env_re, env_mag)
        rates = np.empty((2, len(omega)))
        failed = np.zeros(len(omega), dtype=bool)
        for which, series in enumerate((terms, cross)):
            settled_sum, settled, full_sum = _five_term_sums(series, env_re)
            rates[which] = np.where(settled, settled_sum, full_sum)
            # 1e-5 Gamma_0 absolute floor, far below any resolvable
            # feature of the near-surface sweeps this cap serves
            failed |= ~(settled | (bound < 1e-5 * np.maximum(np.abs(full_sum), 1.0)))
    failed |= ~np.isfinite(rates).all(axis=0)
    if failed.any():
        k = int(np.argmax(failed))
        om = float(omega[k])
        if np.isfinite(rates[:, k]).all():
            why = (f"multipole series did not settle by l={L_MAX_SUPPORTED} at "
                   f"omega={om} (atoms too close to the surface)")
        else:
            why = f"multipole term overflow at omega={om} (resonant order beyond float64 range)"
        raise NonConvergenceError(why, start + k)
    return rates


def collective_rates(params: DrudeLorentzParams, radius: float, r, omega, cos_theta):
    """(Gamma_AA, Gamma_AB)/Gamma_0 of two radial dipoles at radial position
    r outside a sphere of the given radius, at frequency omega, with
    cos(theta) between the dipole directions.  r, omega and cos_theta
    broadcast against each other; both results have the broadcast shape.

    Points are evaluated in blocks sized by their recurrence columns (see
    BLOCK): 32 points of a frequency sweep, 64 of a distance or angle sweep.
    The Bessel, Mie and Legendre recurrences loop over the order l and run
    for every point of a block at once, the Bessel ratios of both kinds in
    one run, every block to the l = 300 cap, and the per-order terms are
    shared by Gamma_AA and Gamma_AB.  A point's rates are the bits of a
    call on that point alone.  Each multipole sum is the partial sum where
    five consecutive term envelopes first fall below 1e-12 of the running
    total.  Close to the surface the scattered part only decays
    geometrically as (R/r)^{2l}; for a sum that has not settled by the cap,
    the remaining tail is bounded geometrically and the full sum accepted
    when the bound is below 1e-5 of it (with a 1 Gamma_0 floor).  Beyond
    that the geometry needs orders that overflow float64 and
    NonConvergenceError is raised, naming the frequency of the first point
    that failed and carrying its flat index as `point`.
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
    kr = 2.0 * math.pi * omega * r
    start = 0
    while start < omega.size:
        block = slice(start, _block_end(omega, kr, start))
        rates[:, block] = _block_rates(
            params, radius, r[block], omega[block], cos_theta[block], start)
        start = block.stop
    return rates[0].reshape(shape), rates[1].reshape(shape)


def _block_end(omega: np.ndarray, kr: np.ndarray, start: int) -> int:
    """The end of the block of collective_rates from point start: the most
    points, up to 2 BLOCK, whose distinct frequencies and (frequency, k r)
    pairs take up to 3 BLOCK columns of the j recurrence (see BLOCK)."""
    window = slice(start, start + 2 * BLOCK)
    freqs, pairs = set(), set()
    for count, point in enumerate(zip(omega[window].tolist(), kr[window].tolist())):
        freqs.add(point[0])
        pairs.add(point)
        if 2 * len(freqs) + len(pairs) > 3 * BLOCK:
            return start + count
    return min(start + 2 * BLOCK, len(omega))


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


def _order_terms(sys: SphereSystem, l, omega: np.ndarray):
    """eps, z1 = k R and z2 = n k R (see _sphere_arguments) and the terms
    eps D_h and D_j of f = eps D_h - D_j (see _reduced_terms) at order l, at
    each frequency of the 1-D array omega, from the single-order ratios
    j_l/j_{l-1} at n k R and h_l/h_{l-1} at k R, both from one run of the
    ratio loop; l is one order, or a 1-D array of orders, one per frequency.

    The first term, and so f and the balance ratio, is NaN at a point where
    k R lies below H1_IM_MIN, where h_l^(1) is not accurate, so that the
    search drops it.  A non-finite term at any other point raises
    OverflowError, naming the order and frequency of the first such point.
    """
    eps, z1, z2 = _sphere_arguments(sys.params, sys.radius, omega)
    r, q = sph_jn_h1n_ratio(l, z2, z1)
    dh, dj = _reduced_terms(eps, z1, q, z2, r, l)
    finite = np.isfinite(q) & np.isfinite(r) & np.isfinite(dh) & np.isfinite(dj)
    finite |= np.imag(z1) < H1_IM_MIN
    if not finite.all():
        k = int(np.argmax(~finite))
        raise OverflowError(
            f"Bessel ratio recurrences overflowed for l={np.broadcast_to(l, omega.shape)[k]} "
            f"at omega={omega[k]}"
        )
    return eps, z1, z2, dh, dj


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


def _reduced_denominator(sys: SphereSystem, l, omega: np.ndarray) -> np.ndarray:
    """f = eps D_h - D_j of order l, one order or one per frequency, at each
    frequency of the 1-D array omega (see _order_terms)."""
    *_, dh, dj = _order_terms(sys, l, omega)
    return dh - dj


def _denominator_balance(sys: SphereSystem, l, omega: np.ndarray) -> np.ndarray:
    """The balance ratio of order l, one order or one per frequency, at each
    frequency of the 1-D array omega (see _order_terms and _balance)."""
    return _balance(*_order_terms(sys, l, omega)[3:])


def _denominator_slope(sys: SphereSystem, l, omega: np.ndarray):
    """f (see _reduced_denominator) and its derivative df/domega in closed
    form, of order l (one order or one per frequency) at each frequency of
    the 1-D array omega, from one call of the ratio recurrences.

    The log-derivative D(z) = [z f_l(z)]'/f_l(z) obeys
    dD/dz = (D - D^2 + l(l+1))/z - z, from the Riccati-Bessel equation
    (DLMF 10.47), so f' = eps' D_h + eps D_h'(z1) z1' - D_j'(z2) z2' with
    eps' = omega_p^2 (2 omega + i gamma)/(1 - omega^2 - i omega gamma)^2,
    z1' = 2 pi R and z2' = n' z1 + n z1' = z2 (eps'/(2 eps) + 1/omega),
    as n' = eps'/(2 n).
    """
    eps, z1, z2, dh, dj = _order_terms(sys, l, omega)
    p = sys.params
    deps = p.omega_p**2 * (2.0 * omega + 1j * p.gamma) / (
        1.0 - omega * omega - 1j * omega * p.gamma) ** 2
    ll = l * (l + 1.0)
    d_h = dh / eps
    slope_h = (d_h - d_h * d_h + ll) / z1 - z1
    slope_j = (dj - dj * dj + ll) / z2 - z2
    dz1 = 2.0 * math.pi * sys.radius
    dz2 = z2 * (0.5 * deps / eps + 1.0 / omega)
    return dh - dj, deps * d_h + eps * slope_h * dz1 - slope_j * dz2


def _newton_root(sys: SphereSystem, l, omega0: np.ndarray) -> np.ndarray:
    """Complex Newton iteration on f (see _order_terms) from the 1-D array
    of real starts omega0, of order l: one order, or one per start.

    The iterates of all starts move together, whatever their orders: each
    step makes one call of the ratio recurrences over the iterates still
    active, which gives f and its closed-form derivative
    (_denominator_slope).  An iterate converges when its step falls below
    1e-12; it is dropped when the derivative vanishes, when it leaves the
    region where h_l^(1) is accurate, or after 50 steps.  Returns an array
    of roots, NaN where a start was dropped.
    """
    om = np.array(omega0, dtype=complex)
    orders = np.broadcast_to(l, om.shape)
    roots = np.full(len(om), np.nan, dtype=complex)
    active = np.arange(len(om))
    for _ in range(50):
        f, slope = _denominator_slope(sys, orders[active], om[active])
        # f is NaN once an iterate leaves the accurate region
        moving = ~np.isnan(f) & (slope != 0)
        active = active[moving]
        if not active.size:
            break
        step = f[moving] / slope[moving]
        om[active] -= step
        done = np.abs(step) < 1e-12
        roots[active[done]] = om[active[done]]
        active = active[~done]
        if not active.size:
            break
    return roots


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_real_minimum(sys: SphereSystem, l, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section minimization of the balance ratio of order l (one
    order, or one per bracket) on each bracket [a_k, b_k], all brackets
    together, whatever their orders: each step probes the still-open
    brackets in one call, and a bracket closes when it is narrower than
    HANDOVER_WIDTH max(1, |a_k|), or after 60 steps; the midpoint is a
    Newton start.  A two-grid-step bracket of GRID_PER_UNIT points per unit
    closes in about 20 steps (about 43 at a width of 1e-12)."""
    a, b = a.copy(), b.copy()
    orders = np.broadcast_to(l, a.shape)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = _denominator_balance(sys, orders, x1)
    f2 = _denominator_balance(sys, orders, x2)
    open_ = np.arange(len(a))
    for _ in range(60):
        left = f1[open_] <= f2[open_]
        # left: the minimum lies in [a, x2], and x1 becomes the new x2
        lo, hi = open_[left], open_[~left]
        b[lo], x2[lo], f2[lo] = x2[lo], x1[lo], f1[lo]
        x1[lo] = b[lo] - _GOLDEN * (b[lo] - a[lo])
        a[hi], x1[hi], f1[hi] = x1[hi], x2[hi], f2[hi]
        x2[hi] = a[hi] + _GOLDEN * (b[hi] - a[hi])
        f = _denominator_balance(sys, orders[open_], np.where(left, x1[open_], x2[open_]))
        f1[lo], f2[hi] = f[left], f[~left]
        a_open = a[open_]
        open_ = open_[~(b[open_] - a_open < HANDOVER_WIDTH * np.maximum(1.0, np.abs(a_open)))]
        if not open_.size:
            break
    return 0.5 * (a + b)


def find_resonances(
    sys: SphereSystem,
    omega_lo: float,
    omega_hi: float,
    l_range,
) -> list[Resonance]:
    """Locate field resonances omega_c - i*delta_omega_c in a frequency window.

    Every evaluation reads order l alone, through the log-derivative form
    f = eps D_h - D_j of the TM Mie denominator (see _order_terms), built
    from the Bessel ratios j_l/j_{l-1} and h_l/h_{l-1}: nothing overflows,
    so the orders have no cap.  The balance ratio of the two terms is
    sampled on a real grid (GRID_PER_UNIT points per unit omega_T, at least
    64 across the window) for every order in one call, one column per
    (order, grid point) pair, up to _GRID_PAIRS pairs per call.  The
    interior local minima of every order are then refined in one stream:
    a golden-section search on the same ratio down to HANDOVER_WIDTH, then
    a complex Newton iteration on f with its closed-form derivative, each
    step a call over the candidates of all orders, one column of the ratio
    recurrences per candidate, read out at its own order (a few candidates
    run the scalar loop each).  Converged roots are kept when they fall
    inside the window, have positive width and suppress f by at least 1e-8
    relative to its off-resonance value at omega_c + 3*delta_omega_c (one
    call each for all candidates); roots of one order closer than 10
    widths count once.  A candidate's value never depends on the other
    candidates of its call, so the roots are exactly those of each order
    searched alone.
    """
    if not (0 < omega_lo < omega_hi):
        raise ValueError("need 0 < omega_lo < omega_hi")
    ls = np.fromiter(l_range, dtype=int)
    if np.any(ls < 1):
        raise ValueError(f"l={ls[ls < 1][0]} must be >= 1")
    npts = max(64, int(GRID_PER_UNIT * (omega_hi - omega_lo))) + 1
    grid = np.linspace(omega_lo, omega_hi, npts)
    vals = np.empty((len(ls), npts))
    per_call = max(1, _GRID_PAIRS // npts)
    for k in range(0, len(ls), per_call):
        chunk = ls[k : k + per_call]
        vals[k : k + per_call] = _denominator_balance(
            sys, np.repeat(chunk, npts), np.tile(grid, len(chunk))).reshape(len(chunk), npts)
    mid = vals[:, 1:-1]
    row, minima = np.nonzero((mid < vals[:, :-2]) & (mid < vals[:, 2:]) & (mid < 0.5))
    if not minima.size:
        return []
    # every candidate of every order in one refinement stream
    orders, minima = ls[row], minima + 1
    starts = _refine_real_minimum(sys, orders, grid[minima - 1], grid[minima + 1])
    roots = _newton_root(sys, orders, starts)
    wc, dwc = roots.real, -roots.imag
    # dropped candidates are NaN and fail every comparison
    ok = (omega_lo <= wc) & (wc <= omega_hi) & (dwc > 0)
    roots, orders = roots[ok], orders[ok]
    if roots.size:
        ref = np.abs(_reduced_denominator(sys, orders, wc[ok] + 3.0 * dwc[ok]))
        suppressed = np.abs(_reduced_denominator(sys, orders, roots)) < 1e-8 * ref
        roots, orders = roots[suppressed], orders[suppressed]
    found: list[Resonance] = []
    unique: dict[int, list[complex]] = {}
    for root, l in zip(roots.tolist(), orders.tolist()):
        wc, dwc = root.real, -root.imag
        # one order's roots closer than 10 widths are one root
        kept = unique.setdefault(l, [])
        if any(abs(root - r) < 10.0 * max(dwc, 1e-12) for r in kept):
            continue
        kept.append(root)
        found.append(Resonance(omega_c=wc, delta_omega_c=dwc, l=l,
                               kind=resonance_kind(wc, sys.params)))
    found.sort(key=lambda r: (r.omega_c, r.l))
    return found
