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
    sph_jn_h1n_ratio_rows,
    sph_jn_h1n_ratios,
)

# Highest multipole order of the rate sum, the cap to which a sum that has
# not settled runs: enough for size parameters up to ~kR = 66 plus the
# evanescent tail.  B_l is subnormal near this order.
L_MAX_SUPPORTED = 300

# adaptive series truncation: stop after this many consecutive negligible terms
_TAIL_RUN = 5
_TAIL_RTOL = 1e-12
# orders per window of the geometric tail bound at the l = L_MAX_SUPPORTED cap
_TAIL_WIDTH = 12
# the order to which a rate block sums every point first when one of them
# has an image bound at or below it (_image_bounds, _block_rates).  On the
# 150-point figure5 sweep at omega = 1.0501, 103 points have bounds within
# it and 113 settle by it, 93 by l = 128 and 117 by l = 160; the block
# takes 2.8-2.9 ms at stages from 128 to 160 and 3.1 ms in one pass (min of
# 40 interleaved rounds, 2-core Xeon VM)
_STAGE = L_MAX_SUPPORTED // 2

# points of a frequency sweep that collective_rates evaluates together.  A
# block takes sweep points while they need at most 3 BLOCK columns of the j
# recurrence (k R and n k R per distinct frequency, k r per distinct
# (frequency, k r) pair) and are at most 2 BLOCK points: 75 points of a
# frequency sweep, 150 of a delta_r or theta sweep.  Each block pays one run
# of the ratio loop to the l = 300 cap, about 380 steps at a fixed
# numpy-call cost of about 0.9 us each plus about 5 ns per column (2-core
# Xeon VM), so the fewer blocks the better; 75 is the least BLOCK that takes
# the 150-point distance presets in one block, and an 801-point frequency
# sweep takes 11.  The terms and sums run to the cap too, except in a block
# with far points (_STAGE), whose settled points stop at the stage.  The
# block's ratio array, 300 orders x up to 375 columns of complex values, is
# 1.8 MB (1.45 MB for 150 distances), and a block call peaks at 2.8 MB
# (distance) to 3.6 MB (frequency) under tracemalloc; the array grows with
# the order cap, so blocks need re-sizing if L_MAX_SUPPORTED grows.
# A point's value does not depend on its block: no column reads another.
BLOCK = 75

# real-frequency grid intervals per unit omega_T of the resonance search
GRID_PER_UNIT = 2000
# (order, grid point) pairs per grid call of the resonance search, counted
# over every order from a call's least to its highest: a call peaks at
# about 200 B per pair under tracemalloc (the shared ratio rows and the
# pairs' terms; 500-600 B when each pair took its own columns, at 2**14
# pairs), so it stays near 6.5 MB, and a search of up to 81 orders on 400
# grid points, or l 1-259 on a 0.01-wide window, makes one call
_GRID_PAIRS = 2**15
# lattice spacing of the resonance search's Newton restart: every root
# found by a first Newton pass restarts once from the nearest multiple of
# this width, so that its bits do not depend on the window's grid or on
# the first pass's start
HANDOVER_WIDTH = 1e-7
# relative bracket width at which the resonance search's golden section
# hands a candidate below omega_T or above omega_L, where f has poles near
# the real axis, to Newton.  Measured on 574 searches (the resonance_scan
# job lists of seeds 0-10, passes 0-3, the demo window and l 60-200 over
# 1.04-1.06): the root sets stay identical at 1e-5 and first differ at
# 1e-4, and the narrowest width found is delta_omega_c = 3.6e-7
_GOLDEN_WIDTH = 1e-5


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


def refractive_index(eps):
    """Principal sqrt of the permittivity eps with Im >= 0 (decaying field
    inside the absorbing medium), elementwise: an array of eps's shape."""
    n = np.sqrt(eps)
    return np.where(n.imag < 0, -n, n)


def size_parameter(omega: complex, length: float) -> complex:
    """k * length = 2 pi * omega * length in the normalized units."""
    return 2.0 * math.pi * omega * length


def _sphere_arguments(params: DrudeLorentzParams, radius: float, omega):
    """eps, z1 = k R and z2 = n k R at each frequency of omega: the Mie
    terms' arguments, with n = refractive_index(eps) of the one eps."""
    eps, z1 = permittivity(params, omega), size_parameter(omega, radius)
    return eps, z1, refractive_index(eps) * z1


def _log_derivative(z, ratio, l):
    """The log-derivative D(z) = [z f_l(z)]'/f_l(z) = z f_{l-1}(z)/f_l(z) - l
    from ratio = f_l/f_{l-1}; l is an order or a column of orders.

    With D_h of h_l^(1) at z1 = k R and D_j of j_l at z2 = n k R, eps D_h(z1)
    and D_j(z2) are the two terms of the TM Mie denominator
    eps j_l(z2) [z1 h_l(z1)]' - h_l(z1) [z2 j_l(z2)]' divided by
    j_l(z2) h_l(z1), and their difference f = eps D_h - D_j has its zeros;
    eps D_j(z1) and D_j(z2) are those of the numerator divided by
    j_l(z2) j_l(z1).  The ratios stay bounded where j_l(z2) or h_l(z1) leave
    float64.  Callers scale by eps out of place, under their own errstate:
    numpy's in-place complex multiply takes another loop for a one-element
    array, and a point's terms would depend on how many points share its
    call.
    """
    return z / ratio - l


def _mie_arrays(params: DrudeLorentzParams, radius: float, lmax: int, omega, kr):
    """Numerator and denominator of the TM scattering coefficient
    B_l = -num/den for l = 1..lmax (rows) at each frequency of the 1-D array
    omega (complex allowed), and the j_l and h_l^(1) rows at each k r of kr,
    from one sph_jn_h1n_ratios run for both kinds, j on
    concat(k R, n k R, kr) and h on concat(k R, kr).
    num = j_l(k R) (eps D_j(k R) - D_j(n k R)) and den = h_l(k R) f, the
    Mie terms divided by j_l(n k R) (_log_derivative).

    Only the ratios of j_l(n k R) are formed, and D_j at k R and at n k R
    come from the same code: a vacuum sphere gives num = 0 exactly.
    D_j(n k R) is formed once for both.  B_l is one quotient: near l = 300
    it is subnormal, and j_l/h_l formed first would round it differently.
    """
    eps, z1, z2 = _sphere_arguments(params, radius, omega)
    m = len(z1)
    rj, rh = sph_jn_h1n_ratios(lmax, np.concatenate([z1, z2, kr]), np.concatenate([z1, kr]))
    rj1, rj2, q1 = rj[:, :m], rj[1:, m : 2 * m], rh[:, :m]
    ls = np.arange(1, lmax + 1)[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dj = _log_derivative(z2, rj2, ls)
        num = _log_derivative(z1, rj1[1:], ls) * eps - dj
        den = _log_derivative(z1, q1[1:], ls) * eps - dj
        # j_l and h_l at k R are the running products of their ratio rows
        num *= np.cumprod(rj1, axis=0)[1:]
        den *= np.cumprod(q1, axis=0)[1:]
    return num, den, rj[:, 2 * m :], rh[:, m:]


def _rate_orders(params: DrudeLorentzParams, radius: float, kr: np.ndarray,
                 omega: np.ndarray, lmax: int, stage: int | None = None):
    """Per-order contributions to Gamma_AA/Gamma_0 (rows) at the points of
    a block (columns), a frequency of omega and a k r of kr each, from a
    generator of stages.  With a stage it yields the terms of l = 1..stage
    at every point, then those of stage+1..lmax at the points (an index
    array) that it is sent; without one, the terms of l = 1..lmax in one
    stage.  Order 0 carries no weight and is not summed.  The stage that
    reaches lmax also yields a Legendre-free magnitude envelope of its last
    2 _TAIL_WIDTH orders, all that _tail_bound reads (None before).

    The cross rate Gamma_AB differs only by the factor P_l(cos theta), and
    the single-atom rate has P_l(1) = 1.  |terms| = weight * |Re h(j + Bh)|
    bounds each cross-rate term (|P_l| <= 1) but beats through zero as the
    scattered phase rotates; env_mag = weight * (j^2 + |B h| |h|) is
    monotone in the tail and supplies a clean geometric decay rate.
    |B h^2| is assembled as |B h| * |h| to stay clear of h^2 overflow.

    One ratio run serves every stage: the Mie arrays are built per distinct
    frequency, the terms and the Bessel rows at k r per distinct
    (frequency, k r) pair, the pairs of one complex key omega + i k r in
    lexicographic order, so a theta sweep builds one column of each and a
    delta_r sweep one Mie column.  The rows of j_l(k r) and h_l(k r) are the
    running products of the ratio rows, formed in the array the ratio loop
    wrote: the first stage leaves its last products there, and a later one
    takes them from there with its own rows, in the same order of
    operations, so that a point's terms keep the bits of one stage.  The
    stage that reaches lmax lets that array go before the terms are
    weighted.
    """
    key, at_point = np.unique(omega + 1j * kr, return_inverse=True)
    freqs, at_freq = np.unique(key.real, return_inverse=True)
    kr = key.imag
    num, den, rj, rh = _mie_arrays(params, radius, lmax, freqs, kr)
    # B_l = -num/den, and 0 where the denominator is 0 or NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        bl = np.divide(np.negative(num, out=num), den, out=np.zeros_like(den),
                       where=np.abs(den) > 0)
    del num, den
    lo, pairs, at = 0, slice(None), at_point
    for hi in (lmax,) if stage is None else (stage, lmax):
        jr = rj[lo : hi + 1, pairs]
        hr = rh[lo : hi + 1, pairs]
        # in place: the first stage, on a slice of every pair, leaves its
        # products in rj and rh, and the next gathers a copy from row lo.
        # A float64 product: Re h_l is off j_l by 8.65e-12 at l = 90, z = 80
        # (4.4e-15 when formed in 80-bit long double)
        jr = np.cumprod(jr, axis=0, out=jr)[1:]
        hr = np.cumprod(hr, axis=0, out=hr)[1:]
        scattered = np.take(bl[lo:hi], at_freq[pairs], axis=1)
        scattered *= hr
        env_mag, tail = None, slice(-2 * _TAIL_WIDTH, None)
        if hi == lmax:
            env_mag = np.abs(scattered[tail])
            env_mag *= np.abs(hr[tail])
            env_mag += np.abs(jr[tail]) ** 2
            del rj, rh, bl
        # h (j + B h), the scattered part already holding B h
        scattered += jr
        scattered *= hr
        del jr, hr
        ls = np.arange(lo + 1, hi + 1, dtype=float)[:, None]
        weight = 1.5 * ls * (ls + 1.0) * (2.0 * ls + 1.0) / kr[pairs] ** 2
        terms = weight * scattered.real
        del scattered
        if env_mag is not None:
            env_mag *= weight[tail]
            env_mag = env_mag[:, at]
        del weight
        terms = terms[:, at]
        points = yield terms, env_mag
        lo = hi
        pairs, at = np.unique(at_point[points], return_inverse=True)


def _image_bounds(radius: float, kr: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Per point: the order ln(1/_TAIL_RTOL) / (2 ln(r/R)), rounded up, past
    which the quasi-static image term of the scattered part, (R/r)^{2l}
    (Ruppin 1982), falls below _TAIL_RTOL, or the turning point k r where
    that lies higher, as the terms decay so only beyond it.  On the demo
    sphere the image order is 2771 at delta_r = 0.05, 314 at 0.45, 140 at
    1.04 and 53 at 3.0, where k r = 85.8 at omega = 1.0501."""
    with np.errstate(divide="ignore"):
        image = math.log(1.0 / _TAIL_RTOL) / (2.0 * np.log(kr / size_parameter(omega, radius)))
    return np.maximum(np.ceil(image), kr)


def _five_term_sums(terms: np.ndarray, env: np.ndarray, carry=None):
    """Per column: the partial sum at the order where _TAIL_RUN consecutive
    envelopes first fall below _TAIL_RTOL of the running total (with a
    Gamma_0 floor), whether that happened, and the carry of a call on the
    orders after these: the sum of every term and the flags of the last
    _TAIL_RUN - 1 orders whose envelopes fell below it.

    Given a carry, the sum goes on from its total, with np.cumsum in the
    same order of operations, and the runs from its flags, so that a sum
    that had not settled gives the bits of one call on all its orders."""
    if carry is None:
        total = np.cumsum(terms, axis=0)
    else:
        total = np.cumsum(np.concatenate([carry[0][None], terms]), axis=0)[1:]
    small = env < _TAIL_RTOL * (np.abs(total) + 1.0)
    if carry is not None:
        small = np.concatenate([carry[1], small])
    count = len(small) - _TAIL_RUN + 1
    run = small[:count].copy()
    for k in range(1, _TAIL_RUN):
        run &= small[k : k + count]
    columns = np.arange(terms.shape[1])
    first = np.argmax(run, axis=0)
    ends = first + _TAIL_RUN - 1 - (len(small) - len(total))
    return (total[ends, columns], run[first, columns],
            (total[-1].copy(), small[1 - _TAIL_RUN :].copy()))


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


def _block_rates(params: DrudeLorentzParams, radius: float, kr: np.ndarray,
                 omega: np.ndarray, legendre: np.ndarray, start: int):
    """collective_rates for one block of points, given their k r, from one
    ratio run to the L_MAX_SUPPORTED cap.  legendre holds P_l(cos theta) of
    each point from l = 1, a column-major copy of the block's own in which
    the cross-rate terms are formed, so that the sums over l run along
    memory.

    Each sum takes the five-term rule where it settles; a column that does
    not settle takes its full sum when the tail bound beyond the cap allows.
    A block with a point whose image bound (_image_bounds) lies at or below
    _STAGE sums every point to _STAGE first: a point whose two sums settle
    there is done, and the others go on to the cap from their carried
    products, sums and runs, with the bits of one pass to the cap; a sum
    that settled at the stage keeps that value.  Any other block makes the
    one pass.  NonConvergenceError names the first failing column, start +
    its index in the block, as its point."""
    n = len(omega)
    with np.errstate(invalid="ignore", over="ignore"):
        far = (_image_bounds(radius, kr, omega) <= _STAGE).any()
        stages = _rate_orders(params, radius, kr, omega, L_MAX_SUPPORTED, _STAGE if far else None)
        rates = np.zeros((2, n))
        settled = np.zeros((2, n), dtype=bool)
        failed = np.zeros(n, dtype=bool)
        lo, points, carry = 0, slice(None), [None, None]
        terms, env_mag = next(stages)
        while True:
            hi = lo + len(terms)
            # the cross-rate terms, P_l(cos theta) times the terms, in place
            cross = legendre[lo:hi, points]
            cross *= terms
            env_re = np.abs(terms)
            last = env_mag is not None
            if last:
                bound = _tail_bound(env_re, env_mag)
            for which, series in enumerate((terms, cross)):
                settled_sum, ok, carry[which] = _five_term_sums(series, env_re, carry[which])
                full_sum = carry[which][0]
                rates[which, points] = np.where(settled[which, points], rates[which, points],
                                                np.where(ok, settled_sum, full_sum))
                settled[which, points] |= ok
                if last:
                    # 1e-5 Gamma_0 absolute floor, far below any resolvable
                    # feature of the near-surface sweeps this cap serves
                    failed[points] |= ~(settled[which, points]
                                        | (bound < 1e-5 * np.maximum(np.abs(full_sum), 1.0)))
            # the points of the stage whose sums have not both settled go on
            going = ~settled.all(axis=0)
            if last or not going.any():
                break
            lo, points = hi, np.flatnonzero(going)
            carry = [(full_sum[going], flags[:, going]) for full_sum, flags in carry]
            terms, env_mag = stages.send(points)
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
    Gamma_AA is the single-atom rate, and Gamma_pm = Gamma_AA +/- Gamma_AB.

    Points are evaluated in blocks sized by their recurrence columns (see
    BLOCK): 75 points of a frequency sweep, 150 of a distance or angle sweep.
    k r is formed once per point, for the blocks' sizes and their terms.
    The Bessel, Mie and Legendre recurrences loop over the order l and run
    for every point of a block at once, the Bessel ratios of both kinds in
    one run to the l = 300 cap, and the per-order terms are shared by
    Gamma_AA and Gamma_AB.  A block sums its points to the cap in one pass,
    unless a point lies far enough out that its image term (R/r)^{2l} falls
    below 1e-12 by l = 150 (and k r <= 150): then every point is summed to
    l = 150 first, and only the points whose sums have not settled there go
    on to the cap (see _block_rates).  A point's rates are the bits of a
    call on that point alone, whichever way its block ran.  Each multipole
    sum is the partial sum where five consecutive term envelopes first fall
    below 1e-12 of the running total.  Close to the surface the scattered
    part only decays geometrically as (R/r)^{2l}; for a sum that has not
    settled by the cap, the remaining tail is bounded geometrically and the
    full sum accepted when the bound is below 1e-5 of it (with a 1 Gamma_0
    floor).  Beyond that the geometry needs orders that overflow float64
    and NonConvergenceError is raised, naming the frequency of the first
    point that failed and carrying its flat index as `point`.
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
    kr = size_parameter(omega, r)
    start, cosines = 0, None
    while start < omega.size:
        block = slice(start, _block_end(omega, kr, start))
        # P_l of the block's distinct cosines, kept while the next block has
        # the same ones (every block of an omega or r sweep); the fancy index
        # gives each block a column-major copy
        distinct, at_cos = np.unique(cos_theta[block], return_inverse=True)
        if not np.array_equal(distinct, cosines):
            cosines, rows = distinct, legendre_all(L_MAX_SUPPORTED, distinct)[1:]
        rates[:, block] = _block_rates(
            params, radius, kr[block], omega[block], rows[:, at_cos], start)
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


def _order_terms(sys: SphereSystem, l, omega: np.ndarray, ratios=None):
    """eps, z1 = k R and z2 = n k R (see _sphere_arguments) and the terms
    eps D_h and D_j of f = eps D_h - D_j (see _log_derivative) at order l, at
    each frequency of the 1-D array omega, from the single-order ratios
    j_l/j_{l-1} at n k R and h_l/h_{l-1} at k R, both from one run of the
    ratio loop, or from ratios = (j ratios, h ratios) when given (the
    search grid's rows); l is one order, or a 1-D array of orders, one per
    frequency.

    The first term, and so f and the balance ratio, is NaN at a point where
    k R lies below H1_IM_MIN, where h_l^(1) is not accurate, so that the
    search drops it.  A non-finite term at any other point raises
    OverflowError, naming the order and frequency of the first such point.
    """
    eps, z1, z2 = _sphere_arguments(sys.params, sys.radius, omega)
    r, q = sph_jn_h1n_ratio(l, z2, z1) if ratios is None else ratios
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dh, dj = _log_derivative(z1, q, l) * eps, _log_derivative(z2, r, l)
    finite = np.isfinite(q) & np.isfinite(r) & np.isfinite(dh) & np.isfinite(dj)
    finite |= np.imag(z1) < H1_IM_MIN
    if not finite.all():
        k = int(np.argmax(~finite))
        raise OverflowError(
            f"Bessel ratio recurrences overflowed for l={np.broadcast_to(l, omega.shape)[k]} "
            f"at omega={omega[k]}"
        )
    return eps, z1, z2, dh, dj


def _denominator_balance(sys: SphereSystem, l, omega: np.ndarray, ratios=None) -> np.ndarray:
    """|t1 - t2| / (|t1| + |t2|) of the terms t1 = eps D_h and t2 = D_j of f,
    and 1 where both vanish, of order l, one order or one per frequency, at
    each frequency of the 1-D array omega (see _order_terms, which takes
    ratios).

    The denominator rides an exponential envelope in omega (through j_l(z2)
    inside the gap), and f has poles at the zeros of j_l(z2); the
    normalized cancellation ratio is the same for both, O(1) away from a
    resonance and dipping sharply at one, which makes it the right quantity
    to bracket on a real-frequency grid.
    """
    *_, t1, t2 = _order_terms(sys, l, omega, ratios)
    denom = np.abs(t1) + np.abs(t2)
    with np.errstate(invalid="ignore"):
        return np.where(denom == 0.0, 1.0, np.abs(t1 - t2) / denom)


def _grid_balance(sys: SphereSystem, ls: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The balance ratio of each order of ls at each frequency of grid, one
    row per order, with the bits of _denominator_balance(sys, l, grid) for
    each order l: the ratios of every order from min(ls) to max(ls) come
    from one sph_jn_h1n_ratio_rows call, with one or two columns of each
    kind per grid frequency, and the balance of the (order, frequency)
    pairs, order by order, from one _denominator_balance call on them, so
    that an overflow names the first failing pair."""
    _, z1, z2 = _sphere_arguments(sys.params, sys.radius, grid)
    lo = int(ls.min())
    rj, rh = sph_jn_h1n_ratio_rows(lo, int(ls.max()), z2, z1)
    rows = ls - lo
    return _denominator_balance(sys, np.repeat(ls, len(grid)), np.tile(grid, len(ls)),
                                (rj[rows].ravel(), rh[rows].ravel())).reshape(len(ls), len(grid))


def _denominator_slope(sys: SphereSystem, l, omega: np.ndarray):
    """f = eps D_h - D_j (see _order_terms) and its derivative df/domega in
    closed form, of order l (one order or one per frequency) at each
    frequency of the 1-D array omega, from one call of the ratio recurrences.

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


def _newton_root(sys: SphereSystem, l, omega0: np.ndarray, tol=1e-12) -> np.ndarray:
    """Complex Newton iteration on f (see _order_terms) from the 1-D array
    of real starts omega0, of order l: one order, or one per start.

    The iterates of all starts move together, whatever their orders: each
    step makes one call of the ratio recurrences over the iterates still
    active, which gives f and its closed-form derivative
    (_denominator_slope).  An iterate converges when its step falls below
    tol; it is dropped when the derivative vanishes, when it leaves the
    region where h_l^(1) is accurate, or after 50 steps.  Returns an array
    of roots, NaN where a start was dropped.

    A printed root takes tol = 1e-12.  A candidate's first pass only picks
    the HANDOVER_WIDTH lattice point from which it restarts
    (find_resonances), and stops at 1e-3 HANDOVER_WIDTH: the steps there
    fall about quadratically, with a constant of 20-25 per unit omega
    (1e-4, 2e-7, 1e-12), so the iterate is then within rounding of the
    root, and the step to 1e-12 is not taken.
    """
    om = np.array(omega0, dtype=complex)
    orders = np.broadcast_to(l, om.shape)
    roots = np.full(len(om), np.nan, dtype=complex)
    active = np.arange(len(om))
    for _ in range(50):
        if not active.size:
            break
        f, slope = _denominator_slope(sys, orders[active], om[active])
        # f is NaN once an iterate leaves the accurate region
        moving = ~np.isnan(f) & (slope != 0)
        active = active[moving]
        step = f[moving] / slope[moving]
        om[active] -= step
        done = np.abs(step) < tol
        roots[active[done]] = om[active[done]]
        active = active[~done]
    return roots


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _refine_real_minimum(sys: SphereSystem, l, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section minimization of the balance ratio of order l (one
    order, or one per bracket) on each bracket [a_k, b_k], all brackets
    together, whatever their orders: each step probes the still-open
    brackets in one call, and a bracket closes when it is narrower than
    _GOLDEN_WIDTH max(1, |a_k|), or after 60 steps; the midpoint is a
    Newton start.  A two-grid-step bracket of GRID_PER_UNIT points per unit
    closes in about 10 steps (about 20 at HANDOVER_WIDTH).

    find_resonances takes it only below omega_T and above omega_L: there
    n k R is nearly real and f has a pole at each zero of j_l(n k R) close
    to the real axis, and Newton from the grid point can end on another
    root (over 0.90-0.995, 12 of the 100 roots of l 63-66 move).  Inside
    the band gap n k R is nearly imaginary, f has no such poles, and Newton
    starts from the grid point.  The bracket only has to lead Newton to
    the right root: the root's bits come from its restart on the
    HANDOVER_WIDTH lattice, not from this start."""
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
        open_ = open_[~(b[open_] - a_open < _GOLDEN_WIDTH * np.maximum(1.0, np.abs(a_open)))]
        if not open_.size:
            break
    return 0.5 * (a + b)


def _search_grid(omega_lo: float, omega_hi: float) -> np.ndarray:
    """find_resonances' real grid: GRID_PER_UNIT intervals per unit omega_T,
    at least 64, a count within 1e-9 below an integer taken as that integer."""
    intervals = max(64, int(GRID_PER_UNIT * (omega_hi - omega_lo) + 1e-9))
    return np.linspace(omega_lo, omega_hi, intervals + 1)


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
    sampled on a real grid (_search_grid) for every order in one call
    (_grid_balance), whose ratios come from one j and one h column per grid
    point run through all its orders, split in two where a one-order call
    would change column, with the bits of one call per order; a call spans
    _GRID_PAIRS (order, grid point) pairs at most.  The interior local
    minima of every order are then refined in one stream by
    a complex Newton iteration on f with its closed-form derivative, each
    step a call over the candidates of all orders, one column of the ratio
    recurrences per candidate, read out at its own order (a few candidates
    run the scalar loop each).  A candidate inside the band gap (1, omega_L)
    starts from its grid point: there n k R is nearly imaginary and f has
    no poles near the real axis (the SG rule of resonance_kind).  A
    candidate below omega_T or above omega_L, where f has a pole at each
    zero of j_l(n k R) near the real axis, starts from a golden-section
    search on the balance ratio down to _GOLDEN_WIDTH
    (_refine_real_minimum), one stream for all of them.  Every candidate
    then takes the same two Newton passes: the first stops at a step of
    1e-3 HANDOVER_WIDTH (see _newton_root), and its root restarts once from
    the nearest multiple of HANDOVER_WIDTH, so that the root's bits depend
    neither on the window's grid nor on the golden section's start.
    Converged roots are kept when they fall
    inside the window, have positive width and suppress f by at least 1e-8
    relative to its off-resonance value at omega_c + 3*delta_omega_c (f
    from the terms of _order_terms, one call for both frequencies of all
    candidates);
    roots of one order closer than 10 widths count once.  A candidate's
    value never depends on the other candidates of its call, so the roots
    are exactly those of each order searched alone.
    """
    if not (0 < omega_lo < omega_hi):
        raise ValueError("need 0 < omega_lo < omega_hi")
    ls = np.fromiter(l_range, dtype=int)
    if np.any(ls < 1):
        raise ValueError(f"l={ls[ls < 1][0]} must be >= 1")
    if not ls.size:
        return []
    grid = _search_grid(omega_lo, omega_hi)
    vals = np.empty((len(ls), len(grid)))
    # a grid call takes the next orders while they span at most per_call rows
    per_call, begin, least, most = max(1, _GRID_PAIRS // len(grid)), 0, ls[0], ls[0]
    for end, l in enumerate(ls.tolist()):
        least, most = min(least, l), max(most, l)
        if most - least >= per_call:
            vals[begin:end] = _grid_balance(sys, ls[begin:end], grid)
            begin, least, most = end, l, l
    vals[begin:] = _grid_balance(sys, ls[begin:], grid)
    mid = vals[:, 1:-1]
    row, minima = np.nonzero((mid < vals[:, :-2]) & (mid < vals[:, 2:]) & (mid < 0.5))
    if not minima.size:
        return []
    # every candidate of every order in one refinement stream
    orders, minima = ls[row], minima + 1
    a, b = grid[minima - 1], grid[minima + 1]
    starts = 0.5 * (a + b)
    poles = ~((1.0 < starts) & (starts < sys.params.omega_l))
    if poles.any():
        starts[poles] = _refine_real_minimum(sys, orders[poles], a[poles], b[poles])
    roots = _newton_root(sys, orders, starts, 1e-3 * HANDOVER_WIDTH)
    converged = ~np.isnan(roots)
    roots[converged] = _newton_root(
        sys, orders[converged], np.round(roots[converged].real / HANDOVER_WIDTH) * HANDOVER_WIDTH)
    wc, dwc = roots.real, -roots.imag
    # dropped candidates are NaN and fail every comparison
    ok = (omega_lo <= wc) & (wc <= omega_hi) & (dwc > 0)
    roots, orders = roots[ok], orders[ok]
    if roots.size:
        # f off resonance, at omega_c + 3 delta_omega_c, and at the root, in
        # one call
        f = np.abs(np.subtract(*_order_terms(
            sys, np.concatenate([orders, orders]),
            np.concatenate([wc[ok] + 3.0 * dwc[ok], roots]))[3:]))
        ref, at_root = f[: roots.size], f[roots.size :]
        suppressed = at_root < 1e-8 * ref
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
