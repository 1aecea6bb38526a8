"""Spherical Bessel/Hankel functions of complex argument and Legendre polynomials.

Everything here is recurrence based and table free.  j_l is generated by
downward (Miller) recurrence, which is stable because j is the minimal
solution as l grows; h_l^(1) is generated upward, where it is the dominant
solution.  Riccati derivatives [z f_l(z)]' are obtained from the standard
derivative recurrence so Mie coefficients never need explicit f_l'.

`sph_jn_all`, `sph_h1n_all`, `riccati_deriv_all` and `legendre_all` also
take a 1-D array of arguments and return an (lmax + 1, N) array, one column
per argument: the recurrences still loop over l, and numpy does each step
for all columns at once.  A scalar argument keeps the scalar loop, which is
faster for a single point.

`sph_jn_ratio` and `sph_h1n_ratio` give the single-order ratios
j_l/j_{l-1} and h_l/h_{l-1} by the same two recurrences, carried as ratios:
bounded numbers where j_l and h_l themselves leave float64 (h_l overflows
near l = 300 at k R ~ 12, j_l(z) for |Im z| beyond ~700).  The resonance
search needs nothing else.  They take a scalar or a 1-D array of arguments
and return one ratio per argument; a scalar or one-element array takes the
scalar loop.
"""

from __future__ import annotations

import numpy as np

# Highest multipole order the microsphere layer sums to.  Enough for size
# parameters up to ~kR = 66 of the microsphere geometry plus evanescent tail.
L_MAX_SUPPORTED = 300

_RESCALE = 1e250

# Below the real axis the upward recurrence for h_l^(1) loses about
# eps * e^(2 |Im z|) of relative accuracy (against mpmath: 5e-12 at
# Im z = -5, 1e-7 at -10, O(1) at -20), so it refuses Im z below this.
H1_IM_MIN = -5.0

# rows of (2n + 1)/z that the column ratio loops build per numpy call
_ODD_ROWS = 32


class RecurrenceDomainError(ValueError):
    """Argument outside the region where a recurrence keeps its accuracy."""


def _is_array(x) -> bool:
    """True for a 1-D array of arguments, which takes the column path;
    scalars and 0-d arrays keep the scalar loop."""
    return isinstance(x, np.ndarray) and x.ndim > 0


def _miller_start(lmax: int, size):
    # start far enough above max(l, |z|) that seed contamination by the
    # dominant solution decays below ~1e-12 by the time we reach lmax
    return max(lmax, int(size)) + 60 + int(2.0 * size**0.5)


def sph_jn_all(lmax: int, z) -> np.ndarray:
    """j_l(z) for l = 0..lmax, complex z, by downward recurrence.

    The raw downward pass is normalized against whichever of j_0, j_1 has
    the larger magnitude; the two have no common zeros, so the scale is
    always well conditioned (normalizing at j_0 alone fails near sin z = 0).
    For a 1-D array z the result has one column per argument.
    """
    if _is_array(z):
        return _sph_jn_columns(lmax, np.asarray(z, dtype=complex))
    z = complex(z)
    if z == 0:
        out = np.zeros(lmax + 1, dtype=complex)
        out[0] = 1.0
        return out
    nstart = _miller_start(lmax, abs(z))
    raw = np.zeros(nstart + 1, dtype=complex)
    jp = 0.0 + 0.0j
    j = 1e-30 + 0.0j
    raw[nstart] = j
    for n in range(nstart, 0, -1):
        jm = (2 * n + 1) / z * j - jp
        jp = j
        j = jm
        raw[n - 1] = j
        if abs(j.real) > _RESCALE or abs(j.imag) > _RESCALE:
            raw[n - 1:] /= _RESCALE
            j /= _RESCALE
            jp /= _RESCALE
    j0 = np.sin(z) / z
    j1 = np.sin(z) / z**2 - np.cos(z) / z
    if abs(j0) >= abs(j1):
        raw *= j0 / raw[0]
    else:
        raw *= j1 / raw[1]
    out = raw[: lmax + 1]
    if not np.all(np.isfinite(out.view(float))):
        raise OverflowError(f"spherical j recurrence overflowed for lmax={lmax}, z={z}")
    return out


def _sph_jn_columns(lmax: int, z: np.ndarray) -> np.ndarray:
    """sph_jn_all for a 1-D array z: each column starts at its own order
    and is normalized as the scalar loop would do it."""
    zero = z == 0
    z = np.where(zero, 1.0, z)
    starts = [_miller_start(lmax, size) for size in np.abs(z).tolist()]
    top = max(starts)
    # raw[n] holds j_n up to a per-column scale; the row above the top is
    # the zero that the first step reads as j_{n+1}
    raw = np.zeros((top + 2, len(z)), dtype=complex)
    factor = np.empty_like(z)
    seeds = {}
    for column, n in enumerate(starts):
        seeds.setdefault(n, []).append(column)
    # a step multiplies the largest |raw| by at most 1 + |factor|: look for
    # entries to rescale only when 50 decades of growth may have built up
    # since the last look, instead of at every step as the scalar loop does
    steps = np.log10(1.0 + np.arange(1, 2 * top + 2, 2.0) / np.abs(z).min())
    grown = 0.0
    for n in range(top, 0, -1):
        seeded = seeds.get(n)
        if seeded is not None:
            raw[n, seeded] = 1e-30
        if grown + steps[n] > 50.0:
            grown = 0.0
            state = np.abs(raw[n : n + 2].view(float)).max(axis=0)
            big = (state > _RESCALE).reshape(-1, 2).any(axis=1)
            np.divide(raw[n:], np.where(big, _RESCALE, 1.0), out=raw[n:])
        grown += steps[n]
        row = raw[n - 1]
        np.divide(2 * n + 1, z, out=factor)
        np.multiply(factor, raw[n], out=row)
        row -= raw[n + 1]
    sin, cos = np.sin(z), np.cos(z)
    j0 = sin / z
    j1 = sin / z**2 - cos / z
    use_j0 = np.abs(j0) >= np.abs(j1)
    raw *= np.where(use_j0, j0, j1) / np.where(use_j0, raw[0], raw[1])
    out = raw[: lmax + 1]
    out[:, zero] = 0.0
    out[0, zero] = 1.0
    return out


def sph_h1n_all(lmax: int, z) -> np.ndarray:
    """h_l^(1)(z) for l = 0..lmax by upward recurrence from the closed forms
    h_0 = -i e^{iz}/z and h_1 = -e^{iz}(z + i)/z^2.

    Raises RecurrenceDomainError for Im z < H1_IM_MIN, where the recurrence
    would lose more than about 1e-11 of relative accuracy.  For a 1-D array z
    the result has one column per argument, and a column that overflows or
    lies below H1_IM_MIN is left non-finite instead of raising, so one
    argument cannot fail the others; callers check the entries they use.
    """
    if _is_array(z):
        return _sph_h1n_columns(lmax, z)
    z = complex(z)
    if z == 0:
        raise ValueError("h_l^(1) diverges at z = 0")
    if z.imag < H1_IM_MIN:
        raise RecurrenceDomainError(
            f"h_l^(1) recurrence is inaccurate below Im z = {H1_IM_MIN}, z={z}"
        )
    out = np.zeros(lmax + 1, dtype=complex)
    eiz = np.exp(1j * z)
    out[0] = -1j * eiz / z
    if lmax >= 1:
        out[1] = -eiz * (z + 1j) / z**2
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, lmax):
            out[n + 1] = (2 * n + 1) / z * out[n] - out[n - 1]
    if not np.all(np.isfinite(out.view(float))):
        raise OverflowError(f"spherical h recurrence overflowed for lmax={lmax}, z={z}")
    return out


def _sph_h1n_columns(lmax: int, z: np.ndarray) -> np.ndarray:
    # a real argument lies on the axis and needs no domain check
    below = z.imag < H1_IM_MIN if np.iscomplexobj(z) else None
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ValueError("h_l^(1) diverges at z = 0")
    out = np.empty((lmax + 1, len(z)), dtype=complex)
    eiz = np.exp(1j * z)
    out[0] = -1j * eiz / z
    if lmax >= 1:
        out[1] = -eiz * (z + 1j) / z**2
    factor = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, lmax):
            row = out[n + 1]
            np.divide(2 * n + 1, z, out=factor)
            np.multiply(factor, out[n], out=row)
            row -= out[n - 1]
    if below is not None:
        out[:, below] = np.nan
    return out


def _per_point(loop, columns, l: int, z):
    """loop(l, z) for a scalar z or a one-element array, which is faster
    for one point, and columns(l, z) for a longer 1-D array; an array z
    gives an array."""
    if l < 1:
        raise ValueError(f"Bessel ratios need l >= 1, got l={l}")
    points = np.asarray(z, dtype=complex).ravel()
    if np.any(points == 0):
        raise ValueError("Bessel ratios need z != 0")
    if len(points) > 1:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return columns(l, points)
    value = loop(l, complex(points[0]))
    return np.array([value]) if _is_array(z) else value


def sph_jn_ratio(l: int, z):
    """j_l(z)/j_{l-1}(z) for l >= 1 and complex z != 0.

    The ratio r_n = j_n/j_{n-1} obeys 1/r_n = (2n+1)/z - r_{n+1}, run
    downward as a continued fraction from r = 0 above _miller_start(l, |z|):
    the same start and the same error as sph_jn_all's Miller recurrence, but
    only one bounded number per point, so nothing overflows where j_l itself
    leaves float64 (Lentz 1976, Appl. Opt. 15, 668).  A 1-D array z gives
    one ratio per argument.
    """
    return _per_point(_jn_ratio_loop, _jn_ratio_columns, l, z)


def _jn_ratio_loop(l: int, z: complex) -> complex:
    zinv = 1.0 / z
    r = 0j
    for n in range(_miller_start(l, abs(z)), l - 1, -1):
        r = 1.0 / ((2 * n + 1) * zinv - r)
    return r


def _odd_over_z(orders: range, z: np.ndarray):
    """The rows (2n + 1)/z, for n in orders, of the column loops: built
    _ODD_ROWS rows per numpy call, so that a step of a ratio recurrence
    costs two numpy calls instead of three."""
    zinv = np.reciprocal(z)
    for k in range(0, len(orders), _ODD_ROWS):
        odd = 2.0 * np.asarray(orders[k : k + _ODD_ROWS], dtype=float) + 1.0
        yield from np.multiply.outer(odd, zinv)


def _jn_ratio_columns(l: int, z: np.ndarray) -> np.ndarray:
    """_jn_ratio_loop for each column, each started at its own order, so a
    column's value does not depend on the other arguments."""
    seeds = {}
    for column, size in enumerate(np.abs(z).tolist()):
        seeds.setdefault(_miller_start(l, size), []).append(column)
    orders = range(max(seeds), l - 1, -1)
    r = np.zeros_like(z)
    step = np.empty_like(z)
    for n, odd in zip(orders, _odd_over_z(orders, z)):
        seeded = seeds.get(n)
        if seeded is not None:
            r[seeded] = 0.0
        np.subtract(odd, r, out=step)
        np.reciprocal(step, out=r)
    return r


def sph_h1n_ratio(l: int, z):
    """h_l^(1)(z)/h_{l-1}^(1)(z) for l >= 1 and complex z != 0, by the upward
    recurrence q_{n+1} = (2n+1)/z - 1/q_n from h_1/h_0 = 1/z - i: bounded
    where h_l itself overflows.

    Refuses Im z < H1_IM_MIN with RecurrenceDomainError, as sph_h1n_all
    does; for a 1-D array z such an argument gives NaN instead.
    """
    below = np.imag(z) < H1_IM_MIN
    if not _is_array(z) and below:
        raise RecurrenceDomainError(
            f"h_l^(1) recurrence is inaccurate below Im z = {H1_IM_MIN}, z={z}"
        )
    q = _per_point(_h1n_ratio_loop, _h1n_ratio_columns, l, z)
    if _is_array(z):
        q[below] = np.nan
    return q


def _h1n_ratio_loop(l: int, z: complex) -> complex:
    zinv = 1.0 / z
    q = zinv - 1j
    for n in range(1, l):
        q = (2 * n + 1) * zinv - 1.0 / q
    return q


def _h1n_ratio_columns(l: int, z: np.ndarray) -> np.ndarray:
    q = np.reciprocal(z) - 1j
    inverse = np.empty_like(z)
    for odd in _odd_over_z(range(1, l), z):
        np.reciprocal(q, out=inverse)
        np.subtract(odd, inverse, out=q)
    return q


def riccati_deriv_all(farr: np.ndarray, z) -> np.ndarray:
    """[z f_l(z)]' for every order of a spherical-Bessel-family array.

    Uses f_l' = f_{l-1} - (l+1) f_l / z, so [z f_l]' = z f_{l-1} - l f_l
    for l >= 1 and [z f_0]' = f_0 - z f_1.  An (lmax + 1, N) array takes a
    1-D array z of its N arguments.
    """
    z = np.asarray(z, dtype=complex) if _is_array(z) else complex(z)
    lmax = len(farr) - 1
    out = np.empty_like(farr)
    if lmax == 0:
        raise ValueError("need at least orders 0..1 to form the derivative")
    out[0] = farr[0] - z * farr[1]
    ls = np.arange(1, lmax + 1).reshape((-1,) + (1,) * (farr.ndim - 1))
    out[1:] = z * farr[:-1] - ls * farr[1:]
    return out


def legendre_all(lmax: int, x) -> np.ndarray:
    """P_l(x) for l = 0..lmax by the three-term recurrence; requires |x| <= 1.
    For a 1-D array x the result has one column per argument."""
    if np.any(np.abs(x) > 1.0):
        raise ValueError(f"Legendre argument x={x} outside [-1, 1]")
    if _is_array(x):
        return _legendre_columns(lmax, np.asarray(x, dtype=float))
    out = np.zeros(lmax + 1)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = x
    for l in range(1, lmax):
        out[l + 1] = ((2 * l + 1) * x * out[l] - l * out[l - 1]) / (l + 1)
    return out


def _legendre_columns(lmax: int, x: np.ndarray) -> np.ndarray:
    out = np.zeros((lmax + 1, len(x)))
    out[0] = 1.0
    if lmax >= 1:
        out[1] = x
    odd_x = np.arange(1, 2 * lmax, 2.0)[:, None] * x
    for l in range(1, lmax):
        row = out[l + 1]
        np.multiply(odd_x[l], out[l], out=row)
        row -= l * out[l - 1]
        row /= l + 1
    return out
