"""Spherical Bessel/Hankel functions of complex argument and Legendre polynomials.

Everything here is recurrence based and table free.  j_l comes from the
ratios j_l/j_{l-1} of a downward continued fraction, which is stable
because j is the minimal solution as l grows, multiplied up from j_0 or
j_1; h_l^(1) is generated upward, where it is the dominant solution.  As
ratios (`sph_jn_ratio`, `sph_h1n_ratio`) both stay bounded where j_l and
h_l leave float64 (h_l overflows near l = 300 at k R ~ 12, j_l(z) for
|Im z| beyond ~700); the resonance search reads nothing else.

Every function also takes a 1-D array of arguments and returns one column
(one value for the single-order ratios) per argument: the recurrences still
loop over l, and numpy does each step for all columns at once.  A scalar
argument keeps the scalar loop, which is faster for a single point, and so
does a one-element array for the j_l functions and the ratios.
"""

from __future__ import annotations

import numpy as np

# Highest multipole order the microsphere layer sums to.  Enough for size
# parameters up to ~kR = 66 of the microsphere geometry plus evanescent tail.
L_MAX_SUPPORTED = 300

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


def sph_jn_ratios(lmax: int, z) -> np.ndarray:
    """j_0(z) in row 0 and the ratios j_n(z)/j_{n-1}(z) in rows n = 1..lmax,
    complex z: the running product of the rows is j_l (sph_jn_all), and the
    ratio rows stay bounded where j_l itself leaves float64.

    The ratios come from the continued fraction of sph_jn_ratio, run once
    from _miller_start(lmax, |z|).  Row 0 is j_0 = sin z / z, or j_1/(j_1/j_0)
    where |j_1| is the larger: the two have no common zeros, so the product
    is always anchored well (j_0 alone fails near sin z = 0); it is
    non-finite where j_0 leaves float64.  z = 0 gives rows 1, 0, 0, ...
    """
    top = max(lmax, 1)
    points = np.asarray(z, dtype=complex).ravel()
    zero = points == 0
    points = np.where(zero, 1.0, points)
    rows = np.empty((top + 1, len(points)), dtype=complex)
    if len(points) > 1:
        rows[1:] = _jn_ratio_columns(1, top, points)
    else:
        rows[1:, 0] = _jn_ratio_loop(1, top, complex(points[0]))
    # j_0 and j_1 leave float64 for |Im z| beyond ~700, the ratios do not
    with np.errstate(over="ignore", invalid="ignore"):
        sin = np.sin(points)
        j0 = sin / points
        j1 = sin / points**2 - np.cos(points) / points
        rows[0] = np.where(np.abs(j0) >= np.abs(j1), j0, j1 / rows[1])
    rows[:, zero] = 0.0
    rows[0, zero] = 1.0
    rows = rows[: lmax + 1]
    return rows if _is_array(z) else rows[:, 0]


def sph_jn_all(lmax: int, z) -> np.ndarray:
    """j_l(z) for l = 0..lmax, complex z: the running product of the rows
    of sph_jn_ratios, j_0 and the ratios j_n/j_{n-1} of the downward
    continued fraction (Lentz 1976, Appl. Opt. 15, 668).  A scalar z whose
    j_l leave float64 raises OverflowError.
    """
    out = np.cumprod(sph_jn_ratios(lmax, z), axis=0)
    if not _is_array(z) and not np.all(np.isfinite(out.view(float))):
        raise OverflowError(f"spherical j overflowed for lmax={lmax}, z={z}")
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
    only one bounded number per point, so nothing overflows where j_l itself
    leaves float64 (Lentz 1976, Appl. Opt. 15, 668).  sph_jn_ratios runs the
    same loops for every order at once.
    """
    return _per_point(lambda l, z: _jn_ratio_loop(l, l, z)[0],
                      lambda l, z: _jn_ratio_columns(l, l, z)[0], l, z)


def _jn_ratio_loop(lo: int, hi: int, z: complex) -> list[complex]:
    """The ratios r_n for n = lo..hi, from one continued fraction started
    at _miller_start(hi, |z|)."""
    zinv = 1.0 / z
    r = 0j
    for n in range(_miller_start(hi, abs(z)), hi, -1):
        r = 1.0 / ((2 * n + 1) * zinv - r)
    rows = []
    for n in range(hi, lo - 1, -1):
        r = 1.0 / ((2 * n + 1) * zinv - r)
        rows.append(r)
    return rows[::-1]


def _odd_over_z(orders: range, z: np.ndarray):
    """The rows (2n + 1)/z, for n in orders, of the column loops: built
    _ODD_ROWS rows per numpy call, so that a step of a ratio recurrence
    costs two numpy calls instead of three."""
    zinv = np.reciprocal(z)
    for k in range(0, len(orders), _ODD_ROWS):
        odd = 2.0 * np.asarray(orders[k : k + _ODD_ROWS], dtype=float) + 1.0
        yield from np.multiply.outer(odd, zinv)


def _jn_ratio_columns(lo: int, hi: int, z: np.ndarray) -> np.ndarray:
    """_jn_ratio_loop for each column, rows n = lo..hi, each column started
    at its own order, so a column's values do not depend on the other
    arguments."""
    seeds = {}
    for column, size in enumerate(np.abs(z).tolist()):
        seeds.setdefault(_miller_start(hi, size), []).append(column)
    orders = range(max(seeds), lo - 1, -1)
    rows = np.empty((hi - lo + 1, len(z)), dtype=complex)
    r = np.zeros_like(z)
    step = np.empty_like(z)
    for n, odd in zip(orders, _odd_over_z(orders, z)):
        seeded = seeds.get(n)
        if seeded is not None:
            r[seeded] = 0.0
        np.subtract(odd, r, out=step)
        # from order hi down, each ratio is written to its own row
        if n <= hi:
            r = rows[n - lo]
        np.reciprocal(step, out=r)
    return rows


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
