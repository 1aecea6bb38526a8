"""Spherical Bessel/Hankel functions of complex argument and Legendre polynomials.

Everything here is recurrence based and table free.  The Bessel functions
come as rows: j_0 or h_0^(1) and the ratios f_l/f_{l-1}, for j from a
downward continued fraction (j is the minimal solution as l grows), for h
from the upward recurrence (h is the dominant one).  The ratios stay
bounded where j_l and h_l leave float64 (h_l overflows near l = 300 at
k R ~ 12, j_l(z) for |Im z| beyond ~700); a caller that needs j_l or h_l
forms the running product of the rows.

Every function ravels its argument and returns one column per argument; a
scalar is one argument.  Each Bessel kind has one column loop, in which
numpy runs each step of the recurrence for all columns at once: column k
runs to its own order l_k and keeps its last `depth` ratios, all lmax of
them for sph_jn_ratios and sph_h1n_ratios, one for sph_jn_ratio and
sph_h1n_ratio.
Up to _SCALAR_POINTS (6) arguments a scalar loop per argument runs instead,
which is faster there and gives the same bits.  The single-order ratios
also take one order per argument: one run of the recurrence then serves
arguments of many orders, each ended at its own order, with the bits of a
call of that order alone.  The Bessel functions take orders l >= 1 and
z != 0, and give h_l^(1) a NaN column below H1_IM_MIN.
"""

from __future__ import annotations

import numpy as np

# Below the real axis the upward recurrence for h_l^(1) loses about
# eps * e^(2 |Im z|) of relative accuracy (against mpmath: 5e-12 at
# Im z = -5, 1e-7 at -10, O(1) at -20), so it refuses Im z below this.
H1_IM_MIN = -5.0

# rows of (2n + 1)/z that the column ratio loops build per numpy call
_ODD_ROWS = 32

# up to this many arguments a scalar loop per argument beats the column loop
_SCALAR_POINTS = 6


def _arguments(l, z) -> np.ndarray:
    """z raveled to a 1-D complex array, one column per argument, after the
    check every Bessel function shares: the order l, or the 1-D array of
    one order per argument, is >= 1, and z != 0."""
    points = np.asarray(z, dtype=complex).ravel()
    if np.ndim(l):
        if np.ndim(l) != 1 or len(l) != len(points):
            raise ValueError(f"Bessel ratios need a 1-D array of one order per argument, "
                             f"got orders of shape {np.shape(l)} for {len(points)} arguments")
        if np.any(l < 1):
            raise ValueError(f"Bessel ratios need l >= 1, got l={l}")
    elif l < 1:
        raise ValueError(f"Bessel ratios need l >= 1, got l={l}")
    if np.any(points == 0):
        raise ValueError("Bessel ratios need z != 0")
    return points


def _miller_start(lmax: int, size):
    # start far enough above max(l, |z|) that seed contamination by the
    # dominant solution decays below ~1e-12 by the time we reach lmax
    return max(lmax, int(size)) + 60 + int(2.0 * size**0.5)


def _columns_by(values: list[int]) -> dict:
    """The columns at which each value of an int list occurs, all columns as
    one slice where the values are all equal."""
    if values.count(values[0]) == len(values):
        return {values[0]: slice(None)}
    columns: dict[int, list[int]] = {}
    for column, value in enumerate(values):
        columns.setdefault(value, []).append(column)
    return columns


def _column_orders(l, z: np.ndarray) -> list[int]:
    """The order of each column of z: l, or l_k for a 1-D array l."""
    return l.tolist() if np.ndim(l) else [l] * len(z)


def _ratios(loop, columns, l, points: np.ndarray, rows: np.ndarray) -> None:
    """The ratios of orders l_k - depth + 1 .. l_k of a recurrence into rows
    0..depth - 1 (depth = len(rows)), a column per argument of the 1-D array
    points, where l is an order or one order l_k per argument: up to
    _SCALAR_POINTS arguments loop(l_k - depth + 1, l_k, z_k) per argument,
    else columns(l, points, rows) for all arguments at once (the same bits)."""
    depth = len(rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if len(points) > _SCALAR_POINTS:
            columns(l, points, rows)
        else:
            for k, (n, z) in enumerate(zip(_column_orders(l, points), points.tolist())):
                rows[:, k] = loop(n - depth + 1, n, z)


def sph_jn_ratios(lmax: int, z) -> np.ndarray:
    """j_0(z) in row 0 and the ratios j_n(z)/j_{n-1}(z) in rows n = 1..lmax,
    lmax >= 1 and complex z != 0: the running product of the rows is j_l,
    and the ratio rows stay bounded where j_l itself leaves float64.

    The ratios come from the continued fraction of sph_jn_ratio, run once
    from _miller_start(lmax, |z|): the loops of sph_jn_ratio(lmax, z), which
    here keep all lmax ratios instead of the last one.  Row 0 is
    j_0 = sin z / z, or j_1/(j_1/j_0) where |j_1| is the larger: the two
    have no common zeros, so the product is always anchored well (j_0 alone
    fails near sin z = 0); it is non-finite where j_0 leaves float64.
    """
    points = _arguments(lmax, z)
    rows = np.empty((lmax + 1, len(points)), dtype=complex)
    _ratios(_jn_ratio_loop, _jn_ratio_columns, lmax, points, rows[1:])
    # j_0 and j_1 leave float64 for |Im z| beyond ~700, the ratios do not
    with np.errstate(over="ignore", invalid="ignore"):
        sin = np.sin(points)
        j0 = sin / points
        j1 = sin / points**2 - np.cos(points) / points
        rows[0] = np.where(np.abs(j0) >= np.abs(j1), j0, j1 / rows[1])
    return rows


def sph_h1n_ratios(lmax: int, z) -> np.ndarray:
    """h_0^(1)(z) = -i e^{iz}/z in row 0 and the ratios h_n(z)/h_{n-1}(z) in
    rows n = 1..lmax, lmax >= 1 and complex z != 0: the running product of
    the rows is h_l^(1), and the ratio rows stay bounded where h_l
    overflows.

    The ratios come from the upward recurrence of sph_h1n_ratio, run once:
    the loops of sph_h1n_ratio(lmax, z), which here keep all lmax ratios
    instead of the last one, so row n is sph_h1n_ratio(n, z).
    An argument below H1_IM_MIN gets a NaN column.
    """
    points = _arguments(lmax, z)
    rows = np.empty((lmax + 1, len(points)), dtype=complex)
    _ratios(_h1n_ratio_loop, _h1n_ratio_columns, lmax, points, rows[1:])
    with np.errstate(over="ignore", invalid="ignore"):
        rows[0] = -1j * np.exp(1j * points) / points
    rows[:, points.imag < H1_IM_MIN] = np.nan
    return rows


def _order_ratio(loop, columns, l, points: np.ndarray) -> np.ndarray:
    """The ratio of order l of a recurrence per argument of the 1-D array
    points, where l is an order or one order per argument (_ratios with
    depth 1)."""
    out = np.empty((1, len(points)), dtype=complex)
    _ratios(loop, columns, l, points, out)
    return out[0]


def sph_jn_ratio(l, z):
    """j_l(z)/j_{l-1}(z) for l >= 1 and complex z != 0, one value per
    argument; l is one order, or a 1-D array of orders, one per argument.

    The ratio r_n = j_n/j_{n-1} obeys 1/r_n = (2n+1)/z - r_{n+1}, run
    downward as a continued fraction from r = 0 above _miller_start(l, |z|):
    only one bounded number per point, so nothing overflows where j_l itself
    leaves float64 (Lentz 1976, Appl. Opt. 15, 668).  With an array of
    orders one run serves every argument, each started and ended at its own
    order, so an argument's ratio is the bits a call of its order alone
    gives.  It is row l of sph_jn_ratios(l, z), from the same loops.
    """
    return _order_ratio(_jn_ratio_loop, _jn_ratio_columns, l, _arguments(l, z))


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


def _odd_over_z(orders: range, z: np.ndarray, shift):
    """The rows (2n + 1)/z of the column loops, n = shift + m for m in
    orders, where shift is a number or one per column: built _ODD_ROWS rows
    per numpy call, so that a step of a ratio recurrence costs two numpy
    calls instead of three.  One shift for all columns makes an outer
    product, which numpy forms faster (the same bits)."""
    zinv = np.reciprocal(z)
    per_column = isinstance(shift, np.ndarray) and shift.ndim
    for k in range(0, len(orders), _ODD_ROWS):
        m = np.asarray(orders[k : k + _ODD_ROWS], dtype=float)
        if per_column:
            yield from np.add.outer(2.0 * m + 1.0, 2.0 * shift) * zinv
        else:
            yield from np.multiply.outer(2.0 * m + (2.0 * shift + 1.0), zinv)


def _jn_ratio_columns(l, z: np.ndarray, rows: np.ndarray) -> None:
    """_jn_ratio_loop(l_k - depth + 1, l_k, z_k) for each column k into rows
    0..depth - 1 (depth = len(rows)), in one downward run: column k steps
    through the orders l_k + t, t = ..., 1 - depth, from r = 0 at
    t = _miller_start(l_k, |z_k|) - l_k, so a column's values do not depend
    on the other arguments."""
    depth = len(rows)
    seeds = _columns_by([_miller_start(n, size) - n
                         for n, size in zip(_column_orders(l, z), np.abs(z).tolist())])
    steps = range(max(seeds), -depth, -1)
    r = np.zeros_like(z)
    step = np.empty_like(z)
    for t, odd in zip(steps, _odd_over_z(steps, z, l)):
        if t in seeds:
            r[seeds[t]] = 0.0
        np.subtract(odd, r, out=step)
        # from order l_k down each ratio is written to its own row, counted
        # from the last one, which holds order l_k
        if t <= 0:
            r = rows[t - 1]
        np.reciprocal(step, out=r)


def sph_h1n_ratio(l, z):
    """h_l^(1)(z)/h_{l-1}^(1)(z) for l >= 1 and complex z != 0, one value per
    argument, by the upward recurrence q_{n+1} = (2n+1)/z - 1/q_n from
    h_1/h_0 = 1/z - i: bounded where h_l itself overflows.  l is one order,
    or a 1-D array of orders, one per argument: one run serves every
    argument, each ended at its own order, with the bits of a call of its
    order alone.  It is row l of sph_h1n_ratios(lmax, z) for any lmax >= l,
    from the same loops, and NaN below H1_IM_MIN alike.
    """
    points = _arguments(l, z)
    q = _order_ratio(_h1n_ratio_loop, _h1n_ratio_columns, l, points)
    q[points.imag < H1_IM_MIN] = np.nan
    return q


def _h1n_ratio_loop(lo: int, hi: int, z: complex) -> list[complex]:
    """The ratios q_n for n = lo..hi of the upward recurrence."""
    zinv = 1.0 / z
    q = zinv - 1j
    for n in range(1, lo):
        q = (2 * n + 1) * zinv - 1.0 / q
    rows = [q]
    for n in range(lo, hi):
        q = (2 * n + 1) * zinv - 1.0 / q
        rows.append(q)
    return rows


def _h1n_ratio_columns(l, z: np.ndarray, rows: np.ndarray) -> None:
    """_h1n_ratio_loop(l_k - depth + 1, l_k, z_k) for each column k into rows
    0..depth - 1 (depth = len(rows)), in one upward run: column k steps
    through the orders l_k + t, t = ..., 0, from h_1/h_0 at t = 1 - l_k
    (every column holds h_1/h_0 at the first t, and a later start replaces
    its values)."""
    depth = len(rows)
    starts = _columns_by([1 - n for n in l.tolist()]) if np.ndim(l) else {1 - l: slice(None)}
    first = min(starts)
    zinv = np.reciprocal(z)
    q = zinv - 1j
    # the last depth steps write their rows, the last row order l_k
    if first > -depth:
        rows[first - 1] = q
    steps = range(first + 1, 1)
    inverse = np.empty_like(z)
    for t, odd in zip(steps, _odd_over_z(steps, z, l - 1)):
        np.reciprocal(q, out=inverse)
        if t > -depth:
            q = rows[t - 1]
        np.subtract(odd, inverse, out=q)
        if t in starts:
            q[starts[t]] = zinv[starts[t]] - 1j


def legendre_all(lmax: int, x) -> np.ndarray:
    """P_l(x) for l = 0..lmax by the three-term recurrence, one column per
    argument; requires |x| <= 1."""
    points = np.asarray(x, dtype=float).ravel()
    if np.any(np.abs(points) > 1.0):
        raise ValueError(f"Legendre argument x={x} outside [-1, 1]")
    if len(points) == 1:
        t = float(points[0])
        p = [1.0, t]
        for l in range(1, lmax):
            p.append(((2 * l + 1) * t * p[l] - l * p[l - 1]) / (l + 1))
        out = np.array(p[: lmax + 1])[:, None]
    else:
        out = np.zeros((lmax + 1, len(points)))
        out[0] = 1.0
        if lmax >= 1:
            out[1] = points
        odd_x = np.arange(1, 2 * lmax, 2.0)[:, None] * points
        for l in range(1, lmax):
            row = out[l + 1]
            np.multiply(odd_x[l], out[l], out=row)
            row -= l * out[l - 1]
            row /= l + 1
    return out
