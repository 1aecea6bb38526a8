"""Spherical Bessel/Hankel functions of complex argument and Legendre polynomials.

Everything here is recurrence based and table free.  The Bessel functions
come as rows: j_0 or h_0^(1) and the ratios f_l/f_{l-1}.  The ratios stay
bounded where j_l and h_l leave float64 (h_l overflows near l = 300 at
k R ~ 12, j_l(z) for |Im z| beyond ~700); a caller that needs j_l or h_l
forms the running product of the rows.

Every function ravels its argument and returns one column per argument; a
scalar is one argument.  Both kinds come from one three-term recurrence,
x <- (2n + 1)/z - 1/x, and each column runs in the direction its order
and argument allow (Gautschi 1967, SIAM Rev. 9, 24; DLMF 3.6(ii)).  Up:
x = h_{n+1}/h_n from h_1/h_0 = 1/z - i (h is dominant), and
x = j_{n+1}/j_n from j_1/j_0 = 1/z - cot z below the turning point
n ~ |z|, where neither solution is minimal: the j column of order l runs
up where l <= |z| - 3 |z|^(1/3) - 2 |Im z| and |Im z| <= 3 (_upward).
Down: x = j_{n-1}/j_n from a Miller start, the continued fraction of Lentz
(1976, Appl. Opt. 15, 668), everywhere else (j is minimal above the
turning point).  Against 50-digit ratios, on 463 points inside the rule
(|z| 20 to 1000), the upward ratio was never more than twice the larger
of the continued fraction's error and 1e-13; both reach 2e-12 only next
to a zero of j_l at real z.  Above |Im z| = 3 the upward error grows like
e^(2 |Im z|) near the turning point (1e-12 at Im z = 5, |z| = 86, l = |z|).

So one column loop serves both kinds and both directions, in any mix:
numpy runs each step for all columns at once, two calls per step, and
column k runs to its own order l_k and keeps its last d_k ratios.  The two
entry points give both kinds from one run, sph_jn_h1n_ratios all lmax rows
and sph_jn_h1n_ratio the ratio of order l; a kind with no arguments gives
an empty result.  A call of up to _SCALAR_POINTS (12) columns in all runs
a scalar loop per column instead, which is faster there and gives the
same bits; so each call runs one loop.  The single-order ratios also take
one order per argument: one run of the recurrence then serves arguments
of many orders, each ended at its own order, with the bits of a call of
that order alone.  The Bessel functions take orders l >= 1 and finite z != 0,
and give h_l^(1) a NaN column below H1_IM_MIN.
"""

from __future__ import annotations

import numpy as np

# Below the real axis the upward recurrence for h_l^(1) loses about
# eps * e^(2 |Im z|) of relative accuracy (against mpmath: 5e-12 at
# Im z = -5, 1e-7 at -10, O(1) at -20), so it refuses Im z below this.
H1_IM_MIN = -5.0

# the column loop builds the rows of (2n + 1)/z in chunks of at most
# _ODD_SIZE numbers (128 kB), and of at least one row
_ODD_SIZE = 8192

# up to this many columns of a call, of both kinds and directions, a
# scalar loop per column beats the column loop
_SCALAR_POINTS = 12

# a j column runs upward where l <= |z| - _UP_MARGIN |z|^(1/3) - 2 |Im z|
# and |Im z| <= _UP_IM_MAX (see _upward): measured against 50-digit
# ratios, as the module docstring states
_UP_MARGIN = 3.0
_UP_IM_MAX = 3.0


def _arguments(l, z) -> np.ndarray:
    """z raveled to a 1-D complex array, one column per argument, after the
    check every Bessel function shares: the order l, or the 1-D array of
    one order per argument, is >= 1, and z is finite and != 0 (a Miller
    start is an integer of |z|)."""
    points = np.asarray(z, dtype=complex).ravel()
    if np.ndim(l):
        if np.ndim(l) != 1 or len(l) != len(points):
            raise ValueError(f"Bessel ratios need a 1-D array of one order per argument, "
                             f"got orders of shape {np.shape(l)} for {len(points)} arguments")
        if (l < 1).any():
            raise ValueError(f"Bessel ratios need l >= 1, got l={l}")
    elif l < 1:
        raise ValueError(f"Bessel ratios need l >= 1, got l={l}")
    if not (points.all() and np.isfinite(points).all()):
        raise ValueError("Bessel ratios need finite z != 0")
    return points


def _miller_start(l: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Miller start M of the downward column of order l_k at each z_k:
    far enough above max(l_k, |z_k|) that seed contamination by the
    dominant solution decays below ~1e-12 by the time the column reaches
    l_k."""
    if not len(z):
        # no downward column, as in a below-gap search: skip the numpy calls
        return np.zeros(0, dtype=int)
    size = np.abs(z)
    return np.maximum(l, size.astype(int)) + 60 + (2.0 * np.sqrt(size)).astype(int)


def _scalar_loop(x: complex, odds: range, z: complex, depth: int) -> list[complex]:
    """The last depth values of x, then of x <- odd (1/z) - 1/x for each odd
    in odds: one column of _ratio_columns, with its arithmetic."""
    zinv = 1.0 / z
    # the steps before the first kept value keep nothing
    skip = len(odds) + 1 - depth
    for odd in odds[:skip]:
        x = odd * zinv - 1.0 / x
    values = [x]
    for odd in odds[skip:]:
        x = odd * zinv - 1.0 / x
        values.append(x)
    return values


def _upward(l, z: np.ndarray) -> np.ndarray:
    """Where the j column of order l (one, or one per argument) at z runs
    upward: l <= |z| - _UP_MARGIN |z|^(1/3) - 2 |Im z| and |Im z| <= _UP_IM_MAX."""
    size, im = np.abs(z), np.abs(z.imag)
    return (im <= _UP_IM_MAX) & (l <= size - _UP_MARGIN * np.cbrt(size) - 2.0 * im)


def _first_ratios(z: np.ndarray, jcount: int) -> np.ndarray:
    """The first values of upward columns at z: j_1/j_0 = 1/z - cot z in
    the first jcount, h_1/h_0 = 1/z - i in the others."""
    first = np.reciprocal(z)
    first[jcount:] -= 1j
    if jcount:
        first[:jcount] -= np.cos(z[:jcount]) / np.sin(z[:jcount])
    return first


def _ratio_columns(orders: np.ndarray, depths, z: np.ndarray, first: np.ndarray,
                   rows: np.ndarray) -> None:
    """The ratios of orders l_k - d_k + 1 .. l_k of column k into the last
    d_k of the rows (shape (D, len(z)), D = max d_k), from one run of
    x <- (2n + 1)/z - 1/x for all columns: j_n/j_{n-1} downward in the
    columns before the last len(first), one per row from order l_k down,
    and j_n/j_{n-1} or h_n/h_{n-1} upward from the first values `first`
    (see _first_ratios) in the last len(first), one per row up to order
    l_k.  orders holds l_k and depths d_k (or one depth for all).

    A downward column steps s_n = 1/r_n = j_{n-1}/j_n down from
    s = (2M + 1)/z (r = 0 above M = _miller_start(l_k, z_k)) to order
    l_k - d_k + 1, and its rows hold s until one call at the end inverts
    them; an upward column steps x_n from x_1 = first to order l_k.  The
    run ends with every column's last step: column k joins at the step
    from which its own steps just reach the last row, and until then holds
    values that nothing reads.  So a column's values depend on its own
    argument and order alone, and are the bits of the scalar loop.  The
    steps at which columns join and the rows the steps write are laid out
    before the loop, so a step is two numpy calls.

    The caller puts a j column upward where _upward holds,
    l_k <= |z_k| - 3 |z_k|^(1/3) - 2 |Im z_k| and |Im z_k| <= 3: below the
    turning point n ~ |z| neither solution of the recurrence is minimal
    (Gautschi 1967; DLMF 3.6(ii)), the ratios there were within twice the
    continued fraction's error or 1e-13 of 50-digit values (see the module
    docstring), and the column takes l_k steps instead of the continued
    fraction's M - l_k + d_k.
    """
    n = len(z)
    down = n - len(first)
    zinv = np.reciprocal(z)
    miller = _miller_start(orders[:down], z[:down])
    # the steps of each column, its first value included, and the step at
    # which it joins
    steps = np.concatenate([miller - (orders - depths)[:down], orders[down:]])
    total = int(steps.max())
    join = total - steps
    # 2n + 1 at step t is base + slope t: n falls from the Miller start of
    # a downward column, and rises from order 0 at the join of an upward
    # one (the step from x_n to x_{n+1} takes 2n + 1)
    slope = np.full(n, 2.0)
    slope[:down] = -2.0
    base = 1.0 - slope * join
    base[:down] += 2.0 * miller
    starts = np.concatenate([(2.0 * miller + 1.0) * zinv[:down], first])
    x = np.ones(n, dtype=complex)
    inverse = np.empty_like(x)
    # the state array takes the steps before the last D, which write the rows
    outs = [x] * (total - len(rows)) + list(rows)
    # the columns that join at each step
    groups: dict = {}
    for column, t in enumerate(join.tolist()):
        groups.setdefault(t, []).append(column)
    joining: list = [None] * total
    for t, columns in groups.items():
        joining[t] = np.array(columns)
    size = max(1, _ODD_SIZE // n)
    for t in range(0, total, size):
        end = min(t + size, total)
        factor = np.multiply.outer(np.arange(t, end, dtype=float), slope)
        factor += base
        for odd, out, columns in zip(factor * zinv, outs[t:end], joining[t:end]):
            np.reciprocal(x, out=inverse)
            np.subtract(odd, inverse, out=out)
            x = out
            if columns is not None:
                out[columns] = starts[columns]
    np.reciprocal(rows[:, :down], out=rows[:, :down])


def _ratios(l, jz: np.ndarray, hz: np.ndarray, rows: np.ndarray) -> None:
    """The ratios of orders l_k - depth + 1 .. l_k (depth = len(rows)) of
    j_l at each argument of jz and h_l^(1) at each of hz into the columns
    of rows, j first, from order l_k down, then h, up to order l_k, where l
    is an order or one order l_k per column.

    The run takes the j columns that _upward selects with the h columns,
    upward, and the others downward.  A call of up to _SCALAR_POINTS
    columns runs the scalar loop per column, a wider one a single run of
    _ratio_columns over all of them (the same bits).  An upward j column's
    rows are turned to run from order l_k down, like the others."""
    depth = len(rows)
    nj, n = len(jz), len(jz) + len(hz)
    orders = np.zeros(n, dtype=int) + l
    up = _upward(orders[:nj], jz)
    down = nj - int(np.count_nonzero(up))
    z, out = np.concatenate([jz, hz]), rows
    if down < nj:
        # the columns by direction: downward j, then upward j, then h
        order = np.concatenate([np.flatnonzero(~up), np.flatnonzero(up), np.arange(nj, n)])
        z, orders, out = z[order], orders[order], np.empty_like(rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        first = _first_ratios(z[down:], nj - down)
        if n > _SCALAR_POINTS:
            _ratio_columns(orders, depth, z, first, out)
        else:
            starts = first.tolist()
            millers = _miller_start(orders[:down], z[:down]).tolist()
            for k, (top, zk) in enumerate(zip(orders.tolist(), z.tolist())):
                if k < down:
                    # s = 1/r from (2M + 1)/z down to order top - depth + 1
                    miller = millers[k]
                    odds = range(2 * miller - 1, 2 * (top - depth) + 1, -2)
                    s = _scalar_loop((2 * miller + 1) * (1.0 / zk), odds, zk, depth)
                    out[:, k] = [1.0 / v for v in s]
                else:
                    out[:, k] = _scalar_loop(starts[k - down], range(3, 2 * top, 2), zk, depth)
    if out is not rows:
        out[:, down:nj] = out[::-1, down:nj]
        rows[:, order] = out


def sph_jn_h1n_ratios(lmax: int, jz, hz) -> tuple[np.ndarray, np.ndarray]:
    """The rows 0..lmax of j_l at each argument of jz and of h_l^(1) at each
    of hz, one column per argument, from one run of the column loop: j_0 or
    h_0 = -i e^{iz}/z in row 0 and the ratios f_n/f_{n-1} in rows n >= 1.
    The lmax write steps fill rows lmax..1 of the j columns and rows 1..lmax
    of the h columns of one array in place; the j rows are a view of it from
    the other end.  h has no seed, so h row n is the ratio of order n.

    j row 0 is j_0 = sin z / z, or j_1/(j_1/j_0) where |j_1| is the larger:
    the two have no common zeros, so the product is always anchored well
    (j_0 alone fails near sin z = 0); it is non-finite where j_0 leaves
    float64.
    """
    jz, hz = _arguments(lmax, jz), _arguments(lmax, hz)
    nj = len(jz)
    both = np.empty((lmax + 2, nj + len(hz)), dtype=complex)
    _ratios(lmax, jz, hz, both[1:-1])
    rj, rh = both[:0:-1, :nj], both[:-1, nj:]
    # j_0 and j_1 leave float64 for |Im z| beyond ~700, the ratios do not
    with np.errstate(over="ignore", invalid="ignore"):
        sin = np.sin(jz)
        j0 = sin / jz
        j1 = sin / jz**2 - np.cos(jz) / jz
        rj[0] = np.where(np.abs(j0) >= np.abs(j1), j0, j1 / rj[1])
        rh[0] = -1j * np.exp(1j * hz) / hz
    rh[:, hz.imag < H1_IM_MIN] = np.nan
    return rj, rh


def sph_jn_h1n_ratio(l, jz, hz) -> tuple[np.ndarray, np.ndarray]:
    """(j_l/j_{l-1} at each argument of jz, h_l^(1)/h_{l-1}^(1) at each of
    hz): the last row of sph_jn_h1n_ratios(l, jz, hz), from the same loops.
    l is one order, or a 1-D array of orders that serves both kinds, one per
    argument of jz and one per argument of hz."""
    jz, hz = _arguments(l, jz), _arguments(l, hz)
    rows = np.empty((1, len(jz) + len(hz)), dtype=complex)
    _ratios(np.concatenate([l, l]) if np.ndim(l) else l, jz, hz, rows)
    r, q = rows[0, : len(jz)], rows[0, len(jz) :]
    q[hz.imag < H1_IM_MIN] = np.nan
    return r, q


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
