"""Spherical Bessel/Hankel functions of complex argument and Legendre polynomials.

Everything here is recurrence based and table free.  The Bessel functions
come as rows: j_0 or h_0^(1) and the ratios f_l/f_{l-1}, for j from a
downward continued fraction (j is the minimal solution as l grows), for h
from the upward recurrence (h is the dominant one).  The ratios stay
bounded where j_l and h_l leave float64 (h_l overflows near l = 300 at
k R ~ 12, j_l(z) for |Im z| beyond ~700); a caller that needs j_l or h_l
forms the running product of the rows.

Every function ravels its argument and returns one column per argument; a
scalar is one argument.  Both kinds come from one three-term recurrence,
x <- (2n + 1)/z - 1/x, run in opposite directions (Gautschi 1967, SIAM
Rev. 9, 24): x = h_{n+1}/h_n upward from h_1/h_0 = 1/z - i, and
x = j_{n-1}/j_n downward from a Miller start, the continued fraction of
Lentz (1976, Appl. Opt. 15, 668).  So one column loop serves both kinds, in
any mix: numpy runs each step for all columns at once, two calls per step,
and column k runs to its own order l_k and keeps its last d_k ratios.  The
two entry points give both kinds from one run, sph_jn_h1n_ratios all lmax
rows and sph_jn_h1n_ratio the ratio of order l; a kind with no arguments
gives an empty result.
Up to _SCALAR_POINTS (6) arguments of a kind a scalar loop per argument
runs instead, which is faster there and gives the same bits.  The
single-order ratios also take one order per argument: one run of the
recurrence then serves arguments of many orders, each ended at its own
order, with the bits of a call of that order alone.  The Bessel functions
take orders l >= 1 and z != 0, and give h_l^(1) a NaN column below
H1_IM_MIN.
"""

from __future__ import annotations

import numpy as np

# Below the real axis the upward recurrence for h_l^(1) loses about
# eps * e^(2 |Im z|) of relative accuracy (against mpmath: 5e-12 at
# Im z = -5, 1e-7 at -10, O(1) at -20), so it refuses Im z below this.
H1_IM_MIN = -5.0

# rows of (2n + 1)/z that the column loop builds per numpy call, fewer in
# a run wider than _ODD_SIZE / _ODD_ROWS columns, so that a chunk holds at
# most _ODD_SIZE numbers (128 kB)
_ODD_ROWS = 32
_ODD_SIZE = 8192

# up to this many arguments of a kind a scalar loop per argument beats the
# column loop
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


def _jn_ratio_loop(lo: int, hi: int, z: complex) -> list[complex]:
    """The ratios r_n for n = hi down to lo, from one continued fraction
    started at _miller_start(hi, |z|)."""
    zinv = 1.0 / z
    r = 0j
    for n in range(_miller_start(hi, abs(z)), hi, -1):
        r = 1.0 / ((2 * n + 1) * zinv - r)
    rows = []
    for n in range(hi, lo - 1, -1):
        r = 1.0 / ((2 * n + 1) * zinv - r)
        rows.append(r)
    return rows


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


def _ratio_columns(orders: np.ndarray, depths, z: np.ndarray, jcount: int,
                   rows: np.ndarray) -> None:
    """The ratios of orders l_k - d_k + 1 .. l_k of column k into the last
    d_k of the rows (shape (D, len(z)), D = max d_k), from one run of
    x <- (2n + 1)/z - 1/x for all columns: j_n/j_{n-1} in the columns
    k < jcount, one per row from order l_k down, and h_n/h_{n-1} in the
    others, one per row up to order l_k.  orders holds l_k and depths d_k
    (or one depth for all).

    A j column steps s_n = 1/r_n = j_{n-1}/j_n down from
    s = (2M + 1)/z (r = 0 above M = _miller_start(l_k, |z_k|)) to order
    l_k - d_k + 1, and its rows hold s until one call at the end inverts
    them; an h column steps q_n up from h_1/h_0 = 1/z - i to order l_k.
    The run ends with every column's last step: column k joins at the step
    from which its own steps just reach the last row, and until then holds
    values that nothing reads.  So a column's values depend on its own
    argument and order alone, and are the bits of the scalar loop.  A kind
    steps from the join of its first column on, so that a run of both kinds
    does the work of one run per kind.  The steps at which columns join and
    the rows the steps write are laid out before the loop, so a step is two
    numpy calls.
    """
    n = len(z)
    zinv = np.reciprocal(z)
    miller = np.array([_miller_start(l, size) for l, size in
                       zip(orders[:jcount].tolist(), np.abs(z[:jcount]).tolist())], dtype=int)
    # the steps of each column, its first value included, and the step at
    # which it joins
    steps = np.concatenate([miller - (orders - depths)[:jcount], orders[jcount:]])
    total = int(steps.max())
    join = total - steps
    # 2n + 1 at step t is base + slope t: n falls from the Miller start of
    # a j column, and rises from order 0 at the join of an h column (the
    # step from q_n to q_{n+1} takes 2n + 1)
    slope = np.full(n, 2.0)
    slope[:jcount] = -2.0
    base = 1.0 - slope * join
    base[:jcount] += 2.0 * miller
    first = zinv - 1j
    first[:jcount] = (2.0 * miller + 1.0) * zinv[:jcount]
    x = np.ones(n, dtype=complex)
    inverse = np.empty_like(x)
    # the state array takes the steps before the last D, which write the rows
    outs = [x] * (total - len(rows)) + list(rows)
    # the columns that join at each step, with the full array it writes
    groups: dict = {}
    for column, t in enumerate(join.tolist()):
        groups.setdefault(t, []).append(column)
    joining: list = [None] * total
    for t, columns in groups.items():
        joining[t] = outs[t], np.array(columns)
    # until the first join of the later kind, the other kind steps alone
    kinds = [kind for kind in (slice(0, jcount), slice(jcount, n)) if kind.start < kind.stop]
    firsts = [int(join[kind].min()) for kind in kinds]
    split = max(firsts)
    alone = kinds[firsts.index(0)] if split else slice(0, n)
    for start, stop, cols in ((0, split, alone), (split, total, slice(0, n))):
        width = cols.stop - cols.start
        size = max(1, min(_ODD_ROWS, _ODD_SIZE // width))
        # the state before the first step, and the arrays the steps write
        x = (outs[start - 1] if start else x)[cols]
        targets = [out[cols] for out in outs[start:stop]] if width < n else outs[start:stop]
        inv, ratio, offset, over_z = inverse[cols], slope[cols], base[cols], zinv[cols]
        for t in range(start, stop, size):
            end = min(t + size, stop)
            factor = np.multiply.outer(np.arange(t, end, dtype=float), ratio)
            factor += offset
            for odd, out, joined in zip(factor * over_z, targets[t - start : end - start],
                                        joining[t:end]):
                np.reciprocal(x, out=inv)
                np.subtract(odd, inv, out=out)
                x = out
                if joined is not None:
                    full, columns = joined
                    full[columns] = first[columns]
    np.reciprocal(rows[:, :jcount], out=rows[:, :jcount])


def _ratios(l, jz: np.ndarray, hz: np.ndarray, rows: np.ndarray) -> None:
    """The ratios of orders l_k - depth + 1 .. l_k (depth = len(rows)) of
    j_l at each argument of jz and h_l^(1) at each of hz into the columns
    of rows, j first, from order l_k down, then h, up to order l_k, where l
    is an order or one order l_k per column.  A kind with up to
    _SCALAR_POINTS arguments runs the scalar loop per argument, the others
    share one run of _ratio_columns (the same bits)."""
    depth = len(rows)
    nj = len(jz)
    z = np.concatenate([jz, hz])
    orders = np.zeros(len(z), dtype=int) + l
    # the columns of the run: a contiguous range, j before h
    lo = 0 if nj > _SCALAR_POINTS else nj
    hi = len(z) if len(hz) > _SCALAR_POINTS else nj
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if hi > lo:
            _ratio_columns(orders[lo:hi], depth, z[lo:hi], nj - lo, rows[:, lo:hi])
        for k in [*range(lo), *range(hi, len(z))]:
            top = int(orders[k])
            loop = _jn_ratio_loop if k < nj else _h1n_ratio_loop
            rows[:, k] = loop(top - depth + 1, top, complex(z[k]))


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
