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
x = h_{n+1}/h_n (h is dominant), and x = j_{n+1}/j_n from
j_1/j_0 = 1/z - cot z below the turning point n ~ |z|, where neither
solution is minimal: the j column of order l runs up where
l <= |z| - 3 |z|^(1/3) - 2 |Im z| and |Im z| <= 3 (_upward).  Down:
x = j_{n-1}/j_n from a Miller start, the continued fraction of Lentz (1976,
Appl. Opt. 15, 668), everywhere else (j is minimal above the turning
point).  Against 50-digit ratios, on 463 points inside the rule (|z| 20 to
1000), the upward ratio was never more than twice the larger of the
continued fraction's error and 1e-13; both reach 2e-12 only next to a zero
of j_l at real z.  Above |Im z| = 3 the upward error grows like
e^(2 |Im z|) near the turning point (1e-12 at Im z = 5, |z| = 86, l = |z|).

A column starts where the growth of the recurrence allows (_starts).  The
two solutions separate by S(m, n) = 2 Re[z (G((n + 1/2)/z) - G((m + 1/2)/z))],
G(u) = u acosh u - sqrt(u - 1) sqrt(u + 1), between orders m and n, and a
column starts _SETTLE = 40 e-folds (plus _SPARE = 8 steps) from its kept
rows: a downward one at its Miller start M, never above the older rule
_miller_start, and an h column at an order s > 1 from x_s = (2s - 1)/z
where the orders below its kept rows allow it, or else at order 1 from
h_1/h_0 = 1/z - i.  In the band gap (l 110-131, k R ~ 66, n k R ~ 79i) a
column takes about 26 steps instead of 78 (j) or about 120 (h).  A
converged continued fraction forgets its start, so the j ratios keep their
bits; a forward-started h ratio at real z is real, where the run from
order 1 carries the j part of h = j + i y, about 1e-17 of it.

So one column loop serves both kinds and both directions, in any mix:
numpy runs each step for all columns at once, two calls per step, and
column k runs from its own start to its own order l_k and keeps its last
d_k ratios.  The three entry points give both kinds from one run,
sph_jn_h1n_ratios all lmax rows, sph_jn_h1n_ratio the ratio of order l,
and sph_jn_h1n_ratio_rows the ratios of orders lo..hi with the bits of
the one-order calls, from a column or two per argument and kind; a kind
with no arguments gives an empty result.  A call of up to
_SCALAR_POINTS (12) columns in all runs a scalar loop per column instead,
which is faster there and gives the same bits; so each call runs one loop.
The single-order ratios also take one order per argument: one run of the
recurrence then serves arguments of many orders, each ended at its own
order, with the bits of a call of that order alone.  The Bessel functions
take orders l >= 1 and finite z != 0, and give h_l^(1) a NaN column below
H1_IM_MIN.
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

# a column starts where the recurrence's two solutions have separated by at
# least _SETTLE e-folds at its kept rows (e^-40 = 4e-18 of the seed error
# is left), and _SPARE steps further out (see _starts)
_SETTLE = 40.0
_SPARE = 8


def _arguments(l, jz, hz) -> tuple[np.ndarray, int]:
    """jz and hz raveled to 1-D complex arrays and joined, j first, one
    column per argument, and the number of j arguments, after the check
    every Bessel function shares: the order l, or the 1-D array of one
    order per argument of each kind, is >= 1, and every argument is finite
    and != 0 (a start is an integer of |z|)."""
    jz, hz = (np.asarray(z, dtype=complex).ravel() for z in (jz, hz))
    if np.ndim(l):
        for points in (jz, hz):
            if np.ndim(l) != 1 or len(l) != len(points):
                raise ValueError(f"Bessel ratios need a 1-D array of one order per argument, "
                                 f"got orders of shape {np.shape(l)} for {len(points)} arguments")
        if (l < 1).any():
            raise ValueError(f"Bessel ratios need l >= 1, got l={l}")
    elif l < 1:
        raise ValueError(f"Bessel ratios need l >= 1, got l={l}")
    z = np.concatenate([jz, hz])
    if not (z.all() and np.isfinite(z).all()):
        raise ValueError("Bessel ratios need finite z != 0")
    return z, len(jz)


def _miller_start(l: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The cap on the Miller start of the downward column of order l_k at
    |z_k| = size_k: max(l_k, |z_k|) + 60 + 2 sqrt|z_k|, far enough above the
    turning point that seed contamination by the dominant solution decays
    below ~1e-12 by the time the column reaches l_k, wherever z_k lies.
    It was the start of every downward column before _downward_starts."""
    return np.maximum(l, size.astype(int)) + 60 + (2.0 * np.sqrt(size)).astype(int)


def _growth(n: np.ndarray, z: np.ndarray):
    """(g, xi) at each order n (floats) and argument z: g = Re[z G(u)] and
    xi = Re acosh u, u = (n + 1/2)/z, G(u) = u acosh u - sqrt(u - 1) sqrt(u + 1).

    A step of x <- (2n + 1)/z - 1/x at order n has the characteristic roots
    t +/- sqrt(t^2 - 1), t = u, and separates the recurrence's two solutions
    by 2 xi(n) e-folds (Gautschi 1967; DLMF 3.6), and the orders m to n by
    its integral S(m, n) = 2 (g(n) - g(m)), as dG/du = acosh u.  xi grows
    with n (the ray u crosses the confocal ellipses xi = const outward), so
    S(m, n) is convex in n.  As z u = n + 1/2, g is (n + 1/2) xi less
    Re sqrt((n + 1/2)^2 - z^2), the principal root being z sqrt(u - 1)
    sqrt(u + 1) for Re z > 0 and its value at -z (the same xi and S) for
    Re z < 0; at real z the real part is 0 below the turning point."""
    half = n + 0.5
    xi = np.arccosh(half / z).real
    return half * xi - np.sqrt(half * half - z * z).real, xi


def _downward_starts(l: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The Miller start M of the downward column of order l_k at each z_k:
    the lesser of two candidates that give S(l_k, M) >= _SETTLE (see
    _growth), plus _SPARE, and never above _miller_start.

    As S(l, M) is convex in M, a Newton step on it lands where
    S >= _SETTLE from any order.  From l it gives the linear candidate
    l + _SETTLE/(2 xi(l)); from the guess sqrt(l^2 + _SETTLE |z|^2/|Im z|)
    (xi ~ (n + 1/2) |Im z|/|z|^2 at small order and nearly imaginary z,
    where xi(l) is small) the quadratic one; at real z the guess is the
    cap, and below the turning point, where xi(l) = 0, the linear candidate
    is infinite.  Every operation is out of place, so numpy gives a column
    the same bits in arrays of any length."""
    size = np.abs(z)
    cap = _miller_start(l, size)
    guess = np.fmin(np.sqrt(l * l + _SETTLE * size * size / np.abs(z.imag)), cap)
    g, xi = _growth(np.concatenate([l, guess]), np.concatenate([z, z]))
    count = len(z)
    linear = l + 0.5 * _SETTLE / xi[:count]
    quadratic = guess + (0.5 * _SETTLE - (g[count:] - g[:count])) / xi[count:]
    # fmin passes over the NaN of a 0/0 step
    top = np.ceil(np.fmin(linear, quadratic)) + _SPARE
    return np.fmin(top, cap).astype(int)


def _forward_reaches(low: float, nearest: float) -> bool:
    """The call-level test of _forward_starts: whether an h column of a
    call whose highest lowest kept row is low and whose least |z| is
    nearest can start above order 1."""
    rise = low + 0.5 - nearest
    # 440 < 450 leaves the test room for rounding
    return rise > 0.0 and rise * rise * rise >= 440.0 * nearest


def _forward_rule(lows: np.ndarray, z: np.ndarray):
    """(start, settled): the forward start s_k of the h column at each z_k
    whose lowest kept row is lows_k, and where that start holds (see
    _forward_starts)."""
    size = np.abs(z)
    turning = size * size / np.abs(z.real)
    top = (lows + 0.5) / turning
    # NaN where top < 1, and so is every value that follows from it
    start = np.floor(lows - 0.5 * _SETTLE / np.arccosh(top)) - _SPARE
    # G at L/T and at (s + 1/2)/T, in one array
    v = np.concatenate([top, np.maximum((start + 0.5) / turning, 1.0)])
    big = v * np.arccosh(v) - np.sqrt(v * v - 1.0)
    return start, (start > 1.0) & (turning * (big[: len(z)] - big[len(z) :]) >= 0.5 * _SETTLE)


def _forward_starts(lows: np.ndarray, z: np.ndarray):
    """The start s_k of the upward h column at each z_k whose lowest kept
    row is lows_k, or None where every column starts at order 1.

    At any z, cosh xi >= |Re u| (see _growth), so
    xi >= acosh(m/T), m = n + 1/2, T = |z|^2/|Re z|, and
    S(s, lo) >= 2 T (G(L/T) - G((s + 1/2)/T)), L = lo + 1/2, with the real
    G(v) = v acosh v - sqrt(v^2 - 1) (0 below v = 1): equal at real z.  The
    column starts at s = floor(lo - _SETTLE/(2 rho)) - _SPARE,
    rho = acosh(L/T), from x_s = (2s - 1)/z, the mirror of the Miller seed
    r = 0, where s > 1 and that bound reaches _SETTLE (_forward_rule): the
    growth falls below lo, and the spare steps make up for it.  It starts
    at 1 elsewhere: rows from order 1, and h columns at or near their
    turning point, such as the below-gap ones (k R ~ 57-62, l 63-77).  As
    G(v) <= (2 sqrt 2/3) (v - 1)^(3/2), the bound needs (L - T)^3 >= 450 T,
    and T >= |z|; so a call whose largest lo + 1/2 and least |z| fail that
    (_forward_reaches) ends in three numpy calls."""
    if not (lows.size and _forward_reaches(float(lows.max()), float(np.abs(z).min()))):
        return None
    start, settled = _forward_rule(lows, z)
    if not settled.any():
        return None
    return np.where(settled, start, 1.0).astype(int)


def _forward_orders(lo: int, hi: int, z: np.ndarray):
    """(low, start): at each z_k the least order low_k of lo..hi at which a
    one-order call over all of z (sph_jn_h1n_ratio(low_k, ., z)) starts the
    h column at z_k above order 1, or hi + 1 where none does, and that
    start (1 where none).

    The call-level test (_forward_reaches, on the order and the least |z|)
    holds from one order on, found first.  A column's own rule
    (_forward_rule) holds from one order on too wherever T = |z|^2/|Re z|
    stays below about 280; above that an order or a few just past the first
    one that holds can fail it again, where the floor of the start jumps by
    two.  So each argument's order comes from a bisection on its rule, all
    arguments together, and where the rule changes back an order on the
    other side of low_k from its own call's kind takes the other column:
    the two differ by the j part of h = j + i y, e^(-40) of h or less past
    the first order that holds (about 1e-20 at k R = 279, l = 334), below
    one rounding (see sph_jn_h1n_ratio)."""
    n = len(z)
    low, start = np.full(n, hi + 1), np.ones(n)
    nearest = float(np.abs(z).min())
    if not _forward_reaches(float(hi), nearest):
        return low, start
    # the least order of the call-level test, from its root
    first = max(lo, int(nearest + (440.0 * nearest) ** (1.0 / 3.0)))
    while first > lo and _forward_reaches(float(first - 1), nearest):
        first -= 1
    while not _forward_reaches(float(first), nearest):
        first += 1
    # each argument's bracket (fail, low]: the rule fails at fail (or fail
    # lies below first) and holds at low (or low = hi + 1)
    fail = np.full(n, first - 1)
    pending, probe = np.arange(n), np.full(n, first)
    while pending.size:
        s, settled = _forward_rule(probe, z[pending])
        low[pending[settled]], start[pending[settled]] = probe[settled], s[settled]
        fail[pending[~settled]] = probe[~settled]
        pending = pending[low[pending] - fail[pending] > 1]
        probe = (low[pending] + fail[pending]) // 2
    return low, start


def _starts(orders: np.ndarray, depths, z: np.ndarray, down: int, jcount: int):
    """(starts, forward): the order from which each column's recurrence
    starts, for columns of orders l_k and depths d_k (or one depth) at z,
    and the starts of the h columns, or None where all of them start at 1.
    The first `down` columns are downward j columns (_downward_starts), the
    rest of the first jcount upward j columns, which start at 1, and the
    others h columns, which keep the rows l_k - d_k + 1 .. l_k
    (_forward_starts).  A column's start depends on its l_k, d_k and z_k
    alone: numpy gives an element the same bits in arrays of any length, so
    the scalar loop and the column loop take the same start."""
    starts = np.ones(len(z), dtype=int)
    if down:
        starts[:down] = _downward_starts(orders[:down], z[:down])
    forward = _forward_starts((orders - depths)[jcount:] + 1, z[jcount:])
    if forward is not None:
        starts[jcount:] = forward
    return starts, forward


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


def _upward_top(z: np.ndarray) -> np.ndarray:
    """The highest order whose j column at z runs upward, 0 where none:
    the floor of |z| - _UP_MARGIN |z|^(1/3) - 2 |Im z| where
    |Im z| <= _UP_IM_MAX."""
    size, im = np.abs(z), np.abs(z.imag)
    return np.where(im <= _UP_IM_MAX, np.floor(size - _UP_MARGIN * np.cbrt(size) - 2.0 * im), 0.0)


def _upward(l, z: np.ndarray) -> np.ndarray:
    """Where the j column of order l (one, or one per argument) at z runs
    upward (_upward_top)."""
    return l <= _upward_top(z)


def _first_ratios(z: np.ndarray, jcount: int, forward) -> np.ndarray:
    """The first values of upward columns at z: j_1/j_0 = 1/z - cot z in
    the first jcount, and in the others h_1/h_0 = 1/z - i, or (2s - 1)/z
    where forward, the h starts of _starts (or None), holds s > 1."""
    first = np.reciprocal(z)
    if jcount:
        first[:jcount] -= np.cos(z[:jcount]) / np.sin(z[:jcount])
    h = first[jcount:]
    h -= 1j
    if forward is not None:
        ahead = forward > 1
        h[ahead] = (2.0 * forward[ahead] - 1.0) * np.reciprocal(z[jcount:][ahead])
    return first


def _ratio_columns(orders: np.ndarray, depths, z: np.ndarray, starts: np.ndarray,
                   first: np.ndarray, rows: np.ndarray) -> None:
    """The ratios of orders l_k - d_k + 1 .. l_k of column k into the last
    d_k of the rows (shape (D, len(z)), D = max d_k), from one run of
    x <- (2n + 1)/z - 1/x for all columns: j_n/j_{n-1} downward in the
    columns before the last len(first), one per row from order l_k down,
    and j_n/j_{n-1} or h_n/h_{n-1} upward from the first values `first`
    (see _first_ratios) in the last len(first), one per row up to order
    l_k.  orders holds l_k, depths d_k (or one depth for all) and starts
    the order s_k from which each column starts (see _starts).

    A downward column steps s_n = 1/r_n = j_{n-1}/j_n down from
    s = (2M + 1)/z (r = 0 above its start M = s_k) to order l_k - d_k + 1,
    and its rows hold s until one call at the end inverts them; an upward
    column steps x_n from x_{s_k} = first to order l_k.  The run ends with
    every column's last step: column k joins at the step from which its own
    steps just reach the last row, and until then holds values that nothing
    reads.  So a column's values depend on its own argument, order, depth
    and start alone, and are the bits of the scalar loop.  The steps at
    which columns join and the rows the steps write are laid out before the
    loop, so a step is two numpy calls.

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
    # the steps of each column, its first value included, and the step at
    # which it joins
    steps = np.concatenate([starts[:down] - (orders - depths)[:down],
                            (orders - starts)[down:] + 1])
    total = int(steps.max())
    join = total - steps
    # 2n + 1 at step t is base + slope t: n falls from the start M of a
    # downward column, whose join takes 2M + 1, and rises from the start s
    # of an upward one, whose join takes 2s - 1 (the step from x_n to
    # x_{n+1} takes 2n + 1)
    slope = np.full(n, 2.0)
    slope[:down] = -2.0
    base = 2.0 * starts - slope * (join + 0.5)
    seeds = np.concatenate([(2.0 * starts[:down] + 1.0) * zinv[:down], first])
    x = np.ones(n, dtype=complex)
    inverse = np.empty_like(x)
    # the state array takes the steps before the last D, which write the rows
    outs = [x] * (total - len(rows)) + list(rows)
    # the columns that join at each step, from the columns sorted by join
    joining: list = [None] * total
    by_join = np.argsort(join, kind="stable")
    ordered = join[by_join]
    bounds = [0, *(np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist(), n]
    for t, lo, hi in zip(ordered[bounds[:-1]].tolist(), bounds[:-1], bounds[1:]):
        joining[t] = by_join[lo:hi]
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
                out[columns] = seeds[columns]
    np.reciprocal(rows[:, :down], out=rows[:, :down])


def _ratios(l, z: np.ndarray, nj: int, rows: np.ndarray) -> None:
    """The ratios of orders l_k - depth + 1 .. l_k (depth = len(rows)) of
    j_l at each of the first nj arguments of z and h_l^(1) at each of the
    others into the columns of rows, j from order l_k down, h up to order
    l_k, where l is an order or one order l_k per column.

    The run takes the j columns that _upward selects with the h columns,
    upward, and the others downward, each from its start (_starts).  A call
    of up to _SCALAR_POINTS columns runs the scalar loop per column, a
    wider one a single run of _ratio_columns over all of them (the same
    bits).  An upward j column's rows are turned to run from order l_k
    down, like the others."""
    depth, n = len(rows), len(z)
    orders = l if np.ndim(l) else np.full(n, l)
    up = _upward(orders[:nj], z[:nj])
    down = nj - int(np.count_nonzero(up))
    out = rows
    if 0 < down < nj:
        # the columns by direction: downward j, then upward j, then h
        order = np.concatenate([np.flatnonzero(~up), np.flatnonzero(up), np.arange(nj, n)])
        z, orders, out = z[order], orders[order], np.empty_like(rows)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        starts, forward = _starts(orders, depth, z, down, nj)
        first = _first_ratios(z[down:], nj - down, forward)
        if n > _SCALAR_POINTS:
            _ratio_columns(orders, depth, z, starts, first, out)
        else:
            firsts, columns = first.tolist(), []
            for k, (top, start, zk) in enumerate(zip(orders.tolist(), starts.tolist(),
                                                     z.tolist())):
                if k < down:
                    # s = 1/r from (2M + 1)/z down to order top - depth + 1
                    odds = range(2 * start - 1, 2 * (top - depth) + 1, -2)
                    s = _scalar_loop((2 * start + 1) * (1.0 / zk), odds, zk, depth)
                    columns.append([1.0 / v for v in s])
                else:
                    odds = range(2 * start + 1, 2 * top, 2)
                    columns.append(_scalar_loop(firsts[k - down], odds, zk, depth))
            out[:] = np.array(columns, dtype=complex).T
    if down < nj and depth > 1:
        out[:, down:nj] = out[::-1, down:nj]
    if out is not rows:
        rows[:, order] = out


def sph_jn_h1n_ratios(lmax: int, jz, hz) -> tuple[np.ndarray, np.ndarray]:
    """The rows 0..lmax of j_l at each argument of jz and of h_l^(1) at each
    of hz, one column per argument, from one run of the column loop: j_0 or
    h_0 = -i e^{iz}/z in row 0 and the ratios f_n/f_{n-1} in rows n >= 1.
    The lmax write steps fill rows lmax..1 of the j columns and rows 1..lmax
    of the h columns of one array in place; the j rows are a view of it from
    the other end.  The h rows start at order 1 (their lowest kept row), so
    h row n is the ratio of order n.

    j row 0 is j_0 = sin z / z, or j_1/(j_1/j_0) where |j_1| is the larger:
    the two have no common zeros, so the product is always anchored well
    (j_0 alone fails near sin z = 0); it is non-finite where j_0 leaves
    float64.
    """
    z, nj = _arguments(lmax, jz, hz)
    both = np.empty((lmax + 2, len(z)), dtype=complex)
    _ratios(lmax, z, nj, both[1:-1])
    rj, rh = both[:0:-1, :nj], both[:-1, nj:]
    jz, hz = z[:nj], z[nj:]
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
    hz): the ratio of order l from the loops of sph_jn_h1n_ratios.  l is one
    order, or a 1-D array of orders that serves both kinds, one per argument
    of jz and one per argument of hz.

    It is the last row of sph_jn_h1n_ratios(l, jz, hz) bit for bit wherever
    both start alike: in every j column, and in the h columns that start at
    order 1.  An h column that keeps only order l may start higher
    (_forward_starts); its ratio then agrees with the row to about 1e-17 at
    real z (the row carries the j part of h = j + i y, the forward start
    does not) and to about 1e-14 at z = 30 - 4i, and both keep the 1e-12
    of the Bessel tests against 50-digit ratios."""
    z, nj = _arguments(l, jz, hz)
    rows = np.empty((1, len(z)), dtype=complex)
    _ratios(np.concatenate([l, l]) if np.ndim(l) else l, z, nj, rows)
    r, q = rows[0, :nj], rows[0, nj:]
    q[z[nj:].imag < H1_IM_MIN] = np.nan
    return r, q


def sph_jn_h1n_ratio_rows(lo: int, hi: int, jz, hz) -> tuple[np.ndarray, np.ndarray]:
    """(j_l/j_{l-1} at each argument of jz, h_l^(1)/h_{l-1}^(1) at each of
    hz) for l = lo..hi, one row per order from lo and one column per
    argument, each with the bits of sph_jn_h1n_ratio(l, jz, hz), from one
    run of the column loop with one or two columns per argument and kind,
    each keeping the rows lo..hi.

    An argument's orders split where a one-order call would change its
    column: the j orders up to the highest that runs upward (_upward_top)
    are read from a column upward from order 1, the others from one
    downward from the Miller start of hi; the h orders below the least one
    whose one-order call starts above 1 (_forward_orders) from a column
    from order 1, the others from one from that order's forward start.  An
    upward run from order 1 is the one sequence of all its orders, so it
    keeps their bits exactly; the continued fraction from hi's start and
    the forward start of the least order forget their starts after _SETTLE
    e-folds, as those of one-order calls do, and keep the bits but for a
    rounding tie.  Each column keeps all the rows, and a two-column
    argument reads each from its own orders.  A call always runs the column
    loop, never the scalar one.
    """
    z, nj = _arguments(hi, jz, hz)
    if not 1 <= lo <= hi:
        raise ValueError(f"Bessel ratio rows need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    depth, hz = hi - lo + 1, z[nj:]
    out = np.empty((depth, len(z)), dtype=complex)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        low, forward = _forward_orders(lo, hi, hz)
        # the first order of each argument's upper column: downward j, or
        # forward h; the orders below it take the column from order 1
        split = np.concatenate([np.clip(_upward_top(z[:nj]) + 1, lo, hi + 1), low]).astype(int)
        upper, lower = np.flatnonzero(split <= hi), np.flatnonzero(split > lo)
        down = int(np.searchsorted(upper, nj))
        args = np.concatenate([upper[:down], lower, upper[down:]])
        ahead = down + len(lower)
        starts = np.ones(len(args), dtype=int)
        if down:
            starts[:down] = _downward_starts(np.full(down, hi), z[args[:down]])
        starts[ahead:] = forward[args[ahead:] - nj]
        jcount = down + int(np.searchsorted(lower, nj))
        first = _first_ratios(z[args[down:]], jcount - down, starts[jcount:])
        rows = np.empty((depth, len(args)), dtype=complex)
        _ratio_columns(np.full(len(args), hi), depth, z[args], starts, first, rows)
    # a downward column's rows run from order hi down
    rows[:, :down] = rows[::-1, :down]
    if len(args) == len(z):
        out[:, args] = rows
    else:
        # an argument with two columns reads its upper one from its split on
        out[:, args[down:ahead]] = rows[:, down:ahead]
        cols = np.r_[:down, ahead : len(args)]
        above = np.arange(lo, hi + 1)[:, None] >= split[args[cols]]
        out[:, args[cols]] = np.where(above, rows[:, cols], out[:, args[cols]])
    rj, rh = out[:, :nj], out[:, nj:]
    rh[:, hz.imag < H1_IM_MIN] = np.nan
    return rj, rh


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
