import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphereqed import special
from sphereqed.microsphere import DrudeLorentzParams, permittivity, refractive_index, size_parameter
from sphereqed.special import (
    H1_IM_MIN,
    legendre_all,
    sph_jn_h1n_ratio,
    sph_jn_h1n_ratio_rows,
    sph_jn_h1n_ratios,
)

from oracles import (
    mp_bessel_ratio,
    mp_growth,
    mp_riccati_deriv,
    mp_spherical_h1,
    mp_spherical_j,
    mp_spherical_y,
)

# frozen 40-digit mpmath reference values
J5_10_01J = -0.055801299344828602026 - 0.0072338287921614050315j
H20_66 = 0.0014384911132083924027 - 0.015473581885453394935j
J40_2_30J = -3.3414665343430420528 + 0.5726270329471368046j
H7_08_03J = -138964.29244334217464 + 465745.4934348508527j


def rel_err(a, b):
    return abs(a - b) / abs(b)


def ratios(kind, l, z, rows=False):
    """One kind of the pair functions, j_l (kind 'J') or h_l^(1) ('H1'):
    the rows 0..l of sph_jn_h1n_ratios if rows, else the ratio of order l of
    sph_jn_h1n_ratio.  The other kind gets no arguments, or, for an array of
    orders, which holds one order per argument of each kind, the same
    arguments, and its half is dropped."""
    pair = sph_jn_h1n_ratios if rows else sph_jn_h1n_ratio
    other = z if np.ndim(l) else ()
    rj, rh = pair(l, z, other) if kind == "J" else pair(l, other, z)
    return rj if kind == "J" else rh


def forward_started(l, hz):
    """Where the h column of order l that keeps only that order starts
    above order 1 (special._forward_starts), at each argument of hz."""
    hz = np.asarray(hz, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        starts = special._forward_starts(np.full(len(hz), l), hz)
    return np.zeros(len(hz), dtype=bool) if starts is None else starts > 1


# the kinds of the single-order ratio and of the rows, under their test ids
RATIO_KINDS = [pytest.param("J", id="sph_jn_ratio"), pytest.param("H1", id="sph_h1n_ratio")]
ROW_KINDS = [pytest.param("J", id="sph_jn_ratios"), pytest.param("H1", id="sph_h1n_ratios")]


def jn(lmax, z):
    """j_l(z) for l = 0..lmax: the float64 running product of the j rows,
    as the rate kernel forms it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(ratios("J", lmax, z, rows=True), axis=0)


def h1n(lmax, z):
    """h_l^(1)(z) for l = 0..lmax: the float64 running product of the h
    rows, as the rate kernel forms it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(ratios("H1", lmax, z, rows=True), axis=0)


def riccati(kind, l, z):
    """[z f_l(z)]' at order l and one argument z, f = j_l (kind 'J') or
    h_l^(1) (kind 'H1'): z f_{l-1} - l f_l, and f_0 - z f_1 at l = 0."""
    f = (jn if kind == "J" else h1n)(l + 1, z)[:, 0]
    if l == 0:
        return f[0] - z * f[1]
    return z * f[l - 1] - l * f[l]


class TestSphericalJ:
    def test_j0_closed_form(self):
        assert rel_err(jn(1, 1.0)[0, 0], math.sin(1.0)) < 1e-14

    def test_j1_small_argument_limit(self):
        z = 1e-4
        assert rel_err(jn(1, z)[1, 0], z / 3.0) < 1e-8

    def test_j5_complex_frozen_oracle(self):
        assert rel_err(jn(5, 10 + 0.1j)[5, 0], J5_10_01J) < 1e-12

    def test_j40_large_imaginary(self):
        assert rel_err(jn(40, 2 + 30j)[40, 0], J40_2_30J) < 1e-12

    def test_zero_argument_limits(self):
        # j_0 -> 1 and j_3 -> z^3/105 as z -> 0; z = 0 itself is refused
        z = 1e-8
        assert jn(3, z)[0, 0] == 1.0
        assert rel_err(jn(3, z)[3, 0], z**3 / 105.0) < 1e-14
        with pytest.raises(ValueError):
            ratios("J", 3, 0.0, rows=True)

    def test_near_sin_zero_normalization(self):
        # kr = 6*pi sits at a zero of sin z; the l=0-only normalization fails there
        z = 6.0 * math.pi
        assert rel_err(jn(8, z)[8, 0], mp_spherical_j(8, z)) < 1e-12

    @pytest.mark.parametrize("l,z", [(80, 3.0 + 0.5j), (150, 120.0), (12, 400.0 + 40j)])
    def test_against_multiprecision(self, l, z):
        assert rel_err(jn(l, z)[l, 0], mp_spherical_j(l, z)) < 1e-10

    def test_high_order_underflows_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = jn(300, 0.5)
        assert np.all(np.isfinite(out))


class TestSphericalH1:
    def test_h0_closed_form(self):
        want = math.sin(1.0) - 1j * math.cos(1.0)
        assert rel_err(h1n(1, 1.0)[0, 0], want) < 1e-14

    def test_h1_closed_form(self):
        want = -np.exp(1j) * (1.0 + 1j)
        assert rel_err(h1n(1, 1.0)[1, 0], want) < 1e-14

    def test_h20_66_frozen_oracle(self):
        assert rel_err(h1n(20, 66.0)[20, 0], H20_66) < 1e-12

    def test_h20_66_wronskian(self):
        # j_l h_l' - j_l' h_l = i / z^2
        z = 66.0
        j = jn(21, z)[19:, 0]
        h = h1n(21, z)[19:, 0]
        jp = j[0] - 21.0 / z * j[1]
        hp = h[0] - 21.0 / z * h[1]
        assert rel_err(j[1] * hp - jp * h[1], 1j / z**2) < 1e-10

    def test_complex_frozen_oracle(self):
        assert rel_err(h1n(7, 0.8 + 0.3j)[7, 0], H7_08_03J) < 1e-12

    def test_diverges_at_zero(self):
        with pytest.raises(ValueError):
            ratios("H1", 1, 0.0, rows=True)

    def test_overflow_signalled(self):
        # the ratio rows stay finite where h_l overflows, and the product
        # shows the overflow as non-finite values, not as finite wrong ones
        assert np.all(np.isfinite(ratios("H1", 300, 0.5, rows=True)))
        assert not np.all(np.isfinite(h1n(300, 0.5)))

    @pytest.mark.parametrize("l,z", [(60, 45.0), (15, 8.0 - 2.0j), (110, 90.0 + 10.0j)])
    def test_against_multiprecision(self, l, z):
        assert rel_err(h1n(l, z)[l, 0], mp_spherical_h1(l, z)) < 1e-10


class TestHankelBelowAxis:
    """Below the real axis the upward recurrence loses about
    eps * e^(2 |Im z|): it must stay accurate down to H1_IM_MIN and give
    arguments beyond it a NaN column instead of wrong values."""

    @pytest.mark.parametrize("im", [-0.5, -2.0, H1_IM_MIN])
    @pytest.mark.parametrize("re", [0.8, 8.0, 22.3, 59.7])
    def test_against_multiprecision(self, re, im):
        z = complex(re, im)
        arr = h1n(69, z)[:, 0]
        cols = h1n(69, np.array([z, re]))
        for l in (0, 1, 10, 39, 69):
            want = mp_spherical_h1(l, z)
            assert rel_err(arr[l], want) < 1e-11
            assert rel_err(cols[l, 0], want) < 1e-11

    @pytest.mark.parametrize("l,z", [(39, 22.3 - 20.8j), (69, 59.7 - 13.6j)])
    def test_refused_below_the_line(self, l, z):
        assert np.isnan(ratios("H1", l, z, rows=True)).all()
        assert np.isnan(riccati("H1", l, z))
        # among other arguments the refused column is non-finite and the
        # others are computed as before
        cols = h1n(l, np.array([z, z.real, z.conjugate()]))
        assert not np.any(np.isfinite(cols[:, 0]))
        assert np.array_equal(cols[:, 1], h1n(l, np.array([z.real]))[:, 0])
        assert np.array_equal(cols[:, 2], h1n(l, np.array([z.conjugate()]))[:, 0])


class TestRiccatiDeriv:
    def test_j0_at_pi(self):
        # z j_0 = sin z, derivative cos z
        assert abs(riccati("J", 0, math.pi) - math.cos(math.pi)) < 1e-14

    def test_h0_at_one(self):
        # z h_0 = -i e^{iz}, derivative e^{iz}
        assert rel_err(riccati("H1", 0, 1.0), np.exp(1j)) < 1e-14

    def test_j3_central_difference(self):
        z = 5.0 + 1.0j
        h = 1e-6
        fd = ((z + h) * jn(3, z + h)[3, 0] - (z - h) * jn(3, z - h)[3, 0]) / (2 * h)
        assert rel_err(riccati("J", 3, z), fd) < 1e-6

    @pytest.mark.parametrize("kind", ["J", "H1"])
    @pytest.mark.parametrize("l,z", [(2, 3.0 + 0.2j), (25, 17.0 - 4.0j)])
    def test_against_multiprecision(self, kind, l, z):
        assert rel_err(riccati(kind, l, z), mp_riccati_deriv(kind, l, z)) < 1e-10


class TestLegendre:
    @pytest.mark.parametrize("l", [0, 1, 7, 64, 200])
    def test_at_plus_one(self, l):
        assert legendre_all(l, 1.0)[l, 0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2, 13, 121, 200])
    def test_at_minus_one(self, l):
        assert legendre_all(l, -1.0)[l, 0] == pytest.approx((-1.0) ** l, abs=1e-12)

    def test_p2_half(self):
        assert legendre_all(2, 0.5)[2, 0] == pytest.approx(-0.125, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            legendre_all(3, 1.5)


def neighbourhood_scale(values):
    """max |f_{l-1}|, |f_l|, |f_{l+1}| per order: the scale a three-term
    recurrence works at, which does not vanish where f_l nears a zero."""
    m = np.abs(values)
    scale = m.copy()
    scale[1:] = np.maximum(scale[1:], m[:-1])
    scale[:-1] = np.maximum(scale[:-1], m[1:])
    return scale


# arguments of the scalar tests above plus a spread over the hypothesis domains
_RNG = np.random.default_rng(7)
J_ARGS = np.concatenate([
    [1.0, 1e-4, 10 + 0.1j, 2 + 30j, 6 * math.pi, 3 + 0.5j, 120.0, 400 + 40j, 1e-8],
    _RNG.uniform(0.5, 200.0, 8),
    _RNG.uniform(-60.0, 60.0, 8) + 1j * _RNG.uniform(-25.0, 25.0, 8),
])
# more arguments than the scalar loop takes, so that h1n runs the column loop
H_ARGS = np.array([1.0, 66.0, 0.8 + 0.3j, 2.5, 55.0, 80.0, 45.0, 8 - 2j, 90 + 10j, 15 + 3j,
                   5 + 20j, 30.0, 3 + 1j])


class TestArrayArguments:
    """A 1-D argument array gives one column per argument, whose running
    product equals the scalar call's to 1e-13 relative.  The Legendre
    columns are the scalar call's bits, so a rate point's cross rate does not
    depend on the other cosines of its block."""

    @pytest.mark.parametrize("lmax", [1, 40, 150])
    def test_sph_jn_columns(self, lmax):
        cols = jn(lmax, J_ARGS)
        assert cols.shape == (lmax + 1, len(J_ARGS))
        for k, z in enumerate(J_ARGS):
            want = jn(lmax, z)[:, 0]
            assert np.all(np.abs(cols[:, k] - want) <= 1e-13 * neighbourhood_scale(want))

    @pytest.mark.parametrize("lmax", [1, 15, 60, 120])
    def test_sph_h1n_columns(self, lmax):
        assert len(H_ARGS) > special._SCALAR_POINTS
        cols = h1n(lmax, H_ARGS)
        assert cols.shape == (lmax + 1, len(H_ARGS))
        for k, z in enumerate(H_ARGS):
            want = h1n(lmax, z)[:, 0]
            assert np.all(np.abs(cols[:, k] - want) <= 1e-13 * np.abs(want))

    def test_sph_h1n_overflow_stays_in_its_column(self):
        cols = h1n(300, np.array([0.5, 66.0]))
        assert not np.all(np.isfinite(cols[:, 0]))
        assert np.all(np.abs(cols[:, 1] - h1n(300, 66.0)[:, 0]) <= 1e-13 * np.abs(cols[:, 1]))

    def test_legendre_columns(self):
        x = np.array([-1.0, -0.3, 0.0, 0.5, 0.9999, 1.0])
        cols = legendre_all(200, x)
        for k, xk in enumerate(x):
            assert np.array_equal(cols[:, k], legendre_all(200, xk)[:, 0])
        with pytest.raises(ValueError):
            legendre_all(3, np.array([0.5, 1.5]))


def demo_arguments(l, omegas):
    """(l, z1, z2) at k R and n k R of the demo sphere (omega_p = 0.5,
    gamma = 1e-6, R = 10), one entry per frequency."""
    z1 = size_parameter(np.asarray(omegas), 10.0)
    z2 = refractive_index(permittivity(DrudeLorentzParams(0.5, 1e-6), np.asarray(omegas))) * z1
    return l, z1, z2


# k R, k r (atoms at r = 10.14) and n k R of the demo sphere across the
# windows of the rate sweeps
_OMEGAS = np.array([0.9, 0.95, 0.99, 1.01, 1.04, 1.0501, 1.0535])
DEMO_J_ARGS = np.concatenate([
    demo_arguments(0, _OMEGAS)[1], size_parameter(_OMEGAS, 10.14), demo_arguments(0, _OMEGAS)[2],
])


def test_jn_product_at_demo_arguments():
    """The running product of the j rows, on both paths, against
    mpmath, to 1e-13 of max(|j_l|, |y_l|): the scale of h_l, which does not
    vanish where j_l nears a zero."""
    cols = jn(200, DEMO_J_ARGS)
    for k, z in enumerate(DEMO_J_ARGS):
        one = jn(200, z)[:, 0]
        for l in (0, 1, 2, 30, 70, 121, 200):
            want = mp_spherical_j(l, z)
            tol = 1e-13 * max(abs(want), abs(mp_spherical_y(l, z)))
            assert abs(one[l] - want) <= tol
            assert abs(cols[l, k] - want) <= tol


# (l, k R, n k R) where the resonance search reads the ratios
RATIO_POINTS = {
    "band gap": demo_arguments(121, [1.0501, 1.04, 1.08]),
    "below the gap": demo_arguments(70, [0.925, 0.95, 0.3]),
    "complex omega": demo_arguments(1, [0.3 - 0.07j, 1.0501 - 5e-7j, 0.93 - 0.002j]),
    "l = 300": demo_arguments(300, [0.2, 0.25, 1.1]),
    # beyond the rate sum's cap, where the search still reads the ratios
    "l = 400": demo_arguments(400, [1.0501, 1.059, 0.925]),
    "l = 1000": demo_arguments(1000, [1.0501, 0.925, 0.3]),
    "next to omega = 1": demo_arguments(121, [1 - 5e-6, 1 + 5e-6, 1 - 1e-5, 1 + 1e-5]),
}


def ratio_point_call(kind, name):
    """One call on the arguments of every RATIO_POINTS entry, each at its
    own order: more columns than the scalar loop takes, so the column loop
    runs them.  Returns the call's ratios at the arguments of `name`, and
    those arguments (j at k R and n k R, h at k R)."""
    orders, args, start = [], [], 0
    for key, (l, z1, z2) in RATIO_POINTS.items():
        z = np.concatenate([z1, z2]) if kind == "J" else z1
        if key == name:
            own = slice(start, start + len(z))
        orders.append(np.full(len(z), l))
        args.append(z)
        start += len(z)
    z = np.concatenate(args)
    assert len(z) > special._SCALAR_POINTS
    return ratios(kind, np.concatenate(orders), z)[own], z[own]


@pytest.mark.parametrize("name", list(RATIO_POINTS))
class TestBesselRatios:
    """j_l/j_{l-1} and h_l/h_{l-1} on both paths against mpmath ratios that
    never pass through complex128, at k R and n k R of the demo sphere: the
    scalar loop by one argument, the column loop by one call on the
    arguments of every entry."""

    @pytest.mark.parametrize("kind", ["J", "H1"])
    def test_against_multiprecision(self, name, kind):
        cols, z = ratio_point_call(kind, name)
        l = RATIO_POINTS[name][0]
        # the search reads j_l at n k R and h_l at k R; j_l is checked at both
        for k, zk in enumerate(z):
            want = mp_bessel_ratio(kind, l, zk)
            assert abs(ratios(kind, l, zk)[0] - want) <= 1e-12 * abs(want)
            assert abs(cols[k] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", ["J", "H1"])
    def test_scalar_and_column_paths_agree(self, name, kind):
        cols, z = ratio_point_call(kind, name)
        l = RATIO_POINTS[name][0]
        for k, zk in enumerate(z):
            (one,) = ratios(kind, l, zk)
            # the two paths make the same operations (they agree to the
            # last bit with numpy 2.4), so a point's ratio does not depend
            # on the other arguments of its call
            assert abs(cols[k] - one) <= 1e-15 * abs(one)
            # a one-element array takes the scalar loop
            assert ratios(kind, l, z[k : k + 1])[0] == one
        # and so does a call on this entry's arguments alone
        assert np.array_equal(ratios(kind, l, z), [ratios(kind, l, zk)[0] for zk in z])


# arguments whose j columns of orders UP_J_ORDERS (and of every lower
# order) lie inside the rule of special._upward, real and complex, so
# that j runs upward there
UP_J_ARGS = np.array([1200.0, 400 + 2.5j, 150 - 1j, 80 + 0.5j, 20.0, 12.0])
UP_J_ORDERS = np.array([1000, 300, 121, 64, 7, 1])

# k R of the demo sphere at real and complex frequencies, k r, and
# arguments on the line Im z = H1_IM_MIN: more than the scalar loop takes,
# so a call on all of them runs the column loop
H_ROW_ARGS = np.concatenate([
    size_parameter(np.array([1.0501, 0.925, 0.3, 0.2, 0.3 - 0.07j, 1.0501 - 5e-7j, 0.95, 1.04]),
                   10.0),
    [80.0, 0.8 + 1j * H1_IM_MIN, 22.3 + 1j * H1_IM_MIN, 59.7 + 1j * H1_IM_MIN, 3 + 2j],
])


class TestHankelRatioRows:
    """The h rows, h_0 and h_n/h_{n-1}, on the column loop (all arguments in
    one call) and on the scalar loop (one argument)."""

    def test_against_multiprecision(self):
        assert len(H_ROW_ARGS) > special._SCALAR_POINTS
        cols = ratios("H1", 300, H_ROW_ARGS, rows=True)
        assert cols.shape == (301, len(H_ROW_ARGS))
        for k, z in enumerate(H_ROW_ARGS):
            one = ratios("H1", 300, z, rows=True)[:, 0]
            for l in (1, 121, 300):
                want = mp_bessel_ratio("H1", l, z)
                assert abs(cols[l, k] - want) <= 1e-12 * abs(want)
                assert abs(one[l] - want) <= 1e-12 * abs(want)
            want = mp_spherical_h1(0, z)
            assert abs(cols[0, k] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", ROW_KINDS)
    def test_scalar_and_column_loops_agree_bit_for_bit(self, kind):
        # a point's rows do not depend on the other arguments of its call,
        # so the rate kernel's values do not depend on how points are grouped
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        cols = ratios(kind, 300, z, rows=True)
        for k, zk in enumerate(z):
            one = ratios(kind, 300, np.array([zk]), rows=True)[:, 0]
            assert np.array_equal(cols[:, k], one, equal_nan=True)

    @pytest.mark.parametrize("kind", RATIO_KINDS)
    def test_single_order_loops_agree_bit_for_bit(self, kind):
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        for l in (1, 121, 300):
            assert np.array_equal(ratios(kind, l, z), [ratios(kind, l, zk)[0] for zk in z])

    @pytest.mark.parametrize("kind", [pytest.param("J", id="sph_jn_ratios-sph_jn_ratio"),
                                      pytest.param("H1", id="sph_h1n_ratios-sph_h1n_ratio")])
    @pytest.mark.parametrize("count", [4, special._SCALAR_POINTS, special._SCALAR_POINTS + 1,
                                       len(UP_J_ARGS) + len(H_ROW_ARGS) + len(DEMO_J_ARGS)],
                             ids=["scalar loop", "scalar loop, both kinds",
                                  "column loop, both kinds", "column loop"])
    def test_last_row_is_the_single_order_ratio(self, kind, count):
        # the rows and the single-order ratio run the same loop, which
        # keeps the last lmax ratios or the last one; the UP_J_ARGS take j
        # upward up to their orders, and the loop turns their rows to run
        # from order lmax down.  A call of _SCALAR_POINTS columns, the widest
        # on the scalar loop, and one of a column more mix downward j, upward
        # j and h columns.  The j ratios and the h ratios that start at
        # order 1 in both calls are the row's bits; an h ratio that keeps
        # only order l may start higher (special._forward_starts), and is
        # then held to the 1e-12 of TestBesselRatios against mpmath
        z = np.concatenate([UP_J_ARGS, H_ROW_ARGS, DEMO_J_ARGS])[:count]
        jz, hz = (z, z[:0]) if kind == "J" else (z[:0], z)
        if count in (special._SCALAR_POINTS, special._SCALAR_POINTS + 1):
            jz = np.concatenate([UP_J_ARGS[:3], DEMO_J_ARGS[:3]])
            hz = H_ROW_ARGS[: count - len(jz)]
            up = special._upward(121, jz)
            assert up.any() and not up.all()
        for l in (1, 121, 300):
            rj, rh = sph_jn_h1n_ratios(l, jz, hz)
            r, q = sph_jn_h1n_ratio(l, jz, hz)
            assert np.array_equal(rj[l], r)
            ahead = forward_started(l, hz)
            assert np.array_equal(rh[l][~ahead], q[~ahead], equal_nan=True)
            for zk, got in zip(hz[ahead], q[ahead]):
                want = mp_bessel_ratio("H1", l, zk)
                assert abs(got - want) <= 1e-12 * abs(want)
            # order 1 starts at 1; at 121 and 300 some h argument of every
            # call lies far enough below its order to start higher
            assert ahead.any() == (l > 1 and len(hz) > 0)
        if kind == "H1":
            # the rows start at order 1: row n is the ratio of order n, the
            # bits of a call of order n where that starts at order 1 too,
            # and within 1e-12 where it starts higher
            rh = sph_jn_h1n_ratios(300, jz, hz)[1]
            for n in range(1, 301):
                q = sph_jn_h1n_ratio(n, jz, hz)[1]
                ahead = forward_started(n, hz)
                assert np.array_equal(rh[n][~ahead], q[~ahead], equal_nan=True)
                assert np.all(np.abs(q[ahead] - rh[n][ahead]) <= 1e-12 * np.abs(rh[n][ahead]))

    def test_far_above_the_axis(self):
        # h ratios at Im z of 200-500, where h_l decays like e^{-Im z} and
        # the 50-digit ratio comes through K_nu (oracles.mp_bessel_ratio):
        # the single-order ratio on the column loop (all arguments in one
        # call) and on the scalar loop (one argument), and the rows
        hz = np.array([200j, 0.06 + 493.5j, 300 + 200j, -5 + 250j, 30 + 350j, 66 + 420j,
                       1 + 300j, 500j, 120 + 260j, -80 + 380j, 10 + 225j, 250 + 450j, 0.5 + 333j])
        assert len(hz) > special._SCALAR_POINTS
        rows = ratios("H1", 121, hz, rows=True)
        for l in (1, 2, 60, 121):
            cols = ratios("H1", l, hz)
            for k, z in enumerate(hz):
                want = mp_bessel_ratio("H1", l, z)
                assert abs(cols[k] - want) <= 1e-12 * abs(want)
                assert abs(ratios("H1", l, z)[0] - want) <= 1e-12 * abs(want)
                assert abs(rows[l, k] - want) <= 1e-12 * abs(want)

    def test_domain(self):
        below = 20.0 + (H1_IM_MIN - 0.5) * 1j
        assert np.isnan(ratios("H1", 5, below, rows=True)).all()
        rows = ratios("H1", 5, np.array([below, 20.0]), rows=True)
        assert np.isnan(rows[:, 0]).all() and np.isfinite(rows[:, 1]).all()
        with pytest.raises(ValueError):
            ratios("H1", 5, np.array([1.0, 0.0]), rows=True)


# orders of a many-order resonance search, one per argument, cycling
# through low, band-gap, cap and beyond-cap orders
MIXED_ORDERS = (1, 121, 300, 1000, 7, 64)


def mixed_orders(n):
    return np.resize(MIXED_ORDERS, n)


@pytest.mark.parametrize("kind", RATIO_KINDS)
class TestOrderPerArgument:
    """The single-order ratios with one order per argument: one recurrence
    run serves arguments of many orders."""

    def test_bits_of_single_order_calls(self, kind):
        # the column loop seeds and reads out each argument at its own
        # order, so its value is the bits of a call of that order alone,
        # on the scalar loop and on the column loop of one order
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        orders = mixed_orders(len(z))
        cols = ratios(kind, orders, z)
        assert cols.shape == z.shape
        one_order = {l: ratios(kind, l, z) for l in MIXED_ORDERS}
        for k, (l, zk) in enumerate(zip(orders.tolist(), z)):
            assert np.array_equal(cols[k], ratios(kind, l, zk)[0], equal_nan=True)
            assert np.array_equal(cols[k], one_order[l][k], equal_nan=True)
        # up to the scalar-loop size the loop runs per argument
        few = ratios(kind, orders[:4], z[:4])
        assert np.array_equal(few, cols[:4], equal_nan=True)

    def test_against_multiprecision_at_mixed_orders(self, kind):
        # the RATIO_POINTS of orders 1, 121, 300, 400 and 1000 in one call; j_l
        # is read at k R and n k R, h_l at k R
        points = [RATIO_POINTS[name] for name in ("complex omega", "band gap", "l = 300",
                                                  "l = 400", "l = 1000")]
        orders = np.concatenate([np.full(len(z1), l) for l, z1, _ in points])
        z = np.concatenate([z1 for _, z1, _ in points])
        if kind == "J":
            orders = np.concatenate([orders, orders])
            z = np.concatenate([z] + [z2 for _, _, z2 in points])
        assert len(z) > special._SCALAR_POINTS  # the column loop
        for l, zk, got in zip(orders.tolist(), z, ratios(kind, orders, z)):
            want = mp_bessel_ratio(kind, l, zk)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_orders_checked(self, kind):
        z = np.linspace(1.0, 13.0, 13)
        assert len(z) > special._SCALAR_POINTS
        with pytest.raises(ValueError):
            ratios(kind, np.resize([5, 0], len(z)), z)
        # one order per argument, on the column loop (13 arguments) and on
        # the scalar loop (2), and a 1-D order array only
        for orders, args in ((np.array([5, 6]), z), (np.array([5]), z[:2]),
                             (np.array([5, 6, 7]), z[:2]), (np.full((len(z), 1), 5), z),
                             (np.full((2, 1), 5), z[:2])):
            with pytest.raises(ValueError, match=re.escape(f"{orders.shape} for {len(args)} arg")):
                ratios(kind, orders, args)


class TestMixedRun:
    """One run of the column loop over j and h columns, downward and upward
    together: every column has the bits of a call on its argument alone,
    with no argument of the other kind, which runs the scalar loop."""

    @pytest.mark.parametrize("h_orders", [MIXED_ORDERS, (1, 7, 64)], ids=["mixed", "low"])
    def test_columns_of_one_run(self, h_orders):
        # the j columns that _upward puts downward, then the upward j
        # columns (UP_J_ARGS among them), then h; j orders cycle through
        # MIXED_ORDERS, and every other column keeps all l_k ratios instead
        # of the last one.  With low h orders the h columns join inside the
        # rows the downward columns write, and every column steps from the
        # run's first step
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        half = len(z) // 2
        jz = np.concatenate([z[:half], UP_J_ARGS])
        j_orders = np.concatenate([mixed_orders(half), UP_J_ORDERS])
        up = special._upward(j_orders, jz)
        by_way = np.argsort(up, kind="stable")
        down, jcount = int(np.count_nonzero(~up)), len(jz)
        z = np.concatenate([jz[by_way], z[half:]])
        orders = np.concatenate([j_orders[by_way], np.resize(h_orders, len(z) - jcount)])
        depths = np.where(np.arange(len(z)) % 2, orders, 1)
        for way in (slice(0, down), slice(down, jcount), slice(jcount, len(z))):
            assert set(depths[way]) > {1}
        rows = np.empty((depths.max(), len(z)), dtype=complex)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # the starts that _ratios takes: a column's start is that of a
            # call on it alone
            starts, forward = special._starts(orders, depths, z, down, jcount)
            first = special._first_ratios(z[down:], jcount - down, forward)
            special._ratio_columns(orders, depths, z, starts, first, rows)
        # the depth-1 h columns of orders 121, 300 and 1000 start above 1
        assert (starts[jcount:] > 1).any() == (h_orders == MIXED_ORDERS)
        for k, (l, depth, zk) in enumerate(zip(orders.tolist(), depths.tolist(), z)):
            got = rows[len(rows) - depth :, k]
            kind = "J" if k < jcount else "H1"
            if depth == 1:
                want = ratios(kind, l, zk)
            elif k < down:
                # from order l_k down
                want = ratios(kind, l, zk, rows=True)[:0:-1, 0]
            else:
                # up to order l_k
                want = ratios(kind, l, zk, rows=True)[1:, 0]
            assert np.array_equal(got, want)

    def test_both_kinds_from_one_call(self):
        # the pair functions, with the rows (3 j and 1 h arguments, 9 and 4,
        # 21 and 10) and with one order per argument (3 of each kind, 9, 21):
        # the first call of each on the scalar loop, the others on the
        # column loop
        jz, hz = DEMO_J_ARGS, np.resize(H_ROW_ARGS, len(DEMO_J_ARGS))
        orders = mixed_orders(len(jz))
        for count in (3, 9, len(jz)):
            js, hs = jz[:count], hz[: count // 2]
            rj, rh = sph_jn_h1n_ratios(121, js, hs)
            assert rj.shape == (122, count) and rh.shape == (122, count // 2)
            assert np.array_equal(rj, np.hstack([ratios("J", 121, z, rows=True) for z in js]))
            assert np.array_equal(rh, np.hstack([ratios("H1", 121, z, rows=True) for z in hs]),
                                  equal_nan=True)
            r, q = sph_jn_h1n_ratio(orders[:count], jz[:count], hz[:count])
            for l, zj, zh, rk, qk in zip(orders.tolist(), jz, hz, r, q):
                assert rk == ratios("J", l, zj)[0]
                assert np.array_equal(qk, ratios("H1", l, zh)[0], equal_nan=True)


# n k R of the demo sphere below the gap, where |n k R| runs from 86 to 319
# (real and complex frequencies), and arguments at |z| ~ 86 and 318 off the
# real axis up to the rule's |Im z| = 3
RULE_ARGS = np.concatenate([
    demo_arguments(0, [0.90, 0.9025, 0.995, 0.9945, 0.95 - 0.002j, 0.99 - 1e-4j])[2],
    [86.0 + 3.0j, 86.5 - 2.0j, 318.0 + 3.0j, 317.0 - 1.5j, 85.7, 318.4],
])


class TestUpwardRule:
    """Where special._upward puts a j column upward, and that both
    directions hold next to the rule's edge."""

    def test_against_multiprecision_at_the_edge(self):
        # the largest order inside the rule runs upward and the next one the
        # continued fraction; orders 63-77 of the below-gap search as well;
        # all in one call on the column loop, and each alone on the scalar
        # loop, to the 1e-12 of TestBesselRatios
        cases = []
        for z in RULE_ARGS:
            size = abs(z)
            edge = math.floor(size - special._UP_MARGIN * size ** (1 / 3) - 2 * abs(z.imag))
            assert special._upward(np.array([edge, edge + 1]), np.array([z, z])).tolist() == [
                True, False]
            cases += [(z, l) for l in sorted({edge, edge + 1, *range(63, 78)})]
        z = np.array([z for z, _ in cases])
        orders = np.array([l for _, l in cases])
        assert 0 < np.count_nonzero(special._upward(orders, z)) < len(z)
        for (zk, l), got in zip(cases, ratios("J", orders, z)):
            want = mp_bessel_ratio("J", l, zk)
            assert abs(got - want) <= 1e-12 * abs(want)
            assert ratios("J", l, zk)[0] == got

    def test_imaginary_part_limit(self):
        # above |Im z| = 3 the upward error grows like e^(2 |Im z|) at the
        # turning point, so j runs down there even far below it
        z = np.array([400 + 3.0j, 400 + 3.01j, 400 - 3.01j])
        assert special._upward(np.array([1, 1, 1]), z).tolist() == [True, False, False]


def miller_cap(l, z):
    """The Miller start of every downward column before the growth rule,
    special._miller_start, now its cap."""
    return int(special._miller_start(np.array([l]), np.abs(np.array([z])))[0])


def start_orders(l, jz, hz, depth=1):
    """The start of each column of a call of order l on the j arguments jz
    and the h arguments hz, in the order of the arguments, as _ratios lays
    them out and takes them (j columns that _upward puts upward start at
    1)."""
    jz, hz = np.asarray(jz, dtype=complex), np.asarray(hz, dtype=complex)
    up = special._upward(l, jz)
    order = np.argsort(up, kind="stable")
    z = np.concatenate([jz[order], hz])
    orders = np.full(len(z), l)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        starts = special._starts(orders, depth, z, int(np.count_nonzero(~up)), len(jz))[0]
    starts[: len(jz)][order] = starts[: len(jz)].copy()
    return starts


def growth(m, n, z):
    """S(m, n) at z in the closed form of special._growth, which
    TestStarts.test_growth_integral checks against quadrature."""
    with np.errstate(invalid="ignore"):
        g = special._growth(np.array([m, n], dtype=float), np.array([z, z], dtype=complex))[0]
    return 2.0 * (g[1] - g[0])


def ratio_from(kind, l, z, start):
    """f_l/f_{l-1} of one column started at order `start` with the
    arithmetic of the scalar loop: j downward from the Miller seed r = 0
    above it, h upward from h_1/h_0 = 1/z - i at start 1, else from
    (2 start - 1)/z."""
    z = complex(z)
    if kind == "J":
        odds = range(2 * start - 1, 2 * (l - 1) + 1, -2)
        return 1.0 / special._scalar_loop((2 * start + 1) * (1.0 / z), odds, z, 1)[-1]
    first = 1.0 / z - 1j if start == 1 else (2 * start - 1) * (1.0 / z)
    return special._scalar_loop(first, range(2 * start + 1, 2 * l, 2), z, 1)[-1]


def near_omega_t(omegas):
    """n k R of the demo sphere at each frequency (band gap and next to
    omega_T), a complex array."""
    return demo_arguments(0, omegas)[2]


# the j points at which the Miller start was measured against mpmath when
# the growth rule was drawn up: n k R at five frequencies from 1.0001 (|z|
# ~ 2220) to 1.1 (|z| ~ 30) at six orders, and eight arguments from 0.3 to
# 995 + 0.5i at four orders up to 1000
START_J_POINTS = (
    [(l, z) for z in near_omega_t([1.0001, 1.001, 1.01, 1.05, 1.1])
     for l in (1, 30, 121, 200, 259, 300)]
    + [(l, z) for z in (0.3, 5 + 1j, 66.0, 200j, 22.3 - 20.8j, 995 + 0.5j, 59.7 - 5j, 30 - 4j)
       for l in (1, 121, 300, 1000)]
)
# k R of the demo sphere where the band-gap search reads h and j: orders
# 110-131 at real and complex frequencies, and two more h arguments
START_GAP_POINTS = [(l, z) for z in size_parameter(np.array([1.04, 1.0501, 1.06, 1.0501 - 5e-7j]),
                                                    10.0)
                    for l in (110, 116, 121, 126, 131)]
START_H_POINTS = START_GAP_POINTS + [(l, z) for z in (59.7 - 5j, 22.3 - 4.9j) for l in (121, 300)]


class TestStarts:
    """The start of each column (special._starts): the Miller start of a
    downward j column, where the growth integral S from its order reaches
    40 plus 8 steps, never above the older rule, and the forward start of
    an h column, where S up to its lowest kept row reaches 40."""

    @pytest.mark.parametrize("m,n,z", [(120, 145, 79.1j), (120, 145, 66.0), (30, 90, 66.0),
                                       (1, 300, 2220j + 5.6), (110, 200, -66.0 + 3j),
                                       (95, 121, 65.98 - 3e-5j), (5, 40, 22.3 - 20.8j)])
    def test_growth_integral(self, m, n, z):
        # the closed form 2 (g(n) - g(m)) against quadrature of the rate
        want = mp_growth(m, n, z)
        assert abs(growth(m, n, z) - want) <= 1e-10 * max(abs(want), 1.0)

    def test_accuracy_against_multiprecision(self):
        # no ratio is further from the 50-digit one than with the start of
        # the older rule, by more than one rounding (2^-53): a converged
        # continued fraction forgets its start.  Every start leaves S >= 40
        # between itself and the kept row (the Miller start less its 8
        # spare steps)
        points = ([("J", l, z) for l, z in START_J_POINTS + START_GAP_POINTS]
                  + [("H1", l, z) for l, z in START_H_POINTS])
        forward = 0
        for kind, l, z in points:
            jz, hz = ([z], []) if kind == "J" else ([], [z])
            start = int(start_orders(l, jz, hz)[0])
            got = ratios(kind, l, z)[0]
            up = kind == "J" and special._upward(l, np.array([z]))[0]
            if up:
                assert start == 1
                continue
            old = ratio_from(kind, l, z, miller_cap(l, z) if kind == "J" else 1)
            assert got == ratio_from(kind, l, z, start)
            want = mp_bessel_ratio(kind, l, z)
            assert abs(got - want) / abs(want) <= abs(old - want) / abs(want) + 2.0**-53
            if kind == "J":
                assert l < start - special._SPARE and growth(l, start - special._SPARE, z) >= 40
            elif start > 1:
                forward += 1
                assert growth(start, l, z) >= 40
        # the band-gap h columns start from a forward start
        assert forward >= len(START_GAP_POINTS)

    def test_miller_starts_below_the_cap(self):
        points = START_J_POINTS + START_GAP_POINTS
        for l, z in points:
            start = int(start_orders(l, [z], [])[0])
            assert start == 1 or l < start <= miller_cap(l, z)
        # next to omega_T, where |n k R| ~ 2220, the start falls from 2374
        starts = [int(start_orders(l, [z], [])[0]) for l, z in START_J_POINTS[:6]]
        assert {miller_cap(l, z) for l, z in START_J_POINTS[:6]} == {2374}
        assert max(starts) <= 432
        # in the band gap (n k R ~ 79i), from 198 to 145 or less at l = 121
        z = near_omega_t([1.05])[0]
        assert miller_cap(121, z) == 198 and start_orders(121, [z], [])[0] <= 145

    def test_forward_start_only_above_the_turning_point(self):
        # the below-gap h columns of the search (k R ~ 57-62, l 63-77) and
        # rows from order 1 start at order 1
        kr = size_parameter(np.linspace(0.90, 0.995, 40) - 1e-4j, 10.0)
        for l in range(63, 78):
            assert (start_orders(l, [], kr) == 1).all()
        for l in (1, 121, 300):
            assert (start_orders(l, [], kr, depth=l) == 1).all()
            gap = size_parameter(np.array([1.04, 1.0501, 1.06]), 10.0)
            assert (start_orders(l, [], gap, depth=l) == 1).all()
        # the band-gap ones do not, and rows from order 21 at l = 121 neither
        gap = size_parameter(np.array([1.04, 1.0501, 1.06]), 10.0)
        assert (start_orders(121, [], gap) > 1).all()
        assert (start_orders(121, [], gap, depth=101) == 1).all()

    def test_start_and_bits_do_not_depend_on_the_call(self):
        # a column's start and ratio are those of a call on it alone, in a
        # call on the scalar loop and in one on the column loop, also where
        # the linear candidate l + 40/rate(l) of a Miller start, or
        # lo - 40/rate(lo) of a forward start, falls next to an integer
        l = 121
        tie_j = (l + 0.5) / math.cosh(20.0 / 9.0)  # 40/rate(l) = 9
        tie_h = (l + 0.5) / math.cosh(20.0 / 17.0)  # 40/rate(lo) = 17
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = 2.0 * special._growth(np.array([l, l], dtype=float),
                                         np.array([tie_j, tie_h], dtype=complex))[1]
        assert np.allclose(40.0 / rate, [9.0, 17.0], rtol=0, atol=1e-12)
        jz = np.array([tie_j, near_omega_t([1.05])[0], 66.0])
        hz = np.array([tie_h, size_parameter(1.0501, 10.0), 66.0 - 0.3j])
        alone = np.concatenate([start_orders(l, [z], []) for z in jz]
                               + [start_orders(l, [], [z]) for z in hz])
        assert alone[0] == math.ceil(l + 40.0 / rate[0]) + special._SPARE
        assert (alone[len(jz):] > 1).all()
        others = np.array(H_ROW_ARGS[:5].tolist() * 4)
        for count in (0, len(others)):
            js = np.concatenate([jz, DEMO_J_ARGS[:count]])
            hs = np.concatenate([hz, others[:count]])
            assert (len(js) + len(hs) > special._SCALAR_POINTS) == (count > 0)
            starts = start_orders(l, js, hs)
            assert np.array_equal(starts[: len(jz)], alone[: len(jz)])
            assert np.array_equal(starts[len(js) : len(js) + len(hz)], alone[len(jz) :])
            r, q = sph_jn_h1n_ratio(l, js, hs)
            assert np.array_equal(r[: len(jz)], [ratios("J", l, z)[0] for z in jz])
            assert np.array_equal(q[: len(hz)], [ratios("H1", l, z)[0] for z in hz])


# n k R of the demo sphere where the j column of orders 60-90 changes
# direction (below the gap and above omega_L), with the rule's edge
# arguments, and k R in the band gap, where the h column of orders 90-130
# starts at order 1 below l ~ 97 and forward from there, with complex
# arguments and one below H1_IM_MIN
ROWS_J_ARGS = np.concatenate([demo_arguments(0, [0.90, 0.92, 0.95, 1.2, 1.5])[2], RULE_ARGS])
ROWS_H_ARGS = np.concatenate([size_parameter(np.array([1.04, 1.0501, 1.06]), 10.0),
                              [66.0 - 0.3j, 59.7 - 5j, 120.0 + 2j, 22.3 - 5.5j]])


class TestRatioRows:
    """sph_jn_h1n_ratio_rows: the ratios of every order lo..hi from one or
    two columns per argument and kind, with the bits of a one-order call."""

    @pytest.mark.parametrize("lo,hi", [(60, 90), (90, 130), (1, 40), (121, 121), (1, 300)])
    def test_rows_are_the_one_order_ratios(self, lo, hi):
        # a run from order 1 (upward j, h below its forward orders) keeps
        # the bits of every one-order call; the continued fraction from the
        # start of hi and the forward start of the least forward order keep
        # them but for rounding ties (1 of the 984 ratios of l 90-130 and 4
        # of the 7200 of l 1-300, each within 3.2e-18 of its one-order ratio)
        rj, rh = sph_jn_h1n_ratio_rows(lo, hi, ROWS_J_ARGS, ROWS_H_ARGS)
        assert rj.shape == (hi - lo + 1, len(ROWS_J_ARGS))
        assert rh.shape == (hi - lo + 1, len(ROWS_H_ARGS))
        with np.errstate(divide="ignore", invalid="ignore"):
            top = special._upward_top(ROWS_J_ARGS.astype(complex))
            low = special._forward_orders(lo, hi, ROWS_H_ARGS.astype(complex))[0]
        ties = 0
        for l in range(lo, hi + 1):
            r, q = sph_jn_h1n_ratio(l, ROWS_J_ARGS, ROWS_H_ARGS)
            got, want = np.concatenate([rj[l - lo], rh[l - lo]]), np.concatenate([r, q])
            same = (got == want) | (np.isnan(got) & np.isnan(want))
            assert same[: len(r)][l <= top].all() and same[len(r) :][l < low].all()
            assert np.all(np.abs(got - want)[~same] < 2.0**-53 * np.abs(want)[~same])
            ties += np.count_nonzero(~same)
        assert ties <= 0.01 * (rj.size + rh.size)
        assert np.isnan(rh[:, -1]).all()
        # the splits these orders cross: j at the rule's edge, h where the
        # forward start begins
        assert np.any((lo <= top) & (top < hi)) == (lo < hi)
        assert np.any((lo < low) & (low <= hi)) == ((lo, hi) in ((90, 130), (1, 300)))

    def test_forward_orders_are_the_least_of_the_rule(self):
        # the least order whose one-order call starts the h column above
        # order 1, call-level test included, and its start, on k R of the
        # demo sphere from 0.3 to 1.5 and off the axis
        hz = np.concatenate([size_parameter(np.linspace(0.3, 1.5, 25), 10.0),
                             [66.0 - 0.3j, 59.7 - 5j, 120.0 + 2j]]).astype(complex)
        for lo, hi in ((1, 260), (90, 130), (150, 260)):
            with np.errstate(divide="ignore", invalid="ignore"):
                low, start = special._forward_orders(lo, hi, hz)
            for k, z in enumerate(hz):
                ahead = [l for l in range(lo, hi + 1) if forward_started(l, hz)[k]]
                assert low[k] == (ahead[0] if ahead else hi + 1)
                if ahead:
                    assert start[k] == start_orders(low[k], [], hz)[k]
                else:
                    assert start[k] == 1

    def test_order_past_the_first_one_of_the_rule(self):
        # above T ~ 280 the rule can fail again just past its first order:
        # at k R = 278.96 it holds at l = 334, fails at 335 and holds from
        # 336, where the bisection stops.  So 334 takes the column from
        # order 1, and differs from its one-order call only in the imaginary
        # part, the j part of h = j + i y, about 1e-20 of h
        z = np.array([278.9579158316633 + 0j])
        assert [forward_started(l, z)[0] for l in (333, 334, 335, 336, 337)] == [
            False, True, False, True, True]
        rh = sph_jn_h1n_ratio_rows(300, 400, [], z)[1][:, 0]
        for l in range(300, 401):
            q = sph_jn_h1n_ratio(l, [], z)[1][0]
            assert rh[l - 300].real == q.real
            if l == 334:
                assert 0 < abs(rh[l - 300] - q) < 1e-20 * abs(q)
            else:
                assert rh[l - 300] == q

    def test_orders_checked(self):
        for lo, hi in ((0, 5), (6, 5)):
            with pytest.raises(ValueError, match="lo <= hi"):
                sph_jn_h1n_ratio_rows(lo, hi, [1.0], [1.0])
        rj, rh = sph_jn_h1n_ratio_rows(3, 5, [], [2.0])
        assert rj.shape == (3, 0) and rh.shape == (3, 1)


class TestBesselRatioDomain:
    def test_hankel_ratio_refused_below_the_line(self):
        z = 20.0 + (H1_IM_MIN - 0.5) * 1j
        for args in (z, np.array([z]), np.array([z, 20.0])):
            q = ratios("H1", 5, args)
            assert np.isnan(q[0]) and np.isfinite(q[1:]).all()

    @pytest.mark.parametrize("kind", RATIO_KINDS)
    def test_order_and_argument_checked(self, kind):
        with pytest.raises(ValueError):
            ratios(kind, 0, 1.0)
        with pytest.raises(ValueError):
            ratios(kind, 3, 0.0)
        with pytest.raises(ValueError):
            ratios(kind, 3, np.array([1.0, 0.0]))
        # a Miller start is an integer of |z|: a non-finite argument is
        # refused on the scalar loop (1 argument) and the column loop (13)
        for bad in (np.nan, np.inf, complex(1.0, np.inf)):
            for args in (np.array([bad]), np.resize(np.array([1.0, bad]), 13)):
                with pytest.raises(ValueError, match="finite"):
                    ratios(kind, 3, args)


def test_one_column_per_argument():
    """Every function ravels its argument and returns one column per
    argument: a scalar is one argument, with the bits of a 1-element array.
    Order 0 and z = 0 are refused, and an argument below H1_IM_MIN, a
    scalar too, gets a NaN column."""
    z = np.array([20.0 + 1j, 0.8 + 0.3j, 66.0, 2 + 30j, 8 - 2j, 1.0, 3.0, 45.0])
    for args in (z[0], z[:1], z):
        n = np.size(args)
        for kind in ("J", "H1"):
            rows = ratios(kind, 5, args, rows=True)
            assert rows.shape == (6, n)
            assert np.array_equal(rows, ratios(kind, 5, np.array(z[:n]), rows=True))
            assert ratios(kind, 5, args).shape == (n,)
            assert np.array_equal(ratios(kind, 5, args), ratios(kind, 5, np.array(z[:n])))
        assert legendre_all(5, np.real(args) / 70.0).shape == (6, n)
    for kind in ("J", "H1"):
        for lmax, args in ((0, 1.0), (0, z), (3, 0.0), (3, np.array([1.0, 0.0]))):
            with pytest.raises(ValueError):
                ratios(kind, lmax, args, rows=True)
    below = 20.0 + (H1_IM_MIN - 0.5) * 1j
    assert ratios("H1", 5, below, rows=True).shape == (6, 1)
    assert np.isnan(ratios("H1", 5, below, rows=True)).all()
    q = ratios("H1", 5, below)
    assert q.shape == (1,) and np.isnan(q).all()


# property-based invariants

complex_args = st.builds(
    complex,
    st.floats(min_value=-60.0, max_value=60.0),
    st.floats(min_value=-25.0, max_value=25.0),
)


@given(
    z=st.floats(min_value=0.5, max_value=200.0),
    l=st.integers(min_value=1, max_value=150),
)
@settings(max_examples=60, deadline=None)
def test_wronskian_identity(z, l):
    jarr = jn(l + 1, z)[:, 0]
    harr = h1n(l + 1, z)[:, 0]
    assume(np.all(np.abs(harr) < 1e120) and np.abs(jarr[l]) > 1e-120)
    jp = jarr[l - 1] - (l + 1) / z * jarr[l]
    hp = harr[l - 1] - (l + 1) / z * harr[l]
    wron = jarr[l] * hp - jp * harr[l]
    assert abs(wron - 1j / z**2) <= 1e-8 / z**2


@given(z=complex_args, l=st.integers(min_value=1, max_value=120))
@settings(max_examples=60, deadline=None)
def test_three_term_recurrence_j(z, l):
    assume(abs(z) > 1.0)
    arr = jn(l + 1, z)[:, 0]
    lhs = arr[l - 1] + arr[l + 1]
    rhs = (2 * l + 1) * arr[l] / z
    ref = max(abs(lhs), abs(rhs))
    assume(ref > 1e-280)
    assert abs(lhs - rhs) <= 1e-9 * ref


@given(z=complex_args, l=st.integers(min_value=1, max_value=120))
@settings(max_examples=60, deadline=None)
def test_three_term_recurrence_h(z, l):
    assume(abs(z) > 1.0)
    if z.imag < H1_IM_MIN:
        assert np.isnan(ratios("H1", l + 1, z, rows=True)).all()
        return
    arr = h1n(l + 1, z)[:, 0]
    assume(np.all(np.isfinite(arr)))
    lhs = arr[l - 1] + arr[l + 1]
    rhs = (2 * l + 1) * arr[l] / z
    ref = max(abs(lhs), abs(rhs))
    assume(np.isfinite(ref) and ref > 1e-280)
    assert abs(lhs - rhs) <= 1e-9 * ref


@given(z=complex_args, l=st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_conjugation_symmetry(z, l):
    assume(abs(z) > 1e-6)
    a = jn(l + 1, np.conj(z))[l, 0]
    b = np.conj(jn(l + 1, z)[l, 0])
    assert abs(a - b) <= 1e-13 * max(abs(b), 1e-300)


@given(
    x=st.floats(min_value=-1.0, max_value=1.0),
    l=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=80, deadline=None)
def test_legendre_bound_and_parity(x, l):
    arr = legendre_all(l, x)[:, 0]
    arr_neg = legendre_all(l, -x)[:, 0]
    assert np.all(np.abs(arr) <= 1.0 + 1e-9)
    assert arr_neg[l] == pytest.approx((-1.0) ** l * arr[l], abs=1e-9)
