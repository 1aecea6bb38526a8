import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphereqed import special
from sphereqed.microsphere import DrudeLorentzParams, refractive_index, size_parameter
from sphereqed.special import (
    H1_IM_MIN,
    legendre_all,
    sph_h1n_ratio,
    sph_h1n_ratios,
    sph_jn_h1n_ratio,
    sph_jn_h1n_ratios,
    sph_jn_ratio,
    sph_jn_ratios,
)

from oracles import (
    mp_bessel_ratio,
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


def jn(lmax, z):
    """j_l(z) for l = 0..lmax: the float64 running product of the rows of
    sph_jn_ratios, as the rate kernel forms it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(sph_jn_ratios(lmax, z), axis=0)


def h1n(lmax, z):
    """h_l^(1)(z) for l = 0..lmax: the float64 running product of the rows
    of sph_h1n_ratios, as the rate kernel forms it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.cumprod(sph_h1n_ratios(lmax, z), axis=0)


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
            sph_jn_ratios(3, 0.0)

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
            sph_h1n_ratios(1, 0.0)

    def test_overflow_signalled(self):
        # the ratio rows stay finite where h_l overflows, and the product
        # shows the overflow as non-finite values, not as finite wrong ones
        assert np.all(np.isfinite(sph_h1n_ratios(300, 0.5)))
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
        assert np.isnan(sph_h1n_ratios(l, z)).all()
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
H_ARGS = np.array(
    [1.0, 66.0, 0.8 + 0.3j, 2.5, 55.0, 80.0, 45.0, 8 - 2j, 90 + 10j, 15 + 3j, 5 + 20j]
)


class TestArrayArguments:
    """A 1-D argument array gives one column per argument, whose running
    product equals the scalar call's to 1e-13 relative."""

    @pytest.mark.parametrize("lmax", [1, 40, 150])
    def test_sph_jn_columns(self, lmax):
        cols = jn(lmax, J_ARGS)
        assert cols.shape == (lmax + 1, len(J_ARGS))
        for k, z in enumerate(J_ARGS):
            want = jn(lmax, z)[:, 0]
            assert np.all(np.abs(cols[:, k] - want) <= 1e-13 * neighbourhood_scale(want))

    @pytest.mark.parametrize("lmax", [1, 15, 60, 120])
    def test_sph_h1n_columns(self, lmax):
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
            assert np.all(np.abs(cols[:, k] - legendre_all(200, xk)[:, 0]) <= 1e-13)
        with pytest.raises(ValueError):
            legendre_all(3, np.array([0.5, 1.5]))


def demo_arguments(l, omegas):
    """(l, z1, z2) at k R and n k R of the demo sphere (omega_p = 0.5,
    gamma = 1e-6, R = 10), one entry per frequency."""
    z1 = size_parameter(np.asarray(omegas), 10.0)
    z2 = refractive_index(DrudeLorentzParams(0.5, 1e-6), np.asarray(omegas)) * z1
    return l, z1, z2


# k R, k r (atoms at r = 10.14) and n k R of the demo sphere across the
# windows of the rate sweeps
_OMEGAS = np.array([0.9, 0.95, 0.99, 1.01, 1.04, 1.0501, 1.0535])
DEMO_J_ARGS = np.concatenate([
    demo_arguments(0, _OMEGAS)[1], size_parameter(_OMEGAS, 10.14), demo_arguments(0, _OMEGAS)[2],
])


def test_jn_product_at_demo_arguments():
    """The running product of the sph_jn_ratios rows, on both paths, against
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


@pytest.mark.parametrize("name", list(RATIO_POINTS))
class TestBesselRatios:
    """j_l/j_{l-1} and h_l/h_{l-1} on both paths against mpmath ratios that
    never pass through complex128, at k R and n k R of the demo sphere."""

    @pytest.mark.parametrize("kind", ["J", "H1"])
    def test_against_multiprecision(self, name, kind):
        l, z1, z2 = RATIO_POINTS[name]
        ratio = sph_jn_ratio if kind == "J" else sph_h1n_ratio
        # the search reads j_l at n k R and h_l at k R; j_l is checked at both
        for z in (z1, z2) if kind == "J" else (z1,):
            cols = ratio(l, z)
            for k, zk in enumerate(z):
                want = mp_bessel_ratio(kind, l, zk)
                assert abs(ratio(l, zk)[0] - want) <= 1e-12 * abs(want)
                assert abs(cols[k] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", ["J", "H1"])
    def test_scalar_and_column_paths_agree(self, name, kind):
        l, z1, z2 = RATIO_POINTS[name]
        ratio = sph_jn_ratio if kind == "J" else sph_h1n_ratio
        z = np.concatenate([z1, z2]) if kind == "J" else z1
        cols = ratio(l, z)
        assert cols.shape == z.shape
        for k, zk in enumerate(z):
            (one,) = ratio(l, zk)
            # the two paths make the same operations (they agree to the
            # last bit with numpy 2.4), so a point's ratio does not depend
            # on the other arguments of its call
            assert abs(cols[k] - one) <= 1e-15 * abs(one)
            # a one-element array takes the scalar loop
            assert ratio(l, z[k : k + 1])[0] == one


# k R of the demo sphere at real and complex frequencies, k r, and
# arguments on the line Im z = H1_IM_MIN: more than the scalar loop takes,
# so a call on all of them runs the column loop
H_ROW_ARGS = np.concatenate([
    size_parameter(np.array([1.0501, 0.925, 0.3, 0.2, 0.3 - 0.07j, 1.0501 - 5e-7j]), 10.0),
    [80.0, 0.8 + 1j * H1_IM_MIN, 22.3 + 1j * H1_IM_MIN, 59.7 + 1j * H1_IM_MIN, 3 + 2j],
])


class TestHankelRatioRows:
    """The rows of sph_h1n_ratios, h_0 and h_n/h_{n-1}, on the column loop
    (all arguments in one call) and on the scalar loop (one argument)."""

    def test_against_multiprecision(self):
        cols = sph_h1n_ratios(300, H_ROW_ARGS)
        assert cols.shape == (301, len(H_ROW_ARGS))
        for k, z in enumerate(H_ROW_ARGS):
            one = sph_h1n_ratios(300, z)[:, 0]
            for l in (1, 121, 300):
                want = mp_bessel_ratio("H1", l, z)
                assert abs(cols[l, k] - want) <= 1e-12 * abs(want)
                assert abs(one[l] - want) <= 1e-12 * abs(want)
            want = mp_spherical_h1(0, z)
            assert abs(cols[0, k] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("ratios", [sph_jn_ratios, sph_h1n_ratios])
    def test_scalar_and_column_loops_agree_bit_for_bit(self, ratios):
        # a point's rows do not depend on the other arguments of its call,
        # so the rate kernel's values do not depend on how points are grouped
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        cols = ratios(300, z)
        for k, zk in enumerate(z):
            assert np.array_equal(cols[:, k], ratios(300, np.array([zk]))[:, 0], equal_nan=True)

    @pytest.mark.parametrize("ratio", [sph_jn_ratio, sph_h1n_ratio])
    def test_single_order_loops_agree_bit_for_bit(self, ratio):
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        for l in (1, 121, 300):
            assert np.array_equal(ratio(l, z), [ratio(l, zk)[0] for zk in z])

    @pytest.mark.parametrize("ratios,ratio", [(sph_jn_ratios, sph_jn_ratio),
                                              (sph_h1n_ratios, sph_h1n_ratio)])
    @pytest.mark.parametrize("count", [4, len(H_ROW_ARGS) + len(DEMO_J_ARGS)],
                             ids=["scalar loop", "column loop"])
    def test_last_row_is_the_single_order_ratio(self, ratios, ratio, count):
        # the rows and the single-order ratio run the same loop, which
        # keeps the last lmax ratios or the last one
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])[:count]
        for l in (1, 121, 300):
            assert np.array_equal(ratios(l, z)[l], ratio(l, z))
        if ratio is sph_h1n_ratio:
            # the upward run has no seed: every row is the ratio of its order
            rows = ratios(300, z)
            for n in range(1, 301):
                assert np.array_equal(rows[n], ratio(n, z))

    def test_domain(self):
        below = 20.0 + (H1_IM_MIN - 0.5) * 1j
        assert np.isnan(sph_h1n_ratios(5, below)).all()
        rows = sph_h1n_ratios(5, np.array([below, 20.0]))
        assert np.isnan(rows[:, 0]).all() and np.isfinite(rows[:, 1]).all()
        with pytest.raises(ValueError):
            sph_h1n_ratios(5, np.array([1.0, 0.0]))


# orders of a many-order resonance search, one per argument, cycling
# through low, band-gap, cap and beyond-cap orders
MIXED_ORDERS = (1, 121, 300, 1000, 7, 64)


def mixed_orders(n):
    return np.resize(MIXED_ORDERS, n)


@pytest.mark.parametrize("ratio", [sph_jn_ratio, sph_h1n_ratio])
class TestOrderPerArgument:
    """sph_jn_ratio and sph_h1n_ratio with one order per argument: one
    recurrence run serves arguments of many orders."""

    def test_bits_of_single_order_calls(self, ratio):
        # the column loop seeds and reads out each argument at its own
        # order, so its value is the bits of a call of that order alone,
        # on the scalar loop and on the column loop of one order
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        orders = mixed_orders(len(z))
        cols = ratio(orders, z)
        assert cols.shape == z.shape
        one_order = {l: ratio(l, z) for l in MIXED_ORDERS}
        for k, (l, zk) in enumerate(zip(orders.tolist(), z)):
            assert np.array_equal(cols[k], ratio(l, zk)[0], equal_nan=True)
            assert np.array_equal(cols[k], one_order[l][k], equal_nan=True)
        # up to the scalar-loop size the loop runs per argument
        few = ratio(orders[:4], z[:4])
        assert np.array_equal(few, cols[:4], equal_nan=True)

    def test_against_multiprecision_at_mixed_orders(self, ratio):
        # the RATIO_POINTS of orders 1, 121, 300 and 1000 in one call; j_l
        # is read at k R and n k R, h_l at k R
        kind = "J" if ratio is sph_jn_ratio else "H1"
        points = [RATIO_POINTS[name] for name in ("complex omega", "band gap", "l = 300",
                                                  "l = 1000")]
        orders = np.concatenate([np.full(len(z1), l) for l, z1, _ in points])
        z = np.concatenate([z1 for _, z1, _ in points])
        if kind == "J":
            orders = np.concatenate([orders, orders])
            z = np.concatenate([z] + [z2 for _, _, z2 in points])
        assert len(z) > 6  # the column loop
        for l, zk, got in zip(orders.tolist(), z, ratio(orders, z)):
            want = mp_bessel_ratio(kind, l, zk)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_orders_checked(self, ratio):
        z = np.linspace(1.0, 9.0, 9)
        with pytest.raises(ValueError):
            ratio(np.resize([5, 0], len(z)), z)
        # one order per argument, on the column loop (9 arguments) and on
        # the scalar loop (2), and a 1-D order array only
        for orders, args in ((np.array([5, 6]), z), (np.array([5]), z[:2]),
                             (np.array([5, 6, 7]), z[:2]), (np.full((9, 1), 5), z),
                             (np.full((2, 1), 5), z[:2])):
            with pytest.raises(ValueError, match=re.escape(f"{orders.shape} for {len(args)} arg")):
                ratio(orders, args)


class TestMixedRun:
    """One run of the column loop over j and h columns together: every
    column has the bits of a one-kind call on one argument, which runs the
    scalar loop."""

    @pytest.mark.parametrize("h_orders", [MIXED_ORDERS, (1, 7, 64)], ids=["mixed", "low"])
    def test_columns_of_one_run(self, h_orders):
        # j columns first, then h; j orders cycle through MIXED_ORDERS, and
        # every other column keeps all l_k ratios instead of the last one.
        # With low h orders the h columns join inside the rows the j
        # columns write, which until then step alone
        z = np.concatenate([H_ROW_ARGS, DEMO_J_ARGS])
        jcount = len(z) // 2
        orders = np.concatenate([mixed_orders(jcount), np.resize(h_orders, len(z) - jcount)])
        depths = np.where(np.arange(len(z)) % 2, orders, 1)
        assert set(depths[:jcount]) > {1} and set(depths[jcount:]) > {1}
        rows = np.empty((depths.max(), len(z)), dtype=complex)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            special._ratio_columns(orders, depths, z, jcount, rows)
        for k, (l, depth, zk) in enumerate(zip(orders.tolist(), depths.tolist(), z)):
            got = rows[len(rows) - depth :, k]
            if k < jcount:
                # from order l_k down
                want = sph_jn_ratio(l, zk) if depth == 1 else sph_jn_ratios(l, zk)[:0:-1, 0]
            else:
                want = sph_h1n_ratio(l, zk) if depth == 1 else sph_h1n_ratios(l, zk)[1:, 0]
            assert np.array_equal(got, want)

    def test_both_kinds_from_one_call(self):
        # the pair functions, with the rows and with one order per argument,
        # with both kinds on the scalar loop (3 arguments and 1), j alone on
        # the column loop (9 and 4) and both on it (21 and 10)
        jz, hz = DEMO_J_ARGS, np.resize(H_ROW_ARGS, len(DEMO_J_ARGS))
        orders = mixed_orders(len(jz))
        for count in (3, 9, len(jz)):
            js, hs = jz[:count], hz[: count // 2]
            rj, rh = sph_jn_h1n_ratios(121, js, hs)
            assert rj.shape == (122, count) and rh.shape == (122, count // 2)
            assert np.array_equal(rj, np.hstack([sph_jn_ratios(121, z) for z in js]))
            assert np.array_equal(rh, np.hstack([sph_h1n_ratios(121, z) for z in hs]),
                                  equal_nan=True)
            r, q = sph_jn_h1n_ratio(orders[:count], jz[:count], hz[:count])
            for l, zj, zh, rk, qk in zip(orders.tolist(), jz, hz, r, q):
                assert rk == sph_jn_ratio(l, zj)[0]
                assert np.array_equal(qk, sph_h1n_ratio(l, zh)[0], equal_nan=True)


class TestBesselRatioDomain:
    def test_hankel_ratio_refused_below_the_line(self):
        z = 20.0 + (H1_IM_MIN - 0.5) * 1j
        for args in (z, np.array([z]), np.array([z, 20.0])):
            q = sph_h1n_ratio(5, args)
            assert np.isnan(q[0]) and np.isfinite(q[1:]).all()

    @pytest.mark.parametrize("ratio", [sph_jn_ratio, sph_h1n_ratio])
    def test_order_and_argument_checked(self, ratio):
        with pytest.raises(ValueError):
            ratio(0, 1.0)
        with pytest.raises(ValueError):
            ratio(3, 0.0)
        with pytest.raises(ValueError):
            ratio(3, np.array([1.0, 0.0]))


def test_one_column_per_argument():
    """Every function ravels its argument and returns one column per
    argument: a scalar is one argument, with the bits of a 1-element array.
    Order 0 and z = 0 are refused, and an argument below H1_IM_MIN, a
    scalar too, gets a NaN column."""
    z = np.array([20.0 + 1j, 0.8 + 0.3j, 66.0, 2 + 30j, 8 - 2j, 1.0, 3.0, 45.0])
    for args in (z[0], z[:1], z):
        n = np.size(args)
        for rows in (sph_jn_ratios, sph_h1n_ratios):
            assert rows(5, args).shape == (6, n)
            assert np.array_equal(rows(5, args), rows(5, np.array(z[:n])))
        for ratio in (sph_jn_ratio, sph_h1n_ratio):
            assert ratio(5, args).shape == (n,)
            assert np.array_equal(ratio(5, args), ratio(5, np.array(z[:n])))
        assert legendre_all(5, np.real(args) / 70.0).shape == (6, n)
    for rows in (sph_jn_ratios, sph_h1n_ratios):
        for lmax, args in ((0, 1.0), (0, z), (3, 0.0), (3, np.array([1.0, 0.0]))):
            with pytest.raises(ValueError):
                rows(lmax, args)
    below = 20.0 + (H1_IM_MIN - 0.5) * 1j
    assert sph_h1n_ratios(5, below).shape == (6, 1)
    assert np.isnan(sph_h1n_ratios(5, below)).all()
    assert sph_h1n_ratio(5, below).shape == (1,) and np.isnan(sph_h1n_ratio(5, below)).all()


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
        assert np.isnan(sph_h1n_ratios(l + 1, z)).all()
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
