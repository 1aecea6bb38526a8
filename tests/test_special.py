import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphereqed.microsphere import DrudeLorentzParams, refractive_index, size_parameter
from sphereqed.special import (
    H1_IM_MIN,
    RecurrenceDomainError,
    legendre_all,
    riccati_deriv_all,
    sph_h1n_all,
    sph_h1n_ratio,
    sph_jn_all,
    sph_jn_ratio,
)

from oracles import mp_bessel_ratio, mp_riccati_deriv, mp_spherical_h1, mp_spherical_j

# frozen 40-digit mpmath reference values
J5_10_01J = -0.055801299344828602026 - 0.0072338287921614050315j
H20_66 = 0.0014384911132083924027 - 0.015473581885453394935j
J40_2_30J = -3.3414665343430420528 + 0.5726270329471368046j
H7_08_03J = -138964.29244334217464 + 465745.4934348508527j


def rel_err(a, b):
    return abs(a - b) / abs(b)


def riccati(kind, l, z):
    """[z f_l(z)]' at order l, f = j_l (kind 'J') or h_l^(1) (kind 'H1')."""
    fn = sph_jn_all if kind == "J" else sph_h1n_all
    return riccati_deriv_all(fn(max(l, 1), z), z)[l]


class TestSphericalJ:
    def test_j0_closed_form(self):
        assert rel_err(sph_jn_all(0, 1.0)[0], math.sin(1.0)) < 1e-14

    def test_j1_small_argument_limit(self):
        z = 1e-4
        assert rel_err(sph_jn_all(1, z)[1], z / 3.0) < 1e-8

    def test_j5_complex_frozen_oracle(self):
        assert rel_err(sph_jn_all(5, 10 + 0.1j)[5], J5_10_01J) < 1e-12

    def test_j40_large_imaginary(self):
        assert rel_err(sph_jn_all(40, 2 + 30j)[40], J40_2_30J) < 1e-12

    def test_zero_argument_limits(self):
        assert sph_jn_all(0, 0.0)[0] == 1.0
        assert sph_jn_all(3, 0.0)[3] == 0.0

    def test_near_sin_zero_normalization(self):
        # kr = 6*pi sits at a zero of sin z; the l=0-only normalization fails there
        z = 6.0 * math.pi
        assert rel_err(sph_jn_all(8, z)[8], mp_spherical_j(8, z)) < 1e-12

    @pytest.mark.parametrize("l,z", [(80, 3.0 + 0.5j), (150, 120.0), (12, 400.0 + 40j)])
    def test_against_multiprecision(self, l, z):
        assert rel_err(sph_jn_all(l, z)[l], mp_spherical_j(l, z)) < 1e-10


class TestSphericalH1:
    def test_h0_closed_form(self):
        want = math.sin(1.0) - 1j * math.cos(1.0)
        assert rel_err(sph_h1n_all(0, 1.0)[0], want) < 1e-14

    def test_h1_closed_form(self):
        want = -np.exp(1j) * (1.0 + 1j)
        assert rel_err(sph_h1n_all(1, 1.0)[1], want) < 1e-14

    def test_h20_66_frozen_oracle(self):
        assert rel_err(sph_h1n_all(20, 66.0)[20], H20_66) < 1e-12

    def test_h20_66_wronskian(self):
        # j_l h_l' - j_l' h_l = i / z^2
        z = 66.0
        j = sph_jn_all(21, z)[19:]
        h = sph_h1n_all(21, z)[19:]
        jp = j[0] - 21.0 / z * j[1]
        hp = h[0] - 21.0 / z * h[1]
        assert rel_err(j[1] * hp - jp * h[1], 1j / z**2) < 1e-10

    def test_complex_frozen_oracle(self):
        assert rel_err(sph_h1n_all(7, 0.8 + 0.3j)[7], H7_08_03J) < 1e-12

    def test_real_part_is_j_on_real_axis(self):
        for l, z in [(3, 2.5), (40, 55.0), (90, 80.0)]:
            assert rel_err(sph_h1n_all(l, z)[l].real, sph_jn_all(l, z)[l].real) < 1e-12

    def test_diverges_at_zero(self):
        with pytest.raises(ValueError):
            sph_h1n_all(0, 0.0)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            sph_h1n_all(300, 0.5)

    @pytest.mark.parametrize("l,z", [(60, 45.0), (15, 8.0 - 2.0j), (110, 90.0 + 10.0j)])
    def test_against_multiprecision(self, l, z):
        assert rel_err(sph_h1n_all(l, z)[l], mp_spherical_h1(l, z)) < 1e-10


class TestHankelBelowAxis:
    """Below the real axis the upward recurrence loses about
    eps * e^(2 |Im z|): it must stay accurate down to H1_IM_MIN and refuse
    arguments beyond it instead of returning wrong values."""

    @pytest.mark.parametrize("im", [-0.5, -2.0, H1_IM_MIN])
    @pytest.mark.parametrize("re", [0.8, 8.0, 22.3, 59.7])
    def test_against_multiprecision(self, re, im):
        z = complex(re, im)
        arr = sph_h1n_all(69, z)
        cols = sph_h1n_all(69, np.array([z, re]))
        for l in (0, 1, 10, 39, 69):
            want = mp_spherical_h1(l, z)
            assert rel_err(arr[l], want) < 1e-11
            assert rel_err(cols[l, 0], want) < 1e-11

    @pytest.mark.parametrize("l,z", [(39, 22.3 - 20.8j), (69, 59.7 - 13.6j)])
    def test_refused_below_the_line(self, l, z):
        with pytest.raises(RecurrenceDomainError):
            sph_h1n_all(l, z)
        with pytest.raises(RecurrenceDomainError):
            riccati("H1", l, z)
        # the column path leaves the refused column non-finite and computes
        # the others as before
        cols = sph_h1n_all(l, np.array([z, z.real, z.conjugate()]))
        assert not np.any(np.isfinite(cols[:, 0]))
        assert np.array_equal(cols[:, 1], sph_h1n_all(l, np.array([z.real]))[:, 0])
        assert np.array_equal(cols[:, 2], sph_h1n_all(l, np.array([z.conjugate()]))[:, 0])


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
        fd = ((z + h) * sph_jn_all(3, z + h)[3] - (z - h) * sph_jn_all(3, z - h)[3]) / (2 * h)
        assert rel_err(riccati("J", 3, z), fd) < 1e-6

    @pytest.mark.parametrize("kind", ["J", "H1"])
    @pytest.mark.parametrize("l,z", [(2, 3.0 + 0.2j), (25, 17.0 - 4.0j)])
    def test_against_multiprecision(self, kind, l, z):
        assert rel_err(riccati(kind, l, z), mp_riccati_deriv(kind, l, z)) < 1e-10


class TestLegendre:
    @pytest.mark.parametrize("l", [0, 1, 7, 64, 200])
    def test_at_plus_one(self, l):
        assert legendre_all(l, 1.0)[l] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [0, 1, 2, 13, 121, 200])
    def test_at_minus_one(self, l):
        assert legendre_all(l, -1.0)[l] == pytest.approx((-1.0) ** l, abs=1e-12)

    def test_p2_half(self):
        assert legendre_all(2, 0.5)[2] == pytest.approx(-0.125, abs=1e-15)

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
    [1.0, 1e-4, 10 + 0.1j, 2 + 30j, 6 * math.pi, 3 + 0.5j, 120.0, 400 + 40j, 0.0],
    _RNG.uniform(0.5, 200.0, 8),
    _RNG.uniform(-60.0, 60.0, 8) + 1j * _RNG.uniform(-25.0, 25.0, 8),
])
H_ARGS = np.array(
    [1.0, 66.0, 0.8 + 0.3j, 2.5, 55.0, 80.0, 45.0, 8 - 2j, 90 + 10j, 15 + 3j, 5 + 20j]
)


class TestArrayArguments:
    """A 1-D argument array gives one column per argument, equal to the
    scalar call's array to 1e-13 relative."""

    @pytest.mark.parametrize("lmax", [1, 40, 150])
    def test_sph_jn_columns(self, lmax):
        cols = sph_jn_all(lmax, J_ARGS)
        assert cols.shape == (lmax + 1, len(J_ARGS))
        for k, z in enumerate(J_ARGS):
            want = sph_jn_all(lmax, z)
            assert np.all(np.abs(cols[:, k] - want) <= 1e-13 * neighbourhood_scale(want))

    @pytest.mark.parametrize("lmax", [1, 15, 60, 120])
    def test_sph_h1n_columns(self, lmax):
        cols = sph_h1n_all(lmax, H_ARGS)
        assert cols.shape == (lmax + 1, len(H_ARGS))
        for k, z in enumerate(H_ARGS):
            want = sph_h1n_all(lmax, z)
            assert np.all(np.abs(cols[:, k] - want) <= 1e-13 * np.abs(want))

    def test_sph_h1n_overflow_stays_in_its_column(self):
        cols = sph_h1n_all(300, np.array([0.5, 66.0]))
        assert not np.all(np.isfinite(cols[:, 0]))
        assert np.all(np.abs(cols[:, 1] - sph_h1n_all(300, 66.0)) <= 1e-13 * np.abs(cols[:, 1]))

    @pytest.mark.parametrize("kind", [sph_jn_all, sph_h1n_all])
    def test_riccati_columns(self, kind):
        z = H_ARGS
        cols = riccati_deriv_all(kind(40, z), z)
        for k, zk in enumerate(z):
            want = riccati_deriv_all(kind(40, zk), zk)
            assert np.all(np.abs(cols[:, k] - want) <= 1e-13 * neighbourhood_scale(want))

    def test_legendre_columns(self):
        x = np.array([-1.0, -0.3, 0.0, 0.5, 0.9999, 1.0])
        cols = legendre_all(200, x)
        for k, xk in enumerate(x):
            assert np.all(np.abs(cols[:, k] - legendre_all(200, xk)) <= 1e-13)
        with pytest.raises(ValueError):
            legendre_all(3, np.array([0.5, 1.5]))


def demo_arguments(l, omegas):
    """(l, z1, z2) at k R and n k R of the demo sphere (omega_p = 0.5,
    gamma = 1e-6, R = 10), one entry per frequency."""
    z1 = size_parameter(np.asarray(omegas), 10.0)
    z2 = refractive_index(DrudeLorentzParams(0.5, 1e-6), np.asarray(omegas)) * z1
    return l, z1, z2


# (l, k R, n k R) where the resonance search reads the ratios
RATIO_POINTS = {
    "band gap": demo_arguments(121, [1.0501, 1.04, 1.08]),
    "below the gap": demo_arguments(70, [0.925, 0.95, 0.3]),
    "complex omega": demo_arguments(1, [0.3 - 0.07j, 1.0501 - 5e-7j, 0.93 - 0.002j]),
    "l = 300": demo_arguments(300, [0.2, 0.25, 1.1]),
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
                assert abs(ratio(l, zk) - want) <= 1e-12 * abs(want)
                assert abs(cols[k] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("kind", ["J", "H1"])
    def test_scalar_and_column_paths_agree(self, name, kind):
        l, z1, z2 = RATIO_POINTS[name]
        ratio = sph_jn_ratio if kind == "J" else sph_h1n_ratio
        z = np.concatenate([z1, z2]) if kind == "J" else z1
        cols = ratio(l, z)
        assert cols.shape == z.shape
        for k, zk in enumerate(z):
            one = ratio(l, zk)
            # the two paths make the same operations (they agree to the
            # last bit with numpy 2.4), so a point's ratio does not depend
            # on the other arguments of its call
            assert abs(cols[k] - one) <= 1e-15 * abs(one)
            # a one-element array takes the scalar loop
            assert ratio(l, z[k : k + 1])[0] == one


class TestBesselRatioDomain:
    def test_hankel_ratio_refused_below_the_line(self):
        z = 20.0 + (H1_IM_MIN - 0.5) * 1j
        with pytest.raises(RecurrenceDomainError):
            sph_h1n_ratio(5, z)
        for args in (np.array([z]), np.array([z, 20.0])):
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
    jarr = sph_jn_all(l + 1, z)
    try:
        harr = sph_h1n_all(l + 1, z)
    except OverflowError:
        assume(False)
    assume(np.all(np.abs(harr) < 1e120) and np.abs(jarr[l]) > 1e-120)
    jp = jarr[l - 1] - (l + 1) / z * jarr[l]
    hp = harr[l - 1] - (l + 1) / z * harr[l]
    wron = jarr[l] * hp - jp * harr[l]
    assert abs(wron - 1j / z**2) <= 1e-8 / z**2


@given(z=complex_args, l=st.integers(min_value=1, max_value=120))
@settings(max_examples=60, deadline=None)
def test_three_term_recurrence_j(z, l):
    assume(abs(z) > 1.0)
    arr = sph_jn_all(l + 1, z)
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
        with pytest.raises(RecurrenceDomainError):
            sph_h1n_all(l + 1, z)
        return
    try:
        arr = sph_h1n_all(l + 1, z)
    except OverflowError:
        assume(False)
    lhs = arr[l - 1] + arr[l + 1]
    rhs = (2 * l + 1) * arr[l] / z
    ref = max(abs(lhs), abs(rhs))
    assume(np.isfinite(ref) and ref > 1e-280)
    assert abs(lhs - rhs) <= 1e-9 * ref


@given(z=complex_args, l=st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_conjugation_symmetry(z, l):
    assume(abs(z) > 1e-6)
    a = sph_jn_all(l, np.conj(z))[l]
    b = np.conj(sph_jn_all(l, z)[l])
    assert abs(a - b) <= 1e-13 * max(abs(b), 1e-300)


@given(
    x=st.floats(min_value=-1.0, max_value=1.0),
    l=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=80, deadline=None)
def test_legendre_bound_and_parity(x, l):
    arr = legendre_all(l, x)
    arr_neg = legendre_all(l, -x)
    assert np.all(np.abs(arr) <= 1.0 + 1e-9)
    assert arr_neg[l] == pytest.approx((-1.0) ** l * arr[l], abs=1e-9)
