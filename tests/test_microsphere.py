import math
import warnings

import numpy as np
import pytest

from sphereqed import microsphere, special
from sphereqed.microsphere import (
    BLOCK,
    DrudeLorentzParams,
    GRID_PER_UNIT,
    NonConvergenceError,
    Resonance,
    SphereSystem,
    collective_rate,
    collective_rates,
    find_resonances,
    permittivity,
    rates_pm,
    refractive_index,
    resonance_kind,
    size_parameter,
)
from sphereqed.special import H1_IM_MIN, legendre_all

from oracles import (
    free_space_cross_rate,
    mp_collective_rate,
    mp_denominator_slope,
    mp_log_derivative,
    mp_mie_b,
    mp_resonance,
    mp_spherical_h1,
    mp_spherical_j,
    scalar_find_resonances,
)


def free_space_system(r: float, theta: float = math.pi) -> SphereSystem:
    """Vacuum sphere (omega_p = 0) with atoms at radius r."""
    return SphereSystem(
        DrudeLorentzParams(omega_p=0.0, gamma=1e-9),
        radius=0.5 * r,
        atom_distance=0.5 * r,
        theta=theta,
    )


class TestPermittivity:
    def test_static_limit(self):
        p = DrudeLorentzParams(0.5, 1e-6)
        assert permittivity(p, 1e-7) == pytest.approx(1.25, rel=1e-6)

    def test_negative_inside_gap(self):
        p = DrudeLorentzParams(0.5, 1e-6)
        assert permittivity(p, 1.05).real < 0

    def test_gap_edge(self):
        p = DrudeLorentzParams(0.5, 1e-6)
        eps = permittivity(p, p.omega_l)
        assert abs(eps.real) < 1e-4

    def test_absorptive_sign(self):
        p = DrudeLorentzParams(0.5, 1e-6)
        for om in (0.3, 0.9, 1.05, 1.4):
            assert permittivity(p, om).imag > 0

    def test_sqrt_branch(self):
        p = DrudeLorentzParams(0.5, 1e-6)
        assert refractive_index(p, 1.05).imag >= 0


def mie_rows(sys: SphereSystem, l: int, om: complex):
    """num and den of B_l = -num/den at order l and frequency om: the
    _mie_arrays rows that _rate_orders divides."""
    num, den, _, _ = microsphere._mie_arrays(sys.params, sys.radius, l, np.array([om]), ())
    return num[l - 1, 0], den[l - 1, 0]


def mie_b(sys: SphereSystem, l: int, om: complex) -> complex:
    """B_l = -num/den at order l and frequency om, as _rate_orders forms it."""
    num, den = mie_rows(sys, l, om)
    return -num / den


class TestMieCoefficient:
    @pytest.mark.parametrize("l", [1, 5, 40])
    @pytest.mark.parametrize("om", [0.5, 1.0501])
    def test_vacuum_sphere_vanishes(self, l, om):
        sys0 = free_space_system(2.0)
        num, den = mie_rows(sys0, l, om)
        assert num == 0 and den != 0

    def test_peak_at_resonance(self, fig2_system, fig2_resonance):
        res = fig2_resonance
        on = abs(mie_b(fig2_system, res.l, res.omega_c))
        off = abs(mie_b(fig2_system, res.l, res.omega_c + 50 * res.delta_omega_c))
        assert on > 10 * off

    @pytest.mark.parametrize(
        "omega_p,gamma,radius,l,om",
        [
            (0.5, 1e-6, 10.0, 121, 1.0501),
            (0.5, 1e-6, 10.0, 30, 0.95),
            (0.9, 1e-4, 3.0, 7, 0.8),
            (0.3, 1e-3, 1.4, 2, 1.2),
            # next to omega = 1, where j_l(n k R) leaves float64
            (0.5, 1e-6, 10.0, 121, 1.00001),
            (0.5, 1e-6, 10.0, 5, 1.0 - 1e-7),
        ],
    )
    def test_independent_assembly(self, omega_p, gamma, radius, l, om):
        sys0 = SphereSystem(DrudeLorentzParams(omega_p, gamma), radius, 0.2)
        mine = mie_b(sys0, l, om)
        ref = mp_mie_b(omega_p, gamma, radius, l, om)
        assert abs(mine - ref) <= 1e-8 * abs(ref)

    @pytest.mark.parametrize(
        "l,om", [(121, 1.0501), (70, 0.925), (121, 1.0501 - 5e-7j), (1, 0.3 - 0.07j)]
    )
    def test_rate_sum_denominator_is_the_search_f(self, fig2_system, l, om):
        # the rate sum's denominator rows, here of a pass to l = 150, hold
        # h_l(k R) f: f as the resonance search forms it, to rounding
        sys0 = fig2_system
        _, den, _, _ = microsphere._mie_arrays(sys0.params, sys0.radius, 150, np.array([om]), ())
        h = mp_spherical_h1(l, size_parameter(om, sys0.radius))
        omega = np.array([om])
        *_, dh, dj = microsphere._order_terms(sys0, l, omega)
        f = microsphere._reduced_denominator(sys0, l, omega)[0]
        assert abs(den[l - 1, 0] / h - f) <= 1e-12 * (abs(dh[0]) + abs(dj[0]))


class TestCollectiveRate:
    @pytest.mark.parametrize("kr", [1.0, 5.0, 20.0, 66.0, 100.0])
    def test_free_space_single_atom(self, kr):
        sys0 = free_space_system(kr / (2 * math.pi))
        assert collective_rate(sys0, 1.0, same_atom=True) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("theta", [math.pi, 2.2, 1.1, 0.4])
    @pytest.mark.parametrize("kr", [2.0, 18.0, 66.0])
    def test_free_space_cross_vs_green_tensor(self, kr, theta):
        sys0 = free_space_system(kr / (2 * math.pi), theta=theta)
        got = collective_rate(sys0, 1.0, same_atom=False)
        want = free_space_cross_rate(kr, theta)
        assert got == pytest.approx(want, abs=1e-6)

    def test_strong_diametric_interaction(self, fig2_system, fig2_resonance):
        gaa = collective_rate(fig2_system, fig2_resonance.omega_c, same_atom=True)
        gab = collective_rate(fig2_system, fig2_resonance.omega_c, same_atom=False)
        assert abs(gab) > gaa / 2

    def test_positivity_and_cross_bound(self, fig2_system):
        for om in (0.4, 0.85, 0.97, 1.0501, 1.08):
            gaa = collective_rate(fig2_system, om, same_atom=True)
            gab = collective_rate(fig2_system, om, same_atom=False)
            assert gaa > 0
            assert abs(gab) <= gaa + 1e-6

    def test_too_close_to_surface_raises(self):
        sys0 = SphereSystem(DrudeLorentzParams(0.5, 1e-6), 10.0, 0.005)
        with pytest.raises(NonConvergenceError):
            collective_rate(sys0, 1.0501, same_atom=True)

    @pytest.mark.parametrize(
        "omega_p,gamma,radius,dr,theta,om",
        [
            (0.9, 1e-4, 3.0, 0.4, math.pi, 0.8),
            (0.3, 1e-3, 1.4, 0.3, 1.3, 1.2),
        ],
    )
    def test_full_sum_vs_independent_assembly(self, omega_p, gamma, radius, dr, theta, om):
        # whole-sum cross-check: every piece (Mie, Bessel, Legendre, weights)
        # reassembled in mpmath, summed far past where the package truncates
        sys0 = SphereSystem(DrudeLorentzParams(omega_p, gamma), radius, dr, theta)
        got = collective_rate(sys0, om, same_atom=False)
        lmax = int(2 * math.pi * om * (radius + dr)) + 40
        want = mp_collective_rate(omega_p, gamma, radius, dr, theta, om, lmax)
        assert got == pytest.approx(want, abs=1e-8)


class TestBlockKernel:
    @pytest.mark.parametrize("axis", ["omega", "theta", "delta_r"])
    def test_block_invariance_across_sweeps(self, fig2_system, axis):
        # sweeps over more than one block give each point the bits of a call
        # of its own: no column of a block reads another.  Every sum of the
        # omega and theta sweeps at delta_r = 0.14 needs the l = 300 cap, and
        # so do the near points of the distance sweep, whose far ones settle
        # early
        sys0 = fig2_system
        r, omega, cos_theta = sys0.r, 1.0501, -1.0
        if axis == "omega":
            omega = np.linspace(1.04, 1.0535, BLOCK + 9)
        elif axis == "theta":
            cos_theta = np.cos(np.linspace(0.0, math.pi, 2 * BLOCK + 9))
        else:
            r = sys0.radius + np.linspace(0.05, 3.0, 2 * BLOCK + 9)
        gaa, gab = collective_rates(sys0.params, sys0.radius, r, omega, cos_theta)
        r, omega, cos_theta = np.broadcast_arrays(r, omega, cos_theta)
        assert gaa.shape == gab.shape == omega.shape
        for k in range(omega.size):
            one_aa, one_ab = collective_rates(sys0.params, sys0.radius, r[k], omega[k],
                                              cos_theta[k])
            assert one_aa == gaa[k] and one_ab == gab[k]

    @staticmethod
    def spy_ratio_runs(monkeypatch):
        """The j and h argument arrays of every sph_jn_h1n_ratios call the
        rate kernel makes, and the name of every run of a ratio loop."""
        calls = {"j": [], "h": [], "loops": []}
        rows = microsphere.sph_jn_h1n_ratios

        def spy(lmax, jz, hz):
            calls["j"].append(np.array(jz))
            calls["h"].append(np.array(hz))
            return rows(lmax, jz, hz)

        monkeypatch.setattr(microsphere, "sph_jn_h1n_ratios", spy)
        for name in ("_ratio_columns", "_jn_ratio_loop", "_h1n_ratio_loop"):
            def loop(*args, fn=getattr(special, name), name=name):
                calls["loops"].append(name)
                return fn(*args)
            monkeypatch.setattr(special, name, loop)
        return calls

    def test_one_ratio_run_per_block(self, fig2_system, monkeypatch):
        sys0 = fig2_system
        omega = np.linspace(1.0495, 1.0505, BLOCK)
        calls = self.spy_ratio_runs(monkeypatch)
        microsphere._rate_orders(sys0.params, sys0.radius, np.full(BLOCK, sys0.r), omega, 150)
        # j on concat(k R, n k R, k r) and h on concat(k R, k r), each
        # argument once, in one run of the column loop
        assert [len(z) for z in calls["j"]] == [3 * BLOCK]
        assert [len(z) for z in calls["h"]] == [2 * BLOCK]
        assert calls["loops"] == ["_ratio_columns"]

    def test_distance_sweep_passes_distinct_arguments(self, fig2_system, monkeypatch):
        # one frequency: one k R and one n k R, and a k r per distance, in
        # the one ratio run of a block; 2 BLOCK distances fill a block, and
        # the next ten make a second one
        sys0 = fig2_system
        dr = np.linspace(0.5, 3.0, 2 * BLOCK + 10)
        calls = self.spy_ratio_runs(monkeypatch)
        collective_rates(sys0.params, sys0.radius, sys0.radius + dr, 1.0501, -1.0)
        assert len(calls["j"]) == len(calls["h"]) == 2
        for j, h, count in zip(calls["j"], calls["h"], (2 * BLOCK, 10)):
            assert len(j) == len(np.unique(j)) == 2 + count
            assert len(h) == 1 + count
        assert calls["loops"] == ["_ratio_columns", "_ratio_columns"]

    @pytest.mark.parametrize("axis", ["omega", "theta", "delta_r"])
    def test_one_rate_orders_call_per_block_at_the_cap(self, fig2_system, monkeypatch, axis):
        # a figure3-window omega sweep over two blocks of BLOCK points (3
        # BLOCK j columns each), a theta sweep in one block of 2 BLOCK
        # points, and a 150-point distance sweep over three blocks whose
        # near points need the cap and far ones do not
        sys0 = fig2_system
        r, omega, cos_theta = sys0.r, 1.0501, -1.0
        if axis == "omega":
            omega = np.linspace(1.04, 1.0535, 2 * BLOCK)
        elif axis == "theta":
            cos_theta = np.cos(np.linspace(0.0, math.pi, 2 * BLOCK))
        else:
            r = sys0.radius + np.linspace(0.05, 3.0, 150)
        sizes = []
        rate_orders = microsphere._rate_orders

        def spy(params, radius, r, omega, lmax):
            sizes.append((lmax, len(omega)))
            return rate_orders(params, radius, r, omega, lmax)

        monkeypatch.setattr(microsphere, "_rate_orders", spy)
        collective_rates(sys0.params, sys0.radius, r, omega, cos_theta)
        blocks = {"omega": [BLOCK, BLOCK], "theta": [2 * BLOCK],
                  "delta_r": [2 * BLOCK, 2 * BLOCK, 150 - 4 * BLOCK]}[axis]
        assert sizes == [(300, size) for size in blocks]

    @pytest.mark.parametrize("axis", ["omega", "delta_r"])
    def test_repeated_points_give_identical_rates(self, fig2_system, axis):
        sys0 = fig2_system
        omega = np.array([0.97, 1.0501, 1.02, 0.93])
        r = sys0.radius + np.array([0.14, 0.3, 1.1, 2.0])
        cos_theta = np.cos([math.pi, 2.0, 1.0, 0.3])
        repeat = [0, 1, 0, 2, 1, 3, 3, 0]
        if axis == "omega":
            r = np.full(4, sys0.r)
        else:
            omega = np.full(4, 1.0501)
        once = collective_rates(sys0.params, sys0.radius, r, omega, cos_theta)
        again = collective_rates(sys0.params, sys0.radius, r[repeat], omega[repeat],
                                 cos_theta[repeat])
        for rates, repeated in zip(once, again):
            assert np.array_equal(repeated, rates[repeat])

    def test_arguments_broadcast(self, fig2_system):
        sys0 = fig2_system
        omega = np.array([[0.97], [1.0501]])
        cos_theta = np.cos(np.array([0.0, 1.0, math.pi]))
        gaa, gab = collective_rates(sys0.params, sys0.radius, sys0.r, omega, cos_theta)
        assert gaa.shape == gab.shape == (2, 3)
        # theta = 0 puts both dipoles at one site: Gamma_AB = Gamma_AA
        assert np.all(gab[:, 0] == gaa[:, 0])
        assert np.all(gaa == gaa[:, :1])

    def test_domain_errors(self, fig2_system):
        sys0 = fig2_system
        with pytest.raises(ValueError):
            collective_rates(sys0.params, sys0.radius, sys0.r, [1.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            collective_rates(sys0.params, sys0.radius, sys0.radius, 1.0, 1.0)


class TestRatesPm:
    def test_sum_identity(self, fig2_system):
        for om in (0.9, 1.0501):
            gaa = collective_rate(fig2_system, om, same_atom=True)
            gp, gm = rates_pm(fig2_system, om)
            assert gp + gm == pytest.approx(2 * gaa, rel=1e-12)

    def test_symmetric_split_without_cross_rate(self):
        # far from the sphere the cross rate vanishes and the split is even
        sys0 = free_space_system(40.0, theta=2.0)
        gp, gm = rates_pm(sys0, 1.0)
        gab = collective_rate(sys0, 1.0, same_atom=False)
        assert abs(gab) < 1e-2
        assert gp == pytest.approx(gm, abs=2 * abs(gab) + 1e-12)

    def test_drastic_enhancement_at_resonance(self, fig2_system, fig2_resonance):
        gp, gm = rates_pm(fig2_system, fig2_resonance.omega_c)
        assert max(gp / gm, gm / gp) > 100

    def test_free_space_recovery_far_away(self, fig2_system, fig2_resonance):
        far = SphereSystem(fig2_system.params, fig2_system.radius, 3.0, math.pi)
        gp, gm = rates_pm(far, fig2_resonance.omega_c)
        assert gp == pytest.approx(1.0, abs=0.2)
        assert gm == pytest.approx(1.0, abs=0.2)


@pytest.fixture
def denominator_args(monkeypatch):
    """Every omega at which the resonance search evaluates the terms of f,
    the Mie denominator divided by j_l(n k R) h_l(k R): the grid, golden
    section, Newton and acceptance calls alike."""
    seen = []
    terms = microsphere._order_terms

    def spy(sys, l, omega):
        seen.extend(complex(om) for om in np.atleast_1d(omega))
        return terms(sys, l, omega)

    monkeypatch.setattr(microsphere, "_order_terms", spy)
    return seen


class TestFindResonances:
    def test_fig2_resonance_location(self, fig2_resonance):
        assert 1.0495 <= fig2_resonance.omega_c <= 1.0507
        assert 0 < fig2_resonance.delta_omega_c < 1e-3
        assert fig2_resonance.kind == "SG"
        assert fig2_resonance.l == 121

    def test_vacuum_sphere_has_no_resonances(self):
        sys0 = free_space_system(2.0)
        assert find_resonances(sys0, 0.8, 1.2, range(1, 10)) == []

    def test_width_grows_with_absorption(self, fig2_system, fig2_resonance):
        lossy = SphereSystem(fig2_system.params.__class__(0.5, 1e-5), 10.0, 0.14, math.pi)
        found = find_resonances(lossy, 1.0495, 1.0507, [121])
        assert len(found) == 1
        assert found[0].omega_c == pytest.approx(fig2_resonance.omega_c, abs=1e-4)
        assert found[0].delta_omega_c > fig2_resonance.delta_omega_c

    def test_window_validation(self, fig2_system):
        with pytest.raises(ValueError):
            find_resonances(fig2_system, 1.1, 1.0, [5])

    def test_whispering_gallery_modes_below_gap(self, fig2_system):
        found = find_resonances(fig2_system, 0.92, 0.93, [70, 80])
        assert found
        assert all(r.kind == "WG" for r in found)
        assert all(0.92 <= r.omega_c <= 0.93 and r.delta_omega_c > 0 for r in found)

    def test_newton_drops_iterate_below_accurate_region(self, fig2_system, denominator_args):
        # from omega = 0.25 the l = 1 iteration passes below Im(k R) = -5,
        # where h_l^(1) is refused, and the candidate is dropped: NaN in
        # each column of the roots
        assert np.all(np.isnan(microsphere._newton_root(fig2_system, 1, np.array([0.25, 0.25]))))
        lowest = min(size_parameter(om, fig2_system.radius).imag for om in denominator_args)
        assert lowest < H1_IM_MIN
        # there f is NaN, on the one-point and the column path
        below = 0.3 - 0.1j
        assert size_parameter(below, fig2_system.radius).imag < H1_IM_MIN
        for omega in (np.array([below]), np.array([below, 0.3])):
            f = microsphere._reduced_denominator(fig2_system, 1, omega)
            assert np.isnan(f[0]) and np.isfinite(f[1:]).all()

    def test_newton_iterates_of_demo_root_stay_near_axis(self, fig2_system, fig2_resonance,
                                                        denominator_args):
        assert find_resonances(fig2_system, 1.0495, 1.0507, [121]) == [fig2_resonance]
        assert min(om.imag for om in denominator_args) > -1e-5

    def test_lorentzian_width_consistency(self, fig2_system, fig2_resonance):
        # a complex-pole fit to Gamma_AA(omega) must recover the root's width
        from scipy.optimize import least_squares

        wc, dwc = fig2_resonance.omega_c, fig2_resonance.delta_omega_c
        om = np.linspace(wc - 5 * dwc, wc + 5 * dwc, 25)
        gaa = np.array([collective_rate(fig2_system, w, same_atom=True) for w in om])

        def resid(q):
            base, ar, ai, w0, hw = q
            return base + ((ar + 1j * ai) / ((om - w0) + 1j * hw)).real - gaa

        q0 = [gaa.min(), 0.0, (gaa.max() - gaa.min()) * dwc * 1.5, om[np.argmax(gaa)], 1.5 * dwc]
        fit = least_squares(resid, q0, x_scale=[max(abs(v), dwc) for v in q0])
        assert fit.success
        assert fit.x[4] == pytest.approx(dwc, rel=0.15)


class TestBatchedRefinement:
    @pytest.mark.parametrize(
        "omega_lo,omega_hi,l,min_roots",
        [
            (0.90, 0.995, 70, 20),  # below the gap: many candidates refined together
            (1.0495, 1.0507, 121, 1),  # the demo resonance
            (1.04, 1.06, 115, 1),  # a band-gap order with a single candidate
            # two orders in one refinement stream
            pytest.param(1.04, 1.06, (115, 121), 2, id="1.04-1.06-115+121-2"),
        ],
    )
    def test_matches_one_candidate_at_a_time(self, fig2_system, omega_lo, omega_hi, l,
                                             min_roots):
        orders = l if isinstance(l, tuple) else (l,)
        got = find_resonances(fig2_system, omega_lo, omega_hi, orders)
        want = scalar_find_resonances(fig2_system, omega_lo, omega_hi, orders)
        assert len(want) >= min_roots
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.l, g.kind) == (w.l, w.kind)
            assert g.omega_c == pytest.approx(w.omega_c, rel=1e-12, abs=0)
            assert g.delta_omega_c == pytest.approx(w.delta_omega_c, rel=1e-12, abs=0)

    def test_newton_columns_converge_or_drop(self, fig2_system, fig2_resonance):
        starts = fig2_resonance.omega_c + np.array([0.0, 1e-9])
        roots = microsphere._newton_root(fig2_system, 121, starts)
        assert roots == pytest.approx(np.full(2, roots[0]), rel=1e-13)
        assert roots[0].real == pytest.approx(fig2_resonance.omega_c, rel=1e-12)

    def test_overflowed_column_raises(self, fig2_system, monkeypatch):
        # a non-finite ratio column is raised, naming l and omega, instead
        # of being dropped
        ratios = microsphere.sph_jn_h1n_ratio

        def overflowing(l, jz, hz):
            r, q = ratios(l, jz, hz)
            r[-1] = np.inf
            return r, q

        monkeypatch.setattr(microsphere, "sph_jn_h1n_ratio", overflowing)
        with pytest.raises(OverflowError, match=r"l=121 at omega=1\.0502"):
            microsphere._reduced_denominator(fig2_system, 121, np.array([1.0501, 1.0502]))
        # with one order per column the error names the failing column's
        # order, not the array of orders
        with pytest.raises(OverflowError, match=r"l=121 at omega=1\.0502$"):
            microsphere._reduced_denominator(fig2_system, np.array([120, 121]),
                                             np.array([1.0501, 1.0502]))

        # in a two-order window only order 121 overflows, and only in the
        # refinement stream, where both orders share one call
        def second_order_overflowing(l, jz, hz):
            r, q = ratios(l, jz, hz)
            if np.ndim(l):
                r[np.asarray(l) == 121] = np.inf
            return r, q

        monkeypatch.setattr(microsphere, "sph_jn_h1n_ratio", second_order_overflowing)
        with pytest.raises(OverflowError, match=r"overflowed for l=121 at omega="):
            find_resonances(fig2_system, 1.04, 1.06, [120, 121])

    def test_point_does_not_depend_on_call_size(self, fig2_system):
        # f and the balance ratio at a point are the same bits in a one-point
        # call, a batch of one order and a batch of mixed orders: numpy's
        # in-place complex multiply takes another loop for one element
        omega = np.linspace(1.04, 1.06, 40) - 1j * np.linspace(0.0, 1e-6, 40)
        orders = np.resize([153, 121, 60, 200], len(omega))
        for fn in (microsphere._reduced_denominator, microsphere._denominator_balance):
            batch = fn(fig2_system, 153, omega)
            mixed = fn(fig2_system, orders, omega)
            for k, om in enumerate(omega):
                assert np.array_equal(fn(fig2_system, 153, omega[k : k + 1]), batch[k : k + 1])
                one = fn(fig2_system, int(orders[k]), np.array([om]))
                assert np.array_equal(one, mixed[k : k + 1])

    @pytest.mark.parametrize(
        "omega_lo,omega_hi,orders,min_roots",
        [
            (1.04, 1.06, range(110, 129), 19),  # band gap, one root per order
            (0.90, 0.995, range(63, 67), 100),  # below the gap, many roots per order
            (1.04, 1.06, range(60, 201), 100),  # the wide band-gap search
        ],
        ids=["band-gap", "below-gap", "wide"],
    )
    def test_many_orders_equal_each_order_alone(self, fig2_system, omega_lo, omega_hi,
                                                orders, min_roots):
        got = find_resonances(fig2_system, omega_lo, omega_hi, orders)
        alone = [r for l in orders for r in find_resonances(fig2_system, omega_lo, omega_hi, [l])]
        assert len(got) >= min_roots
        assert got == sorted(alone, key=lambda r: (r.omega_c, r.l))

    def test_refinement_calls_do_not_grow_with_orders(self, fig2_system, monkeypatch):
        # a 4-order band-gap search makes one grid call in all, and its
        # refinement as many calls as that of each of its orders alone: one
        # stream for all candidates, and one ratio recurrence call per
        # Newton step, which gives f and its derivative
        names = ("_denominator_balance", "_denominator_slope", "_reduced_denominator",
                 "sph_jn_h1n_ratio")
        calls = {name: [] for name in names}
        for name in names:
            def spy(*args, _fn=getattr(microsphere, name), _name=name):
                # the last argument holds the frequencies or the Bessel arguments
                calls[_name].append(np.size(args[-1]))
                return _fn(*args)

            monkeypatch.setattr(microsphere, name, spy)

        def search_calls(orders):
            for seen in calls.values():
                seen.clear()
            found = find_resonances(fig2_system, 1.04, 1.06, orders)
            assert len(found) == len(orders)
            # the first balance call is the 65-point grid of every order
            grid, *golden = calls["_denominator_balance"]
            assert grid == 65 * len(orders)
            evaluations = sum(len(calls[name]) for name in names[:3])
            assert len(calls["sph_jn_h1n_ratio"]) == evaluations
            return len(golden), len(calls["_denominator_slope"]), len(calls["_reduced_denominator"])

        four = search_calls([119, 120, 121, 122])
        for l in (119, 120, 121, 122):
            assert search_calls([l]) == four

    @pytest.mark.parametrize(
        "omega_lo,omega_hi,orders",
        [(1.04, 1.06, range(60, 201)), (0.90, 0.995, (63, 64))],
        ids=["wide", "below-gap"],
    )
    def test_one_grid_call_equals_per_order_calls(self, fig2_system, monkeypatch, omega_lo,
                                                   omega_hi, orders):
        # the search's one grid call over every (order, grid point) pair
        # gives, bit for bit, the balance ratios of one call per order
        balance = microsphere._denominator_balance
        seen = []

        def spy(sys, l, omega):
            out = balance(sys, l, omega)
            seen.append((np.copy(l), np.copy(omega), out))
            return out

        monkeypatch.setattr(microsphere, "_denominator_balance", spy)
        find_resonances(fig2_system, omega_lo, omega_hi, orders)
        l, omega, vals = seen[0]
        npts = max(64, int(GRID_PER_UNIT * (omega_hi - omega_lo))) + 1
        grid = np.linspace(omega_lo, omega_hi, npts)
        assert np.array_equal(l, np.repeat(orders, len(grid)))
        assert np.array_equal(omega, np.tile(grid, len(orders)))
        per_order = [balance(fig2_system, order, grid) for order in orders]
        assert np.array_equal(vals, np.concatenate(per_order))

    def test_grid_split_into_calls_gives_the_same_roots(self, fig2_system, monkeypatch):
        # past _GRID_PAIRS (order, grid point) pairs the grid takes several
        # calls, here of three 65-point orders each, with the same roots
        want = find_resonances(fig2_system, 1.04, 1.06, range(110, 129))
        monkeypatch.setattr(microsphere, "_GRID_PAIRS", 3 * 65 + 1)
        assert find_resonances(fig2_system, 1.04, 1.06, range(110, 129)) == want


class TestDenominatorSlope:
    """The closed-form df/domega that Newton takes, and the roots it finds,
    against the all-mpmath f."""

    @pytest.mark.parametrize(
        "l,omega",
        [
            (115, 1.05),  # a band-gap order
            (121, None),  # the complex demo root
            (77, 0.99),  # below the gap, where the mode spacing is finest
            (5, 0.3 - 0.07j),  # a low order at a complex frequency
        ],
    )
    def test_against_mpmath(self, fig2_system, fig2_resonance, l, omega):
        if omega is None:
            omega = complex(fig2_resonance.omega_c, -fig2_resonance.delta_omega_c)
        p = fig2_system.params
        f, slope = microsphere._denominator_slope(fig2_system, l, np.array([omega], dtype=complex))
        want = mp_denominator_slope(p.omega_p, p.gamma, fig2_system.radius, l, omega)
        # measured: at most 1.4e-13 (l = 5), 2e-14 to 6e-14 elsewhere; a
        # central difference with step 1e-7 omega is off by 5.6e-7 at l = 77
        assert abs(slope[0] / want - 1) < 3e-13
        assert f == microsphere._reduced_denominator(fig2_system, l, np.array([omega]))

    @pytest.mark.parametrize(
        "omega_lo,omega_hi,l,count",
        [(1.0499, 1.0503, 121, 1), (1.04, 1.06, 110, 1), (1.04, 1.06, 128, 1),
         (0.92, 0.93, 70, 2)],
    )
    def test_roots_against_mpmath(self, fig2_system, omega_lo, omega_hi, l, count):
        p = fig2_system.params
        found = find_resonances(fig2_system, omega_lo, omega_hi, [l])
        assert len(found) == count
        for res in found:
            root = mp_resonance(p.omega_p, p.gamma, fig2_system.radius, l,
                                complex(res.omega_c, -res.delta_omega_c))
            # measured: omega_c exact, delta_omega_c within 7.2e-16 relative
            assert res.omega_c == pytest.approx(root.real, rel=1e-15, abs=0)
            assert res.delta_omega_c == pytest.approx(-root.imag, rel=2e-15, abs=0)


def mp_balance(sys: SphereSystem, l: int, omega: float) -> float:
    """|f| / (|eps D_h| + |D_j|) with both log-derivatives from mpmath."""
    z1 = size_parameter(omega, sys.radius)
    z2 = refractive_index(sys.params, omega) * z1
    dh = permittivity(sys.params, omega) * mp_log_derivative("H1", l, z1)
    dj = mp_log_derivative("J", l, z2)
    return abs(dh - dj) / (abs(dh) + abs(dj))


class TestGridScanRange:
    """Windows where j_l(n k R) or h_l(k R) leave float64: the grid scan
    reads order l through bounded ratios, so every grid point is finite."""

    @pytest.mark.parametrize(
        "l,omega_lo,omega_hi",
        [
            (300, 0.2, 0.25),  # h_300(k R) overflows at every point
            (121, 1.0, 1.1),  # sin and cos of n k R overflow next to omega = 1
        ],
    )
    def test_balance_finite_at_every_grid_point(self, fig2_system, l, omega_lo, omega_hi):
        # the search's grid: 2000 points per unit omega
        grid = np.linspace(omega_lo, omega_hi, int(2000 * (omega_hi - omega_lo)) + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = microsphere._denominator_balance(fig2_system, l, grid)
        assert np.isfinite(vals).all()
        for k in (1, 2, len(grid) // 2, len(grid) - 1):
            assert vals[k] == pytest.approx(mp_balance(fig2_system, l, grid[k]), abs=1e-12)

    def test_no_resonance_at_l_300_below_gap(self, fig2_system):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_resonances(fig2_system, 0.2, 0.25, [300]) == []

    def test_demo_root_from_window_next_to_omega_1(self, fig2_system, fig2_resonance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_resonances(fig2_system, 1.0, 1.1, [121]) == [fig2_resonance]


def single_term(sys: SphereSystem, res: Resonance, same_atom: bool) -> float:
    """The l = res.l term of the rate sum alone at omega_c: row res.l of the
    kernel's per-order terms, times P_l(cos theta)."""
    cos_theta = 1.0 if same_atom else math.cos(sys.theta)
    terms, _ = microsphere._rate_orders(sys.params, sys.radius, np.array([sys.r]),
                                        np.array([res.omega_c]), res.l)
    return float(terms[res.l - 1, 0] * legendre_all(res.l, cos_theta)[res.l, 0])


class TestSingleTermRate:
    def test_dominates_at_resonance(self, fig2_system, fig2_resonance):
        full = collective_rate(fig2_system, fig2_resonance.omega_c, same_atom=True)
        one = single_term(fig2_system, fig2_resonance, same_atom=True)
        assert one == pytest.approx(full, rel=0.1)

    def test_parity_between_poles(self, fig2_system, fig2_resonance):
        # single-term cross rate at theta = pi is exactly (-1)^l times theta = 0
        aligned = SphereSystem(fig2_system.params, fig2_system.radius, 0.14, 0.0)
        t_pi = single_term(fig2_system, fig2_resonance, same_atom=False)
        t_0 = single_term(aligned, fig2_resonance, same_atom=False)
        assert t_pi == pytest.approx((-1.0) ** fig2_resonance.l * t_0, rel=1e-12)

    def test_vacuum_reduces_to_bare_term(self):
        sys0 = free_space_system(2.0, theta=0.3)
        res = Resonance(omega_c=1.0, delta_omega_c=1e-3, l=4, kind="WG")
        kr = 2 * math.pi * sys0.r
        want = (
            1.5 * 4 * 5 * 9 / kr**2
            * (mp_spherical_h1(4, kr) * mp_spherical_j(4, kr)).real
            * legendre_all(4, math.cos(0.3))[4, 0]
        )
        assert single_term(sys0, res, same_atom=False) == pytest.approx(want, rel=1e-12)


class TestTypes:
    def test_kind_classification(self):
        p = DrudeLorentzParams(0.5, 1e-6)
        assert resonance_kind(1.05, p) == "SG"
        assert resonance_kind(0.95, p) == "WG"
        assert resonance_kind(1.2, p) == "WG"  # above the gap edge 1.118

    def test_validation(self):
        with pytest.raises(ValueError):
            DrudeLorentzParams(0.5, 0.0)
        with pytest.raises(ValueError):
            SphereSystem(DrudeLorentzParams(0.5, 1e-6), -1.0, 0.1)
        with pytest.raises(ValueError):
            SphereSystem(DrudeLorentzParams(0.5, 1e-6), 1.0, 0.0)
        with pytest.raises(ValueError):
            Resonance(omega_c=1.0, delta_omega_c=-1e-6, l=3)
