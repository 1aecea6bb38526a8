import math
import warnings

import numpy as np
import pytest

from sphereqed import microsphere
from sphereqed.microsphere import (
    BLOCK,
    DrudeLorentzParams,
    NonConvergenceError,
    Resonance,
    SphereSystem,
    collective_rate,
    collective_rates,
    find_resonances,
    mie_coefficient,
    permittivity,
    rates_pm,
    refractive_index,
    resonance_kind,
    single_term_rate,
    size_parameter,
)
from sphereqed.special import H1_IM_MIN

from oracles import (
    free_space_cross_rate,
    mp_collective_rate,
    mp_log_derivative,
    mp_mie_coefficient,
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


class TestMieCoefficient:
    @pytest.mark.parametrize("l", [1, 5, 40])
    @pytest.mark.parametrize("om", [0.5, 1.0501])
    def test_vacuum_sphere_vanishes(self, l, om):
        sys0 = free_space_system(2.0)
        assert mie_coefficient(sys0, l, om) == 0

    def test_peak_at_resonance(self, fig2_system, fig2_resonance):
        res = fig2_resonance
        on = abs(mie_coefficient(fig2_system, res.l, res.omega_c))
        off = abs(mie_coefficient(fig2_system, res.l, res.omega_c + 50 * res.delta_omega_c))
        assert on > 10 * off

    @pytest.mark.parametrize(
        "omega_p,gamma,radius,l,om",
        [
            (0.5, 1e-6, 10.0, 121, 1.0501),
            (0.5, 1e-6, 10.0, 30, 0.95),
            (0.9, 1e-4, 3.0, 7, 0.8),
            (0.3, 1e-3, 1.4, 2, 1.2),
        ],
    )
    def test_independent_assembly(self, omega_p, gamma, radius, l, om):
        sys0 = SphereSystem(DrudeLorentzParams(omega_p, gamma), radius, 0.2)
        mine = mie_coefficient(sys0, l, om)
        ref = mp_mie_coefficient(omega_p, gamma, radius, l, om)
        assert abs(mine - ref) <= 1e-8 * abs(ref)

    def test_domain_errors(self):
        sys0 = free_space_system(2.0)
        with pytest.raises(ValueError):
            mie_coefficient(sys0, 0, 1.0)
        with pytest.raises(ValueError):
            mie_coefficient(sys0, 1, 0.0)


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
    def test_block_invariance_across_distance_sweep(self, fig2_system):
        # 40 points cross a block boundary and mix near-surface points, whose
        # series need the l = 300 cap, with far ones that settle early
        dr = np.linspace(0.05, 3.0, 40)
        assert len(dr) > BLOCK
        sys0 = fig2_system
        gaa, gab = collective_rates(sys0.params, sys0.radius, sys0.radius + dr, 1.0501, -1.0)
        assert gaa.shape == gab.shape == dr.shape
        for k, d in enumerate(dr):
            one = SphereSystem(sys0.params, sys0.radius, d, sys0.theta)
            want_aa = collective_rate(one, 1.0501, same_atom=True)
            want_ab = collective_rate(one, 1.0501, same_atom=False)
            assert abs(gaa[k] - want_aa) <= 1e-9 * (abs(want_aa) + 1.0)
            assert abs(gab[k] - want_ab) <= 1e-9 * (abs(want_ab) + 1.0)

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
    """Every omega at which the resonance search evaluates f, the Mie
    denominator divided by j_l(n k R) h_l(k R)."""
    seen = []
    denominator = microsphere._reduced_denominator

    def spy(sys, l, omega):
        seen.extend(complex(om) for om in np.atleast_1d(omega))
        return denominator(sys, l, omega)

    monkeypatch.setattr(microsphere, "_reduced_denominator", spy)
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
        # where h_l^(1) is refused, and the candidate is dropped
        assert microsphere._newton_root(fig2_system, 1, 0.25) is None
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
        ],
    )
    def test_matches_one_candidate_at_a_time(self, fig2_system, omega_lo, omega_hi, l,
                                             min_roots):
        got = find_resonances(fig2_system, omega_lo, omega_hi, [l])
        want = scalar_find_resonances(fig2_system, omega_lo, omega_hi, [l])
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
        # as a column, the l = 1 iterate from 0.25 is dropped below Im(k R) = -5 too
        assert np.all(np.isnan(microsphere._newton_root(fig2_system, 1, np.array([0.25, 0.25]))))

    def test_overflowed_column_raises(self, fig2_system, monkeypatch):
        # a non-finite ratio column is raised, naming l and omega, instead
        # of being dropped
        sph_jn_ratio = microsphere.sph_jn_ratio

        def overflowing(l, z):
            out = sph_jn_ratio(l, z)
            out[-1] = np.inf
            return out

        monkeypatch.setattr(microsphere, "sph_jn_ratio", overflowing)
        with pytest.raises(OverflowError, match=r"l=121 at omega=1\.0502"):
            microsphere._reduced_denominator(fig2_system, 121, np.array([1.0501, 1.0502]))


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


class TestSingleTermRate:
    def test_dominates_at_resonance(self, fig2_system, fig2_resonance):
        full = collective_rate(fig2_system, fig2_resonance.omega_c, same_atom=True)
        one = single_term_rate(fig2_system, fig2_resonance, same_atom=True)
        assert one == pytest.approx(full, rel=0.1)

    def test_parity_between_poles(self, fig2_system, fig2_resonance):
        # single-term cross rate at theta = pi is exactly (-1)^l times theta = 0
        aligned = SphereSystem(fig2_system.params, fig2_system.radius, 0.14, 0.0)
        t_pi = single_term_rate(fig2_system, fig2_resonance, same_atom=False)
        t_0 = single_term_rate(aligned, fig2_resonance, same_atom=False)
        assert t_pi == pytest.approx((-1.0) ** fig2_resonance.l * t_0, rel=1e-12)

    def test_vacuum_reduces_to_bare_term(self):
        sys0 = free_space_system(2.0, theta=0.3)
        res = Resonance(omega_c=1.0, delta_omega_c=1e-3, l=4, kind="WG")
        from sphereqed.special import legendre_all, sph_h1n_all, sph_jn_all

        kr = 2 * math.pi * sys0.r
        want = (
            1.5 * 4 * 5 * 9 / kr**2
            * (sph_h1n_all(4, kr)[4] * sph_jn_all(4, kr)[4]).real
            * legendre_all(4, math.cos(0.3))[4]
        )
        assert single_term_rate(sys0, res, same_atom=False) == pytest.approx(want, rel=1e-12)


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
