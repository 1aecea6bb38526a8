import math
import warnings

import numpy as np
import pytest

from sphereqed import microsphere, special
from sphereqed.microsphere import (
    BLOCK,
    HANDOVER_WIDTH,
    DrudeLorentzParams,
    NonConvergenceError,
    Resonance,
    SphereSystem,
    collective_rates,
    find_resonances,
    permittivity,
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
    pole_fit,
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
        assert refractive_index(permittivity(p, 1.05)).imag >= 0


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
        f = microsphere._denominator_slope(sys0, l, omega)[0][0]
        assert abs(den[l - 1, 0] / h - f) <= 1e-12 * (abs(dh[0]) + abs(dj[0]))


class TestCollectiveRate:
    @pytest.mark.parametrize("kr", [1.0, 5.0, 20.0, 66.0, 100.0])
    def test_free_space_single_atom(self, kr):
        sys0 = free_space_system(kr / (2 * math.pi))
        gaa, _ = collective_rates(sys0.params, sys0.radius, sys0.r, 1.0, math.cos(sys0.theta))
        assert gaa == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("theta", [math.pi, 2.2, 1.1, 0.4])
    @pytest.mark.parametrize("kr", [2.0, 18.0, 66.0])
    def test_free_space_cross_vs_green_tensor(self, kr, theta):
        sys0 = free_space_system(kr / (2 * math.pi), theta=theta)
        _, got = collective_rates(sys0.params, sys0.radius, sys0.r, 1.0, math.cos(theta))
        want = free_space_cross_rate(kr, theta)
        assert got == pytest.approx(want, abs=1e-6)

    def test_strong_diametric_interaction(self, fig2_system, fig2_resonance):
        sys0 = fig2_system
        gaa, gab = collective_rates(sys0.params, sys0.radius, sys0.r, fig2_resonance.omega_c,
                                    math.cos(sys0.theta))
        assert abs(gab) > gaa / 2

    def test_positivity_and_cross_bound(self, fig2_system):
        sys0 = fig2_system
        om = [0.4, 0.85, 0.97, 1.0501, 1.08]
        gaa, gab = collective_rates(sys0.params, sys0.radius, sys0.r, om, math.cos(sys0.theta))
        assert np.all(gaa > 0)
        assert np.all(np.abs(gab) <= gaa + 1e-6)

    def test_too_close_to_surface_raises(self):
        sys0 = SphereSystem(DrudeLorentzParams(0.5, 1e-6), 10.0, 0.005)
        with pytest.raises(NonConvergenceError):
            collective_rates(sys0.params, sys0.radius, sys0.r, 1.0501, math.cos(sys0.theta))

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
        _, got = collective_rates(sys0.params, sys0.radius, sys0.r, om, math.cos(theta))
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
        for name in ("_ratio_columns", "_scalar_loop"):
            def loop(*args, fn=getattr(special, name), name=name):
                calls["loops"].append(name)
                return fn(*args)
            monkeypatch.setattr(special, name, loop)
        return calls

    def test_one_ratio_run_per_block(self, fig2_system, monkeypatch):
        sys0 = fig2_system
        omega = np.linspace(1.0495, 1.0505, BLOCK)
        calls = self.spy_ratio_runs(monkeypatch)
        kr = size_parameter(omega, sys0.r)
        next(microsphere._rate_orders(sys0.params, sys0.radius, kr, omega, 150))
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

    @staticmethod
    def spy_stages(monkeypatch):
        """Per _rate_orders call, one per block: its lmax, its stage, its
        number of points and the (orders, points) shape of the terms of each
        stage that the block took."""
        calls = []
        rate_orders = microsphere._rate_orders

        def spy(params, radius, kr, omega, lmax, stage=None):
            shapes = []
            calls.append((lmax, stage, len(omega), shapes))
            stages = rate_orders(params, radius, kr, omega, lmax, stage)
            points = None
            while True:
                try:
                    terms, env_mag = stages.send(points)
                except StopIteration:
                    return
                shapes.append(terms.shape)
                points = yield terms, env_mag

        monkeypatch.setattr(microsphere, "_rate_orders", spy)
        return calls

    @pytest.mark.parametrize("axis", ["omega", "theta", "delta_r"])
    def test_one_rate_orders_call_per_block_at_the_cap(self, fig2_system, monkeypatch, axis):
        # a figure3-window omega sweep over two blocks of BLOCK points (3
        # BLOCK j columns each) and a theta sweep in one block of 2 BLOCK
        # points, at delta_r = 0.14, where no point has an image bound
        # within the stage: each block makes one pass to the cap.  A
        # distance sweep over three blocks has far points in each: every
        # point goes to the stage, and only the 76 points of the first
        # block below delta_r = 0.77, whose sums settle beyond it, go on
        sys0 = fig2_system
        r, omega, cos_theta = sys0.r, 1.0501, -1.0
        if axis == "omega":
            omega = np.linspace(1.04, 1.0535, 2 * BLOCK)
        elif axis == "theta":
            cos_theta = np.cos(np.linspace(0.0, math.pi, 2 * BLOCK))
        else:
            r = sys0.radius + np.linspace(0.05, 3.0, 4 * BLOCK + 10)
        calls = self.spy_stages(monkeypatch)
        collective_rates(sys0.params, sys0.radius, r, omega, cos_theta)
        stage = microsphere._STAGE
        assert stage == 150
        blocks = {
            "omega": [(300, None, BLOCK, [(300, BLOCK)])] * 2,
            "theta": [(300, None, 2 * BLOCK, [(300, 2 * BLOCK)])],
            "delta_r": [(300, stage, 2 * BLOCK, [(stage, 2 * BLOCK), (300 - stage, 76)]),
                        (300, stage, 2 * BLOCK, [(stage, 2 * BLOCK)]),
                        (300, stage, 10, [(stage, 10)])],
        }[axis]
        assert calls == blocks
        if axis == "delta_r":
            # the 150-point distance presets fill one block, whose 113
            # points with both sums settled by the stage stop there
            calls.clear()
            collective_rates(sys0.params, sys0.radius, sys0.radius + np.linspace(0.05, 3.0, 150),
                             omega, cos_theta)
            assert calls == [(300, stage, 150, [(stage, 150), (300 - stage, 37)])]

    @pytest.mark.parametrize("omega", [1.0501, 0.95, 1.2])
    @pytest.mark.parametrize("radius,stage,dr", [(2.0, 40, 6.0), (10.0, microsphere._STAGE, 3.0)])
    def test_points_past_the_stage_keep_their_bits(self, fig2_system, monkeypatch, omega,
                                                    radius, stage, dr):
        # a stage of 40 on a sphere of radius 2, whose far points (image
        # bounds of 35-40 from delta_r = 0.83 on) settle beyond it, and
        # the stage on the demo sphere: the points that go on carry their
        # products, sums and runs to the cap, and every rate is the bit of
        # one pass to the cap (a stage that no point reaches)
        params = fig2_system.params
        r = radius + np.linspace(0.14, dr, 90)
        cos_theta = np.cos(np.linspace(0.2, 3.1, 90))
        calls = self.spy_stages(monkeypatch)
        monkeypatch.setattr(microsphere, "_STAGE", 0)
        one_pass = collective_rates(params, radius, r, omega, cos_theta)
        assert calls == [(300, None, 90, [(300, 90)])]
        calls.clear()
        monkeypatch.setattr(microsphere, "_STAGE", stage)
        staged = collective_rates(params, radius, r, omega, cos_theta)
        far = microsphere._image_bounds(radius, size_parameter(omega, r), np.full(90, omega))
        assert (far <= stage).any()
        (_, _, _, shapes), = calls
        assert shapes[0] == (stage, 90) and shapes[1][0] == 300 - stage
        assert 0 < shapes[1][1] < 90
        for got, want in zip(staged, one_pass):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("axis", ["theta", "delta_r"])
    def test_legendre_rows_once_per_run_of_equal_cosines(self, fig2_system, monkeypatch, axis):
        # a distance sweep over three blocks has one cosine, so one
        # legendre_all call serves every block; the two blocks of a theta
        # sweep have cosines of their own, one call each
        sys0 = fig2_system
        r, cos_theta = sys0.r, -1.0
        if axis == "theta":
            cos_theta = np.cos(np.linspace(0.0, math.pi, 2 * BLOCK + 9))
        else:
            r = sys0.radius + np.linspace(0.05, 3.0, 4 * BLOCK + 10)
        sizes = []
        legendre_all = microsphere.legendre_all

        def spy(lmax, x):
            sizes.append(np.size(x))
            return legendre_all(lmax, x)

        monkeypatch.setattr(microsphere, "legendre_all", spy)
        collective_rates(sys0.params, sys0.radius, r, 1.0501, cos_theta)
        assert sizes == {"theta": [2 * BLOCK, 9], "delta_r": [1]}[axis]

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
    """Gamma_pm = Gamma_AA +/- Gamma_AB of one collective_rates call."""

    def test_sum_identity(self, fig2_system):
        # Gamma_AA, so (Gamma_+ + Gamma_-)/2, is bit for bit the cross rate
        # at cos theta = 1, as P_l(1) = 1
        sys0, om = fig2_system, [0.9, 1.0501]
        gaa, _ = collective_rates(sys0.params, sys0.radius, sys0.r, om, math.cos(sys0.theta))
        _, aligned = collective_rates(sys0.params, sys0.radius, sys0.r, om, 1.0)
        assert np.array_equal(gaa, aligned)

    def test_symmetric_split_without_cross_rate(self):
        # far from the sphere the cross rate vanishes and the split is even
        sys0 = free_space_system(40.0, theta=2.0)
        gaa, gab = collective_rates(sys0.params, sys0.radius, sys0.r, 1.0, math.cos(sys0.theta))
        assert abs(gab) < 1e-2
        assert gaa + gab == pytest.approx(gaa - gab, abs=2 * abs(gab) + 1e-12)

    def test_drastic_enhancement_at_resonance(self, fig2_system, fig2_resonance):
        sys0 = fig2_system
        gaa, gab = collective_rates(sys0.params, sys0.radius, sys0.r, fig2_resonance.omega_c,
                                    math.cos(sys0.theta))
        gp, gm = gaa + gab, gaa - gab
        assert max(gp / gm, gm / gp) > 100

    def test_free_space_recovery_far_away(self, fig2_system, fig2_resonance):
        sys0 = fig2_system
        gaa, gab = collective_rates(sys0.params, sys0.radius, sys0.radius + 3.0,
                                    fig2_resonance.omega_c, -1.0)
        assert gaa + gab == pytest.approx(1.0, abs=0.2)
        assert gaa - gab == pytest.approx(1.0, abs=0.2)


@pytest.fixture
def denominator_args(monkeypatch):
    """Every omega at which the resonance search evaluates the terms of f,
    the Mie denominator divided by j_l(n k R) h_l(k R): the grid, golden
    section (below omega_T and above omega_L), Newton and acceptance calls
    alike."""
    seen = []
    terms = microsphere._order_terms

    def spy(sys, l, omega, ratios=None):
        seen.extend(complex(om) for om in np.atleast_1d(omega))
        return terms(sys, l, omega, ratios)

    monkeypatch.setattr(microsphere, "_order_terms", spy)
    return seen


class TestFindResonances:
    def test_fig2_resonance_location(self, fig2_resonance):
        assert 1.0495 <= fig2_resonance.omega_c <= 1.0507
        assert 0 < fig2_resonance.delta_omega_c < 1e-3
        assert fig2_resonance.kind == "SG"
        assert fig2_resonance.l == 121

    def test_order_below_one_rejected(self, fig2_system):
        with pytest.raises(ValueError, match=r"l=0 must be >= 1"):
            find_resonances(fig2_system, 1.04, 1.06, range(0, 3))

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
            f = microsphere._denominator_slope(fig2_system, 1, omega)[0]
            assert np.isnan(f[0]) and np.isfinite(f[1:]).all()

    def test_newton_iterates_of_demo_root_stay_near_axis(self, fig2_system, fig2_resonance,
                                                        denominator_args):
        assert find_resonances(fig2_system, 1.0495, 1.0507, [121]) == [fig2_resonance]
        assert min(om.imag for om in denominator_args) > -1e-5

    def test_lorentzian_width_consistency(self, fig2_system, fig2_resonance):
        # a complex-pole fit to Gamma_AA(omega) must recover the root's width
        wc, dwc = fig2_resonance.omega_c, fig2_resonance.delta_omega_c
        om = np.linspace(wc - 5 * dwc, wc + 5 * dwc, 25)
        gaa, _ = collective_rates(fig2_system.params, fig2_system.radius, fig2_system.r, om, 1.0)
        width, fitted = pole_fit(om, gaa, wc, dwc)
        assert np.sqrt(np.mean((fitted - gaa) ** 2)) < 1e-3 * np.max(np.abs(gaa))
        assert width == pytest.approx(dwc, rel=0.15)


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
            microsphere._denominator_slope(fig2_system, 121, np.array([1.0501, 1.0502]))
        # with one order per column the error names the failing column's
        # order, not the array of orders
        with pytest.raises(OverflowError, match=r"l=121 at omega=1\.0502$"):
            microsphere._denominator_slope(fig2_system, np.array([120, 121]),
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

    def test_overflowed_grid_pair_raises(self, fig2_system, monkeypatch):
        # a non-finite ratio of the grid names the first failing (order,
        # grid point) pair, order by order: here order 120 at the 31st
        # point, though order 121 fails at the 11th
        rows = microsphere.sph_jn_h1n_ratio_rows

        def overflowing(lo, hi, jz, hz):
            rj, rh = rows(lo, hi, jz, hz)
            rj[121 - lo, 10] = np.inf
            rh[120 - lo, 30] = np.inf
            return rj, rh

        monkeypatch.setattr(microsphere, "sph_jn_h1n_ratio_rows", overflowing)
        grid = microsphere._search_grid(1.04, 1.06)
        with pytest.raises(OverflowError, match=rf"l=120 at omega={grid[30]}$"):
            find_resonances(fig2_system, 1.04, 1.06, [120, 121])

    @pytest.mark.parametrize("omega_lo,omega_hi,orders", [(1.04, 1.06, (119, 120, 121, 122)),
                                                          (1.0499, 1.0503, (121,))],
                             ids=["four-orders", "demo"])
    def test_looser_first_pass_keeps_the_roots(self, fig2_system, monkeypatch, omega_lo,
                                               omega_hi, orders):
        # a band-gap candidate's first Newton pass stops at
        # 1e-3 HANDOVER_WIDTH: it restarts from the lattice point of a first
        # pass run to 1e-12, and its root keeps its bits
        found = find_resonances(fig2_system, omega_lo, omega_hi, orders)
        assert len(found) == len(orders)
        newton, tolerances = microsphere._newton_root, []

        def strict(sys, l, omega0, tol=1e-12):
            tolerances.append(np.max(tol))
            return newton(sys, l, omega0)

        monkeypatch.setattr(microsphere, "_newton_root", strict)
        assert find_resonances(fig2_system, omega_lo, omega_hi, orders) == found
        assert tolerances == [1e-3 * HANDOVER_WIDTH, 1e-12]

    @pytest.mark.parametrize("omega_lo,omega_hi,orders", [(0.90, 0.995, range(63, 67)),
                                                          (0.92, 0.93, (70,))],
                             ids=["l63-66", "l70"])
    def test_coarser_golden_section_keeps_the_roots(self, fig2_system, monkeypatch, omega_lo,
                                                    omega_hi, orders):
        # the golden section only brackets a below-gap root for Newton,
        # which restarts from the HANDOVER_WIDTH lattice: closing its
        # brackets at _GOLDEN_WIDTH instead of HANDOVER_WIDTH keeps every
        # root bit for bit
        found = find_resonances(fig2_system, omega_lo, omega_hi, orders)
        assert found
        monkeypatch.setattr(microsphere, "_GOLDEN_WIDTH", HANDOVER_WIDTH)
        assert find_resonances(fig2_system, omega_lo, omega_hi, orders) == found

    def test_point_does_not_depend_on_call_size(self, fig2_system):
        # f and the balance ratio at a point are the same bits in a one-point
        # call, a batch of one order and a batch of mixed orders: numpy's
        # in-place complex multiply takes another loop for one element
        omega = np.linspace(1.04, 1.06, 40) - 1j * np.linspace(0.0, 1e-6, 40)
        orders = np.resize([153, 121, 60, 200], len(omega))
        def f(*args):
            return microsphere._denominator_slope(*args)[0]

        for fn in (f, microsphere._denominator_balance):
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
            (1.04, 1.0535, range(92, 144), 52),  # figure3's window
        ],
        ids=["band-gap", "below-gap", "wide", "figure3"],
    )
    def test_many_orders_equal_each_order_alone(self, fig2_system, omega_lo, omega_hi,
                                                orders, min_roots):
        got = find_resonances(fig2_system, omega_lo, omega_hi, orders)
        alone = [r for l in orders for r in find_resonances(fig2_system, omega_lo, omega_hi, [l])]
        assert len(got) >= min_roots
        assert got == sorted(alone, key=lambda r: (r.omega_c, r.l))

    def test_refinement_calls_do_not_grow_with_orders(self, fig2_system, monkeypatch):
        # a 4-order band-gap search makes one grid call in all, one ratio
        # call whose columns do not depend on the orders, and its
        # refinement as many calls as that of each of its orders alone: one
        # stream for all candidates, and one ratio recurrence call per
        # Newton step, which gives f and its derivative.  Every evaluation
        # goes through _order_terms: the calls beyond the grid's, those of
        # the balance ratio and the Newton steps are the suppression check's
        names = ("_grid_balance", "_denominator_balance", "_denominator_slope", "_order_terms",
                 "sph_jn_h1n_ratio", "sph_jn_h1n_ratio_rows")
        calls = {name: [] for name in names}
        for name in names:
            def spy(*args, _fn=getattr(microsphere, name), _name=name):
                # the frequencies, or the h arguments of a ratio call
                calls[_name].append(np.size(args[2] if _name[0] == "_" else args[-1]))
                return _fn(*args)

            monkeypatch.setattr(microsphere, name, spy)
        columns = []
        ratio_columns = special._ratio_columns

        def spy_columns(orders, depths, z, starts, first, rows):
            columns.append(len(z))
            return ratio_columns(orders, depths, z, starts, first, rows)

        monkeypatch.setattr(special, "_ratio_columns", spy_columns)

        def search_calls(orders, omega_lo=1.04, omega_hi=1.06):
            for seen in (*calls.values(), columns):
                seen.clear()
            found = find_resonances(fig2_system, omega_lo, omega_hi, orders)
            # one grid call, over the 65 grid points, and its one ratio
            # call: one j and one h column per grid point, the first run of
            # the column loop
            assert calls["_grid_balance"] == [65]
            assert calls["sph_jn_h1n_ratio_rows"] == [65]
            assert columns[0] == 2 * 65
            # the first balance call is the grid's, over every (order, grid
            # point) pair, and the others are golden-section steps
            grid, *golden = calls["_denominator_balance"]
            assert grid == 65 * len(orders)
            evaluations = len(calls["_order_terms"])
            assert len(calls["sph_jn_h1n_ratio"]) == evaluations - 1
            newton = len(calls["_denominator_slope"])
            suppression = evaluations - 1 - len(golden) - newton
            assert suppression == 1
            return len(found), len(golden), newton

        # inside the band gap Newton starts from the grid point: no balance
        # call after the grid call
        four = search_calls([119, 120, 121, 122])
        assert four[:2] == (4, 0)
        for l in (119, 120, 121, 122):
            assert search_calls([l]) == (1, *four[1:])
        # below the gap f has real-axis poles, and the candidates still take
        # the golden section: its first two probes, then 8 steps to a
        # bracket of _GOLDEN_WIDTH
        roots, golden, _ = search_calls([70], 0.92, 0.93)
        assert (roots, golden) == (2, 10)

    def test_grid_starts_give_golden_section_roots(self, fig2_system):
        # inside the band gap f has no poles near the real axis, so Newton
        # from the grid point finds, to the CSV's 12 significant digits, the
        # roots that Newton from a golden-section start finds
        omega_lo, omega_hi, orders = 1.04, 1.0535, np.arange(92, 144)
        found = find_resonances(fig2_system, omega_lo, omega_hi, orders)
        assert len(found) == 52
        grid = microsphere._search_grid(omega_lo, omega_hi)
        vals = np.array([microsphere._denominator_balance(fig2_system, l, grid) for l in orders])
        mid = vals[:, 1:-1]
        row, minima = np.nonzero((mid < vals[:, :-2]) & (mid < vals[:, 2:]) & (mid < 0.5))
        starts = microsphere._refine_real_minimum(fig2_system, orders[row], grid[minima],
                                                  grid[minima + 2])
        roots = microsphere._newton_root(fig2_system, orders[row], starts)
        inside = (omega_lo <= roots.real) & (roots.real <= omega_hi)
        want = sorted(zip(roots.real[inside], -roots.imag[inside], orders[row][inside]))
        assert len(want) == len(found)
        for res, (wc, dwc, l) in zip(found, want):
            assert res.l == l
            assert f"{res.omega_c:.12g}" == f"{wc:.12g}"
            assert f"{res.delta_omega_c:.12g}" == f"{dwc:.12g}"

    @pytest.mark.parametrize(
        "omega_lo,omega_hi,orders",
        [(1.04, 1.06, range(60, 201)), (0.90, 0.995, (63, 64)),
         # the j column at n k R of 726 of the 1201 grid points, and of 124
         # of the 761, runs upward for the lower orders and downward for
         # the higher ones; in the wide band-gap window the h column at k R
         # starts at order 1 below l = 97 or 98 and above it from there
         (0.3, 0.9, range(1, 40)), (1.12, 1.5, range(20, 40))],
        ids=["wide", "below-gap", "j-split", "j-split-above-gap"],
    )
    def test_one_grid_call_equals_per_order_calls(self, fig2_system, monkeypatch, omega_lo,
                                                   omega_hi, orders):
        # the search's one grid call over every (order, grid point) pair
        # gives, bit for bit, the balance ratios of one call per order
        grid_balance = microsphere._grid_balance
        seen = []

        def spy(sys, ls, grid):
            out = grid_balance(sys, ls, grid)
            seen.append((np.copy(ls), np.copy(grid), out))
            return out

        monkeypatch.setattr(microsphere, "_grid_balance", spy)
        find_resonances(fig2_system, omega_lo, omega_hi, orders)
        grid = microsphere._search_grid(omega_lo, omega_hi)
        # 39 orders of 1201 points take two calls of at most _GRID_PAIRS pairs
        assert len(seen) == -(-len(orders) * len(grid) // microsphere._GRID_PAIRS)
        for _, omega, _ in seen:
            assert np.array_equal(omega, grid)
        ls, vals = (np.concatenate([call[k] for call in seen]) for k in (0, 2))
        assert np.array_equal(ls, orders)
        per_order = [microsphere._denominator_balance(fig2_system, order, grid)
                     for order in orders]
        assert np.array_equal(vals, per_order)

    def test_grid_split_into_calls_gives_the_same_roots(self, fig2_system, monkeypatch):
        # a grid call takes the next orders while its rows, the orders from
        # the least to the highest, times the grid points stay within
        # _GRID_PAIRS: here three 65-point orders, so 19 consecutive orders
        # take 7 calls and three spread ones a call each, with the same roots
        cases = ((range(110, 129), 7), ((110, 128, 111), 3))
        want = [find_resonances(fig2_system, 1.04, 1.06, orders) for orders, _ in cases]
        grid_balance, calls = microsphere._grid_balance, []

        def spy(sys, ls, grid):
            calls.append(ls.tolist())
            return grid_balance(sys, ls, grid)

        monkeypatch.setattr(microsphere, "_grid_balance", spy)
        monkeypatch.setattr(microsphere, "_GRID_PAIRS", 3 * 65 + 1)
        for (orders, count), roots in zip(cases, want):
            calls.clear()
            assert find_resonances(fig2_system, 1.04, 1.06, orders) == roots
            assert len(calls) == count and sum(calls, []) == list(orders)
            assert max(max(ls) - min(ls) for ls in calls) < 3

    def test_grid_has_one_interval_per_grid_step(self):
        # 2000 (0.995 - 0.90) is 189.99999999999994 in float64, and 2000
        # (2.095 - 2.0) is 190.0000000000004: both windows take 190 intervals
        # of 5e-4.  A window 0.02 wide takes the 64-interval floor
        grid = microsphere._search_grid(0.90, 0.995)
        assert len(grid) == 191 and (grid[0], grid[-1]) == (0.90, 0.995)
        assert len(microsphere._search_grid(2.0, 2.095)) == 191
        assert len(microsphere._search_grid(1.04, 1.06)) == 65


class TestRatioDirections:
    """Which j columns the ratio loop runs upward (special._upward): none
    where every order lies above |n k R| - 3 |n k R|^(1/3), as in a band-gap
    search and in a rate block to the l = 300 cap up to figure4's top
    frequency 0.995 (|n k R| = 319), and all of them in a below-gap search
    over 0.985-0.995."""

    @staticmethod
    def spy_upward(monkeypatch):
        """(columns, upward columns) of every direction choice."""
        counts = []
        rule = special._upward

        def spy(l, z):
            up = rule(l, z)
            counts.append((len(up), int(np.count_nonzero(up))))
            return up

        monkeypatch.setattr(special, "_upward", spy)
        return counts

    def test_band_gap_search_and_rate_block_run_j_down(self, fig2_system, monkeypatch):
        sys0 = fig2_system
        counts = self.spy_upward(monkeypatch)
        assert len(find_resonances(sys0, 1.04, 1.06, range(119, 123))) == 4
        search = len(counts)
        omega = np.linspace(0.98, 0.995, BLOCK)
        next(microsphere._rate_orders(sys0.params, sys0.radius, size_parameter(omega, sys0.r),
                                      omega, 300))
        assert search > 1 and len(counts) == search + 1
        assert sum(n for n, _ in counts) > 0
        assert [up for _, up in counts] == [0] * len(counts)

    def test_below_gap_search_runs_j_up(self, fig2_system, monkeypatch):
        counts = self.spy_upward(monkeypatch)
        assert find_resonances(fig2_system, 0.985, 0.995, (70, 71))
        columns, up = np.sum(counts, axis=0)
        assert up == columns


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
        # the f of the Newton step is the f of the suppression check
        *_, dh, dj = microsphere._order_terms(fig2_system, l, np.array([omega], dtype=complex))
        assert f == dh - dj

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
    eps = permittivity(sys.params, omega)
    z2 = refractive_index(eps) * z1
    dh = eps * mp_log_derivative("H1", l, z1)
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

    def test_below_gap_root_does_not_depend_on_window(self, fig2_system):
        # below the gap a root restarts Newton from the HANDOVER_WIDTH
        # lattice too, so the l = 70 root at 0.92990 is one float from
        # windows whose golden sections start from different grid points
        roots = [[r for r in find_resonances(fig2_system, lo, hi, [70])
                  if abs(r.omega_c - 0.92990) < 1e-4]
                 for lo, hi in ((0.92, 0.93), (0.90, 0.995), (0.915, 0.935))]
        assert all(len(found) == 1 for found in roots)
        assert roots[1] == roots[0] and roots[2] == roots[0]


def single_term(sys: SphereSystem, res: Resonance, same_atom: bool) -> float:
    """The l = res.l term of the rate sum alone at omega_c: row res.l of the
    kernel's per-order terms, times P_l(cos theta)."""
    cos_theta = 1.0 if same_atom else math.cos(sys.theta)
    omega = np.array([res.omega_c])
    terms, _ = next(microsphere._rate_orders(sys.params, sys.radius, size_parameter(omega, sys.r),
                                             omega, res.l))
    return float(terms[res.l - 1, 0] * legendre_all(res.l, cos_theta)[res.l, 0])


class TestSingleTermRate:
    def test_dominates_at_resonance(self, fig2_system, fig2_resonance):
        full, _ = collective_rates(fig2_system.params, fig2_system.radius, fig2_system.r,
                                   fig2_resonance.omega_c, 1.0)
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

    def test_negative_plasma_frequency_rejected(self):
        # omega_p = 0 is the vacuum sphere; below it the model has no meaning
        DrudeLorentzParams(0.0, 1e-6)
        with pytest.raises(ValueError, match="omega_p must be >= 0"):
            DrudeLorentzParams(-0.1, 1e-6)

    def test_unknown_resonance_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be 'SG' or 'WG'"):
            Resonance(omega_c=1.05, delta_omega_c=1e-6, l=121, kind="TM")
