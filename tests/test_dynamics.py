import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereqed.dynamics import (
    CouplingParams,
    DriveSpec,
    amplitude_closed,
    ode_coeffs,
    prepare_drive,
    rabi_g,
    volterra_amplitudes,
    VOLTERRA_BASE,
    VOLTERRA_BLOCK,
)

from oracles import (direct_volterra_branch, mp_mode_amplitude, regime_amplitude,
                     regime_classify)


def generic_params(**overrides):
    base = dict(
        gamma31_aa=3.0,
        gamma31_ab=2.0,
        gamma32_aa=1.0,
        gamma32_ab=0.9,
        delta_omega_c=0.4,
        detuning_delta=0.3,
        dipole_shift=0.1,
    )
    base.update(overrides)
    return CouplingParams(**base)


def critical_params(delta):
    """The + branch a relative delta from critical coupling (its two ODE
    roots coincide at delta = 0), the - branch uncoupled: dwc = 3,
    Gamma32_AA = 1, no detuning or dipole shift."""
    dwc, gamma32 = 3.0, 1.0
    gamma31_plus = (dwc - 0.5 * gamma32) ** 2 / (2.0 * dwc) * (1.0 + delta)
    return CouplingParams(0.5 * gamma31_plus, 0.5 * gamma31_plus, gamma32, 0.98, dwc)


CRITICAL_DRIVE = DriveSpec(-0.3, -0.2)


def stepsize(p, frac=2e-3):
    scale = max(
        max(abs(ode_coeffs(p, b)[0]), abs(ode_coeffs(p, b)[1]) ** 0.5) for b in "+-"
    )
    return frac / scale


class TestRabiG:
    def test_basic_value(self):
        assert rabi_g(2.0, 1.0) == 1.0

    def test_decoupled_branch(self):
        assert rabi_g(0.0, 0.7) == 0.0

    def test_single_atom_form_matches(self):
        # the preparation atom's Rabi frequency uses the same formula
        gamma_dd, dwc = 5.0, 0.3
        assert rabi_g(gamma_dd, dwc) == math.sqrt(gamma_dd * dwc / 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rabi_g(-1.0, 1.0)


class TestOdeCoeffs:
    def test_resonant_symmetric_case(self):
        p = generic_params(detuning_delta=0.0, dipole_shift=0.0)
        for branch in "+-":
            a1, a2 = ode_coeffs(p, branch)
            g2 = 0.5 * p.gamma31_pm(branch) * p.delta_omega_c
            assert a1 == pytest.approx(p.delta_omega_c + 0.5 * p.gamma32_aa)
            assert a2 == pytest.approx(g2 + 0.5 * p.delta_omega_c * p.gamma32_aa)

    def test_lossless_detuned_limit(self):
        # all rates -> 0 at fixed Delta = 1 leaves a1 = i, a2 = 0
        p = CouplingParams(1e-12, 0.0, 1e-12, 0.0, 1e-12, detuning_delta=1.0)
        a1, a2 = ode_coeffs(p, "+")
        assert a1 == pytest.approx(1j, abs=1e-11)
        assert abs(a2) < 1e-11

    def test_branch_sign_in_dipole_shift(self):
        p = generic_params()
        a1p, _ = ode_coeffs(p, "+")
        a1m, _ = ode_coeffs(p, "-")
        assert a1m - a1p == pytest.approx(2j * p.dipole_shift)


class TestAmplitudeClosed:
    def test_unknown_branch_rejected(self):
        p, d = generic_params(), DriveSpec(1.0, 0.5j)
        match = r"branch must be '\+' or '-', got '0'"
        with pytest.raises(ValueError, match=match):
            amplitude_closed(p, d, "0", 1.0)
        with pytest.raises(ValueError, match=match):
            p.gamma31_pm("0")

    def test_initial_condition(self):
        p = generic_params()
        d = DriveSpec(1.0, 0.5j)
        for branch in "+-":
            assert amplitude_closed(p, d, branch, 0.0) == 0

    def test_initial_slope_is_drive(self):
        p = generic_params()
        d = DriveSpec(0.8 - 0.1j, 0.0)
        eps = 1e-8
        slope = amplitude_closed(p, d, "+", eps) / eps
        assert slope == pytest.approx(0.8 - 0.1j, rel=1e-6)

    def test_degenerate_root_limit(self):
        # tune gamma31 so q = sqrt(a1^2 - 4 a2) crosses zero smoothly
        p0 = generic_params(detuning_delta=0.0, dipole_shift=0.0, gamma32_ab=0.0)
        a1, _ = ode_coeffs(p0, "+")
        # choose g^2 so a2 = a1^2/4 exactly
        g2_target = (a1.real**2) / 4 - 0.5 * p0.delta_omega_c * p0.gamma32_aa
        gamma31_plus = 2 * g2_target / p0.delta_omega_c
        p = CouplingParams(gamma31_plus / 2, gamma31_plus / 2, 1.0, 0.0, p0.delta_omega_c)
        d = DriveSpec(1.0, 0.0)
        t = 1.3
        exact_limit = 1.0 * t * np.exp(-ode_coeffs(p, "+")[0] * t / 2)
        assert amplitude_closed(p, d, "+", t) == pytest.approx(exact_limit, rel=1e-6)

    def test_exact_next_to_critical_coupling(self):
        # both sides of the double root, where the mode split F/q (e^{lambda_1 t}
        # - e^{lambda_2 t}) cancels; the 60-digit mode sum absorbs that
        t = np.linspace(0.0, 80.0, 161)
        for delta in (1e-9, -1e-9, 1e-12, -1e-12, -1e-15):
            p = critical_params(delta)
            for branch in "+-":
                want = mp_mode_amplitude(p, CRITICAL_DRIVE, branch, t)
                got = amplitude_closed(p, CRITICAL_DRIVE, branch, t)
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), (delta, branch)

    def test_linearity_in_drive(self):
        p = generic_params()
        lam = 0.7 - 1.3j
        t = np.linspace(0, 8, 50)
        base = amplitude_closed(p, DriveSpec(0.4 + 0.2j, 0.0), "+", t)
        scaled = amplitude_closed(p, DriveSpec(lam * (0.4 + 0.2j), 0.0), "+", t)
        assert np.allclose(scaled, lam * base, rtol=0, atol=1e-15)

    def test_branch_decoupling(self):
        # with no dipole shift, the + amplitude ignores gamma31 of the - branch
        p1 = generic_params(dipole_shift=0.0, gamma31_aa=4.0, gamma31_ab=1.0)
        p2 = generic_params(dipole_shift=0.0, gamma31_aa=3.5, gamma31_ab=1.5)
        assert p1.gamma31_pm("+") == p2.gamma31_pm("+")
        t = np.linspace(0, 10, 40)
        d = DriveSpec(1.0, 1.0)
        c1 = amplitude_closed(p1, d, "+", t)
        c2 = amplitude_closed(p2, d, "+", t)
        assert np.allclose(c1, c2, rtol=0, atol=1e-15)

    def test_long_time_decay(self):
        p = generic_params()
        d = DriveSpec(1.0, 1.0)
        t_end = 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
        for branch in "+-":
            assert abs(amplitude_closed(p, d, branch, t_end)) < 1e-8


class TestVolterra:
    def test_zero_drive_is_zero(self):
        p = generic_params()
        _, c_plus, c_minus = volterra_amplitudes(p, DriveSpec(0.0, 0.0), 5.0, stepsize(p))
        assert np.all(c_plus == 0) and np.all(c_minus == 0)

    def test_kernel_free_branch_matches_linear_ode(self):
        # gamma31_+ = 0 kills the + kernel; the memoryless solution is
        # C(t) = F0 (e^{-(i Delta + dwc) t} - e^{-gamma32 t / 2}) / (gamma32/2 - dwc - i Delta)
        p = CouplingParams(2.0, -2.0, 1.0, 0.0, 0.3, detuning_delta=0.5, dipole_shift=0.0)
        f0 = 0.9 - 0.4j
        t, c, _ = volterra_amplitudes(p, DriveSpec(f0, 0.0), 12.0, stepsize(p))
        denom = 0.5 * p.gamma32_aa - p.delta_omega_c - 1j * p.detuning_delta
        want = f0 * (np.exp(-(1j * p.detuning_delta + p.delta_omega_c) * t) - np.exp(-0.5 * p.gamma32_aa * t)) / denom
        assert np.max(np.abs(c - want)) < 1e-6

    def test_matches_closed_form_both_branches(self):
        p = generic_params()
        d = DriveSpec(1.0, 0.5 - 0.2j)
        t, *amplitudes = volterra_amplitudes(p, d, 20.0, stepsize(p))
        for branch, c in zip("+-", amplitudes):
            dev = np.abs(c - amplitude_closed(p, d, branch, t))
            assert np.max(dev) < 1e-6

    @pytest.mark.parametrize(
        "n_steps",
        [1, VOLTERRA_BASE - 1, VOLTERRA_BASE, VOLTERRA_BASE + 1, 2 * VOLTERRA_BASE + 1,
         4 * VOLTERRA_BASE - 1, 4 * VOLTERRA_BASE, 4 * VOLTERRA_BASE + 1, 8 * VOLTERRA_BASE,
         VOLTERRA_BLOCK // 2 + 1, 20 * VOLTERRA_BASE + 3, VOLTERRA_BLOCK - 1, VOLTERRA_BLOCK,
         VOLTERRA_BLOCK + 1, 2 * VOLTERRA_BLOCK + 1, 4 * VOLTERRA_BLOCK + 1, 3001],
    )
    def test_matches_direct_history_sum(self, n_steps):
        # step counts on both sides of the end of the stepped response, where
        # its doubling starts, one step into the second doubling, on both
        # sides of the end of the third and at the end of the fourth, one step
        # into the last doubling and inside it, on both sides of the block
        # boundary, where the FFT tiles of the history start to feed the sums,
        # and one step past the first tile of each size (after blocks 2 and
        # 4); both branches driven and coupled, then the - branch uncoupled
        # (gamma31_ab = gamma31_aa, so its kernel is 0), then the + branch
        # undriven
        cases = [
            (generic_params(), DriveSpec(0.9 - 0.3j, 0.5 + 0.4j)),
            (generic_params(gamma31_ab=3.0), DriveSpec(0.9 - 0.3j, 0.5 + 0.4j)),
            (generic_params(), DriveSpec(0.0, 0.5 + 0.4j)),
        ]
        for p, d in cases:
            step = stepsize(p)
            t_max = (n_steps - 0.5) * step
            t, *amplitudes = volterra_amplitudes(p, d, t_max, step)
            for branch, c in zip("+-", amplitudes):
                t_ref, c_ref = direct_volterra_branch(p, d, branch, t_max, step)
                assert len(c) == n_steps + 1
                assert np.array_equal(t, t_ref)
                # an undriven branch stays exactly 0, as c_ref does
                assert np.max(np.abs(c - c_ref)) <= 1e-13 * np.max(np.abs(c_ref))

    def test_block_size_only_rounds(self, monkeypatch):
        # blocks of the stepped response's own length (no doubling, and the
        # history in 79 blocks and their tiles) give the default's amplitudes
        # but for rounding in each CSV column, and an undriven branch stays
        # exactly 0
        p = generic_params()
        step = stepsize(p)
        drives = [DriveSpec(0.9 - 0.3j, 0.5 + 0.4j), DriveSpec(0.9 - 0.3j, 0.0)]
        default = [volterra_amplitudes(p, d, 5000 * step, step) for d in drives]
        monkeypatch.setattr("sphereqed.dynamics.VOLTERRA_BLOCK", VOLTERRA_BASE)
        for d, (t, *want) in zip(drives, default):
            t_small, *got = volterra_amplitudes(p, d, 5000 * step, step)
            assert len(t) == 5001 and np.array_equal(t_small, t)
            for branch, c, c_want in zip("+-", got, want):
                if d.f0(branch) == 0:
                    assert not c.any() and not c_want.any()
                else:
                    for part in (np.real, np.imag):
                        column = part(c_want)
                        assert np.max(np.abs(part(c) - column)) <= 1e-14 * np.max(np.abs(column))

    def test_step_count_rounds_a_float_t_max(self):
        # t_max = 16000 * 0.0013 is 16000.000000000002 steps in floats: a
        # ratio within 1e-9 above an integer is that integer, while half a
        # step more is one step more
        p = generic_params()
        step = 0.0013
        assert (16000 * step) / step > 16000
        t, c_plus, _ = volterra_amplitudes(p, DriveSpec(1.0, 0.0), 16000 * step, step)
        assert len(t) == len(c_plus) == 16001
        assert t[-1] == 16000 * step
        for n_steps in (1, 2, 16000):
            t, _, _ = volterra_amplitudes(p, DriveSpec(1.0, 0.0), (n_steps - 0.5) * step, step)
            assert len(t) == n_steps + 1

    def test_step_precondition_enforced(self):
        p = generic_params()
        with pytest.raises(ValueError):
            volterra_amplitudes(p, DriveSpec(1.0, 0.0), 5.0, 1.0)

    @pytest.mark.parametrize("gamma31_ab", [5.9, -5.9])
    def test_step_bound_holds_for_each_branch(self, gamma31_ab):
        # gamma31_ab = 5.9 couples the + branch strongly and -5.9 the -
        # branch: a step within the weak branch's bound and above the strong
        # one's raises, whichever branch is the strong one
        p = generic_params(gamma31_aa=6.0, gamma31_ab=gamma31_ab)
        scales = [max(abs(a1), abs(a2) ** 0.5) for a1, a2 in (ode_coeffs(p, b) for b in "+-")]
        strong = 0 if gamma31_ab > 0 else 1
        assert scales[strong] > 1.5 * scales[1 - strong]
        d = DriveSpec(1.0, 1.0)
        with pytest.raises(ValueError, match="violates"):
            volterra_amplitudes(p, d, 1.0, 0.01 / scales[1 - strong])
        volterra_amplitudes(p, d, 1.0, 0.01 / scales[strong])

    @pytest.mark.parametrize("t_max", [0.0, -1.0])
    def test_t_max_precondition_enforced(self, t_max):
        p = generic_params()
        with pytest.raises(ValueError):
            volterra_amplitudes(p, DriveSpec(1.0, 0.0), t_max, stepsize(p))


class TestPrepareDrive:
    def test_equal_site_placement(self):
        # D at atom A's site with aligned dipole: F_pm -> -g_pm, -g_mp^2/g_pm
        gamma_aa, gamma_ab, dwc = 3.0, 2.94, 1e-4
        d = prepare_drive((gamma_aa, gamma_aa, gamma_ab), dwc)
        gp = rabi_g(gamma_aa + gamma_ab, dwc)
        gm = rabi_g(gamma_aa - gamma_ab, dwc)
        assert d.f_plus0 == pytest.approx(-gp, rel=0.02)
        assert d.f_minus0 == pytest.approx(-gm**2 / gp, rel=0.02)

    def test_equidistant_drives_only_symmetric(self):
        d = prepare_drive((2.0, 1.3, 1.3), 0.2)
        assert d.f_minus0 == 0.0
        assert d.f_plus0 < 0

    def test_loss_factor(self):
        # gamma_dd = 2, dwc = 0.005*gamma_dd gives dwc/g_D = 0.1 exactly,
        # so both amplitudes carry the loss factor e^{-pi/20} ~ 0.8546
        gamma_dd, dwc = 2.0, 0.01
        g_d = rabi_g(gamma_dd, dwc)
        assert dwc / g_d == pytest.approx(0.1)
        d = prepare_drive((gamma_dd, gamma_dd, 0.0), dwc)
        bare = -(1 / math.sqrt(2)) * (0.5 * gamma_dd * dwc) / g_d
        assert d.f_plus0 / bare == pytest.approx(math.exp(-math.pi * 0.05), rel=1e-12)
        assert math.exp(-math.pi * 0.05) == pytest.approx(0.8546, abs=5e-5)

    def test_requires_positive_gamma_dd(self):
        with pytest.raises(ValueError):
            prepare_drive((0.0, 1.0, 1.0), 0.1)


class TestRegimeClassify:
    def test_regime_a(self):
        p = CouplingParams(
            gamma31_aa=0.5 * (2 * 100 / 0.1 + 2 * 0.0001 / 0.1),
            gamma31_ab=0.5 * (2 * 100 / 0.1 - 2 * 0.0001 / 0.1),
            gamma32_aa=1.0,
            gamma32_ab=0.0,
            delta_omega_c=0.1,
        )
        assert p.g("+") == pytest.approx(10.0)
        assert p.g("-") == pytest.approx(0.01)
        assert regime_classify(p, 5.0) == "A"

    def test_regime_b(self):
        p = CouplingParams(
            gamma31_aa=0.5 * (2 * 100**2 / 0.1 + 2 * 10**2 / 0.1),
            gamma31_ab=0.5 * (2 * 100**2 / 0.1 - 2 * 10**2 / 0.1),
            gamma32_aa=1.0,
            gamma32_ab=0.0,
            delta_omega_c=0.1,
        )
        assert (p.g("+"), p.g("-")) == (pytest.approx(100.0), pytest.approx(10.0))
        assert regime_classify(p, 5.0) == "B"

    def test_regime_c(self):
        p = CouplingParams(
            gamma31_aa=0.5 * (2 * 1 / 0.1 + 2 * 0.01 / 0.1),
            gamma31_ab=0.5 * (2 * 1 / 0.1 - 2 * 0.01 / 0.1),
            gamma32_aa=100.0,
            gamma32_ab=0.0,
            delta_omega_c=0.1,
        )
        assert (p.g("+"), p.g("-")) == (pytest.approx(1.0), pytest.approx(0.1))
        assert regime_classify(p, 5.0) == "C"

    def test_no_regime(self):
        p = generic_params()
        assert regime_classify(p, 5.0) is None

    def test_ratio_min_validation(self):
        with pytest.raises(ValueError):
            regime_classify(generic_params(), 1.0)


def regime_a_params(ratio=20.0):
    """Chain g_+ : gamma32 : dwc : g_- stepping down by `ratio` or more."""
    gamma32 = 1.0
    g_plus = 1.1 * ratio * gamma32
    dwc = gamma32 / (1.25 * ratio)
    g_minus = dwc / (1.1 * ratio)
    gamma31_plus = 2 * g_plus**2 / dwc
    gamma31_minus = 2 * g_minus**2 / dwc
    return CouplingParams(
        gamma31_aa=0.5 * (gamma31_plus + gamma31_minus),
        gamma31_ab=0.5 * (gamma31_plus - gamma31_minus),
        gamma32_aa=gamma32,
        gamma32_ab=0.98 * gamma32,
        delta_omega_c=dwc,
    )


class TestRegimeAmplitude:
    def test_strong_branch_peak_value(self):
        p = regime_a_params()
        d = DriveSpec(-p.g("+"), -p.g("-")**2 / p.g("+"))
        g = p.g("+")
        t_peak = math.pi / (2 * g)
        got = regime_amplitude(p, d, "A", "+", t_peak)
        want = abs(-p.g("+") / g) * math.exp(-p.gamma32_aa * math.pi / (8 * g))
        assert abs(got) == pytest.approx(want, rel=1e-12)

    def test_weak_branch_late_decay_constant(self):
        p = regime_a_params()
        d = DriveSpec(-p.g("+"), -0.3)
        t = np.array([30.0, 40.0]) / p.delta_omega_c
        vals = regime_amplitude(p, d, "A", "-", t)
        # the slow channel e^{-dwc t} dominates; successive samples scale accordingly
        assert abs(vals[1] / vals[0]) == pytest.approx(math.exp(-10.0), rel=1e-6)
        assert abs(vals[1]) < 1e-10

    def test_regime_c_starts_at_zero(self):
        p = CouplingParams(20.0, 19.8, 100.0, 90.0, 0.002)
        d = DriveSpec(1.0, 0.2)
        assert regime_amplitude(p, d, "C", "+", 0.0) == 0

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            regime_amplitude(generic_params(), DriveSpec(1, 0), "Z", "+", 1.0)

    def test_regime_a_envelope_tracks_closed_form(self):
        p = regime_a_params()
        d = DriveSpec(-p.g("+"), -p.g("-")**2 / p.g("+"))
        assert regime_classify(p, 20.0) == "A"
        # damped-Rabi form within 5% of peak over the first decay times
        t_5 = np.linspace(0, 4.0 / p.gamma32_aa, 1500)
        dev5 = np.abs(
            amplitude_closed(p, d, "+", t_5) - regime_amplitude(p, d, "A", "+", t_5)
        )
        assert np.max(dev5) < 0.05 * np.max(np.abs(amplitude_closed(p, d, "+", t_5)))
        # strong branch over several Rabi decay times
        t_s = np.linspace(0, 6.0 / p.gamma32_aa, 1500)
        exact = amplitude_closed(p, d, "+", t_s)
        approx = regime_amplitude(p, d, "A", "+", t_s)
        peak = np.max(np.abs(exact))
        assert np.max(np.abs(exact - approx)) < 0.10 * peak
        # weak branch over the slow photon-loss decay
        t_w = np.linspace(0, 4.0 / p.delta_omega_c, 1500)
        exact_w = amplitude_closed(p, d, "-", t_w)
        approx_w = regime_amplitude(p, d, "A", "-", t_w)
        peak_w = np.max(np.abs(exact_w))
        assert np.max(np.abs(exact_w - approx_w)) < 0.10 * peak_w


@given(
    g31aa=st.floats(min_value=0.5, max_value=6.0),
    ab_frac=st.floats(min_value=-1.0, max_value=1.0),
    dwc=st.floats(min_value=0.2, max_value=0.8),
    delta=st.floats(min_value=-1.5, max_value=1.5),
)
@settings(max_examples=15, deadline=None)
def test_closed_form_decays(g31aa, ab_frac, dwc, delta):
    p = CouplingParams(g31aa, ab_frac * g31aa, 1.0, 0.5, dwc, delta)
    d = DriveSpec(1.0, 1.0)
    t_end = 40.0 / min(dwc, 0.5)
    for branch in "+-":
        assert abs(amplitude_closed(p, d, branch, t_end)) < 1e-8


def test_closed_trajectory_contract():
    # C(0) = 0 to the bit, and |C| <= 1 on a trajectory to t = 30
    p = generic_params()
    d = DriveSpec(1.0, 0.3)
    t = np.linspace(0.0, 30.0, 500)
    for branch in "+-":
        c = amplitude_closed(p, d, branch, t)
        assert c[0] == 0
        assert np.max(np.abs(c)) <= 1.0 + 1e-9
