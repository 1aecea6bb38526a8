import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphereqed.dynamics import CouplingParams, DriveSpec, amplitude_closed, prepare_drive
from sphereqed.steady_state import (
    SteadyState,
    TwoQubitDensity,
    UndecayedTrajectoryError,
    assemble_density,
    concurrence_oracle,
    concurrence_closed_form,
    decayed_steady_state,
    steady_state_from_params,
)

from oracles import alpha_beta_regime, regime_classify, trapezoid_steady_state
from test_dynamics import generic_params, regime_a_params


def valid_states(draw):
    total = draw(st.floats(min_value=0.0, max_value=1.0))
    split = draw(st.floats(min_value=0.0, max_value=1.0))
    ap = total * split
    am = total * (1.0 - split)
    mag = draw(st.floats(min_value=0.0, max_value=1.0)) * math.sqrt(ap * am)
    phase = draw(st.floats(min_value=0.0, max_value=2 * math.pi))
    return SteadyState(ap, am, mag * complex(math.cos(phase), math.sin(phase)))


random_states = st.composite(valid_states)()


def equal_site_drive(p):
    return prepare_drive((p.gamma31_aa, p.gamma31_aa, p.gamma31_ab), p.delta_omega_c)


def horizon(p):
    return 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)


class TestIntegrateAlphaBeta:
    def test_single_branch_drive(self):
        # only the symmetric state driven: populations split as gamma32_pm, no coherence
        p = generic_params(dipole_shift=0.0)
        d = DriveSpec(0.8, 0.0)
        s = decayed_steady_state(p, d, horizon(p))
        assert s.beta == 0
        assert s.alpha_plus / s.alpha_minus == pytest.approx(
            p.gamma32_pm("+") / p.gamma32_pm("-"), rel=1e-9
        )

    def test_matches_trapezoid_quadrature(self):
        p = generic_params()
        d = DriveSpec(0.7 - 0.2j, 0.4 + 0.5j)
        t_end = horizon(p)
        t = np.linspace(0, t_end, 400_001)
        cp = amplitude_closed(p, d, "+", t)
        cm = amplitude_closed(p, d, "-", t)
        g32 = (p.gamma32_pm("+"), p.gamma32_pm("-"))
        ap_q, am_q, beta_q = trapezoid_steady_state(t, cp, cm, g32)
        s = steady_state_from_params(p, d)
        assert s.alpha_plus == pytest.approx(ap_q, abs=1e-6)
        assert s.alpha_minus == pytest.approx(am_q, abs=1e-6)
        assert s.beta == pytest.approx(beta_q, abs=1e-6)

    def test_regime_a_matches_asymptotics(self):
        p = regime_a_params()
        d = equal_site_drive(p)
        s = decayed_steady_state(p, d, horizon(p))
        approx = alpha_beta_regime(p, d, "A")
        assert s.alpha_plus == pytest.approx(approx.alpha_plus, rel=0.15)

    def test_rejects_undecayed_trajectory(self):
        p = generic_params()
        d = DriveSpec(1.0, 0.5)
        with pytest.raises(UndecayedTrajectoryError):
            decayed_steady_state(p, d, 1.0)

    def test_guard_at_t_end_rejects_undecayed(self):
        p = generic_params()
        d = DriveSpec(1.0, 0.5)
        with pytest.raises(UndecayedTrajectoryError):
            decayed_steady_state(p, d, 1.0)
        assert decayed_steady_state(p, d, horizon(p)) == steady_state_from_params(p, d)

    def test_monotone_in_resonance_width(self):
        # wider resonance, more photon loss, smaller transferred population
        base = regime_a_params()
        d = equal_site_drive(base)
        ladder = np.linspace(base.delta_omega_c, 4 * base.delta_omega_c, 10)
        alphas = []
        for dwc in ladder:
            p = CouplingParams(
                base.gamma31_aa,
                base.gamma31_ab,
                base.gamma32_aa,
                base.gamma32_ab,
                dwc,
            )
            s = steady_state_from_params(p, d)
            alphas.append(s.alpha_plus)
        assert all(a >= b - 1e-12 for a, b in zip(alphas, alphas[1:]))

    def test_population_bookkeeping(self):
        p = generic_params()
        d = DriveSpec(0.9, 0.3j)
        s = steady_state_from_params(p, d)
        assert s.alpha_plus + s.alpha_minus <= 1 + 1e-9
        rho = assemble_density(s).matrix
        assert rho[0, 0].real == pytest.approx(1 - s.alpha_plus - s.alpha_minus, abs=1e-12)


class TestAlphaBetaRegime:
    def test_regime_a_near_unit_population(self):
        p = regime_a_params()
        d = equal_site_drive(p)
        s = alpha_beta_regime(p, d, "A")
        assert s.alpha_plus == pytest.approx(
            p.gamma32_pm("+") / (2 * p.gamma32_aa), rel=0.05
        )
        assert s.alpha_plus > 0.9
        assert s.alpha_minus < 0.1
        assert abs(s.beta) < 0.1

    def test_regime_c_blocked_by_wide_resonance(self):
        # g_+^2/gamma32 << dwc starves the transfer
        gamma32 = 1.0
        g_plus, g_minus, dwc = 0.01, 0.0005, 0.0005
        p = CouplingParams(
            gamma31_aa=(g_plus**2 + g_minus**2) / dwc,
            gamma31_ab=(g_plus**2 - g_minus**2) / dwc,
            gamma32_aa=gamma32,
            gamma32_ab=0.98,
            delta_omega_c=dwc,
        )
        assert regime_classify(p, 5.0) == "C"
        d = DriveSpec(-p.g("+"), -p.g("-")**2 / p.g("+"))
        s = alpha_beta_regime(p, d, "C")
        transfer = 2 * p.g("+")**2 / p.gamma32_aa
        assert s.alpha_plus == pytest.approx(
            0.99 * transfer / (dwc + transfer), rel=0.05
        )
        assert s.alpha_plus < 0.5

    def test_regime_b_antisymmetric_leakage(self):
        gamma32 = 1.0
        dwc = gamma32 / 25
        g_plus = 22 * 24 * gamma32
        g_minus = 24 * gamma32
        p = CouplingParams(
            gamma31_aa=(g_plus**2 + g_minus**2) / dwc,
            gamma31_ab=(g_plus**2 - g_minus**2) / dwc,
            gamma32_aa=gamma32,
            gamma32_ab=0.98,
            delta_omega_c=dwc,
        )
        assert regime_classify(p, 20.0) == "B"
        d = equal_site_drive(p)
        s = alpha_beta_regime(p, d, "B")
        want = p.gamma32_pm("-") / (2 * p.gamma32_aa) + 2 * g_minus**2 / g_plus**2
        # the quoted asymptotic carries its own >> approximations
        assert s.alpha_minus == pytest.approx(want, rel=0.6)
        assert s.alpha_minus < 0.05

    def test_beta_unavailable_without_dominance(self):
        # classified B at a mild ratio, but g_+/g_- ~ 2 is no basis for the
        # dominant-branch beta expansion
        dwc = 0.2
        g_plus, g_minus = 3.0, 1.4
        p = CouplingParams(
            gamma31_aa=(g_plus**2 + g_minus**2) / dwc,
            gamma31_ab=(g_plus**2 - g_minus**2) / dwc,
            gamma32_aa=0.5,
            gamma32_ab=0.0,
            delta_omega_c=dwc,
        )
        assert regime_classify(p, 2.0) == "B"
        s = alpha_beta_regime(p, DriveSpec(1.0, 0.5), "B", dominance_min=5.0)
        assert s.beta is None

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            alpha_beta_regime(generic_params(), DriveSpec(1, 0), "X")


class TestAssembleDensity:
    def test_pure_bell_block(self):
        rho = assemble_density(SteadyState(1.0, 0.0, 0.0)).matrix
        want = np.zeros((4, 4), dtype=complex)
        want[1, 1] = want[2, 2] = want[1, 2] = want[2, 1] = 0.5
        assert np.allclose(rho, want, atol=1e-15)

    def test_no_transfer_leaves_ground_state(self):
        rho = assemble_density(SteadyState(0.0, 0.0, 0.0)).matrix
        want = np.zeros((4, 4), dtype=complex)
        want[0, 0] = 1.0
        assert np.allclose(rho, want, atol=1e-15)

    def test_generic_state_is_physical(self):
        rho = assemble_density(SteadyState(0.5, 0.3, 0.1)).matrix
        evals = np.linalg.eigvalsh(rho)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(evals) > -1e-10

    def test_invariant_violation_rejected(self):
        with pytest.raises(ValueError):
            SteadyState(0.8, 0.5, 0.0)  # populations exceed 1
        with pytest.raises(ValueError):
            SteadyState(0.1, 0.1, 0.5)  # coherence beyond positivity
        with pytest.raises(ValueError):
            TwoQubitDensity(np.eye(4, dtype=complex))  # trace 4

    def test_density_checks(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            TwoQubitDensity(np.eye(3) / 3)
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 0.1j
        with pytest.raises(ValueError, match="must be Hermitian"):
            TwoQubitDensity(skew)
        # Hermitian with trace 1, and an eigenvalue of -0.5
        with pytest.raises(ValueError, match="must be positive semidefinite"):
            TwoQubitDensity(np.diag([1.5, -0.5, 0.0, 0.0]))


class TestConcurrence:
    def test_maximally_entangled(self):
        assert concurrence_closed_form(SteadyState(1.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_product_state(self):
        assert concurrence_closed_form(SteadyState(0.0, 0.0, 0.0)) == 0.0

    def test_even_mixture_is_separable(self):
        assert concurrence_closed_form(SteadyState(0.5, 0.5, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_identity_spot(self):
        s = SteadyState(0.6, 0.2, 0.05 + 0.02j)
        rho = assemble_density(s)
        assert concurrence_closed_form(s) == pytest.approx(concurrence_oracle(rho), abs=1e-10)

    def test_oracle_on_bell_and_mixed(self):
        bell = assemble_density(SteadyState(1.0, 0.0, 0.0))
        assert concurrence_oracle(bell) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_oracle(np.eye(4) / 4) == 0.0

    def test_two_nonzero_eigenvalues(self):
        s = SteadyState(0.5, 0.25, 0.1 - 0.2j)
        rho = assemble_density(s).matrix
        sy = np.array([[0, -1j], [1j, 0]])
        flip = np.kron(sy, sy)
        evals = np.sort(np.abs(np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)))[::-1]
        assert evals[2] < 1e-14 and evals[3] < 1e-14

    def test_beta_required(self):
        with pytest.raises(ValueError):
            concurrence_closed_form(SteadyState(0.5, 0.1, None))


class TestEntanglementCheck:
    def test_regime_a_scenario(self):
        # a near-pure Bell state: alpha_+ dominates alpha_- and |beta| tenfold
        p = regime_a_params()
        d = equal_site_drive(p)
        s = steady_state_from_params(p, d)
        assert s.alpha_plus >= 10.0 * max(s.alpha_minus, abs(s.beta))
        assert concurrence_closed_form(s) >= 0.9 * s.alpha_plus


@given(s=random_states)
@settings(max_examples=100, deadline=None)
def test_concurrence_formula_equals_wootters(s):
    rho = assemble_density(s)
    assert abs(concurrence_closed_form(s) - concurrence_oracle(rho)) < 1e-10


@given(s=random_states)
@settings(max_examples=60, deadline=None)
def test_basis_relabeling_symmetry(s):
    swapped = SteadyState(s.alpha_minus, s.alpha_plus, np.conj(s.beta))
    assert concurrence_closed_form(swapped) == pytest.approx(concurrence_closed_form(s), abs=1e-12)


@given(s=random_states)
@settings(max_examples=60, deadline=None)
def test_real_beta_reduction(s):
    # direct substitution of Im beta = 0 into the factored radical; the
    # naive mid - half difference costs sqrt-of-cancellation accuracy, so
    # equality is asserted at the 1e-8 level that substitution supports
    reduced = SteadyState(s.alpha_plus, s.alpha_minus, complex(s.beta.real, 0.0))
    ap, am, br = reduced.alpha_plus, reduced.alpha_minus, reduced.beta.real
    mid = 0.5 * (ap**2 + am**2 - 2 * br**2)
    rad = max((ap + am) ** 2 - 4 * br**2, 0.0)
    half = 0.5 * abs(ap - am) * math.sqrt(rad)
    lam_p, lam_m = max(mid + half, 0.0), max(mid - half, 0.0)
    want = math.sqrt(lam_p) - math.sqrt(lam_m)
    assert concurrence_closed_form(reduced) == pytest.approx(want, abs=2e-8)
