"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

import sphereqed as sq
from sphereqed.cli import main as cli_main
from sphereqed.dynamics import volterra_amplitudes
from sphereqed.microsphere import collective_rates

from oracles import (alpha_beta_regime, free_space_cross_rate, pole_fit, regime_amplitude,
                     regime_classify)
from test_cli import column, read_csv


def announce(n, name, t0):
    print(f"\nACCEPTANCE {n} {name}: PASS ({time.time() - t0:.1f} s)")


def chain_params(regime, ratio=20.0, gamma32_ab=0.98):
    """Coupling sets whose inequality chains hold with factor >= ratio."""
    gamma32 = 1.0
    if regime == "A":
        g_hi = 1.1 * ratio * gamma32
        dwc = gamma32 / (1.25 * ratio)
        g_lo = dwc / (1.1 * ratio)
    elif regime == "B":
        g_lo = 1.2 * ratio * gamma32
        g_hi = 1.1 * ratio * g_lo
        dwc = gamma32 / (1.25 * ratio)
    elif regime == "C":
        dwc = 1e-4 * gamma32
        g_hi = 1.1 * ratio * dwc
        g_lo = g_hi / (1.1 * ratio)
    gp2, gm2 = 2 * g_hi**2 / dwc, 2 * g_lo**2 / dwc
    return sq.CouplingParams(
        gamma31_aa=0.5 * (gp2 + gm2),
        gamma31_ab=0.5 * (gp2 - gm2),
        gamma32_aa=gamma32,
        gamma32_ab=gamma32_ab * gamma32,
        delta_omega_c=dwc,
    )


def equal_site_drive(p):
    return sq.prepare_drive((p.gamma31_aa, p.gamma31_aa, p.gamma31_ab), p.delta_omega_c)


def test_criterion_1_free_space_reduction():
    t0 = time.time()
    for kr in (1.0, 5.0, 20.0, 66.0, 100.0):
        r = kr / (2 * math.pi)
        gaa, gab = collective_rates(sq.DrudeLorentzParams(0.0, 1e-9), r / 2, r, 1.0,
                                    math.cos(math.pi))
        assert abs(gaa - 1.0) <= 1e-6, f"kr={kr}: Gamma_AA={gaa}"
        assert abs(gab - free_space_cross_rate(kr, math.pi)) <= 1e-6, f"kr={kr}"
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"
    announce(1, "free-space reduction", t0)


@pytest.fixture(scope="module")
def resonance_scan(tmp_path_factory):
    """CLI `resonances` over the band-gap window around the demo value."""
    tmp = tmp_path_factory.mktemp("acceptance")
    cfg = tmp / "res.cfg"
    cfg.write_text(
        "resonance.omega_lo = 1.04\nresonance.omega_hi = 1.06\n"
        "resonance.l_lo = 110\nresonance.l_hi = 132\n"
    )
    out = tmp / "res.csv"
    t0 = time.time()
    assert cli_main(["resonances", "--config", str(cfg), "--out", str(out)]) == 0
    elapsed = time.time() - t0
    meta, header, rows = read_csv(out)
    records = list(
        zip(
            column(header, rows, "l", int),
            column(header, rows, "omega_c"),
            column(header, rows, "delta_omega_c"),
        )
    )
    return records, elapsed


def test_criterion_2_resonance_recovery(fig2_system, resonance_scan):
    t0 = time.time()
    records, scan_time = resonance_scan
    hits = [r for r in records if 1.0495 <= r[1] <= 1.0507 and r[2] < 1e-3]
    assert hits, f"no root in [1.0495, 1.0507]: {records}"
    l_star, wc, dwc = min(hits, key=lambda r: abs(r[1] - 1.0501))

    om = np.linspace(wc - 5 * dwc, wc + 5 * dwc, 25)
    gaa, _ = collective_rates(fig2_system.params, fig2_system.radius, fig2_system.r, om, 1.0)
    # a one-pole fit that reproduces the sampled rates has the root's width
    width, fitted = pole_fit(om, gaa, wc, dwc)
    assert np.sqrt(np.mean((fitted - gaa) ** 2)) < 1e-3 * np.max(np.abs(gaa))
    assert abs(width - dwc) <= 0.15 * dwc, f"fit width {width} vs root width {dwc}"
    elapsed = scan_time + (time.time() - t0)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(f"\n  [resonance l={l_star}: omega_c={wc:.6f}, delta_omega_c={dwc:.3e}]")
    announce(2, "resonance recovery", t0)


def test_criterion_3_diametric_enhancement(fig2_system, fig2_resonance):
    t0 = time.time()
    wc = fig2_resonance.omega_c
    params, radius = fig2_system.params, fig2_system.radius
    dr_grid = np.geomspace(0.06, 3.0, 22)
    # the demo distance first, then the distance sweep, in one call
    dr = np.append(fig2_system.atom_distance, dr_grid)
    gaa, gab = collective_rates(params, radius, radius + dr, wc, math.cos(math.pi))
    gp, gm = gaa + gab, gaa - gab
    assert max(gp[0] / gm[0], gm[0] / gp[0]) >= 10.0

    p, m = gp[1:], gm[1:]
    ratios = np.maximum(p / m, m / p)
    assert abs(p[-1] - 1.0) <= 0.2 and abs(m[-1] - 1.0) <= 0.2
    imax = int(np.argmax(ratios))
    assert 0 < imax < len(dr_grid) - 1, f"ratio max at boundary: {ratios}"
    announce(3, "diametric enhancement", t0)


def test_criterion_4_closed_volterra_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(50):
        g31aa = rng.uniform(0.5, 6.0)
        p = sq.CouplingParams(
            gamma31_aa=g31aa,
            gamma31_ab=rng.uniform(-1.0, 1.0) * g31aa,
            gamma32_aa=1.0,
            gamma32_ab=rng.uniform(-1.0, 1.0),
            delta_omega_c=rng.uniform(0.2, 0.8),
            detuning_delta=rng.uniform(-1.5, 1.5),
            dipole_shift=rng.uniform(-0.3, 0.3),
        )
        d = sq.DriveSpec(
            f_plus0=complex(rng.normal(), rng.normal()) / 2,
            f_minus0=complex(rng.normal(), rng.normal()) / 2,
        )
        t_max = 10.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
        step = 2e-3 / max(max(abs(a1), abs(a2) ** 0.5)
                          for a1, a2 in (sq.ode_coeffs(p, b) for b in "+-"))
        t, *amplitudes = volterra_amplitudes(p, d, t_max, step)
        for branch, c in zip("+-", amplitudes):
            dev = np.max(np.abs(c - sq.amplitude_closed(p, d, branch, t)))
            worst = max(worst, dev)
            assert dev <= 1e-6, f"set {_}, branch {branch}: deviation {dev:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"
    print(f"\n  [worst deviation over 50 sets x 2 branches: {worst:.2e}]")
    announce(4, "closed-form/Volterra equivalence", t0)


def test_criterion_5_regime_asymptotics():
    t0 = time.time()
    for regime in "ABC":
        p = chain_params(regime, ratio=20.0)
        assert regime_classify(p, 20.0) == regime
        d = equal_site_drive(p)
        for branch in "+-":
            strong = p.g(branch) >= p.g("-" if branch == "+" else "+")
            if regime == "B" or (regime == "A" and strong):
                t = np.linspace(0.0, 6.0 / p.gamma32_aa, 4000)
            else:
                t = np.linspace(0.0, 4.0 / p.delta_omega_c, 4000)
            exact = sq.amplitude_closed(p, d, branch, t)
            approx = regime_amplitude(p, d, regime, branch, t)
            peak = np.max(np.abs(exact))
            assert np.max(np.abs(exact - approx)) <= 0.10 * peak, (regime, branch)
        t_end = 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
        s = sq.decayed_steady_state(p, d, t_end)
        s_reg = alpha_beta_regime(p, d, regime)
        assert s.alpha_plus == pytest.approx(s_reg.alpha_plus, rel=0.15), regime
        assert s.alpha_minus == pytest.approx(s_reg.alpha_minus, rel=0.15), regime
    announce(5, "regime asymptotics", t0)


def test_criterion_6_entanglement_headline():
    t0 = time.time()
    gamma32, g_plus, dwc = 1.0, 22.0, 0.03
    g_minus = dwc / 22.0
    gp2, gm2 = 2 * g_plus**2 / dwc, 2 * g_minus**2 / dwc
    p = sq.CouplingParams(
        gamma31_aa=0.5 * (gp2 + gm2),
        gamma31_ab=0.5 * (gp2 - gm2),
        gamma32_aa=gamma32,
        gamma32_ab=0.98 * gamma32,
        delta_omega_c=dwc,
    )
    assert regime_classify(p, 20.0) == "A"
    d = equal_site_drive(p)
    s = sq.steady_state_from_params(p, d)
    conc = sq.concurrence_closed_form(s)
    assert s.alpha_plus >= 0.9, f"alpha_+ = {s.alpha_plus}"
    assert conc >= 0.9, f"concurrence = {conc}"

    d_eq = sq.prepare_drive((p.gamma31_aa, 0.3 * p.gamma31_aa, 0.3 * p.gamma31_aa), dwc)
    s_eq = sq.steady_state_from_params(p, d_eq)
    conc_eq = sq.concurrence_closed_form(s_eq)
    assert conc_eq < conc, f"equidistant {conc_eq} not below equal-site {conc}"
    print(f"\n  [equal-site alpha_+={s.alpha_plus:.4f}, C={conc:.4f}; equidistant C={conc_eq:.4f}]")
    announce(6, "entanglement headline", t0)


def test_criterion_7_concurrence_oracle_identity():
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        total = rng.uniform(0.0, 1.0)
        split = rng.uniform(0.0, 1.0)
        ap, am = total * split, total * (1.0 - split)
        mag = rng.uniform(0.0, 1.0) * math.sqrt(ap * am)
        phase = rng.uniform(0.0, 2 * math.pi)
        s = sq.SteadyState(ap, am, mag * complex(math.cos(phase), math.sin(phase)))
        diff = abs(sq.concurrence_closed_form(s) - sq.concurrence_oracle(sq.assemble_density(s)))
        worst = max(worst, diff)
        assert diff <= 1e-10
    print(f"\n  [worst closed-form vs Wootters difference over 100 states: {worst:.2e}]")
    announce(7, "concurrence oracle identity", t0)


def test_criterion_8_photon_loss_monotonicity():
    t0 = time.time()
    gamma32, g_plus = 1.0, 22.0
    g_minus = 1e-3
    alphas = []
    for dwc in np.linspace(0.01, 0.1, 10):
        gp2, gm2 = 2 * g_plus**2 / dwc, 2 * g_minus**2 / dwc
        p = sq.CouplingParams(
            gamma31_aa=0.5 * (gp2 + gm2),
            gamma31_ab=0.5 * (gp2 - gm2),
            gamma32_aa=gamma32,
            gamma32_ab=0.98 * gamma32,
            delta_omega_c=dwc,
        )
        d = equal_site_drive(p)
        alphas.append(sq.steady_state_from_params(p, d).alpha_plus)
    assert all(a >= b - 1e-12 for a, b in zip(alphas, alphas[1:])), alphas
    announce(8, "photon-loss monotonicity", t0)
