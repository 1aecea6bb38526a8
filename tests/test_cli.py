import math

import numpy as np
import pytest

from sphereqed import cli, dynamics, steady_state
from sphereqed.cli import main
from sphereqed.config import ConfigError, parse_config


def run_cli(args):
    return main([str(a) for a in args])


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


REGIME_A_EXPLICIT = """
entangle.rates = explicit
dynamics.gamma31_aa = 30000.0005
dynamics.gamma31_ab = 29999.9995
dynamics.gamma32_aa = 1.0
dynamics.gamma32_ab = 0.98
dynamics.delta_omega_c = 0.03
drive.placement = site_of_a
sweep.axis = delta_omega_c
sweep.lo = 0.01
sweep.hi = 0.03
sweep.count = 4
"""


class TestConfigParsing:
    def test_flat_keys_and_comments(self):
        cfg = parse_config("a.b = 1 # trailing\n# full comment\n\nc.d = pi\n")
        assert cfg == {"a.b": "1", "c.d": "pi"}

    def test_error_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("a.b = 1\nnot a key value\n")
        assert err.value.line == 2

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("a.b = 1\na.b = 2\n")


class TestExitCodes:
    def test_config_error_is_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("sweep.axis == theta\n")
        assert run_cli(["rates", "--config", bad]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_file_is_exit_1(self, tmp_path):
        assert run_cli(["rates", "--config", tmp_path / "nope.cfg"]) == 1

    def test_bug_is_not_a_numerical_error(self, tmp_path, monkeypatch):
        import sphereqed.microsphere as ms

        def broken(*args, **kwargs):
            raise IndexError("bug in block slicing")

        monkeypatch.setattr(ms, "collective_rates", broken)
        cfg = tmp_path / "free.cfg"
        cfg.write_text(
            "rates.omega = 1.0\n"
            "sweep.axis = theta\nsweep.lo = 0\nsweep.hi = 3\nsweep.count = 2\n"
        )
        with pytest.raises(IndexError):
            run_cli(["rates", "--config", cfg, "--out", tmp_path / "out.csv"])

    def test_failing_point_in_second_block_is_named(self, tmp_path, capsys):
        # near the surface-mode accumulation frequency the series overflows
        # the l = 300 cap; the first failing point lies in the second block
        from sphereqed.microsphere import (
            BLOCK,
            DrudeLorentzParams,
            NonConvergenceError,
            SphereSystem,
            rates_pm,
        )

        omegas = np.linspace(1.04, 1.0545, 40)
        sys0 = SphereSystem(DrudeLorentzParams(0.5, 1e-6), 10.0, 0.14, math.pi)
        failing = []
        for k, om in enumerate(omegas):
            try:
                rates_pm(sys0, om)
            except (NonConvergenceError, ArithmeticError):
                failing.append(k)
        assert failing and BLOCK <= failing[0] < len(omegas)
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(
            "sweep.axis = omega\nsweep.lo = 1.04\nsweep.hi = 1.0545\nsweep.count = 40\n"
        )
        assert run_cli(["rates", "--config", cfg, "--out", tmp_path / "out.csv"]) == 2
        assert f"sweep point {failing[0]} " in capsys.readouterr().err

    def test_numerical_error_is_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "close.cfg"
        # atoms far too close to the surface for the l <= 300 multipole sum
        cfg.write_text(
            "sphere.atom_distance = 0.004\n"
            "rates.omega = 1.0501\n"
            "sweep.axis = theta\nsweep.lo = 0\nsweep.hi = 3\nsweep.count = 2\n"
        )
        out = tmp_path / "out.csv"
        assert run_cli(["rates", "--config", cfg, "--out", out]) == 2
        assert "sweep point 0" in capsys.readouterr().err


class TestRates:
    def test_free_space_gamma_aa_column_is_unity(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text(
            "sphere.omega_p = 0\nsphere.gamma = 1e-9\n"
            "sphere.radius = 0.5\nsphere.atom_distance = 0.5\n"
            "rates.omega = 1.0\n"
            "sweep.axis = theta\nsweep.lo = 0.2\nsweep.hi = 3.0\nsweep.count = 5\n"
        )
        out = tmp_path / "rates.csv"
        assert run_cli(["rates", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        gaa = column(header, rows, "gamma_aa")
        assert all(abs(v - 1.0) < 1e-6 for v in gaa)
        # +/- columns are consistent combinations
        gp = column(header, rows, "gamma_plus")
        gm = column(header, rows, "gamma_minus")
        gab = column(header, rows, "gamma_ab")
        for a, b, p, m in zip(gaa, gab, gp, gm):
            assert p == pytest.approx(a + b, rel=1e-10)
            assert m == pytest.approx(a - b, rel=1e-10)

    def test_deterministic_output(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text(
            "sphere.omega_p = 0\nsphere.radius = 1\nsphere.atom_distance = 1\n"
            "rates.omega = 1.0\n"
            "sweep.axis = delta_r\nsweep.lo = 0.5\nsweep.hi = 2.0\nsweep.count = 7\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["rates", "--config", cfg, "--out", out1]) == 0
        assert run_cli(["rates", "--config", cfg, "--out", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text(
            "sphere.omega_p = 0\nsphere.radius = 1\nsphere.atom_distance = 1\n"
            "sweep.axis = omega\nsweep.lo = 0.5\nsweep.hi = 1.5\nsweep.count = 70\n"
        )
        # 70 points span three blocks of the sphere kernel
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(["rates", "--config", cfg, "--out", serial]) == 0
        assert run_cli(["rates", "--config", cfg, "--out", pooled, "--threads", 4]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_metadata_echoes_config(self, tmp_path):
        cfg = tmp_path / "free.cfg"
        cfg.write_text(
            "sphere.omega_p = 0\nsphere.radius = 1\nsphere.atom_distance = 1\n"
            "rates.omega = 1.0\n"
            "sweep.axis = theta\nsweep.lo = 0\nsweep.hi = 3\nsweep.count = 3\n"
        )
        out = tmp_path / "rates.csv"
        run_cli(["rates", "--config", cfg, "--out", out])
        meta, _, _ = read_csv(out)
        assert meta["sphere.omega_p"] == "0"
        assert meta["sweep.count"] == "3"


class TestResonances:
    def test_fig2_narrow_window(self, tmp_path):
        out = tmp_path / "res.csv"
        cfg = tmp_path / "res.cfg"
        cfg.write_text(
            "resonance.omega_lo = 1.0495\nresonance.omega_hi = 1.0507\n"
            "resonance.l_lo = 120\nresonance.l_hi = 122\n"
        )
        assert run_cli(["resonances", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["l", "omega_c", "delta_omega_c", "kind"]
        ls = column(header, rows, "l", int)
        omegas = column(header, rows, "omega_c")
        kinds = column(header, rows, "kind", str)
        assert 121 in ls
        assert all(k == "SG" for k in kinds)
        assert any(abs(w - 1.0501) < 6e-4 for w in omegas)
        assert omegas == sorted(omegas)


class TestDynamicsCommand:
    def test_emits_decaying_amplitudes(self, tmp_path):
        cfg = tmp_path / "dyn.cfg"
        cfg.write_text(
            "dynamics.gamma31_aa = 3.0\ndynamics.gamma31_ab = 2.0\n"
            "dynamics.gamma32_ab = 0.9\ndynamics.delta_omega_c = 0.4\n"
            "dynamics.t_max = 60\ndynamics.samples = 600\n"
        )
        out = tmp_path / "dyn.csv"
        assert run_cli(["dynamics", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        cp = np.hypot(
            np.array(column(header, rows, "c_plus_re")),
            np.array(column(header, rows, "c_plus_im")),
        )
        assert cp[0] == 0.0
        assert cp.max() > 1e-3
        assert cp[-1] < 1e-6
        assert "resolved.f_plus0_re" in meta

    def test_volterra_method_agrees_with_closed(self, tmp_path):
        base = (
            "dynamics.gamma31_aa = 3.0\ndynamics.gamma31_ab = 2.0\n"
            "dynamics.gamma32_ab = 0.9\ndynamics.delta_omega_c = 0.4\n"
            "dynamics.t_max = 12\n"
        )
        cfg_v = tmp_path / "dyn_v.cfg"
        cfg_v.write_text(base + "dynamics.method = volterra\ndynamics.step = 0.002\n")
        out_v = tmp_path / "dyn_v.csv"
        assert run_cli(["dynamics", "--config", cfg_v, "--out", out_v]) == 0
        meta, header, rows = read_csv(out_v)
        t = np.array(column(header, rows, "t"))
        cp = np.array(column(header, rows, "c_plus_re")) + 1j * np.array(
            column(header, rows, "c_plus_im")
        )
        from sphereqed.dynamics import CouplingParams, amplitude_closed, prepare_drive

        p = CouplingParams(3.0, 2.0, 1.0, 0.9, 0.4)
        d = prepare_drive((3.0, 3.0, 2.0), 0.4)
        assert np.max(np.abs(cp - amplitude_closed(p, d, "+", t))) < 1e-6


class TestEntangle:
    def test_explicit_regime_a_concurrence(self, tmp_path):
        cfg = tmp_path / "ent.cfg"
        cfg.write_text(REGIME_A_EXPLICIT)
        out = tmp_path / "ent.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        conc = column(header, rows, "concurrence")
        alphas = column(header, rows, "alpha_plus")
        assert all(c >= 0.9 for c in conc)
        assert all(a >= 0.9 for a in alphas)
        # photon loss grows with resonance width along the sweep
        assert alphas == sorted(alphas, reverse=True)

    @pytest.mark.parametrize("placement", ["site_of_a", "equidistant"])
    def test_row_equals_row_from_sampled_trajectory(self, placement):
        # the decay guard at t_end gives the row that a 2000-point closed-form
        # trajectory and integrate_alpha_beta on its last sample gave
        text = REGIME_A_EXPLICIT.replace("site_of_a", placement)
        cfg = parse_config(text + "drive.gamma_ad = 9000.0\n")
        base = cli._coupling_from_cfg(cfg)
        for dwc in (0.01, 0.02, 0.03, 0.4):
            p = dynamics.CouplingParams(
                base.gamma31_aa, base.gamma31_ab, base.gamma32_aa, base.gamma32_ab, dwc
            )
            d = cli._drive_from_cfg(cfg, p)
            t_end = 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
            traj = dynamics.sample_closed(p, d, t_end, 2000)
            state = steady_state.integrate_alpha_beta(
                traj, (p.gamma32_pm("+"), p.gamma32_pm("-"))
            )
            want = (
                dwc, p.gamma31_aa, p.gamma31_ab, p.gamma32_ab, p.delta_omega_c,
                p.detuning_delta, p.g_plus, p.g_minus, d.f_plus0.real, d.f_plus0.imag,
                d.f_minus0.real, d.f_minus0.imag, state.alpha_plus, state.alpha_minus,
                state.beta.real, state.beta.imag, steady_state.concurrence_closed_form(state),
            )
            assert cli._steady_row(dwc, p, d) == want

    def test_sphere_mode_pipeline(self, tmp_path):
        cfg = tmp_path / "sphere_ent.cfg"
        cfg.write_text(
            "entangle.rates = sphere\n"
            "resonance.omega_lo = 1.0499\nresonance.omega_hi = 1.0503\n"
            "resonance.l_lo = 121\nresonance.l_hi = 121\n"
            "strong.omega31 = auto\n"
            "weak.gamma32_ratio = 0.98\n"
            "anchor.gamma32_aa_over_gamma0 = 0.5\n"
            "anchor.gamma0_over_omega_t = 5.6e-5\n"
            "sweep.axis = theta\nsweep.lo = 3.0415926\nsweep.hi = 3.1415926\nsweep.count = 3\n"
        )
        out = tmp_path / "sphere_ent.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        conc = column(header, rows, "concurrence")
        # l = 121 is odd: the antisymmetric Bell state fills at theta = pi
        am = column(header, rows, "alpha_minus")
        assert conc[-1] > 0.9
        assert am[-1] > 0.9
        assert conc[-1] == max(conc)

    def test_sphere_mode_weak_channel_and_equidistant(self, tmp_path):
        # weak rates from the sphere at an explicit frequency, atom D on the
        # equator, strong transition pinned numerically
        cfg = tmp_path / "variants.cfg"
        cfg.write_text(
            "entangle.rates = sphere\n"
            "resonance.omega_lo = 1.0499\nresonance.omega_hi = 1.0503\n"
            "resonance.l_lo = 121\nresonance.l_hi = 121\n"
            "strong.omega31 = 1.0501\n"
            "weak.omega32 = 0.9207\n"
            "drive.placement = equidistant\n"
            "anchor.gamma32_aa_over_gamma0 = 0.5\n"
            "anchor.gamma0_over_omega_t = 5.6e-5\n"
            "sweep.axis = theta\nsweep.lo = 3.10\nsweep.hi = 3.1415926535\nsweep.count = 2\n"
        )
        out = tmp_path / "variants.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        g32ab = column(header, rows, "gamma32_ab")
        conc = column(header, rows, "concurrence")
        assert all(abs(v) <= 1.0 + 1e-9 for v in g32ab)
        assert all(np.isfinite(c) and 0 <= c <= 1 for c in conc)
        # with D equidistant the antisymmetric drive vanishes identically
        assert all(v == 0.0 for v in column(header, rows, "f_minus_re"))

    def test_missing_anchor_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "noanchor.cfg"
        cfg.write_text(
            "entangle.rates = sphere\n"
            "resonance.omega_lo = 1.0499\nresonance.omega_hi = 1.0503\n"
            "resonance.l_lo = 121\nresonance.l_hi = 121\n"
            "weak.gamma32_ratio = 0.98\n"
            "sweep.axis = theta\nsweep.lo = 3.0\nsweep.hi = 3.14\nsweep.count = 2\n"
        )
        assert run_cli(["entangle", "--config", cfg]) == 1


class TestFigurePresets:
    def test_figure2_defaults(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(["figure2", "--out", out, "--threads", 2]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["theta", "gamma_ab"]
        assert len(rows) == 181
        thetas = column(header, rows, "theta")
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(math.pi)
        assert meta["rates.omega"] == "1.0501"
        # theta = 0 coincides with the single-atom rate, which is large here
        gab = column(header, rows, "gamma_ab")
        assert abs(gab[0]) > 100
        assert abs(gab[-1]) > 100

    def test_figure5_free_space_recovery(self, tmp_path):
        out = tmp_path / "fig5.csv"
        cfg = tmp_path / "fig5.cfg"
        cfg.write_text("sweep.count = 30\n")
        assert run_cli(["figure5", "--config", cfg, "--out", out, "--threads", 2]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["delta_r", "gamma_plus", "gamma_minus"]
        gp = column(header, rows, "gamma_plus")
        gm = column(header, rows, "gamma_minus")
        assert abs(gp[-1] - 1) < 0.2 and abs(gm[-1] - 1) < 0.2

    def test_figure_config_override(self, tmp_path):
        out = tmp_path / "fig3.csv"
        cfg = tmp_path / "fig3.cfg"
        cfg.write_text("sweep.lo = 1.0500\nsweep.hi = 1.0502\nsweep.count = 21\n")
        assert run_cli(["figure3", "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        assert len(rows) == 21
        omegas = column(header, rows, "omega")
        assert omegas[0] == 1.05 and omegas[-1] == 1.0502
