import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from sphereqed import cli, dynamics, steady_state
from sphereqed import microsphere as ms
from sphereqed.cli import main
from sphereqed.config import ConfigError, parse_config, resolve

from oracles import mp_log_derivative


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


# The + branch is uncoupled (Gamma31_+ = 0); at delta_omega_c = gamma32_aa/2,
# the middle point of the exact grid 0.25, 0.375, ..., 0.75, its two ODE
# roots -dwc and -gamma32_aa/2 coincide.
ROW_SWEEPS = {
    "explicit": (
        "entangle.rates = explicit\n"
        "dynamics.gamma31_aa = 2.0\ndynamics.gamma31_ab = -2.0\n"
        "dynamics.gamma32_ab = 0.5\ndynamics.delta_omega_c = 0.5\n"
        "sweep.axis = delta_omega_c\nsweep.lo = 0.25\nsweep.hi = 0.75\nsweep.count = 5\n"
    ),
    # across the l = 121 resonance, so that the detuning changes sign
    "sphere": (
        "entangle.rates = sphere\n"
        "resonance.omega_lo = 1.0499\nresonance.omega_hi = 1.0503\n"
        "resonance.l_lo = 121\nresonance.l_hi = 121\n"
        "weak.gamma32_ratio = 0.98\ndynamics.dipole_shift = 0.1\n"
        "anchor.gamma32_aa_over_gamma0 = 0.5\nanchor.gamma0_over_omega_t = 5.6e-5\n"
        "sweep.axis = omega\nsweep.lo = 1.0501\nsweep.hi = 1.0501008\nsweep.count = 4\n"
    ),
}
ROW_PLACEMENTS = {
    "explicit": {
        "site_of_a": "",
        "equidistant": "drive.placement = equidistant\ndrive.gamma_ad = 0.7\n",
        "explicit": ("drive.placement = explicit\ndrive.gamma_dd = 2.0\n"
                     "drive.gamma_ad = 0.7\ndrive.gamma_bd = 0.3\n"),
    },
    "sphere": {
        "site_of_a": "",
        "equidistant": "drive.placement = equidistant\n",
        "explicit": ("drive.placement = explicit\ndrive.gamma_dd = 700\n"
                     "drive.gamma_ad = 400\ndrive.gamma_bd = -399.99\n"),
    },
}

DYNAMICS_RATES = (
    "dynamics.gamma31_aa = 3.0\ndynamics.gamma31_ab = 2.0\n"
    "dynamics.gamma32_ab = 0.9\ndynamics.delta_omega_c = 0.4\n"
)
THETA_SWEEP = "sweep.axis = theta\nsweep.lo = 0\nsweep.hi = 3\nsweep.count = 2\n"
RESONANCE_WINDOW = (
    "resonance.omega_lo = 1.0499\nresonance.omega_hi = 1.0503\n"
    "resonance.l_lo = 121\nresonance.l_hi = 121\n"
)
SPHERE_ENTANGLE = (
    "entangle.rates = sphere\n"
    "weak.gamma32_ratio = 0.98\n"
    "anchor.gamma32_aa_over_gamma0 = 0.5\n"
    "anchor.gamma0_over_omega_t = 5.6e-5\n"
    "sweep.axis = theta\nsweep.lo = 3.0\nsweep.hi = 3.14\nsweep.count = 2\n"
)


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

    @pytest.mark.parametrize(
        "command,key,text",
        [
            ("dynamics", "dynamics.gamma31_ab",
             "dynamics.gamma31_aa = 3.0\ndynamics.gamma31_ab = nan\n"
             "dynamics.gamma32_ab = 0.9\ndynamics.delta_omega_c = 0.4\n"),
            ("entangle", "dynamics.gamma32_ab",
             REGIME_A_EXPLICIT.replace("gamma32_ab = 0.98", "gamma32_ab = nan")),
            ("rates", "sphere.radius", "sphere.radius = nan\n"),
            ("rates", "sphere.gamma", "sphere.gamma = inf\n"),
            ("rates", "rates.omega", "rates.omega = -inf\n"),
        ],
        ids=["dynamics", "entangle", "rates-radius", "rates-gamma", "rates-omega"],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, command, key, text):
        cfg = tmp_path / "nan.cfg"
        sweep = "" if command in ("dynamics", "entangle") else (
            "sweep.axis = theta\nsweep.lo = 0\nsweep.hi = 3\nsweep.count = 2\n")
        cfg.write_text(text + sweep)
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text",
        [
            ("resonances", RESONANCE_WINDOW),
            ("rates", "rates.omega = 1.0501\n" + THETA_SWEEP),
            ("dynamics", DYNAMICS_RATES),
            ("entangle", REGIME_A_EXPLICIT),
            ("entangle", SPHERE_ENTANGLE + RESONANCE_WINDOW),
            ("figure2", ""),
            ("figure3", ""),
            ("figure4", ""),
            ("figure5", ""),
        ],
        ids=["resonances", "rates", "dynamics", "entangle-explicit", "entangle-sphere",
             "figure2", "figure3", "figure4", "figure5"],
    )
    def test_unknown_key_is_config_error(self, tmp_path, capsys, command, text):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text + "sphere.radus = 5\n")
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "'sphere.radus'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, name",
        [
            ("rates", "sphere.radius = -1\nrates.omega = 1.0501\n" + THETA_SWEEP, "radius"),
            ("rates", "sphere.gamma = 0\nrates.omega = 1.0501\n" + THETA_SWEEP, "gamma"),
            ("figure5", "sphere.atom_distance = -1\n", "atom_distance"),
            ("dynamics", DYNAMICS_RATES.replace("gamma31_aa = 3.0", "gamma31_aa = -2"),
             "gamma31_aa"),
            # a sweep window is checked at its two ends, and a frequency or
            # ratio of sphere-mode entangle when it is read
            ("rates", "rates.omega = 1.0501\nsweep.axis = delta_r\nsweep.lo = -0.1\n"
             "sweep.hi = 1\nsweep.count = 3\n", "'sweep.lo'"),
            ("rates", THETA_SWEEP.replace("hi = 3", "hi = 4") + "rates.omega = 1.0501\n",
             "'sweep.hi'"),
            ("rates", "sweep.axis = omega\nsweep.lo = -1\nsweep.hi = 1\nsweep.count = 3\n",
             "'sweep.lo'"),
            ("entangle", REGIME_A_EXPLICIT.replace("lo = 0.01", "lo = -0.01"), "'sweep.lo'"),
            ("entangle", SPHERE_ENTANGLE.replace("gamma32_ratio = 0.98", "omega32 = -1")
             + RESONANCE_WINDOW, "'weak.omega32'"),
            ("entangle", SPHERE_ENTANGLE + RESONANCE_WINDOW + "strong.omega31 = -2\n",
             "'strong.omega31'"),
            ("entangle", SPHERE_ENTANGLE.replace("ratio = 0.98", "ratio = 1.5")
             + RESONANCE_WINDOW, "weak.gamma32_ratio"),
        ],
        ids=["radius", "gamma", "atom_distance", "gamma31_aa", "delta_r-window", "theta-window",
             "omega-window", "delta_omega_c-window", "weak-omega32", "strong-omega31",
             "gamma32-ratio"],
    )
    def test_value_the_model_rejects_is_config_error(self, tmp_path, capsys, command, text,
                                                     name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, text",
        [
            ("dynamics.t_max", "dynamics.t_max = -1\ndynamics.method = volterra\ndynamics.step = 0.002\n"),
            ("dynamics.t_max", "dynamics.t_max = -5\n"),
            ("dynamics.t_max", "dynamics.t_max = 0\n"),
            ("dynamics.samples", "dynamics.samples = 0\n"),
            ("dynamics.samples", "dynamics.samples = -1\n"),
            # values the model rejects, not the config table
            ("dynamics.step", "dynamics.method = volterra\ndynamics.step = 0\n"),
            ("drive.gamma_dd",
             "drive.placement = explicit\ndrive.gamma_dd = -1\n"
             "drive.gamma_ad = 1\ndrive.gamma_bd = 0.5\n"),
        ],
        ids=["volterra-t_max", "t_max-negative", "t_max-zero", "samples-zero", "samples-negative",
             "volterra-step-zero", "explicit-gamma_dd"],
    )
    def test_dynamics_range_is_config_error(self, tmp_path, capsys, key, text):
        cfg = tmp_path / "range.cfg"
        cfg.write_text(DYNAMICS_RATES + text)
        out = tmp_path / "out.csv"
        assert run_cli(["dynamics", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("dynamics", DYNAMICS_RATES + "drive.gamma_dd = 7\n", "drive.gamma_dd"),
            ("dynamics", DYNAMICS_RATES + "drive.gamma_ad = 5\n", "drive.gamma_ad"),
            ("entangle", REGIME_A_EXPLICIT + "drive.gamma_bd = -4\n", "drive.gamma_bd"),
            ("entangle", SPHERE_ENTANGLE + RESONANCE_WINDOW + "drive.gamma_dd = 7\n",
             "drive.gamma_dd"),
            ("entangle",
             REGIME_A_EXPLICIT.replace("site_of_a", "equidistant")
             + "drive.gamma_ad = 9000\ndrive.gamma_bd = 0.2\n", "drive.gamma_bd"),
            ("dynamics",
             DYNAMICS_RATES + "dynamics.method = volterra\ndynamics.step = 0.002\n"
             "dynamics.t_max = 2\ndynamics.samples = 2000\n", "dynamics.samples"),
            ("dynamics", DYNAMICS_RATES + "dynamics.step = 0.002\n", "dynamics.step"),
            ("rates", "rates.omega = 1.0501\nsweep.axis = omega\nsweep.lo = 1.04\n"
             "sweep.hi = 1.05\nsweep.count = 2\n", "rates.omega"),
            ("figure3", "rates.omega = 5\n", "rates.omega"),
        ],
        ids=["site_of_a-gamma_dd", "site_of_a-gamma_ad", "site_of_a-gamma_bd",
             "sphere-site_of_a-gamma_dd", "equidistant-gamma_bd", "volterra-samples",
             "closed-step", "omega-axis-rates_omega", "figure3-rates_omega"],
    )
    def test_unread_key_is_config_error(self, tmp_path, capsys, command, text, key):
        # a key the run would echo without reading it
        cfg = tmp_path / "unread.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            ("dynamics", DYNAMICS_RATES + "dynamics.method = volterra\n", "dynamics.step"),
            ("dynamics", DYNAMICS_RATES + "drive.placement = equidistant\n", "drive.gamma_ad"),
            ("entangle",
             REGIME_A_EXPLICIT.replace("site_of_a", "explicit")
             + "drive.gamma_dd = 9000\ndrive.gamma_ad = 9000\n", "drive.gamma_bd"),
            ("entangle",
             REGIME_A_EXPLICIT.replace("site_of_a", "explicit")
             + "drive.gamma_ad = 9000\ndrive.gamma_bd = 0.2\n", "drive.gamma_dd"),
            ("entangle",
             SPHERE_ENTANGLE + RESONANCE_WINDOW
             + "drive.placement = explicit\ndrive.gamma_dd = 1\ndrive.gamma_bd = 0.2\n",
             "drive.gamma_ad"),
            ("rates", THETA_SWEEP, "rates.omega"),
        ],
        ids=["volterra-step", "equidistant-gamma_ad", "explicit-gamma_bd", "explicit-gamma_dd",
             "sphere-explicit-gamma_ad", "theta-rates_omega"],
    )
    def test_missing_required_key_is_config_error(self, tmp_path, capsys, command, text, key):
        # a key that another key's value makes required
        cfg = tmp_path / "missing.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        assert f"config error: missing required key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_exit_1(self, tmp_path):
        assert run_cli(["rates", "--config", tmp_path / "nope.cfg"]) == 1

    def test_bug_is_not_a_numerical_error(self, tmp_path, monkeypatch):
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

    def test_failing_point_in_second_block_is_named(self, tmp_path, capsys, monkeypatch):
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
        # the whole sweep is one kernel call, and no point is evaluated twice
        calls = []
        collective_rates = ms.collective_rates

        def counted(*args):
            calls.append(args)
            return collective_rates(*args)

        monkeypatch.setattr(ms, "collective_rates", counted)
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(
            "sweep.axis = omega\nsweep.lo = 1.04\nsweep.hi = 1.0545\nsweep.count = 40\n"
        )
        out = tmp_path / "out.csv"
        assert run_cli(["rates", "--config", cfg, "--out", out]) == 2
        value = f"{omegas[failing[0]]:.12g}"
        assert f"sweep point {failing[0]} (value {value}): " in capsys.readouterr().err
        assert len(calls) == 1
        assert not out.exists()

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
        assert "sweep point 0 (value 0): " in capsys.readouterr().err

    @staticmethod
    def _entangle_with_undecayed(tmp_path, monkeypatch, undecayed):
        """Exit status and CSV path of a 4-point sphere-mode entangle sweep
        whose amplitude C_b(T_end) is 1 at the point undecayed[b]."""
        amplitude_closed = steady_state.amplitude_closed

        def alive_at(p, d, branch, t):
            c = np.array(amplitude_closed(p, d, branch, t))
            if undecayed.get(branch, c.size) < c.size:
                c[undecayed[branch]] = 1.0
            return c

        monkeypatch.setattr(steady_state, "amplitude_closed", alive_at)
        cfg = tmp_path / "ent.cfg"
        cfg.write_text(
            SPHERE_ENTANGLE.replace("sweep.count = 2", "sweep.count = 4") + RESONANCE_WINDOW
        )
        out = tmp_path / "out.csv"
        return run_cli(["entangle", "--config", cfg, "--out", out]), out

    def test_failing_entangle_row_is_named(self, tmp_path, capsys, monkeypatch):
        # the rates come from one call per kind, and every row from one
        # array call; a point that fails the decay check in it is named by
        # its own sweep point
        status, out = self._entangle_with_undecayed(tmp_path, monkeypatch, {"+": 2})
        assert status == 2
        value = f"{np.linspace(3.0, 3.14, 4)[2]:.12g}"
        err = capsys.readouterr().err
        assert (f"numerical error: sweep point 2 (value {value}): "
                "|C_+(T_end)| = 1.000e+00 >= 1e-6; extend the trajectory") in err
        assert not out.exists()

    def test_lowest_failing_entangle_point_is_named(self, tmp_path, capsys, monkeypatch):
        # point 3 fails the check made first (C_+), point 1 one made later
        # (C_-): the lower point is named, as a loop over the points would
        status, out = self._entangle_with_undecayed(tmp_path, monkeypatch, {"+": 3, "-": 1})
        assert status == 2
        value = f"{np.linspace(3.0, 3.14, 4)[1]:.12g}"
        err = capsys.readouterr().err
        assert (f"numerical error: sweep point 1 (value {value}): "
                "|C_-(T_end)| = 1.000e+00 >= 1e-6; extend the trajectory") in err
        assert not out.exists()

    def test_overflowing_resonance_order_is_named(self, tmp_path, capsys, monkeypatch):
        # one search over all orders; its error names the order
        ratios = ms.sph_jn_h1n_ratio

        def overflowing(l, jz, hz):
            r, q = ratios(l, jz, hz)
            r[-1] = np.inf
            return r, q

        def second_order_overflowing(l, jz, hz):
            r, q = ratios(l, jz, hz)
            if np.ndim(l):
                r[np.asarray(l) == 121] = np.inf
            return r, q

        cfg = tmp_path / "res.cfg"
        out = tmp_path / "out.csv"
        # in the two-order window only the second order overflows, and only
        # in the refinement stream, which holds the candidates of both orders
        for ratio, window in ((overflowing, RESONANCE_WINDOW),
                              (second_order_overflowing,
                               RESONANCE_WINDOW.replace("l_lo = 121", "l_lo = 120"))):
            monkeypatch.setattr(ms, "sph_jn_h1n_ratio", ratio)
            cfg.write_text(window)
            assert run_cli(["resonances", "--config", cfg, "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                "numerical error: Bessel ratio recurrences overflowed for l=121 ")
            assert not out.exists()

    def test_empty_resonance_window_is_config_error(self, tmp_path, capsys):
        # no root of l = 5, 6 lies in the window: a config problem, not a
        # numerical one
        window = RESONANCE_WINDOW.replace("l_lo = 121", "l_lo = 5").replace("l_hi = 121",
                                                                            "l_hi = 6")
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(window)
        out = tmp_path / "out.csv"
        assert run_cli(["resonances", "--config", cfg, "--out", out]) == 0
        assert read_csv(out)[2] == []
        cfg.write_text(SPHERE_ENTANGLE + window)
        out = tmp_path / "entangle.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error: no resonance found" in err
        for key in ("resonance.omega_lo", "resonance.omega_hi", "resonance.l_lo",
                    "resonance.l_hi"):
            assert key in err
        assert not out.exists()


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

    def test_metadata_echoes_defaults(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("rates.omega = 1.0501\n" + THETA_SWEEP)
        out = tmp_path / "rates.csv"
        assert run_cli(["rates", "--config", cfg, "--out", out]) == 0
        meta, _, _ = read_csv(out)
        assert {k: v for k, v in meta.items() if k.startswith("sphere.")} == {
            "sphere.atom_distance": "0.14",
            "sphere.gamma": "1e-6",
            "sphere.omega_p": "0.5",
            "sphere.radius": "10",
            "sphere.theta": "pi",
        }


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

    def test_orders_beyond_the_rate_cap(self, tmp_path):
        # the search reads bounded ratios, so its orders have no cap
        cfg = tmp_path / "res.cfg"
        cfg.write_text(
            "resonance.omega_lo = 1.058\nresonance.omega_hi = 1.06\n"
            "resonance.l_lo = 301\nresonance.l_hi = 302\n"
        )
        out = tmp_path / "res.csv"
        assert run_cli(["resonances", "--config", cfg, "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "l", int) == [301, 302]
        assert column(header, rows, "kind", str) == ["SG", "SG"]
        # each printed root suppresses the mpmath f = eps D_h(k R) - D_j(n k R)
        params = ms.DrudeLorentzParams(0.5, 1e-6)

        def f(l, omega):
            z1 = ms.size_parameter(omega, 10.0)
            z2 = ms.refractive_index(params, omega) * z1
            return (ms.permittivity(params, omega) * mp_log_derivative("H1", l, z1)
                    - mp_log_derivative("J", l, z2))

        for l, wc, dwc in zip(column(header, rows, "l", int), column(header, rows, "omega_c"),
                              column(header, rows, "delta_omega_c")):
            assert abs(f(l, wc - 1j * dwc)) < 1e-4 * abs(f(l, wc + 3 * dwc - 1j * dwc))

    def test_threads_do_not_change_output(self, tmp_path):
        # two orders below the gap, each with many candidates refined together
        cfg = tmp_path / "res.cfg"
        cfg.write_text(
            "resonance.omega_lo = 0.95\nresonance.omega_hi = 0.99\n"
            "resonance.l_lo = 70\nresonance.l_hi = 71\n"
        )
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        assert run_cli(["resonances", "--config", cfg, "--out", serial, "--threads", 1]) == 0
        assert run_cli(["resonances", "--config", cfg, "--out", pooled, "--threads", 2]) == 0
        _, header, rows = read_csv(serial)
        assert set(column(header, rows, "l", int)) == {70, 71}
        assert len(rows) > 10
        assert serial.read_bytes() == pooled.read_bytes()


class TestResonanceWindow:
    @pytest.mark.parametrize("command", ["resonances", "entangle"])
    @pytest.mark.parametrize(
        "key, bad",
        [
            ("resonance.l_lo", "0"),
            ("resonance.l_lo", "122"),  # l_hi < l_lo
            ("resonance.omega_lo", "1.0505"),  # omega_hi < omega_lo
        ],
        ids=["l_lo_zero", "orders_reversed", "window_reversed"],
    )
    def test_bad_window_is_config_error(self, tmp_path, capsys, command, key, bad):
        lines = [
            f"{key} = {bad}" if line.startswith(key + " ") else line
            for line in RESONANCE_WINDOW.splitlines()
        ]
        extra = SPHERE_ENTANGLE if command == "entangle" else ""
        cfg = tmp_path / "window.cfg"
        cfg.write_text(extra + "\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", cfg, "--out", out]) == 1
        assert "config error: need" in capsys.readouterr().err
        assert not out.exists()


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

    def test_streamed_csv_equals_list_built_rows(self, tmp_path):
        text = (
            "dynamics.gamma31_aa = 3.0\ndynamics.gamma31_ab = 2.0\n"
            "dynamics.gamma32_ab = 0.9\ndynamics.delta_omega_c = 0.4\n"
            "dynamics.t_max = 60\ndynamics.samples = 2500\n"
        )
        cfg = tmp_path / "dyn.cfg"
        cfg.write_text(text)
        out = tmp_path / "dyn.csv"
        assert run_cli(["dynamics", "--config", cfg, "--out", out]) == 0
        streamed = out.read_text()
        # the whole file built in memory from a list of rows, as one string
        values, _ = resolve(parse_config(text), cli._DYNAMICS)
        p = cli._coupling_from_cfg(values)
        traj = dynamics.sample_closed(p, cli._drive_from_cfg(values, p), 60.0, 2500)
        rows = [
            (t, cp.real, cp.imag, cm.real, cm.imag)
            for t, cp, cm in zip(traj.times, traj.c_plus, traj.c_minus)
        ]
        lines = [line for line in streamed.splitlines() if line.startswith("#")]
        lines.append("t,c_plus_re,c_plus_im,c_minus_re,c_minus_im")
        lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
        # more rows than one 1024-row chunk of the row conversion
        assert len(rows) == 2500
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

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
        # the integrator takes no sample count, and the CSV echoes none
        assert "dynamics.samples" not in meta
        t = np.array(column(header, rows, "t"))
        cp = np.array(column(header, rows, "c_plus_re")) + 1j * np.array(
            column(header, rows, "c_plus_im")
        )
        from sphereqed.dynamics import CouplingParams, amplitude_closed, prepare_drive

        p = CouplingParams(3.0, 2.0, 1.0, 0.9, 0.4)
        d = prepare_drive((3.0, 3.0, 2.0), 0.4)
        assert np.max(np.abs(cp - amplitude_closed(p, d, "+", t))) < 1e-6


def _fmt_join(meta, header, rows) -> bytes:
    """The CSV of write_csv's arguments, one _fmt call per value."""
    lines = [f"# {k} = {cli._fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    lines.extend(",".join(cli._fmt(v) for v in row) for row in rows)
    return ("\n".join(lines) + "\n").encode()


class TestWriteCsv:
    META = {"sweep.count": "3", "resolved.x": 0.1 + 0.2}

    @pytest.mark.parametrize(
        "header, rows",
        [
            (cli._RESONANCE_HEADER,
             [(121, 1.0501234567891234, 3.2e-5, "SG"), (7, 0.93, np.float64(1e-3), "WG")]),
            (cli._ENTANGLE_HEADER,
             [[np.float64(0.1 + 0.2), *[1.0 / k for k in range(1, 11)],
               *np.linspace(0.1, 0.9, 4), np.float32(0.1), np.float64(-2.5e-17)],
              [0.3, *np.geomspace(1e-300, 1e300, 15), 2.0 / 3.0]]),
            (cli._DYNAMICS_HEADER,
             [[0.0, math.nan, math.inf, -math.inf, -0.0],
              [5e-324, 1e16, -1e16, 1.0 / 3.0, 123456789012.5],
              [2.0e-3, -5e-324, 0.1, 1e-5, 1e22]]),
            (cli._DYNAMICS_HEADER, iter(())),
        ],
        ids=["resonances", "entangle", "dynamics", "empty"],
    )
    def test_bytes_equal_per_value_format(self, tmp_path, header, rows):
        rows = list(rows)
        out = tmp_path / "out.csv"
        cli.write_csv(out, self.META, header, iter(rows))
        assert out.read_bytes() == _fmt_join(self.META, header, rows)


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
        # trajectory, decayed at its last sample, and the mode integrals gave
        text = REGIME_A_EXPLICIT.replace("site_of_a", placement)
        if placement == "equidistant":
            text += "drive.gamma_ad = 9000.0\n"
        cfg, _ = resolve(parse_config(text), cli._ENTANGLE_EXPLICIT)
        base = cli._coupling_from_cfg(cfg)
        for dwc in (0.01, 0.02, 0.03, 0.4):
            p = dynamics.CouplingParams(
                base.gamma31_aa, base.gamma31_ab, base.gamma32_aa, base.gamma32_ab, dwc
            )
            d = cli._drive_from_cfg(cfg, p)
            t_end = 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
            traj = dynamics.sample_closed(p, d, t_end, 2000)
            assert max(abs(traj.c_plus[-1]), abs(traj.c_minus[-1])) < 1e-6
            state = steady_state.steady_state_from_params(p, d)
            want = (
                p.gamma31_aa, p.gamma31_ab, p.gamma32_ab, p.delta_omega_c,
                p.detuning_delta, p.g_plus, p.g_minus, d.f_plus0.real, d.f_plus0.imag,
                d.f_minus0.real, d.f_minus0.imag, state.alpha_plus, state.alpha_minus,
                state.beta.real, state.beta.imag, steady_state.concurrence_closed_form(state),
            )
            assert cli._entangle_columns(cfg, p) == want

    @pytest.mark.parametrize("placement", ["site_of_a", "equidistant", "explicit"])
    @pytest.mark.parametrize("rates", ["explicit", "sphere"])
    def test_row_does_not_depend_on_its_sweep(self, tmp_path, monkeypatch, rates, placement):
        # the whole sweep is one call of the chain, and each of its rows is
        # that of a one-point call, bit for bit.  The point is passed as
        # one-element arrays: numpy forms a product of two numpy scalars by
        # its own scalar arithmetic, which may round a complex product
        # differently from its array loop
        calls = []
        entangle_columns = cli._entangle_columns

        def recorded(v, p, unit=1.0, gamma_ad=None):
            calls.append((v, p, unit, gamma_ad))
            return entangle_columns(v, p, unit, gamma_ad)

        monkeypatch.setattr(cli, "_entangle_columns", recorded)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(ROW_SWEEPS[rates] + ROW_PLACEMENTS[rates][placement])
        assert run_cli(["entangle", "--config", cfg, "--out", tmp_path / "out.csv"]) == 0
        (v, p, unit, gamma_ad), = calls
        n = int(v["sweep.count"])
        columns = [np.broadcast_to(c, (n,)) for c in entangle_columns(v, p, unit, gamma_ad)]
        fields = [getattr(p, f.name) for f in dataclasses.fields(p)]
        for k in range(n):
            def point(x):
                return np.broadcast_to(x, (n,))[k : k + 1]

            p_k = dynamics.CouplingParams(*map(point, fields))
            one = entangle_columns(v, p_k, unit, None if gamma_ad is None else point(gamma_ad))
            assert [c[k].tobytes() for c in columns] == [
                np.broadcast_to(c, (1,)).tobytes() for c in one]
        if rates == "explicit":
            # the middle point is a double root of the + branch among generic
            # points, and its amplitude is the degenerate limit
            # F(0) t e^{-a1 t/2} (0 for a drive at the site of A, which
            # leaves the uncoupled branch undriven)
            d = cli._drive_from_cfg(v, p)
            assert list(dynamics.amplitude_modes(p, d, "+")[0][2]) == [0, 0, 1, 0, 0]
            t = np.linspace(0.0, 20.0, 41)
            c_plus = dynamics.amplitude_closed(p, d, "+", t[:, None])
            a1 = dynamics.ode_coeffs(p, "+")[0][2]
            want = d.f_plus0[2] * t * np.exp(-a1 * t / 2.0)
            assert np.max(np.abs(c_plus[:, 2] - want)) <= 1e-15 * np.max(np.abs(want))

    def test_branch_at_the_coupling_bound_is_uncoupled(self, tmp_path):
        # |gamma31_ab| may exceed gamma31_aa by 1e-12 relative, so Gamma31_-
        # is -9e-13 here: that branch is uncoupled (g_- = 0), not an error
        rates = ("dynamics.gamma31_aa = 2.0\ndynamics.gamma31_ab = 2.0000000000009\n"
                 "dynamics.gamma32_ab = 0.5\ndynamics.delta_omega_c = 0.3\n")
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(rates)
        assert run_cli(["dynamics", "--config", cfg, "--out", tmp_path / "dyn.csv"]) == 0
        cfg.write_text(rates + "entangle.rates = explicit\nsweep.axis = delta_omega_c\n"
                       "sweep.lo = 0.2\nsweep.hi = 0.4\nsweep.count = 5\n")
        out = tmp_path / "ent.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", out]) == 0
        _, header, rows = read_csv(out)
        assert column(header, rows, "g_minus") == [0.0] * 5

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

    def test_weak_frequency_and_ratio_conflict(self, tmp_path, capsys):
        cfg = tmp_path / "both.cfg"
        cfg.write_text(SPHERE_ENTANGLE + RESONANCE_WINDOW + "weak.omega32 = 0.9207\n")
        out = tmp_path / "out.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "weak.omega32" in err and "weak.gamma32_ratio" in err
        assert not out.exists()

    def test_rerun_from_metadata_gives_same_bytes(self, tmp_path):
        cfg = tmp_path / "ent.cfg"
        cfg.write_text(SPHERE_ENTANGLE + RESONANCE_WINDOW)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", first]) == 0
        echo = [line[2:] for line in first.read_text().splitlines() if line.startswith("# ")]
        cfg.write_text("\n".join(echo) + "\n")
        assert run_cli(["entangle", "--config", cfg, "--out", second]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_sphere_mode_equidistant_refuses_gamma_ad(self, tmp_path, capsys):
        # sphere mode computes the equidistant cross rate from the sphere
        cfg = tmp_path / "ad.cfg"
        cfg.write_text(
            SPHERE_ENTANGLE + RESONANCE_WINDOW
            + "drive.placement = equidistant\ndrive.gamma_ad = 5\n"
        )
        out = tmp_path / "out.csv"
        assert run_cli(["entangle", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "drive.gamma_ad" in err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "name, lo, hi",
        [
            ("figure2", 0.0, math.pi),
            ("figure3", 1.04, 1.0535),
            ("figure4", 0.90, 0.995),
            ("figure5", 0.05, 3.0),
        ],
    )
    def test_preset_window_columns_and_metadata(self, tmp_path, capsys, name, lo, hi):
        with pytest.raises(SystemExit):
            run_cli([name, "--help"])
        listed = capsys.readouterr().out.split("CSV columns: ")[1].splitlines()[0]
        cfg = tmp_path / "count.cfg"
        cfg.write_text("sweep.count = 3\n")
        out = tmp_path / f"{name}.csv"
        assert run_cli([name, "--config", cfg, "--out", out]) == 0
        meta, header, rows = read_csv(out)
        assert header == listed.split(", ")
        axis = column(header, rows, header[0])
        assert len(axis) == 3
        assert axis[0] == pytest.approx(lo, rel=1e-11)
        assert axis[-1] == pytest.approx(hi, rel=1e-11)
        # the omega-axis presets do not read rates.omega, so they do not echo it
        if header[0] == "omega":
            assert "rates.omega" not in meta
        else:
            assert meta["rates.omega"] == "1.0501"
        assert {k: v for k, v in meta.items() if k.startswith("sphere.")} == {
            "sphere.atom_distance": "0.14",
            "sphere.gamma": "1e-6",
            "sphere.omega_p": "0.5",
            "sphere.radius": "10",
            "sphere.theta": "pi",
        }

    @pytest.mark.parametrize(
        "name, axis, wrong",
        [
            ("figure2", "theta", "delta_r"),
            ("figure3", "omega", "theta"),
            ("figure4", "omega", "delta_r"),
            ("figure5", "delta_r", "theta"),
        ],
    )
    @pytest.mark.parametrize("matching", [True, False], ids=["matching", "contradicting"])
    def test_preset_sweep_axis_checked(self, tmp_path, capsys, name, axis, wrong, matching):
        given = axis if matching else wrong
        cfg = tmp_path / "axis.cfg"
        cfg.write_text(f"sweep.axis = {given}\nsweep.count = 3\n")
        out = tmp_path / "out.csv"
        if matching:
            assert run_cli([name, "--config", cfg, "--out", out]) == 0
            meta, header, rows = read_csv(out)
            assert header[0] == axis and meta["sweep.axis"] == axis
        else:
            assert run_cli([name, "--config", cfg, "--out", out]) == 1
            err = capsys.readouterr().err
            assert all(word in err for word in ("'sweep.axis'", repr(given), repr(axis)))
            assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        ["sweep.count = 1\n", "sweep.lo = 3.0\nsweep.hi = 1.0\n"],
        ids=["count_one", "window_reversed"],
    )
    def test_preset_sweep_keys_checked_like_rates(self, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run_cli(["figure2", "--config", cfg, "--out", tmp_path / "out.csv"]) == 1


def test_readme_lists_every_declared_key():
    tables = [cli._RESONANCES, cli._RATES, cli._DYNAMICS, cli._ENTANGLE_EXPLICIT,
              cli._ENTANGLE_SPHERE, *(table for _, table, _ in cli._FIGURES.values())]
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config keys")[1].split("\n## ")[0]
    assert set(re.findall(r"\b[a-z]+\.[a-z][a-z0-9_]*", section)) == set().union(*tables)


def test_main_calls_in_one_process_equal_fresh_processes(tmp_path):
    # main builds its parser once per process: different subcommands run one
    # after another in one process, with a config error and an argument
    # error between them, write the CSVs a fresh process writes for each
    jobs = {
        "resonances": RESONANCE_WINDOW,
        "rates": "rates.omega = 1.0501\n" + THETA_SWEEP,
        "dynamics": DYNAMICS_RATES,
        "entangle": REGIME_A_EXPLICIT,
    }
    for name, text in jobs.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    (tmp_path / "bad.cfg").write_text("rates.no_such_key = 1\n")
    for run in (1, 2):
        for name in jobs:
            assert run_cli([name, "--config", tmp_path / f"{name}.cfg",
                            "--out", tmp_path / f"{name}-{run}.csv"]) == 0
            assert run_cli(["rates", "--config", tmp_path / "bad.cfg"]) == 1
            with pytest.raises(SystemExit):
                run_cli([name, "--no-such-flag"])
    assert cli.build_parser() is cli.build_parser()
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    for name in jobs:
        fresh = tmp_path / f"{name}-fresh.csv"
        subprocess.run([sys.executable, "-m", "sphereqed.cli", name, "--config",
                        tmp_path / f"{name}.cfg", "--out", fresh], env=env, check=True)
        for run in (1, 2):
            assert (tmp_path / f"{name}-{run}.csv").read_bytes() == fresh.read_bytes()
