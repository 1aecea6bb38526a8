"""Command-line front end: scenario configs in, CSV sweep data out.

Subcommands
    resonances  list field resonances (l, omega_c, delta_omega_c, kind)
    rates       sweep collective rates over theta, omega or delta_r
    dynamics    emit sampled amplitudes C_pm(t) for an explicit rate set
    entangle    full pipeline rates -> drive -> amplitudes -> stationary
                state -> concurrence, one CSV row per sweep point
    figure2..5  preset sweeps with the microsphere demo parameters
                (omega_p = 0.5, gamma = 1e-6, R = 10, delta_r = 0.14,
                omega = 1.0501, all in normalized units)

Exit status: 0 success, 1 config error, 2 numerical failure.  Output is CSV
with '#'-prefixed metadata lines echoing the resolved scenario, a header row,
and floats printed to 12 significant digits so identical configs give byte
identical files.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import dynamics as dyn
from . import microsphere as ms
from . import steady_state as ss
from .config import (
    ConfigError,
    get_choice,
    get_float,
    get_int,
    get_str,
    load_config,
)

SWEEP_AXES = ("theta", "omega", "delta_r")

# the demo sphere: its sphere.* values are every subcommand's defaults, and
# the figure presets echo all of it, rates.omega included
_DEMO = {
    "sphere.omega_p": "0.5",
    "sphere.gamma": "1e-6",
    "sphere.radius": "10",
    "sphere.atom_distance": "0.14",
    "sphere.theta": "pi",
    "rates.omega": "1.0501",
}

RATE_COLUMNS = ("gamma_aa", "gamma_ab", "gamma_plus", "gamma_minus")
_PM = ("gamma_plus", "gamma_minus")

# figure presets: help line, swept axis, default window (sweep.lo, sweep.hi),
# default sweep.count and rate columns
_FIGURES = {
    "figure2": ("Cross rate Gamma_AB vs dipole angle theta at the demo resonance.",
                "theta", (0.0, math.pi), 181, ("gamma_ab",)),
    # the window stops at 1.0535: closer to the surface-mode accumulation
    # frequency sqrt(1 + omega_p^2/2) the multipole sum needs orders beyond
    # the l = 300 cap and the sweep would fail honestly
    "figure3": ("Gamma_pm vs transition frequency across the band-gap (SG) window.",
                "omega", (1.04, 1.0535), 801, _PM),
    # the window stops at 0.995; at the transverse resonance omega = 1 the
    # permittivity magnitude blows up like omega_p^2/gamma
    "figure4": ("Gamma_pm vs transition frequency below the gap (WG window).",
                "omega", (0.90, 0.995), 801, _PM),
    "figure5": ("Gamma_pm vs atom-surface distance delta_r at the demo resonance.",
                "delta_r", (0.05, 3.0), 150, _PM),
}


class SweepPointError(RuntimeError):
    """Physics failure at a specific sweep point."""


# failures of the physics and numerics (UndecayedTrajectoryError is a
# ValueError); anything else is a bug and keeps its traceback
NUMERICAL_ERRORS = (ms.NonConvergenceError, ArithmeticError, ValueError)

DRIVE_PLACEMENTS = ("site_of_a", "equidistant", "explicit")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.12g}"
    return str(value)


def write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    """Metadata lines, the header and one line per row of the iterable
    rows, each line written as soon as it is formatted."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {k} = {_fmt(v)}\n" for k, v in meta.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def _sweep_map(fn, values) -> list:
    """fn over consecutive blocks of ms.BLOCK sweep values, in order, each
    call returning one item per value; the items in sweep order.

    A numerical failure is reported at its sweep point, found by redoing
    the failed block one point at a time.
    """
    items = []
    for start in range(0, len(values), ms.BLOCK):
        block = values[start : start + ms.BLOCK]
        try:
            items += fn(block)
        except NUMERICAL_ERRORS:
            for offset, value in enumerate(block):
                try:
                    fn(block[offset : offset + 1])
                except NUMERICAL_ERRORS as exc:
                    raise SweepPointError(
                        f"sweep point {start + offset} (value {_fmt(value)}): {exc}"
                    ) from exc
            raise
    return items


def _sphere_system(cfg: dict) -> ms.SphereSystem:
    cfg = {**_DEMO, **cfg}
    params = ms.DrudeLorentzParams(
        omega_p=get_float(cfg, "sphere.omega_p"),
        gamma=get_float(cfg, "sphere.gamma"),
    )
    return ms.SphereSystem(
        params=params,
        radius=get_float(cfg, "sphere.radius"),
        atom_distance=get_float(cfg, "sphere.atom_distance"),
        theta=get_float(cfg, "sphere.theta"),
    )


def _sweep_values(cfg: dict, lo: float | None = None, hi: float | None = None,
                  count: int | None = None) -> np.ndarray:
    """The points of sweep.lo, sweep.hi and sweep.count; a figure preset
    passes its window as their defaults."""
    lo = get_float(cfg, "sweep.lo", lo)
    hi = get_float(cfg, "sweep.hi", hi)
    count = get_int(cfg, "sweep.count", count)
    if not lo < hi:
        raise ConfigError("sweep.lo must be < sweep.hi")
    if count < 2:
        raise ConfigError("sweep.count must be >= 2")
    return np.linspace(lo, hi, count)


def _resonance_window(cfg: dict) -> tuple[float, float, range]:
    """(omega_lo, omega_hi, orders) of the resonance.* keys."""
    omega_lo = get_float(cfg, "resonance.omega_lo")
    omega_hi = get_float(cfg, "resonance.omega_hi")
    l_lo = get_int(cfg, "resonance.l_lo")
    l_hi = get_int(cfg, "resonance.l_hi")
    if not 1 <= l_lo <= l_hi <= ms.L_MAX_SUPPORTED:
        raise ConfigError(
            f"need 1 <= resonance.l_lo <= resonance.l_hi <= {ms.L_MAX_SUPPORTED}"
        )
    if not 0 < omega_lo < omega_hi:
        raise ConfigError("need 0 < resonance.omega_lo < resonance.omega_hi")
    return omega_lo, omega_hi, range(l_lo, l_hi + 1)


def _meta(cfg: dict, extra: dict | None = None) -> dict:
    meta = dict(sorted(cfg.items()))
    if extra:
        meta.update(extra)
    return meta


def _sweep_points(sys0: ms.SphereSystem, axis: str, values, omega: float):
    """(r, omega, theta) lists for the sweep points `values`; off the omega
    axis every point's system is built, so its geometry is validated."""
    if axis == "omega":
        systems, omegas = [sys0] * len(values), list(values)
    else:
        field = "theta" if axis == "theta" else "atom_distance"
        systems = [replace(sys0, **{field: value}) for value in values]
        omegas = [omega] * len(values)
    return [s.r for s in systems], omegas, [s.theta for s in systems]


def _rates_at(sys0: ms.SphereSystem, r, omega, theta):
    """(Gamma_AA, Gamma_AB) arrays of the block kernel at the given points."""
    cos_theta = [math.cos(t) for t in theta]
    return ms.collective_rates(sys0.params, sys0.radius, r, omega, cos_theta)


_RESONANCE_HEADER = ["l", "omega_c", "delta_omega_c", "kind"]


def cmd_resonances(cfg: dict, out: str) -> None:
    """Locate field resonances in a frequency window for a range of orders."""
    sys0 = _sphere_system(cfg)
    omega_lo, omega_hi, orders = _resonance_window(cfg)

    def block(ls):
        return [ms.find_resonances(sys0, omega_lo, omega_hi, [l]) for l in ls]

    chunks = _sweep_map(block, orders)
    resonances = sorted(
        (r for chunk in chunks for r in chunk), key=lambda r: (r.omega_c, r.l)
    )
    rows = [(r.l, r.omega_c, r.delta_omega_c, r.kind) for r in resonances]
    write_csv(out, _meta(cfg), _RESONANCE_HEADER, rows)


def _rate_sweep(cfg: dict, out: str, axis: str, values, columns: tuple[str, ...]) -> None:
    """The rate sweep of `rates` and the figure presets: the named
    RATE_COLUMNS at the points `values` of `axis`, at frequency rates.omega
    off the omega axis."""
    sys0 = _sphere_system(cfg)
    omega = get_float(cfg, "rates.omega", 0.0) if axis != "omega" else 0.0
    if axis != "omega" and omega <= 0:
        raise ConfigError("rates.omega must be set (> 0) when sweeping theta or delta_r")

    def block(values):
        gaa, gab = _rates_at(sys0, *_sweep_points(sys0, axis, values, omega))
        rates = dict(zip(RATE_COLUMNS, (gaa, gab, gaa + gab, gaa - gab)))
        return list(zip(values, *(rates[c] for c in columns)))

    write_csv(out, _meta(cfg), [axis, *columns], _sweep_map(block, values))


def cmd_rates(cfg: dict, out: str) -> None:
    """Sweep the collective decay rates over theta, omega or delta_r."""
    axis = get_choice(cfg, "sweep.axis", SWEEP_AXES)
    _rate_sweep(cfg, out, axis, _sweep_values(cfg), RATE_COLUMNS)


def _figure(name: str, cfg: dict, out: str) -> None:
    """A figure preset: its rate sweep around the demo sphere."""
    _, axis, (lo, hi), count, columns = _FIGURES[name]
    if get_str(cfg, "sweep.axis", axis) != axis:
        raise ConfigError(f"{name} sweeps {axis}, not sweep.axis = {cfg['sweep.axis']}")
    cfg = {**_DEMO, **cfg}
    _rate_sweep(cfg, out, axis, _sweep_values(cfg, lo, hi, count), columns)


def _coupling_from_cfg(cfg: dict) -> dyn.CouplingParams:
    return dyn.CouplingParams(
        gamma31_aa=get_float(cfg, "dynamics.gamma31_aa"),
        gamma31_ab=get_float(cfg, "dynamics.gamma31_ab"),
        gamma32_aa=get_float(cfg, "dynamics.gamma32_aa", 1.0),
        gamma32_ab=get_float(cfg, "dynamics.gamma32_ab"),
        delta_omega_c=get_float(cfg, "dynamics.delta_omega_c"),
        detuning_delta=get_float(cfg, "dynamics.delta", 0.0),
        dipole_shift=get_float(cfg, "dynamics.dipole_shift", 0.0),
    )


def _drive_from_cfg(cfg: dict, p: dyn.CouplingParams, unit: float = 1.0,
                    gamma_ad: float | None = None) -> dyn.DriveSpec:
    """Drive preparation from the drive.* keys.

    Rates read from the config are divided by unit (sphere-mode entangle
    reads them in Gamma_0 units).  gamma_ad, when given, is the cross rate
    gamma_AD = gamma_BD of an equidistant atom D; sphere mode computes it
    from the sphere instead of reading drive.gamma_ad.
    """
    placement = get_choice(cfg, "drive.placement", DRIVE_PLACEMENTS, "site_of_a")
    if placement == "site_of_a":
        rates = (p.gamma31_aa, p.gamma31_aa, p.gamma31_ab)
    elif placement == "equidistant":
        if gamma_ad is None:
            gamma_ad = get_float(cfg, "drive.gamma_ad") / unit
        gamma_dd = p.gamma31_aa
        if "drive.gamma_dd" in cfg:
            gamma_dd = get_float(cfg, "drive.gamma_dd") / unit
        rates = (gamma_dd, gamma_ad, gamma_ad)
    else:
        rates = tuple(
            get_float(cfg, key) / unit
            for key in ("drive.gamma_dd", "drive.gamma_ad", "drive.gamma_bd")
        )
    return dyn.prepare_drive(rates, p.delta_omega_c)


_DYNAMICS_HEADER = ["t", "c_plus_re", "c_plus_im", "c_minus_re", "c_minus_im"]


def cmd_dynamics(cfg: dict, out: str) -> None:
    """Emit sampled amplitudes C_pm(t) for an explicit dynamics rate set."""
    p = _coupling_from_cfg(cfg)
    d = _drive_from_cfg(cfg, p)
    t_max = get_float(
        cfg, "dynamics.t_max", 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
    )
    method = get_choice(cfg, "dynamics.method", ("closed", "volterra"), "closed")
    if method == "closed":
        traj = dyn.sample_closed(p, d, t_max, get_int(cfg, "dynamics.samples", 2000))
    else:
        step = get_float(cfg, "dynamics.step")
        traj = dyn.amplitude_volterra(p, d, t_max, step)
    rows = (
        (t, cp.real, cp.imag, cm.real, cm.imag)
        for t, cp, cm in zip(traj.times, traj.c_plus, traj.c_minus)
    )
    resolved = {
        "resolved.f_plus0_re": d.f_plus0.real,
        "resolved.f_plus0_im": d.f_plus0.imag,
        "resolved.f_minus0_re": d.f_minus0.real,
        "resolved.f_minus0_im": d.f_minus0.imag,
    }
    write_csv(out, _meta(cfg, resolved), _DYNAMICS_HEADER, rows)


def _steady_row(value: float, p: dyn.CouplingParams, d: dyn.DriveSpec):
    t_end = 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
    state = ss.decayed_steady_state(p, d, t_end)
    conc = ss.concurrence_closed_form(state)
    return (
        value,
        p.gamma31_aa,
        p.gamma31_ab,
        p.gamma32_ab,
        p.delta_omega_c,
        p.detuning_delta,
        p.g_plus,
        p.g_minus,
        d.f_plus0.real,
        d.f_plus0.imag,
        d.f_minus0.real,
        d.f_minus0.imag,
        state.alpha_plus,
        state.alpha_minus,
        state.beta.real,
        state.beta.imag,
        conc,
    )


_ENTANGLE_HEADER = [
    "axis_value",
    "gamma31_aa",
    "gamma31_ab",
    "gamma32_ab",
    "delta_omega_c",
    "delta",
    "g_plus",
    "g_minus",
    "f_plus_re",
    "f_plus_im",
    "f_minus_re",
    "f_minus_im",
    "alpha_plus",
    "alpha_minus",
    "beta_re",
    "beta_im",
    "concurrence",
]


def cmd_entangle(cfg: dict, out: str) -> None:
    """Full pipeline: rates, drive, amplitudes, stationary state, concurrence."""
    mode = get_choice(cfg, "entangle.rates", ("sphere", "explicit"), "sphere")
    if mode == "explicit":
        axis = get_choice(cfg, "sweep.axis", ("delta_omega_c",))
        values = _sweep_values(cfg)
        base = _coupling_from_cfg(cfg)
        _drive_from_cfg(cfg, base)  # surface missing drive keys as config errors

        def block(values):
            rows = []
            for value in values:
                p = replace(base, delta_omega_c=value)
                rows.append(_steady_row(value, p, _drive_from_cfg(cfg, p)))
            return rows

    else:
        sys0 = _sphere_system(cfg)
        axis = get_choice(cfg, "sweep.axis", SWEEP_AXES)
        values = _sweep_values(cfg)
        # fail on missing keys before any sweep work starts
        anchor_a = get_float(cfg, "anchor.gamma32_aa_over_gamma0")
        anchor_b = get_float(cfg, "anchor.gamma0_over_omega_t")
        if anchor_a <= 0 or anchor_b <= 0:
            raise ConfigError("anchors must be > 0")
        omega32 = get_float(cfg, "weak.omega32") if "weak.omega32" in cfg else None
        if omega32 is None:
            ratio32 = get_float(cfg, "weak.gamma32_ratio")
        equidistant = (
            get_choice(cfg, "drive.placement", DRIVE_PLACEMENTS, "site_of_a") == "equidistant"
        )
        dipole_shift = get_float(cfg, "dynamics.dipole_shift", 0.0)
        resonances = ms.find_resonances(sys0, *_resonance_window(cfg))
        if not resonances:
            raise SweepPointError("no resonance found in the configured window")
        strong_raw = get_str(cfg, "strong.omega31", "auto")
        if strong_raw == "auto":
            resonance = min(resonances, key=lambda r: r.delta_omega_c)
            omega31_base = resonance.omega_c
        else:
            try:
                omega31_base = float(strong_raw)
            except ValueError as exc:
                raise ConfigError(
                    f"strong.omega31 must be a number or 'auto', got {strong_raw!r}"
                ) from exc
            resonance = min(resonances, key=lambda r: abs(r.omega_c - omega31_base))
        rate_unit = anchor_a * anchor_b

        def block(values):
            # in Gamma_0 units: Gamma31 at omega31, the Gamma32 ratio at
            # omega32, and the equidistant drive's cross rate at theta / 2
            r, omega31, theta = _sweep_points(sys0, axis, values, omega31_base)
            s31aa, s31ab = _rates_at(sys0, r, omega31, theta)
            if omega32 is not None:
                s32aa, s32ab = _rates_at(sys0, r, omega32, theta)
                ratios = (s32ab / s32aa).tolist()
            else:
                ratios = [ratio32] * len(values)
            if equidistant:
                s_half = _rates_at(sys0, r, omega31, [t / 2.0 for t in theta])[1].tolist()
            rows = []
            for k, value in enumerate(values):
                p = dyn.CouplingParams(
                    gamma31_aa=float(s31aa[k]) / anchor_a,
                    gamma31_ab=float(s31ab[k]) / anchor_a,
                    gamma32_aa=1.0,
                    gamma32_ab=ratios[k],
                    delta_omega_c=resonance.delta_omega_c / rate_unit,
                    detuning_delta=(resonance.omega_c - omega31[k]) / rate_unit,
                    dipole_shift=dipole_shift,
                )
                gamma_ad = s_half[k] / anchor_a if equidistant else None
                rows.append(_steady_row(value, p, _drive_from_cfg(cfg, p, anchor_a, gamma_ad)))
            return rows

    rows = _sweep_map(block, values)
    write_csv(out, _meta(cfg, {"sweep.resolved_axis": axis}), _ENTANGLE_HEADER, rows)


_COMMANDS = {
    "resonances": (cmd_resonances, _RESONANCE_HEADER),
    "rates": (cmd_rates, ("<axis>", *RATE_COLUMNS)),
    "dynamics": (cmd_dynamics, _DYNAMICS_HEADER),
    "entangle": (cmd_entangle, _ENTANGLE_HEADER),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereqed",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: (fn.__doc__.splitlines()[0], header)
                for name, (fn, header) in _COMMANDS.items()}
    for name, (doc, axis, _, _, columns) in _FIGURES.items():
        commands[name] = (doc, (axis, *columns))
    for name, (doc, header) in commands.items():
        sp = sub.add_parser(
            name,
            help=doc,
            description=f"{doc}\n\nCSV columns: {', '.join(header)}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sp.add_argument(
            "--config",
            required=name not in _FIGURES,
            default=None,
            help="scenario config file (section.key = value lines)",
        )
        sp.add_argument("--out", default=None, help="output CSV path")
        sp.add_argument(
            "--threads", type=int, default=1,
            help="has no effect: sweeps run serially",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        out = args.out or cfg.get("output.path") or f"{args.command}.csv"
        if args.command in _FIGURES:
            _figure(args.command, cfg, out)
        else:
            _COMMANDS[args.command][0](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SweepPointError, *NUMERICAL_ERRORS) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
