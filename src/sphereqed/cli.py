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
from concurrent.futures import ThreadPoolExecutor

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

_FIG_DEFAULTS = {
    "sphere.omega_p": "0.5",
    "sphere.gamma": "1e-6",
    "sphere.radius": "10",
    "sphere.atom_distance": "0.14",
    "sphere.theta": "pi",
    "rates.omega": "1.0501",
}


class SweepPointError(RuntimeError):
    """Physics failure at a specific sweep point."""


# failures of the physics and numerics (UndecayedTrajectoryError is a
# ValueError); anything else is a bug and keeps its traceback
NUMERICAL_ERRORS = (ms.NonConvergenceError, ms.PoleError, ArithmeticError, ValueError)

DRIVE_PLACEMENTS = ("site_of_a", "equidistant", "explicit")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (np.floating,)):
        return f"{float(value):.12g}"
    return str(value)


def write_csv(path: str, meta: dict, header: list[str], rows) -> None:
    lines = [f"# {k} = {_fmt(v)}" for k, v in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _sweep_map(fn, values, threads: int) -> list:
    """fn over consecutive blocks of ms.BLOCK sweep values, each call
    returning one item per value; the items in sweep order.

    Threads take whole blocks, and the blocks are the same for any thread
    count, so the output is too.  A numerical failure is reported at its
    sweep point, found by redoing the failed block one point at a time.
    """

    def block_items(start):
        block = values[start : start + ms.BLOCK]
        try:
            return fn(block)
        except NUMERICAL_ERRORS:
            for offset, value in enumerate(block):
                try:
                    fn(block[offset : offset + 1])
                except NUMERICAL_ERRORS as exc:
                    raise SweepPointError(
                        f"sweep point {start + offset} (value {value!r}): {exc}"
                    ) from exc
            raise

    starts = range(0, len(values), ms.BLOCK)
    if threads <= 1:
        blocks = [block_items(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(block_items, starts))
    return [item for block in blocks for item in block]


def _sphere_system(cfg: dict) -> ms.SphereSystem:
    params = ms.DrudeLorentzParams(
        omega_p=get_float(cfg, "sphere.omega_p", 0.5),
        gamma=get_float(cfg, "sphere.gamma", 1e-6),
    )
    return ms.SphereSystem(
        params=params,
        radius=get_float(cfg, "sphere.radius", 10.0),
        atom_distance=get_float(cfg, "sphere.atom_distance", 0.14),
        theta=get_float(cfg, "sphere.theta", math.pi),
    )


def _sweep_values(cfg: dict, axes: tuple[str, ...]) -> tuple[str, np.ndarray]:
    axis = get_choice(cfg, "sweep.axis", axes)
    lo = get_float(cfg, "sweep.lo")
    hi = get_float(cfg, "sweep.hi")
    count = get_int(cfg, "sweep.count")
    if not lo < hi:
        raise ConfigError("sweep.lo must be < sweep.hi")
    if count < 2:
        raise ConfigError("sweep.count must be >= 2")
    return axis, np.linspace(lo, hi, count)


def _meta(cfg: dict, extra: dict | None = None) -> dict:
    meta = dict(sorted(cfg.items()))
    if extra:
        meta.update(extra)
    return meta


def _replace_system(sys0: ms.SphereSystem, axis: str, value: float, omega: float):
    """(system, omega) for one sweep point of a rates-style sweep."""
    if axis == "theta":
        sys_v = ms.SphereSystem(sys0.params, sys0.radius, sys0.atom_distance, value)
        return sys_v, omega
    if axis == "delta_r":
        sys_v = ms.SphereSystem(sys0.params, sys0.radius, value, sys0.theta)
        return sys_v, omega
    return sys0, value


def _sweep_points(sys0: ms.SphereSystem, axis: str, values, omega: float):
    """(r, omega, theta) lists for the sweep points `values`; every point's
    system is built, so its geometry is validated."""
    points = [_replace_system(sys0, axis, value, omega) for value in values]
    return (
        [sys_v.r for sys_v, _ in points],
        [om for _, om in points],
        [sys_v.theta for sys_v, _ in points],
    )


def _rates_at(sys0: ms.SphereSystem, r, omega, theta):
    """(Gamma_AA, Gamma_AB) arrays of the block kernel at the given points."""
    cos_theta = [math.cos(t) for t in theta]
    return ms.collective_rates(sys0.params, sys0.radius, r, omega, cos_theta)


def cmd_resonances(cfg: dict, out: str, threads: int) -> None:
    """Locate field resonances in a frequency window for a range of orders."""
    sys0 = _sphere_system(cfg)
    omega_lo = get_float(cfg, "resonance.omega_lo")
    omega_hi = get_float(cfg, "resonance.omega_hi")
    l_lo = get_int(cfg, "resonance.l_lo")
    l_hi = get_int(cfg, "resonance.l_hi")
    if l_lo < 1 or l_hi < l_lo:
        raise ConfigError("need 1 <= resonance.l_lo <= resonance.l_hi")

    def orders(ls):
        return [ms.find_resonances(sys0, omega_lo, omega_hi, [l]) for l in ls]

    chunks = _sweep_map(orders, range(l_lo, l_hi + 1), threads)
    resonances = sorted(
        (r for chunk in chunks for r in chunk), key=lambda r: (r.omega_c, r.l)
    )
    rows = [(r.l, r.omega_c, r.delta_omega_c, r.kind) for r in resonances]
    write_csv(out, _meta(cfg), ["l", "omega_c", "delta_omega_c", "kind"], rows)


def cmd_rates(cfg: dict, out: str, threads: int) -> None:
    """Sweep the collective decay rates over theta, omega or delta_r."""
    sys0 = _sphere_system(cfg)
    axis, values = _sweep_values(cfg, SWEEP_AXES)
    omega = get_float(cfg, "rates.omega", 0.0) if axis != "omega" else 0.0
    if axis != "omega" and omega <= 0:
        raise ConfigError("rates.omega must be set (> 0) when sweeping theta or delta_r")

    def block(values):
        gaa, gab = _rates_at(sys0, *_sweep_points(sys0, axis, values, omega))
        return list(zip(values, gaa, gab, gaa + gab, gaa - gab))

    rows = _sweep_map(block, values, threads)
    write_csv(
        out,
        _meta(cfg),
        [axis, "gamma_aa", "gamma_ab", "gamma_plus", "gamma_minus"],
        rows,
    )


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


def cmd_dynamics(cfg: dict, out: str, threads: int) -> None:
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
    rows = [
        (t, cp.real, cp.imag, cm.real, cm.imag)
        for t, cp, cm in zip(traj.times, traj.c_plus, traj.c_minus)
    ]
    resolved = {
        "resolved.f_plus0_re": d.f_plus0.real,
        "resolved.f_plus0_im": d.f_plus0.imag,
        "resolved.f_minus0_re": d.f_minus0.real,
        "resolved.f_minus0_im": d.f_minus0.imag,
    }
    write_csv(
        out,
        _meta(cfg, resolved),
        ["t", "c_plus_re", "c_plus_im", "c_minus_re", "c_minus_im"],
        rows,
    )


def _steady_row(value: float, p: dyn.CouplingParams, d: dyn.DriveSpec):
    t_end = 40.0 / min(p.delta_omega_c, 0.5 * p.gamma32_aa)
    state = ss.decayed_steady_state(p, d, t_end, (p.gamma32_pm("+"), p.gamma32_pm("-")))
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


def cmd_entangle(cfg: dict, out: str, threads: int) -> None:
    """Full pipeline: rates, drive, amplitudes, stationary state, concurrence."""
    mode = get_choice(cfg, "entangle.rates", ("sphere", "explicit"), "sphere")
    if mode == "explicit":
        axis, values = _sweep_values(cfg, ("delta_omega_c",))
        base = _coupling_from_cfg(cfg)
        _drive_from_cfg(cfg, base)  # surface missing drive keys as config errors

        def block(values):
            rows = []
            for value in values:
                p = dyn.CouplingParams(
                    gamma31_aa=base.gamma31_aa,
                    gamma31_ab=base.gamma31_ab,
                    gamma32_aa=base.gamma32_aa,
                    gamma32_ab=base.gamma32_ab,
                    delta_omega_c=value,
                    detuning_delta=base.detuning_delta,
                    dipole_shift=base.dipole_shift,
                )
                rows.append(_steady_row(value, p, _drive_from_cfg(cfg, p)))
            return rows

    else:
        sys0 = _sphere_system(cfg)
        axis, values = _sweep_values(cfg, SWEEP_AXES)
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
        omega_lo = get_float(cfg, "resonance.omega_lo")
        omega_hi = get_float(cfg, "resonance.omega_hi")
        l_lo = get_int(cfg, "resonance.l_lo")
        l_hi = get_int(cfg, "resonance.l_hi")
        resonances = ms.find_resonances(
            sys0, omega_lo, omega_hi, range(l_lo, l_hi + 1)
        )
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

    rows = _sweep_map(block, values, threads)
    write_csv(out, _meta(cfg, {"sweep.resolved_axis": axis}), _ENTANGLE_HEADER, rows)


def _figure_sweep(cfg: dict, out: str, threads: int, axis: str, lo: float, hi: float,
                  count: int, columns: str) -> None:
    sys0 = _sphere_system(cfg)
    omega = get_float(cfg, "rates.omega", 1.0501)
    lo = get_float(cfg, "sweep.lo", lo)
    hi = get_float(cfg, "sweep.hi", hi)
    count = get_int(cfg, "sweep.count", count)
    values = np.linspace(lo, hi, count)

    def block(values):
        gaa, gab = _rates_at(sys0, *_sweep_points(sys0, axis, values, omega))
        if columns == "gamma_ab":
            return list(zip(values, gab))
        return list(zip(values, gaa + gab, gaa - gab))

    rows = _sweep_map(block, values, threads)
    header = [axis, "gamma_ab"] if columns == "gamma_ab" else [axis, "gamma_plus", "gamma_minus"]
    write_csv(out, _meta(cfg), header, rows)


def cmd_figure2(cfg: dict, out: str, threads: int) -> None:
    """Cross rate Gamma_AB vs dipole angle theta at the demo resonance."""
    _figure_sweep(cfg, out, threads, "theta", 0.0, math.pi, 181, "gamma_ab")


def cmd_figure3(cfg: dict, out: str, threads: int) -> None:
    """Gamma_pm vs transition frequency across the band-gap (SG) window.

    The default window stops at 1.0535: closer to the surface-mode
    accumulation frequency sqrt(1 + omega_p^2/2) the multipole sum needs
    orders beyond the l = 300 cap and the sweep would fail honestly.
    """
    _figure_sweep(cfg, out, threads, "omega", 1.04, 1.0535, 801, "pm")


def cmd_figure4(cfg: dict, out: str, threads: int) -> None:
    """Gamma_pm vs transition frequency below the gap (WG window).

    The default window stops at 0.995; at the transverse resonance
    omega = 1 the permittivity magnitude blows up like omega_p^2/gamma.
    """
    _figure_sweep(cfg, out, threads, "omega", 0.90, 0.995, 801, "pm")


def cmd_figure5(cfg: dict, out: str, threads: int) -> None:
    """Gamma_pm vs atom-surface distance delta_r at the demo resonance."""
    _figure_sweep(cfg, out, threads, "delta_r", 0.05, 3.0, 150, "pm")


_COMMANDS = {
    "resonances": (cmd_resonances, False, "l, omega_c, delta_omega_c, kind"),
    "rates": (cmd_rates, False, "<axis>, gamma_aa, gamma_ab, gamma_plus, gamma_minus"),
    "dynamics": (cmd_dynamics, False, "t, c_plus_re, c_plus_im, c_minus_re, c_minus_im"),
    "entangle": (cmd_entangle, False, ", ".join(_ENTANGLE_HEADER)),
    "figure2": (cmd_figure2, True, "theta, gamma_ab"),
    "figure3": (cmd_figure3, True, "omega, gamma_plus, gamma_minus"),
    "figure4": (cmd_figure4, True, "omega, gamma_plus, gamma_minus"),
    "figure5": (cmd_figure5, True, "delta_r, gamma_plus, gamma_minus"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphereqed",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, preset, columns) in _COMMANDS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        sp = sub.add_parser(
            name,
            help=doc or f"run the {name} pipeline",
            description=f"{doc}\n\nCSV columns: {columns}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sp.add_argument(
            "--config",
            required=not preset,
            default=None,
            help="scenario config file (section.key = value lines)",
        )
        sp.add_argument("--out", default=None, help="output CSV path")
        sp.add_argument("--threads", type=int, default=1, help="sweep worker threads")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn, preset, _ = _COMMANDS[args.command]
    try:
        cfg = load_config(args.config) if args.config else {}
        if preset:
            cfg = {**_FIG_DEFAULTS, **cfg}
        out = args.out or cfg.get("output.path") or f"{args.command}.csv"
        fn(cfg, out, max(1, args.threads))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SweepPointError, *NUMERICAL_ERRORS) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
