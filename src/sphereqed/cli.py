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
import errno
import functools
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import dynamics as dyn
from . import microsphere as ms
from . import steady_state as ss
from .config import REQUIRED, ConfigError, choice, load_config, number, positive, resolve

# Config tables map each key to (parser, default[, key, *values]) for
# config.resolve; each subcommand's table is built from these groups.

# the demo sphere is the default; the keys are in the field order of
# ms.DrudeLorentzParams and then ms.SphereSystem
_SPHERE = {
    "sphere.omega_p": (number, "0.5"),
    "sphere.gamma": (number, "1e-6"),
    "sphere.radius": (number, "10"),
    "sphere.atom_distance": (number, "0.14"),
    "sphere.theta": (number, "pi"),
}
_SWEEP = {
    "sweep.axis": (choice("theta", "omega", "delta_r"), REQUIRED),
    "sweep.lo": (number, REQUIRED),
    "sweep.hi": (number, REQUIRED),
    "sweep.count": (int, REQUIRED),
}
_RESONANCE = {
    "resonance.omega_lo": (number, REQUIRED),
    "resonance.omega_hi": (number, REQUIRED),
    "resonance.l_lo": (int, REQUIRED),
    "resonance.l_hi": (int, REQUIRED),
}
# explicit rates, in Gamma32_AA units and the field order of dyn.CouplingParams
_COUPLING = {
    "dynamics.gamma31_aa": (number, REQUIRED),
    "dynamics.gamma31_ab": (number, REQUIRED),
    "dynamics.gamma32_aa": (number, "1"),
    "dynamics.gamma32_ab": (number, REQUIRED),
    "dynamics.delta_omega_c": (number, REQUIRED),
    "dynamics.delta": (number, "0"),
    "dynamics.dipole_shift": (number, "0"),
}
_DRIVE = {
    "drive.placement": (choice("site_of_a", "equidistant", "explicit"), "site_of_a"),
    # equidistant defaults Gamma31_DD to gamma31_aa
    "drive.gamma_dd": (
        number, lambda v: REQUIRED if v["drive.placement"] == "explicit" else None,
        "drive.placement", "equidistant", "explicit",
    ),
    "drive.gamma_ad": (number, REQUIRED, "drive.placement", "equidistant", "explicit"),
    "drive.gamma_bd": (number, REQUIRED, "drive.placement", "explicit"),
}
_ENTANGLE_RATES = {"entangle.rates": (choice("sphere", "explicit"), "sphere")}

_RESONANCES = {**_SPHERE, **_RESONANCE}
_RATES = {
    **_SPHERE, **_SWEEP,
    "rates.omega": (positive, REQUIRED, "sweep.axis", "theta", "delta_r"),
}
_DYNAMICS = {
    **_COUPLING, **_DRIVE,
    "dynamics.method": (choice("closed", "volterra"), "closed"),
    "dynamics.samples": (int, "2000", "dynamics.method", "closed"),
    "dynamics.step": (number, REQUIRED, "dynamics.method", "volterra"),
    # echoed as repr, which parses back to the same float
    "dynamics.t_max": (positive, lambda v: repr(float(_t_end(_coupling_from_cfg(v))))),
}
_ENTANGLE_EXPLICIT = {
    **_ENTANGLE_RATES, **_COUPLING, **_DRIVE, **_SWEEP,
    "sweep.axis": (choice("delta_omega_c"), REQUIRED),
}
_ENTANGLE_SPHERE = {
    **_ENTANGLE_RATES, **_SPHERE, **_SWEEP, **_RESONANCE, **_DRIVE,
    "strong.omega31": (lambda text: text if text == "auto" else positive(text), "auto"),
    "weak.omega32": (positive, None),
    "weak.gamma32_ratio": (number, None),
    "anchor.gamma32_aa_over_gamma0": (positive, REQUIRED),
    "anchor.gamma0_over_omega_t": (positive, REQUIRED),
    "dynamics.dipole_shift": _COUPLING["dynamics.dipole_shift"],
    # the equidistant drive's cross rate comes from the sphere
    "drive.gamma_ad": (number, REQUIRED, "drive.placement", "explicit"),
}


def _figure_table(axis: str, lo: str, hi: str, count: str) -> dict:
    """The rates table of a figure preset: its axis is the only one
    allowed, and its window, count and the demo frequency are defaults."""
    return {
        **_RATES,
        "sweep.axis": (choice(axis), axis),
        "sweep.lo": (number, lo),
        "sweep.hi": (number, hi),
        "sweep.count": (int, count),
        "rates.omega": (positive, "1.0501", "sweep.axis", "theta", "delta_r"),
    }


RATE_COLUMNS = ("gamma_aa", "gamma_ab", "gamma_plus", "gamma_minus")
_PM = ("gamma_plus", "gamma_minus")

# figure presets: help line, config table and rate columns
_FIGURES = {
    "figure2": ("Cross rate Gamma_AB vs dipole angle theta at the demo resonance.",
                _figure_table("theta", "0", "pi", "181"), ("gamma_ab",)),
    # the window stops at 1.0535: closer to the surface-mode accumulation
    # frequency sqrt(1 + omega_p^2/2) the multipole sum needs orders beyond
    # the l = 300 cap and the sweep would fail honestly
    "figure3": ("Gamma_pm vs transition frequency across the band-gap (SG) window.",
                _figure_table("omega", "1.04", "1.0535", "801"), _PM),
    # the window stops at 0.995; at the transverse resonance omega = 1 the
    # permittivity magnitude blows up like omega_p^2/gamma
    "figure4": ("Gamma_pm vs transition frequency below the gap (WG window).",
                _figure_table("omega", "0.90", "0.995", "801"), _PM),
    "figure5": ("Gamma_pm vs atom-surface distance delta_r at the demo resonance.",
                _figure_table("delta_r", "0.05", "3.0", "150"), _PM),
}


class SweepPointError(RuntimeError):
    """Physics failure at a specific sweep point."""


# failures of the physics and numerics (UndecayedTrajectoryError is a
# ValueError); anything else is a bug and keeps its traceback
NUMERICAL_ERRORS = (ms.NonConvergenceError, ArithmeticError, ValueError)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


# 10^0 .. 10^110 rounded to nearest: exact up to 10^22
_POW10 = np.array([float(10**k) for k in range(111)])
# the fewest values of a float chunk that _write_floats writes faster than
# one '%.12g' per value (CHANGES.md has the timings)
_ENCODE_MIN_VALUES = 1000


@functools.cache
def _float_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of _write_floats, built on its first call:
    - the words of quads 0000..9999 and then of .000 .. .999, the first
      fraction quad (below 1000) with its leading 0 as the point;
    - the trailing zeros of each quad, 4 for 0000;
    - the exponents e-99 .. e+32, four bytes each;
    - the run of bytes from first to last in row first * 32 + last."""
    quads = np.arange(10_000, dtype=np.int16)
    text = (np.stack([quads // 1000, quads // 100 % 10, quads // 10 % 10, quads % 10], axis=1)
            + ord("0")).astype(np.uint8)
    point = text[:1000].copy()
    point[:, 0] = ord(".")
    words = np.concatenate([text, point]).view(np.uint32).ravel()
    zeros = np.argmax(text[:, ::-1] != ord("0"), axis=1).astype(np.int8)
    zeros[0] = 4
    exponents = np.frombuffer(b"".join(b"e%+03d" % x for x in range(-99, 33)), dtype=np.uint8)
    byte = np.arange(32)
    runs = ((byte >= byte[:, None, None]) & (byte <= byte[:, None])).reshape(-1, 32)
    return words, zeros, exponents.reshape(-1, 4), runs


def _scaled(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a * 10^(11 - x) for -99 <= x <= 32, with one rounding for x >= -11
    (one of the two powers is 1 and the other exact) and two below."""
    return a * _POW10[np.maximum(11 - x, 0)] / _POW10[np.maximum(x - 11, 0)]


def _twelve_digits(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, x, exact): the twelve significant digits of |v| rounded to
    nearest as a whole float, its decimal exponent, and where both are
    exact; zero has digits 0 and exponent 0.

    For 1e-99 <= |v| < 1e32, y = |v| 10^(11 - x) carries the rounding of
    the product and, for x < -11, of the power: below 10^12 that puts y at
    most 2^-14 (one rounding) or 2.3e-4 (two) from the exact scaled value,
    so rint(y) is the correctly rounded one unless y lies within 3e-4 of a
    half.  Those values, the non-finite ones and the rest of the range are
    not exact.
    """
    a = np.abs(v)
    zero = v == 0
    exact = (a >= 1e-99) & (a < 1e32)
    a[~exact] = 1.0
    # the decimal exponent, corrected once from where y falls
    x = np.clip(np.floor(np.log10(a)), -99, 31).astype(np.intp)
    y = _scaled(a, x)
    off = (y >= 1e12).astype(np.intp) - (y < 1e11)
    moved = np.flatnonzero(off)
    x[moved] += off[moved]
    y[moved] = _scaled(a[moved], x[moved])
    digits = np.rint(y)
    exact &= np.abs(y - digits) < 0.4997
    exact |= zero
    # a rounding up to 10^12 carries into the exponent
    carry = digits == 1e12
    digits[carry] = 1e11
    x += carry
    digits[zero] = 0.0
    return digits, x, exact


def _quads(values: np.ndarray, count: int):
    """The lowest `count` base-10^4 digits of whole non-negative floats,
    the lowest first."""
    values = values.astype(np.int64)
    for _ in range(count):
        high = values // 10_000
        yield values - high * 10_000
        values = high


def _digit_words(words: np.ndarray, digits: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Fill words 1-7 of each row with the twelve digits, their point after
    digit `point` (before the first for point < 0), and return the count
    of significant fraction digits."""
    quad_words, quad_zeros, _, _ = _float_tables()
    whole = np.floor(digits / _POW10[11 - point])
    for j, quad in enumerate(_quads(whole, 3)):
        words[:, 3 - j] = quad_words[quad]
    zeros = np.zeros(len(words), dtype=np.int8)
    fraction = (digits - whole * _POW10[11 - point]) * _POW10[4 + point]
    for j, quad in enumerate(_quads(fraction, 4)):
        zeros += (zeros == 4 * j) * quad_zeros[quad]
        words[:, 7 - j] = quad_words[quad + (10_000 if j == 3 else 0)]
    return np.maximum(15 - zeros, 0)


def _write_floats(fh, block: np.ndarray, work: np.ndarray) -> None:
    """Write the CSV lines of the rows of a 2-D float64 block to the binary
    file fh, each value as '%.12g' prints it.  work is a (2, m, 32) uint8
    array with m >= block.size, which the call overwrites.

    A value prints from a row of 32 bytes, eight 4-byte words of digit
    quads: its integer digits end at byte 15, its point is byte 16 and
    fifteen fraction digits follow.  The separator before the value and
    its sign go in front of the integer digits and the exponent after the
    last significant digit, so that the value is one run of bytes.  The
    values whose digits _twelve_digits does not give exactly take '%.12g'
    one at a time, which rounds correctly (Gay 1990).
    """
    _, _, exponents, runs = _float_tables()
    v = block.ravel()
    n = v.size
    digits, x, exact = _twelve_digits(v)
    # %g's notation: fixed for -4 <= x < 12, with the point after digit x
    fixed = (x >= -4) & (x < 12)
    point = np.where(fixed, x, 0)
    chars, keep = work[0, :n], work[1, :n].view(bool)
    figures = _digit_words(chars.view(np.uint32), digits, point)
    # each value's run of bytes, from its sign or first digit to its last
    # significant digit or its exponent
    flat = chars.ravel()
    row = np.arange(0, flat.size, 32)
    negative = np.signbit(v)
    first = 15 - np.maximum(point, 0)
    # the sign, or a leading 0 that is not printed
    flat[row + first - 1] = np.where(negative, ord("-"), ord("0"))
    first -= negative
    last = 15 + (figures > 0) + figures
    exponent = np.flatnonzero(~fixed & exact)
    flat[(row + last)[exponent, None] + np.arange(1, 5)] = exponents[x[exponent] + 99]
    last[exponent] += 4

    slow = np.flatnonzero(~exact)
    if slow.size:
        text = ["%.12g" % value for value in v[slow].tolist()]
        chars[slow, 8:] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        first[slow] = 8
        last[slow] = [7 + len(t) for t in text]
    # the separator before each value: a newline before a row's first
    first -= 1
    flat[row + first] = ord(",")
    cols = block.shape[1]
    flat[row[::cols] + first[::cols]] = ord("\n")
    np.take(runs, first * 32 + last, axis=0, out=keep, mode="clip")
    # the first row's newline goes at the end instead
    fh.write(flat[keep.ravel()][1:])
    fh.write(b"\n")


def write_csv(path: str, meta: dict, header: list[str], columns) -> None:
    """Metadata lines, the header and one line per row of the columns:
    arrays or lists, all of one length.

    A float column (Python or numpy floats) prints as %.12g, which gives
    the bytes of _fmt, and any other column as str().  The rows are written
    1024 at a time: a chunk of float columns only and of at least
    _ENCODE_MIN_VALUES values through _write_floats, any other converted
    to Python values.  A path that cannot be opened is a ConfigError.
    """
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0])
    line = ",".join("%.12g" if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
    # _write_floats' work array, sized for the first chunk
    width = min(rows, 1024) * len(columns)
    work = None
    if all(col.dtype.kind == "f" for col in columns) and width >= _ENCODE_MIN_VALUES:
        work = np.empty((2, width, 32), dtype=np.uint8)
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise ConfigError(f"cannot write output {str(path)!r}: {exc}") from exc
    with fh:
        fh.write("".join(f"# {k} = {_fmt(v)}\n" for k, v in meta.items()).encode())
        fh.write((",".join(header) + "\n").encode())
        for k in range(0, rows, 1024):
            chunk = [col[k : k + 1024] for col in columns]
            if work is not None and len(chunk[0]) * len(chunk) >= _ENCODE_MIN_VALUES:
                _write_floats(fh, np.stack(chunk, axis=1, dtype=np.float64), work)
            else:
                fh.write("".join(line % row for row in zip(*(c.tolist() for c in chunk))).encode())


def _sphere_system(v: dict) -> ms.SphereSystem:
    omega_p, gamma, *geometry = (v[key] for key in _SPHERE)
    try:
        return ms.SphereSystem(ms.DrudeLorentzParams(omega_p, gamma), *geometry)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep_values(v: dict, check) -> np.ndarray:
    """The points of sweep.lo, sweep.hi and sweep.count.  check(value)
    raises ValueError for a value outside the axis's domain; the domain is
    an interval, so the window's two ends are checked."""
    lo, hi, count = v["sweep.lo"], v["sweep.hi"], v["sweep.count"]
    if not lo < hi:
        raise ConfigError("sweep.lo must be < sweep.hi")
    if count < 2:
        raise ConfigError("sweep.count must be >= 2")
    for key in ("sweep.lo", "sweep.hi"):
        try:
            check(v[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    return np.linspace(lo, hi, count)


def _sphere_sweep(v: dict, sys0: ms.SphereSystem) -> np.ndarray:
    """The sweep values of a sphere axis: omega > 0, or a theta or delta_r
    that sys0 accepts."""
    axis = v["sweep.axis"]

    def check(value):
        if axis != "omega":
            replace(sys0, **{"theta" if axis == "theta" else "atom_distance": value})
        elif value <= 0:
            raise ValueError("omega must be > 0")

    return _sweep_values(v, check)


def _resonance_window(v: dict) -> tuple[float, float, range]:
    """(omega_lo, omega_hi, orders) of the resonance.* keys."""
    omega_lo, omega_hi = v["resonance.omega_lo"], v["resonance.omega_hi"]
    l_lo, l_hi = v["resonance.l_lo"], v["resonance.l_hi"]
    if not 1 <= l_lo <= l_hi:
        raise ConfigError("need 1 <= resonance.l_lo <= resonance.l_hi")
    if not 0 < omega_lo < omega_hi:
        raise ConfigError("need 0 < resonance.omega_lo < resonance.omega_hi")
    return omega_lo, omega_hi, range(l_lo, l_hi + 1)


def _sweep_points(sys0: ms.SphereSystem, axis: str, values, omega: float):
    """(r, omega, theta) lists for the sweep points `values`, at frequency
    omega off the omega axis."""
    n = len(values)
    if axis == "omega":
        return [sys0.r] * n, list(values), [sys0.theta] * n
    if axis == "theta":
        return [sys0.r] * n, [omega] * n, list(values)
    return [sys0.radius + dr for dr in values], [omega] * n, [sys0.theta] * n


def _at_point(values, k: int, exc: Exception) -> SweepPointError:
    return SweepPointError(f"sweep point {k} (value {_fmt(values[k])}): {exc}")


def _rates_at(sys0: ms.SphereSystem, values, r, omega, theta):
    """(Gamma_AA, Gamma_AB) arrays at the points of the sweep `values`; a
    series that does not settle is reported at its sweep point."""
    cos_theta = [math.cos(t) for t in theta]
    try:
        return ms.collective_rates(sys0.params, sys0.radius, r, omega, cos_theta)
    except ms.NonConvergenceError as exc:
        raise _at_point(values, exc.point, exc) from exc


_RESONANCE_HEADER = ["l", "omega_c", "delta_omega_c", "kind"]


def cmd_resonances(cfg: dict, out: str) -> None:
    v, meta = resolve(cfg, _RESONANCES)
    resonances = ms.find_resonances(_sphere_system(v), *_resonance_window(v))
    columns = [[getattr(r, field) for r in resonances] for field in _RESONANCE_HEADER]
    write_csv(out, meta, _RESONANCE_HEADER, columns)


def _rate_sweep(cfg: dict, out: str, table: dict, columns: tuple[str, ...]) -> None:
    """The rate sweep of `rates` and the figure presets: the named
    RATE_COLUMNS over the sweep of the config table, at frequency
    rates.omega off the omega axis."""
    v, meta = resolve(cfg, table)
    sys0 = _sphere_system(v)
    axis = v["sweep.axis"]
    values = _sphere_sweep(v, sys0)
    gaa, gab = _rates_at(sys0, values, *_sweep_points(sys0, axis, values, v["rates.omega"]))
    rates = dict(zip(RATE_COLUMNS, (gaa, gab, gaa + gab, gaa - gab)))
    write_csv(out, meta, [axis, *columns], [values, *(rates[c] for c in columns)])


def _coupling_from_cfg(v: dict) -> dyn.CouplingParams:
    try:
        return dyn.CouplingParams(*(v[key] for key in _COUPLING))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _t_end(p: dyn.CouplingParams):
    """A time by which the amplitudes have decayed, at each point of p: 40
    times the slowest decay time of the resonance and the weak channel."""
    return 40.0 / np.minimum(p.delta_omega_c, 0.5 * p.gamma32_aa)


def _drive_from_cfg(v: dict, p: dyn.CouplingParams) -> dyn.DriveSpec:
    """Drive preparation from the drive.* values, at each point of p: every
    rate is in the unit of p, Gamma32_AA = 1, a number or one per point."""
    placement = v["drive.placement"]
    if placement == "site_of_a":
        rates = (p.gamma31_aa, p.gamma31_aa, p.gamma31_ab)
    elif placement == "equidistant":
        gamma_dd = p.gamma31_aa if v["drive.gamma_dd"] is None else v["drive.gamma_dd"]
        rates = (gamma_dd, v["drive.gamma_ad"], v["drive.gamma_ad"])
    else:
        rates = tuple(v[key] for key in ("drive.gamma_dd", "drive.gamma_ad", "drive.gamma_bd"))
    # Gamma31_DD, the one rate prepare_drive checks, is drive.gamma_dd
    # unless it is the positive gamma31_aa
    try:
        return dyn.prepare_drive(rates, p.delta_omega_c)
    except ValueError as exc:
        raise ConfigError(f"key 'drive.gamma_dd': {exc}") from exc


_DYNAMICS_HEADER = ["t", "c_plus_re", "c_plus_im", "c_minus_re", "c_minus_im"]


def cmd_dynamics(cfg: dict, out: str) -> None:
    v, meta = resolve(cfg, _DYNAMICS)
    p = _coupling_from_cfg(v)
    d = _drive_from_cfg(v, p)
    t_max = v["dynamics.t_max"]
    if v["dynamics.method"] == "closed":
        if v["dynamics.samples"] < 2:
            raise ConfigError("dynamics.samples must be >= 2")
        t = np.linspace(0.0, t_max, v["dynamics.samples"])
        c_plus, c_minus = (dyn.amplitude_closed(p, d, b, t) for b in dyn.BRANCHES)
    else:
        step = v["dynamics.step"]
        # with t_max checked, the integrator's one ValueError is its step bound
        try:
            t, c_plus, c_minus = dyn.volterra_amplitudes(p, d, t_max, step)
        except ValueError as exc:
            raise ConfigError(f"key 'dynamics.step': {exc}") from exc
    resolved = {
        "resolved.f_plus0_re": d.f_plus0.real,
        "resolved.f_plus0_im": d.f_plus0.imag,
        "resolved.f_minus0_re": d.f_minus0.real,
        "resolved.f_minus0_im": d.f_minus0.imag,
    }
    columns = [t, c_plus.real, c_plus.imag, c_minus.real, c_minus.imag]
    write_csv(out, {**meta, **resolved}, _DYNAMICS_HEADER, columns)


def _entangle_columns(v: dict, p: dyn.CouplingParams) -> tuple:
    """The CSV columns after axis_value at the points of p: the drive of the
    drive.* values (_drive_from_cfg), the stationary state and its
    concurrence of every point from one call of each step."""
    d = _drive_from_cfg(v, p)
    state = ss.decayed_steady_state(p, d, _t_end(p))
    return (
        p.gamma31_aa,
        p.gamma31_ab,
        p.gamma32_ab,
        p.delta_omega_c,
        p.detuning_delta,
        p.g("+"),
        p.g("-"),
        d.f_plus0.real,
        d.f_plus0.imag,
        d.f_minus0.real,
        d.f_minus0.imag,
        state.alpha_plus,
        state.alpha_minus,
        state.beta.real,
        state.beta.imag,
        ss.concurrence_closed_form(state),
    )


def _sweep_rows(values, columns):
    """The write_csv columns (values, *columns) of the sweep, one array each;
    columns(n) gives the columns of the first n sweep points from one call.

    A failing check is reported at the lowest sweep point that fails any
    check, as a loop over the points in order would report it: each check
    runs over every point before the next one starts, so a failure at
    point k is followed by a call on the points before k.  The ConfigError
    of prepare_drive's Gamma31_DD check passes through at once: that rate is
    a config value, the same at every point, or gamma31_aa, which
    CouplingParams checks first, so it fails first at point 0.
    """
    n, failure = len(values), None
    while n:
        try:
            cols = columns(n)
        except dyn.PointError as exc:
            n, failure = exc.point, exc
            continue
        if failure is None:
            return np.broadcast_arrays(values, *cols)
        break
    raise _at_point(values, failure.point, failure) from failure


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
    explicit = cfg.get("entangle.rates") == "explicit"
    v, meta = resolve(cfg, _ENTANGLE_EXPLICIT if explicit else _ENTANGLE_SPHERE)
    if explicit:
        base = _coupling_from_cfg(v)
        values = _sweep_values(v, lambda value: replace(base, delta_omega_c=value))

        def columns(n):
            return _entangle_columns(v, replace(base, delta_omega_c=values[:n]))

    else:
        sys0 = _sphere_system(v)
        values = _sphere_sweep(v, sys0)
        anchor_a = v["anchor.gamma32_aa_over_gamma0"]
        omega32, ratio32 = v["weak.omega32"], v["weak.gamma32_ratio"]
        if (omega32 is None) == (ratio32 is None):
            raise ConfigError("give exactly one of weak.omega32 and weak.gamma32_ratio")
        if ratio32 is not None and not -1.0 <= ratio32 <= 1.0:
            raise ConfigError("weak.gamma32_ratio must lie in [-1, 1]")
        resonances = ms.find_resonances(sys0, *_resonance_window(v))
        if not resonances:
            raise ConfigError("no resonance found in the window of resonance.omega_lo, "
                              "resonance.omega_hi, resonance.l_lo and resonance.l_hi")
        omega31_base = v["strong.omega31"]
        if omega31_base == "auto":
            resonance = min(resonances, key=lambda r: r.delta_omega_c)
            omega31_base = resonance.omega_c
        else:
            resonance = min(resonances, key=lambda r: abs(r.omega_c - omega31_base))
        rate_unit = anchor_a * v["anchor.gamma0_over_omega_t"]
        # in Gamma_0 units: Gamma31 at omega_c, the heights of the
        # resonance's Lorentzian (the kernel's detuning omega_c - omega31
        # gives its shape), and the Gamma32 ratio at omega32
        r, omega31, theta = _sweep_points(sys0, v["sweep.axis"], values, omega31_base)
        omega_c = [resonance.omega_c] * len(values)
        s31aa, s31ab = _rates_at(sys0, values, r, omega_c, theta)
        if omega32 is not None:
            s32aa, s32ab = _rates_at(sys0, values, r, omega32, theta)
            ratios = s32ab / s32aa
        else:
            ratios = np.full(len(values), ratio32)
        # the drive rates in the unit of p, Gamma32_AA = 1: the given ones, and
        # an equidistant atom D's cross rate at theta / 2 at omega_c, per point
        for key in ("drive.gamma_dd", "drive.gamma_ad", "drive.gamma_bd"):
            v[key] = None if v[key] is None else v[key] / anchor_a
        equidistant = v["drive.placement"] == "equidistant"
        if equidistant:
            s_half = _rates_at(sys0, values, r, omega_c, [t / 2.0 for t in theta])[1]
            v["drive.gamma_ad"] = s_half / anchor_a
        detuning = (resonance.omega_c - np.asarray(omega31)) / rate_unit

        def columns(n):
            p = dyn.CouplingParams(
                gamma31_aa=s31aa[:n] / anchor_a,
                gamma31_ab=s31ab[:n] / anchor_a,
                gamma32_aa=1.0,
                gamma32_ab=ratios[:n],
                delta_omega_c=resonance.delta_omega_c / rate_unit,
                detuning_delta=detuning[:n],
                dipole_shift=v["dynamics.dipole_shift"],
            )
            cut = {"drive.gamma_ad": v["drive.gamma_ad"][:n]} if equidistant else {}
            return _entangle_columns({**v, **cut}, p)

    write_csv(out, meta, _ENTANGLE_HEADER, _sweep_rows(values, columns))


# subcommand: help line, run(cfg, out) and the CSV columns --help lists
_COMMANDS = {
    "resonances": ("Locate field resonances in a frequency window for a range of orders.",
                   cmd_resonances, _RESONANCE_HEADER),
    "rates": ("Sweep the collective decay rates over theta, omega or delta_r.",
              functools.partial(_rate_sweep, table=_RATES, columns=RATE_COLUMNS),
              ("<axis>", *RATE_COLUMNS)),
    "dynamics": ("Emit sampled amplitudes C_pm(t) for an explicit dynamics rate set.",
                 cmd_dynamics, _DYNAMICS_HEADER),
    "entangle": ("Full pipeline: rates, drive, amplitudes, stationary state, concurrence.",
                 cmd_entangle, _ENTANGLE_HEADER),
    **{name: (doc, functools.partial(_rate_sweep, table=table, columns=columns),
              (table["sweep.axis"][1], *columns))
       for name, (doc, table, columns) in _FIGURES.items()},
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process:
    parsing leaves it unchanged, and main reuses it on every call."""
    parser = argparse.ArgumentParser(
        prog="sphereqed",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (doc, _, header) in _COMMANDS.items():
        sp = sub.add_parser(
            name,
            help=doc,
            description=f"{doc}\n\nCSV columns: {', '.join(header)}",
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sp.add_argument(
            "--config",
            required=name not in _FIGURES,
            help="scenario config file (section.key = value lines)",
        )
        sp.add_argument("--out", default=None, help="output CSV path")
        sp.add_argument(
            "--threads", type=int, default=1,
            help="has no effect: sweeps run serially",
        )
    return parser


def _check_out(path: str) -> None:
    """write_csv's ConfigError, with open's reason, raised before the run
    for an output path that open cannot create: one in a missing
    directory, or a directory."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    reason = OSError(code, os.strerror(code), path)
    raise ConfigError(f"cannot write output {str(path)!r}: {reason}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = args.out or f"{args.command}.csv"
    try:
        cfg = load_config(args.config) if args.config else {}
        _check_out(out)
        _COMMANDS[args.command][1](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SweepPointError, *NUMERICAL_ERRORS) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
