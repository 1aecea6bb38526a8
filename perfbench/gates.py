"""Correctness gates, run outside the timed region.

Each gate judges CLI output by a path that the optimisations named in the
roadmap do not touch: closed forms (the free-space Green tensor, the
closed-form amplitudes, the Wootters construction), a known resonance, or
rows recorded from the seed-0 jobs at the commit that introduced the
benchmark.  A gate returns the names of the jobs it failed and prints why
to standard error.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from sphereqed import dynamics as dyn
from sphereqed import steady_state as ss
from workloads import Job, config_text, num

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# relative to the largest magnitude in a column: room for a numerical
# reordering to move the last printed digits, far below any physics change
REFERENCE_RTOL = {"rate_sweep": 1e-8, "resonance_scan": 1e-6, "amplitude": 1e-8}
# a long table is recorded at every stride-th row, so that at most about
# this many rows of it are kept
REFERENCE_ROWS = 50
VOLTERRA_TOL = 1e-6  # acceptance criterion 4
CONCURRENCE_TOL = 1e-9
FREE_SPACE_TOL = 1e-6  # acceptance criterion 1
# the l = 121 surface-guided resonance of the demo sphere, to its printed digits
DEMO_ROOT = (121, 1.0501004, 5e-8, 4.89e-7, 0.005e-7)


def read_csv(text: str):
    """(meta, header, rows) of a CLI CSV; rows are lists of strings."""
    lines = text.splitlines()
    meta = {}
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[2:].partition(" = ")
        meta[key] = value
    header = lines[0].split(",")
    return meta, header, [line.split(",") for line in lines[1:]]


def column(header, rows, name, kind=float):
    i = header.index(name)
    return np.array([kind(row[i]) for row in rows])


def parse_job_config(job: Job) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in job.config.splitlines())


def _fail(job: str, why: str) -> str:
    print(f"gate: {job}: {why}", file=sys.stderr)
    return job


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# rate_sweep ---------------------------------------------------------------

def check_rates(jobs: list[Job], outputs: dict[str, str]) -> list[str]:
    """Every row finite, Gamma_AA > 0 and Gamma_pm >= 0 (rates of a passive
    medium), the configured number of rows."""
    failed = []
    for job in jobs:
        _, header, rows = read_csv(outputs[job.name])
        want = int(parse_job_config(job)["sweep.count"])
        data = np.array([[float(v) for v in row] for row in rows])
        if len(rows) != want or not np.all(np.isfinite(data)):
            failed.append(_fail(job.name, f"{len(rows)} rows (want {want}) or non-finite values"))
            continue
        scale = np.max(np.abs(data[:, 1:]))
        if "gamma_aa" in header and np.min(column(header, rows, "gamma_aa")) <= 0:
            failed.append(_fail(job.name, "Gamma_AA <= 0"))
        elif min(np.min(column(header, rows, c)) for c in ("gamma_plus", "gamma_minus")) < -1e-9 * scale:
            failed.append(_fail(job.name, "negative Gamma_pm"))
    return failed


def free_space_probe(seed: int) -> Job:
    """A `rates` theta sweep around a sphere with omega_p = 0, which must
    reproduce the free-space rates."""
    rng = random.Random(f"free_space/{seed}")
    kr = rng.uniform(1.0, 66.0)
    r = kr / (2.0 * math.pi)
    values = {
        "sphere.omega_p": "0",
        "sphere.gamma": "1e-9",
        "sphere.radius": num(r / 2.0),
        "sphere.atom_distance": num(r / 2.0),
        "rates.omega": "1",
        "sweep.axis": "theta",
        "sweep.lo": num(rng.uniform(0.05, 0.5)),
        "sweep.hi": "3.141592653589793",
        "sweep.count": 9,
    }
    return Job("free-space-probe", "rates", config_text(values))


def check_free_space(root: Path, job: Job, text: str) -> list[str]:
    oracles = _load_oracles(root)
    cfg = parse_job_config(job)
    kr = 2.0 * math.pi * (float(cfg["sphere.radius"]) + float(cfg["sphere.atom_distance"]))
    _, header, rows = read_csv(text)
    worst = 0.0
    for theta, gaa, gab in zip(*(column(header, rows, c) for c in ("theta", "gamma_aa", "gamma_ab"))):
        worst = max(worst, abs(gaa - 1.0), abs(gab - oracles.free_space_cross_rate(kr, theta)))
    if not rows or worst > FREE_SPACE_TOL:
        return [_fail(job.name, f"free-space deviation {worst:.3g} > {FREE_SPACE_TOL}")]
    return []


# resonance_scan -----------------------------------------------------------

def check_resonances(jobs: list[Job], outputs: dict[str, str]) -> list[str]:
    """Roots lie in the window and order range, with positive widths."""
    failed = []
    for job in jobs:
        cfg = parse_job_config(job)
        _, header, rows = read_csv(outputs[job.name])
        ls = column(header, rows, "l", int)
        wc = column(header, rows, "omega_c")
        dwc = column(header, rows, "delta_omega_c")
        ok = (
            np.all((ls >= int(cfg["resonance.l_lo"])) & (ls <= int(cfg["resonance.l_hi"])))
            and np.all((wc >= float(cfg["resonance.omega_lo"])) & (wc <= float(cfg["resonance.omega_hi"])))
            and np.all(dwc > 0)
        )
        if not ok:
            failed.append(_fail(job.name, "root outside the window or order range"))
    return failed


def demo_root_probe() -> Job:
    values = {
        "resonance.omega_lo": "1.0499",
        "resonance.omega_hi": "1.0503",
        "resonance.l_lo": 121,
        "resonance.l_hi": 121,
    }
    return Job("demo-root-probe", "resonances", config_text(values))


def check_demo_root(job: Job, text: str) -> list[str]:
    l, wc, wc_tol, dwc, dwc_tol = DEMO_ROOT
    _, header, rows = read_csv(text)
    hits = [
        row for row in rows
        if int(row[header.index("l")]) == l
        and abs(float(row[header.index("omega_c")]) - wc) <= wc_tol
        and abs(float(row[header.index("delta_omega_c")]) - dwc) <= dwc_tol
    ]
    if len(rows) != 1 or not hits:
        return [_fail(job.name, f"want one root l={l}, omega_c={wc}, dwc={dwc}; got {rows}")]
    return []


# amplitude ----------------------------------------------------------------

def _coupling(cfg: dict[str, str]) -> dyn.CouplingParams:
    fields = ("gamma31_aa", "gamma31_ab", "gamma32_aa", "gamma32_ab", "delta_omega_c",
              "dipole_shift")
    return dyn.CouplingParams(
        detuning_delta=float(cfg["dynamics.delta"]),
        **{f: float(cfg[f"dynamics.{f}"]) for f in fields},
    )


def check_amplitudes(jobs: list[Job], outputs: dict[str, str]) -> list[str]:
    """Volterra rows against the closed-form amplitudes; every concurrence
    against the Wootters construction of the same stationary state."""
    failed = []
    for job in jobs:
        meta, header, rows = read_csv(outputs[job.name])
        if job.subcommand == "dynamics":
            p = _coupling(parse_job_config(job))
            d = dyn.DriveSpec(
                f_plus0=complex(float(meta["resolved.f_plus0_re"]), float(meta["resolved.f_plus0_im"])),
                f_minus0=complex(float(meta["resolved.f_minus0_re"]), float(meta["resolved.f_minus0_im"])),
            )
            t = column(header, rows, "t")
            worst = 0.0
            for branch, name in (("+", "c_plus"), ("-", "c_minus")):
                c = column(header, rows, f"{name}_re") + 1j * column(header, rows, f"{name}_im")
                worst = max(worst, float(np.max(np.abs(c - dyn.amplitude_closed(p, d, branch, t)))))
            if worst > VOLTERRA_TOL:
                failed.append(_fail(job.name, f"Volterra vs closed form {worst:.3g} > {VOLTERRA_TOL}"))
            continue
        worst = 0.0
        for row in rows:
            value = dict(zip(header, map(float, row)))
            state = ss.SteadyState(
                value["alpha_plus"], value["alpha_minus"], complex(value["beta_re"], value["beta_im"])
            )
            oracle = ss.concurrence_oracle(ss.assemble_density(state))
            worst = max(worst, abs(value["concurrence"] - oracle))
        if worst > CONCURRENCE_TOL:
            failed.append(_fail(job.name, f"concurrence vs Wootters {worst:.3g} > {CONCURRENCE_TOL}"))
    return failed


# reference rows -----------------------------------------------------------

def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def record_reference(workload: str, outputs: dict[str, str]) -> None:
    tables = {}
    for name, text in outputs.items():
        _, header, rows = read_csv(text)
        stride = max(1, len(rows) // REFERENCE_ROWS)
        tables[name] = {"header": header, "count": len(rows), "stride": stride,
                        "rows": rows[::stride]}
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(json.dumps(tables, indent=0) + "\n")


def check_reference(workload: str, outputs: dict[str, str]) -> list[str]:
    """Seed-0 rows against the recorded ones: same header, row count and
    labels; numbers within REFERENCE_RTOL of each column's largest value.
    Only the recorded rows, every stride-th, are compared."""
    rtol = REFERENCE_RTOL[workload]
    tables = json.loads(reference_path(workload).read_text())
    failed = []
    for name, want in tables.items():
        if name not in outputs:
            failed.append(_fail(name, "no output to compare with the reference"))
            continue
        _, header, rows = read_csv(outputs[name])
        if header != want["header"] or len(rows) != want["count"]:
            failed.append(_fail(name, "header or row count differs from the reference"))
            continue
        rows = rows[::want["stride"]]
        if not rows:
            continue
        for i, col in enumerate(header):
            got = [row[i] for row in rows]
            ref = [row[i] for row in want["rows"]]
            try:
                got_v, ref_v = np.array(got, dtype=float), np.array(ref, dtype=float)
            except ValueError:
                if got != ref:
                    failed.append(_fail(name, f"column {col} differs from the reference"))
                    break
                continue
            scale = max(float(np.max(np.abs(ref_v))), 1e-300)
            dev = float(np.max(np.abs(got_v - ref_v))) / scale
            if dev > rtol:
                failed.append(_fail(name, f"column {col} deviates {dev:.3g} > {rtol} from the reference"))
                break
    return failed
