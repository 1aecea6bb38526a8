"""Seeded job lists for the three benchmark workloads.

A job is one `sphereqed` CLI invocation: a subcommand plus the text of the
config file it reads.  The seed and the pass index only move windows,
orders and coupling sets inside ranges that converge at the commit that
introduced the benchmark; the number of jobs, points and steps per job is
fixed, so the amount of work per pass changes little from pass to pass or
seed to seed.  Every pass of a run gets its own inputs: a user runs each
job once per process, so a cache keyed on exact inputs that an earlier
pass filled must not serve a later one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from sphereqed.dynamics import CouplingParams, ode_coeffs

# Volterra steps per branch: long enough that the O(N^2) history sum, not
# the per-step Python loop, dominates volterra_branch.
VOLTERRA_STEPS = 16000
# step * max(|a1|, sqrt|a2|) of the acceptance criterion-4 runs; gives a
# Volterra/closed-form deviation far below the 1e-6 gate.
VOLTERRA_STEP_SCALE = 2e-3
# sweep length of the `figure5` preset (delta_r from 0.05 to 3.0), which
# scripts/make_figure_data.py runs
FIGURE5_POINTS = 150


@dataclass(frozen=True)
class Job:
    name: str
    subcommand: str
    config: str


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def num(x: float) -> str:
    return repr(float(x))


def _jittered(rng: random.Random, lo: float, hi: float, share: float = 0.03):
    """[lo, hi] with each end moved inward by up to `share` of the width."""
    width = hi - lo
    return lo + rng.uniform(0.0, share) * width, hi - rng.uniform(0.0, share) * width


def rate_sweep(seed: int, pass_index: int = 0) -> list[Job]:
    """Gamma_AA, Gamma_AB and Gamma_pm over the band-gap window, the window
    below the gap and the atom-surface distance, through both the `rates`
    subcommand and the figure presets.

    These sweeps are short (24 to 40 points) so that a pass holds many jobs.
    Two more jobs per pass are `figure5` sweeps over the preset's own window
    and 150 points, the sweep the repo's figure script runs, so that a
    change whose gain depends on sweep length shows on user-length sweeps
    too.  Their window is not jittered, because the points nearest the
    surface cost the most orders and would make their cost vary.  Group
    sizes (4 band-gap, 3 below-gap, 5 distance and 2 long jobs) put the
    median job among the cheap below-gap and distance ones and the 90th
    percentile among the long ones, not on a boundary between groups.  The
    distance sweeps each take their own frequency within 1e-7 of the
    preset's 1.0501 (a fifth of the l = 121 resonance width): sweeps at one
    frequency share their Mie coefficients, and jobs must not share inputs."""
    rng = random.Random(f"rate_sweep/{seed}/{pass_index}")
    ranges = (
        ("bandgap", "figure3", "omega", 1.04, 1.0535, 24, 4),
        ("belowgap", "figure4", "omega", 0.90, 0.995, 24, 3),
        ("distance", "figure5", "delta_r", 0.05, 3.0, 40, 5),
    )
    jobs = []
    for label, preset, axis, lo, hi, count, n_jobs in ranges:
        for k in range(n_jobs):
            a, b = _jittered(rng, lo, hi)
            values = {"sweep.lo": num(a), "sweep.hi": num(b), "sweep.count": count}
            if axis != "omega":
                values["rates.omega"] = num(_preset_omega(rng))
            if k % 2:
                jobs.append(Job(f"{label}-{k}", preset, config_text(values)))
                continue
            values = {"sweep.axis": axis, **values}
            jobs.append(Job(f"{label}-{k}", "rates", config_text(values)))
    for k in range(2):
        values = {"sweep.lo": 0.05, "sweep.hi": 3.0, "sweep.count": FIGURE5_POINTS,
                  "rates.omega": num(_preset_omega(rng))}
        jobs.append(Job(f"distance-long-{k}", "figure5", config_text(values)))
    return jobs


def _preset_omega(rng: random.Random) -> float:
    return 1.0501 + rng.uniform(-1e-7, 1e-7)


def resonance_scan(seed: int, pass_index: int = 0) -> list[Job]:
    """Resonance searches in the band gap (ten jobs of four orders, l in
    110..128, one root per order) and below it (three jobs of two orders, l
    in 63..77, about 24 roots per order).  Orders are drawn one per stratum
    so every pass covers the whole order range; below l = 63 the root count
    per order drops steeply, which would make the cost depend on the seed.
    Two orders per below-gap job even out the cost of single orders.  The
    cheap band-gap jobs are ten of the thirteen, so the median job is a
    band-gap one and the 90th percentile a below-gap one."""
    rng = random.Random(f"resonance_scan/{seed}/{pass_index}")
    jobs = []
    for k in range(10):
        lo, hi = _jittered(rng, 1.04, 1.06)
        l0 = 110 + (3 * k) // 2 + rng.randrange(3)
        values = {
            "resonance.omega_lo": num(lo),
            "resonance.omega_hi": num(hi),
            "resonance.l_lo": l0,
            "resonance.l_hi": l0 + 3,
        }
        jobs.append(Job(f"bandgap-{k}", "resonances", config_text(values)))
    for k in range(3):
        lo, hi = _jittered(rng, 0.90, 0.995)
        l = 63 + 5 * k + rng.randrange(4)
        values = {
            "resonance.omega_lo": num(lo),
            "resonance.omega_hi": num(hi),
            "resonance.l_lo": l,
            "resonance.l_hi": l + 1,
        }
        jobs.append(Job(f"belowgap-{k}", "resonances", config_text(values)))
    return jobs


def coupling_set(rng: random.Random) -> dict:
    """A rate set from the acceptance criterion-4 distributions."""
    g31aa = rng.uniform(0.5, 6.0)
    return {
        "gamma31_aa": g31aa,
        "gamma31_ab": rng.uniform(-1.0, 1.0) * g31aa,
        "gamma32_aa": 1.0,
        "gamma32_ab": rng.uniform(-1.0, 1.0),
        "delta_omega_c": rng.uniform(0.2, 0.8),
        "detuning_delta": rng.uniform(-1.5, 1.5),
        "dipole_shift": rng.uniform(-0.3, 0.3),
    }


def _coupling_config(c: dict) -> dict:
    """Config keys of a coupling set; the CLI names detuning_delta `delta`."""
    return {
        "dynamics." + ("delta" if key == "detuning_delta" else key): num(v)
        for key, v in c.items()
    }


def amplitude(seed: int, pass_index: int = 0) -> list[Job]:
    """Two Volterra `dynamics` jobs with a fixed step count and ten explicit
    `entangle` sweeps over delta_omega_c."""
    rng = random.Random(f"amplitude/{seed}/{pass_index}")
    jobs = []
    for k in range(2):
        c = coupling_set(rng)
        p = CouplingParams(**c)
        scale = max(
            max(abs(a1), math.sqrt(abs(a2)))
            for a1, a2 in (ode_coeffs(p, branch) for branch in "+-")
        )
        step = VOLTERRA_STEP_SCALE / scale
        values = _coupling_config(c)
        values.update(
            {
                "dynamics.method": "volterra",
                "dynamics.step": num(step),
                "dynamics.t_max": num(VOLTERRA_STEPS * step),
            }
        )
        jobs.append(Job(f"volterra-{k}", "dynamics", config_text(values)))
    for k in range(10):
        c = coupling_set(rng)
        values = {"entangle.rates": "explicit"}
        values.update(_coupling_config(c))
        lo, hi = _jittered(rng, 0.2, 0.8)
        values.update(
            {
                "sweep.axis": "delta_omega_c",
                "sweep.lo": num(lo),
                "sweep.hi": num(hi),
                "sweep.count": 200,
            }
        )
        if k % 2:
            values["drive.placement"] = "equidistant"
            values["drive.gamma_ad"] = num(rng.uniform(0.1, 0.5) * c["gamma31_aa"])
        jobs.append(Job(f"entangle-{k}", "entangle", config_text(values)))
    return jobs


WORKLOADS = {
    "rate_sweep": rate_sweep,
    "resonance_scan": resonance_scan,
    "amplitude": amplitude,
}
