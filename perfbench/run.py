#!/usr/bin/env python3
"""Benchmark of the sphereqed CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {rate_sweep,resonance_scan,amplitude}
        [--seed N] [--seconds S] [--trace 0|1] [--record-reference]

For the given seed the benchmark generates the workload's config files and
runs `sphereqed.cli.main` in-process with `--threads 1` on each of them, in
passes over a job list (a closed loop with one client).  Every timed pass
has its own job list, drawn from the seed and the pass index, so that no
pass reuses another's inputs.  An untimed warm-up pass (pass 0) over the
seed-0 jobs warms the interpreter; timed passes 1, 2, ... then repeat for
`--seconds`; an untimed re-run of the warm-up jobs must reproduce their CSV
bytes.  Peak memory is read at that point.  Only then do the correctness
gates (gates.py) judge the CSVs of every pass, check the warm-up rows
against reference rows recorded from the seed-0 jobs, and run their probe
jobs.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: time of a pass, median and 90th
percentile job time, CSV rows per second, fresh-interpreter set-up time and
peak memory.  With `--trace 1` untraced and traced passes alternate; the
traced ones wrap the public functions of every package layer (tracing.py),
and the metrics are calls, self time and work counts per layer plus the
tracing overhead.  Spans of the last traced pass are written to
`.perfbench-work/trace-<workload>.json`.  A job fails on a nonzero exit, a
missing CSV, a failed gate or CSV bytes that differ from the warm-up pass;
failures are counted in `failed`.

Times are in reference seconds.  The benchmark was written on a 2-core
virtual machine whose cores are shared with other tenants: the same code
runs up to 1.8x slower for stretches of 0.1 s to a minute.  So every timed
call sits between two speed probes, runs of a fixed interpreted loop, and
its raw time is multiplied by PROBE_REFERENCE_S over the mean of the two
probe times: the time the call would take on a core where the probe takes
PROBE_REFERENCE_S.  On that machine this cut the spread of pass times
between 20-second windows from 28% to 5%.  Raw times and the median
slowdown are printed on the line before the result.

OpenBLAS is held to one thread, like the CLI's own `--threads 1`: on a
small machine more threads measure the scheduler, not the program.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_LAUNCHES = 7
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import sphereqed.cli; "
    "from sphereqed.config import load_config; load_config(sys.argv[1])"
)
# best-of-three speed-probe time on an uncontended core of the 2-core Xeon VM
# (Python 3.11) the benchmark was written on
PROBE_REFERENCE_S = 0.55e-3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="write the seed-0 rows of the workload as the new reference and exit",
    )
    return parser.parse_args(argv)


def _speed_probe_loop() -> None:
    z = 7.0 + 0.3j
    j, jp = 1e-30 + 0j, 0j
    for n in range(3000, 0, -1):
        j, jp = (2 * n + 1) / z * j - jp, j
        if abs(j) > 1e200:
            j, jp = j * 1e-200, jp * 1e-200


def speed_probe() -> float:
    """Best of three timings of the speed-probe loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _speed_probe_loop()
        best = min(best, time.perf_counter() - start)
    return best


def timed(fn, *args, **kwargs):
    """(fn(...), raw seconds, slowdown): reference seconds are raw seconds
    divided by the slowdown the speed probes around the call saw."""
    before = speed_probe()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    slowdown = (before + speed_probe()) / (2.0 * PROBE_REFERENCE_S)
    return result, elapsed, slowdown


@dataclass
class Pass:
    """One pass over a job list, whose CSVs go to `outdir`: raw time and
    slowdown per job, and for a traced pass its spans and counts."""

    jobs: list
    outdir: Path
    traced: bool = False
    raw_s: dict[str, float] = field(default_factory=dict)
    slowdown: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def job_s(self) -> list[float]:
        """Job times in reference seconds."""
        return [t / self.slowdown[name] for name, t in self.raw_s.items()]

    def outputs(self) -> dict[str, str]:
        """CSV text per job; jobs that wrote none are left out."""
        return {
            job.name: path.read_text(encoding="utf-8")
            for job in self.jobs
            if (path := self.outdir / f"{job.name}.csv").is_file()
        }


class Runner:
    """Runs jobs through the CLI in-process.  A failure is keyed by the
    name of the pass directory and the job."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed: set[str] = set()

    def run(self, job, outdir: Path) -> tuple[float, float]:
        """(raw seconds, slowdown) of one job, which writes
        <outdir>/<job>.csv."""
        config = outdir / f"{job.name}.cfg"
        out = outdir / f"{job.name}.csv"
        config.write_text(job.config)
        out.unlink(missing_ok=True)
        argv = [job.subcommand, "--config", str(config), "--out", str(out), "--threads", "1"]
        if self.tracer is not None:
            self.tracer.job = job.name
        self.attempted += 1
        code, elapsed, slowdown = timed(self.cli.main, argv)
        if code != 0:
            self.fail(f"{outdir.name}/{job.name}", f"exit code {code}")
        elif not out.is_file():
            self.fail(f"{outdir.name}/{job.name}", "exit code 0 but no CSV written")
        return elapsed, slowdown

    def run_all(self, jobs, outdir: Path) -> Pass:
        """An untimed pass over a job list."""
        outdir.mkdir()
        for job in jobs:
            self.run(job, outdir)
        return Pass(jobs, outdir)

    def fail(self, key: str, why: str) -> None:
        print(f"job {key}: {why}", file=sys.stderr)
        self.failed.add(key)


def setup_seconds(config: Path) -> float:
    """Median time, in reference seconds, of a fresh interpreter that
    imports the package and loads one config (in-process imports are cached
    after the first pass)."""
    env = {**os.environ, **BLAS_ENV}
    command = [sys.executable, "-c", SETUP_CODE, str(config)]
    times = []
    for _ in range(SETUP_LAUNCHES):
        _, elapsed, slowdown = timed(subprocess.run, command, cwd=ROOT, env=env, check=True)
        times.append(elapsed / slowdown)
    return statistics.median(times)


def gate_pass(workload: str, record: Pass, runner: Runner) -> int:
    """Runs the workload's gate on the jobs of one pass and returns the
    pass's CSV data rows."""
    import gates

    check = {
        "rate_sweep": gates.check_rates,
        "resonance_scan": gates.check_resonances,
        "amplitude": gates.check_amplitudes,
    }[workload]
    outputs = record.outputs()
    jobs = [job for job in record.jobs if job.name in outputs]
    for name in check(jobs, outputs):
        runner.fail(f"{record.outdir.name}/{name}", "correctness gate")
    return rows_of(outputs)


def gate_run(workload: str, seed: int, warm_up: Pass, rerun: Pass, runner: Runner,
             workdir: Path) -> None:
    """The checks made once per run: the re-run of the warm-up jobs must
    reproduce their CSV bytes, and their rows must match the recorded
    reference rows; the probe jobs must pass."""
    import gates

    first, again = warm_up.outputs(), rerun.outputs()
    for name, text in first.items():
        if again.get(name, text) != text:
            runner.fail(f"{rerun.outdir.name}/{name}", "CSV bytes differ from the warm-up pass")
    for name in gates.check_reference(workload, first):
        runner.fail(f"{warm_up.outdir.name}/{name}", "reference rows")
    if workload == "amplitude":
        return
    if workload == "rate_sweep":
        probe = runner.run_all([gates.free_space_probe(seed)], workdir / "probe")
        check = functools.partial(gates.check_free_space, ROOT)
    else:
        probe = runner.run_all([gates.demo_root_probe()], workdir / "probe")
        check = gates.check_demo_root
    job = probe.jobs[0]
    for name in check(job, probe.outputs().get(job.name, "")):
        runner.fail(f"{probe.outdir.name}/{name}", "probe")


def timed_passes(runner: Runner, jobs_of, workdir: Path, seconds: float,
                 tracer=None) -> list[Pass]:
    """Passes 1, 2, ... each over its own job list `jobs_of(index)`, until
    `seconds` have gone by (at least one of each kind).  With a tracer,
    untraced and traced passes alternate.  Outputs stay on disk for the
    gates, which run after the timed region."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        index = len(passes) + 1
        record = Pass(jobs_of(index), workdir / f"pass-{index}",
                      traced=tracer is not None and index % 2 == 0)
        record.outdir.mkdir()
        if record.traced:
            tracer.install()
        try:
            for job in record.jobs:
                record.raw_s[job.name], record.slowdown[job.name] = runner.run(job, record.outdir)
        finally:
            if record.traced:
                tracer.uninstall()
        if record.traced:
            record.spans, record.counts = tracer.take()
        passes.append(record)
        if (tracer is None or len(passes) >= 2) and time.perf_counter() >= deadline:
            return passes


def rows_of(outputs: dict[str, str]) -> int:
    """CSV data rows: lines that are neither metadata nor the header."""
    return sum(
        sum(1 for line in text.splitlines() if not line.startswith("#")) - 1
        for text in outputs.values()
    )


def end_to_end_metrics(passes: list[Pass], rows: int, setup_s: float,
                       peak_rss_mb: float) -> dict:
    """`rows` is the number of CSV data rows of all the timed passes."""
    job_s = [t for p in passes for t in p.job_s]
    pass_s = [sum(p.job_s) for p in passes]
    deciles = statistics.quantiles(job_s, n=10, method="inclusive")
    raw_pass_s = statistics.median(sum(p.raw_s.values()) for p in passes)
    slowdown = statistics.median(s for p in passes for s in p.slowdown.values())
    print(f"samples: {len(pass_s)} passes, {len(job_s)} jobs, {rows} CSV rows; "
          f"raw wall_s {raw_pass_s:.4f}, median slowdown {slowdown:.3f}")
    return {
        "wall_s": (statistics.median(pass_s), "s"),
        "job_s_p50": (statistics.median(job_s), "s"),
        "job_s_p90": (deciles[8], "s"),
        "rows_per_s": (rows / sum(pass_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

NAMED_SPANS = (
    "special.sph_jn_all",
    "special.sph_h1n_all",
    "special.riccati_deriv_all",
    "special.legendre_all",
    "microsphere.collective_rate",
    "microsphere.find_resonances",
    "dynamics.volterra_branch",
    "dynamics.sample_closed",
    "dynamics.amplitude_closed",
    "dynamics.prepare_drive",
    "steady_state.integrate_alpha_beta",
    "steady_state.steady_state_from_params",
    "steady_state.concurrence_closed_form",
    "cli.write_csv",
    "config.load_config",
)
COUNTS = (
    ("special.orders", "count"),
    ("microsphere.orders_scanned", "count"),
    ("dynamics.volterra_branch.steps", "count"),
    ("cli.write_csv.bytes", "B"),
)


def layer_metrics(passes: list[Pass], workload: str, seed: int) -> dict:
    """Per-pass medians over the traced passes of calls, self time and
    counts, plus the tracing overhead against the untraced passes.  The
    spans of the last traced pass go to .perfbench-work/trace-<workload>.json."""
    import tracing

    per_pass = []
    traced = [p for p in passes if p.traced]
    for p in traced:
        calls, self_s = tracing.summarize(p.spans, p.slowdown)
        values = {}
        for name in NAMED_SPANS:
            values[f"{name}.calls"] = (calls[name], "count")
            values[f"{name}.self_s"] = (self_s[name], "s")
        values["cli.main.self_s"] = (self_s["cli.main"], "s")
        for layer in tracing.LAYERS:
            total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
            values[f"{layer}.self_s"] = (total, "s")
        for name, unit in COUNTS:
            values[name] = (p.counts[name], unit)
        rate_calls = calls["microsphere.collective_rate"]
        values["microsphere.orders_per_rate"] = (
            p.counts["microsphere.rate_orders"] / rate_calls if rate_calls else 0.0, "count")
        scanned = p.counts["microsphere.orders_scanned"]
        values["microsphere.roots_per_order"] = (
            p.counts["microsphere.roots_kept"] / scanned if scanned else 0.0, "count")
        per_pass.append(values)
    metrics = {
        name: (statistics.median(v[name][0] for v in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    traced_s = statistics.median(sum(p.job_s) for p in traced)
    untraced_s = statistics.median(sum(p.job_s) for p in passes if not p.traced)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    trace = {"workload": workload, "seed": seed, "slowdown": traced[-1].slowdown,
             "fields": ["name", "start", "end", "parent", "job"], "spans": traced[-1].spans}
    (WORK / f"trace-{workload}.json").write_text(json.dumps(trace) + "\n")
    print(f"samples: {len(traced)} traced and {len(passes) - len(traced)} untraced passes")
    return metrics


def machine_record(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sphereqed" / "cli.py").is_file():
        print(f"no sphereqed sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    from sphereqed import cli

    import gates
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        jobs_of = functools.partial(workloads.WORKLOADS[args.workload], args.seed)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(cli, tracer)
        # the warm-up jobs are the seed-0 ones the reference rows are recorded from
        warm_up_jobs = workloads.WORKLOADS[args.workload](0, 0)
        if args.record_reference:
            warm_up = runner.run_all(warm_up_jobs, workdir / "pass-0")
            gates.record_reference(args.workload, warm_up.outputs())
            return 1 if runner.failed else 0

        setup_config = workdir / "setup.cfg"
        setup_config.write_text(warm_up_jobs[0].config)
        setup_s = 0.0 if args.trace else setup_seconds(setup_config)
        warm_up = runner.run_all(warm_up_jobs, workdir / "pass-0")
        passes = timed_passes(runner, jobs_of, workdir, args.seconds, tracer)
        rerun = runner.run_all(warm_up_jobs, workdir / "rerun")
        # read before the gates, which only the harness runs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate_pass(args.workload, warm_up, runner)
        rows = sum(gate_pass(args.workload, p, runner) for p in passes)
        gate_run(args.workload, args.seed, warm_up, rerun, runner, workdir)
        if args.trace:
            metrics = layer_metrics(passes, args.workload, args.seed)
        else:
            metrics = end_to_end_metrics(passes, rows, setup_s, peak_rss_mb)
        print("machine: " + json.dumps(machine_record(args.seed)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not runner.failed,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
