#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload rate_sweep --seeds 1-10 [--trace 0|1]
        [--seconds S] [--out summary.json]

For every metric it prints the median of the runs, the first and third
quartiles (`statistics.quantiles(values, n=4)`) and their distance as a
share of the median, next to the metric's bound from BENCHMARK.json.  The
JSON summary also keeps each run's sample counts and machine record, and
the CPU model from /proc/cpuinfo.  Runs
are sequential; a run that exits nonzero or reports a failed job stops the
script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    notes: dict[int, list[str]] = {}
    for seed in args.seeds:
        command = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        notes[seed] = lines[:-1]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[name], "runs": len(vals)}
        bound = bounds.get(name)
        limit = f"bound {bound}" if bound is not None else ""
        print(f"{name:45s} median {med:12.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} {limit}")
    if args.out:
        record = {"workload": args.workload, "trace": args.trace, "seconds": seconds,
                  "seeds": args.seeds, "cpu": cpu_model(), "metrics": summary,
                  "run_notes": notes}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
