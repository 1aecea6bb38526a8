#!/usr/bin/env python3
"""Regenerate the demo data set: the four microsphere sweeps plus an
end-to-end entanglement sweep, written as CSV under data/.

Usage: python scripts/make_figure_data.py [outdir]
"""

import pathlib
import sys
import time

from sphereqed.cli import main as cli_main

ENTANGLE_DEMO = """\
# end-to-end pipeline demo: antisymmetric Bell state via the l = 121
# surface-guided resonance of the demo sphere, swept across the dipole angle
entangle.rates = sphere
resonance.omega_lo = 1.0499
resonance.omega_hi = 1.0503
resonance.l_lo = 121
resonance.l_hi = 121
strong.omega31 = auto
weak.gamma32_ratio = 0.98
anchor.gamma32_aa_over_gamma0 = 0.5
anchor.gamma0_over_omega_t = 5.6e-5
sweep.axis = theta
sweep.lo = 3.0415926535
sweep.hi = 3.1415926535
sweep.count = 41
"""


def main() -> int:
    args = sys.argv[1:]
    outdir = pathlib.Path(args[0]) if args else pathlib.Path("data")
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = [(f"figure{n}", []) for n in (2, 3, 4, 5)]
    demo_cfg = outdir / "entangle_demo.cfg"
    demo_cfg.write_text(ENTANGLE_DEMO)
    jobs.append(("entangle", ["--config", str(demo_cfg)]))

    for name, extra in jobs:
        out = outdir / f"{name}.csv"
        t0 = time.perf_counter()
        rc = cli_main([name, "--out", str(out), *extra])
        if rc != 0:
            print(f"{name}: FAILED (exit {rc})", file=sys.stderr)
            return rc
        print(f"{name}: wrote {out} ({time.perf_counter() - t0:.3f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
