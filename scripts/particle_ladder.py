#!/usr/bin/env python3
"""Mean-field convergence ladder for the interacting particle system.

Simulates the particle system at increasing ensemble sizes with a shared
discretization, smooths the final empirical measure with the kernel
density estimator, and compares it in L1 against the deterministic solve
on the same grid.  The gap should shrink roughly like N^(-1/2),
Monte Carlo noise permitting.

Example:
    python scripts/particle_ladder.py --ladder 500,1000,2000,4000
"""

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ksmv.grid import Grid1D, TimeMesh, DensityField
from ksmv.kernel import KernelSpec
from ksmv.field import InitialChemical
from ksmv.mild import march
from ksmv.particle import simulate_particles, kde_density
from ksmv.cli import write_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chi", type=float, default=1.0)
    ap.add_argument("--lam", type=float, default=0.5)
    ap.add_argument("--chem-amp", type=float, default=0.3)
    ap.add_argument("--var", type=float, default=0.5, help="initial density variance")
    ap.add_argument("--box", type=float, default=3.0 * math.pi, help="grid half width")
    ap.add_argument("--n-grid", type=int, default=256)
    ap.add_argument("--t-final", type=float, default=1.0)
    ap.add_argument("--steps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--ladder", type=str, default="500,1000,2000,4000",
                    help="comma-separated ensemble sizes")
    ap.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    grid = Grid1D(args.box, args.n_grid)
    mesh = TimeMesh(args.t_final, args.steps)
    spec = KernelSpec(chi=args.chi, lam=args.lam)
    chem = InitialChemical.sine(grid, amp=args.chem_amp, freq=1.0)
    p0 = DensityField(grid, np.exp(-grid.x ** 2 / (2.0 * args.var))).normalized()
    reference = march(p0, spec, chem, grid, mesh)
    ref_final = reference.densities[-1]

    sizes = [int(s) for s in args.ladder.split(",")]
    gaps, walls = [], []
    print(f"{'N':>8} {'l1_gap':>10} {'seconds':>8}")
    for N in sizes:
        t0 = time.perf_counter()
        ens = simulate_particles(N, p0, spec, chem, mesh, seed=args.seed)
        kde = kde_density(ens, mesh.steps)
        wall = time.perf_counter() - t0
        gap = float(np.sum(np.abs(kde.values - ref_final)) * grid.h)
        gaps.append(gap)
        walls.append(wall)
        print(f"{N:>8} {gap:10.4f} {wall:8.2f}")

    if len(sizes) > 1:
        # fitted slope of log gap vs log N; -0.5 is the mean-field rate
        slope = np.polyfit(np.log(sizes), np.log(gaps), 1)[0]
        print(f"fitted rate: N^({slope:+.2f})")

    if args.out is not None:
        write_csv(args.out, ("n_particles", "l1_gap", "seconds"),
                  (np.array(sizes, float), np.array(gaps), np.array(walls)))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
