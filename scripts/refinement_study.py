#!/usr/bin/env python3
"""Joint space-time refinement study for the coupled solve.

Marches the full model on a ladder of discretizations, doubling the grid
and the time mesh together, and reports per level: the worst
row mass drift, the coupled-system residual, and the L1
distance at the final time to the next finer level (fine rows restricted
to the coarse nodes).  The scheme is first order in dt, so residuals and
inter-level gaps should drop by roughly 2x per level.

Example:
    python scripts/refinement_study.py --levels 4 --out refine.csv
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
from ksmv.field import InitialChemical, ks_residual
from ksmv.mild import march
from ksmv.cli import write_csv


def gaussian_start(grid: Grid1D, var: float) -> DensityField:
    v = np.exp(-grid.x ** 2 / (2.0 * var))
    return DensityField(grid, v).normalized()


def run_level(args, n: int, steps: int):
    grid = Grid1D(args.box, n)
    mesh = TimeMesh(args.t_final, steps)
    spec = KernelSpec(chi=args.chi, lam=args.lam)
    chem = InitialChemical.sine(grid, amp=args.chem_amp, freq=1.0)
    t0 = time.perf_counter()
    hist = march(gaussian_start(grid, args.var), spec, chem, grid, mesh)
    wall = time.perf_counter() - t0
    residual = float(np.max(ks_residual(hist, chem, args.lam)))
    return hist, residual, wall


def restrict_final_l1(coarse, fine) -> float:
    # coarse nodes are every second fine node when n doubles on a fixed box
    stride = fine.grid.n // coarse.grid.n
    diff = np.abs(coarse.densities[-1] - fine.densities[-1][::stride])
    return float(np.sum(diff) * coarse.grid.h)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chi", type=float, default=1.0)
    ap.add_argument("--lam", type=float, default=0.5)
    ap.add_argument("--chem-amp", type=float, default=0.3)
    ap.add_argument("--var", type=float, default=0.5, help="initial density variance")
    ap.add_argument("--box", type=float, default=3.0 * math.pi, help="grid half width")
    ap.add_argument("--t-final", type=float, default=1.0)
    ap.add_argument("--base-n", type=int, default=64)
    ap.add_argument("--base-steps", type=int, default=50)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    rows = []
    histories = []
    for lvl in range(args.levels):
        n, steps = args.base_n << lvl, args.base_steps << lvl
        hist, residual, wall = run_level(args, n, steps)
        histories.append(hist)
        rows.append([lvl, n, steps, hist.max_mass_drift(), residual, math.nan, wall])
    for lvl in range(args.levels - 1):
        rows[lvl][5] = restrict_final_l1(histories[lvl], histories[lvl + 1])

    print(f"{'level':>5} {'n':>6} {'steps':>6} {'mass_drift':>11} "
          f"{'residual':>10} {'l1_vs_next':>11} {'seconds':>8}")
    for lvl, n, steps, drift, residual, gap, wall in rows:
        gap_s = "-" if math.isnan(gap) else f"{gap:11.3e}"
        print(f"{lvl:>5} {n:>6} {steps:>6} {drift:11.3e} {residual:10.3e} "
              f"{gap_s:>11} {wall:8.2f}")
    res = [r[4] for r in rows]
    ratios = [res[i] / res[i + 1] for i in range(len(res) - 1)]
    print("residual drop per level:", ", ".join(f"{r:.2f}x" for r in ratios))

    if args.out is not None:
        cols = [np.array([r[i] for r in rows]) for i in range(7)]
        write_csv(args.out, ("level", "n", "steps", "mass_drift", "residual",
                             "l1_vs_next", "seconds"), cols)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
