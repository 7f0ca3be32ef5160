#!/usr/bin/env python3
"""Map contraction horizons and kernel conditions over a coupling sweep.

For every (chi, lambda) pair in the sweep the script reports the
contraction horizon T0 at two safety levels, the interaction budget D at
a reference horizon, and whether the kernel condition suite passes on
[0, t-budget].  Horizons are infinite when the decay rate caps the budget
below the safety level; those rows print "inf".  Exits 1 when the condition
suite fails on any row.

Example:
    python scripts/horizon_map.py --chis 0.5,1,2 --lams 0,0.5,1
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ksmv.grid import TimeMesh
from ksmv.kernel import KernelSpec, check_hypotheses, find_T0, horizon_D
from ksmv.cli import write_csv


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chis", type=str, default="0.5,1,2")
    ap.add_argument("--lams", type=str, default="0,0.5,1")
    ap.add_argument("--safety", type=float, nargs=2, default=(0.5, 0.9),
                    metavar=("LOW", "HIGH"))
    ap.add_argument("--t-budget", type=float, default=1.0,
                    help="horizon at which to report the interaction budget")
    ap.add_argument("--probe-steps", type=int, default=200)
    ap.add_argument("--skip-checks", action="store_true",
                    help="skip the condition suite (horizons only)")
    ap.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    chis = [float(s) for s in args.chis.split(",")]
    lams = [float(s) for s in args.lams.split(",")]
    s_lo, s_hi = args.safety
    mesh = TimeMesh(args.t_budget, args.probe_steps)

    header = (f"{'chi':>6} {'lambda':>7} {'T0@' + format(s_lo, '.2f'):>10} "
              f"{'T0@' + format(s_hi, '.2f'):>10} {'D(T)':>8}")
    if not args.skip_checks:
        header += f" {'conditions':>10}"
    print(header)

    rows = []
    failed = False
    for chi in chis:
        for lam in lams:
            spec = KernelSpec(chi=chi, lam=lam)
            t0_lo = find_T0(spec, s_lo)
            t0_hi = find_T0(spec, s_hi)
            budget = horizon_D(spec, args.t_budget)
            line = (f"{chi:>6.2f} {lam:>7.2f} {t0_lo:>10.4g} "
                    f"{t0_hi:>10.4g} {budget:>8.4f}")
            ok = math.nan
            if not args.skip_checks:
                report = check_hypotheses(spec, mesh)
                ok = float(report.all_pass)
                failed |= not report.all_pass
                line += f" {'pass' if report.all_pass else 'FAIL':>10}"
            print(line)
            rows.append((chi, lam, t0_lo, t0_hi, budget, ok))

    if args.out is not None:
        cols = [np.array([r[i] for r in rows]) for i in range(6)]
        write_csv(args.out, ("chi", "lambda", "t0_low", "t0_high",
                             "budget", "conditions_pass"), cols)
        print(f"wrote {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
