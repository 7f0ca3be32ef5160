"""Generate the committed fine-time-step references of the solve configs.

    PYTHONPATH=src python3 perfbench/make_reference.py solve-deep solve-wide

For each config of a workload with references, the final density is
computed with `ksmv solve` on that config at M, 2M, 4M and the reference step count 8M (same grid,
so spatial error cancels).  The accuracy argument behind the gate's bound:

* the march is first order in dt, which the observed order
  q = log2(|p_M - p_2M| / |p_2M - p_4M|) (L1 norms) confirms;
* Richardson extrapolation then estimates the time-discretization error of
  the benchmark's M-step solve as est = |p_M - p_2M| * 2^q / (2^q - 1)
  with q = 1;
* the 8M reference carries about est / 8 of error itself, so a correct
  M-step solve sits near 7/8 est from it.  The bound is 1.5 est: a change
  that keeps the scheme's accuracy passes, one that loses 70% of it or
  breaks the solution fails.

Writes perfbench/reference/<config>.json with the density, the bound,
the measured distances and the commands that produced them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from workloads import HERE, REFERENCE_DIR, WORKLOADS

WORK_DIR = HERE / "out" / "make_reference"
REFINEMENT = 8
BOUND_FACTOR = 1.5


# config name -> the workload that defines it
REFERENCE_CONFIGS = {config: w for w in WORKLOADS.values() if w.reference for config in w.configs}


def final_density(workload, config_name: str, steps: int, work: Path) -> np.ndarray:
    from ksmv import cli

    out = work / f"m{steps}"
    config = work / f"m{steps}.cfg"
    config.write_text(workload.config_text(config_name, 0, out,
                                           {"discretization.m": str(steps),
                                            "outputs.formats": "plot"}))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--config", str(config), "solve"])
    if code != 0:
        raise SystemExit(f"ksmv solve at M={steps} exited with {code}")
    return np.loadtxt(out / "density_final.dat", comments="#")


def make(name: str):
    workload = REFERENCE_CONFIGS[name]
    M = int(workload.configs[name]["discretization.m"])
    work = WORK_DIR / name
    work.mkdir(parents=True, exist_ok=True)
    runs = {m: final_density(workload, name, m, work) for m in (M, 2 * M, 4 * M, REFINEMENT * M)}
    x = runs[M][:, 0]
    h = float(x[1] - x[0])

    def l1(a, b):
        return float(np.sum(np.abs(runs[a][:, 1] - runs[b][:, 1])) * h)

    d1, d2 = l1(M, 2 * M), l1(2 * M, 4 * M)
    order = math.log2(d1 / d2)
    estimate = 2.0 * d1
    payload = {
        "workload": name,
        "command": f"PYTHONPATH=src python3 perfbench/make_reference.py {name}",
        "ksmv_command": f"ksmv --config <workload config with discretization.m = "
                        f"{REFINEMENT * M}, outputs.formats = plot> solve",
        "argument": (f"first-order march (observed order {order:.3f}); Richardson error "
                     f"estimate at M={M} is 2|p_M - p_2M|_L1 = {estimate:.6e}; the "
                     f"{REFINEMENT}M reference carries ~1/{REFINEMENT} of that; "
                     f"bound = {BOUND_FACTOR} x estimate"),
        "M": M,
        "M_reference": REFINEMENT * M,
        "h": h,
        "l1": {"M_vs_2M": d1, "2M_vs_4M": d2, "M_vs_reference": l1(M, REFINEMENT * M)},
        "observed_order": order,
        "l1_bound": BOUND_FACTOR * estimate,
        "density": [float(v) for v in runs[REFINEMENT * M][:, 1]],
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(payload, indent=1) + "\n")
    print(f"{name}: {payload['argument']}; M vs reference {payload['l1']['M_vs_reference']:.6e}")


if __name__ == "__main__":
    for arg in sys.argv[1:] or list(REFERENCE_CONFIGS):
        make(arg)
