"""Workload definitions: generated ksmv configs and the command sequence of
one closed-loop session.

Every workload is one client issuing its commands one after another, each
waiting for the previous one to finish.  A workload writes one config per
entry of `configs` (`<name>.cfg`); each command reads the one it names.  The
seed reaches the program only as `particles.seed` in the generated configs;
the solve workloads are deterministic and ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Box half-width 3*pi makes the sine chemical exactly periodic at frequency 1.
_FULL_MODEL = {
    "model.chi": "1.0",
    "model.lambda": "0.5",
    "model.normalization": "heat",
    "model.kernel": "keller_segel",
    "initial.p0": "gaussian(0, 0.5)",
    "initial.c0": "sine(0.3, 1)",
    "discretization.l": "9.42477796076938",
    "discretization.t": "0.4",
}

_ORACLE_MODEL = {
    "model.chi": "1.0",
    "model.lambda": "0.0",
    "model.normalization": "heat",
    "model.kernel": "none",
    "initial.p0": "gaussian(0, 0.25)",
    "initial.c0": "quadratic(1)",
    "discretization.l": "8",
    "discretization.t": "1.0",
}


@dataclass(frozen=True)
class Command:
    """One ksmv invocation: metric name, CLI arguments after the global
    flags, the JSON report it writes, the workload config it reads and the
    other outputs it must leave."""

    metric: str
    args: Tuple[str, ...]
    report: str
    config: str
    outputs: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Dict[str, Dict[str, str]]  # config name -> keys
    commands: Tuple[Command, ...]
    reference: bool = False  # final densities checked against reference/<config>.json

    def config_text(self, config: str, seed: int, out_dir: Path,
                    overrides: Optional[Dict[str, str]] = None) -> str:
        keys = {**self.configs[config], **(overrides or {})}
        keys["particles.seed"] = str(seed % 2 ** 32)
        keys["outputs.directory"] = str(out_dir)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


_SOLVE = Command("solve_s", ("solve",), "solve_report_march.json", "solve-deep",
                 ("density_final.dat",))
_RESTART = Command("restart_s", ("solve", "--mode", "picard_with_restart"),
                   "solve_report_picard_with_restart.json", "solve-deep", ("density_final.dat",))
_SOLVE_WIDE = Command("wide_solve_s", ("solve",), "solve_report_march.json", "solve-wide",
                      ("density_final.dat", "density.csv", "summary.csv", "field.csv"))
_PARTICLES = Command("particles_s", ("particles",), "particles_report.json", "particles",
                     ("mean_field.csv",))
_QZ = Command("qz_s", ("qz",), "qz_report.json", "particles", ("qz_histogram.csv",))
_CHECK_KERNEL = Command("check_kernel_s", ("check-kernel",), "check_kernel_report.json",
                        "oracles")

# Two workloads, so that each run can last long enough on a shared host.
# solve: the O(M^2 n) memory sum dominates the solve-deep commands (mild two
# ways: one march, and windowed Picard with a frozen prefix drift) and the
# per-value %.17g long-form density.csv dominates the solve-wide one, whose
# march is short.  particles-oracles: one Philox Generator per particle
# dominates particles and qz; check-kernel on the custom-kernel path adds the
# nested quad calls of kernel._theta_custom.  Each command's time is printed
# on its own, so a memory-sum change shows in solve_s/restart_s and not in
# wide_solve_s, and a writer change the other way round.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "solve",
        {"solve-deep": {**_FULL_MODEL, "discretization.n": "512", "discretization.m": "400",
                        "particles.n": "2000", "outputs.formats": "plot"},
         "solve-wide": {**_FULL_MODEL, "discretization.n": "4096", "discretization.m": "25",
                        "particles.n": "2000", "outputs.formats": "csv,plot"}},
        (_SOLVE, _RESTART, _SOLVE_WIDE),
        reference=True,
    ),
    Workload(
        "particles-oracles",
        {"particles": {**_FULL_MODEL, "discretization.n": "256", "discretization.m": "100",
                       "particles.n": "20000", "outputs.formats": "csv"},
         "oracles": {**_ORACLE_MODEL, "discretization.n": "512", "discretization.m": "250",
                     "particles.n": "2000", "outputs.formats": "csv"}},
        (_PARTICLES, _QZ, _CHECK_KERNEL),
    ),
)}
