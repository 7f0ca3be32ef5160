"""Command-line front end: config parsing, experiment orchestration, CSV and
plot-table emission.

Config grammar (flat key-value text, dotted section prefixes):

    # comment
    model.chi = 1.0
    model.lambda = 0.5
    model.normalization = heat          # heat | two_pi
    model.kernel = keller_segel         # keller_segel | none
    initial.p0 = gaussian(0, 1)         # gaussian(mean, var) | uniform(a, b) | samples(path)
    initial.c0 = sine(0.3, 1)           # sine(amp, freq) | gaussian_bump(amp, width)
                                        #   | quadratic(curvature) | samples(path) | none
    discretization.l = 8                # box half-width
    discretization.n = 256              # grid points (even)
    discretization.t = 0.5              # horizon
    discretization.m = 100              # time steps
    particles.n = 2000
    particles.seed = 1234
    particles.bandwidth = auto          # auto | positive number
    picard.safety = 0.5
    picard.k_max = 25
    picard.tol = 1e-8
    outputs.directory = out
    outputs.formats = csv,plot

`model.kernel = none` turns the self-interaction off (the spec carries
kernel.zero_kernel, which the solvers read as "no memory drift") while
keeping the chemical drift active; chi > 0 is required at config level
either way.  A quadratic c0 with curvature q gives
the linear restoring drift b(0, x) = -chi q x.

All numeric CSV output uses 17 significant digits, so reading a file back
reproduces the arrays bit-for-bit.  Exit codes: 0 all checks of the invoked
command pass, 1 a scientific check failed, 2 configuration or usage error.
The default output directory comes from --out, else $KSMV_OUT, else the
config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import integrate as _integrate, special

from . import __version__
from .grid import Grid1D, TimeMesh, DensityField, heat_kernel
from .kernel import KernelSpec, check_hypotheses, find_T0, horizon_D, zero_kernel
from .field import InitialChemical, drift_b, chemical_concentration, ks_residual
from . import mild
from .particle import simulate_particles, simulate_bounded_drift, kde_density
from .qz import QZParams, qz_density, verify_bound

ENV_OUT_DIR = "KSMV_OUT"


class ConfigError(Exception):
    """Aggregated configuration problems; one line per violation."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("configuration errors:\n" + "\n".join(f"  - {p}" for p in self.problems))


_CALL_RE = re.compile(r"^([a-z_]+)\s*\((.*)\)$")


def _parse_value(raw: str):
    """number | word | name(arg, ...) with numeric or path arguments."""
    raw = raw.strip()
    m = _CALL_RE.match(raw)
    if m:
        name, args = m.group(1), m.group(2).strip()
        if name == "samples":
            return (name, [args])
        parts = [a.strip() for a in args.split(",")] if args else []
        return (name, [float(a) for a in parts])
    try:
        return float(raw)
    except ValueError:
        return raw


def parse_config_text(text: str) -> Dict[str, object]:
    """Flat dotted-key grammar: `section.key = value`, # comments, blank lines."""
    out: Dict[str, object] = {}
    problems = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            problems.append(f"line {lineno}: expected `key = value`, got {stripped!r}")
            continue
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not re.fullmatch(r"[a-z_][a-z0-9_]*(\.[a-z_][a-z0-9_]*)+", key):
            problems.append(f"line {lineno}: malformed key {key!r}")
            continue
        try:
            out[key] = _parse_value(raw)
        except ValueError as exc:
            problems.append(f"line {lineno}: bad value for {key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return out


@dataclass
class RunConfig:
    """Validated run parameters; see the module docstring for the grammar."""

    chi: float = 1.0
    lam: float = 0.0
    normalization: str = "heat"
    kernel_kind: str = "keller_segel"
    p0_kind: str = "gaussian"
    p0_args: List = field(default_factory=lambda: [0.0, 1.0])
    c0_kind: str = "none"
    c0_args: List = field(default_factory=list)
    half_width: float = 8.0
    n: int = 256
    horizon: float = 0.5
    steps: int = 100
    n_particles: int = 2000
    seed: int = 1234
    bandwidth: Optional[float] = None
    safety: float = 0.5
    k_max: int = 25
    tol: float = 1e-8
    out_dir: str = "out"
    formats: Tuple[str, ...] = ("csv",)
    source_text: str = ""

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        text = Path(path).read_text()
        cfg = cls.from_mapping(parse_config_text(text))
        cfg.source_text = text
        return cfg

    @classmethod
    def from_mapping(cls, raw: Dict[str, object]) -> "RunConfig":
        cfg = cls()
        problems: List[str] = []
        known = set()

        def take(key, default=None):
            known.add(key)
            return raw.get(key, default)

        def num(key, default, cond=None, desc=""):
            v = take(key, default)
            if not isinstance(v, (int, float)):
                problems.append(f"{key}: expected a number, got {v!r}")
                return default
            v = float(v)
            if cond is not None and not cond(v):
                problems.append(f"{key}: {desc}, got {v:g}")
            return v

        cfg.chi = num("model.chi", cfg.chi, lambda v: v > 0, "chi must be > 0")
        cfg.lam = num("model.lambda", cfg.lam, lambda v: v >= 0, "lambda must be >= 0")
        norm = take("model.normalization", cfg.normalization)
        if norm not in ("heat", "two_pi"):
            problems.append(f"model.normalization: expected heat|two_pi, got {norm!r}")
        else:
            cfg.normalization = norm
        kind = take("model.kernel", cfg.kernel_kind)
        if kind not in ("keller_segel", "none"):
            problems.append(f"model.kernel: expected keller_segel|none, got {kind!r}")
        else:
            cfg.kernel_kind = kind

        p0 = take("initial.p0", (cfg.p0_kind, cfg.p0_args))
        if isinstance(p0, tuple) and p0[0] in ("gaussian", "uniform", "samples"):
            cfg.p0_kind, cfg.p0_args = p0[0], list(p0[1])
            if p0[0] == "gaussian" and (len(p0[1]) != 2 or p0[1][1] <= 0):
                problems.append("initial.p0: gaussian needs (mean, var > 0)")
            if p0[0] == "uniform" and (len(p0[1]) != 2 or p0[1][0] >= p0[1][1]):
                problems.append("initial.p0: uniform needs (a, b) with a < b")
        else:
            problems.append(f"initial.p0: expected gaussian(m,v)|uniform(a,b)|samples(path), got {p0!r}")

        c0 = take("initial.c0", (cfg.c0_kind, cfg.c0_args))
        if c0 == "none" or c0 == ("none", []):
            cfg.c0_kind, cfg.c0_args = "none", []
        elif isinstance(c0, tuple) and c0[0] in ("sine", "gaussian_bump", "quadratic", "samples"):
            cfg.c0_kind, cfg.c0_args = c0[0], list(c0[1])
        else:
            problems.append(f"initial.c0: expected sine|gaussian_bump|quadratic|samples|none, got {c0!r}")

        cfg.half_width = num("discretization.l", cfg.half_width, lambda v: v > 0, "L must be > 0")
        n_val = num("discretization.n", cfg.n, lambda v: v >= 16 and v == int(v) and int(v) % 2 == 0,
                    "n must be an even integer >= 16")
        cfg.n = int(n_val)
        cfg.horizon = num("discretization.t", cfg.horizon, lambda v: v > 0, "T must be > 0")
        m_val = num("discretization.m", cfg.steps, lambda v: v >= 1 and v == int(v), "M must be a positive integer")
        cfg.steps = int(m_val)

        n_part = num("particles.n", cfg.n_particles, lambda v: v >= 2 and v == int(v), "N must be an integer >= 2")
        cfg.n_particles = int(n_part)
        seed_val = num("particles.seed", cfg.seed, lambda v: v == int(v) and v >= 0, "seed must be a nonnegative integer")
        cfg.seed = int(seed_val)
        bw = take("particles.bandwidth", "auto")
        if bw == "auto":
            cfg.bandwidth = None
        elif isinstance(bw, (int, float)) and bw > 0:
            cfg.bandwidth = float(bw)
        else:
            problems.append(f"particles.bandwidth: expected auto or a positive number, got {bw!r}")

        cfg.safety = num("picard.safety", cfg.safety, lambda v: 0 < v < 1, "safety must be in (0,1)")
        kmax = num("picard.k_max", cfg.k_max, lambda v: v >= 1 and v == int(v), "k_max must be a positive integer")
        cfg.k_max = int(kmax)
        cfg.tol = num("picard.tol", cfg.tol, lambda v: v > 0, "tol must be > 0")

        out_dir = take("outputs.directory", cfg.out_dir)
        cfg.out_dir = str(out_dir)
        fmts = take("outputs.formats", "csv")
        fmt_list = tuple(f.strip() for f in str(fmts).split(",") if f.strip())
        bad = [f for f in fmt_list if f not in ("csv", "plot")]
        if bad:
            problems.append(f"outputs.formats: unknown formats {bad}")
        else:
            cfg.formats = fmt_list or ("csv",)

        unknown = sorted(set(raw) - known)
        for key in unknown:
            problems.append(f"unknown key {key}")
        if problems:
            raise ConfigError(problems)
        return cfg

    # --- builders -----------------------------------------------------------

    def resolved_lines(self) -> List[str]:
        d = asdict(self)
        d.pop("source_text")
        return [f"{k} = {d[k]!r}" for k in sorted(d)]

    def config_hash(self) -> str:
        return hashlib.sha256("\n".join(self.resolved_lines()).encode()).hexdigest()[:16]

    def make_grid(self) -> Grid1D:
        return Grid1D(half_width=self.half_width, n=self.n)

    def make_mesh(self) -> TimeMesh:
        return TimeMesh(self.horizon, self.steps)

    def make_spec(self) -> KernelSpec:
        if self.kernel_kind == "none":
            return KernelSpec(chi=self.chi, lam=self.lam, normalization=self.normalization,
                              kind="custom", eval_fn=zero_kernel)
        return KernelSpec(chi=self.chi, lam=self.lam, normalization=self.normalization)

    def make_p0(self, grid: Grid1D) -> DensityField:
        if self.p0_kind == "gaussian":
            mean, var = self.p0_args
            vals = heat_kernel(var, grid.x - mean)
        elif self.p0_kind == "uniform":
            a, b = self.p0_args
            lo = np.clip((np.minimum(grid.x + grid.h / 2.0, b) - np.maximum(grid.x - grid.h / 2.0, a)),
                         0.0, grid.h)
            vals = lo / (grid.h * (b - a))
        else:
            vals = np.loadtxt(self.p0_args[0])
            if vals.shape != (grid.n,):
                raise ConfigError([f"initial.p0 samples: expected {grid.n} values, got shape {vals.shape}"])
        return DensityField(grid, vals, 0.0).normalized()

    def make_chem(self, grid: Grid1D) -> Optional[InitialChemical]:
        if self.c0_kind == "none":
            return None
        if self.c0_kind == "sine":
            amp, freq = (self.c0_args + [1.0, 1.0])[:2]
            return InitialChemical.sine(grid, amp=amp, freq=freq)
        if self.c0_kind == "gaussian_bump":
            amp, width = (self.c0_args + [1.0, 1.0])[:2]
            return InitialChemical.gaussian_bump(grid, amp=amp, width=width)
        if self.c0_kind == "quadratic":
            (q,) = self.c0_args or [1.0]
            return InitialChemical.from_samples(grid, -q * grid.x ** 2 / 2.0, c0_prime=-q * grid.x)
        vals = np.loadtxt(self.c0_args[0])
        if vals.shape != (grid.n,):
            raise ConfigError([f"initial.c0 samples: expected {grid.n} values, got shape {vals.shape}"])
        return InitialChemical.from_samples(grid, vals)


# --- report ----------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    value: float
    bound: float
    passed: bool


@dataclass
class RunReport:
    """Per-command check records plus provenance and timings."""

    command: str
    config_hash: str
    seed: int
    records: List[CheckRecord] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float, bound: float, passed: bool):
        if any(r.name == name for r in self.records):
            raise ValueError(f"duplicate check record {name!r}")
        self.records.append(CheckRecord(name, float(value), float(bound), bool(passed)))

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def lines(self) -> List[str]:
        out = [f"command: {self.command}  config: {self.config_hash}  seed: {self.seed}  "
               f"version: {__version__}"]
        for r in self.records:
            out.append(f"  [{'PASS' if r.passed else 'FAIL'}] {r.name}: "
                       f"value {r.value:.6g} vs bound {r.bound:.6g}")
        for phase, secs in self.timings.items():
            out.append(f"  time {phase}: {secs:.2f}s")
        return out

    def write(self, path: Path):
        payload = {"command": self.command, "config": self.config_hash,
                   "seed": self.seed, "version": __version__,
                   "records": [asdict(r) for r in self.records],
                   "timings": self.timings}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# --- serialization ---------------------------------------------------------


def _fmt(x: float) -> str:
    return "%.17g" % x


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]):
    """Column-oriented CSV at 17 significant digits (exact float round-trip)."""
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    if len({c.size for c in cols}) != 1:
        raise ValueError("csv columns must have equal length")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*cols):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_plot_table(path: Path, columns: Sequence[np.ndarray], comment: str = ""):
    """gnuplot-style whitespace table."""
    cols = [np.asarray(c, dtype=float).ravel() for c in columns]
    with open(path, "w") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for row in zip(*cols):
            fh.write(" ".join(_fmt(v) for v in row) + "\n")


def write_history_csv(path: Path, history: mild.MarginalHistory):
    """Long-form density table: one (t, x, p) row per node pair."""
    M1, n = history.densities.shape
    t = np.repeat(history.mesh.nodes, n)
    x = np.tile(history.grid.x, M1)
    write_csv(path, ("t", "x", "p"), (t, x, history.densities.ravel()))


def write_field_csv(path: Path, history: mild.MarginalHistory, chem: InitialChemical,
                    lam: float, rows: Sequence[int]):
    """Long-form chemical table (t, x, c, dc) at the selected mesh rows."""
    ts, xs, cs, dcs = [], [], [], []
    for k in rows:
        cf = chemical_concentration(history, chem, lam, int(k))
        ts.append(np.full(history.grid.n, history.mesh.nodes[int(k)]))
        xs.append(history.grid.x)
        cs.append(cf.values)
        dcs.append(cf.gradient)
    write_csv(path, ("t", "x", "c", "dc"),
              (np.concatenate(ts), np.concatenate(xs), np.concatenate(cs), np.concatenate(dcs)))


def write_error_csv(path: Path, table):
    write_csv(path, ("t", "l1", "l2", "linf"), (table.t, table.l1, table.l2, table.linf))


# --- commands --------------------------------------------------------------


def _out_dir(cfg: RunConfig, override: Optional[str]) -> Path:
    chosen = override or os.environ.get(ENV_OUT_DIR) or cfg.out_dir
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_check_kernel(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    spec = cfg.make_spec()
    grid = cfg.make_grid()
    mesh = cfg.make_mesh()
    report = check_hypotheses(spec, cfg.horizon, grid, mesh)
    # T0 = inf when D saturates below the safety level: Picard then
    # contracts on every horizon
    T0 = find_T0(spec, cfg.safety)
    run = RunReport("check-kernel", cfg.config_hash(), cfg.seed)
    for name, item in report.items.items():
        run.add(name, item.value, item.bound, item.passed)
    run.add("contraction_horizon_found", 0.0 if T0 > 0.0 else 1.0, 0.5, T0 > 0.0)
    run.timings["check"] = time.perf_counter() - t0
    for line in report.lines():
        print(line)
    print(f"contraction horizon T0 = {T0:.10g} (D(T0) <= {cfg.safety:g})")
    for line in run.lines():
        print(line)
    run.write(out / "check_kernel_report.json")
    return 0 if run.all_passed else 1


def cmd_solve(cfg: RunConfig, out: Path, mode: str = "march") -> int:
    run = RunReport(f"solve[{mode}]", cfg.config_hash(), cfg.seed)
    spec, grid, mesh = cfg.make_spec(), cfg.make_grid(), cfg.make_mesh()
    p0 = cfg.make_p0(grid)
    chem = cfg.make_chem(grid)
    t0 = time.perf_counter()
    history = mild.solve_global(p0, spec, chem, grid, cfg.horizon, mode=mode,
                                steps=cfg.steps, safety=cfg.safety,
                                k_max=cfg.k_max, tol=cfg.tol)
    run.timings["solve"] = time.perf_counter() - t0

    drift = history.max_mass_drift()
    run.add("mass_drift", drift, 1e-3, drift <= 1e-3)
    scal = history.scaling_table()
    sup_linf = float(np.max(scal["sqrt_t_linf"][1:])) if mesh.steps >= 1 else 0.0
    run.add("sqrt_t_sup_density_logged", sup_linf, math.inf, True)

    if "csv" in cfg.formats:
        write_history_csv(out / "density.csv", history)
        write_csv(out / "summary.csv", ("t", "mass", "linf", "l2"),
                  (mesh.nodes, history.mass_log,
                   np.max(np.abs(history.densities), axis=1),
                   np.sqrt(np.sum(history.densities ** 2, axis=1) * grid.h)))
    if "plot" in cfg.formats:
        write_plot_table(out / "density_final.dat", (grid.x, history.densities[-1]),
                         comment=f"x p at t={cfg.horizon:g}")

    if chem is not None:
        rows = sorted(set([1, mesh.steps // 2, mesh.steps]))
        t1 = time.perf_counter()
        if "csv" in cfg.formats:
            write_field_csv(out / "field.csv", history, chem, cfg.lam, rows)
        res = ks_residual(history, chem, cfg.lam)
        run.timings["field"] = time.perf_counter() - t1
        run.add("ks_residual_max", float(np.max(res)), math.inf, True)

    run.write(out / f"solve_report_{mode}.json")
    for line in run.lines():
        print(line)
    return 0 if run.all_passed else 1


def cmd_picard(cfg: RunConfig, out: Path) -> int:
    run = RunReport("picard", cfg.config_hash(), cfg.seed)
    spec, grid = cfg.make_spec(), cfg.make_grid()
    p0 = cfg.make_p0(grid)
    chem = cfg.make_chem(grid)
    horizon = min(cfg.horizon, find_T0(spec, cfg.safety))
    mesh = TimeMesh(horizon, cfg.steps)
    t0 = time.perf_counter()
    try:
        iterates, distances = mild.picard(p0, spec, chem, grid, mesh,
                                          k_max=cfg.k_max, tol=cfg.tol)
    except mild.PicardDivergenceError as exc:
        print(f"divergence: distances {exc.distances}", file=sys.stderr)
        return 1
    run.timings["picard"] = time.perf_counter() - t0
    march_hist = mild.march(p0, spec, chem, grid, mesh)
    gap = float(np.max(np.sum(np.abs(iterates[-1].densities - march_hist.densities), axis=1)) * grid.h)
    converged = distances[-1] < cfg.tol
    run.add("iteration_converged", distances[-1], cfg.tol, converged)
    run.add("iterate_vs_march_l1", gap, max(cfg.tol * 10.0, 1e-3), gap <= max(cfg.tol * 10.0, 1e-3))
    if "csv" in cfg.formats:
        write_csv(out / "picard_distances.csv", ("iterate", "l1_distance"),
                  (np.arange(1, len(distances) + 1, dtype=float), np.array(distances)))
    print(f"D(T={horizon:g}) = {horizon_D(spec, horizon):.6g}; distances: "
          + " ".join(f"{d:.3e}" for d in distances))
    for line in run.lines():
        print(line)
    run.write(out / "picard_report.json")
    return 0 if run.all_passed else 1


def cmd_particles(cfg: RunConfig, out: Path) -> int:
    run = RunReport("particles", cfg.config_hash(), cfg.seed)
    spec, grid, mesh = cfg.make_spec(), cfg.make_grid(), cfg.make_mesh()
    p0 = cfg.make_p0(grid)
    chem = cfg.make_chem(grid)
    t0 = time.perf_counter()
    oracle = mild.march(p0, spec, chem, grid, mesh)
    run.timings["march_oracle"] = time.perf_counter() - t0

    ladder = sorted({max(100, cfg.n_particles // 10), cfg.n_particles})
    l1s = []
    t0 = time.perf_counter()
    for N in ladder:
        ens = simulate_particles(N, p0, spec, chem, mesh, cfg.seed, interaction="binned")
        kde = kde_density(ens, mesh.steps, bandwidth=cfg.bandwidth)
        l1s.append(float(grid.integrate(np.abs(kde.values - oracle.densities[-1]))))
    run.timings["particles"] = time.perf_counter() - t0
    nonincreasing = all(b <= a * 1.02 for a, b in zip(l1s, l1s[1:]))
    run.add("mean_field_l1_nonincreasing", l1s[-1], l1s[0] * 1.02, nonincreasing)
    if "csv" in cfg.formats:
        write_csv(out / "mean_field.csv", ("n_particles", "l1_vs_solver"),
                  (np.array(ladder, dtype=float), np.array(l1s)))
    print("mean-field table: " + "  ".join(f"N={N}: L1={e:.4f}" for N, e in zip(ladder, l1s)))
    for line in run.lines():
        print(line)
    run.write(out / "particles_report.json")
    return 0 if run.all_passed else 1


# Family-wise false-alarm rate of the qz Monte Carlo histogram check.
QZ_HISTOGRAM_ALPHA = 1e-3

# Positive nodes of the 8-point Gauss-Legendre rule on [-1, 1] and their
# weights (the rule is symmetric).  Tabulated: computing them is the qz
# command's only LAPACK call, whose first use costs about 0.8 MB resident.
_GL8_NODES = np.array([0.1834346424956498, 0.5255324099163290,
                       0.7966664774136267, 0.9602898564975362])
_GL8_WEIGHTS = np.array([0.3626837833783620, 0.3137066458778873,
                         0.2223810344533745, 0.1012285362903763])


def _histogram_error_ratio(dens: np.ndarray, ref: np.ndarray, width: float,
                           N: int, dt: float) -> float:
    """Worst bin of |dens - ref| / allowance; the check passes at <= 1.

    allowance = z se + 0.14 sqrt(dt).  se is the binomial standard error of
    a bin holding the reference probability ref * width out of N paths, and
    z the two-sided Bonferroni quantile that keeps the chance of any bin
    alarming on a correct reference below QZ_HISTOGRAM_ALPHA.  The second
    term bounds the Euler scheme's bias in the attractor bin, where the drift
    jumps (weak order 1/2 there): at N = 1e6 that bin was off by 1.9e-2,
    9.8e-3 and 3.7e-3 at dt = 0.02, 0.008 and 0.004.
    """
    p = ref * width
    se = np.sqrt(p * (1.0 - p) / N) / width
    z = float(special.ndtri(1.0 - QZ_HISTOGRAM_ALPHA / (2.0 * ref.size)))
    return float(np.max(np.abs(dens - ref) / (z * se + 0.14 * math.sqrt(dt))))


def cmd_qz(cfg: RunConfig, out: Path) -> int:
    run = RunReport("qz", cfg.config_hash(), cfg.seed)
    t0 = time.perf_counter()

    worst_norm = 0.0
    for beta in (0.0, 0.25, 1.0, 4.0):
        for t in (0.1, 1.0, 5.0):
            p = QZParams(beta=beta, y=0.3, x=-0.8, t=t)
            w = 10.0 * math.sqrt(t) + beta * t + 2.0
            val = _integrate.quad(lambda z: qz_density(p, z), min(p.x, p.y) - w,
                                  max(p.x, p.y) + w, points=[p.x, p.y],
                                  limit=400, epsabs=1e-10, epsrel=1e-10)[0]
            worst_norm = max(worst_norm, abs(val - 1.0))
    run.add("normalization", worst_norm, 1e-6, worst_norm <= 1e-6)

    p0 = QZParams(beta=0.0, y=0.0, x=1.0, t=0.7)
    zs = np.linspace(-4.0, 4.0, 41)
    g = np.exp(-(zs - 1.0) ** 2 / 1.4) / math.sqrt(2.0 * math.pi * 0.7)
    red = float(np.max(np.abs(qz_density(p0, zs) - g)))
    run.add("beta0_reduction", red, 1e-12, red <= 1e-12)

    mesh = TimeMesh(1.0, 1000)
    beta = 0.5
    ens = simulate_bounded_drift(lambda t, x: beta * np.sign(0.0 - x),
                                 lambda u: np.full_like(u, 1.0), mesh,
                                 cfg.n_particles, cfg.seed, drift_bound=beta,
                                 store_rows=[mesh.steps])
    zs = np.linspace(-3.0, 4.0, 36)
    width = zs[1] - zs[0]
    edges = np.concatenate([zs - width / 2.0, [zs[-1] + width / 2.0]])
    counts, _ = np.histogram(ens.positions[-1], bins=edges)
    dens = counts / (ens.n_particles * width)
    # bin-averaged reference: the density has a kink at the attractor, so the
    # center value misses the histogram's cell average by O(width) there.  An
    # 8-node Gauss-Legendre rule on each half of every bin integrates the
    # smooth pieces; the attractor y = 0 is a bin center, so the kink falls
    # on a split point
    p_ref = QZParams(beta=beta, y=0.0, x=1.0, t=1.0)
    x = _GL8_NODES
    offsets = (width / 4.0) * np.concatenate([-1.0 - x, -1.0 + x, 1.0 - x, 1.0 + x])
    ref = qz_density(p_ref, zs[:, None] + offsets) @ np.tile(_GL8_WEIGHTS, 4) / 4.0
    mc_ratio = _histogram_error_ratio(dens, ref, width, ens.n_particles, mesh.dt)
    run.add("mc_histogram_sup", mc_ratio, 1.0, mc_ratio <= 1.0)

    rep = verify_bound(ens, beta, bins=50)
    run.add("bound_violations", float(len(rep.violations)), 0.0, rep.passed)

    run.timings["qz"] = time.perf_counter() - t0
    if "csv" in cfg.formats:
        write_csv(out / "qz_histogram.csv", ("z", "mc_density", "closed_form"),
                  (zs, dens, ref))
    for line in run.lines():
        print(line)
    run.write(out / "qz_report.json")
    return 0 if run.all_passed else 1


# --- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ksmv", description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="path to a run config file")
    ap.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT_DIR} or config)")
    ap.add_argument("--seed", type=int, default=None, help="override particles.seed")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("check-kernel", help="run the kernel admissibility checks")
    sp = sub.add_parser("solve", help="solve the density equation")
    sp.add_argument("--mode", choices=("march", "picard_with_restart"), default="march")
    sub.add_parser("picard", help="fixed-point iteration diagnostics on the contraction horizon")
    sub.add_parser("particles", help="particle simulation and mean-field comparison")
    sub.add_parser("qz", help="comparison-density oracles and the universal bound")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    out = _out_dir(cfg, args.out)
    try:
        if args.command == "check-kernel":
            return cmd_check_kernel(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out, mode=args.mode)
        if args.command == "picard":
            return cmd_picard(cfg, out)
        if args.command == "particles":
            return cmd_particles(cfg, out)
        if args.command == "qz":
            return cmd_qz(cfg, out)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except mild.SchemeInstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
