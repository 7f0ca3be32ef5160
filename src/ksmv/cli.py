"""Command-line front end: config parsing, experiment orchestration, CSV and
plot-table emission.

Config grammar (flat key-value text, dotted section prefixes):

    # comment
    model.chi = 1.0
    model.lambda = 0.5
    model.normalization = heat          # heat only
    model.kernel = keller_segel         # keller_segel | none
    initial.p0 = gaussian(0, 1)         # gaussian(mean, var) | uniform(a, b) | samples(path)
    initial.c0 = sine(0.3, 1)           # sine(amp, freq) | gaussian_bump(amp, width)
                                        #   | quadratic(curvature) | samples(path) | none
    discretization.l = 8                # box half-width
    discretization.n = 256              # grid points (even)
    discretization.t = 0.5              # horizon
    discretization.m = 100              # time steps
    particles.n = 2000
    particles.seed = 1234               # integer in [0, 2^63)
    particles.bandwidth = auto          # auto | positive number
    picard.safety = 0.5
    picard.k_max = 25
    picard.tol = 1e-8
    outputs.directory = out
    outputs.formats = csv,plot

`model.kernel = none` turns the self-interaction off (KernelSpec kind
"none": the chemotaxis kernel with chi_eff = 0, so there is no memory
drift) while keeping the chemical drift active; chi > 0 is required at
config level either way.  A quadratic c0 with curvature q gives
the linear restoring drift b(0, x) = -chi q x.  `model.normalization = heat`
is still read and changes nothing; any other value is refused (scale
model.chi instead).  CONFIG_KEYS holds these keys in this order, each with
the RunConfig fields it sets and its check.

Every number in the CSV and plot tables is written as "%.17g" % v, so reading
a file back reproduces the arrays bit-for-bit.  One block formatter makes
that text for a whole numpy block at once: the 17 digits from an exact
product with a table of powers of ten, the text gathered by a layout table,
0 and -0 as such, and "%.17g" itself only where the product cannot decide
the rounding (and for inf, nan and extreme exponents).  The writers format
and write _VALUES_PER_PASS values at a time, so their working memory does
not grow with the table; the long-form tables (density.csv, field.csv)
format each t and x once, and each of their passes is whole time rows or a
run of nodes within one.  Each command times its output writes in the
report's `write` phase, apart from the solve, field and other compute
phases.

Exit codes: 0 all checks of the invoked command pass, 1 a scientific check
failed, 2 configuration or usage error.  The default output directory comes
from --out, else $KSMV_OUT, else the config.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
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

from . import __version__
from .grid import Grid1D, TimeMesh, DensityField, gauss_legendre, heat_kernel
from .kernel import KernelSpec, check_hypotheses, find_T0, has_memory, horizon_D
# ks_residual is not called here, but the traced benchmark wraps ksmv.cli.ks_residual
from .field import ChemicalField, InitialChemical, chemical_concentration, ks_residual  # noqa: F401
from . import mild
from .particle import simulate_particles, simulate_bounded_drift, kde_density
from .qz import QZ_HISTOGRAM_ALPHA, QZParams, qz_density, verify_bound
from .special import binomial_sf

ENV_OUT_DIR = "KSMV_OUT"


class ConfigError(Exception):
    """Aggregated configuration problems; one line per violation."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("configuration errors:\n" + "\n".join(f"  - {p}" for p in self.problems))


_CALL_RE = re.compile(r"^([a-z_]+)\s*\((.*)\)$")


def _parse_value(raw: str):
    """number | word | name(arg, ...) with numeric or path arguments.  An
    integer literal stays an int, so a seed keeps every digit."""
    raw = raw.strip()
    m = _CALL_RE.match(raw)
    if m:
        name, args = m.group(1), m.group(2).strip()
        if name == "samples":
            return (name, [args])
        parts = [a.strip() for a in args.split(",")] if args else []
        return (name, [float(a) for a in parts])
    for number in (int, float):
        try:
            return number(raw)
        except ValueError:
            pass
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


class _Problem(str):
    """What a config check refuses a value for; from_mapping prefixes the key."""


def _seed_problem(seed) -> Optional[_Problem]:
    """Why seed is no particle seed, or None: seeds are integers in [0, 2^63),
    the range whose Philox key words keep every bit."""
    if isinstance(seed, int) and not isinstance(seed, bool) and 0 <= seed < 2 ** 63:
        return None
    return _Problem(f"seed must be an integer in [0, 2^63), got {seed!r}")


def _number(cond, desc: str, cast=float):
    """The check of a numeric key: a finite number that meets cond, as cast."""
    def check(v):
        if not isinstance(v, (int, float)):
            return _Problem(f"expected a number, got {v!r}")
        try:
            v = float(v)
        except OverflowError:   # an integer literal beyond the float range
            v = math.inf
        if not math.isfinite(v):
            return _Problem(f"expected a finite number, got {v:g}")
        return cast(v) if cond(v) else _Problem(f"{desc}, got {v:g}")
    return check


def _p0_form(v):
    if not (isinstance(v, tuple) and v[0] in ("gaussian", "uniform", "samples")):
        return _Problem(f"expected gaussian(m,v)|uniform(a,b)|samples(path), got {v!r}")
    kind, args = v
    if kind == "gaussian" and (len(args) != 2 or args[1] <= 0):
        return _Problem("gaussian needs (mean, var > 0)")
    if kind == "uniform" and (len(args) != 2 or args[0] >= args[1]):
        return _Problem("uniform needs (a, b) with a < b")
    return kind, list(args)


def _c0_form(v):
    if v in ("none", ("none", [])):
        return "none", []
    # each form's most arguments; missing ones default to 1
    most = isinstance(v, tuple) and {"sine": 2, "gaussian_bump": 2, "quadratic": 1,
                                     "samples": 1}.get(v[0])
    if not most:
        return _Problem(f"expected sine|gaussian_bump|quadratic|samples|none, got {v!r}")
    kind, args = v
    if len(args) > most:
        return _Problem(f"{kind} takes at most {most} args")
    if kind == "gaussian_bump" and len(args) == 2 and args[1] <= 0:
        return _Problem("gaussian_bump needs (amp, width > 0)")
    return kind, list(args)


def _formats(v):
    fmts = tuple(f.strip() for f in str(v).split(",") if f.strip())
    bad = [f for f in fmts if f not in ("csv", "plot")]
    return _Problem(f"unknown formats {bad}") if bad else fmts or ("csv",)


_positive = functools.partial(_number, lambda v: v > 0)
_bandwidth = _positive("bandwidth must be auto or > 0")


def _count(least: int, desc: str):
    return _number(lambda v: v >= least and v == int(v), desc, cast=int)


# config key -> (the RunConfig fields it sets, its check), in the order
# from_mapping reports problems.  A check returns the value, one per field,
# or a _Problem; an absent key leaves the fields' defaults
CONFIG_KEYS = {
    "model.chi": (("chi",), _positive("chi must be > 0")),
    "model.lambda": (("lam",), _number(lambda v: v >= 0, "lambda must be >= 0")),
    "model.normalization": ((), lambda v: v if v == "heat" else _Problem(
        f"only heat is supported (scale model.chi instead), got {v!r}")),
    "model.kernel": (("kernel_kind",), lambda v: v if v in ("keller_segel", "none")
                     else _Problem(f"expected keller_segel|none, got {v!r}")),
    "initial.p0": (("p0_kind", "p0_args"), _p0_form),
    "initial.c0": (("c0_kind", "c0_args"), _c0_form),
    "discretization.l": (("half_width",), _positive("L must be > 0")),
    "discretization.n": (("n",), _number(lambda v: v >= 16 and v % 2 == 0,
                                         "n must be an even integer >= 16", cast=int)),
    "discretization.t": (("horizon",), _positive("T must be > 0")),
    "discretization.m": (("steps",), _count(1, "M must be a positive integer")),
    "particles.n": (("n_particles",), _count(2, "N must be an integer >= 2")),
    "particles.seed": (("seed",), lambda v: _seed_problem(v) or v),
    "particles.bandwidth": (("bandwidth",), lambda v: None if v == "auto" else _bandwidth(v)),
    "picard.safety": (("safety",), _number(lambda v: 0 < v < 1, "safety must be in (0,1)")),
    "picard.k_max": (("k_max",), _count(1, "k_max must be a positive integer")),
    "picard.tol": (("tol",), _positive("tol must be > 0")),
    "outputs.directory": (("out_dir",), str),
    "outputs.formats": (("formats",), _formats),
}


@dataclass
class RunConfig:
    """Validated run parameters; see the module docstring for the grammar."""

    chi: float = 1.0
    lam: float = 0.0
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

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_mapping(parse_config_text(Path(path).read_text()))

    @classmethod
    def from_mapping(cls, raw: Dict[str, object]) -> "RunConfig":
        cfg = cls()
        problems = [f"{key}: expected a finite number in each argument, got "
                    f"{v[0]}({', '.join(f'{a:g}' for a in v[1])})"
                    for key, v in raw.items() if isinstance(v, tuple) and v[0] != "samples"
                    and not all(map(math.isfinite, v[1]))]
        for key, (fields, check) in CONFIG_KEYS.items():
            if key not in raw:
                continue
            value = check(raw[key])
            if isinstance(value, _Problem):
                problems.append(f"{key}: {value}")
            else:
                for name, v in zip(fields, value if len(fields) > 1 else [value]):
                    setattr(cfg, name, v)
        problems += [f"unknown key {key}" for key in sorted(set(raw) - set(CONFIG_KEYS))]
        if problems:
            raise ConfigError(problems)
        return cfg

    # --- builders -----------------------------------------------------------

    def resolved_lines(self) -> List[str]:
        d = asdict(self)
        return [f"{k} = {d[k]!r}" for k in sorted(d)]

    def config_hash(self) -> str:
        return hashlib.sha256("\n".join(self.resolved_lines()).encode()).hexdigest()[:16]

    def make_grid(self) -> Grid1D:
        return Grid1D(half_width=self.half_width, n=self.n)

    def make_mesh(self) -> TimeMesh:
        return TimeMesh(self.horizon, self.steps)

    def make_spec(self) -> KernelSpec:
        return KernelSpec(chi=self.chi, lam=self.lam, kind=self.kernel_kind)

    def make_p0(self, grid: Grid1D) -> DensityField:
        with np.errstate(all="ignore"):   # an overflow leaves no mass, which is named below
            p0 = DensityField(grid, self._p0(grid), 0.0)
            try:
                return p0.normalized()
            except ValueError:   # normalized() found no positive mass
                L = grid.half_width
                raise ConfigError([f"initial.p0: no positive mass in the box [-{L:g}, {L:g}]"]) from None

    def _p0(self, grid: Grid1D) -> np.ndarray:
        if self.p0_kind == "gaussian":
            mean, var = self.p0_args
            return heat_kernel(var, grid.x - mean)
        if self.p0_kind == "uniform":
            a, b = self.p0_args
            lo = np.clip((np.minimum(grid.x + grid.h / 2.0, b) - np.maximum(grid.x - grid.h / 2.0, a)),
                         0.0, grid.h)
            return lo / (grid.h * (b - a))
        return _load_samples("initial.p0", self.p0_args[0], grid)

    def make_chem(self, grid: Grid1D) -> Optional[InitialChemical]:
        if self.c0_kind == "none":
            return None
        try:
            with np.errstate(all="ignore"):   # an overflow is named below
                return self._chem(grid)
        except ValueError:   # InitialChemical found a sample that is not finite
            args = ", ".join(f"{a:g}" if isinstance(a, float) else str(a) for a in self.c0_args)
            raise ConfigError([f"initial.c0: {self.c0_kind}({args}) or its derivative is not "
                               "finite on the grid"]) from None

    def _chem(self, grid: Grid1D) -> InitialChemical:
        if self.c0_kind == "sine":
            amp, freq = (self.c0_args + [1.0, 1.0])[:2]
            return InitialChemical.sine(grid, amp=amp, freq=freq)
        if self.c0_kind == "gaussian_bump":
            amp, width = (self.c0_args + [1.0, 1.0])[:2]
            return InitialChemical.gaussian_bump(grid, amp=amp, width=width)
        if self.c0_kind == "quadratic":
            (q,) = self.c0_args or [1.0]
            return InitialChemical.from_samples(grid, -q * grid.x ** 2 / 2.0, c0_prime=-q * grid.x)
        return InitialChemical.from_samples(grid, _load_samples("initial.c0", self.c0_args[0], grid))


@contextlib.contextmanager
def _allocation(keys: str, arrays: str):
    """Name keys when the with-block's arrays cannot be allocated: numpy
    refuses too many bytes (MemoryError) or elements (ValueError), and
    linspace a count past 2^63 - 1 (IndexError)."""
    try:
        yield
    except (MemoryError, ValueError, IndexError) as exc:
        raise ConfigError([f"{keys}: the {arrays} cannot be allocated ({exc})"]) from None


def _load_samples(key: str, path: str, grid: Grid1D) -> np.ndarray:
    """The grid.n finite values of a samples(path) file, else a ConfigError on key."""
    try:
        vals = np.loadtxt(path)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"{key}: cannot read samples({path}): {exc}"]) from None
    if vals.shape != (grid.n,) or not np.all(np.isfinite(vals)):
        raise ConfigError([f"{key}: samples({path}) must hold {grid.n} finite values, "
                           f"got shape {vals.shape}"])
    return vals


# --- report ----------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    value: float
    bound: float
    passed: bool
    detail: str = ""


@dataclass
class RunReport:
    """Per-command check records plus provenance and timings."""

    command: str
    config_hash: str
    seed: int
    records: List[CheckRecord] = field(default_factory=list)
    timings: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float, bound: float, passed: bool, detail: str = ""):
        if any(r.name == name for r in self.records):
            raise ValueError(f"duplicate check record {name!r}")
        self.records.append(CheckRecord(name, float(value), float(bound), bool(passed), detail))

    @contextlib.contextmanager
    def phase(self, name: str):
        """Time the with-block and add the seconds to timings[name]."""
        clock = time.perf_counter
        start = clock()
        yield
        self.timings[name] = self.timings.get(name, 0.0) + (clock() - start)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def lines(self) -> List[str]:
        out = [f"command: {self.command}  config: {self.config_hash}  seed: {self.seed}  "
               f"version: {__version__}"]
        for r in self.records:
            line = (f"  [{'PASS' if r.passed else 'FAIL'}] {r.name}: "
                    f"value {r.value:.6g} vs bound {r.bound:.6g}")
            out.append(f"{line}  ({r.detail})" if r.detail else line)
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


# values per formatter pass, and so per write.  A pass's temporaries peak at
# about 0.3 KB per value, most of it the 24 byte indices of each value's
# text, so a pass holds at most this many values: solve-wide's density.csv
# (n = 4096) then peaks at 0.93 MB (tracemalloc) and takes two passes per
# time row; one pass per row would peak at 1.3 MB
_VALUES_PER_PASS = 2048

# |x| in [_FAST_MIN, _FAST_MAX] is scaled by 10^s with s in [_S_MIN, _S_MAX],
# where the table's two doubles of 10^s and every partial product are normal
_FAST_MIN, _FAST_MAX = 1e-260, 1e290
_S_MIN, _S_MAX = -280, 280
_SPLIT = 134217729.0    # 2^27 + 1: Veltkamp's split of a double into two halves
_E16, _E17 = 10 ** 16, 10 ** 17
_E_MAX = 300            # the exponent table's range, [-_E_MAX, _E_MAX]

# columns of the 32 bytes a value's text is gathered from: "000d" (the
# leading digit d), four 4-digit limbs, |E| as "0htu", ".-e+", NULs
_ZERO, _DIGITS, _EXPONENT, _DOT, _MINUS, _EXP, _PLUS, _NUL = (
    0, range(3, 20), range(21, 24), 24, 25, 26, 27, 28)
_PUNCT = np.frombuffer(b".-e+\0\0\0\0", dtype=np.uint32)


def _split(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _format_tables():
    """The formatter's tables, built from integers on first use:
    - 10^s for s in [_S_MIN, _S_MAX] as hi + lo, hi correctly rounded and lo
      the rounded rest, with hi already split (Dekker, Numer. Math. 18, 1971);
    - the 4-character text "%04d" % i of each i < 10^4, as one uint32;
    - by exponent E in [-_E_MAX, _E_MAX]: the text of |E| and the first
      layout code of E's form;
    - for each layout code (see _text), the 24 source columns of the text,
      NUL-padded."""
    hi, lo = [], []
    for s in range(_S_MIN, _S_MAX + 1):
        if s >= 0:
            h = float(10 ** s)
            hi.append(h)
            lo.append(float(10 ** s - int(h)))
        else:   # int / int is correctly rounded
            d = 10 ** -s
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    limbs = np.frombuffer(b"".join(b"%04d" % i for i in range(10 ** 4)), dtype=np.uint32)
    E = np.arange(-_E_MAX, _E_MAX + 1)
    # forms 0-16: fixed with E = form >= 0; 17-20: fixed with E = 16 - form in
    # [-4, -1]; 21-24: exponential, by the exponent's sign and digit count
    form = np.where((E >= -4) & (E < 17), np.where(E >= 0, E, 16 - E),
                    21 + 2 * (E < 0) + (np.abs(E) >= 100))
    codes = []
    for f in range(25):
        for kept in range(1, 18):
            if f < 17:    # every integer digit stays
                point = f + 1
                end = max(kept, point)
                body = [*_DIGITS[:point], *([_DOT, *_DIGITS[point:end]] if end > point else [])]
            elif f < 21:
                body = [_ZERO, _DOT] + [_ZERO] * (f - 17) + [*_DIGITS[:kept]]
            else:
                negative, three = divmod(f - 21, 2)
                body = [_DIGITS[0], *([_DOT, *_DIGITS[1:kept]] if kept > 1 else []),
                        _EXP, _MINUS if negative else _PLUS, *_EXPONENT[1 - three:]]
            for sign in ([], [_MINUS]):
                codes.append(sign + body + [_NUL] * (24 - len(sign) - len(body)))
    tables = ((*_split(hi), hi, lo), limbs, limbs[np.abs(E)], 34 * form,
              np.array(codes, dtype=np.intp))
    return tables


def _scaled(a: np.ndarray, s: np.ndarray):
    """(D, off, tie) for a * 10^s: D the nearest integer, off = 1 where the
    product lies below 10^16 and -1 where it reaches 10^17, tie where its
    fraction is within 1e-9 of 1/2.  The product is Dekker's exact product
    of a and the table's hi plus a * lo; its error stays below 1e-14."""
    (bh, bl, b, blo), *_ = _format_tables()
    k = s - _S_MIN
    bh, bl, b, blo = bh[k], bl[k], b[k], blo[k]
    ah, al = _split(a)
    p = a * b
    rest = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * blo
    whole = np.floor(p)
    rest += p - whole
    below = np.floor(rest)
    rest -= below
    floor = whole.astype(np.int64) + below.astype(np.int64)
    off = (floor < _E16).astype(np.int64) - (floor >= _E17)
    return floor + (rest >= 0.5), off, np.abs(rest - 0.5) < 1e-9


def _digits(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, tie): |x| = D 10^(E - 16) to 17 significant digits,
    D in [10^16, 10^17), for a = |x| in [_FAST_MIN, _FAST_MAX].  E starts at
    floor(log10 a) and moves by one where the product misses [10^16, 10^17);
    a D that rounds up to 10^17 is 10^16 with E + 1."""
    E = np.floor(np.log10(a)).astype(np.int64)
    D, off, tie = _scaled(a, 16 - E)
    if off.any():
        moved = np.flatnonzero(off)
        E[moved] -= off[moved]
        D[moved], _, tie[moved] = _scaled(a[moved], 16 - E[moved])
    carry = D == _E17
    D[carry] = _E16
    E += carry
    return D, E, tie


def _text(D: np.ndarray, E: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The %.17g text of the signed D 10^(E - 16), as S24: gathered from the
    value's digits, exponent and punctuation by the columns of its layout
    code, 34 form + 2 (kept - 1) + sign.  The form says fixed or exponential
    and where the point goes, kept how many digits stay once trailing zeros
    are stripped."""
    _, limbs, exponents, forms, codes = _format_tables()
    src = np.empty((D.size, 8), dtype=np.uint32)
    for col in (4, 3, 2, 1):
        D, limb = np.divmod(D, 10 ** 4)
        src[:, col] = limbs[limb]
    src[:, 0] = limbs[D]
    src[:, 5] = exponents[E + _E_MAX]
    src[:, 6:] = _PUNCT
    text = src.view(np.uint8)
    # trailing "0" digits, counted from the last; the leading digit is not 0
    stripped = np.argmin(text[:, _DIGITS[-1]:_DIGITS[0] - 1:-1] == ord("0"), axis=1)
    index = np.take(codes, forms[E + _E_MAX] + 2 * (16 - stripped) + negative, axis=0)
    del stripped   # freed before the index grows: the index is the pass's peak
    index += np.arange(0, 32 * D.size, 32)[:, None]
    # every index is in range: clip never clips, and unlike the default mode
    # it writes the text without a buffer of its size
    out = np.empty((D.size, 24), dtype=np.uint8)
    np.take(text.ravel(), index, out=out, mode="clip")
    return out.view("S24").ravel()


def _format_block(v: np.ndarray) -> np.ndarray:
    """The bytes of "%.17g" % x for each x in v, as S24.  0 and -0 are
    written as such; ties within 1e-9 of a half, inf, nan and |x| outside
    [_FAST_MIN, _FAST_MAX] take "%.17g" itself, which makes the text exact
    (Gay, 1990: correctly rounded binary-decimal conversion)."""
    a = np.abs(v)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    zero = a == 0.0
    a[~fast] = 1.0
    D, E, tie = _digits(a)
    del a   # freed before the text stage, the pass's peak
    negative = np.signbit(v)
    out = _text(D, E, negative)
    out[zero] = np.where(negative[zero], b"-0", b"0")
    slow = np.flatnonzero(~(fast | zero) | tie)
    if slow.size:
        out[slow] = [b"%.17g" % x for x in v[slow].tolist()]
    return out


def _format17(v) -> np.ndarray:
    """The bytes of "%.17g" % x for each float x of v, flattened, as S24;
    _VALUES_PER_PASS values per pass."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size <= _VALUES_PER_PASS:   # one pass: its text, not a copy beside it
        return _format_block(v)
    out = np.empty(v.size, dtype="S24")
    for s in range(0, v.size, _VALUES_PER_PASS):
        out[s:s + _VALUES_PER_PASS] = _format_block(v[s:s + _VALUES_PER_PASS])
    return out


def _text_bytes(values, shape: Tuple[int, ...]) -> np.ndarray:
    return _format17(values).view(np.uint8).reshape(*shape, 24)


def _row_buffer(shape: Tuple[int, ...], fields: int, sep: str) -> np.ndarray:
    """Rows of fields slots: 24 bytes of text, NUL padded, and a separator,
    the last one a newline.  The writers drop the padding, buf[buf != 0]."""
    buf = np.zeros((*shape, fields, 25), dtype=np.uint8)
    buf[..., 24] = ord(sep)
    buf[..., -1, 24] = ord("\n")
    return buf


def _write_rows(fh, cols: Sequence[np.ndarray], sep: str):
    """Equal-length columns as %.17g rows joined by sep, one pass of
    _VALUES_PER_PASS values (whole rows, at least one) per write."""
    cols = [np.asarray(c, dtype=float).ravel() for c in cols]
    if len({c.size for c in cols}) != 1:
        raise ValueError("columns must have equal length")
    n, rows = cols[0].size, max(1, _VALUES_PER_PASS // len(cols))
    buf = _row_buffer((min(n, rows),), len(cols), sep)
    for s in range(0, n, rows):
        block = buf[:min(n - s, rows)]
        block[:, :, :24] = _text_bytes(np.column_stack([c[s:s + rows] for c in cols]),
                                       block.shape[:2])
        fh.write(block[block != 0])


def write_csv(path: Path, header: Sequence[str], columns: Sequence[np.ndarray]):
    """Column-oriented CSV at 17 significant digits (exact float round-trip)."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        _write_rows(fh, columns, ",")


def write_plot_table(path: Path, columns: Sequence[np.ndarray], comment: str = ""):
    """gnuplot-style whitespace table."""
    with open(path, "wb") as fh:
        if comment:
            fh.write(f"# {comment}\n".encode())
        _write_rows(fh, columns, " ")


def _write_long_form(path: Path, header: Sequence[str], t: np.ndarray, x: np.ndarray,
                     tables: Sequence[np.ndarray]):
    """CSV with one (t_k, x_i, v[k, i] for v in tables) row per node pair,
    the same text as write_csv of the repeated t and tiled x columns.  Each
    t_k and x_i is formatted once.  A pass of _VALUES_PER_PASS table values
    is whole time rows, or a run of x nodes within one time row: its t text
    is broadcast, its x text a slice, and it formats only table values."""
    t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    tables = [np.asarray(v, dtype=float) for v in tables]
    if any(v.shape != (t.size, x.size) for v in tables):
        raise ValueError("value tables must have shape (len(t), len(x))")
    t_text, x_text = _text_bytes(t, t.shape), _text_bytes(x, x.shape)
    cols = max(1, min(x.size, _VALUES_PER_PASS // len(tables)))
    rows = max(1, _VALUES_PER_PASS // (len(tables) * cols))
    buf = _row_buffer((min(t.size, rows), cols), 2 + len(tables), ",")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for k in range(0, t.size, rows):
            for i in range(0, x.size, cols):
                block = buf[:min(t.size - k, rows), :min(x.size - i, cols)]
                r, c = block.shape[:2]
                block[:, :, 0, :24] = t_text[k:k + r, None]
                block[:, :, 1, :24] = x_text[i:i + c]
                block[:, :, 2:, :24] = _text_bytes(
                    np.stack([v[k:k + r, i:i + c] for v in tables], axis=-1), (r, c, len(tables)))
                fh.write(block[block != 0])


def write_history_csv(path: Path, history: mild.MarginalHistory):
    """Long-form density table: one (t, x, p) row per node pair."""
    _write_long_form(path, ("t", "x", "p"), history.mesh.nodes, history.grid.x,
                     (history.densities,))


def write_field_csv(path: Path, fields: Sequence[ChemicalField]):
    """Long-form chemical table: one (t, x, c, dc) row per field and node."""
    _write_long_form(path, ("t", "x", "c", "dc"), [f.time_tag for f in fields],
                     fields[0].grid.x, ([f.values for f in fields],
                                        [f.gradient for f in fields]))


# --- commands --------------------------------------------------------------


def _out_dir(cfg: RunConfig, override: Optional[str]) -> Path:
    chosen = override or os.environ.get(ENV_OUT_DIR) or cfg.out_dir
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _contraction_horizon(cfg: RunConfig, spec: KernelSpec) -> float:
    """find_T0 at picard.safety, refused where it underflows: to 0, or so far
    that T / T0 overflows."""
    T0 = find_T0(spec, cfg.safety)
    if T0 == 0.0 or cfg.horizon / T0 == math.inf:
        raise ConfigError([f"picard.safety, model.chi: the contraction horizon T0 underflows "
                           f"at safety {cfg.safety:g} and chi {cfg.chi:g} (T0 = {T0:.3g}); "
                           "raise picard.safety or lower model.chi"])
    return T0


def cmd_check_kernel(cfg: RunConfig, out: Path, run: RunReport):
    with run.phase("check"):
        spec = cfg.make_spec()
        # T0 = inf when D saturates below the safety level: Picard then
        # contracts on every horizon, and D(inf) is that saturation level
        T0 = _contraction_horizon(cfg, spec)
        with _allocation("discretization.m", f"arrays of {cfg.steps:.6g} time steps"):
            report = check_hypotheses(spec, cfg.make_mesh())
        D0 = horizon_D(spec, T0) if has_memory(spec) else 0.0
    for key, item in report.items.items():
        run.add(key, item.value, item.bound, item.passed, f"{item.name}: {item.detail}")
    run.add("contraction_D_at_T0", D0, cfg.safety, D0 <= cfg.safety * (1.0 + 1e-9),
            f"contraction horizon T0 = {T0:.10g}; D(T={cfg.horizon:g}) = {report.D_of_T:.6g}")


def cmd_solve(cfg: RunConfig, out: Path, run: RunReport, mode: str = "march"):
    spec, grid = cfg.make_spec(), cfg.make_grid()
    if mode != "march":   # the restart's windows are at most T0 long
        _contraction_horizon(cfg, spec)
    with _allocation("discretization.n", f"arrays of {cfg.n:.6g} grid points"):
        p0 = cfg.make_p0(grid)
        chem = cfg.make_chem(grid)
    with run.phase("solve"), _allocation("discretization.m", f"arrays of {cfg.steps:.6g} time steps"):
        try:
            history = mild.solve_global(p0, spec, chem, grid, cfg.horizon, mode=mode,
                                        steps=cfg.steps, safety=cfg.safety,
                                        k_max=cfg.k_max, tol=cfg.tol)
        except mild.RestartTooLargeError as exc:
            raise ConfigError([f"model.chi, discretization.t, discretization.m, picard.safety: "
                               f"the restart cuts T = {cfg.horizon:g} into {exc}; lower "
                               "model.chi, discretization.t or discretization.m, or raise "
                               "picard.safety"]) from None
    # the restart rounds the step count up to a multiple of its windows
    mesh = history.mesh

    drift = history.max_mass_drift()
    run.add("mass_drift", drift, 1e-3, drift <= 1e-3)

    with run.phase("write"):
        if "csv" in cfg.formats:
            write_history_csv(out / "density.csv", history)
            with np.errstate(over="ignore"):   # l2 reads inf where the squares overflow
                l2 = np.sqrt(np.sum(history.densities ** 2, axis=1) * grid.h)
            write_csv(out / "summary.csv", ("t", "mass", "linf", "l2"),
                      (mesh.nodes, history.masses(), np.max(np.abs(history.densities), axis=1), l2))
        if "plot" in cfg.formats:
            write_plot_table(out / "density_final.dat", (grid.x, history.densities[-1]),
                             comment=f"x p at t={cfg.horizon:g}")

    if chem is not None and "csv" in cfg.formats:
        with run.phase("field"):
            fields = [chemical_concentration(history, chem, cfg.lam, k)
                      for k in sorted({1, mesh.steps // 2, mesh.steps})]
        with run.phase("write"):
            write_field_csv(out / "field.csv", fields)


def cmd_picard(cfg: RunConfig, out: Path, run: RunReport):
    spec, grid = cfg.make_spec(), cfg.make_grid()
    horizon = min(cfg.horizon, _contraction_horizon(cfg, spec))
    mesh = TimeMesh(horizon, cfg.steps)
    with _allocation("discretization.n", f"arrays of {cfg.n:.6g} grid points"):
        p0 = cfg.make_p0(grid)
        chem = cfg.make_chem(grid)
    with _allocation("discretization.m", f"arrays of {cfg.steps:.6g} time steps"):
        with run.phase("picard"):
            fixed_point, distances = mild.picard(p0, spec, chem, grid, mesh,
                                                 k_max=cfg.k_max, tol=cfg.tol)
        march_hist = mild.march(p0, spec, chem, grid, mesh)
    gap = mild._sup_l1_distance(fixed_point.densities, march_hist.densities, grid.h)
    converged = distances[-1] < cfg.tol
    run.add("iteration_converged", distances[-1], cfg.tol, converged,
            f"D(T={horizon:g}) = {horizon_D(spec, horizon):.6g}; distances: "
            + " ".join(f"{d:.3e}" for d in distances))
    run.add("iterate_vs_march_l1", gap, max(cfg.tol * 10.0, 1e-3), gap <= max(cfg.tol * 10.0, 1e-3))
    if "csv" in cfg.formats:
        with run.phase("write"):
            write_csv(out / "picard_distances.csv", ("iterate", "l1_distance"),
                      (np.arange(1, len(distances) + 1, dtype=float), np.array(distances)))


def cmd_particles(cfg: RunConfig, out: Path, run: RunReport):
    spec, grid, mesh = cfg.make_spec(), cfg.make_grid(), cfg.make_mesh()
    with _allocation("discretization.n", f"arrays of {cfg.n:.6g} grid points"):
        p0 = cfg.make_p0(grid)
        chem = cfg.make_chem(grid)
    with run.phase("march_oracle"), _allocation("discretization.m", f"arrays of {cfg.steps:.6g} time steps"):
        oracle = mild.march(p0, spec, chem, grid, mesh)

    ladder = sorted({min(cfg.n_particles, max(100, cfg.n_particles // 10)), cfg.n_particles})
    l1s = []
    with run.phase("particles"):
        for N in ladder:
            with _allocation("particles.n", f"buffers of {cfg.n_particles:.6g} particles"):
                ens = simulate_particles(N, p0, spec, chem, mesh, cfg.seed, store_rows=[mesh.steps])
            kde = kde_density(ens, -1, bandwidth=cfg.bandwidth)
            l1s.append(float(grid.integrate(np.abs(kde.values - oracle.densities[-1]))))
    if len(ladder) == 2:    # at particles.n <= 100 the one rung has no trend to check
        small, large = l1s
        run.add("mean_field_l1_nonincreasing", large, small * 1.02, large <= small * 1.02,
                "  ".join(f"N={N}: L1={e:.4f}" for N, e in zip(ladder, l1s)))
    if "csv" in cfg.formats:
        with run.phase("write"):
            write_csv(out / "mean_field.csv", ("n_particles", "l1_vs_solver"),
                      (np.array(ladder, dtype=float), np.array(l1s)))


def _histogram_error_ratio(counts: np.ndarray, ref: np.ndarray, width: float,
                           N: int, dt: float) -> float:
    """The worst bin's improbability, log(1 / p-value) / log(1 / level); the
    check passes at <= 1.

    A bin holding count c of N paths alarms only when c is improbable under
    every bin probability within allowance = 0.14 sqrt(dt) width of the
    reference's, ref * width.  Its p-value is twice the smaller of the exact
    binomial tails P(X >= c) at the largest of those probabilities and
    P(X <= c) at the smallest, and level = QZ_HISTOGRAM_ALPHA / bins is the
    Bonferroni level that keeps the chance of any bin alarming on a correct
    reference below QZ_HISTOGRAM_ALPHA, sparse bins included.  The allowance
    bounds the Euler scheme's bias in the attractor bin, where the drift
    jumps (weak order 1/2 there): at N = 1e6 that bin was off by 1.9e-2,
    9.8e-3 and 3.7e-3 in density at dt = 0.02, 0.008 and 0.004.
    """
    p, allowance = ref * width, 0.14 * math.sqrt(dt) * width
    # P(X <= c) at probability q is P(N - X >= N - c) at 1 - q; one call
    # takes both tails of every bin
    tails = binomial_sf(np.concatenate([counts, N - counts]), N,
                        np.minimum(np.concatenate([p + allowance, 1.0 - p + allowance]), 1.0))
    above, below = tails[: counts.size], tails[counts.size :]
    p_values = np.minimum(2.0 * np.minimum(above, below), 1.0)
    with np.errstate(divide="ignore"):
        worst = float(np.max(np.log(1.0 / p_values)))
    return worst / math.log(counts.size / QZ_HISTOGRAM_ALPHA)


def _attracting_sign_drift(beta: float, N: int):
    """The Euler displacement dt b(t, x) of b(t, x) = beta sign(0 - x) for N
    positions, as (t, dt, x) -> fl(beta sign(0 - x) dt) bit for bit, into two
    reused N-vectors: the caller must use the returned array, which is never
    x, before the next call.  When no x is zero or NaN, each displacement
    is one of two constants, fl(-beta dt) or fl(beta dt) as x's sign bit is
    clear or set (built once per dt by that same arithmetic), written by
    putting that bit into the first one's on the int64 views: two bitwise
    passes, and no sign or multiply pass.  Any zero (either sign) or NaN
    takes the expression's four ufuncs, with the sign out of place, since
    numpy's in-place sign took 120-152 us per 2e4-vector."""
    diff, step = np.empty(N), np.empty(N)
    bits = step.view(np.int64)
    sign_bit = np.int64(np.iinfo(np.int64).min)
    # the step size the constants were built for, the first one's int64 word,
    # and whether the bit rule holds
    table_dt, right, bit_rule = None, None, False

    def displacement(t: float, dt: float, x: np.ndarray) -> np.ndarray:
        nonlocal table_dt, right, bit_rule
        if table_dt != dt:
            right, left = np.multiply(beta * np.sign(0.0 - np.array([1.0, -1.0])),
                                      dt).view(np.int64)
            # the rule holds when the two constants differ in the sign bit
            # alone, as they do for every beta and dt but NaN
            bit_rule, table_dt = (right ^ left) == sign_bit, dt
        if bit_rule and np.abs(x, out=diff).min() > 0.0:
            np.bitwise_and(x.view(np.int64), sign_bit, out=bits)
            np.bitwise_xor(bits, right, out=bits)
            return step
        np.subtract(0.0, x, out=diff)
        np.sign(diff, out=step)
        np.multiply(beta, step, out=step)
        return np.multiply(step, dt, out=step)
    return displacement


def _qz_mass(p: QZParams) -> float:
    """Integral of qz_density(p, .) over 10 sqrt(t) + beta t + 2 beyond x and
    y, by the 8-point Gauss-Legendre rule on panels split at x and y, where
    the density has its kinks, and no wider than a quarter of its shortest
    length scale, min(sqrt(t), 1 / beta)."""
    w = 10.0 * math.sqrt(p.t) + p.beta * p.t + 2.0
    scale = math.sqrt(p.t) if p.beta == 0.0 else min(math.sqrt(p.t), 1.0 / p.beta)
    stops = [min(p.x, p.y) - w, min(p.x, p.y), max(p.x, p.y), max(p.x, p.y) + w]
    edges = np.concatenate([stops[:1]] + [
        np.linspace(a, b, math.ceil(4.0 * (b - a) / scale) + 1)[1:]
        for a, b in zip(stops, stops[1:])])
    nodes, weights = gauss_legendre(edges)
    return float(np.sum(weights * qz_density(p, nodes)))


def cmd_qz(cfg: RunConfig, out: Path, run: RunReport):
    with run.phase("qz"):
        worst_norm = 0.0
        for beta in (0.0, 0.25, 1.0, 4.0):
            for t in (0.1, 1.0, 5.0):
                val = _qz_mass(QZParams(beta=beta, y=0.3, x=-0.8, t=t))
                worst_norm = max(worst_norm, abs(val - 1.0))
        run.add("normalization", worst_norm, 1e-6, worst_norm <= 1e-6)

        p0 = QZParams(beta=0.0, y=0.0, x=1.0, t=0.7)
        zs = np.linspace(-4.0, 4.0, 41)
        g = np.exp(-(zs - 1.0) ** 2 / 1.4) / math.sqrt(2.0 * math.pi * 0.7)
        red = float(np.max(np.abs(qz_density(p0, zs) - g)))
        run.add("beta0_reduction", red, 1e-12, red <= 1e-12)

        mesh = TimeMesh(1.0, 1000)
        beta = 0.5
        with _allocation("particles.n", f"buffers of {cfg.n_particles:.6g} particles"):
            ens = simulate_bounded_drift(_attracting_sign_drift(beta, cfg.n_particles),
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
        nodes, weights = gauss_legendre(np.linspace(edges[0], edges[-1], 2 * zs.size + 1))
        ref = np.sum((weights * qz_density(p_ref, nodes)).reshape(zs.size, -1), axis=1) / width
        mc_ratio = _histogram_error_ratio(counts, ref, width, ens.n_particles, mesh.dt)
        run.add("mc_histogram_sup", mc_ratio, 1.0, mc_ratio <= 1.0)

        rep = verify_bound(ens, beta, bins=50)
        run.add("bound_violations", float(len(rep.violations)), 0.0, rep.passed,
                f"smallest bin p-value {rep.min_p_value():.3g} vs level {rep.level:.3g}")
    if "csv" in cfg.formats:
        with run.phase("write"):
            write_csv(out / "qz_histogram.csv", ("z", "mc_density", "closed_form"),
                      (zs, dens, ref))


# --- entry point -----------------------------------------------------------


SOLVE_MODES = ("march", "picard_with_restart")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    ap = argparse.ArgumentParser(prog="ksmv", description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="path to a run config file")
    ap.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUT_DIR} or config)")
    ap.add_argument("--seed", type=int, default=None, help="override particles.seed")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("check-kernel", help="run the kernel admissibility checks")
    sp = sub.add_parser("solve", help="solve the density equation")
    sp.add_argument("--mode", choices=SOLVE_MODES, default="march")
    sub.add_parser("picard", help="fixed-point iteration diagnostics on the contraction horizon")
    sub.add_parser("particles", help="particle simulation and mean-field comparison")
    sub.add_parser("qz", help="comparison-density oracles and the universal bound")
    return ap


# report command name -> (command, report file); each command adds its check
# records and timings to the RunReport that main prints and writes
COMMANDS = {
    "check-kernel": (cmd_check_kernel, "check_kernel_report.json"),
    **{f"solve[{mode}]": (functools.partial(cmd_solve, mode=mode), f"solve_report_{mode}.json")
       for mode in SOLVE_MODES},
    "picard": (cmd_picard, "picard_report.json"),
    "particles": (cmd_particles, "particles_report.json"),
    "qz": (cmd_qz, "qz_report.json"),
}


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
        problem = _seed_problem(args.seed)
        if problem:
            print(f"--seed: {problem}", file=sys.stderr)
            return 2
        cfg.seed = args.seed
    out = _out_dir(cfg, args.out)
    name = f"solve[{args.mode}]" if args.command == "solve" else args.command
    command, report_file = COMMANDS[name]
    run = RunReport(name, cfg.config_hash(), cfg.seed)
    try:
        command(cfg, out, run)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except mild.SchemeInstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 1
    except mild.PicardDivergenceError as exc:
        print(f"divergence: distances {exc.distances}", file=sys.stderr)
        return 1
    for line in run.lines():
        print(line)
    run.write(out / report_file)
    return 0 if run.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
