"""In-memory span tracer for the traced benchmark run.

The tracer wraps public ksmv functions at the module attribute each consumer
looks them up through (for example `ksmv.cli.simulate_particles`, the name
`cmd_particles` calls), so no program file changes.  Every wrapped call
records a span (name, start, end, parent) under one trace id; spans stay in
memory and are written out when the run ends.  `scipy.integrate.quad` calls
are counted against the innermost open span.  Private helpers such as
`_noise_block` and `_weight_symbol_stack` are not wrapped: their cost lands
in the self time of their public caller.

Span names are `<layer>.<operation>`, with layers named after the ksmv
modules (cli, mild, field, kernel, particle, qz).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: str
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# annotate(bound_arguments, result) -> counts recorded on the span
Annotator = Callable[[inspect.BoundArguments, object], Dict[str, float]]


class Tracer:
    """Collects the spans of one workload run; wrap() and count_calls() patch
    ksmv or scipy attributes, restore() undoes every patch."""

    def __init__(self, trace_id: str, clock: Callable[[], float] = time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # --- spans ---------------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), float("nan"), parent, self.trace_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span):
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def count(self, key: str, n: float = 1.0):
        """Add n to `key` on the innermost open span (dropped if none is open)."""
        if self._stack:
            counts = self._stack[-1].counts
            counts[key] = counts.get(key, 0.0) + n

    def traced(self, name: Callable[..., str] | str, fn: Callable,
               annotate: Optional[Annotator] = None) -> Callable:
        signature = inspect.signature(fn) if (annotate or callable(name)) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            span = self.begin(name(bound) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if annotate is not None:
                span.counts.update(annotate(bound, result))
            return result

        return wrapper

    # --- patching ------------------------------------------------------------

    def wrap(self, owner: object, attr: str, name, annotate: Optional[Annotator] = None):
        """Replace owner.attr (a module function, method or classmethod) by a
        traced wrapper; restore() puts the original back."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.traced(name, original.__func__, annotate))
        else:
            replacement = self.traced(name, original, annotate)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def count_calls(self, owner: object, attr: str, key: str):
        """Count calls of owner.attr against the innermost open span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.count(key)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path):
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


# --- self time -------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children clipped to the parent and merged first)."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


# --- ksmv instrumentation ----------------------------------------------------


def _file_bytes(bound, _result) -> Dict[str, float]:
    path = bound.arguments["path"]
    return {"bytes": float(os.path.getsize(path))}


def _march_counts(bound, _result) -> Dict[str, float]:
    a = bound.arguments
    n, M = a["grid"].n, a["mesh"].steps
    # step k > 0 multiplies k symbol rows with k spectra rows over n/2 + 1
    # frequencies; every MAC reads one complex128 from each (computed bytes)
    macs = (n // 2 + 1) * M * (M - 1) / 2.0 if a["spec"].chi > 0 else 0.0
    return {"node_steps": float(n * M), "memory_macs": macs, "memory_bytes": 32.0 * macs}


def _picard_counts(_bound, result) -> Dict[str, float]:
    _histories, distances = result
    return {"iterations": float(len(distances))}


def _interacting_counts(bound, _result) -> Dict[str, float]:
    a = bound.arguments
    N, M = a["N"], a["mesh"].steps
    # (M+1) x N paths plus M x N noise, float64
    return {"particle_steps": float(N * M), "path_bytes": 8.0 * (2 * M + 1) * N}


def _independent_counts(bound, _result) -> Dict[str, float]:
    a = bound.arguments
    N, M = a["N"], a["mesh"].steps
    rows = a["store_rows"]
    n_rows = M + 1 if rows is None else len(set(rows) | {0})
    block = min(a["block"], N)
    # stored rows for all particles plus one block's M x B noise, float64
    return {"particle_steps": float(N * M), "path_bytes": 8.0 * (n_rows * N + M * block)}


def _solve_name(bound) -> str:
    mode = bound.arguments.get("mode", "march")
    return "mild.restart" if mode == "picard_with_restart" else "mild.solve_global"


def instrument_ksmv(tracer: Tracer):
    """Wrap every public ksmv function a per-layer metric needs, at each
    module attribute its consumers look it up through."""
    import scipy.integrate
    from ksmv import cli, field as kfield, kernel, mild, particle, qz

    tracer.wrap(cli.RunConfig, "from_file", "cli.config")
    for attr in ("write_csv", "write_plot_table", "write_history_csv", "write_field_csv"):
        tracer.wrap(cli, attr, "cli.write", _file_bytes)
    tracer.wrap(cli.RunReport, "write", "cli.write", _file_bytes)

    tracer.wrap(mild, "march", "mild.march", _march_counts)
    tracer.wrap(mild, "solve_global", _solve_name)
    tracer.wrap(mild, "picard", "mild.picard", _picard_counts)

    for owner in (cli, kfield):
        tracer.wrap(owner, "chemical_concentration", "field.chem")
    tracer.wrap(cli, "ks_residual", "field.ks_residual")
    for owner in (mild, particle):
        tracer.wrap(owner, "drift_b", "field.drift_b")

    tracer.wrap(cli, "check_hypotheses", "kernel.check")
    for owner in (cli, mild, kernel):
        tracer.wrap(owner, "find_T0", "kernel.find_T0")

    tracer.wrap(cli, "simulate_particles", "particle.interacting", _interacting_counts)
    tracer.wrap(cli, "simulate_bounded_drift", "particle.independent", _independent_counts)
    tracer.wrap(cli, "kde_density", "particle.kde")

    for owner in (cli, qz):
        tracer.wrap(owner, "qz_density", "qz.density")
    tracer.wrap(cli, "verify_bound", "qz.verify_bound")

    tracer.count_calls(scipy.integrate, "quad", "quad_calls")


# --- per-layer metrics -------------------------------------------------------

# name -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "cli.config_s": ("s", "lower"),
    "mild.march_s": ("s", "lower"),
    "mild.node_steps_per_s": ("1/s", "higher"),
    "mild.memory_macs": ("count", "lower"),
    "mild.memory_bytes": ("bytes", "lower"),
    "mild.restart_s": ("s", "lower"),
    "mild.picard_s": ("s", "lower"),
    "mild.picard_iterations": ("count", "lower"),
    "mild.windows": ("count", "lower"),
    "field.chem_s": ("s", "lower"),
    "field.chem_calls": ("count", "lower"),
    "field.ks_residual_s": ("s", "lower"),
    "field.drift_b_s": ("s", "lower"),
    "field.drift_b_calls": ("count", "lower"),
    "kernel.check_s": ("s", "lower"),
    "kernel.find_T0_s": ("s", "lower"),
    "kernel.quad_calls": ("count", "lower"),
    "particle.interacting_s": ("s", "lower"),
    "particle.steps_per_s": ("1/s", "higher"),
    "particle.kde_s": ("s", "lower"),
    "particle.independent_s": ("s", "lower"),
    "particle.path_bytes": ("bytes", "lower"),
    "qz.density_s": ("s", "lower"),
    "qz.density_calls": ("count", "lower"),
    "qz.quad_calls": ("count", "lower"),
    "qz.verify_bound_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer metrics of one session's spans (all but trace.overhead_s,
    which needs the untraced sessions)."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def self_s(name):
        return sum(selfs[s.span_id] for s in named(name))

    def total_s(name):
        return sum(s.duration for s in named(name))

    def summed(name, key):
        return sum(s.counts.get(key, 0.0) for s in named(name))

    def layer_count(layer, key):
        return sum(s.counts.get(key, 0.0) for s in spans if s.layer == layer)

    outer_writes = [s for s in named("cli.write")
                    if s.parent is None or by_id[s.parent].name != "cli.write"]
    bytes_written = sum(s.counts.get("bytes", 0.0) for s in outer_writes)
    windows = [s for s in named("mild.picard")
               if s.parent is not None and by_id[s.parent].name == "mild.restart"]
    path_bytes = [s.counts["path_bytes"] for s in spans if "path_bytes" in s.counts]
    return {
        "cli.write_s": self_s("cli.write"),
        "cli.bytes_written": bytes_written,
        "cli.write_mb_per_s": _ratio(bytes_written / 1e6, self_s("cli.write")),
        "cli.config_s": self_s("cli.config"),
        "mild.march_s": self_s("mild.march"),
        "mild.node_steps_per_s": _ratio(summed("mild.march", "node_steps"), total_s("mild.march")),
        "mild.memory_macs": summed("mild.march", "memory_macs"),
        "mild.memory_bytes": summed("mild.march", "memory_bytes"),
        "mild.restart_s": self_s("mild.restart"),
        "mild.picard_s": self_s("mild.picard"),
        "mild.picard_iterations": summed("mild.picard", "iterations"),
        "mild.windows": float(len(windows)),
        "field.chem_s": self_s("field.chem"),
        "field.chem_calls": float(len(named("field.chem"))),
        "field.ks_residual_s": self_s("field.ks_residual"),
        "field.drift_b_s": self_s("field.drift_b"),
        "field.drift_b_calls": float(len(named("field.drift_b"))),
        "kernel.check_s": self_s("kernel.check"),
        "kernel.find_T0_s": self_s("kernel.find_T0"),
        "kernel.quad_calls": layer_count("kernel", "quad_calls"),
        "particle.interacting_s": self_s("particle.interacting"),
        "particle.steps_per_s": _ratio(summed("particle.interacting", "particle_steps"),
                                       total_s("particle.interacting")),
        "particle.kde_s": self_s("particle.kde"),
        "particle.independent_s": self_s("particle.independent"),
        "particle.path_bytes": max(path_bytes, default=0.0),
        "qz.density_s": self_s("qz.density"),
        "qz.density_calls": float(len(named("qz.density"))),
        "qz.quad_calls": layer_count("qz", "quad_calls"),
        "qz.verify_bound_s": self_s("qz.verify_bound"),
    }
