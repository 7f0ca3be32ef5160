"""Tests of the benchmark itself: span self times, tracer patching, the
per-layer arithmetic, generated configs and the correctness gate."""

import json
import types

import numpy as np
import pytest

import gate
import spans
from spans import Span, Tracer, layer_metrics, self_times
from workloads import WORKLOADS, Command


def _span(i, name, start, end, parent=None, **counts):
    return Span(i, name, float(start), float(end), parent, "t", dict(counts))


class FakeClock:
    """Advances one tick per reading, so every span edge is distinct."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


# --- self time -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    tree = [_span(0, "a.root", 0, 10), _span(1, "a.child", 1, 4, 0),
            _span(2, "a.grandchild", 2, 3, 1), _span(3, "a.child", 5, 7, 0)]
    got = self_times(tree)
    assert got == {0: 10 - 3 - 2, 1: 3 - 1, 2: 1, 3: 2}


def test_self_time_merges_overlap_and_clips_to_parent():
    tree = [_span(0, "a.root", 0, 10), _span(1, "a.x", 1, 4, 0),
            _span(2, "a.y", 3, 6, 0), _span(3, "a.z", 9, 12, 0)]
    # union of children inside [0, 10] is [1, 6] + [9, 10]
    assert self_times(tree)[0] == pytest.approx(10 - 5 - 1)


def test_self_times_sum_to_root_duration_for_nested_spans():
    tree = [_span(0, "s", 0, 100), _span(1, "a.f", 10, 50, 0), _span(2, "b.g", 20, 30, 1),
            _span(3, "b.g", 31, 45, 1), _span(4, "a.f", 60, 90, 0)]
    assert sum(self_times(tree).values()) == pytest.approx(100)


# --- tracer ------------------------------------------------------------------


def _toy_module():
    mod = types.ModuleType("toy")

    def inner(x):
        mod.counter(x)
        return x + 1

    def outer(x, scale=2):
        return mod.inner(x) * scale

    mod.inner, mod.outer, mod.counter = inner, outer, lambda x: None
    return mod


def test_tracer_records_nesting_counts_and_restores():
    mod = _toy_module()
    originals = (mod.inner, mod.outer, mod.counter)
    tracer = Tracer("run-1", clock=FakeClock())
    tracer.wrap(mod, "outer", "a.outer", lambda bound, result: {"scale": bound.arguments["scale"],
                                                                   "result": result})
    tracer.wrap(mod, "inner", "b.inner")
    tracer.count_calls(mod, "counter", "calls")
    root = tracer.begin("session")
    assert mod.outer(3) == 8
    tracer.end(root)
    tracer.restore()

    assert (mod.inner, mod.outer, mod.counter) == originals
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("session", None), ("a.outer", 0), ("b.inner", 1)]
    assert tracer.spans[1].counts == {"scale": 2, "result": 8}
    assert tracer.spans[2].counts == {"calls": 1.0}
    assert {s.trace_id for s in tracer.spans} == {"run-1"}
    # clock ticks: session 1..6, outer 2..5, inner 3..4
    assert self_times(tracer.spans) == {0: 2.0, 1: 2.0, 2: 1.0}


def test_tracer_wraps_classmethods():
    class Thing:
        @classmethod
        def make(cls, v):
            return cls, v

    tracer = Tracer("t")
    tracer.wrap(Thing, "make", "a.make")
    assert Thing.make(5) == (Thing, 5)
    tracer.restore()
    assert isinstance(Thing.__dict__["make"], classmethod)
    assert [s.name for s in tracer.spans] == ["a.make"]


def test_instrumentation_is_fully_undone():
    from ksmv import cli, field, kernel, mild, particle, qz
    import scipy.integrate

    mods = (cli, field, kernel, mild, particle, qz, scipy.integrate)
    before = [dict(vars(m)) for m in mods]
    before_cls = (cli.RunConfig.__dict__["from_file"], cli.RunReport.__dict__["write"])
    tracer = Tracer("t")
    spans.instrument_ksmv(tracer)
    assert cli.simulate_particles is not before[0]["simulate_particles"]
    tracer.restore()
    assert [dict(vars(m)) for m in mods] == before
    assert (cli.RunConfig.__dict__["from_file"], cli.RunReport.__dict__["write"]) == before_cls


# --- per-layer metrics -------------------------------------------------------


def test_layer_metrics_arithmetic():
    tree = [
        _span(0, "session", 0, 20),
        _span(1, "cli.write", 1, 5, 0, bytes=1000.0),      # write_history_csv
        _span(2, "cli.write", 2, 4, 1, bytes=1000.0),      # its inner write_csv
        _span(3, "mild.march", 5, 9, 0, node_steps=400.0, memory_macs=10.0,
              memory_bytes=320.0),
        _span(4, "field.drift_b", 6, 7, 3),
        _span(5, "mild.restart", 9, 19, 0),
        _span(6, "mild.picard", 10, 14, 5, iterations=3.0, quad_calls=2.0),
        _span(7, "mild.picard", 14, 18, 5, iterations=4.0),
        _span(8, "kernel.find_T0", 18, 19, 5, quad_calls=5.0),
    ]
    m = layer_metrics(tree)
    assert m["cli.write_s"] == pytest.approx(4.0)
    assert m["cli.bytes_written"] == 1000.0            # nested write not counted twice
    assert m["cli.write_mb_per_s"] == pytest.approx(1000 / 1e6 / 4.0)
    assert m["mild.march_s"] == pytest.approx(3.0)
    assert m["mild.node_steps_per_s"] == pytest.approx(400 / 4.0)   # inclusive time
    assert (m["mild.memory_macs"], m["mild.memory_bytes"]) == (10.0, 320.0)
    assert m["mild.restart_s"] == pytest.approx(10 - 8 - 1)
    assert m["mild.picard_s"] == pytest.approx(8.0)
    assert (m["mild.picard_iterations"], m["mild.windows"]) == (7.0, 2.0)
    assert (m["field.drift_b_s"], m["field.drift_b_calls"]) == (1.0, 1.0)
    assert m["kernel.quad_calls"] == 5.0                 # picard's quad count is mild's
    assert m["qz.quad_calls"] == 0.0
    assert set(m) == set(spans.LAYER_METRICS) - {"trace.overhead_s"}


def test_benchmark_declares_every_layer_metric():
    from pathlib import Path
    declared = json.loads((Path(spans.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == \
        [(k, u, b) for k, (u, b) in spans.LAYER_METRICS.items()]
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(WORKLOADS)


# --- generated configs -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_config_parses_and_carries_the_seed(name, tmp_path):
    from ksmv.cli import RunConfig, parse_config_text

    workload = WORKLOADS[name]
    assert {c.config for c in workload.commands} <= set(workload.configs)
    for config in workload.configs:
        text = workload.config_text(config, 2 ** 32 + 7, tmp_path)
        cfg = RunConfig.from_mapping(parse_config_text(text))
        assert cfg.seed == 7
        assert cfg.out_dir == str(tmp_path)
        assert text == workload.config_text(config, 2 ** 32 + 7, tmp_path)


# --- correctness gate --------------------------------------------------------

SOLVE = Command("wide_solve_s", ("solve",), "solve_report_march.json", "solve-wide",
                ("density_final.dat", "density.csv", "summary.csv", "field.csv"))


@pytest.fixture(scope="module")
def small_solve(tmp_path_factory):
    """A small full-model solve through the CLI, and a reference equal to its
    own final density."""
    from ksmv import cli

    out = tmp_path_factory.mktemp("solve")
    config = out / "run.cfg"
    config.write_text(WORKLOADS["solve"].config_text(
        "solve-wide", 0, out, {"discretization.n": "64", "discretization.m": "20"}))
    assert cli.main(["--config", str(config), "solve"]) == 0
    final = np.loadtxt(out / "density_final.dat", comments="#")
    return out, gate.Reference(final[:, 1].copy(), float(final[1, 0] - final[0, 0]), 1e-6)


def test_gate_passes_a_sound_solve(small_solve):
    out, ref = small_solve
    outcome = gate.judge(SOLVE, 0, out, ref)
    assert outcome.ok, outcome.reason
    assert outcome.l1_err == 0.0


def test_gate_fails_a_solve_against_a_wrong_reference(small_solve):
    out, ref = small_solve
    wrong = gate.Reference(np.roll(ref.density, 3), ref.h, ref.l1_bound)
    outcome = gate.judge(SOLVE, 0, out, wrong)
    assert not outcome.ok
    assert "exceeds the reference bound" in outcome.reason
    assert outcome.l1_err is None


def test_gate_fails_nonzero_exit(small_solve):
    out, ref = small_solve
    assert gate.judge(SOLVE, 1, out, ref).reason == "exit code 1"


def _copy_outputs(src, dst):
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())


def test_gate_fails_a_failed_report_record(small_solve, tmp_path):
    out, ref = small_solve
    _copy_outputs(out, tmp_path)
    report = json.loads((tmp_path / SOLVE.report).read_text())
    report["records"][0]["passed"] = False
    (tmp_path / SOLVE.report).write_text(json.dumps(report))
    outcome = gate.judge(SOLVE, 0, tmp_path, ref)
    assert not outcome.ok and "failed records" in outcome.reason


@pytest.mark.parametrize("name, garbage", [("density_final.dat", "x p\nnan 1\n"),
                                           ("density.csv", "t,x,p\n0,1,oops\n"),
                                           (SOLVE.report, "{not json")])
def test_gate_fails_unparsable_output(small_solve, tmp_path, name, garbage):
    out, ref = small_solve
    _copy_outputs(out, tmp_path)
    (tmp_path / name).write_text(garbage)
    assert not gate.judge(SOLVE, 0, tmp_path, ref).ok


def test_gate_fails_missing_output_after_clear(small_solve, tmp_path):
    out, ref = small_solve
    _copy_outputs(out, tmp_path)
    gate.clear_outputs(SOLVE, tmp_path)
    assert not gate.judge(SOLVE, 0, tmp_path, ref).ok


def test_committed_references_match_their_workloads():
    configs = [w.configs[c] | {"name": c} for w in WORKLOADS.values() if w.reference
               for c in w.configs]
    assert configs
    for keys in configs:
        ref = gate.Reference.load(keys["name"])
        n = int(keys["discretization.n"])
        assert ref.density.shape == (n,)
        assert ref.h == pytest.approx(2 * float(keys["discretization.l"]) / n)
        assert np.sum(ref.density) * ref.h == pytest.approx(1.0, abs=1e-9)
        assert 0 < ref.l1_bound < 1e-2
