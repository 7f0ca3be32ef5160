"""Every ksmv command under the traced benchmark's instrumentation.

perfbench/spans.py wraps ksmv functions and reads their arguments by name
(`N`, `mesh`, `block`, `store_rows`, ...); a renamed or dropped argument
fails only inside a traced run.  This runs all six commands on a tiny
config under `spans.instrument_ksmv`, loading the module from its file
without changing it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ksmv import cli, field, kernel, mild, particle, qz

REPO = Path(__file__).resolve().parents[1]

COMMANDS = [["check-kernel"], ["solve"], ["solve", "--mode", "picard_with_restart"],
            ["picard"], ["particles"], ["qz"]]

TINY = {
    "model.chi": "1.0", "model.lambda": "0.5", "model.normalization": "heat",
    "model.kernel": "keller_segel", "initial.p0": "gaussian(0, 0.5)",
    "initial.c0": "sine(0.3, 1)", "discretization.l": "9.42477796076938",
    "discretization.n": "32", "discretization.t": "0.2", "discretization.m": "8",
    "particles.n": "200", "particles.seed": "3", "outputs.formats": "csv,plot",
}


@pytest.fixture(scope="module")
def spans():
    name = "ksmv_tests_perfbench_spans"
    spec = importlib.util.spec_from_file_location(name, REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_command_runs_traced_and_the_patches_are_undone(spans, tmp_path, monkeypatch):
    import scipy.integrate

    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    config = tmp_path / "tiny.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in TINY.items()))
    mods = (cli, field, kernel, mild, particle, qz, scipy.integrate)
    before = [dict(vars(m)) for m in mods]
    before_cls = (cli.RunConfig.__dict__["from_file"], cli.RunReport.__dict__["write"])

    tracer = spans.Tracer("tiny")
    spans.instrument_ksmv(tracer)
    try:
        codes = []
        for args in COMMANDS:
            span = tracer.begin("cli.main")
            try:
                codes.append(cli.main(["--config", str(config), "--out", str(tmp_path / "out"),
                                       *args]))
            finally:
                tracer.end(span)
    finally:
        tracer.restore()

    assert [dict(vars(m)) for m in mods] == before
    assert (cli.RunConfig.__dict__["from_file"], cli.RunReport.__dict__["write"]) == before_cls
    # exit 1 is a failed check, which a tiny config may give; 2 and up are errors
    assert all(code in (0, 1) for code in codes), codes
    metrics = spans.layer_metrics(tracer.spans)
    assert set(metrics) == set(spans.LAYER_METRICS) - {"trace.overhead_s"}
    for key in ("cli.bytes_written", "mild.node_steps_per_s", "mild.windows",
                "mild.picard_iterations", "field.chem_calls", "field.drift_b_calls",
                "particle.steps_per_s", "particle.path_bytes", "qz.density_calls"):
        assert metrics[key] > 0, key
