"""Config grammar, report plumbing, CSV round-trips, end-to-end exit codes."""

import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from ksmv import cli
from ksmv.cli import (parse_config_text, _parse_value, ConfigError, RunConfig,
                      RunReport, write_csv, write_plot_table, write_history_csv,
                      write_field_csv)
from ksmv.grid import Grid1D, TimeMesh, heat_kernel
from ksmv.kernel import find_T0, has_memory, horizon_D, integrated_kernel_symbol
from ksmv.field import ChemicalField, InitialChemical, drift_b
from ksmv import mild
from ksmv.mild import MarginalHistory
from ksmv import particle
from ksmv.particle import simulate_bounded_drift
from ksmv.qz import QZParams, qz_density

from ksmv_helpers import (kernel_eval, kernel_l1_norm, kernel_l2_norm, overflowing_chemical,
                          reference_rows)

REPO = Path(__file__).resolve().parents[1]


def mini_config(tmp_path, name="mini.cfg", **overrides):
    base = {
        "model.chi": "1.0", "model.lambda": "0.0", "model.kernel": "none",
        "initial.p0": "gaussian(0, 1)", "initial.c0": "none",
        "discretization.l": "8", "discretization.n": "32",
        "discretization.t": "0.1", "discretization.m": "5",
        "particles.n": "50", "particles.seed": "7",
    }
    base.update(overrides)
    path = tmp_path / name
    path.write_text("\n".join(f"{k} = {v}" for k, v in base.items()) + "\n")
    return path


# --- grammar ----------------------------------------------------------------


def test_parse_value_forms():
    assert _parse_value("1e-8") == 1e-8
    assert _parse_value("9007199254740993") == 2 ** 53 + 1
    assert type(_parse_value("256")) is int and type(_parse_value("256.0")) is float
    assert _parse_value("auto") == "auto"
    assert _parse_value("gaussian(0, 1)") == ("gaussian", [0.0, 1.0])
    assert _parse_value("samples(data/p0.txt)") == ("samples", ["data/p0.txt"])


def test_parse_config_text_grammar():
    text = """
    # a comment
    model.chi = 2.0          # trailing comment
    initial.p0 = uniform(-1, 1)

    outputs.formats = csv,plot
    """
    out = parse_config_text(text)
    assert out["model.chi"] == 2.0
    assert out["initial.p0"] == ("uniform", [-1.0, 1.0])
    assert out["outputs.formats"] == "csv,plot"


def test_parse_config_text_aggregates_line_problems():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("model.chi 2.0\nBadKey.x = 1\nmodel.lambda = 0.5\n")
    msg = str(exc.value)
    assert "line 1" in msg and "line 2" in msg
    assert len(exc.value.problems) == 2


def test_from_mapping_aggregates_semantic_problems():
    raw = parse_config_text(
        "model.chi = 0\nmodel.kernel = tree\nparticles.n = 1\ntypo.key = 3\n")
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_mapping(raw)
    msg = str(exc.value)
    for frag in ("model.chi", "model.kernel", "particles.n", "unknown key typo.key"):
        assert frag in msg
    assert len(exc.value.problems) == 4


def test_shipped_configs_parse():
    for path in sorted((REPO / "configs").glob("*.cfg")):
        RunConfig.from_file(str(path))
    full = RunConfig.from_file(str(REPO / "configs" / "full_model.cfg"))
    assert full.kernel_kind == "keller_segel"
    assert full.formats == ("csv", "plot")
    heat = RunConfig.from_file(str(REPO / "configs" / "heat_only.cfg"))
    assert heat.kernel_kind == "none"


def test_module_docstring_example_config_parses():
    doc = cli.__doc__
    block = doc[doc.index("Config grammar"):doc.index("`model.kernel = none`")]
    example = "\n".join(line for line in block.splitlines() if line.startswith("    "))
    raw = parse_config_text(example)
    assert list(raw) == list(cli.CONFIG_KEYS)   # every key of the table, in its order
    cfg = RunConfig.from_mapping(raw)
    assert (cfg.half_width, cfg.n, cfg.horizon, cfg.steps) == (8.0, 256, 0.5, 100)
    assert cfg.n_particles == 2000 and cfg.formats == ("csv", "plot")


# --- builders ---------------------------------------------------------------


def test_none_kernel_builds_zero_interaction():
    cfg = RunConfig.from_file(str(REPO / "configs" / "heat_only.cfg"))
    spec = cfg.make_spec()
    assert spec.kind == "none"
    assert spec.chi == 1.0 and spec.chi_eff == 0.0
    assert not has_memory(spec)
    assert mild._drift(spec, None, cfg.make_grid(), cfg.make_mesh().dt)[2] is None
    assert np.all(kernel_eval(spec, 0.3, np.linspace(-2, 2, 9)) == 0.0)
    assert kernel_l1_norm(spec, 0.3) == 0.0 and kernel_l2_norm(spec, 0.3) == 0.0
    grid = cfg.make_grid()
    assert np.all(integrated_kernel_symbol(spec, 0.01, grid.wavenumbers) == 0.0)
    assert horizon_D(spec, cfg.horizon) == 0.0
    assert find_T0(spec, cfg.safety) == math.inf
    # the chemical drift stays on: model.kernel = none only drops the memory
    ou = RunConfig.from_file(str(REPO / "configs" / "ou_surrogate.cfg"))
    ou_spec = ou.make_spec()
    assert ou_spec.kind == "none" and not has_memory(ou_spec)
    b0 = drift_b(ou_spec, ou.make_chem(ou.make_grid()), 0.0)
    assert float(np.max(np.abs(b0))) > 1.0


def test_p0_builders(tmp_path):
    cfg = RunConfig.from_mapping(parse_config_text("initial.p0 = uniform(-1, 2)"))
    grid = cfg.make_grid()
    u = cfg.make_p0(grid)
    assert u.mass() == pytest.approx(1.0, abs=1e-12)
    interior = (grid.x > -0.9) & (grid.x < 1.9)
    assert np.allclose(u.values[interior], 1.0 / 3.0)
    assert np.all(u.values[np.abs(grid.x) > 2.1] == 0.0)

    cfg_g = RunConfig.from_mapping(parse_config_text("initial.p0 = gaussian(0.5, 2)"))
    g = cfg_g.make_p0(grid)
    want = heat_kernel(2.0, grid.x - 0.5)
    assert np.allclose(g.values, want / grid.integrate(want), atol=1e-12)


def test_p0_samples_roundtrip_and_shape_check(tmp_path):
    grid = Grid1D(8.0, 64)
    vals = heat_kernel(1.0, grid.x)
    path = tmp_path / "p0.txt"
    np.savetxt(path, vals)
    cfg = RunConfig.from_mapping(parse_config_text(
        f"initial.p0 = samples({path})\ndiscretization.n = 64\n"))
    p0 = cfg.make_p0(cfg.make_grid())
    assert np.allclose(p0.values, vals / grid.integrate(vals), atol=1e-12)
    bad = RunConfig.from_mapping(parse_config_text(
        f"initial.p0 = samples({path})\ndiscretization.n = 32\n"))
    with pytest.raises(ConfigError):
        bad.make_p0(bad.make_grid())


def test_quadratic_chemical_gives_linear_restoring_drift():
    cfg = RunConfig.from_mapping(parse_config_text("initial.c0 = quadratic(0.7)"))
    grid = cfg.make_grid()
    chem = cfg.make_chem(grid)
    b0 = drift_b(cfg.make_spec(), chem, 0.0)
    assert np.allclose(b0, -0.7 * grid.x, atol=1e-12)


# --- serialization ----------------------------------------------------------


def test_write_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=20) * 10.0 ** rng.integers(-300, 300, size=20)
    b = rng.normal(size=20)
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), (a, b))
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back[:, 0], a)
    assert np.array_equal(back[:, 1], b)
    with pytest.raises(ValueError):
        write_csv(path, ("a", "b"), (a, b[:3]))


def test_write_plot_table(tmp_path):
    path = tmp_path / "t.dat"
    write_plot_table(path, (np.arange(3.0), np.arange(3.0) ** 2), comment="x y")
    lines = path.read_text().splitlines()
    assert lines[0] == "# x y"
    back = np.loadtxt(path)
    assert np.array_equal(back[:, 1], np.arange(3.0) ** 2)
    with pytest.raises(ValueError):
        write_plot_table(path, (np.arange(3.0), np.arange(2.0)))


def test_write_history_csv_longform(tmp_path):
    grid = Grid1D(4.0, 16)
    mesh = TimeMesh(0.2, 2)
    rows = np.vstack([heat_kernel(1.0 + t, grid.x) for t in mesh.nodes])
    hist = MarginalHistory(grid, mesh, rows, {})
    path = tmp_path / "density.csv"
    write_history_csv(path, hist)
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (3 * 16, 3)
    assert np.array_equal(back[:, 2].reshape(3, 16), rows)
    assert np.array_equal(back[:16, 1], grid.x)


# -0.0, the smallest subnormal, near-overflow, near-underflow and infinities
SPECIAL_VALUES = np.array([-0.0, 5e-324, 1e308, -1e308, 1e-300, -1e-300, np.inf, -np.inf,
                           0.1, 1.0 / 3.0])


# a pass holds _VALUES_PER_PASS values in whole rows: the two-column table
# writes one and four passes of rows and the four-column one two and eight,
# each give or take a row
@pytest.mark.parametrize("rows", [0, 1, *(blocks * (cli._VALUES_PER_PASS // 2) + d
                                          for blocks in (1, 4) for d in (-1, 0, 1))])
def test_row_writers_match_per_value_reference(tmp_path, rows):
    rng = np.random.default_rng(rows)
    a = np.resize(SPECIAL_VALUES, rows)
    b = rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, size=rows)
    c, d = rng.permutation(a), -b
    write_csv(tmp_path / "t.csv", ("a", "b", "c", "d"), (a, b, c, d))
    assert (tmp_path / "t.csv").read_text() == "a,b,c,d\n" + reference_rows((a, b, c, d), ",")
    write_plot_table(tmp_path / "t.dat", (a, b), comment="a b")
    assert (tmp_path / "t.dat").read_text() == "# a b\n" + reference_rows((a, b), " ")


# the density table's passes split each time row at a pass (n above one
# pass) or hold whole time rows (n at most one pass, the last pass partial
# where the rows do not fill it); the field table's two value tables halve
# the nodes of a pass.  n is even, as the grid requires.  Every table holds
# 0.0 and -0.0.
@pytest.mark.parametrize("n", [cli._VALUES_PER_PASS + d for d in (-2, 0, 2)]
                         + [cli._VALUES_PER_PASS // 3 // 2 * 2])
def test_long_form_writers_match_write_csv_of_repeated_and_tiled_columns(tmp_path, n):
    grid = Grid1D(4.0, n)
    mesh = TimeMesh(0.3, 3)
    rng = np.random.default_rng(n)
    special = np.append(SPECIAL_VALUES, 0.0)
    tables = [rng.permutation(np.resize(special, (4, n)).ravel()).reshape(4, n)
              for _ in range(2)]
    hist = MarginalHistory(grid, mesh, tables[0], {})
    write_history_csv(tmp_path / "density.csv", hist)
    write_csv(tmp_path / "density_ref.csv", ("t", "x", "p"),
              (np.repeat(mesh.nodes, n), np.tile(grid.x, 4), tables[0]))
    assert ((tmp_path / "density.csv").read_bytes()
            == (tmp_path / "density_ref.csv").read_bytes())

    t = mesh.nodes[[1, 3]]
    fields = [ChemicalField(grid, tables[0][k], tables[1][k], t[k]) for k in range(2)]
    write_field_csv(tmp_path / "field.csv", fields)
    write_csv(tmp_path / "field_ref.csv", ("t", "x", "c", "dc"),
              (np.repeat(t, n), np.tile(grid.x, 2), tables[0][:2], tables[1][:2]))
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "field_ref.csv").read_bytes()


def test_writer_names_stay_module_attributes_for_the_traced_benchmark():
    # perfbench/spans.py wraps these four through inspect.getattr_static
    for name in ("write_csv", "write_plot_table", "write_history_csv", "write_field_csv"):
        assert callable(inspect.getattr_static(cli, name))
        assert "path" in inspect.signature(getattr(cli, name)).parameters


def _format17_reference(values) -> list:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


_BITS = st.integers(0, 2 ** 64 - 1).map(lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                          _BITS), max_size=60))
def test_block_formatter_equals_percent_17g(values):
    assert cli._format17(values).tolist() == _format17_reference(values)


def test_block_formatter_on_powers_of_ten_their_neighbours_and_powers_of_two():
    # just below a power of ten the exponent estimate floor(log10 |x|) can be
    # one too large, and the 17 digits can round up to 10^17: 10^k and both
    # float neighbours for k in [-300, 300], and every power of two
    tens = np.array([float(f"1e{k}") for k in range(-300, 301)])
    values = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
                             np.ldexp(1.0, np.arange(-1074, 1024))])
    values = np.concatenate([values, -values])
    assert cli._format17(values).tolist() == _format17_reference(values)
    assert cli._format17(values).dtype == np.dtype("S24")


def test_long_form_writer_memory_stays_under_1_mb():
    # solve-wide's density.csv: n = 4096 nodes at 26 times
    grid, mesh = Grid1D(3.0 * np.pi, 4096), TimeMesh(0.4, 25)
    rows = np.vstack([heat_kernel(0.5 + t, grid.x) for t in mesh.nodes])
    hist = MarginalHistory(grid, mesh, rows, {})
    write_history_csv(os.devnull, hist)    # the formatter's tables are built on first use
    tracemalloc.start()
    try:
        write_history_csv(os.devnull, hist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6, peak


def test_row_writer_memory_does_not_grow_with_row_count():
    # one column: tracemalloc makes each float object cost about 6 us
    peaks = []
    for rows in (10 ** 5, 10 ** 6):
        column = np.linspace(0.0, 1.0, rows)
        tracemalloc.start()
        try:
            write_csv(os.devnull, ("a",), (column,))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one block of text and floats is about 0.3 MB; the whole column as
    # Python floats and text peaks at 6.9 MB at 1e5 rows and 69 MB at 1e6
    assert max(peaks) < 1e6, peaks


# --- report -----------------------------------------------------------------


def test_run_report_duplicates_and_json(tmp_path):
    rep = RunReport("solve", "abc123", 7)
    rep.add("mass_drift", 1e-14, 1e-3, True)
    with pytest.raises(ValueError):
        rep.add("mass_drift", 0.0, 1.0, True)
    rep.add("gap", 2.0, 1.0, False)
    assert not rep.all_passed
    assert any("[FAIL] gap" in ln for ln in rep.lines())
    out = tmp_path / "r.json"
    rep.write(out)
    payload = json.loads(out.read_text())
    assert payload["seed"] == 7
    assert payload["records"][1]["name"] == "gap"
    assert payload["records"][1]["passed"] is False


def test_config_hash_tracks_content():
    a = RunConfig.from_mapping(parse_config_text("model.chi = 1.0"))
    b = RunConfig.from_mapping(parse_config_text("model.chi = 1.0"))
    c = RunConfig.from_mapping(parse_config_text("model.chi = 2.0"))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


# --- end to end -------------------------------------------------------------


def test_main_usage_errors_exit_2(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "missing.cfg"), "solve"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.chi = 0\nmodel.kernel = tree\n")
    assert cli.main(["--config", str(bad), "solve"]) == 2
    err = capsys.readouterr().err
    assert "model.chi" in err and "model.kernel" in err


def test_model_normalization_reads_heat_and_refuses_every_other_value(tmp_path, capsys):
    # heat is the one normalization and changes nothing; another constant
    # is a rescaled chi, so the config says to scale model.chi instead
    heat = RunConfig.from_file(str(mini_config(tmp_path, **{"model.normalization": "heat"})))
    assert heat.config_hash() == RunConfig.from_file(str(mini_config(tmp_path))).config_hash()
    cfg = mini_config(tmp_path, **{"model.normalization": "two_pi"})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), "check-kernel"]) == 2
    err = capsys.readouterr().err
    assert "model.normalization" in err and "model.chi" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("model.chi", "1" + "0" * 400), ("model.chi", "1e400"),
                                        ("discretization.n", "1e400"),
                                        ("discretization.n", "nan"),
                                        ("initial.c0", "sine(nan, 1)"),
                                        ("initial.c0", "quadratic(inf)"),
                                        ("initial.c0", "gaussian_bump(1, inf)"),
                                        ("initial.p0", "gaussian(nan, 1)"),
                                        ("initial.p0", "uniform(-inf, 1)"),
                                        ("particles.bandwidth", "inf"),
                                        ("particles.bandwidth", "1" + "0" * 400)])
def test_non_finite_number_exits_2(tmp_path, capsys, key, value):
    cfg = mini_config(tmp_path, **{key: value})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), "solve"]) == 2
    err = capsys.readouterr().err
    assert f"{key}: expected a finite number" in err and "Traceback" not in err


def test_restart_whose_rows_cannot_be_allocated_exits_2(tmp_path, capsys, monkeypatch):
    # at chi = 1e8 the contraction horizon T0 is about 1e-17, so the restart
    # would cut T into about 1e16 windows: the row array is refused by name
    # before any window runs, and the march still solves the config
    cfg = mini_config(tmp_path, **{"model.chi": "1e8", "model.lambda": "0.5",
                                   "model.kernel": "keller_segel"})
    monkeypatch.setattr(cli.mild, "picard", lambda *a, **kw: pytest.fail("a window ran"))
    argv = ["--config", str(cfg), "--out", str(tmp_path / "run"), "solve"]
    assert cli.main([*argv, "--mode", "picard_with_restart"]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in ("model.chi", "discretization.t", "picard.safety"))
    assert "windows" in err and "Traceback" not in err
    assert cli.main(argv) in (0, 1)


@pytest.mark.parametrize("c0", ["quadratic(1, 2)", "gaussian_bump(1, 0)",
                                "gaussian_bump(1, -2)", "sine(0.3, 1, 5)"])
def test_main_malformed_c0_exits_2(tmp_path, capsys, c0):
    cfg = mini_config(tmp_path, **{"initial.c0": c0})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), "solve"]) == 2
    assert "initial.c0:" in capsys.readouterr().err


# samples files of mini_config's 32 grid values
_BAD_SAMPLES = {"text.txt": "1.0\nabc\n" + "1.0\n" * 30,
                "negative.txt": "-1.0\n" * 32,
                "nan.txt": "1.0\nnan\n" + "1.0\n" * 30,
                "inf.txt": "0.0\ninf\n" + "0.0\n" * 30}


@pytest.mark.parametrize("key, value", [
    ("initial.p0", "samples({tmp}/missing.txt)"), ("initial.c0", "samples({tmp}/missing.txt)"),
    ("initial.p0", "samples({tmp}/text.txt)"), ("initial.c0", "samples({tmp}/text.txt)"),
    ("initial.p0", "samples({tmp}/nan.txt)"), ("initial.c0", "samples({tmp}/inf.txt)"),
    ("initial.p0", "samples({tmp}/negative.txt)"),
    ("initial.p0", "uniform(20, 30)"), ("initial.p0", "gaussian(100, 1)"),
    # finite arguments whose c0 is not finite on the grid: the width's square
    # underflows to 0, or -q x^2 / 2 overflows (and no warning comes first)
    ("initial.c0", "gaussian_bump(1, 1e-300)"), ("initial.c0", "quadratic(1e308)"),
    # p0's x^2 overflows, with no warning, and leaves no mass
    ("initial.p0", "gaussian(1e300, 1)"),
    # grid and time-step arrays numpy refuses: 8e15 bytes, or 2^63 elements
    # (whose grid arange is silently empty)
    ("discretization.n", "1e15"), ("discretization.n", str(2 ** 63)),
    ("discretization.m", "1e15")])
@pytest.mark.parametrize("command", ["solve", "particles"])
def test_main_bad_initial_data_exits_2(tmp_path, capsys, key, value, command):
    for name, text in _BAD_SAMPLES.items():
        (tmp_path / name).write_text(text)
    cfg = mini_config(tmp_path, **{key: value.format(tmp=tmp_path)})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), command]) == 2
    err = capsys.readouterr().err
    assert f"{key}:" in err and "Traceback" not in err


@pytest.mark.parametrize("n", ["1e15", "1e300"])
@pytest.mark.parametrize("command", ["particles", "qz"])
def test_particle_count_that_cannot_be_allocated_exits_2(tmp_path, capsys, command, n):
    # numpy refuses the N-vectors at once: MemoryError for 1e15 particles
    # (petabytes), ValueError for 1e300 (more elements than an index holds)
    cfg = mini_config(tmp_path, **{"particles.n": n})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), command]) == 2
    err = capsys.readouterr().err
    assert "particles.n: " in err and "cannot be allocated" in err and "Traceback" not in err


# every config exits 0, 1 or 2 by name: a small valid base (each command runs
# in milliseconds) with one to three keys of the config table overridden from
# one pool of values at the edges of the checks.  The pool holds no size
# between the base's and 1e15: 1e15 elements (8e15 bytes) exceed a 64-bit
# address space, so numpy refuses every large array at once
_FUZZ_BASE = {"model.chi": "1", "model.lambda": "0.5", "model.kernel": "keller_segel",
              "initial.p0": "gaussian(0, 1)", "initial.c0": "quadratic(1)",
              "discretization.l": "8", "discretization.n": "16", "discretization.t": "0.1",
              "discretization.m": "2", "particles.n": "20", "particles.seed": "7",
              "outputs.formats": "plot"}
# hypothesis draws the first number most often: 1e300 is the one that
# stresses every key, as a size, a scale or a coupling
_FUZZ_NUMBERS = ["1e300", "0", "1", "-1", "2", "16", "17", "0.5", "1e-300", "-1e-300",
                 "-1e300", "inf", "-inf", "nan", "-0.0", str(2 ** 63), "1e15"]
_FUZZ_CALLS = ["gaussian", "uniform", "samples", "sine", "gaussian_bump", "quadratic"]
# one pool: each number, each word, and each call form with zero to three
# arguments from the numbers
_FUZZ_VALUES = st.sampled_from(
    _FUZZ_NUMBERS + ["none", "auto", "heat", "csv,plot", "tree"] + _FUZZ_CALLS).flatmap(
    lambda v: st.lists(st.sampled_from(_FUZZ_NUMBERS), max_size=3).map(
        lambda args: f"{v}({', '.join(args)})") if v in _FUZZ_CALLS else st.just(v))
_FUZZ_COMMANDS = [["check-kernel"], ["solve"], ["solve", "--mode", "picard_with_restart"],
                  ["picard"], ["particles"], ["qz"]]


def _holds_non_finite_number(key: str, text: str) -> bool:
    """Whether a config value reads inf or nan where a number is expected;
    outputs.directory takes any word, and samples() a path."""
    v = _parse_value(text)
    if isinstance(v, tuple):
        return v[0] != "samples" and not all(map(math.isfinite, v[1]))
    return isinstance(v, float) and not math.isfinite(v) and key != "outputs.directory"


_PROBLEM_LINE = re.compile(r"  - (unknown key |({0})(, ({0}))*: )".format(
    "|".join(map(re.escape, cli.CONFIG_KEYS))))


def _check_exits_by_name(tmp: str, overrides: dict):
    """Run each command on the base config with overrides through cli.main in
    process: 0, or 1 with a failed record or step, or 2 with every problem
    named, and a key that reads inf or nan named whatever else is wrong."""
    cfg = Path(tmp) / "fuzz.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**_FUZZ_BASE, **overrides}.items()))
    try:
        RunConfig.from_file(str(cfg))
        # qz reads particles.n, particles.seed and outputs.formats alone
        touches_qz = {"particles.n", "particles.seed", "outputs.formats"} & set(overrides)
        commands = _FUZZ_COMMANDS if touches_qz else _FUZZ_COMMANDS[:-1]
    except ConfigError:   # each command exits at the same parse
        commands = _FUZZ_COMMANDS[:1]
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(cfg), "--out", tmp, *command])
        out, err = out.getvalue(), err.getvalue()
        if code == 2:
            lines = err.splitlines()
            assert lines[0] == "configuration errors:" and len(lines) > 1, err
            assert all(_PROBLEM_LINE.match(line) for line in lines[1:]), err
        elif code == 1:
            assert "[FAIL]" in out or err.startswith(("instability:", "divergence:")), err
        else:
            assert code == 0 and not err, err
        for key, value in overrides.items():
            if _holds_non_finite_number(key, value):
                assert code == 2 and f"{key}: " in err, (command, err)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(st.dictionaries(st.sampled_from(list(cli.CONFIG_KEYS)), _FUZZ_VALUES,
                       min_size=1, max_size=3))
def test_every_config_exits_0_1_or_2_by_name(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        # each override alone too: another key's problem would end the run
        # before the override's own
        for key, value in overrides.items():
            _check_exits_by_name(tmp, {key: value})
        if len(overrides) > 1:
            _check_exits_by_name(tmp, overrides)


@pytest.mark.parametrize("key, value", [("picard.safety", "1e-300"), ("model.chi", "1e300")])
@pytest.mark.parametrize("command", ["check-kernel", "picard", "solve --mode picard_with_restart"])
def test_contraction_horizon_that_underflows_exits_2(tmp_path, capsys, key, value, command):
    # T0 = pi safety^2 / (8 chi^2) underflows to 0: no horizon to contract on
    cfg = mini_config(tmp_path, **{"model.kernel": "keller_segel", key: value})
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), *command.split()]) == 2
    err = capsys.readouterr().err
    assert "picard.safety, model.chi: " in err and "Traceback" not in err


@pytest.mark.parametrize("key, value, command", [
    # x^2 and L^2 overflow in p_0's variance and the tail bound
    ("discretization.l", "1e300", "solve"), ("discretization.l", "1e300", "picard"),
    # xi^2 overflows in the heat and kernel symbols, which are 0 there
    ("discretization.l", "1e-300", "solve"), ("discretization.l", "1e-300", "particles"),
    # the bandwidth's square, and the spread's in Silverman's rule, overflow
    ("particles.bandwidth", "1e300", "particles"), ("discretization.t", "1e300", "particles")])
def test_extreme_scales_exit_0_or_1_without_warning(tmp_path, capsys, key, value, command):
    cfg = mini_config(tmp_path, **{"model.kernel": "keller_segel", "initial.c0": "sine(0.3, 1)",
                                   key: value})
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), command])
    captured = capsys.readouterr()
    assert code == 0 or "[FAIL]" in captured.out or captured.err.startswith("instability:")


def test_main_solve_heat_only(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    out = tmp_path / "run"
    rc = cli.main(["--config", str(REPO / "configs" / "heat_only.cfg"),
                   "--out", str(out), "solve"])
    assert rc == 0
    assert (out / "density.csv").exists()
    assert (out / "density_final.dat").exists()
    assert (out / "solve_report_march.json").exists()
    summary = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
    assert np.allclose(summary[:, 1], 1.0, atol=1e-12)     # mass column


def test_solve_report_times_the_writes_apart_from_the_field(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = mini_config(tmp_path, **{"model.kernel": "keller_segel",
                                   "initial.c0": "sine(0.3, 1)", "outputs.formats": "csv"})
    out = tmp_path / "run"
    assert cli.main(["--config", str(cfg), "--out", str(out), "solve"]) == 0
    assert (out / "field.csv").exists()
    timings = json.loads((out / "solve_report_march.json").read_text())["timings"]
    assert set(timings) == {"solve", "write", "field"}


def test_main_solve_restart_mode(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = mini_config(tmp_path, **{"model.kernel": "keller_segel",
                                   "model.lambda": "0.5",
                                   "discretization.t": "0.2",
                                   "discretization.m": "40",
                                   "discretization.n": "64"})
    out = tmp_path / "restart"
    rc = cli.main(["--config", str(cfg), "--out", str(out),
                   "solve", "--mode", "picard_with_restart"])
    assert rc == 0
    assert (out / "solve_report_picard_with_restart.json").exists()


@pytest.mark.parametrize("mode", ["march", "picard_with_restart"])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_main_solve_full_model_on_few_steps(tmp_path, monkeypatch, steps, mode):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    text = (REPO / "configs" / "full_model.cfg").read_text()
    cfg = tmp_path / "few.cfg"
    cfg.write_text(re.sub(r"(?m)^discretization\.m = \d+$", f"discretization.m = {steps}", text))
    out = tmp_path / "run"
    assert cli.main(["--config", str(cfg), "--out", str(out), "solve", "--mode", mode]) == 0
    assert (out / "field.csv").exists()


# a record with bound inf cannot fail, and so checks nothing; mass_drift keeps
# every report, the plot-only one included, from being empty
@pytest.mark.parametrize("mode", ["march", "picard_with_restart"])
@pytest.mark.parametrize("name", ["heat_only", "ou_surrogate", "full_model"])
def test_solve_reports_only_records_that_can_fail(tmp_path, monkeypatch, name, mode):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    out = tmp_path / name
    assert cli.main(["--config", str(REPO / "configs" / f"{name}.cfg"), "--out", str(out),
                     "solve", "--mode", mode]) == 0
    records = json.loads((out / f"solve_report_{mode}.json").read_text())["records"]
    assert "mass_drift" in {r["name"] for r in records}
    assert all(math.isfinite(r["bound"]) for r in records)


def test_main_solve_restart_tables_follow_the_rounded_step_count(tmp_path, monkeypatch):
    # T0 = 0.1015 cuts T = 0.4 into 4 windows, so M = 25 rounds up to 28 steps
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = mini_config(tmp_path, **{"model.kernel": "keller_segel", "model.lambda": "0.5",
                                   "initial.c0": "sine(0.3, 1)", "discretization.t": "0.4",
                                   "discretization.m": "25"})
    out = tmp_path / "restart"
    assert cli.main(["--config", str(cfg), "--out", str(out),
                     "solve", "--mode", "picard_with_restart"]) == 0
    summary = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
    assert summary.shape[0] == 29 and summary[-1, 0] == pytest.approx(0.4)
    field_t = np.unique(np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)[:, 0])
    assert field_t == pytest.approx([0.4 / 28, 0.2, 0.4])


def test_main_picard_unconverged_exit_1(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = mini_config(tmp_path, **{"model.kernel": "keller_segel",
                                   "discretization.t": "0.5",
                                   "discretization.m": "30",
                                   "discretization.n": "64",
                                   "picard.k_max": "1"})
    rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "p"), "picard"])
    assert rc == 1


def test_main_solve_overflow_exits_1_naming_the_step(tmp_path, monkeypatch, capsys):
    # tests/test_mild.py's overflowing march, run by the command: the named
    # error is its only report, with no floating-point warning before it
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    monkeypatch.setattr(cli.RunConfig, "make_chem", lambda self, grid: overflowing_chemical(grid))
    cfg = mini_config(tmp_path, **{"discretization.l": "10", "discretization.n": "256",
                                   "discretization.t": "1.0", "discretization.m": "8"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), "solve"])
    assert rc == 1
    assert capsys.readouterr().err == "instability: non-finite state at step 2\n"


def test_main_particles_overflow_exits_1_naming_the_step(tmp_path, monkeypatch, capsys):
    # a chemical slope of 1e306 and dt = 500 overflow the particles' first
    # step; the march oracle, which would stop the command first, runs
    # without the chemical
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    monkeypatch.setattr(cli.RunConfig, "make_chem", lambda self, grid: InitialChemical.from_samples(
        grid, np.zeros(grid.n), c0_prime=np.full(grid.n, 1e306)))
    march = mild.march
    monkeypatch.setattr(mild, "march", lambda p0, spec, chem, grid, mesh:
                        march(p0, spec, None, grid, mesh))
    cfg = mini_config(tmp_path, **{"discretization.t": "1000", "discretization.m": "2"})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["--config", str(cfg), "--out", str(tmp_path / "run"), "particles"])
    assert rc == 1
    assert capsys.readouterr().err == "instability: non-finite state at step 1\n"


def test_check_kernel_passes_when_D_saturates_below_safety(tmp_path, monkeypatch):
    # D(T) saturates at chi sqrt(2 / lambda) = 0.25 < safety 0.5, so T0 = inf
    # and Picard contracts on every horizon
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    text = (REPO / "configs" / "full_model.cfg").read_text()
    assert "model.lambda = 0.5\n" in text
    cfg = tmp_path / "lam32.cfg"
    cfg.write_text(text.replace("model.lambda = 0.5\n", "model.lambda = 32\n"))
    out = tmp_path / "ck"
    assert cli.main(["--config", str(cfg), "--out", str(out), "check-kernel"]) == 0
    records = json.loads((out / "check_kernel_report.json").read_text())["records"]
    assert {r["name"]: r["passed"] for r in records}["contraction_D_at_T0"]


@pytest.mark.parametrize("lam, T", [("100", "1.0"), ("0.5", "100")])
def test_check_kernel_passes_on_admissible_kernels_with_large_lambda_t(
        tmp_path, monkeypatch, lam, T):
    # the kernel meets H.1 at every lambda >= 0; H.1's increments are taken
    # below eps = 1/lambda, so large lambda T leaves its ratio at 1/sqrt(2)
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    text = (REPO / "configs" / "full_model.cfg").read_text()
    assert "model.lambda = 0.5\n" in text and "discretization.t = 0.4\n" in text
    cfg = tmp_path / "large_lambda_t.cfg"
    cfg.write_text(text.replace("model.lambda = 0.5\n", f"model.lambda = {lam}\n")
                   .replace("discretization.t = 0.4\n", f"discretization.t = {T}\n"))
    out = tmp_path / "ck"
    assert cli.main(["--config", str(cfg), "--out", str(out), "check-kernel"]) == 0
    records = {r["name"]: r for r in
               json.loads((out / "check_kernel_report.json").read_text())["records"]}
    assert records["H1"]["value"] == pytest.approx(2.0 ** -0.5, abs=1e-3)
    assert all(r["passed"] for r in records.values())


def test_check_kernel_on_none_kernel_uses_closed_forms(tmp_path, monkeypatch):
    # kind "none" is the chemotaxis kernel at chi_eff = 0: every closed form
    # reads 0, so H.1's increments and H.4-H.6 are 0 against bound 0
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    out = tmp_path / "ck"
    assert cli.main(["--config", str(REPO / "configs" / "heat_only.cfg"), "--out", str(out),
                     "check-kernel"]) == 0
    records = {r["name"]: r for r in
               json.loads((out / "check_kernel_report.json").read_text())["records"]}
    assert records["H1"]["value"] == 0.0 and records["H1"]["passed"]
    for item in ("H4", "H5", "H6"):
        assert (records[item]["value"], records[item]["bound"]) == (0.0, 0.0)
        assert records[item]["passed"]
    assert records["contraction_D_at_T0"]["value"] == 0.0


def test_check_kernel_at_a_horizon_of_1e_300_fails_h2_by_name(tmp_path, monkeypatch, capsys):
    # t^{3/2} underflows to 0 at t ~ 1e-300: the slope of H.2 reads inf and
    # fails, H.3 reads 0, and neither raises nor warns
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    text = (REPO / "configs" / "full_model.cfg").read_text()
    assert "discretization.t = 0.4\n" in text
    cfg = tmp_path / "t1e-300.cfg"
    cfg.write_text(text.replace("discretization.t = 0.4\n", "discretization.t = 1e-300\n"))
    out = tmp_path / "ck"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--config", str(cfg), "--out", str(out), "check-kernel"]) == 1
    assert "[FAIL] H2" in capsys.readouterr().out
    records = {r["name"]: r for r in
               json.loads((out / "check_kernel_report.json").read_text())["records"]}
    assert records["H2"]["value"] == math.inf and not records["H2"]["passed"]
    assert records["H3"]["value"] == 0.0 and records["H3"]["passed"]
    assert [n for n, r in records.items() if not r["passed"]] == ["H2"]


@pytest.mark.parametrize("lam", ["0.5", "0"])
def test_check_kernel_prints_each_item_and_one_T0_at_the_configured_safety(
        tmp_path, monkeypatch, capsys, lam):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    text = (REPO / "configs" / "full_model.cfg").read_text()
    cfg = tmp_path / "safety03.cfg"
    cfg.write_text(text.replace("picard.safety = 0.5\n", "picard.safety = 0.3\n")
                   .replace("model.lambda = 0.5\n", f"model.lambda = {lam}\n"))
    out = tmp_path / "ck"
    assert cli.main(["--config", str(cfg), "--out", str(out), "check-kernel"]) == 0
    stdout = capsys.readouterr().out
    printed = re.findall(r"T0\s*=\s*([^;)\s]+)", stdout)
    T0 = find_T0(RunConfig.from_file(str(cfg)).make_spec(), 0.3)
    assert len(printed) == 1
    assert float(printed[0]) == pytest.approx(T0, rel=1e-9)
    for item in ("H.1", "H.2", "H.3", "H.4", "H.5", "H.6"):
        assert stdout.count(item) == 1
    records = json.loads((out / "check_kernel_report.json").read_text())["records"]
    D0 = {r["name"]: r["value"] for r in records}["contraction_D_at_T0"]
    assert D0 == pytest.approx(0.3, rel=1e-9)


# numpy is all any command needs: a meta-path finder makes every scipy import
# raise, and each command form runs on each shipped config.  concurrent.futures
# (which imports logging) is loaded by the particle stepper, not at import
_SCIPY_FREE_PROBE = """
import contextlib, io, json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked: {name}")

sys.meta_path.insert(0, NoScipy())
import ksmv.cli as cli
seen = {"futures_at_import": "concurrent.futures" in sys.modules}
commands = json.loads(sys.argv[1])
for config, out in zip(sys.argv[2::2], sys.argv[3::2]):
    for command in commands:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(["--config", config, "--out", out, *command.split()])
            except Exception as exc:
                code = repr(exc)
        seen[out + ":" + command] = code
print(json.dumps(seen))
"""

_REPORTS = {"check-kernel": "check_kernel_report.json",
            "solve --mode march": "solve_report_march.json",
            "solve --mode picard_with_restart": "solve_report_picard_with_restart.json",
            "picard": "picard_report.json", "particles": "particles_report.json",
            "qz": "qz_report.json"}


def test_import_and_solve_load_no_scipy(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    env.pop(cli.ENV_OUT_DIR, None)
    configs = sorted((REPO / "configs").glob("*.cfg"))
    assert len(configs) == 3
    args = [str(a) for cfg in configs for a in (cfg, tmp_path / cfg.stem)]
    proc = subprocess.run([sys.executable, "-c", _SCIPY_FREE_PROBE, json.dumps(list(_REPORTS)),
                           *args],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen.pop("futures_at_import") is False
    assert seen == {f"{tmp_path / cfg.stem}:{command}": 0
                    for cfg in configs for command in _REPORTS}
    for cfg in configs:
        for report in _REPORTS.values():
            assert json.loads((tmp_path / cfg.stem / report).read_text())["records"]


def test_out_dir_env_and_flag_precedence(tmp_path, monkeypatch):
    cfg = mini_config(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(env_dir))
    assert cli.main(["--config", str(cfg), "solve"]) == 0
    assert (env_dir / "solve_report_march.json").exists()
    flag_dir = tmp_path / "from_flag"
    assert cli.main(["--config", str(cfg), "--out", str(flag_dir), "solve"]) == 0
    assert (flag_dir / "solve_report_march.json").exists()


def test_seed_override_lands_in_report(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = mini_config(tmp_path)
    out = tmp_path / "seeded"
    assert cli.main(["--config", str(cfg), "--out", str(out), "--seed", "777",
                     "solve"]) == 0
    payload = json.loads((out / "solve_report_march.json").read_text())
    assert payload["seed"] == 777


def test_each_main_call_reads_its_own_arguments(tmp_path, monkeypatch):
    # the parser is built once per process, and each call still parses its
    # own argv: no --seed or --mode carries over to the next call
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    assert cli.build_parser() is cli.build_parser()
    cfg = mini_config(tmp_path)
    calls = [(["--seed", "11"], ["--mode", "picard_with_restart"], "picard_with_restart", 11),
             (["--seed", "12"], [], "march", 12), ([], [], "march", 7)]
    for i, (seed, mode, want_mode, want_seed) in enumerate(calls):
        out = tmp_path / f"run{i}"
        assert cli.main(["--config", str(cfg), "--out", str(out), *seed, "solve", *mode]) == 0
        payload = json.loads((out / f"solve_report_{want_mode}.json").read_text())
        assert (payload["command"], payload["seed"]) == (f"solve[{want_mode}]", want_seed)


def test_particle_ladder_runs_no_more_particles_than_configured(tmp_path, monkeypatch):
    # the small rung is capped at particles.n: at N = 50 the ladder is the
    # one configured rung, not 100 particles measured against 50
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = tmp_path / "full_model_50.cfg"
    cfg.write_text((REPO / "configs" / "full_model.cfg").read_text() + "\nparticles.n = 50\n")
    out = tmp_path / "run"
    assert cli.main(["--config", str(cfg), "--out", str(out), "particles"]) == 0
    lines = (out / "mean_field.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].split(",")[0] == "50"
    # one rung has no trend: the record that compared it with itself is gone
    records = json.loads((out / "particles_report.json").read_text())["records"]
    assert "mean_field_l1_nonincreasing" not in {r["name"] for r in records}


@pytest.mark.parametrize("seed", [str(2 ** 53 + 1), str(2 ** 63 - 1)])
@pytest.mark.parametrize("source", ["particles.seed", "--seed"])
def test_seed_keeps_every_digit(tmp_path, monkeypatch, source, seed):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    out = tmp_path / "run"
    if source == "--seed":
        argv = ["--config", str(mini_config(tmp_path)), "--seed", seed]
    else:
        argv = ["--config", str(mini_config(tmp_path, **{source: seed}))]
    assert cli.main([*argv, "--out", str(out), "particles"]) == 0
    assert json.loads((out / "particles_report.json").read_text())["seed"] == int(seed)


# argparse itself turns a non-integer --seed away
@pytest.mark.parametrize("source, seed", [
    *((source, seed) for source in ("particles.seed", "--seed")
      for seed in ("-1", str(2 ** 63), str(2 ** 64 - 1))),
    ("particles.seed", "7.0"), ("particles.seed", "1e3")])
def test_seed_outside_the_philox_range_exits_2(tmp_path, monkeypatch, capsys, source, seed):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    out = tmp_path / "run"
    if source == "--seed":
        argv = ["--config", str(mini_config(tmp_path)), "--seed", seed]
    else:
        argv = ["--config", str(mini_config(tmp_path, **{source: seed}))]
    assert cli.main([*argv, "--out", str(out), "particles"]) == 2
    err = capsys.readouterr().err
    assert f"{source}: seed must be an integer in [0, 2^63)" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["heat_only", "ou_surrogate", "full_model"])
def test_solver_summaries_match_goldens(tmp_path, monkeypatch, name):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    out = tmp_path / name
    rc = cli.main(["--config", str(REPO / "configs" / f"{name}.cfg"),
                   "--out", str(out), "solve"])
    assert rc == 0
    fresh = np.loadtxt(out / "summary.csv", delimiter=",", skiprows=1)
    golden = np.loadtxt(REPO / "configs" / "golden" / f"{name}_summary.csv",
                        delimiter=",", skiprows=1)
    assert fresh.shape == golden.shape
    assert np.allclose(fresh, golden, rtol=1e-9, atol=1e-12)


# --- qz Monte Carlo histogram check -------------------------------------------


def _sign_displacement(beta, x, dt):
    """The qz walk's Euler displacement by the expression's own ufuncs."""
    return np.multiply(beta * np.sign(0.0 - x), dt)


def test_qz_sign_drift_in_place_keeps_the_bits_of_the_expression():
    beta, N = 0.5, 400
    drift = cli._attracting_sign_drift(beta, N)
    x = np.resize([-2.0, -0.0, 0.0, 1e-300, np.inf, -np.inf, np.nan, 3.0], N)
    finite = np.resize([-2.0, 1e-300, np.inf, -np.inf, 3.0, -5e-324], N)
    # one drift across step sizes: its constants follow dt, also back to a
    # dt it had before
    for dt in (1e-3, 0.3, 1e-320, 1e-3):
        for z in (x, finite):
            got = drift(0.0, dt, z)
            assert got is not z
            assert got.tobytes() == _sign_displacement(beta, z, dt).tobytes(), dt


# starts of the qz walk: signed zeros at the attractor; NaNs among them; and
# infinities among finite starts, which the sign-bit path writes
_WALK_STARTS = {
    "signed zeros": lambda u: np.where(u < 0.5, -0.0, 0.0),
    "nan": lambda u: np.where(u < 0.1, np.nan, np.where(u < 0.5, -0.0, 0.0)),
    "inf": lambda u: np.where(u < 0.1, np.inf, np.where(u < 0.2, -np.inf, 1.0)),
}


@pytest.mark.parametrize("start", list(_WALK_STARTS.values()), ids=list(_WALK_STARTS))
def test_qz_sign_drift_walk_keeps_the_bits_of_the_expression(start):
    beta, N = 0.5, 400
    kw = dict(mesh=TimeMesh(1.0, 50), N=N, seed=5, drift_bound=beta)
    fused = simulate_bounded_drift(cli._attracting_sign_drift(beta, N), start, **kw)
    plain = simulate_bounded_drift(lambda t, dt, x: _sign_displacement(beta, x, dt), start,
                                   **kw)
    assert fused.positions.tobytes() == plain.positions.tobytes()


def test_qz_walk_keeps_the_bits_of_the_old_update_at_the_command_size():
    # the command's walk (N = 2e4, 1000 steps from x = 1) against the update
    # as it was written before the stepper took displacements: the drift
    # times dt, added, then the noise
    beta, N, seed = 0.5, 20000, 11
    mesh = TimeMesh(1.0, 1000)
    ens = simulate_bounded_drift(cli._attracting_sign_drift(beta, N),
                                 lambda u: np.full_like(u, 1.0), mesh, N, seed,
                                 store_rows=[mesh.steps])
    dt, x, buf = mesh.dt, np.ones(N), np.empty(N)
    streams, sqdt = particle._Streams(seed), math.sqrt(mesh.dt)
    for k in range(mesh.steps):
        x += np.multiply(beta * np.sign(0.0 - x), dt)
        x += streams.increments(k, sqdt, buf)
    assert ens.positions[-1].tobytes() == x.tobytes()


_NONZERO = st.one_of(
    st.floats(allow_nan=False).filter(lambda v: v != 0.0),
    st.sampled_from([5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
                     1e-300, -1e-300, math.inf, -math.inf, np.finfo(float).max,
                     -np.finfo(float).max]))


@settings(max_examples=300, deadline=None)
@given(x=st.lists(_NONZERO, min_size=1, max_size=70),
       beta=st.sampled_from([0.5, 0.25, 4.0, 0.0, -0.0, -1.5, 1e-310, math.inf, math.nan]),
       dt=st.sampled_from([1e-3, 0.5 / 7, 1.0, 1e-320]))
def test_qz_sign_drift_without_zeros_or_nans_keeps_the_bits_of_the_expression(x, beta, dt):
    # no zero or NaN: the sign-bit displacement, whose bits must be the
    # expression's at every beta and dt (at NaN the ufuncs run; at
    # beta = 1e-310 and the smallest dt both constants round to signed zeros)
    x = np.array(x)
    drift = cli._attracting_sign_drift(beta, x.size)
    assert drift(0.0, dt, x).tobytes() == _sign_displacement(beta, x, dt).tobytes()


@pytest.mark.parametrize("odd", [0.0, -0.0, math.nan], ids=["+0", "-0", "nan"])
@pytest.mark.parametrize("at", [0, 12345, 19999])
def test_qz_sign_drift_with_one_zero_or_nan_keeps_the_bits_of_the_expression(odd, at):
    x = np.random.default_rng(at).normal(size=20000)
    x[at] = odd
    drift = cli._attracting_sign_drift(0.5, x.size)
    assert drift(0.0, 1e-3, x).tobytes() == _sign_displacement(0.5, x, 1e-3).tobytes()


def test_qz_histogram_check_accepts_true_drift_and_rejects_wrong_drift():
    # the histogram of cmd_qz (sign drift 0.5 toward 0 from x = 1, t = 1)
    mesh = TimeMesh(1.0, 1000)
    zs = np.linspace(-3.0, 4.0, 36)
    width = zs[1] - zs[0]
    edges = np.concatenate([zs - width / 2.0, [zs[-1] + width / 2.0]])

    def bin_means(beta):
        p = QZParams(beta=beta, y=0.0, x=1.0, t=1.0)
        return np.array([integrate.quad(lambda z: qz_density(p, z), a, b,
                                        points=([0.0] if a < 0.0 < b else None))[0] / width
                         for a, b in zip(edges[:-1], edges[1:])])

    refs = {beta: bin_means(beta) for beta in (0.5, 0.25, 0.75)}

    def ratios(N, seed):
        ens = simulate_bounded_drift(lambda t, dt, x: dt * (0.5 * np.sign(-x)),
                                     lambda u: np.ones_like(u), mesh, N, seed=seed,
                                     store_rows=[mesh.steps])
        counts = np.histogram(ens.positions[-1], bins=edges)[0]
        return {beta: cli._histogram_error_ratio(counts, ref, width, N, mesh.dt)
                for beta, ref in refs.items()}

    # at N = 2e4 every seed tried (20 of 20) rejects both wrong drifts
    big = ratios(20000, 3)
    assert big[0.5] <= 1.0 and big[0.25] > 1.0 and big[0.75] > 1.0, big
    # at N = 2000 the power is about 2/3 per seed (seeds 100-299: 130 and 145
    # of 200 rejected with Gaussian steps, 149 and 138 with two-point steps),
    # so a count over 20 seeds says what one seed cannot
    small = [ratios(2000, seed) for seed in range(100, 120)]
    assert all(r[0.5] <= 1.0 for r in small)
    for wrong in (0.25, 0.75):
        assert sum(r[wrong] > 1.0 for r in small) >= 10, wrong


def test_qz_histogram_check_raises_no_false_alarm_at_small_n(tmp_path, monkeypatch):
    # a bin holding one path where N p << 1 broke the normal approximation
    # this check once made: 6 of these 40 runs exited 1
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    for N in (20, 100):
        for seed in range(20):
            cfg = mini_config(tmp_path, **{"particles.n": str(N), "particles.seed": str(seed)})
            assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "qz"), "qz"]) == 0, \
                (N, seed)
            records = json.loads((tmp_path / "qz" / "qz_report.json").read_text())["records"]
            assert [r["passed"] for r in records] == [True] * 4


def test_qz_command_bin_means_match_per_bin_quadrature(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT_DIR, raising=False)
    cfg = mini_config(tmp_path, **{"particles.n": "2000"})
    out = tmp_path / "qz"
    assert cli.main(["--config", str(cfg), "--out", str(out), "qz"]) == 0
    records = json.loads((out / "qz_report.json").read_text())["records"]
    assert [r["name"] for r in records] == ["normalization", "beta0_reduction",
                                            "mc_histogram_sup", "bound_violations"]
    zs, _, ref = np.loadtxt(out / "qz_histogram.csv", delimiter=",", skiprows=1).T
    width = zs[1] - zs[0]
    p = QZParams(beta=0.5, y=0.0, x=1.0, t=1.0)
    want = [integrate.quad(lambda z: qz_density(p, z), c - width / 2.0, c + width / 2.0,
                           points=[0.0] if abs(c) < width / 2.0 else None,
                           epsabs=1e-14)[0] / width for c in zs]
    assert np.max(np.abs(ref - want)) <= 1e-12
    # the normalization record's panel rule against adaptive quadrature
    for beta in (0.0, 0.25, 1.0, 4.0):
        for t in (0.1, 1.0, 5.0):
            p = QZParams(beta=beta, y=0.3, x=-0.8, t=t)
            w = 10.0 * math.sqrt(t) + beta * t + 2.0
            want = integrate.quad(lambda z: qz_density(p, z), min(p.x, p.y) - w,
                                  max(p.x, p.y) + w, points=[p.x, p.y],
                                  limit=400, epsabs=1e-13, epsrel=1e-13)[0]
            assert abs(cli._qz_mass(p) - want) <= 1e-12
