"""Every script under scripts/ runs to exit 0 on tiny arguments, in a fresh
interpreter, so that an API change cannot break one unnoticed."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "particle_ladder.py": ["--ladder", "200,400", "--steps", "20"],
    "refinement_study.py": ["--levels", "2"],
    "horizon_map.py": ["--chis", "1", "--lams", "0,0.5", "--probe-n", "64",
                       "--probe-steps", "20"],
    "command_times.py": ["--repeats", "1", "--config", str(REPO / "configs" / "heat_only.cfg")],
}


def test_every_script_is_listed():
    assert sorted(p.name for p in (REPO / "scripts").glob("*.py")) == sorted(SCRIPTS)


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs_on_tiny_arguments(tmp_path, script):
    args = list(SCRIPTS[script])
    if script != "command_times.py":
        args += ["--out", str(tmp_path / "table.csv")]
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script), *args],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if script != "command_times.py":
        assert (tmp_path / "table.csv").stat().st_size > 0
