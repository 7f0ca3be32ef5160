#!/usr/bin/env python3
"""Fresh-process wall time of each ksmv command on one config.

Runs every command below k times, each in a new interpreter
(`python -m ksmv.cli ...`), and prints the median and minimum wall time of
each.  The time includes interpreter start-up and every import the command
pulls in, which an in-process benchmark with a warm-up session does not
see.  --src names the directory holding the ksmv package to time (default:
this checkout's src/); give it more than once to compare checkouts.  Runs
go round-robin over commands and sources, so that slow phases of a shared
host spread over all of them, and the last column is each source's median
relative to the first source's.

Example:
    python scripts/command_times.py --config configs/full_model.cfg --repeats 7
    python scripts/command_times.py --src ../parent/src --src src --repeats 9
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

COMMANDS = {
    "solve": ("solve",),
    "solve --mode picard_with_restart": ("solve", "--mode", "picard_with_restart"),
    "particles": ("particles",),
    "qz": ("qz",),
    "check-kernel": ("check-kernel",),
}


def time_command(src: Path, config: Path, out: Path, args) -> tuple:
    """(wall seconds, exit code) of one fresh `python -m ksmv.cli` run."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "ksmv.cli", "--config", str(config), "--out", str(out), *args]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, proc.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, default=REPO / "configs" / "full_model.cfg")
    ap.add_argument("--repeats", type=int, default=5, help="runs per command and source (k)")
    ap.add_argument("--src", type=Path, action="append",
                    help="directory holding the ksmv package to time (repeatable)")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    sources = [s.resolve() for s in (args.src or [REPO / "src"])]
    for src in sources:
        if not (src / "ksmv" / "cli.py").is_file():
            ap.error(f"no ksmv package under {src}")

    walls = {(name, src): [] for name in COMMANDS for src in sources}
    failed = set()
    with tempfile.TemporaryDirectory(prefix="ksmv-times-") as out:
        for i in range(args.repeats):
            # alternate which source goes first
            order = sources if i % 2 == 0 else sources[::-1]
            for name, cmd in COMMANDS.items():
                for src in order:
                    wall, code = time_command(src, args.config.resolve(), Path(out), cmd)
                    walls[name, src].append(wall)
                    if code not in (0, 1):     # 1 is a failed scientific check
                        failed.add((name, src))

    print(f"# {args.config.name}: {args.repeats} fresh processes per command and source")
    for j, src in enumerate(sources):
        print(f"# [{j}] {src}")
    header = f"{'command':<34}" + "".join(f" {f'[{j}] median_s':>13} {'min_s':>6}"
                                             for j in range(len(sources)))
    print(header + "".join(f" {f'[{j}]/[0]':>8}" for j in range(1, len(sources))))
    for name in COMMANDS:
        medians = [statistics.median(walls[name, src]) for src in sources]
        row = f"{name:<34}" + "".join(f" {m:13.3f} {min(walls[name, src]):6.3f}"
                                      for m, src in zip(medians, sources))
        print(row + "".join(f" {m / medians[0] - 1.0:+8.1%}" for m in medians[1:]))
    for name, src in sorted(failed):
        print(f"# {name} on {src} exited with a usage or run error", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
