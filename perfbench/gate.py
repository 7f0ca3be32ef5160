"""Per-operation correctness gate.

An operation (one ksmv command) fails on any of:

* a non-zero exit code;
* a failed record in its JSON run report;
* an output that cannot be parsed (report, CSV or plot table);
* a solve whose final density is farther, in L1, from the committed
  fine-time-step reference than the bound recorded with that reference
  (see make_reference.py for how the bound follows from the
  discretization error).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from workloads import REFERENCE_DIR, Command


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    l1_err: Optional[float] = None  # final density vs reference, solves only


@dataclass
class Reference:
    density: np.ndarray
    h: float
    l1_bound: float

    @classmethod
    def load(cls, name: str, directory: Path = REFERENCE_DIR) -> "Reference":
        data = json.loads((directory / f"{name}.json").read_text())
        return cls(np.array(data["density"], dtype=float), float(data["h"]),
                   float(data["l1_bound"]))


class OutputError(ValueError):
    """An output file is missing, unparsable or inconsistent."""


def _table(path: Path, columns: int, delimiter: Optional[str] = None) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=delimiter, comments="#", ndmin=2,
                          skiprows=1 if delimiter == "," else 0)
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if data.shape[0] == 0 or data.shape[1] != columns or not np.all(np.isfinite(data)):
        raise OutputError(f"{path.name}: expected finite rows of {columns} columns, "
                          f"got shape {data.shape}")
    return data


def _check_report(path: Path):
    try:
        report = json.loads(path.read_text())
        records = report["records"]
        failed = [r["name"] for r in records if not r["passed"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if not records:
        raise OutputError(f"{path.name}: no check records")
    if failed:
        raise OutputError(f"{path.name}: failed records {failed}")


def _check_long_density(path: Path, final: np.ndarray):
    """density.csv holds (M+1) x n rows of (t, x, p); its last n rows must
    repeat the plot table's final density exactly (both use 17 digits)."""
    n = final.shape[0]
    try:
        text = path.read_bytes()
    except OSError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    lines = text.count(b"\n")
    if not text.startswith(b"t,x,p\n") or (lines - 1) % n != 0 or lines <= n:
        raise OutputError(f"{path.name}: {lines} lines do not make a t,x,p table "
                          f"of {n}-point rows")
    tail = text.rsplit(b"\n", n + 1)[1:-1]
    try:
        rows = np.array([[float(v) for v in line.split(b",")] for line in tail])
    except ValueError as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if rows.shape != (n, 3) or not np.array_equal(rows[:, 1:], final):
        raise OutputError(f"{path.name}: last time row differs from density_final.dat")


def check_outputs(command: Command, out_dir: Path, reference: Optional[Reference]) -> Optional[float]:
    """Raise OutputError unless every output of the command is sound;
    returns the L1 error against the reference for solve commands."""
    _check_report(out_dir / command.report)
    l1_err = None
    final = None
    if "density_final.dat" in command.outputs:
        final = _table(out_dir / "density_final.dat", 2)
        if reference is not None:
            if final.shape[0] != reference.density.size:
                raise OutputError("density_final.dat: grid size differs from the reference")
            l1_err = float(np.sum(np.abs(final[:, 1] - reference.density)) * reference.h)
            if not l1_err <= reference.l1_bound:
                raise OutputError(f"final density L1 error {l1_err:.3e} exceeds "
                                  f"the reference bound {reference.l1_bound:.3e}")
    for name in command.outputs:
        path = out_dir / name
        if name == "density.csv":
            _check_long_density(path, final)
        elif name == "summary.csv":
            mass = _table(path, 4, ",")[:, 1]
            if np.max(np.abs(mass - 1.0)) > 1e-3:
                raise OutputError("summary.csv: mass column drifts from 1")
        elif name == "field.csv":
            _table(path, 4, ",")
        elif name in ("mean_field.csv", "qz_histogram.csv"):
            _table(path, 2 if name == "mean_field.csv" else 3, ",")
    return l1_err


def judge(command: Command, exit_code: int, out_dir: Path,
          reference: Optional[Reference]) -> Outcome:
    if exit_code != 0:
        return Outcome(False, f"exit code {exit_code}")
    try:
        l1_err = check_outputs(command, out_dir, reference)
    except OutputError as exc:
        return Outcome(False, str(exc))
    return Outcome(True, l1_err=l1_err)


def clear_outputs(command: Command, out_dir: Path):
    """Delete the files a command must write, so stale ones cannot pass."""
    for name in (command.report, *command.outputs):
        (out_dir / name).unlink(missing_ok=True)
