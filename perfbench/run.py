"""ksmv benchmark: one workload run per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a ksmv source checkout.  The script writes the
workload's configs (seeded), then starts one fresh worker process that runs
the workload's command sequence in a closed loop for S seconds and times
fresh-process set-ups between its sessions (see worker.py).  It prints every
metric by name and unit with its sample count, writes a result with
provenance to perfbench/out/<workload>/, and prints as its last line one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones.  Exits 2 without a result when the
checkout holds no ksmv sources, 1 when a worker process fails.

Timings are medians over the run's sessions, except the gated session
time, session_min_s: the sum over the workload's commands of each command's
fastest time in the run.  On a shared host other tenants slow stretches of
seconds to minutes by up to 2x, which moves the median from run to run far
more than the fastest times; a command's fastest time needs only one fast
stretch as long as that command, not one as long as a whole session.  The
median session is printed beside it as session_s.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 120.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_worker(run_dir: Path, args: List[str], timeout: float):
    """Run worker.py in its own process group; on any way out other than its
    normal exit (timeout, SIGTERM), kill the group and reap the worker."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--run-dir", str(run_dir), *args]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"worker exited with {proc.returncode}")


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance() -> Dict[str, object]:
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "thread_env": {var: child_env()[var] for var in THREAD_VARS},
    }


def summarize(result: dict, trace: bool) -> Dict[str, dict]:
    """Metric name -> {value, unit, samples}; timings are medians over
    sessions, except session_min_s, the sum of per-command fastest times."""
    timed = [s for s in result["sessions"][1:] if not s["traced"]]
    metrics: Dict[str, dict] = {}

    def put(name, value, unit, samples):
        metrics[name] = {"value": float(value), "unit": unit, "samples": samples}

    failed = len(result["failures"])
    if not trace:
        totals = [s["total"] for s in timed]
        fastest = sum(min(s["times"][name] for s in timed) for name in timed[0]["times"])
        put("session_min_s", fastest, "s", len(timed))
        put("session_s", statistics.median(totals), "s", len(timed))
        setups = result["setup_s"]
        put("setup_s", statistics.median(setups), "s", len(setups))
        put("peak_rss_mb", result["peak_rss_mb"], "MB", 1)
        for name in timed[0]["times"]:
            put(name, statistics.median(s["times"][name] for s in timed), "s", len(timed))
        put("failed_frac", failed / result["attempted"], "1", result["attempted"])
        errors = [e for s in result["sessions"] for e in s["l1_err"].values()]
        if errors:
            put("solve_l1_err", max(errors), "1", len(errors))
        return metrics

    from spans import LAYER_METRICS

    traced = [s for s in result["sessions"] if s["traced"]]
    for name, (unit, _better) in LAYER_METRICS.items():
        if name == "trace.overhead_s":
            overhead = (statistics.median(s["total"] for s in traced)
                        - statistics.median(s["total"] for s in timed))
            put(name, overhead, unit, min(len(traced), len(timed)))
        else:
            put(name, statistics.median(s["layers"][name] for s in traced), unit, len(traced))
    return metrics


def baseline_point(workload: str) -> List[dict]:
    path = HERE / "baseline.json"
    if not path.is_file():
        return []
    base = json.loads(path.read_text())
    return [{"label": "seed commit", "git_revision": base["git_revision"],
             "hardware": base["hardware"], "metrics": base["workloads"].get(workload, {})}]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM becomes SystemExit, so run_worker kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "ksmv" / "cli.py").is_file():
        print(f"no ksmv sources under {SRC}; run from the root of a ksmv checkout",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}[args.workload]

    workload = WORKLOADS[args.workload]
    run_dir = OUT / args.workload / f"seed-{args.seed}-trace-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    for config in workload.configs:
        (run_dir / f"{config}.cfg").write_text(
            workload.config_text(config, args.seed, run_dir / "out"))

    run_worker(run_dir, ["--workload", args.workload, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], timeout=args.seconds + WORKER_TIMEOUT_S)
    result = json.loads((run_dir / "result.json").read_text())
    metrics = summarize(result, bool(args.trace))

    prov = provenance()
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {why}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")
    for f in result["failures"]:
        print(f"  FAILED session {f['session']} {f['command']}: {f['reason']}")

    failed = len(result["failures"])
    point = {"git_revision": prov["git_revision"], "seed": args.seed,
             "metrics": {k: m["value"] for k, m in metrics.items()}}
    summary = {"workload": args.workload, "why": why, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "provenance": prov,
               "metrics": metrics, "attempted": result["attempted"], "failed": failed,
               "failures": result["failures"],
               "trajectory": baseline_point(args.workload) + [point]}
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")

    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in declared[section]]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
