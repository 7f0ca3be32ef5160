"""Benchmark worker: one fresh process per workload run.

    python3 perfbench/worker.py --workload NAME --run-dir DIR --seconds S --trace 0|1
    python3 perfbench/worker.py --setup-probe --run-dir DIR

The worker imports ksmv.cli, parses the generated configs and reports the
monotonic time at which it was ready (the end of set-up).  A setup probe
stops there.  Otherwise it runs closed-loop sessions (the workload's
commands one after another, in-process through ksmv.cli.main) for S seconds,
checks every command's outputs, and writes result.json into the run
directory.  The first session is a warm-up and is not timed.  Between
sessions, spread over the run, it starts SETUP_PROBES setup probes one at a
time and waits for each; their time does not count against S.  With
--trace 1, untraced and traced sessions alternate so the traced run can
report its own overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS

SETUP_PROBES = 5


def setup_probe(run_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, __file__, "--setup-probe", "--run-dir", str(run_dir)],
                          capture_output=True, text=True, timeout=60.0, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--run-dir", required=True, type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    import ksmv.cli as cli

    for config in sorted(args.run_dir.glob("*.cfg")):
        cli.RunConfig.from_file(str(config))
    ready = time.monotonic()
    if args.setup_probe:
        print(json.dumps({"ready": ready}))
        return 0

    import gate
    import spans

    workload = WORKLOADS[args.workload]
    out_dir = args.run_dir / "out"
    references = ({config: gate.Reference.load(config) for config in workload.configs}
                  if workload.reference else {})
    tracer = spans.Tracer(trace_id=args.run_dir.name)
    sessions, failures, setups = [], [], []
    attempted = 0
    # warm-up plus one timed session, and with tracing one more traced session
    min_sessions = 3 if args.trace else 2
    start = time.monotonic()
    deadline = start + args.seconds
    while (len(sessions) < min_sessions or time.monotonic() < deadline
           or len(setups) < SETUP_PROBES):
        # probes follow the warm-up session, spread evenly over the run
        if sessions and len(setups) < SETUP_PROBES and \
                time.monotonic() >= start + len(setups) * args.seconds / SETUP_PROBES:
            probe_start = time.monotonic()
            setups.append(setup_probe(args.run_dir))
            probe_s = time.monotonic() - probe_start
            start += probe_s
            deadline += probe_s
            continue
        # session 0 warms up; with tracing, odd sessions are traced
        traced = bool(args.trace) and len(sessions) % 2 == 1
        if traced:
            spans.instrument_ksmv(tracer)
            first_span = len(tracer.spans)
            root = tracer.begin("session")
        times, l1 = {}, {}
        for command in workload.commands:
            gate.clear_outputs(command, out_dir)
            config = args.run_dir / f"{command.config}.cfg"
            argv = ["--config", str(config), "--out", str(out_dir), *command.args]
            sink = io.StringIO()
            if traced:
                span = tracer.begin("cli.main")
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is a failed operation, not a stop
                    traceback.print_exc(file=sink)
                    code = -1
            times[command.metric] = time.perf_counter() - t0
            if traced:
                tracer.end(span)
            attempted += 1
            outcome = gate.judge(command, code, out_dir, references.get(command.config))
            if not outcome.ok:
                failures.append({"session": len(sessions), "command": command.metric,
                                 "reason": outcome.reason, "output": sink.getvalue()[-2000:]})
            if outcome.l1_err is not None:
                l1[command.metric] = outcome.l1_err
        session = {"times": times, "total": sum(times.values()), "traced": traced,
                   "l1_err": l1}
        if traced:
            tracer.end(root)
            tracer.restore()
            session["layers"] = spans.layer_metrics(tracer.spans[first_span:])
        sessions.append(session)

    if args.trace:
        tracer.write(args.run_dir / "spans.json")
    result = {"ready": ready, "sessions": sessions, "attempted": attempted,
              "failures": failures, "setup_s": setups,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    (args.run_dir / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
