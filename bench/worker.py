"""One workload in one fresh process: the benchmark's child.

Run by ``bench/run.py``; not meant to be started by hand.  It imports
``entmono.cli`` first, then runs the workload's command list through
``entmono.cli.main(argv)`` in process, pass after pass, until the measured
time reaches ``--seconds`` (at least one pass).  Each pass gets fresh
inputs, written before the pass starts and outside the timed region.  The
host-speed reference (``bench/calibrate.py``) is timed before the first
pass and after every pass.

It writes into ``--workdir``:

- ``outputs.jsonl``: one line per command with its argv, exit code,
  stdout, stderr and traceback, for the parent's oracle;
- ``result.json``: per-pass wall time, per-command latencies, the
  reference times around each pass, peak resident memory and, with
  ``--trace 1``, per-pass layer metrics;
- ``spans.jsonl`` (traced runs only): the spans of the first pass.
"""

import argparse
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import entmono
import entmono.cli

import calibrate
import tracer as tracer_mod
import workloads


def run_command(main, argv):
    """Run one CLI invocation; return (exit code, seconds, out, err, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # a traceback is a failed command, not a dead run
            code = None
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
    return code, dt, out.getvalue(), err.getvalue(), error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    src = Path(entmono.__file__).resolve().parent.parent
    tracer = tracer_mod.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    passes = []
    reference = calibrate.TASKS[workloads.REFERENCE[args.workload]]
    reference()  # warm-up, untimed
    refs = [reference()]
    start = time.perf_counter()
    with open(args.workdir / "outputs.jsonl", "w", encoding="utf-8") as log:
        while not passes or time.perf_counter() - start < args.seconds:
            p = len(passes)
            cmds = workloads.commands(args.workload, args.seed, p, args.workdir)
            results = []
            t_pass = time.perf_counter()
            for i, argv_i in enumerate(cmds):
                if tracer is not None:
                    tracer.start_command(f"{p}:{i}")
                results.append(run_command(entmono.cli.main, argv_i))
            wall = time.perf_counter() - t_pass
            refs.append(reference())
            record = {"wall_s": wall, "cmd_s": [r[1] for r in results],
                      "ref_s": refs[-2:]}
            if tracer is not None:
                tracer.finish()
                tracer.keep_spans = False
                record["layers"] = tracer.metrics(sum(record["cmd_s"]))
                tracer.reset()
            passes.append(record)
            for i, (argv_i, (code, dt, out, err, error)) in enumerate(zip(cmds, results)):
                log.write(json.dumps({"pass": p, "cmd": i, "argv": argv_i, "code": code,
                                      "stdout": out, "stderr": err,
                                      "traceback": error}) + "\n")

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"src": str(src), "passes": passes, "peak_rss_mb": peak_kb / 1024.0,
              "reference": workloads.REFERENCE[args.workload]}
    if tracer is not None:
        tracer.uninstall()
        result["missing"] = tracer.missing
        result["spans"] = len(tracer.spans)
        with open(args.workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for name, t0, t1, span_id, parent, command in tracer.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "id": span_id,
                                     "parent": parent, "command": command}) + "\n")
    (args.workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
