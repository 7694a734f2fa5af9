"""Benchmark of the entmono CLI: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload three_qubit_bounds --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30     # every workload
    python3 bench/run.py --selftest --seed 1                      # trace on vs off

Each workload runs in its own fresh child process (``bench/worker.py``)
that imports ``entmono.cli`` from ``src/`` and calls
``entmono.cli.main(argv)`` in process, as users do, on inputs drawn from
``--seed``.  Load comes from that one process; the BLAS thread count is
pinned to one in its environment.  The parent checks every output with
an independent oracle (``bench/oracle.py``), outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

- ``setup_s``: median over fresh interpreters of ``import entmono.cli``;
- ``wall_s``: median over passes of one run of the command list;
- ``cmd_p50_s``, ``cmd_p95_s``: per-command latency percentiles of each
  pass, median over passes (the sample count is printed above the JSON
  line).  The 95th is the highest percentile with ten commands beyond it
  in a three-qubit pass; it falls inside the polygamy verifies, where the
  90th fell on their fastest few and moved with the inputs;
- ``peak_rss_mb``: peak resident memory of the workload's process.

Every time is in seconds at nominal host speed: each pass's times (and
each fresh import's) are divided by the host-speed factor measured right
before and after it (``bench/calibrate.py``), which takes out the drift of
a shared host between runs.  The raw wall-clock values are printed above
the JSON line.

Failed commands (traceback, exit 1, 2 or 4, an oracle mismatch, or a
corpus that did not pass) are counted in ``failed`` against ``attempted``.

With ``--trace 1`` a separate traced run wraps the public functions of
each layer from outside (``bench/tracer.py``) and the metrics are the
per-layer calls, self times, computed counters and layer shares, each the
median over passes.  Spans of the first pass are written to
``.bench_out/spans-<workload>.jsonl``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import calibrate  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = "1"
SETUP_PROBES = 15
DEADLINE_S = 170.0
PROBE = ("import time; t = time.perf_counter(); import entmono.cli; "
         "t = time.perf_counter() - t; import entmono; print(t); print(entmono.__file__)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_p95_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def pin_cpu():
    """Run this process and its children on one CPU, the highest-numbered
    one allowed.  The first CPU also serves interrupts and most other
    processes; on a 2-core VM, fresh-import times there alternated between
    two modes 50% apart."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine_record(pinned) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # the record is informative only
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas, "blas_threads": int(BLAS_THREADS),
            "pinned_cpu": pinned}


def _run(cmd, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=remaining,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out: {' '.join(cmd[:4])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return proc


def setup_samples(deadline):
    """Import times of entmono.cli in fresh interpreters (after one
    warm-up): raw, and divided by the host-speed factor around each."""
    raw, scaled = [], []
    ref = calibrate.small()
    for i in range(SETUP_PROBES + 1):
        out = _run([sys.executable, "-c", PROBE], deadline).stdout.split("\n")
        if not Path(out[1]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"entmono imported from {out[1]}, not from {SRC}")
        before, ref = ref, calibrate.small()
        if i:
            raw.append(float(out[0]))
            scaled.append(raw[-1] * 2 * calibrate.NOMINAL_S["small"] / (before + ref))
    return raw, scaled


def run_worker(workload, seed, seconds, trace, workdir, deadline):
    _run([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
          "--workdir", str(workdir.relative_to(ROOT))], deadline)
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    if not Path(result["src"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"worker imported entmono from {result['src']}, not from {SRC}")
    with open(workdir / "outputs.jsonl", encoding="utf-8") as fh:
        outputs = [json.loads(line) for line in fh]
    return result, outputs


def check_outputs(outputs):
    """Oracle verdicts: (attempted, failed, failure notes, verify summaries)."""
    import oracle
    judge = oracle.Oracle()
    failed, notes, summaries = 0, [], []
    current_pass = None
    for rec in outputs:
        if rec["pass"] != current_pass:
            judge.forget_states()
            current_pass = rec["pass"]
        try:
            summary = judge.check(rec["argv"], rec["code"], rec["stdout"], rec["traceback"])
        except (oracle.Mismatch, ArithmeticError, LookupError, TypeError, ValueError) as exc:
            failed += 1
            if len(notes) < 5:
                notes.append(f"{' '.join(rec['argv'])}: {type(exc).__name__}: {exc}")
            summary = None
            if rec["argv"][0] == "verify" and rec["stdout"].strip():
                try:
                    summary = json.loads(rec["stdout"])["conditions"]["summary"]
                except (ValueError, KeyError):
                    pass
        if rec["argv"][0] == "verify" and summary is not None:
            summaries.append(summary)
    return len(outputs), failed, notes, summaries


def percentile95(values):
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else values[0]


def run_workload(workload, seed, seconds, trace, deadline):
    """One workload in fresh processes; returns (result dict, printable lines)."""
    workdir = OUT / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_raw, setup = ([], []) if trace else setup_samples(deadline)
        result, outputs = run_worker(workload, seed, seconds, trace, workdir, deadline)
        if trace:
            os.replace(workdir / "spans.jsonl", OUT / f"spans-{workload}.jsonl")
        attempted, failed, notes, summaries = check_outputs(outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    certified = sum(1 for s in summaries if s != "undecidable")
    lines = [f"# workload {workload}: seed {seed}, {len(passes)} passes, "
             f"{attempted} commands attempted, {failed} failed "
             f"(failed_ratio {failed / attempted:.4g})",
             f"# certified_ratio {certified / len(summaries):.4g} "
             f"({certified} of {len(summaries)} verify reports not undecidable)"
             if summaries else "# certified_ratio: no verify reports"]
    lines += [f"# failure: {note}" for note in notes]

    if trace:
        metrics = {}
        for key in passes[0]["layers"]:
            metrics[key] = statistics.median(p["layers"][key] for p in passes)
        metrics["bounds.verify.certified_ratio"] = (
            certified / len(summaries) if summaries else 0.0)
        lines += layer_report(metrics, result, passes)
        import tracer
        units = tracer.metric_units()
    else:
        # latency percentiles are taken per pass, then the median over passes,
        # so that a burst of machine noise in one pass moves them little
        per_pass = (f"median over {len(passes)} passes of {len(passes[0]['cmd_s'])} "
                    "commands, at nominal host speed")
        nominal = calibrate.NOMINAL_S[result["reference"]]
        speed = [statistics.fmean(p["ref_s"]) / nominal for p in passes]
        raw = {"wall_s": [p["wall_s"] for p in passes],
               "cmd_p50_s": [statistics.median(p["cmd_s"]) for p in passes],
               "cmd_p95_s": [percentile95(p["cmd_s"]) for p in passes]}
        metrics = {"setup_s": statistics.median(setup)}
        for key, values in raw.items():
            metrics[key] = statistics.median(v / f for v, f in zip(values, speed))
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        lines.append("# raw wall clock: " + ", ".join(
            f"{key} {statistics.median(values):.6g} s" for key, values in raw.items())
            + f", setup_s {statistics.median(setup_raw):.6g} s"
            + f"; host-speed factor ({result['reference']} reference) median "
            f"{statistics.median(speed):.4g}"
            f" (min {min(speed):.4g}, max {max(speed):.4g})")
        counts = {"setup_s": f"median of {len(setup)} fresh imports",
                  "wall_s": f"median of {len(passes)} passes, at nominal host speed",
                  "cmd_p50_s": per_pass,
                  "cmd_p95_s": per_pass,
                  "peak_rss_mb": "1 process"}
        units = END_TO_END_UNITS
        for key, value in metrics.items():
            lines.append(f"{key:<12} {value:12.6g} {units[key]:<3} ({counts[key]})")
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return out, lines


def layer_report(metrics, result, passes):
    """Self-time share of each layer, the busiest functions and the counters."""
    import tracer
    total = statistics.median(sum(p["cmd_s"]) for p in passes)
    lines = [f"# traced: {result['spans']} spans in the first pass; "
             f"median command time per pass {total:.4g} s"]
    if result.get("missing"):
        lines.append(f"# not found (reported as 0): {', '.join(result['missing'])}")
    shares = {layer: metrics[f"{layer}.self_share"] for layer in tracer.TARGETS}
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"layer {layer:<9} self share {100 * share:6.2f}%")
    lines.append(f"layer {'(other)':<9} self share {100 * (1 - sum(shares.values())):6.2f}%"
                 "  (argument handling in main, tracing cost)")
    selfs = sorted(((metrics[f"{name}.self_s"], name) for _, _, name in tracer.target_names()),
                   reverse=True)
    for value, name in selfs[:8]:
        lines.append(f"  {name:<42} self {value:10.4g} s  calls "
                     f"{metrics[name + '.calls']:.0f}")
    for key in list(tracer.COMPUTED) + ["bounds.verify.certified_ratio"]:
        lines.append(f"  {key:<42} {metrics[key]:.6g} (computed)")
    return lines


def selftest(names, seed, deadline) -> int:
    """Byte identity of every command with tracing on and off, and its cost."""
    ok = True
    for workload in names:
        walls, outs = [], []
        for trace in (0, 1):
            # the same input paths both times: reports echo the input path
            workdir = OUT / f"selftest-{workload}-{os.getpid()}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                result, outputs = run_worker(workload, seed, 0, trace, workdir, deadline)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            walls.append(result["passes"][0]["wall_s"])
            outs.append([(o["code"], o["stdout"], o["stderr"], o["traceback"])
                         for o in outputs])
        same = sum(1 for a, b in zip(*outs) if a == b)
        identical = len(outs[0]) == len(outs[1]) == same
        ok = ok and identical
        print(f"{workload}: {same} of {len(outs[0])} commands byte-identical with "
              f"tracing on and off; wall_s untraced {walls[0]:.4g} s, traced "
              f"{walls[1]:.4g} s, overhead {walls[1] - walls[0]:.4g} s "
              f"({100 * (walls[1] / walls[0] - 1):.1f}%)")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="entmono benchmark")
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="compare one pass traced and untraced per workload")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    os.chdir(ROOT)
    if args.seed < 0 or args.seconds < 0:
        print("bench: --seed and --seconds must be nonnegative", file=sys.stderr)
        return 2
    if not (SRC / "entmono" / "cli.py").is_file():
        print(f"bench: the entmono sources are missing ({SRC / 'entmono'})", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    pinned = pin_cpu()
    try:
        if args.selftest:
            return selftest(names, args.seed, deadline)
        print("# machine: " + json.dumps(machine_record(pinned)))
        results = {}
        for workload in names:
            results[workload], lines = run_workload(workload, args.seed, args.seconds,
                                                    args.trace, deadline)
            print("\n".join(lines))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
