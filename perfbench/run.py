#!/usr/bin/env python3
"""The logff benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify-mix|glue-d3|taylor-highn \\
                             --seed N --seconds S --trace 0|1

Run from the repository root.  logff is taken from ./src (it need not be
installed).  Every workload runs in an interpreter of its own
(perfbench/worker.py), so its peak RSS is its own.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
it holds the per-layer metrics of an outside-in traced run.  Lines before it
give the sample counts, the output digest and the known defects.

setup_s is measured from outside: the time from starting a fresh interpreter
to its READY line (import logff, build the seeded stream, warm up).  It is
the median over SETUP_RUNS set-up-only interpreters plus the measuring one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
RUN_DIR = WORKDIR / str(os.getpid())        # one per run; workers get subdirectories
WORKLOADS = ("verify-mix", "glue-d3", "taylor-highn")
SETUP_RUNS = 4
TIMEOUT_S = 170
END_TO_END_UNITS = {"latency_p50_ms": "ms", "latency_p90_ms": "ms", "throughput_rps": "1/s",
                    "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = dict(metric_names() + [("trace.overhead_ms", "ms"),
                                         ("trace.overhead_share", "ratio"),
                                         ("defects.item4_wrong_verdicts", "count")])


class BenchError(RuntimeError):
    pass


def start_worker(args, setup_only: bool, deadline: float):
    """Start a worker; return (process, seconds from start to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(RUN_DIR / str(time.monotonic_ns()))]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed string-hash seed takes one source of run-to-run spread away:
    # dict and set layouts no longer change from one interpreter to the next
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY" or time.monotonic() > deadline:
            raise BenchError(f"worker did not get ready: {line!r}")
    except BaseException:
        stop(proc)
        raise
    return proc, ready


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def wait(proc, deadline: float) -> str:
    """Wait for a worker to exit cleanly; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run(args) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            proc, ready = start_worker(args, True, deadline)
            wait(proc, deadline)
            setups.append(ready)
    proc, ready = start_worker(args, False, deadline)
    setups.append(ready)
    for line in wait(proc, deadline).splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
            result["setup_runs"] = setups
            return result
    raise BenchError("worker printed no result")


def report(args, result: dict) -> dict:
    correct = result["failed"] == 0
    wrong = result["item4_wrong"]
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['attempted']} requests, {result['failed']} wrong")
    print(f"digest of the first {result['prefix']} reports: {result['digest']}")
    print(f"known defect (ROADMAP item 4, probed outside the timed loop): "
          f"{len(wrong)} of 6 malformed shapes get the wrong verdict: {', '.join(wrong) or '-'}")
    metrics = dict(result["metrics"])
    if args.trace:
        if result["traced_digest"] != result["digest"]:
            print(f"traced digest differs: {result['traced_digest']}")
            correct = False
        print(f"traced {result['traced_requests']} requests; counts cover the first "
              f"{result['prefix']}; self_ms is per request; tracing overhead "
              f"{metrics['trace.overhead_ms']:.3f} ms per request "
              f"({100 * metrics['trace.overhead_share']:.1f}%)")
        units = PER_LAYER_UNITS
    else:
        metrics["setup_s"] = statistics.median(result["setup_runs"])
        setups = ", ".join(f"{s:.4f}" for s in result["setup_runs"])
        print(f"latency over {result['attempted']} samples; setup_s is the median of "
              f"{len(result['setup_runs'])}: {setups}")
        units = END_TO_END_UNITS
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="logff benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind through the finally clauses, which kill and reap the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "logff" / "__init__.py").is_file():
        print(f"error: no logff sources under {SRC}; run from a logff checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    print(json.dumps(report(args, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
