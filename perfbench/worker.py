"""One benchmark process: set up, then serve one workload in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--workdir DIR]

Needs `logff` importable (PYTHONPATH=src); `run.py` starts it that way.
Protocol on stdout: a line `READY` once set-up is done, then (unless
--setup-only) a line `RESULT <json>`.  One client, one thread, no extra
processes: the next request is built and sent only after the previous one
returned.  Building a request (and writing its files) is not timed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads
from tracer import Tracer, layer_metrics


def serve(workload: workloads.Workload, stream, seconds: float,
          tracer: Tracer | None = None) -> dict:
    """Closed loop until `seconds` have passed and the digest prefix is done.

    Returns latencies, failures, the digest of the first `workload.prefix`
    requests and, when traced, the layer counts over that prefix.
    """
    latencies, failed, records = [], 0, []
    prefix_counts = None
    start = time.perf_counter()
    while len(latencies) < workload.prefix or time.perf_counter() - start < seconds:
        req = next(stream)
        workloads.write_files(req)
        if tracer is not None:
            tracer.begin_request()
        outcome = workloads.execute(req)
        if tracer is not None:
            tracer.end_request()
        latencies.append(outcome.seconds)
        failed += not outcome.ok
        if len(records) < workload.prefix:
            records.append(outcome.record)
            if tracer is not None and len(records) == workload.prefix:
                prefix_counts = tracer.snapshot()
    return {"latencies": latencies, "failed": failed, "digest": workloads.digest(records),
            "prefix_counts": prefix_counts, "prefix_seconds": sum(latencies[:workload.prefix])}


def end_to_end(run: dict) -> dict:
    lat_ms = [1000 * s for s in run["latencies"]]
    return {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "throughput_rps": len(lat_ms) / sum(run["latencies"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    os.makedirs(args.workdir)
    home = os.getcwd()
    os.chdir(args.workdir)
    try:
        for req in workload.warmup_requests(args.seed):
            workloads.write_files(req)
            workloads.execute(req)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        item4 = workloads.probe_item4()
        result = {"workload": workload.name, "seed": args.seed,
                  "item4_wrong": sorted(k for k, ok in item4.items() if not ok)}
        # with --trace 1 the untraced pass covers the digest prefix only; the
        # traced pass then serves the same seeded stream afresh, so the two
        # prefixes compare the same requests on freshly built objects
        plain = serve(workload, workload.stream(args.seed), 0.0 if args.trace else args.seconds)
        result.update(attempted=len(plain["latencies"]), failed=plain["failed"],
                      digest=plain["digest"], prefix=workload.prefix)
        if not args.trace:
            result["metrics"] = end_to_end(plain)
        else:
            with Tracer() as tracer:
                traced = serve(workload, workload.stream(args.seed), args.seconds, tracer)
            requests = len(traced["latencies"])
            overhead = traced["prefix_seconds"] - plain["prefix_seconds"]
            result["metrics"] = layer_metrics(traced["prefix_counts"], tracer.stats, requests)
            result["metrics"].update({
                "trace.overhead_ms": 1000 * overhead / workload.prefix,
                "trace.overhead_share": overhead / plain["prefix_seconds"],
                "defects.item4_wrong_verdicts": len(result["item4_wrong"])})
            result.update(attempted=result["attempted"] + requests,
                          failed=result["failed"] + traced["failed"],
                          traced_digest=traced["digest"], traced_requests=requests)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        os.chdir(home)
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
