#!/usr/bin/env python3
"""Interleaved A/B of two logff trees, request by request, in one process.

    python3 scripts/ab_requests.py --parent REV [--workload W] [--requests N]

Run from a git checkout; uses the standard library only.  The parent commit
is exported with `bench_pairs.export` into a temporary directory; the change
is the working tree.  Both `src/logff` trees are imported into this one
process, as the packages `logff_parent` and `logff_change`, and each gets its
own copy of its tree's `perfbench/workloads.py`, bound to its own package.
Each side builds the seed-401 stream of the workload (the stream whose
prefix the benchmark digests) and serves the workload's warm-up requests
first.  Then the requests run interleaved: request i runs on the parent
first when i is even and on the change first when it is odd, so whatever
drifts over the run (the clock, the cache, the other tenants of the
machine) falls on both sides alike.  Two benchmark processes drift apart
by far more than this.

Every request's record must be the same on both sides, and so must its
verdict: the exit code, the JSON report with every `elapsed_ms` removed and
stderr, or for a Taylor request the residual.  The script exits 1 at the
first request that differs.  Otherwise it prints each side's throughput
(requests per second of timed call), p50 and p90 latency, and the ratios
change/parent.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))

from bench_pairs import WORKLOADS, export, git  # noqa: E402

SEED = 401
SIDES = ("parent", "change")


def load_side(tree: Path, name: str):
    """The workloads module of tree, bound to tree's src/logff imported as `name`."""
    src = tree / "src" / "logff"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    subs = sorted(path.stem for path in src.glob("*.py") if path.stem != "__init__")
    for sub in subs:
        importlib.import_module(f"{name}.{sub}")
    # workloads.py imports `logff` by that name: alias it for the import only
    aliases = {"logff": package}
    aliases.update((f"logff.{sub}", sys.modules[f"{name}.{sub}"]) for sub in subs)
    sys.modules.update(aliases)
    try:
        wspec = importlib.util.spec_from_file_location(
            f"{name}_workloads", tree / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(wspec)
        # its dataclasses look their module up by name
        sys.modules[wspec.name] = workloads
        wspec.loader.exec_module(workloads)
    finally:
        for alias in aliases:
            del sys.modules[alias]
    return workloads


def run(sides: dict, workload: str, count: int) -> dict:
    """Serve the warm-up, then count interleaved requests; side -> latencies (s)."""
    streams, warmups = {}, {}
    for side, workloads in sides.items():
        streams[side] = workloads.WORKLOADS[workload].stream(SEED)
        warmups[side] = workloads.WORKLOADS[workload].warmup_requests(SEED)
    latencies = {side: [] for side in SIDES}
    total = len(warmups["parent"]) + count
    for i in range(total):
        warm = i < len(warmups["parent"])
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        outcomes = {}
        for side in order:
            req = warmups[side][i] if warm else next(streams[side])
            sides[side].write_files(req)
            outcomes[side] = sides[side].execute(req)
        old, new = outcomes["parent"], outcomes["change"]
        if (old.record, old.ok) != (new.record, new.ok):
            what = "warm-up request" if warm else "request"
            number = i if warm else i - len(warmups["parent"])
            raise SystemExit(f"error: {workload} {what} {number} differs:\n"
                             f"  parent ({'ok' if old.ok else 'wrong'}): {old.record[:400]}\n"
                             f"  change ({'ok' if new.ok else 'wrong'}): {new.record[:400]}")
        if not warm:
            for side in SIDES:
                latencies[side].append(outcomes[side].seconds)
    return latencies


def metrics(latencies: list[float]) -> dict:
    ms = [1000 * s for s in latencies]
    return {"throughput_rps": len(ms) / sum(latencies),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10)[8]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", default="verify-mix", choices=WORKLOADS)
    parser.add_argument("--requests", type=int, default=198)
    args = parser.parse_args(argv)
    if args.requests < 2:
        parser.error("--requests must be at least 2")
    os.chdir(ROOT)
    commit = git("rev-parse", args.parent).strip()
    with tempfile.TemporaryDirectory(prefix="ab_requests_") as tmp:
        tree = Path(tmp) / "parent"
        export(commit, tree)
        sides = {"parent": load_side(tree, "logff_parent"),
                 "change": load_side(ROOT, "logff_change")}
        work = Path(tmp) / "work"
        work.mkdir()
        os.chdir(work)
        try:
            latencies = run(sides, args.workload, args.requests)
        finally:
            os.chdir(ROOT)
    got = {side: metrics(latencies[side]) for side in SIDES}
    print(f"{args.workload}: {args.requests} requests at seed {SEED}, interleaved; "
          f"parent {commit[:12]} against the working tree; every output identical")
    for name in got["parent"]:
        old, new = got["parent"][name], got["change"][name]
        print(f"  {name:15s} parent {old:10.3f}  change {new:10.3f}  ratio {new / old:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
