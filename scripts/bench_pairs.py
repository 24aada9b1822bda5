#!/usr/bin/env python3
"""Paired benchmark runs of two commits, written to a BENCH_<pr>.json file.

    python3 scripts/bench_pairs.py --parent REF [--change REF] [--pairs 10]
                                   [--seconds 30] [--workloads a,b] [--first-seed 1301]
                                   [--pr N] [--out FILE]
    python3 scripts/bench_pairs.py --check FILE [FILE ...]

Run from a git checkout; uses the standard library only.  Both commits are
exported with `git archive` into a temporary directory, so uncommitted edits
take no part, and each side runs its own `perfbench/run.py` on its own
sources.  For each workload, pair i runs both sides at seed first_seed + i
for --seconds each, the parent first in even pairs and the change first in
odd ones.  Each side then runs `--trace 1 --seconds 0` once per workload at
seed 401 (the deterministic per-layer call counts of the digest prefix), and
`--seconds 0` at seeds 401, 402 and 403 for the output digests.

The file holds the commits, the protocol, the Python version and CPU, every
raw run, per workload and end-to-end metric each side's median and
quartiles, the median and quartiles of the per-pair ratio change/parent
(a drift that moves both sides of a pair alike does not widen it) and the
change's wins, losses and ties over the pairs, both sides' digests and both
sides' per-layer call counts.  Files written before the ratio was recorded
have no "ratio" entries and still pass --check.  --check validates
such files and exits 1 if any is malformed or its two sides' digests differ.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

WORKLOADS = ("verify-mix", "glue-d3", "taylor-highn")
DIGEST_SEEDS = (401, 402, 403)
TRACE_SEED = 401
SIDES = ("parent", "change")
# end-to-end metric -> the direction that is better (BENCHMARK.json)
BETTER = {"latency_p50_ms": "lower", "latency_p90_ms": "lower", "throughput_rps": "higher",
          "peak_rss_mb": "lower", "setup_s": "lower"}
REQUIRED = ("pr", "commits", "protocol", "python", "cpu", "runs", "summary", "digests",
            "per_layer_calls")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def export(commit: str, dest: Path):
    """The tree of commit, as `git archive` gives it, extracted into dest."""
    data = subprocess.run(["git", "archive", "--format=tar", commit], check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        # the "data" filter refuses members that would land outside dest
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in tree: its JSON result line and its digest."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(line.rsplit(" ", 1)[1] for line in lines
                            if line.startswith("digest of the first"))
    return result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread(values: list[float]) -> dict:
    """Median and quartiles (the quartiles of a single value are the value)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], workloads, pairs: int) -> dict:
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {(r["pair"], r["side"]): r["metrics"] for r in mine}
        summary[workload] = {}
        for metric, better in BETTER.items():
            sides = {side: [by_pair[(i, side)][metric] for i in range(pairs)] for side in SIDES}
            wins = losses = ties = 0
            for old, new in zip(sides["parent"], sides["change"]):
                if new == old:
                    ties += 1
                elif (new < old) == (better == "lower"):
                    wins += 1
                else:
                    losses += 1
            ratios = [new / old for old, new in zip(sides["parent"], sides["change"])]
            summary[workload][metric] = {
                "better": better, "parent": spread(sides["parent"]),
                "change": spread(sides["change"]), "ratio": spread(ratios),
                "wins": wins, "losses": losses, "ties": ties}
    return summary


def run_pairs(args) -> dict:
    commits = {"parent": git("rev-parse", args.parent).strip(),
               "change": git("rev-parse", args.change).strip()}
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        raise SystemExit(f"error: unknown workloads {sorted(unknown)}")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs, digests, calls = [], {s: {} for s in SIDES}, {s: {} for s in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for workload in workloads:
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result = bench(trees[side], workload, seed, args.seconds, 0)
                    runs.append({
                        "workload": workload, "pair": i, "seed": seed, "side": side,
                        "position": position, "attempted": result["attempted"],
                        "failed": result["failed"], "correct": result["correct"],
                        "digest": result["digest"],
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"{runs[-1]['metrics']}", file=sys.stderr, flush=True)
            for side in SIDES:
                traced = bench(trees[side], workload, TRACE_SEED, 0, 1)
                calls[side][workload] = {k: v["value"] for k, v in traced["metrics"].items()
                                         if k.endswith(".calls")}
                digests[side][workload] = {
                    str(seed): bench(trees[side], workload, seed, 0, 0)["digest"]
                    for seed in DIGEST_SEEDS}
    return {
        "pr": args.pr,
        "commits": {"parent": {"ref": args.parent, "commit": commits["parent"]},
                    "change": {"ref": args.change, "commit": commits["change"]}},
        "protocol": {"pairs": args.pairs, "seconds": args.seconds, "seeds": seeds,
                     "workloads": workloads, "order": "parent first in even pairs",
                     "digest_seeds": list(DIGEST_SEEDS), "trace_seed": TRACE_SEED,
                     "command": "python3 perfbench/run.py"},
        "python": platform.python_version(),
        "cpu": {"model": cpu_model(), "count": os.cpu_count()},
        "runs": runs,
        "summary": summarize(runs, workloads, args.pairs),
        "digests": digests,
        "per_layer_calls": calls,
    }


def check(doc: dict) -> list[str]:
    """What is wrong with a BENCH file: missing fields, pair counts that do
    not add up, or digests that differ between the two sides."""
    problems = [f"missing field {key!r}" for key in REQUIRED if key not in doc]
    if problems:
        return problems
    pairs = doc["protocol"]["pairs"]
    workloads = doc["protocol"]["workloads"]
    if len(doc["runs"]) != 2 * pairs * len(workloads):
        problems.append(f"{len(doc['runs'])} runs, expected {2 * pairs * len(workloads)}")
    for workload in workloads:
        for metric in BETTER:
            entry = doc["summary"].get(workload, {}).get(metric)
            if entry is None:
                problems.append(f"no summary of {metric} on {workload}")
                continue
            for side in SIDES:
                if not {"median", "q1", "q3"} <= entry.get(side, {}).keys():
                    problems.append(f"{metric} on {workload}: no {side} median and quartiles")
            if "ratio" in entry and not {"median", "q1", "q3"} <= entry["ratio"].keys():
                problems.append(f"{metric} on {workload}: no median and quartiles of the ratio")
            if entry["wins"] + entry["losses"] + entry["ties"] != pairs:
                problems.append(f"{metric} on {workload}: wins + losses + ties != {pairs}")
        got = [doc["digests"][side].get(workload) for side in SIDES]
        if not got[0] or got[0] != got[1]:
            problems.append(f"digests of {workload} differ between the sides: {got}")
        for i in range(pairs):
            pair = {r["side"]: r["digest"] for r in doc["runs"]
                    if r["workload"] == workload and r["pair"] == i}
            if len(pair) != 2 or pair["parent"] != pair["change"]:
                problems.append(f"pair {i} of {workload}: the sides' digests differ: {pair}")
        for side in SIDES:
            if not doc["per_layer_calls"][side].get(workload):
                problems.append(f"no per-layer calls of {workload} for the {side}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", nargs="+", metavar="FILE",
                        help="validate BENCH files instead of running pairs")
    parser.add_argument("--parent", help="the commit to compare against")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1301)
    parser.add_argument("--pr", type=int, default=None)
    parser.add_argument("--out", help="where to write the JSON (default: stdout)")
    args = parser.parse_args(argv)
    if args.check:
        bad = 0
        for path in args.check:
            with open(path, encoding="utf-8") as fh:
                problems = check(json.load(fh))
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
            bad += bool(problems)
        return 1 if bad else 0
    if not args.parent or args.pairs < 1:
        parser.error("--parent and --pairs >= 1 are needed to run pairs")
    text = json.dumps(run_pairs(args), indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
