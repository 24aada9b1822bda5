"""The committed BENCH_*.json perf trajectory stays well formed.

Each file is checked by the same function that `scripts/bench_pairs.py
--check` runs: the required fields are there, every summary's wins, losses
and ties add up to the number of pairs, and the two sides' digests agree.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_committed_bench_file_is_well_formed(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert bench_pairs.check(doc) == []
    assert path.name == f"BENCH_{doc['pr']}.json"


def _document(p90s=((4.0, 3.0), (5.0, 4.0))):
    """A document on one workload, one pair per (parent, change) p90, as
    run_pairs writes it."""
    runs = []
    for i, pair in enumerate(p90s):
        for side, p90 in zip(("parent", "change"), pair):
            metrics = dict.fromkeys(bench_pairs.BETTER, 1.0)
            metrics["latency_p90_ms"] = p90
            runs.append({"workload": "verify-mix", "pair": i, "seed": 7 + i, "side": side,
                         "digest": f"d{i}", "metrics": metrics})
    digests = {"verify-mix": {"401": "a", "402": "b", "403": "c"}}
    calls = {"verify-mix": {"logring.DividedCoeffs.coeff.calls": 1}}
    return {"pr": 0, "commits": {}, "python": "3", "cpu": {}, "runs": runs,
            "protocol": {"pairs": len(p90s), "workloads": ["verify-mix"]},
            "summary": bench_pairs.summarize(runs, ["verify-mix"], len(p90s)),
            "digests": {"parent": digests, "change": copy.deepcopy(digests)},
            "per_layer_calls": {"parent": calls, "change": calls}}


def test_summary_counts_wins_in_the_better_direction():
    doc = _document()
    assert bench_pairs.check(doc) == []
    p90 = doc["summary"]["verify-mix"]["latency_p90_ms"]
    assert (p90["wins"], p90["losses"], p90["ties"]) == (2, 0, 0)
    assert p90["parent"]["median"] == 4.5 and p90["change"]["median"] == 3.5
    assert doc["summary"]["verify-mix"]["throughput_rps"]["ties"] == 2


def test_ratio_separates_a_drift_from_the_spread():
    # the parent drifts 100 -> 300 over the pairs, the change stays at 1.2x it:
    # each side's quartiles span the drift, the per-pair ratio has none
    parents = [100.0 + 200.0 * i / 9 for i in range(10)]
    doc = _document([(old, 1.2 * old) for old in parents])
    assert bench_pairs.check(doc) == []
    entry = doc["summary"]["verify-mix"]["latency_p90_ms"]
    assert entry["parent"]["q3"] - entry["parent"]["q1"] > 90
    assert entry["ratio"]["median"] == pytest.approx(1.2)
    assert entry["ratio"]["q1"] == pytest.approx(entry["ratio"]["q3"]) == pytest.approx(1.2)
    assert (entry["wins"], entry["losses"]) == (0, 10)
    # a file written before the ratio was recorded still passes, a broken ratio does not
    del entry["ratio"]
    assert bench_pairs.check(doc) == []
    entry["ratio"] = {"median": 1.2}
    assert bench_pairs.check(doc) != []


@pytest.mark.parametrize("breakage", ["field", "count", "digest", "pair_digest"])
def test_check_refuses_a_broken_document(breakage):
    doc = _document()
    if breakage == "field":
        del doc["digests"]
    elif breakage == "count":
        doc["summary"]["verify-mix"]["latency_p50_ms"]["ties"] += 1
    elif breakage == "digest":
        doc["digests"]["change"]["verify-mix"]["402"] = "x"
    else:
        doc["runs"][1]["digest"] = "x"
    assert bench_pairs.check(doc) != []
