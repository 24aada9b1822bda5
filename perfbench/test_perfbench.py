"""Tests of the benchmark itself: seeded inputs, verdict checks, digest, tracer.

Run with the rest of the suite (PYTHONPATH=src python -m pytest -q), or alone:
PYTHONPATH=src python -m pytest -q perfbench.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import logff  # noqa: E402
from logff import cli  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, NO_CALLS, Tracer  # noqa: E402
from worker import serve  # noqa: E402

# digest prefixes small enough for the test suite; glue-d3 keeps one full round
SMALL = {"verify-mix": 99, "glue-d3": 6, "taylor-highn": 12}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _describe(req: workloads.Request):
    taylor = None
    if req.taylor is not None:
        r, l1, l2 = req.taylor
        taylor = (str(r), [str(u) for u in l1.u], [str(u) for u in l2.u])
    return (req.kind, req.argv, req.files, req.expect_exit, req.expect_failing, taylor)


def _first(workload, seed, count):
    stream = workload.stream(seed)
    return [_describe(next(stream)) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    count = SMALL[name]
    first = _first(workload, 5, count)
    assert first == _first(workload, 5, count)
    assert first != _first(workload, 6, count)
    warm = [_describe(req) for req in workload.warmup_requests(5)]
    assert len(warm) == workload.warmup
    assert warm == [_describe(req) for req in workload.warmup_requests(5)]
    assert not set(map(repr, warm)) & set(map(repr, first))


def test_verify_mix_round_has_the_stated_mix():
    shapes = workloads.WORKLOADS["verify-mix"].round_shapes(random.Random(0), 0)
    kinds = [s[0] for s in shapes]
    assert len(shapes) == workloads.WORKLOADS["verify-mix"].prefix
    assert 0.15 < kinds.count("pullback") / len(kinds) < 0.25
    assert kinds.count("malformed") == len(workloads.MALFORMED_KINDS)
    assert {(s[2], s[3]) for s in shapes if s[0] == "negative"} == {
        (5, 2), (5, 3), (7, 2), (7, 3)}
    for s in shapes:
        if s[0] in ("check", "pullback"):
            assert s[2] in (3, 5, 7) and s[3] <= 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_digest_is_seeded_and_tracing_leaves_it_alone(name, in_tmp):
    """Two fresh streams of one seed, one of them traced: every verdict right,
    equal digests, and each traced layer seen where the layer table says."""
    workload = dataclasses.replace(workloads.WORKLOADS[name], prefix=SMALL[name])
    plain = serve(workload, workload.stream(3), 0.0)
    with Tracer() as tracer:
        traced = serve(workload, workload.stream(3), 0.0, tracer)
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digest"] == traced["digest"]

    counts = traced["prefix_counts"]
    for layer in LAYERS:
        if name in layer.workloads:
            assert counts[layer.name].calls > 0, layer.name
    for prefix, names in NO_CALLS.items():
        if name in names:
            assert all(s.calls == 0 for layer, s in counts.items() if layer.startswith(prefix))
    if name == "glue-d3":
        busiest = max(counts, key=lambda layer: counts[layer].self_s)
        assert busiest == "ffmodule.falling_connection_op"


def test_tracer_restores_every_patched_name():
    originals = (cli.main, logff.glue_map, sys.modules["logff.transport"].glue_map,
                 logff.RingElem.__mul__, logff.DividedCoeffs.__init__)
    with Tracer():
        assert cli.main is not originals[0]
        assert sys.modules["logff.transport"].glue_map is not originals[2]
        assert logff.glue_map is sys.modules["logff.transport"].glue_map
    assert (cli.main, logff.glue_map, sys.modules["logff.transport"].glue_map,
            logff.RingElem.__mul__, logff.DividedCoeffs.__init__) == originals


def test_doctored_verdicts_count_as_failures(in_tmp, monkeypatch):
    workload = dataclasses.replace(workloads.WORKLOADS["verify-mix"], prefix=6)
    real_main = cli.main
    calls = []

    def doctored(argv):
        calls.append(argv)
        if len(calls) == 2:
            raise TypeError("doctored raise")
        code = real_main(argv)
        return 3 if len(calls) == 4 else code   # no request expects exit 3

    monkeypatch.setattr(cli, "main", doctored)
    assert serve(workload, workload.stream(1), 0.0)["failed"] == 2

    taylor = dataclasses.replace(workloads.WORKLOADS["taylor-highn"], prefix=3)
    monkeypatch.setattr(logff, "taylor_residual",
                        lambda r, l1, l2: logff.RingElem.one(r.spec))
    assert serve(taylor, taylor.stream(1), 0.0)["failed"] == 3


def test_expected_answers_are_checked(in_tmp):
    stream = workloads.WORKLOADS["verify-mix"].stream(2)
    seen = set()
    while len(seen) < 4:
        req = next(stream)
        if req.kind in seen:
            continue
        seen.add(req.kind)
        workloads.write_files(req)
        assert workloads.execute(req).ok
        wrong = dataclasses.replace(req, expect_exit=(req.expect_exit + 1) % 3)
        assert not workloads.execute(wrong).ok
        if req.expect_failing:
            other = "flat" if req.expect_failing != "flat" else "griffiths"
            assert not workloads.execute(dataclasses.replace(req, expect_failing=other)).ok


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "glue-d3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    with pytest.raises(json.JSONDecodeError):
        json.loads(last)
