"""Seeded request streams with known answers, and the code that runs them.

Each workload is an endless stream of requests built from one seed.  The
stream is cut into rounds: every round holds the same mix of request shapes
(cells, fixtures, lift counts, map kinds), in an order and with data drawn
from the seeded generator, so two seeds differ in content but not in mix.
Every request carries the answer known from how it was built: the exit code,
and for a negative control the name of the check that must fail.

Requests are built one at a time, between timed calls.  A CLI request writes
its files into the current directory under names that depend only on the
request's position in the stream, so the reports (which echo the file names)
are the same on every run of one seed.
"""

from __future__ import annotations

import copy
import hashlib
import io
import itertools
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import logff
from logff import cli, fixtures
from logff.ffmodule import root_map
from logff.logring import FrobLift, RingElem, RingMap, RingSpec
from logff.modfile import map_to_dict, module_to_dict
from logff.transport import pullback_ff, transport

EXIT_OK, EXIT_CHECK_FAILED, EXIT_BAD_INPUT = 0, 1, 2


@dataclass
class Request:
    kind: str
    argv: list[str] | None = None
    files: dict[str, str] = field(default_factory=dict)
    expect_exit: int = EXIT_OK
    expect_failing: str | None = None       # negative control: the check that must fail
    taylor: tuple | None = None             # (r, lift1, lift2) for the library workload


@dataclass
class Outcome:
    seconds: float
    ok: bool
    record: str                             # what the digest hashes


# -- running and checking one request ----------------------------------------


def write_files(req: Request):
    for name, text in req.files.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)


def execute(req: Request) -> Outcome:
    """Run one request through the public entry point and check its answer.

    Only the call itself (and, for Taylor, its zero check) is timed.  The
    entry points are looked up at call time, so a tracer that replaced them
    sees the call.
    """
    if req.taylor is not None:
        start = time.perf_counter()
        residual = logff.taylor_residual(*req.taylor)
        zero = residual.is_zero()
        seconds = time.perf_counter() - start
        r, lift1, lift2 = req.taylor
        record = json.dumps({"r": str(r), "u1": [str(u) for u in lift1.u],
                             "u2": [str(u) for u in lift2.u], "residual": str(residual)})
        return Outcome(seconds, zero, record)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(req.argv)
    except Exception as exc:  # a raise out of cli.main is a wrong verdict, not a crash
        seconds = time.perf_counter() - start
        return Outcome(seconds, False, json.dumps({"raised": type(exc).__name__}))
    seconds = time.perf_counter() - start
    return Outcome(seconds, *judge(req, code, out.getvalue(), err.getvalue()))


def _strip_timing(value):
    if isinstance(value, dict):
        return {k: _strip_timing(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, list):
        return [_strip_timing(v) for v in value]
    return value


def judge(req: Request, code, stdout: str, stderr: str) -> tuple[bool, str]:
    """(verdict matches the known answer, digest record) for one CLI call."""
    report = None
    if stdout:
        try:
            report = _strip_timing(json.loads(stdout))
        except json.JSONDecodeError:
            report = {"unparsed_stdout": stdout}
    record = json.dumps({"exit": code, "report": report, "stderr": stderr}, sort_keys=True)
    if code != req.expect_exit or "Traceback" in stderr:
        return False, record
    if req.expect_exit == EXIT_BAD_INPUT:
        return report is None and stderr.startswith("error:"), record
    if not isinstance(report, dict) or report.get("exit_status") != code:
        return False, record
    if req.kind == "glue":
        verdicts = report.get("verdicts", {})
        return "cocycle" in verdicts and all(verdicts.values()), record
    status = {name: c.get("status") for name, c in report.get("checks", {}).items()}
    if req.expect_failing is not None:
        others_ok = all(s in ("pass", "skipped") for name, s in status.items()
                        if name != req.expect_failing)
        return status.get(req.expect_failing) == "fail" and others_ok, record
    ok = len(status) == 4 and all(s == "pass" for s in status.values())
    if req.kind == "pullback":
        ok = ok and "module" in report
    return ok and all(report.get("glue", {}).values()), record


def digest(records: list[str]) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


# -- shapes and values ---------------------------------------------------------
#
# The cost of a request depends on the supports and p-adic valuations of its
# random data, heavily: one random lift can make a call ten times slower than
# the median, and drawing everything from the seed moved medians by up to 30%
# between seeds.  So each random polynomial is made in two steps.  Its shape
# comes from a generator fixed per workload and round, the same for every
# seed.  The seed then picks a ring automorphism
#
#     sigma: T_j -> lam_j * T_perm(j),   lam_j a Teichmueller unit (lam^(p-1) = 1),
#
# and the request carries the sigma-image of the shape.  sigma fixes the
# standard Frobenius lift and every constant-coefficient fixture module, so
# conjugating a request's data by sigma sends each intermediate result of logff
# to its sigma-image, with the same supports and valuations: the seed changes
# every value a request carries but not its cost.  The seed also sets the
# order within each round, unit constants and the malformed documents.


class Symmetry:
    """A seeded automorphism sigma of one chart that fixes the standard lift."""

    def __init__(self, spec: RingSpec, rng: random.Random, permute: bool = False):
        self.spec = spec
        self.lam = [pow(rng.randrange(1, spec.p), spec.p ** (spec.n - 1), spec.q)
                    for _ in range(spec.d)]
        self.perm = list(range(spec.d))
        if permute:     # only for charts whose slots are all of one kind
            rng.shuffle(self.perm)

    def _factor(self, exps) -> int:
        q = self.spec.q
        out = 1
        for lam, e in zip(self.lam, exps):
            out = out * pow(lam, e, q) % q
        return out

    def elem(self, x: RingElem, c: int = 1) -> RingElem:
        """c * sigma(x)."""
        out = {}
        for exps, v in x.terms.items():
            moved = [0] * len(exps)
            for j, e in enumerate(exps):
                moved[self.perm[j]] = e
            out[tuple(moved)] = v * c * self._factor(exps)
        return RingElem(x.spec, out)

    def lift(self, lift: FrobLift) -> FrobLift:
        """sigma Phi sigma^-1: the unit part of slot perm(j) is sigma(u_j)."""
        u = [None] * self.spec.d
        for j, uj in enumerate(lift.u):
            u[self.perm[j]] = self.elem(uj)
        return FrobLift(lift.spec, u)

    def ring_map(self, f: RingMap) -> RingMap:
        """sigma f sigma^-1 for a map of the chart to itself (no slot permutation)."""
        q = self.spec.q
        images = [(c * self._factor(exps) * pow(self.lam[j], -1, q) % q, exps, self.elem(h))
                  for j, (c, exps, h) in enumerate(f.images)]
        return RingMap(f.source, f.target, images)


def _lifts(count: int, spec: RingSpec, shape: random.Random, sym: Symmetry) -> list[FrobLift]:
    return [sym.lift(fixtures.random_lift(shape, spec)) for _ in range(count)]


def _module_doc(module, extra_lifts: list[FrobLift]) -> dict:
    lifts = {"L0": module.lift}
    lifts.update((f"L{k + 1}", lift) for k, lift in enumerate(extra_lifts))
    return module_to_dict(module, lifts, "L0")


def _dump(doc) -> str:
    return json.dumps(doc, indent=1)


def _unit(rng: random.Random, spec: RingSpec) -> int:
    while True:
        c = rng.randrange(1, spec.q)
        if c % spec.p:
            return c


def _shape_seed(shape_rng: random.Random) -> int:
    return shape_rng.getrandbits(64)


# -- verify-mix ----------------------------------------------------------------

VERIFY_CELLS = [(p, n) for p in (3, 5, 7) for n in (1, 2, 3)]
MALFORMED_KINDS = ("garbage", "truncated", "top_level_list", "missing_key", "bad_expr",
                   "unknown_frobenius_lift", "extra_connection_matrix", "composite_p")
MAP_KINDS = ("root", "rescale", "nonconstant")


def _families(p: int, n: int) -> list[str]:
    out = ["nil2", "nil2_d2", "nil2_s0", "rank1", "transported"]
    if p >= 5:
        out += ["rank3", "shifted"]
    if n >= 2:
        out += ["mixed", "pulled_back"]
    return out


def _pullback_bases(p: int, n: int) -> list[str]:
    out = ["nil2", "rank1"]
    if p >= 5:
        out.append("rank3")
    if n >= 2:
        out.append("mixed")
    return out


_CHARTS = {"nil2_d2": (2, 1), "nil2_s0": (1, 0)}     # family -> (d, s); default (1, 1)


def _chart(family: str, p: int, n: int) -> RingSpec:
    return RingSpec(p, n, *_CHARTS.get(family, (1, 1)))


def _build_module(family: str, p: int, n: int, shape: random.Random, rng: random.Random,
                  sym: Symmetry):
    if family == "nil2":
        return fixtures.nil2(p, n)
    if family == "nil2_d2":
        return fixtures.nil2(p, n, d=2, s=1)
    if family == "nil2_s0":
        return fixtures.nil2(p, n, d=1, s=0)
    if family == "rank1":
        return fixtures.rank1_flat(p, n, unit=_unit(rng, RingSpec(p, n, 1, 1)))
    if family == "rank3":
        return fixtures.rank3_chain(p, n)
    if family == "shifted":
        return fixtures.shifted_nil2(p, n)
    if family == "mixed":
        return fixtures.mixed_torsion(p, n)
    base = fixtures.nil2(p, n)
    if family == "transported":
        return transport(base, _lifts(1, base.spec, shape, sym)[0])
    if family == "pulled_back":
        f = sym.ring_map(_random_map("nonconstant", base.spec, shape, rng))
        return pullback_ff(base, f, _lifts(1, base.spec, shape, sym)[0])
    raise ValueError(family)


def _random_map(kind: str, spec: RingSpec, shape: random.Random, rng: random.Random) -> RingMap:
    if kind == "root":
        return root_map(spec, 1)
    h = RingElem.zero(spec)
    if kind == "nonconstant":
        h = fixtures.random_elem(shape, spec, max_terms=2, max_exp=2)
    return RingMap(spec, spec, [(_unit(rng, spec), (1,), h)])


def _malformed_text(kind: str, rng: random.Random) -> str:
    p, n = rng.choice(VERIFY_CELLS)
    module = fixtures.nil2(p, n)
    extra = [fixtures.random_lift(rng, module.spec) for _ in range(rng.randint(0, 1))]
    doc = _module_doc(module, extra)
    if kind == "garbage":
        return "{" + "".join(rng.choice("abcxyz :,[\"0123") for _ in range(rng.randint(4, 40)))
    if kind == "truncated":
        text = _dump(doc)
        return text[:rng.randint(1, len(text) - 2)]
    if kind == "top_level_list":
        return _dump([doc])
    if kind == "missing_key":
        del doc[rng.choice(["ring", "hodge_range", "basis", "lifts", "connection", "frobenius"])]
    elif kind == "bad_expr":
        row = rng.randrange(2)
        doc["connection"][0][row][rng.randrange(2)] = rng.choice(
            ["T9", "2*", "x", "T1^-1", "T1^", "3 4"])
    elif kind == "unknown_frobenius_lift":
        doc["frobenius"]["lift"] = "Nope"
    elif kind == "extra_connection_matrix":
        doc["connection"].append(doc["connection"][0])
    elif kind == "composite_p":
        doc["ring"]["p"] = rng.choice([9, 15, 21, 25])
    else:
        raise ValueError(kind)
    return _dump(doc)


def _verify_round(shape_rng: random.Random, round_no: int) -> list[tuple]:
    """The request shapes of one verify-mix round; the mix is the same every round."""
    slots = []
    k = 0
    for p, n in VERIFY_CELLS:
        for family in _families(p, n):
            slots.append(("check", family, p, n, 1 + (k + round_no) % 3, _shape_seed(shape_rng)))
            k += 1
    # negative_controls needs p >= 5 (its Griffiths control has a level gap
    # of 2) and n >= 2 (at n = 1 the unit twist 1 + p is the identity)
    for c, (p, n) in enumerate(cell for cell in VERIFY_CELLS if cell >= (5, 2) and cell[1] >= 2):
        slots.append(("negative", (c + round_no) % 4, p, n))
    for kind in MALFORMED_KINDS:
        slots.append(("malformed", kind))
    for c, (p, n) in enumerate(VERIFY_CELLS):
        bases = _pullback_bases(p, n)
        for t in range(2):
            slots.append(("pullback", bases[(c + t + round_no) % len(bases)], p, n,
                          MAP_KINDS[(c + t + round_no) % len(MAP_KINDS)], _shape_seed(shape_rng)))
    return slots


def _verify_request(slot: tuple, rng: random.Random, tag: str) -> Request:
    kind = slot[0]
    mod_file = f"{tag}.json"
    if kind == "check":
        _, family, p, n, nlifts, seed = slot
        shape = random.Random(seed)
        sym = Symmetry(_chart(family, p, n), rng)
        module = _build_module(family, p, n, shape, rng, sym)
        doc = _module_doc(module, _lifts(nlifts - 1, module.spec, shape, sym))
        return Request("check", ["check", mod_file, "--format", "json"], {mod_file: _dump(doc)})
    if kind == "negative":
        _, which, p, n = slot
        _, module, failing = fixtures.negative_controls(p, n)[which]
        return Request("negative", ["check", mod_file, "--format", "json"],
                       {mod_file: _dump(_module_doc(module, []))}, EXIT_CHECK_FAILED, failing)
    if kind == "malformed":
        return Request("malformed", ["check", mod_file, "--format", "json"],
                       {mod_file: _malformed_text(slot[1], rng)}, EXIT_BAD_INPUT)
    _, family, p, n, map_kind, seed = slot
    shape = random.Random(seed)
    sym = Symmetry(_chart(family, p, n), rng)
    module = _build_module(family, p, n, shape, rng, sym)
    spec = module.spec
    f = sym.ring_map(_random_map(map_kind, spec, shape, rng))
    map_file = f"{tag}.map.json"
    map_doc = map_to_dict(f, _lifts(1, spec, shape, sym)[0])
    return Request("pullback", ["pullback", mod_file, "--map", map_file, "--format", "json"],
                   {mod_file: _dump(_module_doc(module, [])), map_file: _dump(map_doc)})


# -- glue-d3 ---------------------------------------------------------------------

GLUE_CELLS = [(5, 2, 3), (7, 2, 3), (5, 3, 3), (7, 3, 3)]
# Requests cost about 150, 200, 700 and 420 ms by cell, in that order.  With
# the four cells equally often the median falls in the gap between the 200 ms
# and the 420 ms cluster and jumps between them from run to run.  The two
# cheap cells twice per round put the median in the middle of the (7,2,3)
# cluster and the p90 inside (5,3,3)'s, and give p90 ten samples beyond it.
GLUE_ROUND = GLUE_CELLS[:2] * 2 + GLUE_CELLS[2:]


def _glue_round(shape_rng: random.Random, round_no: int) -> list[tuple]:
    return [("glue",) + cell + (_shape_seed(shape_rng),) for cell in GLUE_ROUND]


def _glue_request(slot: tuple, rng: random.Random, tag: str) -> Request:
    _, p, n, d, seed = slot
    module = fixtures.rank3_chain(p, n, d=d)
    # no slot permutation: the chain's connection sits on slot 1 only
    lifts = _lifts(2, module.spec, random.Random(seed), Symmetry(module.spec, rng))
    mod_file = f"{tag}.json"
    return Request("glue", ["glue", mod_file, "L1", "L2", "--third", "L0", "--format", "json"],
                   {mod_file: _dump(_module_doc(module, lifts))})


# -- taylor-highn ------------------------------------------------------------------

TAYLOR_CELLS = [(5, 8, 2), (7, 6, 2), (3, 8, 2)]


def _taylor_round(shape_rng: random.Random, round_no: int) -> list[tuple]:
    return [("taylor",) + cell + (_shape_seed(shape_rng),)
            for _ in range(4) for cell in TAYLOR_CELLS]


def _taylor_request(slot: tuple, rng: random.Random, tag: str) -> Request:
    _, p, n, d, seed = slot
    spec = RingSpec(p, n, d, d)
    shape = random.Random(seed)
    r = fixtures.random_elem(shape, spec)
    l1, l2 = fixtures.random_lift(shape, spec), fixtures.random_lift(shape, spec)
    sym = Symmetry(spec, rng, permute=True)
    return Request("taylor", taylor=(sym.elem(r, _unit(rng, spec)), sym.lift(l1), sym.lift(l2)))


# -- workloads --------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round_shapes: object            # (shape generator, round number) -> request shapes
    build: object                   # (shape, seeded generator, file tag) -> Request
    prefix: int                     # requests hashed into the digest and counted by the trace
    warmup: int                     # warm-up requests, from shapes of their own

    def stream(self, seed: int):
        """Endless request stream; the same seed gives the same requests."""
        rng = random.Random(f"logff-bench:{self.name}:run:{seed}")
        index = 0
        for round_no in itertools.count():
            shapes = self.round_shapes(
                random.Random(f"logff-bench:{self.name}:shapes:{round_no}"), round_no)
            rng.shuffle(shapes)
            for shape in shapes:
                yield self.build(shape, rng, f"run{index:06d}")
                index += 1

    def warmup_requests(self, seed: int) -> list[Request]:
        """The first shapes of an unshuffled round of their own, so that the
        warm-up (and with it setup_s) costs the same for every seed."""
        rng = random.Random(f"logff-bench:{self.name}:warm:{seed}")
        shapes = self.round_shapes(random.Random(f"logff-bench:{self.name}:warm-shapes"), 0)
        return [self.build(shape, rng, f"warm{i:06d}")
                for i, shape in enumerate(shapes[:self.warmup])]


WORKLOADS = {
    "verify-mix": Workload("verify-mix", _verify_round, _verify_request, prefix=99, warmup=12),
    "glue-d3": Workload("glue-d3", _glue_round, _glue_request, prefix=12, warmup=1),
    "taylor-highn": Workload("taylor-highn", _taylor_round, _taylor_request, prefix=60,
                             warmup=6),
}


# -- known defect: malformed shapes logff gets wrong today --------------------------


def item4_shapes() -> dict[str, str]:
    """The malformed shapes of ROADMAP item 4 that must exit 2 but do not yet."""
    module = fixtures.nil2(5, 2)
    base = module_to_dict(module, {"Phi": module.lift}, "Phi")

    def edit(fn):
        doc = copy.deepcopy(base)
        fn(doc)
        return _dump(doc)

    return {
        "connection_entry_int": edit(lambda d: d["connection"][0][0].__setitem__(1, 1)),
        "lifts_as_list": edit(lambda d: d.__setitem__("lifts", [["0"]])),
        "lift_value_int": edit(lambda d: d["lifts"].__setitem__("Phi", [0])),
        "frobenius_as_list": edit(lambda d: d.__setitem__("frobenius", [["1", "0"], ["0", "1"]])),
        "ragged_matrix": edit(lambda d: d["connection"][0].__setitem__(1, ["0"])),
        "hodge_range_string": edit(lambda d: d.__setitem__("hodge_range", "01")),
    }


def probe_item4() -> dict[str, bool]:
    """shape -> whether logff gives the right verdict (exit 2, no traceback)."""
    out = {}
    for name, text in item4_shapes().items():
        req = Request("malformed", ["check", f"item4_{name}.json", "--format", "json"],
                      {f"item4_{name}.json": text}, EXIT_BAD_INPUT)
        write_files(req)
        out[name] = execute(req).ok
    return out
