"""Command-line driver.

    logff check <file> [--mode strict|wide-range] [--format text|json]
    logff glue <file> <lift1> <lift2> [--third <lift3>] [--cocycle]
    logff pullback <file> --map <mapfile>
    logff coeffs --max <m>
    logff selftest [--quick]

Exit codes: 0 all checks pass, 1 some check fails, 2 malformed input,
3 a NonIntegral division was encountered.  JSON reports are deterministic
for identical inputs up to the elapsed_ms timing fields.

`main(argv)` may be called repeatedly in-process: it builds its argparse
parser once per process, on the first call, and reuses it for every later
call.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .exactnum import NonIntegralError
from .exprparse import ParseError
from .ffcoeff import structure_constants, verify_coeff_identity
from .ffmodule import InvariantViolationError, run_all_checks
from .logring import LiftMismatchError, IllegalMapError, RingElem, SpecMismatchError
from .modfile import module_to_dict, parse_map_file, parse_module_file
from .selftest import run_selftest
from .transport import (
    check_glue_cocycle,
    check_glue_horizontal,
    check_glue_identity,
    check_glue_linearity,
    glue_map,
    pullback_ff,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NON_INTEGRAL = 3

_INPUT_ERRORS = (ParseError, InvariantViolationError, SpecMismatchError,
                 IllegalMapError, LiftMismatchError, OSError, KeyError)


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        _emit_text(report)


def _emit_text(report: dict, indent: str = ""):
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], list):
            print(f"{indent}{key}:")
            for row in value:
                print(f"{indent}  [{', '.join(str(x) for x in row)}]")
        else:
            print(f"{indent}{key}: {value}")


def _load_module(path: str, mode: str):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return parse_module_file(text, wide_range=(mode == "wide-range"))


def cmd_check(args) -> int:
    start = time.perf_counter()
    module, lifts = _load_module(args.file, args.mode)
    results = run_all_checks(module)
    report = {"file": args.file, "mode": args.mode,
              "checks": {name: res.to_dict() for name, res in results.items()}}
    ok = all(res.ok for res in results.values())
    if len(lifts) >= 2 and ok:
        names = sorted(lifts)
        glue_report = {}
        for name in names:
            glue_report[f"identity[{name}]"] = check_glue_identity(module, lifts[name])
        for i, n1 in enumerate(names):
            for n2 in names[i + 1:]:
                glue_report[f"horizontality[{n1},{n2}]"] = \
                    check_glue_horizontal(module, lifts[n1], lifts[n2])
        report["glue"] = glue_report
        ok = ok and all(glue_report.values())
    report["elapsed_ms"] = round(1000 * (time.perf_counter() - start), 1)
    report["exit_status"] = EXIT_OK if ok else EXIT_CHECK_FAILED
    _emit(report, args.format)
    return report["exit_status"]


def cmd_glue(args) -> int:
    start = time.perf_counter()
    module, lifts = _load_module(args.file, args.mode)
    for name in (args.lift1, args.lift2) + ((args.third,) if args.third else ()):
        if name not in lifts:
            raise InvariantViolationError("lift", f"unknown lift {name!r}")
    l1, l2 = lifts[args.lift1], lifts[args.lift2]
    g = glue_map(module, l1, l2)
    verdicts = {}
    if args.lift1 == args.lift2:
        verdicts["identity"] = check_glue_identity(module, l1)
    verdicts["horizontality"] = check_glue_horizontal(module, l1, l2)
    samples = [RingElem.one(module.spec)]
    samples += [RingElem.variable(module.spec, j) for j in range(1, module.spec.d + 1)]
    verdicts["linearity"] = all(
        check_glue_linearity(module, l1, l2, r) for r in samples)
    if args.cocycle or args.third:
        third = lifts[args.third] if args.third else l1
        verdicts["cocycle"] = check_glue_cocycle(module, l1, l2, third)
    report = {
        "file": args.file,
        "lifts": [args.lift1, args.lift2] + ([args.third] if args.third else []),
        "matrix": [[str(x) for x in row] for row in g.matrix.rows],
        "shells_used": g.shells_used,
        "design_bound": g.design_bound,
        "verdicts": verdicts,
        "elapsed_ms": round(1000 * (time.perf_counter() - start), 1),
    }
    report["exit_status"] = EXIT_OK if all(verdicts.values()) else EXIT_CHECK_FAILED
    _emit(report, args.format)
    return report["exit_status"]


def cmd_pullback(args) -> int:
    start = time.perf_counter()
    module, lifts = _load_module(args.file, args.mode)
    with open(args.map, encoding="utf-8") as fh:
        ring_map, target_lift = parse_map_file(fh.read())
    result = pullback_ff(module, ring_map, target_lift)
    results = run_all_checks(result)
    ok = all(res.ok for res in results.values())
    report = {
        "file": args.file,
        "map": args.map,
        "module": module_to_dict(result, {"target": result.lift}, "target"),
        "checks": {name: res.to_dict() for name, res in results.items()},
        "elapsed_ms": round(1000 * (time.perf_counter() - start), 1),
        "exit_status": EXIT_OK if ok else EXIT_CHECK_FAILED,
    }
    _emit(report, args.format)
    return report["exit_status"]


def cmd_coeffs(args) -> int:
    tables = {}
    for m in range(args.max + 1):
        for n in range(args.max + 1):
            table = structure_constants(m, n)
            tables[f"a[{m},{n}]"] = {str(k): v for k, v in sorted(table.items())}
    identity = {str(k): verify_coeff_identity(k, 6) for k in range(7)}
    report = {"max": args.max, "tables": tables, "identity_up_to_degree_6": identity,
              "exit_status": EXIT_OK if all(identity.values()) else EXIT_CHECK_FAILED}
    _emit(report, args.format)
    return report["exit_status"]


def cmd_selftest(args) -> int:
    report = run_selftest(quick=args.quick)
    report["exit_status"] = EXIT_OK if report["ok"] else EXIT_CHECK_FAILED
    _emit(report, args.format)
    return report["exit_status"]


# the `coeffs` report has (m+1)^2 tables of up to m+1 entries each: at 64 it
# is 4.3 MB of JSON in under a second, at 128 already 63 MB
COEFFS_MAX = 64


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    if value > COEFFS_MAX:
        raise argparse.ArgumentTypeError(f"must be <= {COEFFS_MAX}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logff",
        description="Exact verification workbench for logarithmic "
                    "Fontaine-Faltings modules mod p^n.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--mode", choices=("strict", "wide-range"), default="strict")

    p_check = sub.add_parser("check", help="run the structural checks on a module file")
    p_check.add_argument("file")
    add_common(p_check)

    p_glue = sub.add_parser("glue", help="compute a gluing matrix and its properties")
    p_glue.add_argument("file")
    p_glue.add_argument("lift1")
    p_glue.add_argument("lift2")
    p_glue.add_argument("--third", help="third lift for the cocycle test")
    p_glue.add_argument("--cocycle", action="store_true")
    add_common(p_glue)

    p_pull = sub.add_parser("pullback", help="pull a module back along a map file")
    p_pull.add_argument("file")
    p_pull.add_argument("--map", required=True)
    add_common(p_pull)

    p_coeffs = sub.add_parser("coeffs", help="emit falling-factorial structure constants")
    p_coeffs.add_argument("--max", type=_non_negative_int, default=4)
    p_coeffs.add_argument("--format", choices=("text", "json"), default="text")

    p_self = sub.add_parser("selftest", help="run the verification grid")
    p_self.add_argument("--quick", action="store_true")
    p_self.add_argument("--format", choices=("text", "json"), default="text")
    return parser


_parser = None   # built on the first main() call, then reused by every later call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # the handler is looked up at call time, so a later rebinding of
    # cmd_<command> in this module is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except NonIntegralError as exc:
        print(f"non-integral division: {exc}", file=sys.stderr)
        return EXIT_NON_INTEGRAL
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
