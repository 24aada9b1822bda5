#!/usr/bin/env python3
"""Regenerate tests/golden.json: one sha256 per CLI run over the shipped corpus.

Each key is a command line run from the repository root; its value is the
sha256 of the exit code, the JSON report with every `elapsed_ms` removed,
and stderr.  The runs are

- `check` in both modes on every module fixture,
- `glue --cocycle` on every ordered pair of a module fixture's lifts,
- `pullback` of every module fixture along each of the three map files,
- `selftest --quick --format json`.

Each demo under `demos/` adds one more key, its path; its value is the
sha256 of what the demo prints, run as a script in this process.

A change that alters any output on purpose regenerates this file in the
same commit; any other change must leave it byte for byte as it is.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import runpy
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from logff import cli  # noqa: E402

OUT = ROOT / "tests" / "golden.json"


def _strip_timings(value):
    if isinstance(value, dict):
        return {k: _strip_timings(v) for k, v in value.items() if k != "elapsed_ms"}
    if isinstance(value, list):
        return [_strip_timings(v) for v in value]
    return value


def command_lines():
    """Every argv the golden file covers, in a fixed order."""
    fixtures = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    maps = [f"fixtures/{name}" for name in fixtures if name.startswith("map_")]
    modules = [name for name in fixtures if not name.startswith("map_")]
    argvs = []
    for name in modules:
        path = f"fixtures/{name}"
        for mode in ("strict", "wide-range"):
            argvs.append(["check", path, "--mode", mode, "--format", "json"])
        try:
            lifts = sorted(json.loads((ROOT / path).read_text(encoding="utf-8"))["lifts"])
        except ValueError:
            lifts = []   # garbage.json: no lifts to pair
        for l1 in lifts:
            for l2 in lifts:
                argvs.append(["glue", path, l1, l2, "--cocycle", "--format", "json"])
        for map_path in maps:
            argvs.append(["pullback", path, "--map", map_path, "--format", "json"])
    argvs.append(["selftest", "--quick", "--format", "json"])
    return argvs


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    report = _strip_timings(json.loads(out.getvalue())) if out.getvalue() else None
    record = json.dumps({"exit": code, "report": report, "stderr": err.getvalue()},
                        sort_keys=True)
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def demo_digest(path: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / path), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def golden_text() -> str:
    """The contents of tests/golden.json, computed in this process."""
    cwd = os.getcwd()
    os.chdir(ROOT)   # reports carry the file paths exactly as given
    try:
        digests = {" ".join(argv): digest(argv) for argv in command_lines()}
        for demo in sorted(ROOT.glob("demos/*.py")):
            path = demo.relative_to(ROOT).as_posix()
            digests[path] = demo_digest(path)
    finally:
        os.chdir(cwd)
    return json.dumps(digests, indent=2) + "\n"


def main():
    OUT.write_text(golden_text(), encoding="utf-8")
    print("wrote", OUT)


if __name__ == "__main__":
    main()
