"""Single-mutation fuzz of the shipped module and map fixtures through the CLI.

Each example takes one JSON path of one fixture and either deletes it or
replaces its value with a small value of another JSON type, then runs the
document through `cli.main`: `check` for a module file, `pullback` on
nil2_p5n1.json for a map file.  The exit-code contract must hold: the code
is one of 0/1/2/3, nothing escapes `main` as an exception (which a shell run
would print as a traceback), and exit 2 comes with an `error:` message.

Replacement integers stay in [-3, 3]: inputs of hostile size are a separate
part of the input contract and are not fuzzed here.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

from hypothesis import given, settings, strategies as st

from logff import cli

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

MODULES = sorted(p for p in FIXTURE_DIR.glob("*.json")
                 if not p.name.startswith("map_") and p.name != "garbage.json")
MAPS = sorted(FIXTURE_DIR.glob("map_*.json"))
MAP_MODULE = FIXTURE_DIR / "nil2_p5n1.json"


def _json_paths(doc, prefix=()):
    """Every path into the document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _json_paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _json_paths(value, prefix + (i,))


def _json_type(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


_SMALL = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                   st.sampled_from([0.5, -1.0, 2.0]),
                   st.sampled_from(["", "0", "1", "x", "T1", "e0", "Phi", "1/0", "T1^-1"]))
_VALUES = st.one_of(_SMALL, st.lists(_SMALL, max_size=3),
                    st.dictionaries(st.sampled_from(["p", "n", "c", "name", "x"]), _SMALL,
                                    max_size=2))

# (file, path) for every path of every fixture, parsed once
_TARGETS = [(path, where) for path in MODULES + MAPS
            for where in _json_paths(json.loads(path.read_text()))]


@st.composite
def mutations(draw):
    """A fixture and a copy of its document with one path deleted or retyped."""
    path, where = draw(st.sampled_from(_TARGETS))
    doc = json.loads(path.read_text())
    if not where:
        old = doc
    else:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        old = parent[where[-1]]
    if where and draw(st.booleans()):
        del parent[where[-1]]
        return path, doc
    new = draw(_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    if not where:
        return path, new
    parent[where[-1]] = new
    return path, doc


@given(mutations())
@settings(max_examples=400, derandomize=True, deadline=None, database=None)
def test_single_mutations_keep_the_exit_code_contract(tmp_path_factory, case):
    path, doc = case
    work = tmp_path_factory.getbasetemp() / "fuzz.json"
    work.write_text(json.dumps(doc))
    if path in MAPS:
        argv = ["pullback", str(MAP_MODULE), "--map", str(work), "--format", "json"]
    else:
        mode = "wide-range" if path.name.startswith("wide_") else "strict"
        argv = ["check", str(work), "--mode", mode, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    assert code in (0, 1, 2, 3), (path.name, code)
    assert "Traceback" not in stderr
    if code == 2:
        assert stderr.startswith("error:"), (path.name, stderr)
