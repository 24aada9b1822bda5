"""JSON module files: the on-disk format of the workbench.

A module file is a JSON document with expression-string entries under the
polynomial grammar of `exprparse`:

    {
      "ring": {"p": 5, "n": 1, "d": 1, "s": 1},
      "hodge_range": [0, 1],
      "basis": [{"name": "e0", "level": 0, "torsion": 1},
                {"name": "e1", "level": 1, "torsion": 1}],
      "lifts": {"Phi": ["0"], "Psi": ["1"]},
      "connection": [[["0", "1"], ["0", "0"]]],
      "frobenius": {"lift": "Phi", "matrix": [["1", "0"], ["0", "1"]]}
    }

"connection" holds one matrix per slot in the dlog frame; entry (i, k) of a
matrix multiplies e_i in nabla(delta_j)(e_k), and Frobenius columns are the
phi-images of the tilde basis.  "lifts" maps names to u-vectors defining
Phi(T_j) = (1 + p u_j) T_j^p.  All structural invariants are re-validated
after parsing.

A map file describes a unit-monomial ring map together with a lift on its
target:

    {
      "source_ring": {...}, "target_ring": {...},
      "images": [{"c": 1, "monomial": [5], "h": "0"}],
      "target_lift": ["0"]
    }
"""

from __future__ import annotations

import json

from .exprparse import ParseError, parse_expr
from .ffmodule import BasisVector, InvariantViolationError, LogFFModule
from .logring import FrobLift, RingMap, RingSpec
from .matrices import Matrix


def _spec_from_dict(doc: dict, path: str) -> RingSpec:
    try:
        values = [doc[key] for key in "pnds"]
    except (KeyError, TypeError) as exc:
        raise InvariantViolationError("ring", str(exc)) from None
    for key, value in zip("pnds", values):
        _require_int(value, f"{path}.{key}")
    try:
        return RingSpec(*values)
    except ValueError as exc:
        raise InvariantViolationError("ring", str(exc)) from None


def _spec_to_dict(spec: RingSpec) -> dict:
    return {"p": spec.p, "n": spec.n, "d": spec.d, "s": spec.s}


_JSON_TYPES = ((bool, "boolean"), (int, "integer"), (float, "number"), (str, "string"),
               (list, "array"), (dict, "object"), (type(None), "null"))


def _shape_error(path: str, expected: str, value) -> InvariantViolationError:
    got = next((name for kind, name in _JSON_TYPES if isinstance(value, kind)),
               type(value).__name__)
    return InvariantViolationError(path, f"expected {expected}, got {got}")


def _require_int(value, path: str):
    if type(value) is not int:   # a JSON integer; bool is a subclass of int
        raise _shape_error(path, "an integer", value)


def _sized(value) -> bool:
    """A JSON value with a length: an array, an object or a string."""
    return isinstance(value, (list, dict, str))


def _expr(entry, spec: RingSpec, path: str):
    if not isinstance(entry, str):
        raise _shape_error(path, "an expression string", entry)
    return parse_expr(entry, spec)


def _matrix_from_lists(rows, spec: RingSpec, what: str, path: str) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvariantViolationError(what, "matrix must be a list of rows")
    entries = [[_expr(entry, spec, f"{path}[{i}][{j}]") for j, entry in enumerate(row)]
               for i, row in enumerate(rows)]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise InvariantViolationError(
                f"{path}[{i}]", f"row has {len(row)} entries, row 0 has {len(rows[0])}")
    return Matrix(spec, entries)


def _matrix_to_lists(mat: Matrix) -> list[list[str]]:
    return [[str(x) for x in row] for row in mat.rows]


def module_from_dict(doc: dict, wide_range: bool = False
                     ) -> tuple[LogFFModule, dict[str, FrobLift]]:
    spec = _spec_from_dict(doc.get("ring", {}), "ring")
    try:
        a, b = (int(v) for v in doc["hodge_range"])
        basis = [BasisVector(v["name"], v["level"], v["torsion"]) for v in doc["basis"]]
        lift_docs = doc["lifts"]
        conn_docs = doc["connection"]
        frob_doc = doc["frobenius"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvariantViolationError("document_shape", str(exc)) from None
    for k, v in enumerate(basis):
        if not isinstance(v.name, str):
            raise _shape_error(f"basis[{k}].name", "a string", v.name)
        _require_int(v.level, f"basis[{k}].level")
        _require_int(v.torsion, f"basis[{k}].torsion")
    # Each type check sits where its value is first used and refuses only
    # what the code after it cannot read, so the first fault found in a
    # document, and with it the message, does not depend on these checks.
    if not isinstance(lift_docs, dict):
        raise _shape_error("lifts", "an object of unit-part arrays", lift_docs)
    unit_parts = f"an array of {spec.d} expression strings"
    lifts = {}
    for name, uvec in lift_docs.items():
        if not _sized(uvec):
            raise _shape_error(f"lifts.{name}", unit_parts, uvec)
        if len(uvec) != spec.d:
            raise InvariantViolationError("lift", f"{name}: need {spec.d} unit parts")
        lifts[name] = FrobLift(spec, [_expr(e, spec, f"lifts.{name}[{j}]")
                                      for j, e in enumerate(uvec)])
    if not _sized(conn_docs):
        raise _shape_error("connection", f"an array of {spec.d} matrices", conn_docs)
    if len(conn_docs) != spec.d:
        raise InvariantViolationError("connection_shape", f"need {spec.d} matrices")
    connection = [_matrix_from_lists(m, spec, "connection", f"connection[{k}]")
                  for k, m in enumerate(conn_docs)]
    if not isinstance(frob_doc, dict):
        raise _shape_error("frobenius", "an object with a lift name and a matrix", frob_doc)
    frob_name = frob_doc.get("lift")
    if isinstance(frob_name, (list, dict)):
        raise _shape_error("frobenius.lift", "a lift name", frob_name)
    if frob_name not in lifts:
        raise InvariantViolationError("frobenius", f"unknown lift {frob_name!r}")
    frobenius = _matrix_from_lists(frob_doc["matrix"], spec, "frobenius", "frobenius.matrix")
    module = LogFFModule(spec, (a, b), basis, connection, lifts[frob_name], frobenius,
                         wide_range=wide_range)
    # The reads above accept a string as a sequence here; refusing it last
    # keeps the order in which the checks above find faults.
    hodge_range = doc["hodge_range"]
    if not isinstance(hodge_range, list):
        raise _shape_error("hodge_range", "an array of two integers", hodge_range)
    for i, v in enumerate(hodge_range):
        if type(v) is not int:
            raise _shape_error(f"hodge_range[{i}]", "an integer", v)
    for name, uvec in lift_docs.items():
        if not isinstance(uvec, list):
            raise _shape_error(f"lifts.{name}", unit_parts, uvec)
    return module, lifts


def module_to_dict(module: LogFFModule, lifts: dict[str, FrobLift],
                   frobenius_lift: str) -> dict:
    if lifts.get(frobenius_lift) != module.lift:
        raise ValueError(f"lift {frobenius_lift!r} does not match the module's lift")
    return {
        "ring": _spec_to_dict(module.spec),
        "hodge_range": list(module.hodge_range),
        "basis": [{"name": v.name, "level": v.level, "torsion": v.torsion}
                  for v in module.basis],
        "lifts": {name: [str(u) for u in lift.u] for name, lift in sorted(lifts.items())},
        "connection": [_matrix_to_lists(m) for m in module.connection],
        "frobenius": {"lift": frobenius_lift, "matrix": _matrix_to_lists(module.frobenius)},
    }


def parse_module_file(text: str, wide_range: bool = False
                      ) -> tuple[LogFFModule, dict[str, FrobLift]]:
    """Parse and validate a JSON module file; ParseError or
    InvariantViolationError carry the first problem found."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos, text) from None
    if not isinstance(doc, dict):
        raise InvariantViolationError("document_shape", "top level must be an object")
    return module_from_dict(doc, wide_range=wide_range)


def map_from_dict(doc: dict) -> tuple[RingMap, FrobLift]:
    source = _spec_from_dict(doc.get("source_ring", {}), "source_ring")
    target = _spec_from_dict(doc.get("target_ring", {}), "target_ring")
    try:
        image_docs = doc["images"]
        lift_doc = doc["target_lift"]
    except (KeyError, TypeError) as exc:
        raise InvariantViolationError("document_shape", str(exc)) from None
    if not isinstance(image_docs, list):
        raise _shape_error("images", "an array of image objects", image_docs)
    images = []
    for k, img in enumerate(image_docs):
        try:
            c = img["c"]
            _require_int(c, f"images[{k}].c")
            exps = img["monomial"]
            if not isinstance(exps, list):
                raise _shape_error(f"images[{k}].monomial", "an array of integers", exps)
            for j, e in enumerate(exps):
                _require_int(e, f"images[{k}].monomial[{j}]")
            h = _expr(img.get("h", "0"), target, f"images[{k}].h")
        except InvariantViolationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvariantViolationError("map_image", str(exc)) from None
        images.append((c, exps, h))
    ring_map = RingMap(source, target, images)
    if not isinstance(lift_doc, list):
        raise _shape_error("target_lift", f"an array of {target.d} expression strings", lift_doc)
    if len(lift_doc) != target.d:
        raise InvariantViolationError("target_lift", f"need {target.d} unit parts")
    lift = FrobLift(target, [_expr(e, target, f"target_lift[{j}]")
                             for j, e in enumerate(lift_doc)])
    return ring_map, lift


def parse_map_file(text: str) -> tuple[RingMap, FrobLift]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos, text) from None
    if not isinstance(doc, dict):
        raise InvariantViolationError("document_shape", "top level must be an object")
    return map_from_dict(doc)


def map_to_dict(ring_map: RingMap, lift: FrobLift) -> dict:
    return {
        "source_ring": _spec_to_dict(ring_map.source),
        "target_ring": _spec_to_dict(ring_map.target),
        "images": [{"c": c, "monomial": list(exps), "h": str(h)}
                   for c, exps, h in ring_map.images],
        "target_lift": [str(u) for u in lift.u],
    }
