import importlib.util
import json

import pytest

from logff.exprparse import ParseError
from logff.ffmodule import InvariantViolationError
from logff.fixtures import mixed_torsion, nil2, rank3_chain
from logff.logring import FrobLift, IllegalMapError, RingElem
from logff.modfile import (
    map_to_dict,
    module_to_dict,
    parse_map_file,
    parse_module_file,
)


def _lifts_for(module):
    spec = module.spec
    zero = RingElem.zero(spec)
    return {
        "Phi": FrobLift(spec, [zero] * spec.d),
        "Psi": FrobLift(spec, [RingElem.one(spec)] + [zero] * (spec.d - 1)),
    }


@pytest.mark.parametrize("factory", [lambda: nil2(5, 1), lambda: nil2(3, 2, d=2, s=1),
                                     lambda: rank3_chain(5, 2), lambda: mixed_torsion(5, 2)])
def test_round_trip(factory):
    module = factory()
    lifts = _lifts_for(module)
    text = json.dumps(module_to_dict(module, lifts, "Phi"), indent=2) + "\n"
    parsed, parsed_lifts = parse_module_file(text)
    assert parsed == module
    assert set(parsed_lifts) == set(lifts)
    assert all(parsed_lifts[k] == lifts[k] for k in lifts)
    # a second round trip is byte-identical
    text2 = json.dumps(module_to_dict(parsed, parsed_lifts, "Phi"), indent=2) + "\n"
    assert text2 == text


def test_rejects_bad_json():
    with pytest.raises(ParseError):
        parse_module_file("{broken")


def test_rejects_unknown_lift():
    module = nil2(5, 1)
    doc = module_to_dict(module, {"Phi": module.lift}, "Phi")
    doc["frobenius"]["lift"] = "Nope"
    with pytest.raises(InvariantViolationError):
        parse_module_file(json.dumps(doc))


def test_rejects_negative_divisor_exponent_in_entry():
    module = nil2(5, 1)
    doc = module_to_dict(module, {"Phi": module.lift}, "Phi")
    doc["connection"][0][0][1] = "T1^-1"
    with pytest.raises(ParseError):
        parse_module_file(json.dumps(doc))


def test_rejects_wide_range_unless_flagged():
    module = nil2(5, 1)
    doc = module_to_dict(module, {"Phi": module.lift}, "Phi")
    doc["hodge_range"] = [0, 4]
    doc["basis"][1]["level"] = 4
    doc["connection"][0][0][1] = "0"  # keep Griffiths plausible
    text = json.dumps(doc)
    with pytest.raises(InvariantViolationError):
        parse_module_file(text)
    module_wide, _ = parse_module_file(text, wide_range=True)
    assert module_wide.hodge_range == (0, 4)


def test_map_round_trip():
    from logff.ffmodule import root_map
    module = nil2(5, 1)
    rm = root_map(module.spec, 1)
    lift = FrobLift.standard(module.spec)
    doc = map_to_dict(rm, lift)
    parsed_map, parsed_lift = parse_map_file(json.dumps(doc))
    assert parsed_map == rm
    assert parsed_lift == lift


def test_map_rejects_missing_fields():
    with pytest.raises(InvariantViolationError):
        parse_map_file(json.dumps({"source_ring": {"p": 5, "n": 1, "d": 1, "s": 1}}))


def test_disk_corpus_round_trips(fixture_dir):
    for path in sorted(fixture_dir.glob("*.json")):
        if path.name.startswith("map_") or path.name == "garbage.json":
            continue
        text = path.read_text(encoding="utf-8")
        wide = path.name.startswith("wide_")
        module, lifts = parse_module_file(text, wide_range=wide)
        frob_name = json.loads(text)["frobenius"]["lift"]
        out = json.dumps(module_to_dict(module, lifts, frob_name), indent=2) + "\n"
        module2, lifts2 = parse_module_file(out, wide_range=wide)
        assert module2 == module, path.name
        assert lifts2 == lifts, path.name


def test_generator_rewrites_the_disk_corpus(fixture_dir, tmp_path, monkeypatch, capsys):
    """scripts/gen_fixtures.py writes fixtures/ byte for byte, with no file missing or extra."""
    script = fixture_dir.parent / "scripts" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in fixture_dir.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (fixture_dir / name).read_bytes(), name


@pytest.mark.parametrize("edit,message", [
    # a value of the wrong JSON type that an earlier check refused keeps that check's message
    (lambda d: d["lifts"].__setitem__("Phi", "01"), "lift: Phi: need 1 unit parts"),
    (lambda d: d.__setitem__("connection", "01"), "connection_shape: need 1 matrices"),
    (lambda d: d.__setitem__("connection", [["0"]]), "connection: matrix must be a list of rows"),
    (lambda d: d.__setitem__("hodge_range", "0"),
     "document_shape: not enough values to unpack (expected 2, got 1)"),
    (lambda d: d["frobenius"].__setitem__("lift", 0), "frobenius: unknown lift 0"),
    # integer ring fields keep the messages of the ring's own checks
    (lambda d: d["ring"].pop("n"), "ring: 'n'"),
    (lambda d: d["ring"].__setitem__("p", 9), "ring: p must be an odd prime, got 9"),
    (lambda d: d["ring"].__setitem__("s", 2), "ring: need 0 <= s <= d"),
    # several faults: the one the older checks find first is reported
    (lambda d: (d.__setitem__("hodge_range", "01"), d["connection"].append([])),
     "connection_shape: need 1 matrices"),
])
def test_earlier_refusals_keep_their_message(edit, message):
    module = nil2(5, 2)
    doc = module_to_dict(module, {"Phi": module.lift}, "Phi")
    edit(doc)
    with pytest.raises(InvariantViolationError) as info:
        parse_module_file(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("edit,error,message", [
    # a map document whose image fields are integers keeps its message
    (lambda d: d["images"][0].pop("c"), InvariantViolationError, "map_image: 'c'"),
    (lambda d: d["images"][0].pop("monomial"), InvariantViolationError, "map_image: 'monomial'"),
    (lambda d: d["images"].__setitem__(0, 0), InvariantViolationError,
     "map_image: 'int' object is not subscriptable"),
    (lambda d: d["images"][0].__setitem__("c", 5), IllegalMapError,
     "constant of image 1 is not a unit"),
    (lambda d: d["images"][0].__setitem__("monomial", [1, 0]), IllegalMapError,
     "image 1: exponent vector has wrong length"),
    (lambda d: d["images"][0].__setitem__("monomial", [-1]), IllegalMapError,
     "image 1: negative exponent on a target divisor slot"),
])
def test_integer_map_refusals_keep_their_message(fixture_dir, edit, error, message):
    doc = json.loads((fixture_dir / "map_rescale2_p5n1.json").read_text())
    edit(doc)
    with pytest.raises(error) as info:
        parse_map_file(json.dumps(doc))
    assert str(info.value) == message


def test_integer_map_fields_are_read_as_given(fixture_dir):
    doc = json.loads((fixture_dir / "map_rescale2_p5n1.json").read_text())
    doc["images"][0]["c"] = -3
    ring_map, _ = parse_map_file(json.dumps(doc))
    assert ring_map.images[0][:2] == (2, (1,))
