#!/usr/bin/env python3
"""Regenerate the JSON fixture corpus under fixtures/ from the in-code fixtures."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from logff.ffmodule import root_map
from logff.fixtures import _chain, mixed_torsion, negative_controls, nil2, rank3_chain
from logff.logring import FrobLift, RingElem, RingMap
from logff.modfile import map_to_dict, module_to_dict

OUT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def dump(name, doc):
    path = OUT / name
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print("wrote", path)


def with_standard_lifts(module):
    spec = module.spec
    zero = RingElem.zero(spec)
    one = RingElem.one(spec)
    two = RingElem.const(spec, 2)
    lifts = {
        "Phi": FrobLift(spec, [zero] * spec.d),
        "Psi": FrobLift(spec, [one] + [zero] * (spec.d - 1)),
        "Chi": FrobLift(spec, [two] + [zero] * (spec.d - 1)),
        "Eta": FrobLift(spec, [RingElem.variable(spec, 1)] + [zero] * (spec.d - 1)),
    }
    return module_to_dict(module, lifts, "Phi")


def main():
    OUT.mkdir(exist_ok=True)
    dump("nil2_p5n1.json", with_standard_lifts(nil2(5, 1)))
    dump("nil2_p5n2.json", with_standard_lifts(nil2(5, 2)))
    dump("nil2_p3n2.json", with_standard_lifts(nil2(3, 2)))
    dump("nil2_s0_p5n1.json", with_standard_lifts(nil2(5, 1, d=1, s=0)))
    dump("rank3_p5n2.json", with_standard_lifts(rank3_chain(5, 2)))
    dump("mixed_p5n2.json", with_standard_lifts(mixed_torsion(5, 2)))

    for name, module, expected in negative_controls(5, 2):
        doc = module_to_dict(module, {"Phi": module.lift}, "Phi")
        doc["expected_failure"] = expected
        dump(f"bad_{expected}_p5n2.json", doc)

    # map files against nil2_p5n1
    base = nil2(5, 1)
    spec = base.spec
    dump("map_root_p5n1.json", map_to_dict(root_map(spec, 1), FrobLift.standard(spec)))
    rescale = RingMap(spec, spec, [(2, (1,), RingElem.zero(spec))])
    dump("map_rescale2_p5n1.json", map_to_dict(rescale, FrobLift.standard(spec)))
    # a map that changes the ring: the restriction to the open chart T != 0
    gm = spec.localized()
    restrict = RingMap(spec, gm, [(1, (1,), RingElem.zero(gm))])
    dump("map_restrict_p5n1.json", map_to_dict(restrict, FrobLift.standard(gm)))

    # deliberately malformed input for the exit-code contract
    (OUT / "garbage.json").write_text("{not json at all\n", encoding="utf-8")
    print("wrote", OUT / "garbage.json")

    # wide Hodge window b - a = p - 1: rejected under strict mode, accepted
    # under wide-range (rank-3 chain at p = 3)
    chain = _chain(3, 2, 3, wide_range=True)
    wide = module_to_dict(chain, {"Phi": chain.lift,
                                  "Psi": FrobLift(chain.spec, [RingElem.one(chain.spec)])}, "Phi")
    dump("wide_p3n2.json", wide)


if __name__ == "__main__":
    main()
