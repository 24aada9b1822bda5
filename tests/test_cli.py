import json
import os
import subprocess
import sys

import pytest

from logff.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(out):
    doc = json.loads(out)
    doc.pop("elapsed_ms", None)
    return doc


class TestCheck:
    def test_valid_module_exit_0(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "check", str(fixture_dir / "nil2_p5n1.json"))
        assert code == 0
        assert "flat" in out and "pass" in out

    @pytest.mark.parametrize("name,expected", [
        ("bad_strong_div_p5n2.json", "strong_div"),
        ("bad_horizontal_p5n2.json", "horizontal"),
        ("bad_griffiths_p5n2.json", "griffiths"),
        ("bad_flat_p5n2.json", "flat"),
    ])
    def test_negative_controls_exit_1(self, fixture_dir, capsys, name, expected):
        code, out, _ = run(capsys, "check", str(fixture_dir / name), "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["checks"][expected]["status"] == "fail"
        others = {k: v["status"] for k, v in doc["checks"].items() if k != expected}
        assert all(v in ("pass", "skipped") for v in others.values())

    def test_garbage_exit_2(self, fixture_dir, capsys):
        code, _, err = run(capsys, "check", str(fixture_dir / "garbage.json"))
        assert code == 2
        assert err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "no_such_file.json")
        assert code == 2

    def test_wide_range_mode(self, fixture_dir, capsys):
        code, _, _ = run(capsys, "check", str(fixture_dir / "wide_p3n2.json"))
        assert code == 2
        code, _, _ = run(capsys, "check", str(fixture_dir / "wide_p3n2.json"),
                         "--mode", "wide-range")
        assert code == 0

    @pytest.mark.parametrize("p", [9, 15, 21, 25, 10 ** 30 + 57])
    def test_composite_or_huge_p_exit_2(self, fixture_dir, capsys, tmp_path, p):
        doc = json.loads((fixture_dir / "nil2_p5n1.json").read_text())
        doc["ring"]["p"] = p
        path = tmp_path / "bad_p.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("entry,column", [("²", 1), ("T1^²", 4), ("٣", 1)],
                             ids=["superscript_two", "superscript_exponent", "arabic_indic_three"])
    def test_non_ascii_digit_exit_2(self, fixture_dir, capsys, tmp_path, entry, column):
        # str.isdigit() takes all three; int() refuses the superscript and
        # reads the Arabic-Indic three as 3
        doc = json.loads((fixture_dir / "nil2_p5n1.json").read_text())
        doc["connection"][0][0][1] = entry
        path = tmp_path / "digit.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and not out
        assert err.startswith(f"error: unexpected character {entry[column - 1]!r} "
                              f"at line 1, column {column}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,where", [
        (lambda d: d["connection"][0][0].__setitem__(1, 1), "connection[0][0][1]"),
        (lambda d: d.__setitem__("lifts", [["0"]]), "lifts"),
        (lambda d: d["lifts"].__setitem__("Phi", [0]), "lifts.Phi[0]"),
        (lambda d: d["lifts"].__setitem__("Phi", 0), "lifts.Phi"),
        (lambda d: d.__setitem__("frobenius", [["1", "0"], ["0", "1"]]), "frobenius"),
        (lambda d: d["connection"][0].__setitem__(1, ["0"]), "connection[0][1]"),
        (lambda d: d.__setitem__("hodge_range", "01"), "hodge_range"),
        (lambda d: d["connection"][0][0].__setitem__(1, {"a": "0"}), "connection[0][0][1]"),
        (lambda d: d["ring"].__setitem__("d", 1.5), "ring.d"),
        (lambda d: d["ring"].__setitem__("d", True), "ring.d"),
        (lambda d: d["ring"].__setitem__("d", "01"), "ring.d"),
        (lambda d: d["ring"].__setitem__("n", 1.5), "ring.n"),
        (lambda d: d["basis"][0].__setitem__("level", 0.5), "basis[0].level"),
        (lambda d: d["basis"][1].__setitem__("torsion", True), "basis[1].torsion"),
        (lambda d: d["basis"][0].__setitem__("name", None), "basis[0].name"),
        (lambda d: d["basis"][1].__setitem__("name", 0), "basis[1].name"),
    ], ids=["connection_entry_int", "lifts_as_list", "lift_entry_int", "lift_value_int",
            "frobenius_as_list", "ragged_matrix", "hodge_range_string", "connection_entry_object",
            "ring_d_float", "ring_d_bool", "ring_d_string", "ring_n_float", "basis_level_float",
            "basis_torsion_bool", "basis_name_null", "basis_name_int"])
    def test_malformed_shape_exit_2(self, capsys, tmp_path, edit, where):
        from logff.fixtures import nil2
        from logff.modfile import module_to_dict

        module = nil2(5, 2)
        doc = module_to_dict(module, {"Phi": module.lift}, "Phi")
        edit(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path), "--format", "json")
        assert code == 2 and not out
        assert err.startswith(f"error: {where}: expected") or err.startswith(f"error: {where}: row")
        assert "Traceback" not in err

    def test_json_report_deterministic(self, fixture_dir, capsys):
        path = str(fixture_dir / "nil2_p5n1.json")
        _, out1, _ = run(capsys, "check", path, "--format", "json")
        _, out2, _ = run(capsys, "check", path, "--format", "json")
        assert report_of(out1) == report_of(out2)


class TestGlue:
    def test_pinned_matrix(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "glue", str(fixture_dir / "nil2_p5n1.json"),
                           "Phi", "Psi", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"] == [["1", "4"], ["0", "1"]]
        assert doc["verdicts"]["linearity"] is True
        assert doc["verdicts"]["horizontality"] is True

    def test_same_lift_identity(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "glue", str(fixture_dir / "nil2_p5n1.json"),
                           "Phi", "Phi", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"] == [["1", "0"], ["0", "1"]]
        assert doc["verdicts"]["identity"] is True

    def test_cocycle_with_third(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "glue", str(fixture_dir / "nil2_p5n1.json"),
                           "Phi", "Psi", "--third", "Chi", "--cocycle",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["verdicts"]["cocycle"] is True

    def test_third_computes_each_gluing_once(self, fixture_dir, capsys, monkeypatch):
        import importlib

        from logff.modfile import parse_module_file
        from logff.transport import check_glue_cocycle, check_glue_horizontal, glue_map

        path = fixture_dir / "nil2_p5n2.json"
        transport_module = importlib.import_module("logff.transport")
        real = transport_module._basis_glue
        pairs = []

        def counting(module, g1, g2, mode="ratio"):
            pairs.append((g1, g2))
            return real(module, g1, g2, mode)

        # every matrix glue_map returns is built here; the module keeps the last one
        monkeypatch.setattr(transport_module, "_basis_glue", counting)
        code, out, _ = run(capsys, "glue", str(path), "Phi", "Psi", "--third", "Chi",
                           "--format", "json")
        monkeypatch.undo()
        assert code == 0
        module, lifts = parse_module_file(path.read_text())
        l1, l2, l3 = lifts["Phi"], lifts["Psi"], lifts["Chi"]
        assert pairs == [(l1, l2), (l2, l3), (l1, l3)]
        doc = json.loads(out)
        assert doc["matrix"] == [[str(x) for x in row] for row in glue_map(module, l1, l2).matrix.rows]
        assert doc["verdicts"]["horizontality"] is check_glue_horizontal(module, l1, l2) is True
        assert doc["verdicts"]["cocycle"] is check_glue_cocycle(module, l1, l2, l3) is True

    def test_unknown_lift_exit_2(self, fixture_dir, capsys):
        code, _, err = run(capsys, "glue", str(fixture_dir / "nil2_p5n1.json"),
                           "Phi", "Omega")
        assert code == 2


class TestPullback:
    def test_root_map_kills_poles(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "pullback", str(fixture_dir / "nil2_p5n1.json"),
                           "--map", str(fixture_dir / "map_root_p5n1.json"),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["module"]["connection"] == [[["0", "0"], ["0", "0"]]]
        assert all(v["status"] == "pass" for v in doc["checks"].values())

    def test_rescale(self, fixture_dir, capsys):
        code, out, _ = run(capsys, "pullback", str(fixture_dir / "nil2_p5n1.json"),
                           "--map", str(fixture_dir / "map_rescale2_p5n1.json"),
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        # dlog frame: connection unchanged by a rescaling
        assert doc["module"]["connection"] == [[["0", "1"], ["0", "0"]]]

    def test_restriction_to_the_open_chart(self, fixture_dir, capsys):
        code, out, err = run(capsys, "pullback", str(fixture_dir / "nil2_p5n1.json"),
                             "--map", str(fixture_dir / "map_restrict_p5n1.json"),
                             "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["module"]["ring"] == {"p": 5, "n": 1, "d": 1, "s": 0}
        assert doc["module"]["connection"] == [[["0", "1"], ["0", "0"]]]
        assert {k: v["status"] for k, v in doc["checks"].items()} == {
            "flat": "pass", "griffiths": "pass", "horizontal": "pass", "strong_div": "pass"}

    def test_diagonal_into_two_divisor_slots(self, fixture_dir, capsys, tmp_path):
        from logff.logring import FrobLift, RingElem, RingMap, RingSpec
        from logff.modfile import map_to_dict

        source, plane = RingSpec(5, 1, 1, 1), RingSpec(5, 1, 2, 2)
        diagonal = RingMap(source, plane, [(1, (1, 1), RingElem.zero(plane))])   # T -> T_1 T_2
        path = tmp_path / "map_diagonal.json"
        path.write_text(json.dumps(map_to_dict(diagonal, FrobLift.standard(plane))))
        code, out, err = run(capsys, "pullback", str(fixture_dir / "nil2_p5n1.json"),
                             "--map", str(path), "--format", "json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["module"]["ring"] == {"p": 5, "n": 1, "d": 2, "s": 2}
        # dlog T = dlog T_1 + dlog T_2: the residue lands on both divisor slots
        assert doc["module"]["connection"] == [[["0", "1"], ["0", "0"]]] * 2
        assert {k: v["status"] for k, v in doc["checks"].items()} == {
            "flat": "pass", "griffiths": "pass", "horizontal": "pass", "strong_div": "pass"}

    @pytest.mark.parametrize("edit,where", [
        (lambda d: d.__setitem__("images", 0), "images"),
        (lambda d: d.__setitem__("target_lift", 0), "target_lift"),
        (lambda d: d.__setitem__("target_lift", [0]), "target_lift[0]"),
        (lambda d: d.__setitem__("target_lift", "0"), "target_lift"),
        (lambda d: d["images"][0].__setitem__("h", [0]), "images[0].h"),
        (lambda d: d["source_ring"].__setitem__("n", 1.5), "source_ring.n"),
        (lambda d: d["target_ring"].__setitem__("d", True), "target_ring.d"),
        (lambda d: [d], "document_shape"),
        (lambda d: d["images"][0].__setitem__("c", 1.5), "images[0].c"),
        (lambda d: d["images"][0].__setitem__("c", True), "images[0].c"),
        (lambda d: d["images"][0].__setitem__("c", "01"), "images[0].c"),
        (lambda d: d["images"][0].__setitem__("monomial", "1"), "images[0].monomial"),
        (lambda d: d["images"][0].__setitem__("monomial", 1), "images[0].monomial"),
        (lambda d: d["images"][0].__setitem__("monomial", [1.5]), "images[0].monomial[0]"),
        (lambda d: d["images"][0].__setitem__("monomial", ["0"]), "images[0].monomial[0]"),
        (lambda d: d["images"][0].__setitem__("monomial", [True]), "images[0].monomial[0]"),
    ], ids=["images_int", "target_lift_int", "target_lift_entry_int", "target_lift_string",
            "image_h_list", "source_ring_float", "target_ring_bool", "top_level_list",
            "image_c_float", "image_c_bool", "image_c_string", "image_monomial_string",
            "image_monomial_int", "image_monomial_entry_float", "image_monomial_entry_string",
            "image_monomial_entry_bool"])
    def test_malformed_map_exit_2(self, fixture_dir, capsys, tmp_path, edit, where):
        doc = json.loads((fixture_dir / "map_rescale2_p5n1.json").read_text())
        path = tmp_path / "malformed_map.json"
        path.write_text(json.dumps(edit(doc) or doc))
        code, out, err = run(capsys, "pullback", str(fixture_dir / "nil2_p5n1.json"),
                             "--map", str(path), "--format", "json")
        assert code == 2 and not out
        assert err.startswith(f"error: {where}:") and "Traceback" not in err


class TestParserReuse:
    """main() builds its parser on the first call and reuses it for every later call."""

    def test_many_calls_build_the_parser_once(self, fixture_dir, capsys, monkeypatch):
        import logff.cli as cli

        builds = []
        real_build = cli.build_parser

        def counting():
            builds.append(1)
            return real_build()

        monkeypatch.setattr(cli, "build_parser", counting)
        monkeypatch.setattr(cli, "_parser", None)
        path = str(fixture_dir / "nil2_p5n1.json")
        codes = [run(capsys, "check", path, "--format", "json")[0] for _ in range(3)]
        codes.append(run(capsys, "glue", path, "Phi", "Psi")[0])
        codes.append(run(capsys, "coeffs", "--max", "1")[0])
        assert codes == [0] * 5
        assert len(builds) == 1

    def test_options_do_not_carry_over(self, fixture_dir, capsys):
        path = str(fixture_dir / "nil2_p5n1.json")
        code, out, _ = run(capsys, "glue", path, "Phi", "Psi", "--third", "Chi",
                           "--format", "json")
        assert code == 0 and "cocycle" in json.loads(out)["verdicts"]
        code, out, _ = run(capsys, "glue", path, "Phi", "Psi", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["lifts"] == ["Phi", "Psi"] and "cocycle" not in doc["verdicts"]

        wide = str(fixture_dir / "wide_p3n2.json")
        code, out, _ = run(capsys, "check", wide, "--mode", "wide-range", "--format", "json")
        assert code == 0 and json.loads(out)["mode"] == "wide-range"
        code, out, _ = run(capsys, "check", path, "--format", "json")
        assert code == 0 and json.loads(out)["mode"] == "strict"
        code, out, _ = run(capsys, "check", path)
        assert code == 0 and "mode: strict" in out

    @pytest.mark.parametrize("bad", [["check"], ["check", "x.json", "--mode", "loose"],
                                     ["frobnicate"], []])
    def test_bad_command_line_then_good_call(self, fixture_dir, capsys, bad):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: logff")
        code, _, _ = run(capsys, "check", str(fixture_dir / "nil2_p5n1.json"))
        assert code == 0

    def test_patched_handler_runs(self, fixture_dir, capsys, monkeypatch):
        import logff.cli as cli

        path = str(fixture_dir / "nil2_p5n1.json")
        assert run(capsys, "check", path)[0] == 0
        seen = []

        def patched(args):
            seen.append((args.command, args.file, args.mode))
            return 7

        monkeypatch.setattr(cli, "cmd_check", patched)
        assert run(capsys, "check", path)[0] == 7
        assert seen == [("check", path, "strict")]
        monkeypatch.undo()
        assert run(capsys, "check", path)[0] == 0


class TestCoeffs:
    def test_tables(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tables"]["a[1,1]"] == {"1": 1, "2": 1}
        assert doc["tables"]["a[1,2]"] == {"2": 2, "3": 1}
        assert all(doc["identity_up_to_degree_6"].values())

    def test_max_zero(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max", "0", "--format", "json")
        assert code == 0
        assert json.loads(out)["tables"] == {"a[0,0]": {"0": 1}}

    @pytest.mark.parametrize("bad", ["-1", "two", "65"])
    def test_negative_or_non_integer_max_is_refused(self, capsys, bad):
        with pytest.raises(SystemExit) as info:
            main(["coeffs", "--max", bad])
        assert info.value.code == 2
        out = capsys.readouterr()
        assert not out.out and "--max" in out.err and "Traceback" not in out.err

    def test_max_at_the_bound(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--max", "64", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["tables"]) == 65 * 65
        assert doc["tables"]["a[64,64]"]["128"] == 1


class TestSelftest:
    def test_quick_exit_0(self, capsys):
        code, out, _ = run(capsys, "selftest", "--quick", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert set(doc["sections"]) == {"coefficients", "taylor", "module_checks",
                                        "gluing", "pullback", "negative_controls"}

    def test_quick_runs_every_grid_section(self, monkeypatch):
        """Every section function of the grid, each bullet among them, runs in
        `selftest --quick`; the acceptance criteria call the same functions."""
        from logff import selftest
        names = {name for name in vars(selftest)
                 if name.startswith("_") and name.endswith("_section") and name != "_section"}
        assert {"_identity_section", "_cocycle_section", "_horizontal_section",
                "_linearity_section", "_transport_section", "_nonlog_section",
                "_functoriality_section", "_pole_killing_section"} <= names
        ran = set()
        for name in names:
            real = getattr(selftest, name)
            monkeypatch.setattr(selftest, name, lambda *args, _name=name, _real=real, **kwargs:
                                ran.add(_name) or _real(*args, **kwargs))
        assert selftest.run_selftest(quick=True)["ok"]
        assert ran == names

    def test_optimized_interpreter_keeps_the_grid_checks(self, fixture_dir):
        """Under `python -O` a section whose identity fails still fails: the
        grid's checks are not assert statements, which -O strips."""
        sabotage = (
            "import json\n"
            "from logff import selftest\n"
            "from logff.logring import RingElem\n"
            "selftest.taylor_residual = lambda r, l1, l2: RingElem.one(r.spec)\n"
            "print(json.dumps(selftest.run_selftest(quick=True)))\n")
        env = dict(os.environ, PYTHONPATH=str(fixture_dir.parent / "src"))
        proc = subprocess.run([sys.executable, "-O", "-c", sabotage], env=env,
                              capture_output=True, text=True, check=True)
        report = json.loads(proc.stdout)
        assert report["ok"] is False
        assert report["sections"]["taylor"]["assertion"].startswith("taylor residual nonzero")
        assert all(section["ok"] for name, section in report["sections"].items()
                   if name != "taylor")


class TestNonIntegralExitCode:
    def test_exit_3_when_division_fails(self, fixture_dir, capsys, monkeypatch):
        # a NonIntegral division cannot arise from in-range inputs (that is
        # criterion A13), so the exit-code contract is exercised by injection
        import logff.cli as cli
        from logff.exactnum import NonIntegralError

        def boom(module):
            raise NonIntegralError("injected")

        monkeypatch.setattr(cli, "run_all_checks", boom)
        code, _, err = run(capsys, "check", str(fixture_dir / "nil2_p5n1.json"))
        assert code == 3
        assert "non-integral" in err
