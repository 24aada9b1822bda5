import importlib.util


def test_golden_reports_match_their_generator(fixture_dir):
    """scripts/gen_golden.py, run in this process, writes tests/golden.json byte for byte:
    every CLI report over the shipped corpus is what it was when the file was made."""
    root = fixture_dir.parent
    spec = importlib.util.spec_from_file_location("gen_golden", root / "scripts" / "gen_golden.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.golden_text() == (root / "tests" / "golden.json").read_text(encoding="utf-8")
