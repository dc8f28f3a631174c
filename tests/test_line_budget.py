from pathlib import Path

#: The ROADMAP's standing rule for the size of src/spectralpart.
LINE_BUDGET = 2384


def test_source_within_line_budget():
    src = Path(__file__).resolve().parent.parent / "src" / "spectralpart"
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in src.glob("*.py"))
    assert lines <= LINE_BUDGET, (
        "src/spectralpart/*.py has %d lines, over the budget of %d. If the new "
        "lines earn their place, re-anchor the budget in ROADMAP.md (and here); "
        "do not compress code to fit." % (lines, LINE_BUDGET))
