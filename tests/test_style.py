"""Source conventions that hold across the package and its tests."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "trafficlab").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")])
MAX_LINE = 99


@pytest.mark.parametrize("path", SOURCES, ids=[p.relative_to(ROOT).as_posix() for p in SOURCES])
def test_lines_fit_in_99_columns(path):
    long = [(number, len(line)) for number, line in
            enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert not long, f"{path.name}: (line, length) over {MAX_LINE} columns: {long}"
