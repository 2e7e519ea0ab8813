"""Source conventions that hold across the package and its tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "trafficlab").glob("*.py"), *(ROOT / "tests").glob("*.py"),
                  *(ROOT / "scripts").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")])
MODULES = [p for p in SOURCES if p.name != "__init__.py"]  # __init__ imports to re-export
MAX_LINE = 99


def ids(paths):
    return [p.relative_to(ROOT).as_posix() for p in paths]


@pytest.mark.parametrize("path", SOURCES, ids=ids(SOURCES))
def test_lines_fit_in_99_columns(path):
    long = [(number, len(line)) for number, line in
            enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > MAX_LINE]
    assert not long, f"{path.name}: (line, length) over {MAX_LINE} columns: {long}"


@pytest.mark.parametrize("path", MODULES, ids=ids(MODULES))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: (line, name) imported but unused: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=ids(SOURCES))
def test_min_max_take_out_by_keyword(path):
    """NumPy 2.4 deprecates ``out`` passed positionally to np.minimum and
    np.maximum, and the deprecated form is slower (2.0 against 0.5 µs on a
    (1, 2) operand, numpy 2.4.6, warning ignored): pass ``out=``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    positional = sorted(node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("minimum", "maximum")
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in ("np", "numpy") and len(node.args) > 2)
    assert not positional, f"{path.name}: lines passing out positionally: {positional}"
