"""The library imports only the standard library and NumPy; SciPy and
the rest of the test extra stay in the tests.  Every name the package
exports has a caller in the library or the benchmark harness."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sheaffuse"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_library_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside


def names_read(path: Path) -> set[str]:
    """Every bare name and attribute name in a file's syntax tree."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_export_has_a_caller():
    """A name that ``sheaffuse`` exports, other than its modules and
    dunders, is read in another library module or in the benchmark
    harness.  A name only tests read belongs in ``tests/oracles.py``."""
    init = SRC / "__init__.py"
    exported = set()
    for node in ast.parse(init.read_text(), str(init)).body:
        if isinstance(node, ast.ImportFrom):
            exported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            exported |= {t.id for t in node.targets
                         if isinstance(t, ast.Name)
                         and not t.id.startswith("__")}
    assert exported
    modules = {path.stem for path in SRC.glob("*.py")}
    read = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path != init:
            read |= names_read(path)
    assert sorted(exported - modules - read) == []
