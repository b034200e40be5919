"""The library imports only the standard library and NumPy; SciPy and
the rest of the test extra stay in the tests.  Every name the package
exports, and every function and class a library module defines, has a
reader in the library or the benchmark harness."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sheaffuse"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
# the files whose reads keep a library name alive
READERS = [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


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
    """Every bare name loaded and every attribute name in a file's
    syntax tree."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
    for path in READERS:
        if path != init:
            read |= names_read(path)
    assert sorted(exported - modules - read) == []


def defined_names(node) -> list[str]:
    """The names a top-level statement defines: a function's or class's,
    or the non-dunder names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            and not n.id.startswith("__")]


def test_every_definition_has_a_reader():
    """A function, class or constant defined at the top of a library
    module is read, as a name or an attribute, in the library or the
    benchmark harness.  One that nothing there reads is dead code, or
    belongs in ``tests/oracles.py`` when only tests read it."""
    read = set()
    for path in READERS:
        read |= names_read(path)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            unread += [f"{path.name}: {name}"
                       for name in defined_names(node) if name not in read]
    assert unread == []
