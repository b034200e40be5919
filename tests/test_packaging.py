"""The library imports only the standard library and NumPy, and only
NumPy's public names; SciPy and the rest of the test extra stay in the
tests.  Every name the package exports, and every function and class a
library module defines, has a reader in the library or the benchmark
harness."""

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
    assert [use for path in files
            for use in private_numpy(path.read_text(), path.name)] == []


def private_numpy(source: str, name: str) -> list[str]:
    """The private NumPy modules a file imports and the private
    attributes it reads off NumPy names: one whose name starts with a
    single underscore, such as ``numpy.linalg._umath_linalg``.  Calling
    such internals directly skips the checks of the public API."""
    tree = ast.parse(source, name)
    aliases, found = set(), []

    def private(part):
        return part.startswith("_") and not part.startswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    aliases.add((alias.asname or alias.name).split(".")[0])
                    found += [f"{name}: import {alias.name}"
                              for part in alias.name.split(".")
                              if private(part)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "numpy":
            aliases |= {alias.asname or alias.name for alias in node.names}
            found += [f"{name}: from {node.module} import {part}"
                      for part in (*node.module.split("."),
                                   *(alias.name for alias in node.names))
                      if private(part)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                found.append(f"{name}: {ast.unparse(node)}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "getattr" and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str) \
                and private(node.args[1].value):
            found.append(f"{name}: {ast.unparse(node)}")
    return found


def test_private_numpy_check_finds_each_form():
    """Each way into a private NumPy name is found, and a public one
    is not."""
    sources = ["import numpy.linalg._umath_linalg",
               "from numpy.linalg import _umath_linalg",
               "from numpy._core import multiarray",
               "import numpy as np\nnp.linalg._umath_linalg.solve(a, b)",
               "from numpy import linalg as la\nla._umath_linalg",
               "import numpy as np\ngetattr(np.linalg, '_umath_linalg')"]
    for source in sources:
        assert private_numpy(source, "x.py"), source
    assert private_numpy("import numpy as np\nnp.linalg.solve(a, b)\n"
                         "np.__version__\nx._private", "x.py") == []


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
