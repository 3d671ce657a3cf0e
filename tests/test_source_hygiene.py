"""Leftovers of deletions: unused imports, unread module-level names and a
stale public API list.

No linter is a dependency, so the scans read each file's syntax tree with
`ast`: an imported name that no expression of the module reads is unused.
`from __future__` imports and the names a module lists in ``__all__`` (the
package's re-exports) are exempt.  A function, class or constant defined at
the top level of a package module is unread when no file of the package,
the tests or the benchmark loads it as a name or an attribute, imports it,
or spells it as a string (the family table and the benchmark's tracer look
functions up by name).  It is read only by tests when, of those files,
only tests read it (a re-export in ``__init__`` is not a read).
"""

import ast
from pathlib import Path

import pytest

import wgscatter

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "wgscatter").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
READERS = MODULES + BENCH


def _exported(tree: ast.Module) -> set[str]:
    """The string entries of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_finds_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\n\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: dumps"]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from .core import A\n\n__all__ = ['A']\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def defined_names(source: str) -> dict[str, int]:
    """Functions, classes and assigned names at the top level of ``source``,
    dunder names aside."""
    names: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names[leaf.id] = node.lineno
    return {name: line for name, line in names.items() if not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """Every name ``source`` loads, reads as an attribute, imports or spells
    as a string constant."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_names(package: dict[str, str], readers: list[str]) -> list[str]:
    """``"<module>:<line>: <name>"`` for each name that ``package`` (module
    name to source) defines and no source of ``readers`` reads."""
    read = set().union(*(read_names(source) for source in readers))
    return [
        f"{module}:{line}: {name}"
        for module, source in package.items()
        for name, line in defined_names(source).items()
        if name not in read
    ]


def test_scan_finds_an_unread_name():
    module = (
        "TWO_PI = 6.28\n\n\ndef _split(a, b):\n    return a, (a - b) % TWO_PI\n\n\n"
        "def giant(a, b):\n    return a, b\n\n\nclass Old:\n    pass\n"
    )
    assert unread_names({"configs": module}, [module, "configs.giant(1, 2)\n"]) == [
        "configs:4: _split",
        "configs:12: Old",
    ]
    assert unread_names({"m": "KERNEL = 1\n"}, ["getattr(m, 'KERNEL')\n"]) == []
    assert unread_names({"m": "__all__ = []\n"}, [""]) == []


def test_no_unread_module_level_names():
    package = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_names(package, [path.read_text() for path in READERS]) == []


def test_no_module_level_names_only_tests_read():
    """A name the package defines must be read by the package or the
    benchmark; a test alone does not keep it, and neither does a re-export
    in ``__init__``."""
    package = {path.stem: path.read_text() for path in PACKAGE}
    readers = [path for path in PACKAGE if path.stem != "__init__"] + BENCH
    assert unread_names(package, [path.read_text() for path in readers]) == []


def test_public_api_list_is_sorted_and_resolves():
    names = wgscatter.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(wgscatter, name), name
