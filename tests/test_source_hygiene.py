"""Leftovers of deletions: unused imports and a stale public API list.

No linter is a dependency, so the scan reads each module's syntax tree with
`ast`: an imported name that no expression of the module reads is unused.
`from __future__` imports and the names a module lists in ``__all__`` (the
package's re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

import wgscatter

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "wgscatter").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


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


def test_public_api_list_is_sorted_and_resolves():
    names = wgscatter.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(wgscatter, name), name
