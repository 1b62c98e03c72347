"""Every name a module in src/, tests/ or benchmarks/ imports is used in
that module, and every name the package exports exists.

A stdlib-``ast`` stand-in for a linter's unused-import rule: a name counts
as used when it appears as an identifier anywhere in the module, inside a
quoted annotation, or in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import kgqa_engine

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "tests").rglob("*.py")),
    *sorted((ROOT / "benchmarks").glob("*.py")),
]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of its import, ``from __future__`` excluded."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= used_names(ast.parse(annotation.value, mode="eval"))
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import re\n"
        "from a import b, c\n"
        "__all__ = ['b']\n"
        "def f() -> 'c': return re.compile('x')\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


def test_every_exported_name_resolves():
    """A stale ``__all__`` entry makes ``from kgqa_engine import *`` raise."""
    namespace: dict = {}
    exec("from kgqa_engine import *", namespace)
    assert set(kgqa_engine.__all__) <= namespace.keys()
