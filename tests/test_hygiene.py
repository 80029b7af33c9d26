"""Stdlib-ast scans of the sources.

Every imported name in src/, tests/ and demos/ is referenced: a name counts
as used when the module mentions it anywhere (scopes are not tracked) or
lists it in ``__all__``; ``from __future__`` imports are exempt. Every name a
src/normmatch module lists in ``__all__`` is bound at its top level. No
src/normmatch module opens a file for writing except through
``atomic.atomic_write``, so no output is ever left torn.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """'line N: name' for every imported name the module never references."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exported(tree))
    unused = [(line, name) for name, line in imported.items() if name not in used]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def unbound_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level def, class, import or assignment binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in _exported(tree) if name not in bound]


def write_opens(source: str, allowed: str = "") -> list[str]:
    """'line N' for every builtin ``open(`` call outside the function named
    ``allowed`` whose mode may write: a literal with w, a, x or +, or a mode
    that is not a literal."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == allowed:
            skip |= set(range(node.lineno, node.end_lineno + 1))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open" and node.lineno not in skip):
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if modes and not (isinstance(modes[0], ast.Constant)
                              and not set(str(modes[0].value)) & set("wax+")):
                found.append(f"line {node.lineno}")
    return found


def test_scanner_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "print(os.path.sep, np.pi)\n"
    )
    assert unused_imports(source) == ["line 3: sys", "line 5: dumps"]


def test_export_scanner_flags_only_unbound_names():
    source = (
        "import numpy as np\n"
        "from json import dumps\n"
        "__all__ = ['np', 'dumps', 'LIMIT', 'Box', 'run', 'gone', 'x', 'y']\n"
        "LIMIT: int = 3\n"
        "x, y = 1, 2\n"
        "class Box: pass\n"
        "def run(): pass\n"
        "def helper():\n"
        "    gone = 1\n"
    )
    assert unbound_exports(source) == ["gone"]


def test_write_scanner_flags_only_write_modes():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, mode='r', encoding='utf-8')\n"
        "open(p, 'w')\n"
        "open(p, mode='ab')\n"
        "open(p, 'r+')\n"
        "open(p, m)\n"
        "archive.open(p, 'w')\n"
        "def helper(p, m):\n"
        "    return open(p, m)\n"
    )
    assert write_opens(source) == ["line 4", "line 5", "line 6", "line 7", "line 10"]
    assert write_opens(source, allowed="helper") == ["line 4", "line 5", "line 6", "line 7"]


def test_files_found():
    assert any(p.name == "model.py" for p in FILES)
    assert any(p.parent.name == "demos" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "normmatch").glob("*.py")),
                         ids=lambda p: p.name)
def test_all_entries_are_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "normmatch").glob("*.py")),
                         ids=lambda p: p.name)
def test_files_written_only_through_atomic_write(path):
    allowed = "atomic_write" if path.name == "atomic.py" else ""
    assert write_opens(path.read_text(encoding="utf-8"), allowed) == []
