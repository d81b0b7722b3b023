"""No module of the package imports a name it never reads.

No linter is installed, so this test stands in for pyflakes' F401: a
module-level import binds names, and each must be read somewhere in the
module, unless the line that binds it carries `# noqa: F401` (the
tracer's shims, see `tests/test_trace_targets.py`).  `__init__.py` is
left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hycone"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def read_names(tree: ast.AST) -> set[str]:
    """Every name the module reads, in code or in a string annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= read_names(ast.parse(hint.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level imported name that is never read
    and whose line has no `# noqa: F401`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = read_names(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import copy\n"
        "import os.path\n"
        "from math import (\n"
        "    inf,\n"
        "    nan,  # noqa: F401  kept on purpose\n"
        "    pi,\n"
        ")\n"
        "from typing import Sequence\n"
        "def f(x: 'Sequence[int]') -> float:\n"
        "    return os.path.sep, pi\n"
    )
    assert unused_imports(source) == [(2, "copy"), (5, "inf")]
