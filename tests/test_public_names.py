"""Every public name that a module of the package defines has a caller.

A top-level public name (a function, class or constant whose name does
not start with `_`) defined in `src/hycone/*.py` must be read somewhere
in the code that the commands, the benchmark and the tools run: `src/`,
`bench/`, `tools/`, or `tests/test_acceptance.py`, whose imports are the
typed API's contract.  `__init__.py` is left out on both sides: its
imports are the package's exports, not callers.  A name that only its
own unit tests call is API to keep in step with the tape and the closed
form for no command; delete it, or put it on ALLOWED with its reason.

A name counts as read where it is loaded, imported, read as an attribute
(`analysis.retrieve`), or spelled by a string constant (the benchmark's
tracer names what it wraps, as `("hycone.analysis", "classify", ...)`).
Attributes match by name alone, whatever object they are read from, so
the check errs towards finding a caller.  Like
`tests/test_unused_imports.py`, it reads source and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hycone"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
CALLERS = [*MODULES, *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# Public names, as `module.name`, that nothing in CALLERS reads, each kept
# for the reason given.  An entry whose name gains a caller is stale, and
# the test fails on it too.
ALLOWED = {
    "autodiff.value_of": "tests/test_closed_form.py reads tape and plain-array results through it",
}


def defined_names(source: str) -> list[str]:
    """Public names that a module's top-level statements define."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def read_names(tree: ast.AST) -> set[str]:
    """Every name that a source loads, imports, reads as an attribute or
    spells as a string constant, in code or in a string annotation."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
        for hint in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(hint, ast.Constant) and isinstance(hint.value, str):
                names |= read_names(ast.parse(hint.value, mode="eval"))
    return names


def unread(modules: dict[str, str], callers: list[str]) -> list[str]:
    """`module.name` of each public name that `modules` (name -> source)
    define and no caller source reads."""
    read = set().union(*(read_names(ast.parse(source)) for source in callers))
    return [f"{module}.{name}" for module, source in modules.items()
            for name in defined_names(source) if name not in read]


def test_every_public_name_has_a_caller():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert sorted(unread(modules, callers)) == sorted(ALLOWED)


def test_checker_finds_an_unread_name():
    module = (
        "import math\n"
        "LIMIT = 3\n"
        "WIDTH: int = 4\n"
        "_PRIVATE = 5\n"
        "class Point:\n"
        "    def unused_method(self):\n"
        "        return helper()\n"
        "def helper():\n"
        "    return LIMIT\n"
        "def traced():\n"
        "    pass\n"
        "def annotated() -> 'list[Point]':\n"
        "    pass\n"
        "def orphan():\n"
        "    return math.pi\n"
    )
    callers = [
        module,
        "from pkg.m import WIDTH\n",
        "SPANS = [('pkg.m', 'traced')]\n",
        "import pkg.m as m\nm.annotated()\n",
    ]
    assert unread({"m": module}, callers) == ["m.orphan"]
