"""Deletions leave nothing behind: no unused imports or private module names.

Every name a module in ``src/skewlab``, ``tests`` or ``demos`` imports, and
every module-level function, class or constant whose name starts with one
underscore, must be read somewhere in that module.  ``__init__.py``
re-exports names and is exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "skewlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py"))


def _bound_names(tree):
    """(name, kind) for each import and private module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), "import"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, "private " + type(node).__name__
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, "private constant"


def unreferenced(source):
    """The imports and private module-level names that the source never reads."""
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (name, kind) for name, kind in _bound_names(tree)
        if (kind == "import" or (name.startswith("_") and not name.startswith("__")))
        and name not in read
    ]


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS,
    ids=[p.name for p in MODULES] + [str(p.relative_to(ROOT)) for p in SCRIPTS],
)
def test_module_reads_every_import_and_private_name(path):
    unused = unreferenced(path.read_text())
    assert not unused, "%s: %s" % (
        path.name, ", ".join("%s %s never referenced" % (kind, name) for name, kind in unused)
    )


def test_unreferenced_finds_unused_imports_and_private_names():
    source = (
        "import math\nimport statistics\nfrom os import path as p, sep\n"
        "_USED = 1\n_UNUSED = 2\n__version__ = '0'\n"
        "def _helper():\n    return math.pi + _USED + len(sep)\n"
        "def _dead():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    assert unreferenced(source) == [
        ("statistics", "import"), ("p", "import"), ("_UNUSED", "private constant"),
        ("_dead", "private FunctionDef"), ("_Gone", "private ClassDef"),
    ]
