"""Deletions leave nothing behind, and no sequence in ``src/`` is read one index at a time.

Every name a module in ``src/skewlab``, ``tests`` or ``demos`` imports, and
every module-level function, class or constant whose name starts with one
underscore, must be read somewhere in that module.  ``__init__.py``
re-exports names and is exempt.

Every public module-level function or class of ``src/skewlab``, and every
public method of its classes, must be read somewhere in ``src/skewlab``,
``bench`` or ``demos``, unless a keep-list gives the reason it stays: code
that only the tests call belongs in ``tests/_common``.

Every field of a ``@dataclass`` in ``src/skewlab`` must be read somewhere
in ``src/skewlab``, ``bench``, ``demos``, ``tests`` or ``tools``: a field
that nothing reads is an output computed for no one.

Every ``BaseSequence(...)`` that ``src/skewlab`` builds gets a lookup
whose class defines ``window``, or re-wraps an existing ``_lookup``: a
lambda or a closure has no window, so ``BaseSequence.symbols`` would read
it one index at a time.
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


# public names that only the tests read, kept on purpose
TEST_ONLY_KEEP = {
    # the cylinder weights p_w that the tests' cycle-expansion exponent oracle sums
    "cylinder_measure",
    # the canonical config text that a run record's config hash is to read
    "serialize_config",
    # the sampled check of the Holder family's declared certificate
    "holder_estimate",
}
READERS = [p for d in (SRC, ROOT / "bench", ROOT / "demos") for p in sorted(d.glob("*.py"))]


def _read_names(reading):
    """The names of the loaded Names and Attributes in the reading sources."""
    return {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for source in reading for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread_public(defining, reading):
    """The public module-level functions and classes in defining that nothing in reading reads.

    A read is a loaded Name or Attribute of that name, anywhere.
    """
    read = _read_names(reading)
    return sorted(
        node.name for source in defining for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
    )


def test_every_public_name_in_src_is_read_outside_the_tests():
    unread = unread_public([p.read_text() for p in MODULES], [p.read_text() for p in READERS])
    assert unread == sorted(TEST_ONLY_KEEP), (
        "only the tests read %s; now read elsewhere, drop from the keep-list: %s"
        % (sorted(set(unread) - TEST_ONLY_KEEP), sorted(TEST_ONLY_KEEP - set(unread)))
    )


def test_unread_public_finds_what_only_the_tests_read():
    defining = [
        "def used():\n    pass\ndef _private():\n    pass\nclass Read:\n    pass\n",
        "class Unread:\n    pass\ndef via_attr():\n    pass\ndef stored():\n    pass\n"
        "def lonely():\n    used()\nCONSTANT = 1\n",
    ]
    reading = ["import m\nused()\nx = m.via_attr\nm.stored = 1\nRead\nstored = 2\n"]
    assert unread_public(defining, reading) == ["Unread", "lonely", "stored"]


# public methods, as "Class.method", that only the tests read, kept on purpose: none
TEST_ONLY_METHODS_KEEP = set()


def _read_names_and_strings(reading):
    """``_read_names``, and every string constant in the reading sources."""
    return _read_names(reading) | {
        node.value for source in reading for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def unread_methods(defining, reading):
    """"Class.method" for each public method of a class in defining that nothing in reading reads.

    A read is a loaded Name or Attribute of the method's name, or a string
    equal to it (``bench/tracing.py`` patches methods by name), anywhere.
    """
    read = _read_names_and_strings(reading)
    return sorted(
        "%s.%s" % (cls.name, node.name)
        for source in defining for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_") and node.name not in read
    )


def test_every_public_method_in_src_is_read_outside_the_tests():
    unread = unread_methods([p.read_text() for p in MODULES], [p.read_text() for p in READERS])
    assert unread == sorted(TEST_ONLY_METHODS_KEEP), (
        "only the tests read %s; now read elsewhere, drop from the keep-list: %s"
        % (sorted(set(unread) - TEST_ONLY_METHODS_KEEP),
           sorted(TEST_ONLY_METHODS_KEEP - set(unread)))
    )


def test_unread_methods_finds_what_only_the_tests_read():
    defining = [
        "class Family:\n    def key_steps(self):\n        pass\n"
        "    def key_maps(self):\n        pass\n    def _private(self):\n        pass\n"
        "    @property\n    def depth(self):\n        pass\n"
        "    def patched(self):\n        pass\n"
        "def key_maps():\n    pass\n",
    ]
    reading = ["family.key_steps(keys)\nx = family.depth\npatch(Family, 'patched')\n"]
    assert unread_methods(defining, reading) == ["Family.key_maps"]


FIELD_READERS = READERS + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("tools/*.py"))


def _is_dataclass(cls):
    decorators = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any("dataclass" in (getattr(d, "id", None), getattr(d, "attr", None)) for d in decorators)


def unread_fields(defining, reading):
    """"Class.field" for each field of a dataclass in defining that nothing in reading reads.

    A read is a loaded Name or Attribute of the field's name, or a string
    equal to it, anywhere, as for methods.
    """
    read = _read_names_and_strings(reading)
    return sorted(
        "%s.%s" % (cls.name, node.target.id)
        for source in defining for cls in ast.parse(source).body
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
        and node.target.id not in read
    )


def test_every_dataclass_field_in_src_is_read():
    unread = unread_fields([p.read_text() for p in MODULES], [p.read_text() for p in FIELD_READERS])
    assert not unread, "nothing reads the dataclass fields %s" % unread


def test_unread_fields_finds_fields_nothing_reads():
    defining = [
        "@dataclass(frozen=True)\nclass Result:\n    end: tuple\n    tail: tuple\n"
        "    steps: int = 0\n    named: int = 1\n"
        "@dataclasses.dataclass\nclass Other:\n    lost: float\n"
        "class Plain:\n    hint: int\n",
    ]
    reading = ["r = f()\nx = r.end + r.steps\ngetattr(r, 'named')\n"]
    assert unread_fields(defining, reading) == ["Other.lost", "Result.tail"]


def _lookup_classes(expr, assigned):
    """The class names expr may evaluate to, through local names and conditionals; None if unknown."""
    if isinstance(expr, ast.Name):
        if expr.id in assigned:
            return _lookup_classes(assigned[expr.id], {})
        return {expr.id}
    if isinstance(expr, ast.IfExp):
        return _lookup_classes(expr.body, assigned) | _lookup_classes(expr.orelse, assigned)
    return {None}


def _own_nodes(scope):
    """The nodes inside a module or function, not descending into nested functions."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unwindowed_sequences(source):
    """Lines of the ``BaseSequence(...)`` calls whose lookup may lack a ``window`` method."""
    tree = ast.parse(source)
    windowed = {
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "window" for f in node.body)
    }
    lines = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.Lambda)):
            continue
        nodes = list(_own_nodes(scope))
        assigned = {
            node.targets[0].id: node.value for node in nodes
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        for call in nodes:
            if not isinstance(call, ast.Call):
                continue
            if "BaseSequence" not in (getattr(call.func, "id", None), getattr(call.func, "attr", None)):
                continue
            args = call.args[1:2] + [k.value for k in call.keywords if k.arg == "lookup"]
            lookup = args[0] if args else None
            if isinstance(lookup, ast.Attribute) and lookup.attr == "_lookup":
                continue
            if not (isinstance(lookup, ast.Call) and _lookup_classes(lookup.func, assigned) <= windowed):
                lines.append(call.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_src_sequences_have_window_lookups(path):
    lines = unwindowed_sequences(path.read_text())
    assert not lines, "%s: BaseSequence lookups without a window at lines %s" % (path.name, lines)


def test_unwindowed_sequences_finds_lambdas_and_closures():
    source = (
        "class _Tape:\n    def __call__(self, j):\n        return 0\n"
        "    def window(self, start, stop):\n        return []\n"
        "class _Scalar:\n    def __call__(self, j):\n        return 0\n"
        "def ok(space, x, fresh):\n"
        "    tape = _Tape if fresh else _Tape\n"
        "    BaseSequence(space, tape())\n"
        "    BaseSequence(space, lookup=_Tape())\n"
        "    return BaseSequence(space, x._lookup, 1)\n"
        "def bad(space, x, fresh):\n"
        "    def look(j):\n        return x.symbol(j)\n"
        "    mixed = _Tape if fresh else _Scalar\n"
        "    BaseSequence(space, lambda j: 0)\n"
        "    BaseSequence(space, look)\n"
        "    BaseSequence(space, _Scalar())\n"
        "    BaseSequence(space, mixed())\n"
        "    BaseSequence(space, lookup=look)\n"
        "    sl.BaseSequence(space, look)\n"
        "    return BaseSequence(space)\n"
    )
    assert unwindowed_sequences(source) == [18, 19, 20, 21, 22, 23, 24]
