"""Fixed rules of the library source, checked on its syntax trees.

The package imports only the standard library and itself, never touches a
float (every answer rests on exact signs and integrality), and raises
``InternalInvariantError`` rather than using ``assert``, which ``python -O``
strips.  A value keeps what it derives in a ``functools.cached_property``,
never in a hand-written ``__dict__`` memo.  Only ``rationals`` decides what an
exact integer is (an ``int`` but not a ``bool``): no other module tests for
``int`` with ``isinstance``.  Every public name has a user outside the tests.
"""

import ast
import re
import sys
from pathlib import Path

import nasharc

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nasharc").glob("*.py"))


def _nodes(kind):
    """(file:line, node) for every node of ``kind`` in the package source."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, kind):
                yield f"{path.name}:{node.lineno}", node


def test_imports_only_the_standard_library_or_the_package():
    assert len(SOURCES) >= 10
    outside = []
    for where, node in _nodes((ast.Import, ast.ImportFrom)):
        if isinstance(node, ast.ImportFrom):
            roots = [] if node.level else [node.module.split(".")[0]]
        else:
            roots = [alias.name.split(".")[0] for alias in node.names]
        outside += [f"{where} {root}" for root in roots if root not in sys.stdlib_module_names]
    assert outside == []


def test_no_float_literal_or_float_name():
    literals = [where for where, node in _nodes(ast.Constant) if isinstance(node.value, float)]
    names = [where for where, node in _nodes(ast.Name) if node.id == "float"]
    assert literals == [] and names == []


def test_no_assert_statement():
    assert [where for where, _ in _nodes(ast.Assert)] == []


def test_no_dict_attribute_access():
    assert [where for where, node in _nodes(ast.Attribute) if node.attr == "__dict__"] == []


def test_only_rationals_tests_for_int_with_isinstance():
    """``rationals.is_exact_int`` and ``exact_rational`` are the one rule.  Exact-type
    tests such as ``type(v) is int``, the hot paths' fast exits, stay allowed."""

    def names_int(arg):
        return any(isinstance(e, ast.Name) and e.id == "int" for e in getattr(arg, "elts", [arg]))

    sites = [
        where
        for where, node in _nodes(ast.Call)
        if isinstance(node.func, ast.Name) and node.func.id == "isinstance"
        and len(node.args) == 2 and names_int(node.args[1])
        and not where.startswith("rationals.py:")
    ]
    assert sites == []


def _names_read(path):
    """The identifiers a file reads: loaded names, attributes and imports (words, in prose)."""
    text = path.read_text(encoding="utf-8")
    if path.suffix != ".py":
        return set(re.findall(r"\w+", text))
    names = set()
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Attribute, ast.alias)):
            names.add(node.attr if isinstance(node, ast.Attribute) else node.name)
    return names


def test_every_public_name_is_used_outside_the_tests():
    """Each name in ``nasharc.__all__`` is read by the library, a demo, the README or
    the benchmark; a name only tests read is test code and lives under ``tests/``."""
    users = [*SOURCES, *(ROOT / "demos").glob("*.py"), ROOT / "README.md", *(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*(_names_read(path) for path in users if path.name != "__init__.py"))
    assert sorted(set(nasharc.__all__) - read) == []
