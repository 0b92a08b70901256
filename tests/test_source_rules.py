"""Fixed rules of the library source, checked on its syntax trees.

The package imports only the standard library and itself, never touches a
float (every answer rests on exact signs and integrality), and raises
``InternalInvariantError`` rather than using ``assert``, which ``python -O``
strips.  A value keeps what it derives in a ``functools.cached_property``,
never in a hand-written ``__dict__`` memo.  Only ``rationals`` decides what an
exact integer is (an ``int`` but not a ``bool``): no other module tests for
``int`` with ``isinstance``.  Only ``clusters`` names the chart kinds.  Every
public name has a user outside the tests, and the public names are exactly
those the package's import block binds.  Every input limit is in the README.
The command line reads an integer with ``cli.integer`` alone: argparse is never
handed a builtin number type.
"""

import ast
import re
import sys
from pathlib import Path
from types import ModuleType

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


def test_only_clusters_names_the_chart_kinds():
    """The chart conventions live in ``clusters``: no other module spells a chart kind."""
    kinds = {"root", "free", "free_inf", "sat_x", "sat_y"}
    sites = [
        where
        for where, node in _nodes(ast.Constant)
        if node.value in kinds and not where.startswith("clusters.py:")
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


def test_every_input_limit_is_documented():
    """Each module-level ``MAX_*`` constant bounds what an input may ask for; the README
    names it, so a refusal it causes can be looked up."""
    limits = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            limits.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.startswith("MAX_"))
    assert len(limits) >= 8
    assert sorted(limits - _names_read(ROOT / "README.md")) == []


def test_every_public_name_is_used_outside_the_tests():
    """Each name in ``nasharc.__all__`` is read by the library, a demo, the README or
    the benchmark; a name only tests read is test code and lives under ``tests/``."""
    users = [*SOURCES, *(ROOT / "demos").glob("*.py"), ROOT / "README.md", *(ROOT / "perfbench").rglob("*.py")]
    read = set().union(*(_names_read(path) for path in users if path.name != "__init__.py"))
    assert sorted(set(nasharc.__all__) - read) == []


def test_the_public_names_are_the_import_block():
    """``__all__`` is computed from the names ``nasharc/__init__.py`` imports: sorted,
    without repeats, with no module and no private name, each defined in the package (a
    helper such as ``types.ModuleType`` is imported under a private alias), and
    ``import *`` binds exactly it."""
    names = nasharc.__all__
    assert names == sorted(set(names))
    assert [n for n in names if n.startswith("_") or isinstance(getattr(nasharc, n), ModuleType)] == []
    assert [n for n in names if not getattr(nasharc, n).__module__.startswith("nasharc.")] == []
    star = {}
    exec("from nasharc import *", star)
    assert sorted(set(star) - {"__builtins__"}) == names


def test_digits_are_read_as_ascii_0_to_9():
    """A regex ``\\d`` and ``str.isdecimal``/``isdigit``/``isnumeric`` take every Unicode
    decimal digit, so ``٣`` would read as 3; the text grammars spell ``[0-9]``."""
    readers = {"compile", "search", "match", "fullmatch", "findall", "finditer", "sub", "subn", "split"}
    regexes = [
        where
        for where, node in _nodes(ast.Call)
        if isinstance(node.func, ast.Attribute) and node.func.attr in readers
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
        and node.args and isinstance(node.args[0], ast.Constant) and "\\d" in str(node.args[0].value)
    ]
    tests = [where for where, node in _nodes(ast.Attribute) if node.attr in ("isdecimal", "isdigit", "isnumeric")]
    assert regexes + tests == []


def test_argparse_is_handed_no_builtin_number_type():
    """``type=int`` reads ``1_0`` and every Unicode decimal digit, and ``float`` is not
    exact; an argument's type is ``cli.integer``, which reads ``[0-9]`` runs."""
    sites = [
        where
        for where, node in _nodes(ast.keyword)
        if node.arg == "type" and isinstance(node.value, ast.Name) and node.value.id in ("int", "float")
    ]
    assert sites == []
