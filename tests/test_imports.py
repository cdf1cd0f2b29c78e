"""Every name a package module imports is used in that module, the value
types are built through the setter tables and enum base in quantity.py, the
parser leaves letter case to the lexicon, and the CLI starts without the
standard library's slow-loading modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schemarith"


def unused_imports(source):
    """Imported names that the module neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_gate_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os, re as regex\n"
              "from .x import a, b\n"
              "__all__ = ['b']\n"
              "print(regex)\n")
    assert unused_imports(source) == [(2, "os"), (3, "a")]


SETTERS = {"__setattr__", "__set__"}


def value_layer_breaches(source):
    """(line, what) for each read of a ``__setattr__`` or ``__set__``
    attribute, whether written out or named to getattr, and each class
    based directly on one of the standard library's enum types."""
    tree = ast.parse(source)
    stdlib_enum = set()   # local names of the enum module and its members
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "enum":
            stdlib_enum.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            stdlib_enum.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "enum")
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SETTERS:
            breaches.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "getattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in SETTERS):
            breaches.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                root = base.value if isinstance(base, ast.Attribute) else base
                if isinstance(root, ast.Name) and root.id in stdlib_enum:
                    breaches.append((node.lineno, node.name))
    return sorted(breaches)


def test_only_quantity_sets_fields_directly_or_subclasses_enum():
    """Frozen fields are set through the setter tables that quantity._Frozen
    builds from each class's slot descriptors, the one read of ``__set__``;
    nothing calls ``object.__setattr__`` past the ``__setattr__`` that
    refuses assignment.  Every package enum derives from quantity._Enum,
    which hashes its members by identity."""
    found = {path.name: [what for _, what in value_layer_breaches(
                 path.read_text(encoding="utf-8"))]
             for path in PACKAGE.glob("*.py")}
    assert {name: what for name, what in found.items() if what} == \
        {"quantity.py": ["_Enum", "own[name].__set__"]}


def test_value_layer_gate_sees_setattr_and_enum_bases():
    source = ("import enum\n"
              "from enum import Enum as E, IntEnum\n"
              "from .quantity import _Enum\n"
              "class A(E): pass\n"
              "class B(enum.Flag): pass\n"
              "class C(IntEnum): pass\n"
              "class D(_Enum): pass\n"
              "object.__setattr__(D, 'x', 1)\n"
              "D.__dict__['x'].__set__(D, 1)\n"
              "getattr(D.x, '__set__')(D, 1)\n"
              "super(D, D).__setattr__('x', 1)\n"
              "getattr(object, '__setattr__')\n")
    assert value_layer_breaches(source) == [
        (4, "A"), (5, "B"), (6, "C"), (8, "object.__setattr__"),
        (9, "D.__dict__['x'].__set__"), (10, "getattr(D.x, '__set__')"),
        (11, "super(D, D).__setattr__"), (12, "getattr(object, '__setattr__')")]


CASE_METHODS = {"lower", "upper", "isupper", "title", "capitalize"}
RETIRED_ACCESSORS = {"peek_lower", "peek_word", "take_word", "_is_proper"}


def case_rule_breaches(source):
    """(line, name) for each case method the source calls and each retired
    token accessor its _ClauseParser defines."""
    breaches = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in CASE_METHODS):
            breaches.append((node.lineno, node.func.attr))
        elif isinstance(node, ast.ClassDef) and node.name == "_ClauseParser":
            breaches.extend((item.lineno, item.name) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name in RETIRED_ACCESSORS)
    return sorted(breaches)


def test_the_case_rule_lives_in_the_lexicon_only():
    """The parser reads a token through its Word, whose text and classes
    the lexicon has already cased."""
    assert case_rule_breaches((PACKAGE / "parser.py").read_text(encoding="utf-8")) == []


def test_case_rule_gate_sees_case_calls_and_retired_accessors():
    source = ("def f(tok):\n"
              "    return tok.lower(), tok[:1].isupper(), tok.lower\n"
              "class _ClauseParser:\n"
              "    def peek(self): pass\n"
              "    def peek_word(self): pass\n"
              "    def _is_proper(self): return 'x'.title()\n")
    assert case_rule_breaches(source) == [
        (2, "isupper"), (2, "lower"), (5, "peek_word"), (6, "_is_proper"), (6, "title")]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S: no site hooks run, so every module loaded came from this import.
    code = ("import sys, schemarith.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
