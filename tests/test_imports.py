"""Every name a package module imports is used in that module, every
function, class and method the package defines is referenced from it,
every field a package class keeps is read in it, no value is changed
after its ``__init__``, every enum derives from quantity's enum base, no
class spells out the default ``_key``, the parser leaves letter case to
the lexicon, schema instantiation imports nothing from the solver, and
the CLI starts without the standard library's slow-loading modules."""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schemarith"


def exported_names(node):
    """The names an ``__all__ = [...]`` assignment lists, else none."""
    if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
        return ast.literal_eval(node.value)
    return ()


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
        else:
            used.update(exported_names(node))
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


def unreferenced_definitions(sources):
    """(module, line, name) of each function, class or method defined in
    `sources` (module name -> source) whose name no module reads, as a
    name or an attribute, or lists in ``__all__``.  Dunder methods are
    exempt.  Matching is by name alone: a method counts as referenced when
    any attribute of that name is read, and a function that calls itself
    references itself."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            else:
                referenced.update(exported_names(node))
    return sorted((module, line, name) for module, line, name in defined
                  if name not in referenced
                  and not (name.startswith("__") and name.endswith("__")))


#: Functions kept for the tests alone: parse one clause, find one corpus problem.
TEST_SEAMS = {"parse_clause", "by_id"}


def test_every_definition_is_reached_from_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert {name for _, _, name in unreferenced_definitions(sources)} == TEST_SEAMS


def test_definition_gate_sees_unreferenced_functions_classes_and_methods():
    sources = {
        "a.py": ("def used(): pass\n"
                 "def unused(): pass\n"
                 "class K:\n"
                 "    def __repr__(self): pass\n"
                 "    def method(self): pass\n"
                 "    def called(self):\n"
                 "        def inner(): pass\n"
                 "used()\n"),
        "b.py": ("from . import a\n"
                 "__all__ = ['exported']\n"
                 "def exported(): pass\n"
                 "class Unused: pass\n"
                 "a.K().called()\n"),
    }
    assert unreferenced_definitions(sources) == [
        ("a.py", 2, "unused"), ("a.py", 5, "method"), ("a.py", 7, "inner"),
        ("b.py", 4, "Unused")]


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def class_fields(node, declarations):
    """(line, name) of each field of a class: the names its literal
    ``__slots__`` lists and each ``self.<name>`` its ``__init__`` assigns.
    The ``__slots__`` value joins `declarations`, the nodes whose strings
    declare fields rather than read them."""
    found = {}
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
            declarations.update(map(id, ast.walk(item.value)))
            for name in ast.literal_eval(item.value):
                found.setdefault(name, item.lineno)
        elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for sub in ast.walk(item):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                    found.setdefault(sub.attr, sub.lineno)
    return sorted((line, name) for name, line in found.items())


def unread_fields(sources):
    """(module, line, "Class.field") for each field of a class defined in
    `sources` (module name -> source) whose name no module reads as an
    attribute or names in a dotted string, such as an ``attrgetter`` path.

    Matching is by name alone, so a read of the same name on any object
    hides a dead field: ``Word.text`` would hide a ``text`` field that
    another class keeps and nothing reads.  test_field_reads.py watches
    the fields themselves while the package runs."""
    fields, read, declarations = [], set(), set()
    # every tree stays alive to the end, so no node reuses a declaration's id
    trees = {module: ast.parse(source) for module, source in sources.items()}
    for module, tree in trees.items():
        for node in ast.walk(tree):   # a class before its body
            if isinstance(node, ast.ClassDef):
                fields.extend((module, line, f"{node.name}.{name}")
                              for line, name in class_fields(node, declarations))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and id(node) not in declarations and DOTTED.fullmatch(node.value)):
                read.update(node.value.split("."))
    return sorted((module, line, field) for module, line, field in fields
                  if field.split(".")[1] not in read)


#: Fields kept for the tests and the benchmark alone: the propagation work
#: count of the linearity gate, and the flag that picks the corpus problems
#: whose sentences may be transposed.
TEST_FIELDS = {"SolveResult.visits", "CorpusProblem.pronoun_free"}


def test_every_field_is_read_from_the_package():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    assert {field for _, _, field in unread_fields(sources)} == TEST_FIELDS


def test_field_gate_sees_slots_and_init_fields_nothing_reads():
    sources = {
        "a.py": ("from operator import attrgetter\n"
                 "class V:\n"
                 "    __slots__ = ('x', 'y', 'z', 'owner')\n"
                 "    key = attrgetter('x', 'owner.name')\n"
                 "class R:\n"
                 "    def __init__(self, a, b, c):\n"
                 "        self.a = a\n"
                 "        self.b, self.c = b, c\n"
                 "    def method(self):\n"
                 "        self.d = 1\n"
                 "        return self.a\n"),
        "b.py": ("def f(v, r):\n"
                 "    v.z = r.c\n"
                 "    return getattr(v, 'y'), 'unread b'\n"),
    }
    assert unread_fields(sources) == [("a.py", 3, "V.z"), ("a.py", 8, "R.b")]


SETTERS = {"__setattr__", "__delattr__", "__set__", "__delete__"}


def attrgetter_names(call, slots):
    """The names an ``attrgetter(...)`` call in a class body gets, reading
    ``*__slots__`` and ``*__slots__[i:j]`` from the class's literal
    `slots`; None when the call is of another function or its names are
    not literal."""
    if getattr(call.func, "attr", getattr(call.func, "id", None)) != "attrgetter":
        return None
    names = []
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            starred, bounds = arg.value, (None, None)
            if isinstance(starred, ast.Subscript) and isinstance(starred.slice, ast.Slice):
                bounds = [bound and ast.literal_eval(bound)
                          for bound in (starred.slice.lower, starred.slice.upper)]
                starred = starred.value
            if not (isinstance(starred, ast.Name) and starred.id == "__slots__"):
                return None
            names.extend(slots[slice(*bounds)])
        elif isinstance(arg, ast.Constant):
            names.append(arg.value)
        else:
            return None
    return tuple(names)


def default_keys(tree):
    """(line, what) for each class whose ``_key = attrgetter(...)`` gets
    exactly its own ``__slots__``, in order: the key _Frozen gives it."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        slots, key = None, None
        for item in node.body:
            if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name):
                if item.targets[0].id == "__slots__":
                    try:
                        slots = tuple(ast.literal_eval(item.value))
                    except ValueError:
                        pass
                elif item.targets[0].id == "_key" and isinstance(item.value, ast.Call):
                    key = item
        if slots and key is not None and attrgetter_names(key.value, slots) == slots:
            found.append((key.lineno, f"{node.name}._key"))
    return found


def value_layer_breaches(source):
    """(line, what) for each read of a ``__setattr__`` or ``__set__``
    attribute, whether written out or named to getattr, each class based
    directly on one of the standard library's enum types, and each
    ``_key`` that spells out the default of getting every own field."""
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
    return sorted(breaches + default_keys(tree))


def test_only_quantity_sets_fields_directly_or_subclasses_enum():
    """No module reaches past plain attribute stores, through
    ``object.__setattr__`` or a slot descriptor's ``__set__``, to assign or
    delete a field.  No class derives from a standard-library enum: every
    package enum derives from quantity._Enum, which hashes its members by
    identity and imports no ``enum``.  No class spells out the ``_key``
    that _Frozen gives a class naming none."""
    found = {path.name: [what for _, what in value_layer_breaches(
                 path.read_text(encoding="utf-8"))]
             for path in PACKAGE.glob("*.py")}
    assert {name: what for name, what in found.items() if what} == {}


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
              "getattr(object, '__setattr__')\n"
              "object.__delattr__(D, 'x')\n"
              "D.__dict__['x'].__delete__(D)\n")
    assert value_layer_breaches(source) == [
        (4, "A"), (5, "B"), (6, "C"), (8, "object.__setattr__"),
        (9, "D.__dict__['x'].__set__"), (10, "getattr(D.x, '__set__')"),
        (11, "super(D, D).__setattr__"), (12, "getattr(object, '__setattr__')"),
        (13, "object.__delattr__"), (14, "D.__dict__['x'].__delete__")]


def scoped(node, cls=None, func=None):
    """Each node under `node` with its innermost enclosing class and
    function, either None."""
    for child in ast.iter_child_nodes(node):
        yield child, cls, func
        if isinstance(child, ast.ClassDef):
            yield from scoped(child, child, None)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from scoped(child, cls, child)
        else:
            yield from scoped(child, cls, func)


def frozen_classes(trees):
    """The class nodes of `trees` based on ``_Frozen``, at any depth."""
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    frozen, names = [], {"_Frozen"}
    while True:
        grown = [node for node in classes if node not in frozen and any(
            isinstance(base, ast.Name) and base.id in names for base in node.bases)]
        if not grown:
            return frozen
        frozen += grown
        names.update(node.name for node in grown)


def declared_fields(node):
    """The fields a class declares: the names its literal ``__slots__``
    lists, or, in a class without them, each ``self.<name>`` its
    ``__init__`` assigns."""
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets):
            return set(ast.literal_eval(item.value))
    return {name for _, name in class_fields(node, set())}


def field_store_breaches(sources):
    """(module, line, what) for each store or deletion of an attribute that
    could change a frozen value after its ``__init__``, in `sources`
    (module name -> source): a store or deletion, in any statement or
    target form, of an attribute named as a field of a ``_Frozen``
    subclass, unless it is a ``self.<field>`` store in the ``__init__`` of
    a class that declares that field; any store on ``self`` in a
    ``_Frozen`` subclass outside its ``__init__``; and each call of
    ``setattr`` or ``delattr``.  Fields are matched by name, as
    unread_fields matches them; value_layer_breaches refuses the reads of
    ``__setattr__``, ``__delattr__``, ``__set__`` and ``__delete__``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    frozen = frozen_classes(trees.values())
    fields = set().union(*map(declared_fields, frozen))
    breaches = []
    for module, tree in trees.items():
        for node, cls, func in scoped(tree):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                in_init = cls is not None and func in cls.body and func.name == "__init__"
                own_field = (on_self and in_init and isinstance(node.ctx, ast.Store)
                             and node.attr in declared_fields(cls))
                if (node.attr in fields and not own_field) or (
                        on_self and cls in frozen and not in_init):
                    breaches.append((module, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", getattr(
                    node.func, "attr", None)) in ("setattr", "delattr"):
                breaches.append((module, node.lineno, ast.unparse(node.func)))
    return sorted(breaches)


def test_no_module_changes_a_value_after_its_init():
    """A frozen value is immutable by contract, not by a runtime refusal:
    the package assigns each field once, in its class's ``__init__``.  The
    one ``setattr`` is the enum metaclass's, which stores each member on
    its class as the class is made."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE.glob("*.py")}
    [(module, line, what)] = field_store_breaches(sources)
    source = sources[module].splitlines()
    assert (module, what, source[line - 1].strip()) == (
        "quantity.py", "setattr", "setattr(cls, key, member)")
    start = source.index("class _EnumType(type):")
    assert start < line - 1 < source.index("class _Enum(metaclass=_EnumType):")


def test_field_store_gate_sees_stores_deletions_and_setattr():
    sources = {
        "a.py": ("from .quantity import _Frozen\n"
                 "class V(_Frozen):\n"
                 "    __slots__ = ('kind', 'value')\n"
                 "    def __init__(self, kind, value):\n"
                 "        self.kind = kind\n"
                 "        self.value = value\n"
                 "    def reset(self, x):\n"
                 "        self.kind = x\n"
                 "class N(V):\n"
                 "    __slots__ = ('name',)\n"
                 "    def __init__(self, name):\n"
                 "        super().__init__('n', 0)\n"
                 "        self.name = name\n"
                 "        self.kind = 'other'\n"
                 "    def later(self):\n"
                 "        self.cache = 1\n"),
        "b.py": ("class Record:\n"
                 "    def __init__(self, kind):\n"
                 "        self.kind = kind\n"
                 "        self.count = 0\n"
                 "    def grow(self):\n"
                 "        self.count += 1\n"
                 "def f(obj, x, a):\n"
                 "    obj.kind = x\n"
                 "    del obj.kind\n"
                 "    obj.value += 1\n"
                 "    a, obj.name = 1, 2\n"
                 "    setattr(obj, 'kind', x)\n"
                 "    builtins.delattr(obj, 'kind')\n"
                 "    obj.count = 2\n"),
    }
    assert field_store_breaches(sources) == [
        ("a.py", 8, "self.kind"), ("a.py", 14, "self.kind"), ("a.py", 16, "self.cache"),
        ("b.py", 8, "obj.kind"), ("b.py", 9, "obj.kind"), ("b.py", 10, "obj.value"),
        ("b.py", 11, "obj.name"), ("b.py", 12, "setattr"),
        ("b.py", 13, "builtins.delattr")]


def test_value_layer_gate_sees_a_key_that_repeats_the_slots():
    source = ("import operator\n"
              "from operator import attrgetter\n"
              "class A:\n"
              "    __slots__ = ('x', 'y')\n"
              "    _key = attrgetter(*__slots__)\n"
              "class B:\n"
              "    __slots__ = ('x', 'y')\n"
              "    _key = operator.attrgetter('x', 'y')\n"
              "class C:\n"
              "    __slots__ = ('x',)\n"
              "    _key = attrgetter('x')\n"
              "class D:\n"
              "    __slots__ = ('x', 'y', 'z')\n"
              "    _key = attrgetter(*__slots__[:3])\n"
              "class Skips:\n"
              "    __slots__ = ('x', 'y', 'z')\n"
              "    _key = attrgetter(*__slots__[:2])\n"
              "class Reorders:\n"
              "    __slots__ = ('x', 'y')\n"
              "    _key = attrgetter('y', 'x')\n"
              "class Nested:\n"
              "    __slots__ = ('owner',)\n"
              "    _key = attrgetter('owner.name')\n"
              "class Named:\n"
              "    __slots__ = ('x',)\n"
              "    _key = attrgetter(*FIELDS)\n"
              "class Default:\n"
              "    __slots__ = ('x', 'y')\n")
    assert value_layer_breaches(source) == [
        (5, "A._key"), (8, "B._key"), (11, "C._key"), (14, "D._key")]


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


def imported_modules(source):
    """The module and name of every import in the source, dotted names split."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def test_schema_instantiation_imports_nothing_from_the_solver():
    # an LSI entry carries its own equation, so building the LSI needs no solver
    source = (PACKAGE / "schema_engine.py").read_text(encoding="utf-8")
    assert "solver" not in imported_modules(source)
    assert "solver" in imported_modules("from .solver import propagate\n")
    assert "solver" in imported_modules("from . import solver\n")
    assert "solver" in imported_modules("import schemarith.solver\n")


#: Standard-library modules that a one-problem command does not need.  The
#: first five cost a millisecond or more each to import; enum and re also
#: build classes and compile patterns as they load, and bring functools and
#: collections; heapq brings its C extension.
SLOW_MODULES = {"dataclasses", "inspect", "argparse", "gettext", "json",
                "enum", "re", "heapq", "functools", "collections", "__future__"}


#: Package modules that a `solve` command does not need: the corpus loads
#: only for the `corpus` command or a read of ``schemarith.CORPUS``.
UNUSED_BY_SOLVE = {"schemarith.corpus"}


def test_cli_import_loads_neither_dataclasses_nor_inspect(tmp_path):
    # -S: no site hooks run, so every module loaded came from this import,
    # or from the text-format command that the second child runs.
    problem = tmp_path / "problem.txt"
    problem.write_text("Tom had 3 apples. Tom got 2 apples. "
                       "How many apples does Tom have now?", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    solve = f"schemarith.cli.main(['solve', {str(problem)!r}])"
    unused = SLOW_MODULES | UNUSED_BY_SOLVE
    for run, expected in [("pass", "[]"), (solve, "Answer: 5\n[]")]:
        code = (f"import sys, schemarith.cli; {run}; "
                f"print(sorted({unused!r} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        assert out.stdout.strip() == expected


def test_the_package_loads_the_corpus_on_first_use():
    """``schemarith.CORPUS`` and ``CorpusProblem`` read as before, from the
    corpus module, which loads when one is first read."""
    code = ("import sys, schemarith\n"
            "assert 'schemarith.corpus' not in sys.modules\n"
            "from schemarith import CORPUS, CorpusProblem\n"
            "import schemarith.corpus as corpus\n"
            "assert CORPUS is corpus.CORPUS and CorpusProblem is corpus.CorpusProblem\n"
            "assert all(isinstance(p, CorpusProblem) for p in CORPUS)\n"
            "namespace = {}\n"
            "exec('from schemarith import *', namespace)\n"
            "assert set(schemarith.__all__) <= set(namespace)\n"
            "try:\n"
            "    schemarith.missing\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
            "print(len(CORPUS), sorted(schemarith.__all__)[:2])\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == ("module 'schemarith' has no attribute 'missing'\n"
                          "12 ['CORPUS', 'Contradiction']\n")
