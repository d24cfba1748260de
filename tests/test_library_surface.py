"""Every definition and every option of the library has a caller outside
the tests.

A module-level function or class, or a public method, that only tests reach
is dead weight in ``src/opalg``: it belongs in the tests that use it, or
nowhere.  A definition counts as used when it is referenced in ``src/opalg``
outside its own body, or anywhere in ``demos/`` or ``perfbench/``.
References are read from the syntax trees: names, attribute accesses, and
string constants (the benchmark's tracer binds functions by name).  An
attribute or a string counts for every definition of that name.  A bare
name counts for the module-level definition ``mod.f`` only in ``mod``
itself, or in a file that imports ``f`` from ``mod`` or from ``opalg``, so a
same-named function of the benchmark keeps no library function alive.
Docstrings, imports and ``__all__`` are not references, so neither a mention
nor a re-export keeps a definition alive.

A defaulted parameter of a public function, a public method or the
constructor of a public class is an option.  An option that every caller
leaves at one value is a constant in disguise.  Each must be set, by keyword
or by position, by a call in ``src/opalg`` outside its own function, in
``demos/`` or in ``perfbench/``, with at least two distinct values in use
among those calls.  A call that relies on the default counts as the
default's value, a literal argument as the value it spells, and any other
argument, such as a forwarded variable, as a value of its own.  Calls are
matched like references.  Private functions are exempt: their defaults are
recursion state and closure binds.

Every parameter of a library function or method, nested ones included, is
read in its body; ``self``, ``cls``, ``*args``, ``**kwargs`` and lambdas are
exempt.  A parameter no path reads is an input the function ignores while
its callers and its docstring say otherwise.

Every name a library module imports is read by its code.  The package's
``__init__`` re-exports, names listed in a module's ``__all__`` and
``from __future__`` imports are exempt.  An import that nothing reads is
left over from code that moved or went.
"""

import ast
import os
from collections import defaultdict, namedtuple

import opalg

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "opalg")
USERS = (os.path.join(ROOT, "demos"), os.path.join(ROOT, "perfbench"))
PACKAGE = "opalg"

# definitions kept without a caller, one reason each
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
}

# options kept with fewer than two values in use, one reason each
ALLOWED_PARAMETERS = {
    "rewrite.normal_form(monitor=)":
        "termination monitor of the order, and a test oracle",
    "solve.sample_points(strict=)":
        "every caller passes False, and the benchmark's classify workload, "
        "one of them, keeps its call as it is",
}

# a parsed file: its library module name (None outside the library), its
# syntax tree, and its imports of library names
Source = namedtuple("Source", "module tree imports")


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


def load():
    """(library module -> syntax tree, syntax trees of the users)."""
    library = {}
    for path in _python_files(LIBRARY):
        module = os.path.splitext(os.path.relpath(path, LIBRARY))[0]
        library[module] = _parse(path)
    users = [_parse(path) for top in USERS for path in _python_files(top)]
    return library, users


def _docstrings(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def _is_all(node):
    return (isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets))


def imports(tree):
    """Local name -> (module, name) of every library name that ``tree``
    imports with ``from ... import``; the module is ``opalg`` for the
    package itself."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or PACKAGE
        elif node.module and node.module.partition(".")[0] == PACKAGE:
            source = node.module.partition(".")[2] or PACKAGE
        else:
            continue
        for alias in node.names:
            out[alias.asname or alias.name] = (source, alias.name)
    return out


def _sources(library, users):
    return ([Source(m, t, imports(t)) for m, t in library.items()]
            + [Source(None, t, imports(t)) for t in users])


def _resolve(source, kind, name):
    """(defined name, module it is imported from or None) of a reference."""
    if kind == "name" and name in source.imports:
        module, name = source.imports[name]
        return name, module
    return name, None


def _denotes(source, kind, origin, module, method):
    """Does a reference of ``kind``, resolved to ``origin``, in ``source``
    denote a definition of ``module`` with the same name?"""
    if kind != "name":
        return True
    if origin is None:
        return source.module == module
    return not method and origin in (module, PACKAGE)


def references(tree):
    """(kind, name, line) of every reference in ``tree``; the kind is
    ``name``, ``attr`` or ``str``."""
    skip = _docstrings(tree)
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name):
            out.append(("name", node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append(("attr", node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            out.append(("str", node.value, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return out


def definitions(module, tree):
    """(qualified name, bare name, first line, last line, is a method) of
    every module-level function and class and every public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name, node.lineno,
                        node.end_lineno, False))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    out.append((f"{module}.{node.name}.{item.name}", item.name,
                                item.lineno, item.end_lineno, True))
    return out


def unreferenced(library=None, users=None):
    """Qualified names of the definitions nothing outside the tests
    references."""
    if library is None:
        library, users = load()
    index = defaultdict(list)
    for source in _sources(library, users):
        for kind, name, line in references(source.tree):
            name, origin = _resolve(source, kind, name)
            index[name].append((source, kind, origin, line))
    missing = []
    for module, tree in library.items():
        for qualname, name, first, last, method in definitions(module, tree):
            if not any(_denotes(source, kind, origin, module, method)
                       and not (source.module == module
                                and first <= line <= last)
                       for source, kind, origin, line in index[name]):
                missing.append(qualname)
    return sorted(missing)


def _value(node):
    """A literal's source text; any other argument is a value of its own."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return node
    return ast.unparse(node)


def _options(function, skip_first):
    """(name, position or None, default's value) of every defaulted
    parameter of ``function``, positions counted as its callers see them."""
    args = function.args
    positional = args.posonlyargs + args.args
    if skip_first:
        positional = positional[1:]
    out = []
    first_default = len(positional) - len(args.defaults)
    for i, default in enumerate(args.defaults):
        out.append((positional[first_default + i].arg, first_default + i,
                    _value(default)))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            out.append((arg.arg, None, _value(default)))
    return out


def callables(module, tree):
    """(qualified name, bare name, first line, last line, is a method,
    options) of every public function, public method and constructor of a
    public class.  A constructor is named and called as its class."""
    out = []
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, ast.FunctionDef):
            out.append((f"{module}.{node.name}", node.name, node.lineno,
                        node.end_lineno, False, _options(node, False)))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                options = _options(item, not static)
                if item.name == "__init__":
                    out.append((f"{module}.{node.name}", node.name,
                                item.lineno, item.end_lineno, False, options))
                elif not item.name.startswith("_"):
                    out.append((f"{module}.{node.name}.{item.name}", item.name,
                                item.lineno, item.end_lineno, True, options))
    return out


def _argument(call, name, position, default):
    """The value ``call`` gives the parameter."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return _value(keyword.value)
    if position is not None:
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                return arg
            if i == position:
                return _value(arg)
    for keyword in call.keywords:
        if keyword.arg is None:
            return keyword
    return default


def unset_options(library=None, users=None):
    """``module.function(parameter=)`` of every option with fewer than two
    distinct values among its calls."""
    if library is None:
        library, users = load()
    index = defaultdict(list)
    for source in _sources(library, users):
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name, origin = _resolve(source, "name", node.func.id)
                index[name].append((source, "name", origin, node))
            elif isinstance(node.func, ast.Attribute):
                index[node.func.attr].append((source, "attr", None, node))
    unset = []
    for module, tree in library.items():
        for qualname, name, first, last, method, options in callables(module,
                                                                      tree):
            calls = [call for source, kind, origin, call in index[name]
                     if _denotes(source, kind, origin, module, method)
                     and not (source.module == module
                              and first <= call.lineno <= last)]
            for parameter, position, default in options:
                values = {_argument(call, parameter, position, default)
                          for call in calls}
                if len(values) < 2:
                    unset.append(f"{qualname}({parameter}=)")
    return sorted(unset)


def test_every_definition_has_a_caller_outside_the_tests():
    assert [q for q in unreferenced() if q not in ALLOWED] == []


def test_every_allowed_definition_still_lacks_a_caller():
    assert sorted(ALLOWED) == [q for q in unreferenced() if q in ALLOWED]


def test_every_option_takes_two_values_outside_the_tests():
    assert [q for q in unset_options() if q not in ALLOWED_PARAMETERS] == []


def test_every_allowed_option_still_takes_one_value():
    assert sorted(ALLOWED_PARAMETERS) == [q for q in unset_options()
                                          if q in ALLOWED_PARAMETERS]


def test_export_list_is_sorted_and_matches_the_package_imports():
    # a stale entry would only show up in ``from opalg import *``
    exported = opalg.__all__
    assert all(hasattr(opalg, name) for name in exported)
    assert exported == sorted(exported)
    init = _parse(os.path.join(LIBRARY, "__init__.py"))
    assert set(exported) == set(imports(init))


def _calls(source, name):
    """Each call of ``name`` in ``source``, by a bare name (imported names
    resolved) or an attribute."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            called = _resolve(source, "name", node.func.id)[0]
        else:
            called = getattr(node.func, "attr", None)
        if called == name:
            yield node


def calls_of(library, name, modules):
    """``module:line`` of each call of ``name`` in the library modules
    ``modules``."""
    return sorted(f"{source.module}:{node.lineno}"
                  for source in _sources(library, [])
                  if source.module in modules
                  for node in _calls(source, name))


def _owners_into(node, owner, out):
    """Map each node below ``node`` to the qualified name of the innermost
    function or class that holds it, ``owner`` outside any."""
    for child in ast.iter_child_nodes(node):
        name = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{owner}.{child.name}"
        out[id(child)] = name
        _owners_into(child, name, out)


def callers_of(library, name):
    """The library definitions that call ``name``, as ``calls_of`` finds
    calls, each as ``module.Class.function`` (``module`` for a call at
    module level)."""
    callers = set()
    for source in _sources(library, []):
        owners = {}
        _owners_into(source.tree, source.module, owners)
        callers.update(owners[id(node)] for node in _calls(source, name))
    return sorted(callers)


def definitions_of(library, name):
    """``module:line`` of each function or class named ``name``, at any
    level of a library module."""
    return sorted(f"{module}:{node.lineno}"
                  for module, tree in library.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name == name)


def readers_of(library, name):
    """The library definitions that read ``name``, by a bare name (imported
    names resolved) or an attribute, named as ``callers_of`` names them."""
    readers = set()
    for source in _sources(library, []):
        owners = {}
        _owners_into(source.tree, source.module, owners)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read = _resolve(source, "name", node.id)[0]
            elif isinstance(node, ast.Attribute):
                read = node.attr
            else:
                continue
            if read == name:
                readers.add(owners[id(node)])
    return sorted(readers)


def test_no_library_module_compares_words_pairwise():
    # the library orders words by ``order_key`` keys alone, and ``compare``
    # is kept for the benchmark's tracer and the tests' oracles: a library
    # call of it is how a second definition of an order would start
    library, _ = load()
    assert calls_of(library, "compare", set(library)) == []


def test_only_factored_normal_form_reads_the_memos_normal_forms():
    # the basis check and the ansatz extraction sum a polynomial's normal
    # form over its words by one helper: a second caller of ``strategy_nf``
    # is how a second sum, with its own rekeying, would start
    library, _ = load()
    assert callers_of(library, "strategy_nf") == [
        "rewrite.factored_normal_form"]


def test_only_the_rule_schema_reads_its_constraint_ideal():
    # a schema reduces coefficients modulo its ideal by ``normalize`` and by
    # the rewrite step; a third reader is how a second routing of
    # constrained words, past the memo's own, would start
    library, _ = load()
    assert readers_of(library, "constraint_gb") == [
        "rewrite.RuleSchema.__init__", "rewrite.RuleSchema.normalize",
        "rewrite._rewrite_into"]


def test_only_the_leaf_walk_builds_a_decisions_options():
    # the options of a decision are the roots of a univariate equation or
    # the pool: a second reader of either is how a second propagation walk,
    # with its own order of decisions, would start
    library, _ = load()
    assert readers_of(library, "DEFAULT_POOL") == ["solve._leaves"]
    assert readers_of(library, "_univariate_coeffs") == ["solve._leaves"]


def test_readers_are_found_by_bare_and_attribute_name():
    library = {
        "solve": ast.parse("DEFAULT_POOL = (0, 1)\n"
                           "def _leaves(order):\n"
                           "    return order(DEFAULT_POOL)\n"),
        "classify": ast.parse("from .solve import DEFAULT_POOL as pool\n"
                              "def draw(rng):\n"
                              "    return rng.choice(pool)\n"
                              "class Grid:\n"
                              "    def values(self):\n"
                              "        return solve.DEFAULT_POOL\n")}
    assert readers_of(library, "DEFAULT_POOL") == [
        "classify.Grid.values", "classify.draw", "solve._leaves"]


def test_patterns_are_compiled_only_by_their_identity():
    # an identity compiles its pattern once (``OpIdentity.plans``) and every
    # instance of it fills those plans; ``subst_generators`` plans each term
    # in its mapping's names, and ``plan`` recurses into brackets.  A generic
    # substitution walk, or a ``plan`` call anywhere else, would rebuild a
    # pattern on every step
    library, _ = load()
    assert definitions_of(library, "replace_generators") == []
    assert calls_of(library, "replace_generators", set(library)) == []
    assert callers_of(library, "plan") == [
        "opoly.OPoly.subst_generators", "opoly.OpIdentity.plans",
        "words.plan"]


def test_calls_are_found_by_bare_and_attribute_name():
    library = {
        "rewrite": ast.parse("from .words import replace_generators as sub\n"
                             "m = sub(m, {'x': a})\n"),
        "gsb": ast.parse("m = words.replace_generators(m, mapping)\n"
                         "replace_generators = fill\n"),
        "opoly": ast.parse("from .words import replace_generators\n"
                           "w = replace_generators(w, mapping)\n")}
    assert calls_of(library, "replace_generators", {"rewrite", "gsb"}) == [
        "gsb:1", "rewrite:2"]
    assert calls_of(library, "replace_generators", set(library)) == [
        "gsb:1", "opoly:2", "rewrite:2"]


def test_callers_and_definitions_are_named():
    library = {
        "opoly": ast.parse("class OpIdentity:\n"
                           "    def plans(self):\n"
                           "        def inner():\n"
                           "            return plan(m, names)\n"
                           "        return words.plan(m, names)\n"
                           "parts = plan(w, names)\n"),
        "gsb": ast.parse("from .words import plan as compile\n"
                         "def _nest(p):\n"
                         "    return compile(p, names)\n"
                         "def replace_generators(w, mapping):\n"
                         "    class replace_generators:\n"
                         "        pass\n")}
    assert callers_of(library, "plan") == [
        "gsb._nest", "opoly", "opoly.OpIdentity.plans",
        "opoly.OpIdentity.plans.inner"]
    assert definitions_of(library, "replace_generators") == ["gsb:4", "gsb:5"]


def test_no_module_handles_a_recursion_error():
    # nesting is capped where texts are read and words are built
    # (coeffs.MAX_DEPTH), so every recursion ends well inside the limit; a
    # handler would hide a walk that no longer does
    library, _ = load()
    handlers = []
    for module, tree in sorted(library.items()):
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(node.type)}
                if "RecursionError" in named:
                    handlers.append(f"{module}:{node.lineno}")
    assert handlers == []


def slot_writes(library):
    """``module:line`` of each write to an attribute named in
    ``Word.__slots__``, by assignment, ``del`` or ``setattr``, outside
    ``Word.__new__``."""
    slots = set(opalg.Word.__slots__)
    writes = []
    for module, tree in sorted(library.items()):
        constructor = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "Word":
                for f in node.body:
                    if getattr(f, "name", None) == "__new__":
                        constructor.update(map(id, ast.walk(f)))
        for node in ast.walk(tree):
            if id(node) in constructor:
                continue
            if isinstance(node, ast.Attribute):
                written = (isinstance(node.ctx, (ast.Store, ast.Del))
                           and node.attr in slots)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                written = (name in ("setattr", "__setattr__", "delattr",
                                    "__delattr__")
                           and any(isinstance(a, ast.Constant)
                                   and a.value in slots for a in node.args))
            else:
                written = False
            if written:
                writes.append(f"{module}:{node.lineno}")
    return writes


def test_a_word_is_fixed_once_built():
    # ``Word.__new__`` sets a word's shape from its atoms' shapes, once; a
    # later write, such as a lazily filled cache, could leave a word whose
    # facts disagree with those of its atoms
    library, _ = load()
    assert slot_writes(library) == []


def test_slot_writes_are_found_outside_the_constructor():
    library = {"words": ast.parse(
        "class Word:\n"
        "    def __new__(cls):\n        w.deg = 1\n"
        "    @property\n    def leaves(self):\n        self.leaves = 2\n"),
        "gsb": ast.parse("setattr(w, 'atoms', ())\nw.name = 1\n"
                         "del w._depth\n")}
    assert slot_writes(library) == ["gsb:1", "gsb:3", "words:6"]


# functions that may fill a new object's ``terms``: ``OPoly._trusted`` is the
# second constructor of ``OPoly``, which wraps a dict it is handed as is
CONSTRUCTORS = ("__init__", "_trusted")
# dict methods that change a dict in place
MUTATORS = ("pop", "update", "clear", "setdefault", "popitem")


def mpoly_writes(library):
    """``module:line`` of each write that could change a built ``MPoly``.

    A memo slot (a slot of ``MPoly`` other than ``ring`` and ``terms``) may
    be set to ``None`` in ``MPoly.__init__`` and filled in ``MPoly.__hash__``
    and ``MPoly.__str__``; any other assignment, ``del`` or ``setattr`` of one
    is a write.  So is, outside a constructor, a store to, a deletion from
    or a mutating call (``MUTATORS``) on an attribute named ``terms``."""
    memos = set(opalg.MPoly.__slots__) - {"ring", "terms"}
    writes = []
    for module, tree in sorted(library.items()):
        method = {}   # id(node) -> the MPoly method that holds it
        constructor = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "MPoly":
                for f in node.body:
                    if getattr(f, "name", None) in ("__init__", "__hash__",
                                                    "__str__"):
                        method.update(dict.fromkeys(map(id, ast.walk(f)),
                                                    f.name))
            if (isinstance(node, ast.FunctionDef)
                    and node.name in CONSTRUCTORS):
                constructor.update(map(id, ast.walk(node)))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and (
                    method.get(id(node)) in ("__hash__", "__str__")
                    or method.get(id(node)) == "__init__"
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is None):
                allowed.update(map(id, node.targets))
        for node in ast.walk(tree):
            stored = isinstance(getattr(node, "ctx", None),
                                (ast.Store, ast.Del))
            if isinstance(node, ast.Attribute) and stored:
                written = (node.attr in memos and id(node) not in allowed
                           or node.attr == "terms"
                           and id(node) not in constructor)
            elif isinstance(node, ast.Subscript) and stored:
                written = (getattr(node.value, "attr", None) == "terms"
                           and id(node) not in constructor)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                named = {a.value for a in node.args
                         if isinstance(a, ast.Constant)}
                written = (
                    name in ("setattr", "__setattr__", "delattr",
                             "__delattr__")
                    and (named & memos or "terms" in named
                         and id(node) not in constructor)
                    or name in MUTATORS
                    and getattr(node.func.value, "attr", None) == "terms"
                    and id(node) not in constructor)
            else:
                written = False
            if written:
                writes.append(f"{module}:{node.lineno}")
    return writes


def test_an_mpoly_is_fixed_once_built():
    # ``MPoly.__hash__`` and ``MPoly.__str__`` keep their value in a memo
    # slot, which holds only while the terms never change; a memo slot named
    # after a word's slot would also trip the word rule above
    library, _ = load()
    assert not set(opalg.MPoly.__slots__) & set(opalg.Word.__slots__)
    assert mpoly_writes(library) == []


def test_mpoly_writes_are_found():
    library = {
        "coeffs": ast.parse(
            "class MPoly:\n"
            "    def __init__(self, terms):\n"
            "        self.terms = terms\n"
            "        self._hash_memo = None\n"
            "        self._str_memo = 'x'\n"
            "    def __hash__(self):\n"
            "        h = self._hash_memo = 1\n"
            "    def __neg__(self):\n"
            "        self._hash_memo = None\n"
            "        setattr(self, '_str_memo', None)\n"
            "        self.terms.pop(e)\n"
            "        return self.terms.get(e)\n"),
        "solve": ast.parse(
            "def pin(g):\n"
            "    g.terms[e] = 1\n"
            "    del g.terms[e]\n"
            "    g.terms.update(t)\n"
            "    g.terms = {}\n"
            "    del g._str_memo\n"
            "    out[e] = g.terms[e]\n"
            "    _add_scaled_into(out, g.terms)\n"),
        "opoly": ast.parse(
            "def _trusted(cls, terms):\n"
            "    p.terms = terms\n"
            "    p.terms.clear()\n"
            "def _coeff(p):\n"
            "    p.terms.setdefault(w, 0)\n"
            "    setattr(p, 'terms', {})\n")}
    assert mpoly_writes(library) == [
        "coeffs:5", "coeffs:9", "coeffs:10", "coeffs:11", "opoly:5",
        "opoly:6", "solve:2", "solve:3", "solve:4", "solve:5", "solve:6"]


def finalizers_and_globals(library):
    """``module:line`` of each ``__del__`` definition, and of each ``global``
    statement outside ``words``."""
    found = []
    for module, tree in sorted(library.items()):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name == "__del__"
                    or isinstance(node, ast.Global) and module != "words"):
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_only_the_job_scope_owns_module_state():
    # the job's memos live exactly as long as the outermost ``words.job``
    # scope, and the word table keeps, past its close, the words something
    # outside it references and, under its threshold, the rest: a finalizer
    # would tie a cache's life to garbage collection again, and a global
    # rebound from another module would be a second owner of module state
    library, _ = load()
    assert finalizers_and_globals(library) == []


def test_finalizers_and_globals_are_found():
    library = {
        "rewrite": ast.parse("class Memo:\n"
                             "    def __del__(self):\n"
                             "        global live\n"
                             "        live -= 1\n"),
        "words": ast.parse("def enter():\n"
                           "    global depth\n"
                           "    depth += 1\n"
                           "def __del__():\n"
                           "    pass\n"),
        "gsb": ast.parse("global count\n"
                         "def check():\n"
                         "    class Cache:\n"
                         "        def __del__(self):\n"
                         "            pass\n")}
    assert finalizers_and_globals(library) == [
        "gsb:1", "gsb:4", "rewrite:2", "rewrite:3", "words:4"]


def literal_divisions(library):
    """``module:line`` of each ``/`` whose left operand is a numeric literal
    or a unary minus: the ``1 / c`` and ``-c / lc`` shapes, in which two
    ints make a float."""
    found = []
    for module, tree in sorted(library.items()):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Div)):
                continue
            left = node.left
            if (isinstance(left, ast.UnaryOp) and isinstance(left.op, ast.USub)
                    or isinstance(left, ast.Constant)
                    and type(left.value) in (int, float)):
                found.append((module, node.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_coefficients_are_inverted_only_by_reciprocal():
    # an integral coefficient is an ``int`` (``coeffs.rational``), and
    # ``1 / 2`` is a float: ``coeffs.reciprocal`` is the one exact inversion
    library, _ = load()
    assert literal_divisions(library) == []


def test_literal_divisions_are_found():
    library = {"groebner": ast.parse(
        "inv = 1 / p.constant_value()\n"
        "m = add(w, -c / lc)\n"
        "mf = monomial(q, 1 / f.terms[ef])\n"
        "inv = 1 / -a\n"
        "r = r / r.terms[max(r.terms)]\n"
        "p = p / q\n"
        "v = Fraction(1, c)\n"
        "share = 0.5 / n\n")}
    assert literal_divisions(library) == [
        "groebner:1", "groebner:2", "groebner:3", "groebner:4", "groebner:8"]


def test_bare_names_are_read_by_module():
    library = {"words": ast.parse("def classify_pair(a, b):\n    pass\n"),
               "gsb": ast.parse("def nf(w):\n    pass\n")}
    users = [ast.parse("def classify_pair(a, b):\n    pass\n"
                       "classify_pair(1, 2)\n"),
             ast.parse("from opalg import nf as reduce\nreduce(1)\n")]
    assert unreferenced(library, users) == ["words.classify_pair"]
    users.append(ast.parse("from opalg.words import classify_pair\n"
                           "classify_pair(1, 2)\n"))
    assert unreferenced(library, users) == []


def unread_parameters(library=None):
    """``module.function(parameter)`` of every parameter that the body of a
    library function or method, nested ones included, never reads; ``self``,
    ``cls``, ``*args``, ``**kwargs`` and lambdas are exempt."""
    if library is None:
        library, _ = load()
    unread = []
    for module, tree in library.items():
        owners = {}
        _owners_into(tree, module, owners)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            read = {n.id for statement in node.body
                    for n in ast.walk(statement)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend(
                f"{owners[id(node)]}({a.arg})"
                for a in args.posonlyargs + args.args + args.kwonlyargs
                if a.arg not in ("self", "cls") and a.arg not in read)
    return sorted(unread)


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_parameter_rule_on_a_synthetic_module():
    library = {"m": ast.parse(
        "def f(a, b, *args, c=1, **kwargs):\n    return a + c\n"
        "class C:\n"
        "    def g(self, x, y, /, z):\n"
        "        def inner(t):\n            return x + z\n"
        "        return inner\n"
        "    @classmethod\n"
        "    def h(cls, w, v=lambda unused: 0):\n"
        "        w = v\n"
        "key = lambda ignored: 0\n")}
    assert unread_parameters(library) == [
        "m.C.g(y)", "m.C.g.inner(t)", "m.C.h(w)", "m.f(b)"]


def test_option_rule_on_a_synthetic_module():
    library = {"m": ast.parse(
        "def f(a, *, unset=1):\n    pass\n"
        "def g(a, literal=False, positional=0):\n    pass\n"
        "def h(a, chosen=0):\n    pass\n"
        "def _private(a, depth=0):\n    return _private(a, depth + 1)\n"
        "f(1)\n"
        "g(1, True, 2)\n"
        "g(2, True, 3)\n")}
    users = [ast.parse("from opalg.m import h\nh(1, x)\nh(2, 0)\n")]
    assert unset_options(library, users) == ["m.f(unset=)", "m.g(literal=)"]


def dead_imports(library=None):
    """``module.name`` of every name a library module imports and none of
    its code reads; ``__init__``, ``__all__`` entries and ``from
    __future__`` imports are exempt."""
    if library is None:
        library, _ = load()
    dead = set()
    for module, tree in library.items():
        if module == "__init__":
            continue
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if _is_all(node):
                read.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0]
                         for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            dead.update(f"{module}.{name}" for name in bound
                        if name not in read)
    return sorted(dead)


def test_every_import_is_read():
    assert dead_imports() == []


def test_import_rule_on_a_synthetic_module():
    library = {
        "m": ast.parse(
            "from __future__ import annotations\n"
            "import os, re as regex\n"
            "import json.decoder\n"
            "from .coeffs import MPoly, PolyRing as Ring\n"
            "from .words import Word\n"
            "__all__ = ['Word']\n"
            "def f(x: MPoly):\n"
            "    return regex.sub('', x) + json.dumps(x)\n"
            "def g(Ring):\n    pass\n"),
        "__init__": ast.parse("from .coeffs import MPoly\n"),
    }
    assert dead_imports(library) == ["m.Ring", "m.os"]
