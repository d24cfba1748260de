"""Every definition of the library has a caller outside the tests.

A module-level function or class, or a public method, that only tests reach
is dead weight in ``src/opalg``: it belongs in the tests that use it, or
nowhere.  A definition counts as used when its name is referenced in
``src/opalg`` outside its own body, or anywhere in ``demos/`` or
``perfbench/``.  References are read from the syntax trees by name: names,
attribute accesses, and string constants (the benchmark's tracer binds
functions by name).  Docstrings, imports and ``__all__`` are not references,
so neither a mention nor a re-export keeps a definition alive.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LIBRARY = os.path.join(ROOT, "src", "opalg")
USERS = (os.path.join(ROOT, "demos"), os.path.join(ROOT, "perfbench"))

# definitions kept without a caller, one reason each
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "classify.ConstraintSystem.satisfied_at":
        "verification oracle: a point satisfies every extracted equation",
    "ordering.check_monomial_order":
        "verification oracle of the monomial-order laws",
    "gsb.free_dt_operator_nf":
        "independent construction of differential-type normal forms",
    "gsb.delta_view":
        "reads rewriting normal forms in free_dt_operator_nf's words",
    "rewrite.local_confluence_check":
        "the peak-joinability certificate of acceptance criterion 6",
}


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read(), filename=path)


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


def references(tree):
    """(name, line) of every reference in ``tree``."""
    skip = _docstrings(tree)
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            out.append((node.value, node.lineno))
        stack.extend(ast.iter_child_nodes(node))
    return out


def definitions(module, tree):
    """(qualified name, bare name, first line, last line) of every
    module-level function and class and every public method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((f"{module}.{node.name}", node.name, node.lineno,
                        node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    out.append((f"{module}.{node.name}.{item.name}", item.name,
                                item.lineno, item.end_lineno))
    return out


def unreferenced():
    library = {}
    for path in _python_files(LIBRARY):
        module = os.path.splitext(os.path.relpath(path, LIBRARY))[0]
        library[module] = _parse(path)
    refs = {module: references(tree) for module, tree in library.items()}
    outside = {name for top in USERS for path in _python_files(top)
               for name, _ in references(_parse(path))}
    missing = []
    for module, tree in library.items():
        for qualname, name, first, last in definitions(module, tree):
            if name in outside:
                continue
            if any(n == name and (m != module or not first <= line <= last)
                   for m, found in refs.items() for n, line in found):
                continue
            missing.append(qualname)
    return sorted(missing)


def test_every_definition_has_a_caller_outside_the_tests():
    assert [q for q in unreferenced() if q not in ALLOWED] == []


def test_every_allowed_definition_still_lacks_a_caller():
    assert sorted(ALLOWED) == [q for q in unreferenced() if q in ALLOWED]
