"""Properties of the package source itself."""

import ast
import pathlib

import lcpq


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so correctness checks in the
    # package raise explicit errors instead.
    root = pathlib.Path(lcpq.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.relative_to(root), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    # The package's two __init__ modules import names only to re-export them.
    root = pathlib.Path(lcpq.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in used:
                        found.append("%s:%d %s" % (path.relative_to(root), node.lineno, name))
    assert found == []


# Names kept though nothing in the package calls them: perfbench traces
# matrices.solve_linear, and it leaves with that benchmark's next change.
_UNCALLED_ALLOWED = {"matrices.solve_linear"}


def test_every_public_function_and_class_has_a_caller_or_is_exported():
    # A public module-level def or class must be referenced somewhere in the
    # package outside its own definition, or be re-exported by an __init__.
    root = pathlib.Path(lcpq.__file__).parent
    defined = {}
    referenced = set()
    exported = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.name == "__init__.py":
            exported |= {
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            continue
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined["%s.%s" % (module, node.name)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = sorted(
        qualified
        for qualified, name in defined.items()
        if name not in referenced and name not in exported
    )
    assert dead == sorted(_UNCALLED_ALLOWED)
