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
