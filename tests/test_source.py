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
