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


def test_only_matrices_reads_the_rows_attribute():
    # A matrix is its integer image, and its rows are Fractions built again
    # on every read.  Outside matrices.py the package reads integer_rows(),
    # so no O(n^2) rebuild sits in a loop and one module owns the
    # representation.
    root = pathlib.Path(lcpq.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root) == pathlib.Path("matrices.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            "%s:%d" % (path.relative_to(root), node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "rows"
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


def _names_used(paths):
    """Every Name, attribute and string constant in the modules at paths;
    perfbench's tracer names the functions it wraps as strings."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_function_and_class_has_a_caller_or_is_exported():
    # A public module-level def or class must be referenced somewhere in the
    # package outside its own definition.  A name that lcpq or lcpq.jordan
    # re-exports may instead be referenced by a perfbench module other than
    # its tests, or by the acceptance criteria: export alone excuses nothing.
    # A public method of a public class must be referenced in the package;
    # dunder methods, which Python calls, are exempt.
    root = pathlib.Path(lcpq.__file__).parent
    repo = root.parent.parent
    consumers = _names_used(
        [path for path in sorted((repo / "perfbench").glob("*.py")) if not path.name.startswith("test_")]
        + [repo / "tests" / "test_acceptance.py"]
    )
    defined = {}
    methods = {}
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
                if isinstance(node, ast.ClassDef):
                    methods.update(
                        ("%s.%s.%s" % (module, node.name, item.name), item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                    )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = sorted(
        [
            qualified
            for qualified, name in defined.items()
            if name not in referenced and not (name in exported and name in consumers)
        ]
        + [qualified for qualified, name in methods.items() if name not in referenced]
    )
    assert dead == sorted(_UNCALLED_ALLOWED)


def test_every_private_module_level_name_is_read_in_the_package():
    # A module-level private def, class or assigned name must be read (loaded
    # by name or as an attribute) somewhere under src/lcpq; a read from the
    # tests alone keeps nothing alive.  Dunder names are exempt.
    root = pathlib.Path(lcpq.__file__).parent
    defined = {}
    read = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)
                ]
            else:
                names = []
            defined.update(
                ("%s.%s" % (module, name), name)
                for name in names
                if name.startswith("_") and not name.endswith("__")
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined
    assert sorted(qualified for qualified, name in defined.items() if name not in read) == []
