"""Rules on the source itself: invariants in `src/` raise real exceptions,
because `python -O` strips `assert` statements; every public name, method and
property in `src/` is there for the program, not only for its unit tests, and
every private module-level name is used in `src/`; no module imports
mpmath, which only the tests use as an oracle; and `__main__.py` is the only
module that runs as a script."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rationalqm"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def test_no_assert_statements():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in files
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Assert)]
    assert found == []


def _used_names(node: ast.AST, kinds=(ast.Name, ast.Attribute)) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, kinds))


def _module_definitions(tree: ast.Module):
    """(name, name, node) for each function, class and assigned name at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, name, node) for name in names)


def _public_definitions(tree: ast.Module):
    return (d for d in _module_definitions(tree) if not d[0].startswith("_"))


def _private_definitions(tree: ast.Module):
    return (d for d in _module_definitions(tree)
            if d[0].startswith("_") and not d[0].endswith("__"))


def _public_members(tree: ast.Module):
    """("Class.name", name, node) for each public method and property of a
    module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            yield from ((f"{cls.name}.{node.name}", node.name, node)
                        for node in cls.body
                        if isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_"))


def _unreached(definitions, exempt=("tests/test_acceptance.py",),
               kinds=(ast.Name, ast.Attribute)) -> set:
    """Labels of the definitions whose name is used in `src/` only inside the
    definition itself, and not at all in the `exempt` files. A use is a node
    of one of `kinds` that carries the name."""
    trees = [_parse(path) for path in sorted(PACKAGE.glob("*.py"))]
    used = sum((_used_names(tree, kinds) for tree in trees), Counter())
    outside = sum((_used_names(_parse(ROOT / f), kinds) for f in exempt), Counter())
    return {label for tree in trees for label, name, node in definitions(tree)
            if used[name] == _used_names(node, kinds)[name] and name not in outside}


def test_public_names_are_reached_outside_the_unit_tests():
    assert _unreached(_public_definitions) == set()


def test_public_members_are_reached_outside_the_unit_tests():
    # A member is reached only as an attribute (`x.size`), so a local or a
    # parameter that shares its name does not count. The benchmark's tracer
    # reads `PNO.size` and `IntegerPair.steps` from the results it counts,
    # so it is a reader beside the acceptance test.
    assert _unreached(_public_members,
                      exempt=("tests/test_acceptance.py", "qmbench/tracer.py"),
                      kinds=ast.Attribute) == set()


def test_private_names_are_used_in_src():
    # a private helper that only a test keeps alive is dead code
    assert _unreached(_private_definitions, exempt=()) == set()


def _imports_mpmath(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "mpmath" for alias in node.names)
    return (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "mpmath")


def test_no_module_imports_mpmath():
    # ast.walk reaches imports inside functions and TYPE_CHECKING blocks too
    importers = {path.name for path in sorted(PACKAGE.rglob("*.py"))
                 if any(map(_imports_mpmath, ast.walk(_parse(path))))}
    assert importers == set()


def _is_main_guard(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "__name__ == '__main__'", "'__main__' == __name__")


def test_only_main_module_runs_as_a_script():
    # one entry point: `python -m rationalqm` or the rationalqm console script
    scripts = {path.name for path in sorted(PACKAGE.rglob("*.py"))
               if any(map(_is_main_guard, ast.walk(_parse(path))))}
    assert scripts - {"__main__.py"} == set()
