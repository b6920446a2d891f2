"""Rules on the source itself: invariants in `src/` raise real exceptions,
because `python -O` strips `assert` statements, and every public name in
`src/` is there for the program, not only for its unit tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public names that neither `src/` nor the acceptance test reaches, kept as
# test hooks: the exhaustive cos^2 pin in test_exact_pinned.py calls
# cos_squared.
TEST_HOOKS = {"cos_squared"}


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


def _used_names(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _public_definitions(tree: ast.Module):
    """(name, node) for each public function, class and assigned name at
    module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def test_public_names_are_reached_outside_the_unit_tests():
    trees = [_parse(path) for path in sorted((ROOT / "src" / "rationalqm").glob("*.py"))]
    used = sum((_used_names(tree) for tree in trees), Counter())
    acceptance = _used_names(_parse(ROOT / "tests" / "test_acceptance.py"))
    unreached = {name for tree in trees for name, node in _public_definitions(tree)
                 if used[name] == _used_names(node)[name] and name not in acceptance}
    assert unreached == TEST_HOOKS
