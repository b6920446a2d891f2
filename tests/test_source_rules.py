"""Rules on the source itself: invariants in `src/` raise
real exceptions, because `python -O` strips `assert` statements."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_statements():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert files
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
