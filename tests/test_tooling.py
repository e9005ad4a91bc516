"""Source-level checks on the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pgcache"


def test_no_assert_statements_in_the_package():
    """Invariants are explicit checks, so they still run under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found
