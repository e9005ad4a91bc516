"""Source-level checks on the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pgcache"
ORACLE = Path(__file__).resolve().parent / "bruteforce.py"


def test_no_assert_statements_in_the_package():
    """Invariants are explicit checks, so they still run under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert SRC.is_dir() and not found, found


def test_the_oracle_shares_no_algebra_with_the_package():
    """bruteforce.py takes only the line-graph report type from pgcache."""
    imported = set()
    for node in ast.walk(ast.parse(ORACLE.read_text(), filename=str(ORACLE))):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    from_package = {name for name in imported if name.split(".")[0] == "pgcache"}
    assert from_package <= {"pgcache.linegraph.LineGraphReport"}, from_package
