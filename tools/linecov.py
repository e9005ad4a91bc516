"""List the lines of src/ that the tier-1 tests never run.

From the repository root:

  python3 tools/linecov.py [PYTEST_ARGS...]

The tier-1 command, `python -m pytest -q --continue-on-collection-errors`
with extra arguments appended, runs in this process through pytest.main
(pyproject.toml puts src/ on the path), under a sys.settrace line tracer
that uses only the standard library.  The tracer is set before pgcache
is first imported, and for every thread started after that through
threading, so module-level lines and the block runner's helper threads
count.  Child
processes are not followed: lines that only the `-O` tests, the demo
tests and other subprocess-based tests reach are listed as never run.

A file's executable lines are the line numbers of its compiled code
objects, nested ones included.  Each line that no `call` or `line`
event reached is printed as `path:line: source`, followed by a count of
missed lines over executable lines.  The exit status is pytest's.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode anywhere in the file."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(SRC.rglob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(TIER1_ARGS + argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed_total = total = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - hits[name])
        total += len(lines)
        missed_total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed_total} of {total} executable lines in src/ never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
