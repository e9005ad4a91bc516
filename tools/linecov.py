"""List the lines of src/ that the tier-1 tests never run.

From the repository root:

  python3 tools/linecov.py [PYTEST_ARGS...]

The tier-1 command, `python -m pytest -q --continue-on-collection-errors`
with extra arguments appended, runs in this process through pytest.main
(pyproject.toml puts src/ on the path), under a sys.settrace line tracer
that uses only the standard library.  The tracer is set before pgcache
is first imported, and for every thread started after that through
threading, so module-level lines and the block runner's helper threads
count.

Child processes are followed too.  Before the tests start, a
sitecustomize module is written to a temporary directory that is put at
the front of PYTHONPATH; the tests that start Python children (the `-O`
tests and the demos) pass PYTHONPATH on, and Python imports
sitecustomize at start-up, so each child starts the same tracer before
its own code runs and writes the lines it reached to that directory
when it exits.  A child that ends without running its
exit handlers (killed, or through os._exit) reports nothing.

A file's executable lines are the line numbers of its compiled code
objects, nested ones included.  Each line that no `call` or `line`
event reached, in this process or a child, is printed as
`path:line: source`, followed by a count of missed lines over
executable lines.  The exit status is pytest's.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]

# Imported by every Python child at start-up: loads this file under a
# private name, without touching the child's sys.path, and traces the child.
SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_pgcache_linecov", {tool!r})
_linecov = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_linecov)
_linecov.trace_child({out!r})
"""


def source_files() -> dict[str, Path]:
    return {str(path): path for path in sorted(SRC.rglob("*.py"))}


def start_tracing() -> dict[str, set[int]]:
    """Trace this thread and every later threading thread; returns, per
    file of src/, the set of line numbers reached so far."""
    hits: dict[str, set[int]] = {name: set() for name in source_files()}

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
    return hits


def stop_tracing() -> None:
    sys.settrace(None)
    threading.settrace(None)


def trace_child(out: str) -> None:
    """Trace this process and write its hits to out/<pid>.json at exit."""
    import atexit

    hits = start_tracing()

    def save() -> None:
        stop_tracing()
        reached = {name: sorted(lines) for name, lines in hits.items() if lines}
        Path(out, f"{os.getpid()}.json").write_text(json.dumps(reached))

    atexit.register(save)


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
    import pytest

    files = source_files()
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(tool=str(Path(__file__).resolve()), out=str(out)))
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(site), saved) if p)
        hits = start_tracing()
        try:
            status = pytest.main(TIER1_ARGS + argv)
        finally:
            stop_tracing()
            if saved is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = saved
        children = sorted(out.glob("*.json"))
        for child in children:
            for name, lines in json.loads(child.read_text()).items():
                hits.setdefault(name, set()).update(lines)

    missed_total = total = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - hits[name])
        total += len(lines)
        missed_total += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed_total} of {total} executable lines in src/ never ran "
          f"({len(children)} child processes followed)")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
