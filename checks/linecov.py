"""Every line of ``src/decoybb84`` runs under tier-1, or is listed here.

Run from anywhere, outside tier-1 (about a minute on two cores)::

    python3 checks/linecov.py

It runs the tier-1 suite (``tests/``, as ``python -m pytest -q
--continue-on-collection-errors``) in this process under a ``sys.settrace``
line tracer that watches the files of ``src/decoybb84`` only.  Tracing starts
before the package is imported, so module and class bodies count as well as
function bodies.  A line counts when some code object of its file has an
instruction on it (``co_lines``); a docstring or a blank line has none.

The run exits 1 and lists each line that never ran and that ``ALLOWLIST`` does
not name, and each ``ALLOWLIST`` entry that names no unrun line.  An entry is
keyed by file, the qualified name of the innermost code object holding the line
(``<module>`` at top level) and the line's stripped text, so edits elsewhere in
a file do not move it.  Per unrun line: add a test that reaches it, delete it,
or list it here with the reason it stays.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "decoybb84"

ALLOWLIST = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "the __main__ entry runs only in test_cli.py::test_module_entry_point's "
        "subprocess, which the tracer does not follow",
}


def code_lines(path: Path) -> dict[int, str]:
    """Line number -> qualified name of the innermost code object with an
    instruction on that line, over every code object compiled from ``path``."""
    lines: dict[int, str] = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        for _, _, line in code.co_lines():
            if line:
                lines[line] = code.co_qualname
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


class LineTracer:
    """Records the lines run in the given files while active (a ``with``
    block), on this thread and on threads started inside the block."""

    def __init__(self, paths):
        self.hits = {os.path.realpath(p): set() for p in paths}
        self._by_name: dict[str, set[int] | None] = {}

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        try:
            hits = self._by_name[name]
        except KeyError:
            hits = self._by_name[name] = self.hits.get(os.path.realpath(name))
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def line(frame, event, arg):
            hits.add(frame.f_lineno)
            return line
        return line

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        sys.settrace(self._call)
        threading.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def unrun(tracer: LineTracer, root: Path) -> dict[tuple[str, str, str], int]:
    """(file relative to ``root``, qualname, stripped text) -> line number of
    each line that has code and never ran, in file and line order."""
    out = {}
    for path in sorted(tracer.hits):
        text = Path(path).read_text().splitlines()
        hits = tracer.hits[path]
        for line, qualname in sorted(code_lines(Path(path)).items()):
            if line not in hits:
                out[(Path(path).relative_to(root).as_posix(), qualname,
                     text[line - 1].strip())] = line
    return out


def report(missed: dict, allowlist: dict) -> list[str]:
    """One line per unrun line that the allowlist does not name, and per
    allowlist entry that names no unrun line."""
    problems = [f"{file}:{line}: {qualname}: never runs: {text}"
                for (file, qualname, text), line in missed.items()
                if (file, qualname, text) not in allowlist]
    problems += [f"{file}: {qualname}: stale allowlist entry: {text}"
                 for file, qualname, text in allowlist
                 if (file, qualname, text) not in missed]
    return problems


def main() -> int:
    import pytest

    if "decoybb84" in sys.modules:
        raise RuntimeError("decoybb84 was imported before tracing started")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    with LineTracer(sorted(PACKAGE.glob("*.py"))) as tracer:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--continue-on-collection-errors", "tests"])
    if status != 0:
        print(f"linecov: tier-1 exited {status}; line counts are incomplete")
        return 1
    missed = unrun(tracer, PACKAGE)
    problems = report(missed, ALLOWLIST)
    for problem in problems:
        print(f"linecov: {problem}")
    total = sum(len(code_lines(Path(p))) for p in tracer.hits)
    print(f"linecov: {total - len(missed)} of {total} lines ran; "
          f"{len(missed)} unrun, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
