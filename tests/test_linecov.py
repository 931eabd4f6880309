"""The line-trace check of ``checks/linecov.py`` finds a line that never runs.

The full check runs tier-1 under its tracer, outside tier-1.  Here the same
tracer watches a scratch package with one planted line that nothing runs:
the check must report that line and no other, drop it when the allowlist
names it, and report an allowlist entry that names no unrun line.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PLANTED = '''\
LIMIT = 2


def pick(x):
    if x < LIMIT:
        return "low"
    return "high"


class Box:
    def size(self):
        return LIMIT
'''


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linecov = load("linecov", ROOT / "checks" / "linecov.py")


def trace_planted(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text(PLANTED)
    before = sys.gettrace()
    with linecov.LineTracer([path]) as tracer:
        module = load("planted", path)
        assert module.pick(1) == "low" and module.Box().size() == 2
    assert sys.gettrace() is before
    return linecov.unrun(tracer, tmp_path)


def test_reports_the_one_unrun_line(tmp_path):
    missed = trace_planted(tmp_path)
    assert missed == {("planted.py", "pick", 'return "high"'): 7}
    assert linecov.report(missed, {}) == ['planted.py:7: pick: never runs: return "high"']


def test_allowlist_entry_drops_its_line_and_a_stale_one_is_reported(tmp_path):
    missed = trace_planted(tmp_path)
    assert linecov.report(missed, {("planted.py", "pick", 'return "high"'): "reason"}) == []
    assert linecov.report(missed, {("planted.py", "pick", 'return "high"'): "reason",
                                   ("planted.py", "pick", 'return "low"'): "reason"}) == \
        ['planted.py: pick: stale allowlist entry: return "low"']


def test_allowlist_names_lines_of_the_package():
    package = ROOT / "src" / "decoybb84"
    for (file, qualname, text), reason in linecov.ALLOWLIST.items():
        source = (package / file).read_text().splitlines()
        assert reason and any(source[line - 1].strip() == text and name == qualname
                              for line, name in linecov.code_lines(package / file).items())
