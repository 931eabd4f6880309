"""``src/decoybb84`` holds no function, class or method that nothing calls.

The package is parsed with ``ast``.  A module-level function or class,
public or private (a dunder is neither), counts as used when some module of
``src/`` reads its name, bare or as an attribute; an export from the
package's ``__init__`` is not a read.  A public method or property of a
public class counts as used only when ``src/`` reads an
attribute of its name on something other than a module that ``import``
binds: ``np.zeros`` does not use a method ``zeros``, and a local variable
``total`` does not use a property ``total``.  Code that only the tests
call lives in ``tests/``.  Everything else must be on the allowlist, with
the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "decoybb84"

ALLOWLIST = {
    "gf2.solve": "perfbench/tracer.py's LAYER_MAP traces it through the protocol.solve "
                 "binding, and Tracer.install stops when that binding is missing",
    "gf2.BitMatrix.from_row_ints": "perfbench/workloads.py builds its code pairs with it",
    "bounds.verify_proposition_decoding": "perfbench workloads call it",
    "oracle.reduce_code_channel": "perfbench workloads call it",
}


def definitions(tree):
    """(qualified name, bare name) of each module-level function and class
    but a dunder, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def module_bindings(tree):
    """Names that ``import x`` or ``from . import x`` binds to a module."""
    return {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module is None
            for alias in node.names}


def unused_definitions(src):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    names, attrs = set(), set()
    for tree in trees.values():
        modules = module_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                on_module = isinstance(node.value, ast.Name) and node.value.id in modules
                (names if on_module else attrs).add(node.attr)
    return {f"{module}.{qual}" for module, tree in trees.items()
            for qual, name in definitions(tree)
            if name not in attrs and ("." in qual or name not in names)}


def test_every_public_name_is_used_or_allowlisted():
    assert unused_definitions(SRC) == set(ALLOWLIST)


def test_every_allowlist_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_scan_counts_only_attribute_reads_off_imported_modules(tmp_path):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "grid.py").write_text(
        "import numpy as np\n"
        "\n"
        "\n"
        "class Grid:\n"
        "    def zeros(self):\n"
        "        return np.zeros(3)\n"
        "\n"
        "    @property\n"
        "    def total(self):\n"
        "        return 0\n"
        "\n"
        "    def cells(self):\n"
        "        return 9\n"
        "\n"
        "\n"
        "def area(grid):\n"
        "    total = grid.cells()\n"
        "    return total\n")
    (tmp_path / "user.py").write_text("from .grid import Grid, area\n\nAREA = area(Grid())\n")
    assert unused_definitions(tmp_path) == {"grid.Grid.zeros", "grid.Grid.total"}


def test_scan_does_not_count_an_export_as_a_read(tmp_path):
    (tmp_path / "__init__.py").write_text("from .lib import helper, used\n")
    (tmp_path / "lib.py").write_text(
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def used():\n"
        "    return 2\n")
    (tmp_path / "user.py").write_text("from .lib import used\n\nVALUE = used()\n")
    assert unused_definitions(tmp_path) == {"lib.helper"}


def test_scan_counts_private_module_level_definitions(tmp_path):
    # A private function or class that no module reads is dead code; a
    # dunder is called by the interpreter, and a method of a private class
    # (here one its base class calls) is not scanned.
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "lib.py").write_text(
        "import string\n"
        "\n"
        "\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
        "\n"
        "\n"
        "def _helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "class _Fmt(string.Formatter):\n"
        "    def format_field(self, value, spec):\n"
        "        return str(value)\n"
        "\n"
        "\n"
        "class _Unread:\n"
        "    pass\n"
        "\n"
        "\n"
        "FMT = _Fmt()\n")
    assert unused_definitions(tmp_path) == {"lib._helper", "lib._Unread"}
