"""``src/decoybb84`` holds no function, class or method that nothing calls.

The package is parsed with ``ast``.  A module-level function or class,
public or private (a dunder is neither), counts as used when some module of
``src/`` reads its name, bare or as an attribute; an export from the
package's ``__init__`` is not a read.  A public method or property of a
public class counts as used only when ``src/`` reads an
attribute of its name on something other than a module that ``import``
binds: ``np.zeros`` does not use a method ``zeros``, and a local variable
``total`` does not use a property ``total``.  Code that only the tests
call lives in ``tests/``.

A field of a module-level dataclass counts as read when ``src/`` reads an
attribute of its name (again not off an imported module) or names it in a
string constant, as the ``getattr`` loops of ``__post_init__`` do.

Everything else must be on an allowlist, with the reason it stays.

No function assigns a local name that it never reads, itself or in a
function nested in it; ``_`` is the name for a value that is dropped.

The reference oracles in ``tests/oracles.py`` import no private name of
the package, so no reference shares the code it checks.
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

# A key names one field, or a class for all of its unread fields.
FIELD_ALLOWLIST = {
    "bounds.DecodingCheck": "perfbench's tracer and workloads and tests/test_bounds.py "
                            "read the result of verify_proposition_decoding",
    "decoy.EstimateInterval": "cli.cmd_estimate_decoy reports every field through vars()",
    "protocol.SessionOutcome.experiment": "tests/test_protocol.py checks the public step-4 "
                                          "and step-6 decisions against it",
    "protocol.SessionOutcome.initial": "tests/test_protocol.py checks the public step-4 "
                                       "and step-6 decisions against it",
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


def dataclass_fields(tree):
    """(class name, field name) of each field of a module-level dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d)
                in ("dataclass", "dataclasses.dataclass") for d in node.decorator_list):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield node.name, sub.target.id


def scan(src):
    """The parsed modules, the names read bare or off an imported module,
    the attribute names read off anything else, and the string constants."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    names, attrs, strings = set(), set(), set()
    for tree in trees.values():
        modules = module_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                on_module = isinstance(node.value, ast.Name) and node.value.id in modules
                (names if on_module else attrs).add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                strings.add(node.value)
    return trees, names, attrs, strings


def unused_definitions(src):
    trees, names, attrs, _ = scan(src)
    return {f"{module}.{qual}" for module, tree in trees.items()
            for qual, name in definitions(tree)
            if name not in attrs and ("." in qual or name not in names)}


def unread_fields(src):
    trees, _, attrs, strings = scan(src)
    return {f"{module}.{cls}.{field}" for module, tree in trees.items()
            for cls, field in dataclass_fields(tree)
            if field not in attrs and field not in strings}


def test_every_public_name_is_used_or_allowlisted():
    assert unused_definitions(SRC) == set(ALLOWLIST)


def test_every_dataclass_field_is_read_or_allowlisted():
    # Each unread field maps to the allowlist key that covers it: the field
    # itself or its class.  Every key must still cover some field.
    covering = {field: field if field in FIELD_ALLOWLIST else field.rsplit(".", 1)[0]
                for field in unread_fields(SRC)}
    assert {field for field, key in covering.items() if key not in FIELD_ALLOWLIST} == set()
    assert set(covering.values()) == set(FIELD_ALLOWLIST)


def test_every_allowlist_entry_has_a_reason():
    assert all(reason.strip() for reason in (ALLOWLIST | FIELD_ALLOWLIST).values())


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


def test_field_scan_counts_attribute_reads_and_named_strings(tmp_path):
    # A field read as an attribute or named in a string is read; one read
    # only off an imported module, or only assigned, is not.  A plain
    # class's annotations are not dataclass fields.
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "lib.py").write_text(
        "import dataclasses\n"
        "import math\n"
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Point:\n"
        "    x: float\n"
        "    y: float\n"
        "    pi: float\n"
        "    label: str = ''\n"
        "\n"
        "    def __post_init__(self):\n"
        "        for name in ('y',):\n"
        "            getattr(self, name)\n"
        "\n"
        "\n"
        "@dataclasses.dataclass\n"
        "class Box:\n"
        "    side: float\n"
        "\n"
        "\n"
        "class Plain:\n"
        "    width: float\n"
        "\n"
        "\n"
        "def norm(p, box):\n"
        "    box.side = math.pi\n"
        "    return p.x\n")
    assert unread_fields(tmp_path) == {"lib.Point.pi", "lib.Point.label", "lib.Box.side"}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(fn):
    """The nodes of ``fn``'s body outside the functions and classes nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(src):
    """``module.function.name`` of each name a function assigns and neither it
    nor a function nested in it reads."""
    out = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stored = {node.id for node in own_nodes(fn)
                          if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
                read = {node.id for node in ast.walk(fn)
                        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
                out |= {f"{path.stem}.{fn.name}.{name}" for name in stored - read - {"_"}}
    return out


def test_every_local_is_read():
    assert unread_locals(SRC) == set()


def test_unread_local_scan(tmp_path):
    # A local read in a closure is read; one read only in a function nested
    # in it is the nested function's own; a dropped value is named ``_``.
    (tmp_path / "lib.py").write_text(
        "def area(grid):\n"
        "    rows, cols, depth = grid\n"
        "    size = rows * cols\n"
        "    total = 0\n"
        "    total += size\n"
        "    for _ in range(2):\n"
        "        pass\n"
        "    return rows\n"
        "\n"
        "\n"
        "def outer(x):\n"
        "    scale = 2\n"
        "\n"
        "    def inner(y):\n"
        "        shift = 1\n"
        "        return y * scale\n"
        "    return inner(x)\n")
    assert unread_locals(tmp_path) == {"lib.area.depth", "lib.area.total", "lib.inner.shift"}


ORACLES = Path(__file__).resolve().parent / "oracles.py"


def private_imports(path):
    """``module.name`` of each ``_``-prefixed name that the file imports from
    the package."""
    return {f"{node.module}.{alias.name}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "decoybb84"
            for alias in node.names if alias.name.startswith("_")}


def test_reference_oracles_share_no_private_code():
    # An oracle that calls the checked code's private helpers checks
    # nothing about them.
    assert private_imports(ORACLES) == set()


def test_private_import_scan(tmp_path):
    (tmp_path / "ref.py").write_text(
        "from decoybb84.decoy import ObservedRates, _clamp01\n"
        "from decoybb84 import _version\n"
        "from numpy import _core\n"
        "from .local import _helper\n")
    assert private_imports(tmp_path / "ref.py") == {"decoybb84.decoy._clamp01",
                                                    "decoybb84._version"}
