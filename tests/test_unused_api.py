"""``src/decoybb84`` holds no public function, class or method that nothing calls.

The package is parsed with ``ast``.  A public module-level function or class
counts as used when some module of ``src/`` reads its name, or when the
package's ``__init__`` exports it.  A public method counts as used when
``src/`` reads an attribute of its name.  Everything else must be on the
allowlist, with the reason it stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "decoybb84"

ALLOWLIST = {
    "oracle.dense_mutual_information": "dense density-matrix cross-check of the block formulas",
    "oracle.dense_fidelity": "dense density-matrix cross-check of the block formulas",
    "oracle.dense_trace_norm": "dense density-matrix cross-check of the block formulas",
    "hashing.random_matrix_universality_profile": "exact profile of the random family",
    "gf2.solve": "the preimage view of the (M | I) reduction; the benchmark traces it",
    "gf2.parity_checks": "the check view of the (M | I) reduction, for callers outside the package",
    "gf2.BitMatrix.from_rows": "matrix from 0/1 rows, for callers outside the package",
    "gf2.BitMatrix.from_row_ints": "matrix from packed rows; the benchmark builds its codes so",
    "gf2.BitMatrix.identity": "identity matrix, for callers outside the package",
    "gf2.BitVector.weight": "Hamming weight, for callers outside the package",
}


def public_definitions(tree):
    """(qualified name, bare name) of each public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name


def unused_definitions(src):
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = {alias.asname or alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {f"{module}.{qual}" for module, tree in trees.items()
            for qual, name in public_definitions(tree)
            if name not in read and qual not in exported}


def test_every_public_name_is_used_or_allowlisted():
    assert unused_definitions(SRC) == set(ALLOWLIST)


def test_every_allowlist_entry_has_a_reason():
    assert all(reason.strip() for reason in ALLOWLIST.values())
