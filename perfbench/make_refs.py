"""Write the stored references in ``refs/`` from the library as it is now.

Run from the repository root:  python3 perfbench/make_refs.py [workload ...]

The references pin the outputs of the commit that defined the benchmark;
later changes are checked against them.  Regenerate them only when a change
is meant to alter outputs, and say so in that change.  The script stops if
any op raises, since the benchmark's workloads must not fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import PARTS, REFS_DIR  # noqa: E402


def _dump(path: Path, head: dict, key: str, records) -> None:
    """JSON with one record per line, so a diff shows which record moved."""
    lines = [json.dumps(head)[:-1] + f', "{key}": ' + ("[" if isinstance(records, list) else "{")]
    if isinstance(records, list):
        body = [json.dumps(r) for r in records]
    else:
        body = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in records.items()]
    lines.append(",\n".join(body))
    lines.append("]}" if isinstance(records, list) else "}}")
    path.write_text("\n".join(lines) + "\n")


def build(name: str) -> None:
    wl = PARTS[name](refs={})
    records = {}
    for op in wl.inputs(0):
        if op.key not in records:
            records[op.key] = wl.record(op, wl.call(wl.prepare(op)))
    wl.close()
    head = {"workload": name}
    if name == "toeplitz-verify":
        if any(rc != 0 for rc, _ in records.values()):
            raise SystemExit("verify-toeplitz exited non-zero")
        _dump(REFS_DIR / f"{name}.json", head, "digests", {k: v[1] for k, v in records.items()})
    elif name == "decoding-grid":
        _dump(REFS_DIR / f"{name}.json", head, "records", {str(k): v for k, v in records.items()})
    else:
        _dump(REFS_DIR / f"{name}.json", head, "records", [records[k] for k in sorted(records)])


def main(argv: list[str]) -> int:
    REFS_DIR.mkdir(exist_ok=True)
    for name in argv or list(PARTS):
        build(name)
        print(f"wrote {REFS_DIR / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
