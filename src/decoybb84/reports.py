"""Report envelopes: every CLI run emits a manifest plus a payload.

A manifest records the command, tool version, seed and input paths, plus a
digest of the canonical payload JSON.  Identical manifests therefore imply
byte-identical reports, which the golden-file tests rely on.  Reports are
strict JSON: a NaN or infinite value raises ``ValueError`` instead of being
written as a non-standard token.

A payload holds plain values only: dicts, lists, tuples, strings, ints,
floats, bools, None, and ``Fraction``s, written as ``{"num", "den"}``.
Anything else, a numpy scalar or array included, raises ``TypeError``
naming its type; the caller converts its values before reporting them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

SCHEMA = "decoybb84/report-v1"
TOOL_VERSION = "0.1.0"


def _canonical(obj):
    """JSON-ready deep copy of a payload of plain values and ``Fraction``s."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"a report holds plain values only, not {type(obj).__name__}")


def payload_digest(payload: dict) -> str:
    """SHA-256 of a canonical payload's compact, key-sorted JSON."""
    blob = json.dumps(payload, sort_keys=True, allow_nan=False,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def build_report(command: str, payload: dict, seed: int | None = None,
                 config_paths: tuple[str, ...] = ()) -> dict:
    payload = _canonical(payload)
    manifest = {"command": command, "seed": seed, "config_paths": list(config_paths),
                "tool_version": TOOL_VERSION, "digest": payload_digest(payload)}
    return {"schema": SCHEMA, "manifest": manifest, "payload": payload}


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def to_text(report: dict) -> str:
    """Human-readable rendering: payload lines then a manifest footer."""
    lines: list[str] = []

    def emit(prefix: str, value):
        if isinstance(value, dict):
            if set(value) == {"num", "den"}:
                lines.append(f"{prefix} = {value['num']}/{value['den']}")
                return
            for k in value:
                emit(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            if all(not isinstance(v, (dict, list)) for v in value):
                lines.append(f"{prefix} = {','.join(str(v) for v in value)}")
            else:
                for i, v in enumerate(value):
                    emit(f"{prefix}[{i}]", v)
        else:
            lines.append(f"{prefix} = {value}")

    emit("", report["payload"])
    man = report["manifest"]
    lines.append("--")
    lines.append(f"manifest: command={man['command']} seed={man['seed']} "
                 f"version={man['tool_version']} digest={man['digest']}")
    return "\n".join(lines) + "\n"
