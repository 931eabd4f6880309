"""Report envelopes: every CLI run emits a manifest plus a payload.

A manifest records the command, tool version, seed and input paths, plus a
digest of the canonical payload JSON.  Identical manifests therefore imply
byte-identical reports, which the golden-file tests rely on.  Reports are
strict JSON: a NaN or infinite value raises ``ValueError`` instead of being
written as a non-standard token.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

SCHEMA = "decoybb84/report-v1"
TOOL_VERSION = "0.1.0"


def _canonical(obj):
    """JSON-safe deep copy with deterministic ordering-friendly types."""
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    if hasattr(obj, "__dict__"):
        return _canonical(vars(obj))
    return str(obj)


def payload_digest(payload: dict) -> str:
    blob = json.dumps(_canonical(payload), sort_keys=True, allow_nan=False,
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class RunManifest:
    command: str
    seed: int | None
    config_paths: tuple[str, ...]
    tool_version: str
    digest: str


def build_report(command: str, payload: dict, seed: int | None = None,
                 config_paths: tuple[str, ...] = ()) -> dict:
    payload = _canonical(payload)
    manifest = RunManifest(command=command, seed=seed,
                           config_paths=tuple(config_paths),
                           tool_version=TOOL_VERSION,
                           digest=payload_digest(payload))
    return {"schema": SCHEMA, "manifest": _canonical(manifest), "payload": payload}


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
