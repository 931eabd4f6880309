"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tracer_mod  # noqa: E402
from workloads import PARTS, WORKLOADS, timed_op  # noqa: E402


def _corrupt(name: str, refs: dict, op) -> None:
    """Change one stored reference value of ``op``."""
    if name == "session-desk":
        refs["records"][op.key][2][4] = "24:0"          # Alice's + key
    elif name == "decoding-grid":
        refs["records"][str(op.key)][7] += 1             # n_seeds
    elif name == "code-reduction":
        refs["records"][op.key][0] += 1e-9               # p_ph, beyond the 1e-12 tolerance
    else:
        refs["digests"][op.key] = "0" * 64


@pytest.mark.parametrize("name", sorted(PARTS))
def test_corrupted_reference_fails_the_op(name):
    wl = PARTS[name]()
    op = wl.smallest()
    try:
        assert timed_op(wl, op)[1] is None
        refs = copy.deepcopy(wl.refs)
        _corrupt(name, refs, op)
        wl.refs = refs
        assert timed_op(wl, op)[1] is not None
    finally:
        wl.close()


def test_an_exception_fails_the_op():
    wl = WORKLOADS["session-desk"]()
    op = wl.smallest()
    op.inputs.decode_guard = 1 << 4     # every exhaustive decode overflows its guard
    elapsed, reason = timed_op(wl, op)
    assert reason is not None and "CapacityError" in reason


def test_layer_map_names_a_missing_function(monkeypatch):
    import decoybb84.gf2 as gf2
    import decoybb84.protocol as protocol
    monkeypatch.delattr(protocol, "solve")
    with pytest.raises(tracer_mod.LayerMapError, match=r"gf2\.solve: decoybb84\.protocol\.solve"):
        tracer_mod.Tracer().install()
    assert gf2.rank.__module__ == "decoybb84.gf2" and not hasattr(gf2.rank, "__wrapped__")


def test_layer_map_names_an_unwrapped_binding(monkeypatch):
    import decoybb84.gf2 as gf2
    import decoybb84.rates as rates
    monkeypatch.setattr(rates, "rank_alias", gf2.rank, raising=False)
    with pytest.raises(tracer_mod.LayerMapError, match=r"gf2\.rank: binding decoybb84\.rates"):
        tracer_mod.Tracer().install()
    assert not hasattr(gf2.rank, "__wrapped__")


def test_traced_pass_counts_repeat_and_nest():
    wl = WORKLOADS["session-desk"]()
    tr = tracer_mod.Tracer()
    results = []
    for _ in range(2):
        first = tr.mark()
        with tr:
            for op in wl.trace_list(0)[:2]:
                assert timed_op(wl, op)[1] is None
        results.append(tr.pass_metrics(first))
    (times, counts, present), (_, counts2, _) = results
    assert counts == counts2
    assert counts["protocol.ec.codewords"] == counts["kernels.nearest_index.codewords"] > 0
    assert "kernels.decode_table" not in present and "protocol.run_session" in present
    assert 0 < times["protocol.run_session.self_s"] < times["protocol.run_session.s"]
    import decoybb84.protocol as protocol
    assert not hasattr(protocol.run_session, "__wrapped__")


def test_smoke_emits_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "all metrics emitted with their units" in proc.stdout


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                             "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
