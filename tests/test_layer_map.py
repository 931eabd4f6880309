"""The benchmark's layer map still matches the package.

``perfbench/tracer.py`` wraps every binding its ``LAYER_MAP`` lists and stops
when a listed function or binding is gone, or when a module binds a traced
function the map does not list.  Installing and removing it here makes a
refactor that moves such a binding fail in the test suite, not only in a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

from decoybb84 import gf2, protocol

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    solve = gf2.solve
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert protocol.solve is gf2.solve is not solve
        assert protocol.solve.__wrapped__ is solve
    finally:
        tracer.uninstall()
    assert protocol.solve is gf2.solve is solve
    assert protocol.rank is gf2.rank and protocol.mat_vec_mul is gf2.mat_vec_mul
