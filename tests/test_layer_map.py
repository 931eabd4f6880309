"""The benchmark's layer map still matches the package.

``perfbench/tracer.py`` wraps every binding its ``LAYER_MAP`` lists and stops
when a listed function or binding is gone, or when a module binds a traced
function the map does not list.  Installing and removing it here makes a
refactor that moves such a binding fail in the test suite, not only in a
traced benchmark run.  Its ``HOOKS`` read call arguments by name, so every
hook is also fired once here.  A module may import a name it never reads
only to bind it for the map, so each such import must be a binding the map
lists: one left behind when the map shrinks fails here.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np

from decoybb84 import bounds, cli, gf2, oracle, protocol
from decoybb84.channel import ChannelStrategy
from decoybb84.decoy import SourceDistribution
from decoybb84.gf2 import BitMatrix

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = ROOT / "src" / "decoybb84"


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


def test_every_hook_counts(tmp_path):
    # One call into each hooked layer: a desk session whose EC decode misses
    # the exact preimage and reaches kernels.nearest_index through the coset
    # search, a code-channel reduction, a decoding-grid config and
    # verify-toeplitz through the CLI.  A renamed argument that a hook reads
    # raises here.
    tracer_mod = load_tracer()
    cfg = protocol.SessionConfig(n=24, n_bar=24, n_under=2, n_prime=4000,
                                 nus=(SourceDistribution(0.0, 1.0, 0.0),), i0=1,
                                 p_bar=(0.1, 0.45, 0.45), rng_seed=0)
    strategy = ChannelStrategy(p_dark=0.001, q_vacuum=0.001, q_single=0.6,
                               q_multi_times=0.7, q_multi_plus=0.7,
                               single_error_times=(0.9, 0.03, 0.04, 0.03),
                               single_error_plus=(0.9, 0.03, 0.04, 0.03),
                               multi_flip_times=0.05, multi_flip_plus=0.05)
    m_e = BitMatrix.from_row_ints(6, 3, (1, 2, 4, 3, 5, 6))
    m_p = BitMatrix.from_row_ints(1, 3, (1,))
    site = {(0, 0): 0.7, (0, 1): 0.1, (1, 0): 0.1, (1, 1): 0.1}
    with tracer_mod.Tracer() as tracer:
        protocol.run_session(cfg, strategy)
        oracle.reduce_code_channel([site] * 6, m_e, m_p)
        bounds.verify_proposition_decoding(1, 4, 1, 2, 5, 3, rng=np.random.default_rng(0))
        assert cli.main(["--format", "json", "--out", str(tmp_path / "toeplitz.json"),
                         "verify-toeplitz", "--l", "3", "--m", "3"]) == 0
    assert set(tracer_mod.HOOKS) <= {tracer_mod.SPAN_NAMES[i] for i in tracer.name}
    assert {key: tracer.counts.get(key, 0) > 0 for key in tracer_mod.COUNTERS} \
        == dict.fromkeys(tracer_mod.COUNTERS, True)


def unread_imports(src):
    """(module, name) of each name a module imports and never reads.  The
    package's ``__init__`` imports to export, and ``__future__`` imports
    bind nothing that is read."""
    unread = set()
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                unread |= {(path.stem, name) for alias in node.names
                           if (name := alias.asname or alias.name.split(".")[0]) not in read}
    return unread


def test_unread_imports_are_listed_bindings():
    listed = {(module, func) for _, func, binders in load_tracer().LAYER_MAP
              for module in binders}
    assert unread_imports(SRC) - listed == set()
