"""Decode kernels against brute force; numba kernels against their numpy fallbacks."""

import numpy as np
import pytest

from decoybb84 import kernels
from decoybb84.gf2 import lex_key, lex_order


requires_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA,
                                    reason="numba not importable")


def test_popcount_numpy_matches_python():
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 1 << 63, size=300, dtype=np.uint64)
    got = kernels.popcount64_numpy(xs)
    want = [int(x).bit_count() for x in xs]
    assert got.tolist() == want


@requires_numba
def test_popcount_backends_agree():
    rng = np.random.default_rng(1)
    xs = rng.integers(0, 1 << 63, size=500, dtype=np.uint64)
    assert kernels.popcount64_numba(xs).tolist() == \
        kernels.popcount64_numpy(xs).tolist()


def _brute_nearest(code, y, n_bits):
    """Index of the nearest codeword, ties to the lex-smallest, by plain Python."""
    return min(range(len(code)),
               key=lambda i: ((int(code[i]) ^ y).bit_count(), lex_key(int(code[i]), n_bits)))


def _random_lex_sorted_code(rng, n_bits, size):
    code = np.unique(rng.integers(0, 1 << n_bits, size=size, dtype=np.uint64))
    return code[lex_order(code, n_bits)]


def test_decode_table_matches_brute_force():
    # Random word sets are non-linear; sizes run from a one-word code to dense codes.
    rng = np.random.default_rng(2)
    for n_bits in range(1, 11):
        for size in (1, 2, 5, 1 << (n_bits // 2), 1 << (n_bits - 1)):
            code = _random_lex_sorted_code(rng, n_bits, size)
            table = kernels.decode_table(code, n_bits)
            want = [_brute_nearest(code, y, n_bits) for y in range(1 << n_bits)]
            assert table.tolist() == want, (n_bits, code.tolist())


def test_decode_table_first_minimum_wins():
    code = np.array([0b00, 0b11], dtype=np.uint64)
    table = kernels.decode_table(code, 2)
    # 0b01 is at distance 1 from both; the first (index 0) must win.
    assert table[0b01] == 0 and table[0b10] == 0


def test_decode_table_rejects_empty_code():
    with pytest.raises(ValueError):
        kernels.decode_table(np.array([], dtype=np.uint64), 3)


def test_nearest_index_matches_brute_force():
    rng = np.random.default_rng(3)
    for n_bits in (4, 8, 12):
        code = np.unique(rng.integers(0, 1 << n_bits, size=50, dtype=np.uint64))
        rng.shuffle(code)
        for y in rng.integers(0, 1 << n_bits, size=40).tolist():
            assert kernels.nearest_index(code, y, n_bits) == _brute_nearest(code, y, n_bits)


def test_nearest_index_tie_goes_to_lex_smallest_on_unsorted_input():
    # 0b0001 is the tuple (1,0,0,0) and 0b1000 is (0,0,0,1): both lie at
    # distance 1 from 0, and (0,0,0,1) is lex-smaller though listed last.
    code = np.array([0b0001, 0b0110, 0b1000], dtype=np.uint64)
    assert kernels.nearest_index(code, 0, 4) == 2
    assert kernels.nearest_index(code[::-1], 0, 4) == 0


@requires_numba
def test_toeplitz_counts_backends_agree():
    for l, m in ((1, 1), (2, 2), (3, 2), (4, 3)):
        a = kernels.toeplitz_image_counts_numpy(l, m)
        b = kernels.toeplitz_image_counts_numba(l, m)
        assert np.array_equal(a, b)


def test_toeplitz_counts_brute_force():
    # Independent oracle: realize every matrix and enumerate its row space.
    l, m = 2, 2
    width = l + m
    counts = np.zeros(1 << width, dtype=np.int64)
    for seed in range(1 << (l + m - 1)):
        rows = []
        for i in range(l):
            row = 0
            for j in range(m):
                row |= ((seed >> (i + j)) & 1) << j
            row |= 1 << (m + i)
            rows.append(row)
        span = {0}
        for r in rows:
            span |= {s ^ r for s in span}
        for z in span:
            counts[z] += 1
    assert np.array_equal(counts, kernels.toeplitz_image_counts_numpy(l, m))


@requires_numba
def test_restricted_decode_backends_agree():
    rng = np.random.default_rng(4)
    cands = np.unique(rng.integers(0, 1 << 10, size=30, dtype=np.uint64))
    good = rng.integers(0, 2, size=len(cands)).astype(np.uint8)
    ys = rng.integers(0, 1 << 10, size=64, dtype=np.uint64)
    mask1 = 0b1111100
    a = kernels.restricted_decode_flags_numpy(cands, good, mask1, ys)
    b = kernels.restricted_decode_flags_numba(cands, good, mask1, ys)
    assert np.array_equal(a, b)


def test_env_flag_selects_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # The child must import the same copy of the package as this process,
    # installed or not, so its parent directory goes first on PYTHONPATH.
    pkg_root = str(Path(kernels.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "DECOYBB84_NO_NUMBA"}
    base["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, base.get("PYTHONPATH")) if p)

    def run_child(env):
        out = subprocess.run(
            [sys.executable, "-c",
             "import decoybb84.kernels as k; print(k.BACKEND)"],
            env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        return out

    out = run_child({**base, "DECOYBB84_NO_NUMBA": "1"})
    assert out.stdout.strip() == "numpy"
    # Without the flag the backend follows numba's availability, so on a
    # machine with numba the flag is what selected numpy above.
    out = run_child(base)
    assert out.stdout.strip() == ("numba" if kernels.HAVE_NUMBA else "numpy")
