"""Hot enumeration kernels.

The exhaustive loops that dominate runtime live here.  Two decode kernels
are numpy-only structural algorithms, one function each:

* ``decode_table``, a breadth-first search over the n-cube that labels
  every received word with its nearest codeword,
* ``nearest_index``, one vectorized distance scan for a single word.

Both break ties toward the lex-smallest codeword (coordinate 0 most
significant): ``decode_table`` by the smallest index of a lex-sorted code,
``nearest_index`` by ``gf2.lex_key`` on whatever order it is given.

The Toeplitz image counting over all seeds and the restricted
minimum-weight scans of the decoding-error verifier (and the popcount they
share) have two implementations each:

* ``*_numba``, an ``@njit`` loop (compiled lazily on first call),
* ``*_numpy``, a vectorized fallback with identical results.

Their active backend is numba when importable, unless the environment
variable ``DECOYBB84_NO_NUMBA=1`` is set, in which case the numpy path is
used.  Both paths stay importable so the parity tests can compare them.
``restricted_decode_flags`` expects lex-sorted candidates; "first index
wins" then implements the package-wide lexicographic tie-break.
"""

from __future__ import annotations

import os

import numpy as np

from .gf2 import lex_key

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is an optional extra
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get("DECOYBB84_NO_NUMBA", "") != "1"

# 16-bit popcount lookup shared by both backends.
_POP16 = (
    (np.arange(1 << 16, dtype=np.uint32)[:, None] >> np.arange(16, dtype=np.uint32)[None, :]) & 1
).sum(axis=1).astype(np.uint8)

_U16 = np.uint64(16)
_U32 = np.uint64(32)
_U48 = np.uint64(48)
_MASK16 = np.uint64(0xFFFF)


def popcount64_numpy(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array."""
    x = np.asarray(x, dtype=np.uint64)
    return (
        _POP16[(x & _MASK16).astype(np.intp)].astype(np.int64)
        + _POP16[((x >> _U16) & _MASK16).astype(np.intp)]
        + _POP16[((x >> _U32) & _MASK16).astype(np.intp)]
        + _POP16[(x >> _U48).astype(np.intp)]
    )


def decode_table(code: np.ndarray, n_bits: int) -> np.ndarray:
    """Index of the nearest codeword for every received word in F_2^n.

    Ties go to the smallest index, which is the lex-smallest nearest
    codeword when ``code`` is lex-sorted.  A multi-source breadth-first
    search over the n-cube: every codeword starts labelled with its index,
    and a word at distance d+1 from the code takes the smallest label among
    its neighbours at distance d: their nearest codewords, taken together,
    are exactly its own.  Costs O(n 2^n radius) and needs no linearity.
    """
    code = np.asarray(code, dtype=np.int64)
    if code.size == 0:
        raise ValueError("empty code")
    size = 1 << n_bits
    none = np.iinfo(np.uint32).max
    out = np.full(size, none, dtype=np.uint32)
    words, first = np.unique(code, return_index=True)
    out[words] = first
    best = np.empty_like(out)
    for _ in range(n_bits):  # no word lies farther than n_bits from the code
        todo = out == none
        if not todo.any():
            break
        best.fill(none)
        for b in range(n_bits):
            # Seen in blocks of 2^(b+1), y ^ 2^b swaps the two halves of y's block.
            blocks = (-1, 2, 1 << b)
            best_blocks = best.reshape(blocks)
            np.minimum(best_blocks, out.reshape(blocks)[:, ::-1], out=best_blocks)
        out[todo] = best[todo]
    return out


def nearest_index(code: np.ndarray, y: int, n_bits: int) -> int:
    """Index of the codeword nearest to a single received word.

    Ties go to the lex-smallest codeword, whatever the order of ``code``.
    """
    code = np.asarray(code, dtype=np.uint64)
    dist = popcount64_numpy(code ^ np.uint64(y))
    tied = np.flatnonzero(dist == dist.min())
    return int(min(tied, key=lambda i: lex_key(int(code[i]), n_bits)))


def toeplitz_image_counts_numpy(l: int, m: int) -> np.ndarray:
    """For every Z in F_2^(l+m): the number of seeds with Z in Im M_p^T.

    The image of the transposed hash matrix is {(X^T u, u) : u in F_2^l};
    X^T u is accumulated over a Gray-code walk of u, one seed-array XOR per
    step.  Seeds are enumerated exhaustively (all 2^(l+m-1)).
    """
    n_seeds = 1 << (l + m - 1)
    mask = np.uint64((1 << m) - 1)
    seeds = np.arange(n_seeds, dtype=np.uint64)
    counts = np.zeros(1 << (l + m), dtype=np.int64)
    x = np.zeros(n_seeds, dtype=np.uint64)
    counts[0] = n_seeds  # u = 0 puts Z = 0 in the image for every seed
    gray_prev = 0
    for i in range(1, 1 << l):
        gray = i ^ (i >> 1)
        flip = (gray ^ gray_prev).bit_length() - 1
        x ^= (seeds >> np.uint64(flip)) & mask
        z = x | np.uint64(gray << m)
        counts += np.bincount(z.astype(np.int64), minlength=1 << (l + m))
        gray_prev = gray
    return counts


def restricted_decode_flags_numpy(cands: np.ndarray, good: np.ndarray,
                                  mask1: int, ys: np.ndarray) -> np.ndarray:
    """Decode each y by minimum weight on the masked coordinates only.

    ``cands`` is the (lex-sorted) candidate array, ``good[i]`` marks
    candidates whose decoding counts as success.  Returns 1 where decoding
    fails (first-minimum tie-break).
    """
    cands = np.asarray(cands, dtype=np.uint64)
    ys = np.asarray(ys, dtype=np.uint64)
    good = np.asarray(good, dtype=np.uint8)
    out = np.empty(len(ys), dtype=np.uint8)
    chunk = max(1, (1 << 22) // max(len(cands), 1))
    m1 = np.uint64(mask1)
    for s in range(0, len(ys), chunk):
        block = (ys[s:s + chunk, None] ^ cands[None, :]) & m1
        idx = np.argmin(popcount64_numpy(block), axis=1)
        out[s:s + chunk] = 1 - good[idx]
    return out


if HAVE_NUMBA:

    @njit(cache=True)
    def _popcount64_scalar(x, table):
        return (
            np.int64(table[x & np.uint64(0xFFFF)])
            + np.int64(table[(x >> np.uint64(16)) & np.uint64(0xFFFF)])
            + np.int64(table[(x >> np.uint64(32)) & np.uint64(0xFFFF)])
            + np.int64(table[x >> np.uint64(48)])
        )

    @njit(cache=True)
    def _popcount64_arr(x, table, out):
        for i in range(x.size):
            out[i] = _popcount64_scalar(x[i], table)

    @njit(cache=True)
    def _toeplitz_image_counts(l, m, counts):
        n_seeds = 1 << (l + m - 1)
        mask = np.uint64((1 << m) - 1)
        for s in range(n_seeds):
            seed = np.uint64(s)
            x = np.uint64(0)
            gray_prev = 0
            counts[0] += 1
            for i in range(1, 1 << l):
                gray = i ^ (i >> 1)
                flip = gray ^ gray_prev
                b = 0
                while flip > 1:
                    flip >>= 1
                    b += 1
                x ^= (seed >> np.uint64(b)) & mask
                counts[np.int64(x) | (gray << m)] += 1
                gray_prev = gray

    @njit(cache=True)
    def _restricted_decode_flags(cands, good, mask1, ys, table, out):
        for i in range(ys.size):
            y = ys[i]
            best = np.int64(65)
            arg = 0
            for j in range(cands.size):
                d = _popcount64_scalar((cands[j] ^ y) & mask1, table)
                if d < best:
                    best = d
                    arg = j
            out[i] = 1 - good[arg]

    def popcount64_numba(x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.uint64)
        out = np.empty(x.shape, dtype=np.int64)
        _popcount64_arr(x.ravel(), _POP16, out.ravel())
        return out

    def toeplitz_image_counts_numba(l: int, m: int) -> np.ndarray:
        counts = np.zeros(1 << (l + m), dtype=np.int64)
        _toeplitz_image_counts(l, m, counts)
        return counts

    def restricted_decode_flags_numba(cands, good, mask1, ys) -> np.ndarray:
        cands = np.ascontiguousarray(cands, dtype=np.uint64)
        good = np.ascontiguousarray(good, dtype=np.uint8)
        ys = np.ascontiguousarray(ys, dtype=np.uint64)
        out = np.empty(len(ys), dtype=np.uint8)
        _restricted_decode_flags(cands, good, np.uint64(mask1), ys, _POP16, out)
        return out

else:  # pragma: no cover - exercised only when numba is absent
    popcount64_numba = None
    toeplitz_image_counts_numba = None
    restricted_decode_flags_numba = None


if USE_NUMBA:
    popcount64 = popcount64_numba
    toeplitz_image_counts = toeplitz_image_counts_numba
    restricted_decode_flags = restricted_decode_flags_numba
    BACKEND = "numba"
else:
    popcount64 = popcount64_numpy
    toeplitz_image_counts = toeplitz_image_counts_numpy
    restricted_decode_flags = restricted_decode_flags_numpy
    BACKEND = "numpy"
