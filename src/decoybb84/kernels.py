"""Hot enumeration kernels, numpy-only, one function each.

* ``decode_table``, a breadth-first search over the n-cube that labels
  every received word with its nearest codeword,
* ``nearest_index``, one vectorized distance scan for a single word,
* ``toeplitz_image_counts``, the exact Toeplitz membership counts from the
  nullity of one small linear map per y-part,
* ``restricted_decode_flags``, the minimum-weight scans of the
  decoding-error verifier.

Ties go toward the lex-smallest codeword (coordinate 0 most significant):
``decode_table`` by the smallest index of a lex-sorted code,
``nearest_index`` by ``gf2.lex_key`` on whatever order it is given, and
``restricted_decode_flags`` by "first index wins" on lex-sorted candidates.
"""

from __future__ import annotations

import numpy as np

from .gf2 import _eliminate, lex_key, span_array

# 16-bit popcount lookup.
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


def toeplitz_image_counts(l: int, m: int) -> np.ndarray:
    """For every Z in F_2^(l+m): the number of seeds with Z in Im M_p^T.

    Z = (x, u) (x in the low m bits) lies in Im M_p^T iff x = X^T u.  For
    fixed u the map seed -> X^T u is linear: seed bit k adds u_(k-j) to
    coordinate j.  So Z is hit by 2^nullity seeds when x lies in the image
    of that map and by none otherwise; one elimination per u gives both.
    """
    n_seed = l + m - 1
    counts = np.zeros(1 << (l + m), dtype=np.int64)
    for u in range(1 << l):
        rev = int(format(u, f"0{l}b")[::-1], 2)  # u_i at bit l-1-i
        gens = [((rev << k) >> (l - 1)) & ((1 << m) - 1) for k in range(n_seed)]
        work, pivots = _eliminate(gens, m)
        r = len(pivots)
        counts[span_array(work[:r], dtype=np.int64) | (u << m)] = 1 << (n_seed - r)
    return counts


def restricted_decode_flags(cands: np.ndarray, good: np.ndarray,
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
