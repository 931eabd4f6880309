"""Independent brute-force oracles shared by the tests.

Each one restates a definition directly, with no call into the code paths
it checks: the library decodes and counts from structure, these enumerate.
"""

from typing import Mapping, Sequence

import numpy as np

from decoybb84.errors import CapacityError, DimensionMismatch
from decoybb84.gf2 import BitVector, lex_order
from decoybb84.hashing import ToeplitzHash
from decoybb84.kernels import decode_table
from decoybb84.oracle import PauliErrorDistribution


def min_distance_decode(received: BitVector, codewords: Sequence[BitVector],
                        guard: int = 1 << 20) -> BitVector:
    """Codeword at minimum Hamming distance from ``received``.

    Ties are broken by the lexicographically smallest codeword.  Exhaustive
    by design; refuses codes larger than ``guard``.
    """
    if not codewords:
        raise ValueError("empty code")
    if len(codewords) > guard:
        raise CapacityError(f"code size {len(codewords)} exceeds guard {guard}")
    n = received.length
    best = None
    best_dist = n + 1
    best_key = None
    for c in codewords:
        if c.length != n:
            raise DimensionMismatch("codeword length differs from received word")
        d = (c.bits ^ received.bits).bit_count()
        if d < best_dist:
            best, best_dist, best_key = c, d, None
        elif d == best_dist:
            if best_key is None:
                best_key = best.lex_key()
            k = c.lex_key()
            if k < best_key:
                best, best_key = c, k
    return best


def transpose_image_membership(h: ToeplitzHash, z: BitVector) -> bool:
    """True iff z = (x, y) lies in Im M_p^T, i.e. x = X^T y."""
    if z.length != h.l + h.m:
        raise DimensionMismatch("z must have length l+m")
    x_part = z.bits & ((1 << h.m) - 1)
    y_part = z.bits >> h.m
    acc = 0
    for i in range(h.l):
        if (y_part >> i) & 1:
            acc ^= (h.seed.bits >> i) & ((1 << h.m) - 1)
    return acc == x_part


def per_shift_transitions(words: np.ndarray, labels: np.ndarray, n: int, n_lab: int,
                          shifts: Sequence[tuple[int, int]]) -> np.ndarray:
    """Row e: the law of label(decode(e ^ s)) ^ label_s over the listed
    shifts (s, label_s), one ``bincount`` pass per shift.

    It checks the averaging of ``oracle._label_transitions``, so it shares
    that routine's decoder: the code is lex-sorted, then ``decode_table``.
    """
    order = lex_order(words, n)
    dec = labels[order][decode_table(words[order], n)].astype(np.int64)
    es = np.arange(1 << n, dtype=np.int64)
    table = np.zeros((1 << n) * n_lab)
    for s, label in shifts:
        table += np.bincount(es * n_lab + (dec[es ^ s] ^ label), minlength=len(table))
    return table.reshape(1 << n, n_lab) / len(shifts)


def pauli_from_dict(l: int, entries: Mapping[tuple[int, int], float]) -> PauliErrorDistribution:
    """The l-bit logical law with probability ``entries[(x, z)]`` at (x, z)."""
    p = np.zeros((1 << l, 1 << l))
    for (x, z), v in entries.items():
        p[x, z] = v
    return PauliErrorDistribution(l, p)
