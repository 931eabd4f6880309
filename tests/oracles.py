"""Independent brute-force oracles shared by the tests.

Each one restates a definition directly, with no call into the code paths
it checks: the library decodes and counts from structure, these enumerate.
The two channel samplers at the end are the earlier per-group code, kept
verbatim: the library's samplers must make the same draws.
"""

from typing import Mapping, Sequence

import numpy as np

from decoybb84.channel import (DARK, MULTI, NORMAL, PLUS, SINGLE, TIMES, UNDETECTED, VACUUM,
                               ChannelStrategy)
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


def sample_detection(strategy: ChannelStrategy, cls: np.ndarray, basis: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Detection tag per pulse from one uniform draw each.

    A draw below the class's yield q is a normal count, one in the next
    ``p_dark`` a dark count, anything above undetected.
    """
    q = np.select([cls == VACUUM, cls == SINGLE, basis == TIMES],
                  [strategy.q_vacuum, strategy.q_single, strategy.q_multi_times],
                  strategy.q_multi_plus)
    u = rng.random(len(cls))
    det = np.full(len(cls), UNDETECTED, dtype=np.int8)
    det[u < q] = NORMAL
    det[(u >= q) & (u < q + strategy.p_dark)] = DARK
    return det


def sample_flips(strategy: ChannelStrategy, cls: np.ndarray, det: np.ndarray,
                 basis: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Bit flips ``x`` and phase flips ``z`` of the normal-count photons.

    Draws, each skipped when its group is empty: the single-photon laws in
    the + then the x basis (one law index 2x + z per pulse), then the
    multi-photon bit flips in the + then the x basis.  Every other pulse
    gets ``x = z = 0``.
    """
    x = np.zeros(len(cls), dtype=np.int8)
    z = np.zeros(len(cls), dtype=np.int8)
    normal = det == NORMAL
    for b, law in ((PLUS, strategy.single_error_plus),
                   (TIMES, strategy.single_error_times)):
        mask = normal & (cls == SINGLE) & (basis == b)
        cnt = int(mask.sum())
        if cnt:
            idx = rng.choice(4, size=cnt, p=np.asarray(law))
            x[mask] = idx >> 1
            z[mask] = idx & 1
    for b, p_flip in ((PLUS, strategy.multi_flip_plus),
                      (TIMES, strategy.multi_flip_times)):
        mask = normal & (cls == MULTI) & (basis == b)
        cnt = int(mask.sum())
        if cnt:
            x[mask] = rng.random(cnt) < p_flip
    return x, z
