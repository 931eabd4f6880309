"""Hot enumeration kernels, numpy-only, one function each.

* ``decode_table``, a min-plus sweep over the n-cube, one pass per bit,
  that maps every received word to its nearest codeword in O(n 2^n):
  Hamming distance is the L1 distance on {0,1}^n, whose distance
  transform separates by coordinate (Rosenfeld & Pfaltz, J. ACM 13, 1966),
  so the sweep is exact,
* ``nearest_index``, one vectorized distance scan for a single word,
* ``least_weight_errors``, the error patterns of least weight with a given
  syndrome, from a walk over the patterns by weight,
* ``toeplitz_image_counts``, the rank and image basis of one small linear
  map per y-part, all reduced by one batched Gaussian elimination over
  blocks of y-parts under a fixed word budget; ``expand_image_counts``
  turns them into the exact Toeplitz membership count of every Z,
* ``restricted_decode_flags``, the minimum-weight decodes of the
  decoding-error verifier for all hash seeds and error patterns at once,
  from one table of coset leaders per seed (MacWilliams & Sloane, ch. 1).

The two codeword decoders share one tie rule, the lex-smallest nearest
codeword (coordinate 0 most significant), for a code in any order,
repeats allowed: ``decode_table`` returns that codeword and
``nearest_index`` its index.  ``restricted_decode_flags`` breaks ties by
``gf2.lex_key`` of the error estimate y ^ c, not of c, so its decode
depends only on the syndrome of y.
"""

from __future__ import annotations

import math

import numpy as np

from .gf2 import lex_key, lex_keys, span_array

# Array words per block of y-parts in toeplitz_image_counts and
# expand_image_counts and of seeds in restricted_decode_flags: a bound on
# the working set, not on the results.
_BLOCK_WORDS = 1 << 14


def decode_table(code: np.ndarray, n_bits: int) -> np.ndarray:
    """The nearest codeword to every received word in F_2^n.

    Ties go to the lex-smallest nearest codeword; ``code`` may come in any
    order and repeat words.  A min-plus sweep, one pass per bit (Rosenfeld
    & Pfaltz, J. ACM 13, 1966): each word holds the pair (distance, lex key
    of a codeword) packed in one int64, codewords start at (0, their own
    key) and every other word above all of them.  Hamming distance is the
    sum of per-bit distances, so after the pass over bit b each word holds
    the least pair over the codewords that agree with it above bit b, and
    after the last pass the least over the whole code.  A lex key is its
    own inverse, so the key table maps the winning keys back to codewords.
    Costs O(n 2^n) whatever the covering radius and needs no linearity.
    """
    code = np.asarray(code, dtype=np.int64)
    if code.size == 0:
        raise ValueError("empty code")
    keys = lex_keys(n_bits)
    t = np.full(1 << n_bits, np.int64((n_bits + 1) << 32))  # (distance << 32) | key
    t[code] = keys[code]  # a repeated word writes the same pair
    for b in range(n_bits):
        # Seen in blocks of 2^(b+1), y ^ 2^b swaps the two halves of y's block.
        blocks = t.reshape(-1, 2, 1 << b)
        np.minimum(blocks, blocks[:, ::-1] + np.int64(1 << 32), out=blocks)
    t &= 0xFFFFFFFF  # in place: a fresh array would hold one more 2^n table
    return keys[t]


def nearest_index(code: np.ndarray, y: int, n_bits: int) -> int:
    """Index of the codeword nearest to a single received word.

    Ties go to the lex-smallest codeword, whatever the order of ``code``.
    """
    code = np.asarray(code, dtype=np.uint64)
    dist = np.bitwise_count(code ^ np.uint64(y))
    tied = np.flatnonzero(dist == dist.min())
    return int(min(tied, key=lambda i: lex_key(int(code[i]), n_bits)))


def least_weight_errors(unit: np.ndarray, syndrome: int, budget: int) -> np.ndarray | None:
    """Every error pattern of least weight whose syndrome is ``syndrome``.

    ``unit[j]`` is the syndrome of bit j alone; syndromes add by XOR.  The
    patterns are walked by weight, each weight in colex order: those of
    weight w+1 with top bit j are the first C(j, w) patterns of weight w
    with bit j set.  Returns None, before building a weight, when the
    patterns up to it would number more than ``budget``.
    """
    if syndrome == 0:
        return np.zeros(1, dtype=np.uint64)
    n = len(unit)
    ball = 1 + n
    if ball > budget:
        return None
    bits = np.uint64(1) << np.arange(n, dtype=np.uint64)
    unit = np.asarray(unit, dtype=np.uint64)
    pats, syns = bits, unit  # weight 1
    below = np.arange(n)  # C(j, w): the patterns of weight w under bit j
    for w in range(1, n + 1):
        hit = np.flatnonzero(syns == syndrome)
        if hit.size:
            return pats[hit]
        size = math.comb(n, w + 1)
        ball += size
        if ball > budget:
            return None
        starts = np.array([math.comb(j, w + 1) for j in range(n)])  # sum of below[:j]
        src = np.arange(size)
        src -= np.repeat(starts, below)  # the pattern of weight w each one extends
        pats, syns = pats.take(src), syns.take(src)
        del src  # at most three arrays of the new weight at a time
        pats |= np.repeat(bits, below)
        syns ^= np.repeat(unit, below)
        below = starts
    return None


def toeplitz_image_counts(l: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and reduced image basis of seed -> X^T u for every y-part u.

    Z = (x, u) (x in the low m bits) lies in Im M_p^T iff x = X^T u.  For
    fixed u the map seed -> X^T u is linear: seed bit k adds u_(k-j) to
    coordinate j.  So Z is hit by 2^(l+m-1-rank[u]) seeds when x lies in the
    span of ``basis[:, u]`` and by none otherwise (``expand_image_counts``).
    One Gaussian elimination over a block of u at a time gives every image
    and rank: per column c, each u picks its first generator with bit c as
    pivot, ``basis[c, u]`` (0 when none has it), and clears the bit from all
    its generators, so ``basis[c, u]`` has no bit below c.
    """
    n_seed = l + m - 1
    rev = lex_keys(l)[:, None]  # u_i at bit l-1-i
    shifts = np.arange(n_seed)
    basis = np.zeros((m, 1 << l), dtype=np.min_scalar_type((1 << m) - 1))  # m-bit words
    # A block's generators (l+m-1 words per u) stay near _BLOCK_WORDS.
    step = max(1, _BLOCK_WORDS // max(n_seed, 1))
    for u0 in range(0, 1 << l, step):
        # Generator k (seed bit k's effect on X^T u) is bits l-1 .. l+m-2 of
        # the reversed u shifted up by k.
        gens = (rev[u0:u0 + step] << shifts) >> (l - 1) & ((1 << m) - 1)
        rows = np.arange(len(gens))
        for c in range(m):
            has = gens >> c & 1
            pivot = has.argmax(axis=1)
            word = gens[rows, pivot] * has[rows, pivot]
            basis[c, u0:u0 + step] = word
            # The pivot clears itself too, so it drops out of later columns.
            gens ^= has * word[:, None]
    return np.count_nonzero(basis, axis=0), basis


def expand_image_counts(l: int, m: int, rank: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """For every Z in F_2^(l+m): the number of seeds with Z in Im M_p^T,
    from ``toeplitz_image_counts``'s ranks and bases."""
    n_seed = l + m - 1
    counts = np.zeros(1 << (l + m), dtype=np.int64)
    # A block's spans (2^m words per u) stay near _BLOCK_WORDS.
    step = max(1, _BLOCK_WORDS >> max(m, 4))
    for u0 in range(0, 1 << l, step):
        us = np.arange(u0, min(u0 + step, 1 << l))
        counts[span_array(basis[:, u0:u0 + step], dtype=np.int64) | us << m] = \
            1 << (n_seed - rank[u0:u0 + step])
    return counts


def restricted_decode_flags(cands: np.ndarray, cls: np.ndarray, mask1: int,
                            ys: np.ndarray, n_bits: int) -> np.ndarray:
    """Decoding failures of every error pattern, summed over hash seeds.

    Words are ``n_bits``-bit integers that the linear map ``cls`` sorts
    into classes 0 .. 2^r - 1; a decode succeeds when its estimate lies in
    the error's class.  Row s of ``cands`` holds seed s's syndromes of the
    r unit classes, so seed s's candidates (syndrome 0) form a subspace.
    For the error y, seed s sees only y's syndrome and takes the estimate
    of least weight on mask1 with it, ties to the lex-smallest.  So a class
    ranked by its least key decodes correctly under seed s exactly when it
    leads its coset.  Returns, per y, the number of seeds that fail.
    """
    n_seeds, r = cands.shape
    key = np.bitwise_count(np.arange(1 << n_bits) & mask1).astype(np.int64) << n_bits \
        | lex_keys(n_bits)
    least = np.full(1 << r, (n_bits + 1) << n_bits)  # above every key: classes with no word
    np.minimum.at(least, cls, key)
    rank = np.argsort(np.argsort(least))
    width = 1 << int(np.bitwise_or.reduce(cands, axis=None)).bit_length()  # above every syndrome
    # leaders[k]: the seeds under which rank k is the least in its (syndrome, seed) bucket.
    leaders = np.zeros((1 << r) + 1, dtype=np.int64)  # the last: empty buckets
    step = max(1, _BLOCK_WORDS // max(1 << r, width))
    for s0 in range(0, n_seeds, step):
        syn = span_array(cands[s0:s0 + step].T, dtype=np.int64)
        b = syn.shape[1]
        if s0 == 0 or b < step:  # b changes only in the last block
            ranks = np.repeat(rank, b)
        first = np.full(width * b, 1 << r)
        np.minimum.at(first, (syn * b + np.arange(b)).ravel(), ranks)
        leaders += np.bincount(first, minlength=(1 << r) + 1)
    return n_seeds - leaders[rank[cls[ys]]]
