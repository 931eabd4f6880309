"""Kernels against brute-force and walk oracles."""

import tracemalloc

import numpy as np
import pytest

from decoybb84 import kernels
from decoybb84.gf2 import _reduce, lex_key, span_array


def _brute_nearest(code, y, n_bits):
    """Index of the nearest codeword, ties to the lex-smallest, by plain Python."""
    return min(range(len(code)),
               key=lambda i: ((int(code[i]) ^ y).bit_count(), lex_key(int(code[i]), n_bits)))


def _nearest_table(code, n_bits):
    """The lex-smallest nearest codeword per word, from the full distance matrix."""
    code = np.asarray(code, dtype=np.uint64)
    words = np.arange(1 << n_bits, dtype=np.uint64)
    keys = np.array([lex_key(int(c), n_bits) for c in code], dtype=np.int64)
    rank = np.bitwise_count(words[:, None] ^ code).astype(np.int64) << n_bits | keys
    return code[np.argmin(rank, axis=1)].astype(np.int64)


def test_decode_table_matches_brute_force():
    # Random word sets are non-linear, unsorted and may repeat a word; sizes
    # run from a one-word code to dense codes.  The nearest codeword does not
    # depend on the order of the code or on repeats.
    rng = np.random.default_rng(2)
    for n_bits in range(0, 11):
        for size in (1, 2, 5, 1 << (n_bits // 2), 1 << max(n_bits - 1, 0)):
            code = rng.integers(0, 1 << n_bits, size=size, dtype=np.uint64)
            want = [int(code[_brute_nearest(code, y, n_bits)]) for y in range(1 << n_bits)]
            repeated = np.concatenate([code, code[rng.integers(0, size, size=3)]])
            for variant in (code, rng.permutation(code), rng.permutation(repeated)):
                table = kernels.decode_table(variant, n_bits)
                assert table.tolist() == want, (n_bits, variant.tolist())


def test_decode_table_lex_smallest_minimum_wins():
    # 0b01 is at distance 1 from both codewords; 0b00 is lex-smaller.
    for code in ([0b00, 0b11], [0b11, 0b00]):
        table = kernels.decode_table(np.array(code, dtype=np.uint64), 2)
        assert table[0b01] == 0b00 and table[0b10] == 0b00
    # 0b100 is the tuple (0,0,1), lex-smaller than 0b001, (1,0,0), though
    # listed after it and though 0b001 is listed again: 0b100 wins every tie
    # and each codeword keeps its own word.
    code = np.array([0b001, 0b100, 0b001], dtype=np.uint64)
    table = kernels.decode_table(code, 3)
    assert table[0b000] == 0b100 and table[0b101] == 0b100
    assert table[0b001] == 0b001 and table[0b011] == 0b001
    assert table[0b100] == 0b100 and table[0b110] == 0b100
    assert table.tolist() == _nearest_table(code, 3).tolist()


def test_decode_table_on_unsorted_repeated_codes():
    rng = np.random.default_rng(5)
    for n_bits in (4, 7, 10):
        code = rng.integers(0, 1 << n_bits, size=20, dtype=np.uint64)
        code = np.concatenate([code, code[rng.integers(0, 20, size=10)]])
        assert kernels.decode_table(code, n_bits).tolist() == \
            _nearest_table(code, n_bits).tolist(), n_bits


def test_decode_table_zero_bits():
    # F_2^0 holds one word, the empty word 0, which is every codeword.
    for code in ([0], [0, 0]):
        table = kernels.decode_table(np.array(code, dtype=np.uint64), 0)
        assert table.dtype == np.int64 and table.tolist() == [0]


@pytest.mark.parametrize("n_bits", [11, 12])
def test_decode_table_on_lex_sorted_spans(n_bits):
    # The codes the oracle passes in, spans of independent words, in span
    # order and lex-sorted: both give the same table.
    rng = np.random.default_rng(n_bits)
    for k in range(5, 11):
        while True:
            code = span_array(rng.integers(1, 1 << n_bits, size=k, dtype=np.uint64))
            if np.unique(code).size == code.size:
                break
        want = _nearest_table(code, n_bits)
        lex_sorted = code[np.argsort([lex_key(int(c), n_bits) for c in code])]
        for variant in (code, lex_sorted):
            table = kernels.decode_table(variant, n_bits)
            assert table.dtype == np.int64
            assert np.array_equal(table, want), (n_bits, k)


def test_decode_table_memory_at_reduction_guard():
    # N = 16 (oracle.REDUCE_GUARD_N): the sweep holds a few 2^16-word
    # arrays at a time, less than four int64 arrays of 2^16 words.
    n_bits = 16
    code = span_array(1 << np.arange(0, n_bits, 2, dtype=np.uint64))
    tracemalloc.start()
    try:
        table = kernels.decode_table(code, n_bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 << n_bits
    # Every word lies at distance popcount(y & odd bits) from its even part.
    y = np.arange(1 << n_bits, dtype=np.int64)
    assert np.array_equal(table, y & 0x5555)


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


def test_least_weight_errors_match_enumeration():
    # Every pattern of the n-cube by weight: the least weight with the
    # syndrome, and its patterns, in colex order (by their integer value).
    rng = np.random.default_rng(8)
    for n in (1, 2, 5, 9):
        for k in (1, 3, 6):
            unit = rng.integers(0, 1 << k, size=n, dtype=np.uint64)
            syn = span_array(unit)  # syn[e]: the syndrome of pattern e
            weight = np.bitwise_count(np.arange(1 << n))
            for s in range(1 << k):
                found = np.flatnonzero(syn == s)
                for budget in (1, n + 1, 1 << n):
                    got = kernels.least_weight_errors(unit, s, budget)
                    if found.size == 0:
                        assert got is None
                        continue
                    w = weight[found].min()
                    if (weight <= w).sum() > budget:
                        assert got is None
                    else:
                        assert got.tolist() == sorted(found[weight[found] == w].tolist())


def _counts(l, m):
    """The kernel's ranks and bases, expanded to the count of every Z."""
    return kernels.expand_image_counts(l, m, *kernels.toeplitz_image_counts(l, m))


def _walk_toeplitz_counts(l, m):
    """Membership counts by walking every seed: X^T u is accumulated over a
    Gray-code walk of u, one seed-array XOR per step."""
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


def test_toeplitz_counts_match_seed_walk():
    for l in range(1, 13):
        for m in range(0, 13 - l):
            assert np.array_equal(_counts(l, m), _walk_toeplitz_counts(l, m)), (l, m)


def _per_u_toeplitz_counts(l, m):
    """Membership counts from one ``_reduce`` per u on its l+m-1
    generator words (seed bit k adds u shifted by k, cut to m bits)."""
    n_seed = l + m - 1
    counts = np.zeros(1 << (l + m), dtype=np.int64)
    for u in range(1 << l):
        rev = lex_key(u, l)  # u_i at bit l-1-i
        gens = [((rev << k) >> (l - 1)) & ((1 << m) - 1) for k in range(n_seed)]
        pivots, _ = _reduce(gens, (1 << m) - 1)
        counts[span_array(list(pivots.values()), dtype=np.int64) | (u << m)] = \
            1 << (n_seed - len(pivots))
    return counts


@pytest.mark.parametrize("l, m", [(14, 2), (12, 6)])
def test_toeplitz_counts_across_u_blocks(l, m):
    # At the default block size both sizes take several u blocks.
    got = _counts(l, m)
    assert got.dtype == np.int64
    assert np.array_equal(got, _per_u_toeplitz_counts(l, m))


def test_toeplitz_counts_small_blocks(monkeypatch):
    # Blocks of one or a few u, down to one u per block in both passes.
    for block_words in (1 << 5, 1):
        monkeypatch.setattr(kernels, "_BLOCK_WORDS", block_words)
        for l, m in [(1, 3), (4, 0), (5, 2), (6, 5), (7, 4), (3, 7)]:
            assert np.array_equal(_counts(l, m), _per_u_toeplitz_counts(l, m)), (l, m, block_words)


@pytest.mark.parametrize("l", range(1, 17))
def test_toeplitz_counts_full_rank_for_nonzero_u(l):
    # For u != 0 the map seed -> X^T u has rank m: with i the last index
    # where u_i = 1, seed bits i..i+m-1 give a unit-triangular minor.  So
    # every x is hit by 2^(l-1) seeds; u = 0 maps every seed to x = 0.
    # m = 0 is included: every u then has the single count 2^(l-1).
    for m in range(0, 17 - l):
        rank, basis = kernels.toeplitz_image_counts(l, m)
        assert rank[0] == 0 and (rank[1:] == m).all(), (l, m)
        rows = kernels.expand_image_counts(l, m, rank, basis).reshape(1 << l, 1 << m)
        assert (rows[1:] == 1 << (l - 1)).all(), (l, m)
        assert rows[0, 0] == 1 << (l + m - 1), (l, m)
        assert not rows[0, 1:].any(), (l, m)


@pytest.mark.parametrize("m, dtype", [(0, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.uint32), (33, np.uint64)])
def test_toeplitz_bases_are_m_bit_words(m, dtype):
    rank, basis = kernels.toeplitz_image_counts(2, m)
    assert basis.dtype == dtype and basis.shape == (m, 4)
    assert rank.tolist() == [0] + [m] * 3


def test_toeplitz_bases_stored_narrowly():
    # (16, 8): 2^16 y-parts with 8 basis words each.  The peak stays below
    # what the bases alone would take as int64 (4 MB); as uint8 they take 0.5 MB.
    l, m = 16, 8
    tracemalloc.start()
    try:
        rank, basis = kernels.toeplitz_image_counts(l, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis.nbytes == m << l
    assert peak < 8 * m << l
    assert rank[0] == 0 and (rank[1:] == m).all()


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
    assert np.array_equal(counts, _counts(l, m))


def _linear(images, x):
    """The linear map with the given images of the unit vectors, at x."""
    out = 0
    for q, image in enumerate(images):
        if x >> q & 1:
            out ^= int(image)
    return out


def test_restricted_decode_flags_matches_brute_force(monkeypatch):
    # Linear maps throughout (words -> classes, and per seed classes ->
    # syndromes), so each seed's candidates, the words of syndrome 0, form a
    # subspace and the words of one syndrome form a coset of it.
    for n_bits, r, class_bits, syn_bits, n_seeds, block_words in [
        (7, 4, 4, 3, 40, None),       # classes onto F_2^4
        (6, 5, 3, 2, 30, None),       # classes 8 .. 31 hold no word
        (8, 3, 3, 7, 20, None),       # 2^7 syndromes, more than classes
        (7, 3, 3, 2, 12, 1 << 6),     # 8 seeds per block: the seeds span two blocks
    ]:
        rng = np.random.default_rng(n_bits * 100 + r)
        mask1 = rng.integers(1, 1 << n_bits)
        cls_images = rng.integers(0, 1 << class_bits, size=n_bits)
        cands = rng.integers(0, 1 << syn_bits, size=(n_seeds, r))
        ys = rng.integers(0, 1 << n_bits, size=50)
        words = range(1 << n_bits)
        cls = [_linear(cls_images, x) for x in words]
        key = [((x & mask1).bit_count(), lex_key(x, n_bits)) for x in words]
        want = np.zeros(len(ys), dtype=np.int64)
        for row in cands:
            syn = [_linear(row, cls[x]) for x in words]
            # The least-key word of each coset is its decode; it fails every
            # error outside its own class.
            leader = {}
            for x in words:
                if syn[x] not in leader or key[x] < key[leader[syn[x]]]:
                    leader[syn[x]] = x
            want += [cls[leader[syn[y]]] != cls[y] for y in ys]
        with monkeypatch.context() as patch:
            if block_words:
                patch.setattr(kernels, "_BLOCK_WORDS", block_words)
            got = kernels.restricted_decode_flags(cands, np.array(cls), mask1, ys, n_bits)
        assert got.tolist() == want.tolist(), (n_bits, r)
