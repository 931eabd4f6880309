"""GF(2) linear algebra: worked examples plus exhaustive consistency checks."""

import hashlib

import numpy as np
import pytest

from decoybb84.errors import CapacityError, DimensionMismatch
from decoybb84.gf2 import (BitMatrix, BitVector, _reduce_with_ids, kernel_basis, lex_key,
                           lex_keys, mat_vec_mul, pack_rows, rank, solve, span_ints)
from oracles import matrix_from_rows, min_distance_decode


def bv(*bits):
    return BitVector.from_bits(bits)


class TestMatVecMul:
    def test_identity(self):
        m = BitMatrix(3, 3, (1, 2, 4))
        assert mat_vec_mul(m, bv(1, 0, 1)) == bv(1, 0, 1)

    def test_xor_by_hand(self):
        m = matrix_from_rows([[1, 1], [0, 1]])
        assert mat_vec_mul(m, bv(1, 1)) == bv(0, 1)

    def test_zero_matrix(self):
        m = BitMatrix(3, 4, (0, 0, 0))
        assert mat_vec_mul(m, bv(1, 1, 1, 1)) == BitVector(3, 0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_vec_mul(BitMatrix(3, 3, (1, 2, 4)), bv(1, 0))


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix(4, 4, (1, 2, 4, 8))) == 4

    def test_repeated_rows(self):
        assert rank(matrix_from_rows([[1, 1], [1, 1]])) == 1

    def test_zero(self):
        assert rank(BitMatrix(3, 3, (0, 0, 0))) == 0

    def test_rank_nullity(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 9))
            m = matrix_from_rows(rng.integers(0, 2, (rows, cols)).tolist())
            assert rank(m) + len(kernel_basis(m)) == cols


class TestKernelBasis:
    def test_identity_trivial(self):
        assert kernel_basis(BitMatrix(2, 2, (1, 2))) == []

    def test_parity_check(self):
        basis = kernel_basis(matrix_from_rows([[1, 1]]))
        assert [b.to_tuple() for b in basis] == [(1, 1)]

    def test_zero_matrix(self):
        assert len(kernel_basis(BitMatrix(2, 3, (0, 0)))) == 3

    def test_spans_exact_kernel_exhaustively(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 12))
            m = matrix_from_rows(rng.integers(0, 2, (rows, cols)).tolist())
            basis = kernel_basis(m)
            spanned = set(span_ints([v.bits for v in basis]))
            brute = {v for v in range(1 << cols)
                     if mat_vec_mul(m, BitVector(cols, v)).bits == 0}
            assert spanned == brute


def in_image(m, v):
    """``v`` is in the column space of ``m`` iff ``solve`` finds a preimage."""
    return solve(m, v) is not None


class TestImageMembership:
    def test_zero_vector_always_member(self):
        m = matrix_from_rows([[1, 0], [1, 1], [0, 1]])
        assert in_image(m, BitVector(3, 0))

    def test_identity_all_members(self):
        m = BitMatrix(3, 3, (1, 2, 4))
        for v in range(8):
            assert in_image(m, BitVector(3, v))

    def test_repetition_column(self):
        m = matrix_from_rows([[1], [1]])
        assert in_image(m, bv(1, 1))
        assert not in_image(m, bv(1, 0))

    def test_consistent_with_product(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = matrix_from_rows(rng.integers(0, 2, (rows, cols)).tolist())
            u = BitVector(cols, int(rng.integers(0, 1 << cols)))
            v = mat_vec_mul(m, u)
            got = solve(m, v)
            assert got is not None and mat_vec_mul(m, got) == v


class TestSolveAndRankByEnumeration:
    """``rank`` and ``solve`` against the image of M enumerated over all u."""

    @pytest.mark.parametrize("seed", range(4))
    def test_every_vector(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(60):
            rows, cols = (int(v) for v in rng.integers(0, 7, size=2))
            bits = rng.integers(0, 2, size=(rows, cols)) * (rng.random((rows, 1)) < 0.8)
            m = BitMatrix(rows, cols, tuple(pack_rows(bits)))
            image = {mat_vec_mul(m, BitVector(cols, u)).bits for u in range(1 << cols)}
            assert 1 << rank(m) == len(image)
            for v in range(1 << rows):
                got = solve(m, BitVector(rows, v))
                assert (got is not None) == (v in image)
                if got is not None:
                    assert mat_vec_mul(m, got).bits == v


class TestParityChecks:
    """The parity checks of ``_reduce_with_ids`` against the image of M
    enumerated over all u."""

    def test_worked_example(self):
        # Rows 0 and 2 repeat and row 3 is zero: two checks, one per relation.
        m = matrix_from_rows([[1, 1], [0, 1], [1, 1], [0, 0]])
        assert sorted(_reduce_with_ids(m)[1]) == [0b0101, 0b1000]

    @pytest.mark.parametrize("seed", range(4))
    def test_checks_cut_out_the_image(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(60):
            rows, cols = (int(v) for v in rng.integers(0, 8, size=2))
            bits = rng.integers(0, 2, size=(rows, cols)) * (rng.random((rows, 1)) < 0.8)
            m = BitMatrix(rows, cols, tuple(pack_rows(bits)))
            checks = _reduce_with_ids(m)[1]
            assert len(checks) == rows - rank(m)
            assert rank(BitMatrix(len(checks), rows, tuple(checks))) == len(checks)
            image = {mat_vec_mul(m, BitVector(cols, u)).bits for u in range(1 << cols)}
            passing = {c for c in range(1 << rows)
                       if all((h & c).bit_count() % 2 == 0 for h in checks)}
            assert passing == image


class TestDualCode:
    """The dual of the code spanned by the rows of M is the kernel of M."""

    def test_full_rank_square_empty(self):
        assert kernel_basis(BitMatrix(3, 3, (1, 2, 4))) == []

    def test_repetition_self_dual(self):
        dual = kernel_basis(matrix_from_rows([[1, 1]]))
        assert set(span_ints([v.bits for v in dual])) == {0, 0b11}

    def test_zero_code_dual_is_everything(self):
        assert len(kernel_basis(BitMatrix(1, 2, (0,)))) == 2

    def test_span_ints_gray_code_order(self):
        # The oracle's logical phase labels are indices into this order.
        def gray_walk(basis):
            out, cur = [0], 0
            for i in range(1, 1 << len(basis)):
                cur ^= basis[(i & -i).bit_length() - 1]
                out.append(cur)
            return out
        rng = np.random.default_rng(21)
        for _ in range(300):
            k, width = int(rng.integers(0, 13)), int(rng.integers(1, 41))
            basis = [int(b) for b in rng.integers(0, 1 << width, size=k)]
            assert span_ints(basis) == gray_walk(basis)

    def test_double_dual_spans_original(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 10))
            m = matrix_from_rows(rng.integers(0, 2, (rows, cols)).tolist())
            dual = kernel_basis(m)
            ddual = kernel_basis(BitMatrix(len(dual), cols, tuple(v.bits for v in dual)))
            original = set(span_ints(list(m.row_bits)))
            recovered = set(span_ints([v.bits for v in ddual]))
            assert recovered == original


class TestMinDistanceDecode:
    def test_member_decodes_to_itself(self):
        code = [bv(0, 0, 0), bv(1, 1, 1)]
        assert min_distance_decode(bv(1, 1, 1), code) == bv(1, 1, 1)

    def test_majority(self):
        code = [bv(0, 0, 0), bv(1, 1, 1)]
        assert min_distance_decode(bv(1, 1, 0), code) == bv(1, 1, 1)

    def test_lexicographic_tie_break(self):
        code = [bv(1, 1), bv(0, 0)]
        assert min_distance_decode(bv(1, 0), code) == bv(0, 0)

    def test_empty_code_rejected(self):
        with pytest.raises(ValueError):
            min_distance_decode(bv(1), [])

    def test_guard(self):
        code = [BitVector(2, v) for v in range(4)]
        with pytest.raises(CapacityError):
            min_distance_decode(bv(0, 0), code, guard=3)

    def test_optimal_distance_exhaustive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            size = int(rng.integers(1, 1 << min(n, 5)))
            code = [BitVector(n, int(v))
                    for v in rng.integers(0, 1 << n, size=size)]
            received = BitVector(n, int(rng.integers(0, 1 << n)))
            best = min_distance_decode(received, code)
            d = (best.bits ^ received.bits).bit_count()
            assert all((c.bits ^ received.bits).bit_count() >= d for c in code)


class TestBitVector:
    def test_weight_bounded_by_length(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(0, 20))
            v = BitVector(n, int(rng.integers(0, 1 << n)) if n else 0)
            assert 0 <= v.bits.bit_count() <= n

    def test_bits_beyond_length_rejected(self):
        with pytest.raises(ValueError):
            BitVector(2, 0b100)

    def test_lex_key_orders_tuples(self):
        vs = [BitVector(3, v) for v in range(8)]
        by_key = sorted(vs, key=lambda v: lex_key(v.bits, v.length))
        by_tuple = sorted(vs, key=lambda v: v.to_tuple())
        assert [v.bits for v in by_key] == [v.bits for v in by_tuple]

    def test_lex_key_matches_bit_loop(self):
        def loop_key(bits, length):
            key = 0
            for i in range(length):
                key = (key << 1) | ((bits >> i) & 1)
            return key

        for n in range(11):
            want = [loop_key(w, n) for w in range(1 << n)]
            assert [lex_key(w, n) for w in range(1 << n)] == want
            assert lex_keys(n).tolist() == want


def loop_pack(row):
    value = 0
    for j, b in enumerate(row):
        value |= int(b) << j
    return value


def loop_transpose(m):
    cols = []
    for j in range(m.cols):
        c = 0
        for i in range(m.rows):
            c |= ((m.row_bits[i] >> j) & 1) << i
        cols.append(c)
    return BitMatrix(m.cols, m.rows, tuple(cols))


class TestPacking:
    @pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 63, 64, 65, 130])
    def test_pack_rows_matches_bit_loop(self, width):
        rng = np.random.default_rng(width)
        for rows in (0, 1, 5):
            for dtype in (np.int64, np.int8, np.uint8, bool):
                bits = rng.integers(0, 2, size=(rows, width)).astype(dtype)
                assert pack_rows(bits) == [loop_pack(r) for r in bits]
        ones = np.ones((2, width), dtype=np.int64)
        assert pack_rows(ones) == [(1 << width) - 1] * 2

    def test_from_bits_and_from_rows(self):
        rng = np.random.default_rng(3)
        for width in (0, 1, 9, 64, 65, 130):
            bits = rng.integers(0, 2, size=(4, width))
            assert BitVector.from_bits(bits[0]) == BitVector(width, loop_pack(bits[0]))
            assert BitVector.from_bits(bits[0].tolist()) == BitVector.from_bits(bits[0])
            m = matrix_from_rows(bits.tolist())
            assert (m.rows, m.cols) == (4, width)
            assert m.row_bits == tuple(loop_pack(r) for r in bits)
            assert matrix_from_rows(bits) == m
            assert m.to_array().tolist() == bits.tolist()
        assert matrix_from_rows([]) == BitMatrix(0, 0, ())

    @pytest.mark.parametrize("bits", [[0, 2], [1, -1], [0.5], [[0, 1]], [float("nan")]])
    def test_from_bits_rejects_non_bits(self, bits):
        with pytest.raises(ValueError):
            BitVector.from_bits(bits)

    @pytest.mark.parametrize("bad", [2, -1, 3, 255])
    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64, np.float64])
    def test_pack_rows_rejects_non_bits(self, dtype, bad):
        bits = np.zeros((3, 9), dtype=np.int64)
        bits[1, 4] = bad
        bits = bits.astype(dtype)  # -1 wraps to the top value of an unsigned type
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            pack_rows(bits)

    @pytest.mark.parametrize("bad", [0.5, float("nan"), -0.0 - 1e-300, float("inf")])
    def test_pack_rows_rejects_non_bit_floats(self, bad):
        with pytest.raises(ValueError, match="bits must be 0 or 1"):
            pack_rows(np.array([[0.0, 1.0, bad]]))

    def test_pack_rows_takes_integral_floats(self):
        assert pack_rows(np.array([[1.0, 0.0, 1.0], [-0.0, 1.0, 1.0]])) == [5, 6]

    @pytest.mark.parametrize("rows", [[[0, 1], [1]], [[0, 1], [1, 1, 0]], [[0, 2]]])
    def test_from_rows_rejects_ragged_and_non_bits(self, rows):
        with pytest.raises(ValueError):
            pack_rows(rows)
        with pytest.raises(ValueError):
            BitVector.from_bits(rows)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (1, 1), (24, 15),
                                       (5, 64), (3, 65), (70, 2), (9, 130)])
    def test_transpose_matches_double_loop(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        m = BitMatrix(*shape, tuple(pack_rows(rng.integers(0, 2, size=shape))))
        t = m.transpose()
        assert t == loop_transpose(m)
        assert (t.rows, t.cols) == shape[::-1]
        assert t.transpose() == m
        assert t.to_array().tolist() == m.to_array().T.tolist()


def pin_matrices():
    """A fixed set of matrices: random, tall, wide and rank-deficient ones
    (a product through a narrow middle, with some rows zeroed), 0 to 14
    rows and columns."""
    rng = np.random.default_rng(20261019)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (14, 3), (3, 14), (14, 14)]
    shapes += [tuple(int(v) for v in rng.integers(1, 15, size=2)) for _ in range(233)]
    out = []
    for i, (rows, cols) in enumerate(shapes):
        if i % 3 == 2:
            inner = int(rng.integers(0, min(rows, cols) + 1))
            bits = (rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols))) & 1
            bits *= rng.random((rows, 1)) < 0.8
        else:
            bits = rng.integers(0, 2, (rows, cols))
        out.append(BitMatrix(rows, cols, tuple(pack_rows(bits.reshape(rows, cols)))))
    return out, rng


# sha256 of the ordered outputs over ``pin_matrices()``, one line per
# matrix: the kernel basis, the parity checks, then ``solve`` on four
# image words and four random words ("-" for no preimage).
PINNED_GF2 = "b0ff791f639f90e1509cff58cd68b494434cfe8bdcc78687157770172446cec2"


def test_pinned_gf2_outputs():
    matrices, rng = pin_matrices()
    lines = []
    for m in matrices:
        vs = [mat_vec_mul(m, BitVector(m.cols, int(u))).bits
              for u in rng.integers(0, 1 << m.cols, size=4)]
        vs += [int(v) for v in rng.integers(0, 1 << m.rows, size=4)]
        sols = [solve(m, BitVector(m.rows, v)) for v in vs]
        lines.append(" ".join([f"{m.rows}x{m.cols}",
                               ",".join(str(b.bits) for b in kernel_basis(m)),
                               ",".join(map(str, _reduce_with_ids(m)[1])),
                               ",".join("-" if s is None else str(s.bits) for s in sols)]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (240, PINNED_GF2)
