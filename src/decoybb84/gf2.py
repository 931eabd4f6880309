"""Dense GF(2) linear algebra on bit-packed integers.

Vectors and matrices keep their bits in Python integers (bit ``i`` of the
packed integer is coordinate ``i``), which makes XOR row operations,
products and syndrome scans allocation-free at desk scale.

numpy is used at the edges only.  ``pack_rows`` is the one path from 0/1
arrays to packed integers (one product with the bit weights per chunk of
columns): every random code draw, ``BitVector.from_bits`` and
``BitMatrix.transpose`` go through it, and
``BitMatrix.to_array`` is the way back (``np.unpackbits``).
``span_array`` and the lex helpers build ``uint64`` word arrays, on which
the exhaustive hot loops (decode tables, membership counts) run in
:mod:`decoybb84.kernels`.

``_reduce`` is the one row reduction.  ``rank`` counts its pivots, and
``kernel_basis`` back-substitutes on them once per free column.
``_reduce_with_ids`` reduces (M | I): the rows that cancel are the parity
checks, and ``_preimage`` back-substitutes a preimage on the pivot rows.
The EC decode (``protocol.decode_to_seed``) reads these two directly;
``solve`` is the preimage view of the same reduction, kept for the
binding that the benchmark's ``LAYER_MAP`` names.  ``_rref`` back-reduces
the pivots to the reduced row-echelon form.

Conventions:
    * Coordinate 0 is the least significant bit of the packed integer.
    * "Lexicographically smallest" compares the coordinate tuple
      ``(v[0], v[1], ...)``.  Minimum-distance decoding breaks ties this
      way so every decode is deterministic and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, DimensionMismatch

DEFAULT_SPAN_GUARD = 1 << 20

# pack_rows' column chunk and its bit weights 2^0 .. 2^(_CHUNK-1): a chunk's
# product stays inside int64.
_CHUNK = 62
_WEIGHTS = np.int64(1) << np.arange(_CHUNK, dtype=np.int64)


def _parity(x: int) -> int:
    return x.bit_count() & 1


def lex_key(bits: int, length: int) -> int:
    """Integer whose ordering equals lexicographic order of the bit tuple:
    the ``length`` bits reversed, so it is its own inverse."""
    return int(format(bits, f"0{length}b")[::-1], 2)


def lex_keys(n_bits: int, dtype=np.uint64) -> np.ndarray:
    """:func:`lex_key` of every word 0 .. 2^n_bits - 1, built by doubling:
    bit i of a word is bit n_bits-1-i of its key."""
    return span_array([1 << (n_bits - 1 - i) for i in range(n_bits)], dtype=dtype)


def lex_order(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Stable argsort of packed ``n_bits``-bit words by :func:`lex_key`."""
    return np.argsort(lex_keys(n_bits)[words], kind="stable")


def pack_rows(bits: np.ndarray) -> list[int]:
    """The rows of a 2-D 0/1 array as packed ints, column j at bit j: one
    integer product per chunk of ``_CHUNK`` columns, the chunks of a wider
    row joined as Python ints."""
    bits = np.asarray(bits)
    # Integers are all 0 or 1 exactly when their OR is (a negative sets the sign bit).
    if not (0 <= np.bitwise_or.reduce(bits, axis=None) <= 1 if bits.dtype.kind in "biu"
            else ((bits == 0) | (bits == 1)).all()):
        raise ValueError("bits must be 0 or 1")
    bits = bits.astype(np.int64, copy=False)
    cols = bits.shape[1]
    packed = (bits[:, :_CHUNK] @ _WEIGHTS[:cols]).tolist()
    for c in range(_CHUNK, cols, _CHUNK):
        high = (bits[:, c:c + _CHUNK] @ _WEIGHTS[:cols - c]).tolist()
        packed = [low | h << c for low, h in zip(packed, high)]
    return packed


@dataclass(frozen=True)
class BitVector:
    """Immutable bit vector over GF(2), packed into one integer."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside [0, 2^length)")

    @classmethod
    def from_bits(cls, bits: Sequence[int] | np.ndarray) -> "BitVector":
        bits = np.asarray(bits)
        if bits.ndim != 1:
            raise ValueError("bits must be a flat sequence")
        return cls(len(bits), pack_rows(bits[np.newaxis])[0])

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise DimensionMismatch("vector lengths differ")
        return BitVector(self.length, self.bits ^ other.bits)

    def __len__(self) -> int:
        return self.length

    def to_tuple(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.to_tuple())


@dataclass(frozen=True)
class BitMatrix:
    """Immutable binary matrix, rows packed as integers (row-major)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative shape")
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row bits outside [0, 2^cols)")

    @classmethod
    def from_row_ints(cls, rows: int, cols: int, row_bits: Sequence[int]) -> "BitMatrix":
        return cls(rows, cols, tuple(row_bits))

    def transpose(self) -> "BitMatrix":
        return BitMatrix(self.cols, self.rows, tuple(pack_rows(self.to_array().T)))

    def to_array(self) -> np.ndarray:
        """The entries as a (rows, cols) uint8 array of 0/1."""
        width = (self.cols + 7) // 8
        packed = np.frombuffer(b"".join(r.to_bytes(width, "little") for r in self.row_bits),
                               dtype=np.uint8).reshape(self.rows, width)
        return np.unpackbits(packed, axis=1, count=self.cols, bitorder="little")


def mat_vec_mul(m: BitMatrix, v: BitVector) -> BitVector:
    """Product ``M v`` over GF(2); result[i] is the parity of row_i AND v."""
    if m.cols != v.length:
        raise DimensionMismatch(f"matrix cols {m.cols} != vector length {v.length}")
    out = 0
    for i, row in enumerate(m.row_bits):
        out |= _parity(row & v.bits) << i
    return BitVector(m.rows, out)


def _reduce(rows: Sequence[int], mask: int,
            pivots: dict[int, int] | None = None) -> tuple[dict[int, int], list[int]]:
    """Reduce packed rows against each other on the bits inside ``mask``.

    ``mask`` is the low bits 0 .. c-1.  Returns the pivot rows, keyed by
    their lowest set bit (all their other bits inside ``mask`` lie higher),
    and what is left of the rows that cancel inside ``mask``.  Pivots
    passed in from an earlier call are reduced against and extended.
    """
    pivots = {} if pivots is None else pivots
    rest = []
    for r in rows:
        while r & mask:
            low = r & -r
            p = pivots.get(low)
            if p is None:
                pivots[low] = r
                break
            r ^= p
        else:
            rest.append(r)
    return pivots, rest


def _rref(rows: Sequence[int], cols: int) -> tuple[list[int], list[int]]:
    """The nonzero rows of the reduced row-echelon form and their pivot
    columns, in increasing order: ``_reduce``'s pivot rows, highest first,
    each cleared of the higher pivot bits by their rows, already reduced."""
    pivots, _ = _reduce(rows, (1 << cols) - 1)
    lows = sorted(pivots)
    pivot_bits = sum(lows)
    for low in reversed(lows):
        row = pivots[low]
        hits = row & pivot_bits ^ low
        while hits:
            top = hits & -hits
            row ^= pivots[top]
            hits ^= top
        pivots[low] = row
    return [pivots[low] for low in lows], [low.bit_length() - 1 for low in lows]


def _reduce_with_ids(m: BitMatrix) -> tuple[dict[int, int], list[int]]:
    """``_reduce`` on the rows of (M | I), row i's identity bit above M: the
    pivot rows, whose identity bits name the rows of M they sum, and the
    parity checks, the identity bits of the rows that cancel inside M."""
    pivots, rest = _reduce([row | 1 << (m.cols + i) for i, row in enumerate(m.row_bits)],
                           (1 << m.cols) - 1)
    return pivots, [r >> m.cols for r in rest]


def _preimage(pivots: dict[int, int], cols: int, v: int, u: int = 0) -> int:
    """Back-substitution on ``_reduce``'s pivot rows, highest first: each
    pivot's unknown makes its row's parity with u equal that of v at the
    row's identity bits (above column ``cols``, as ``_reduce_with_ids``
    sets them).  Free unknowns keep their bits of ``u``."""
    for low in sorted(pivots, reverse=True):
        row = pivots[low]
        if ((row >> cols & v).bit_count() + (row & u).bit_count()) & 1:
            u |= low
    return u


def rank(m: BitMatrix) -> int:
    """GF(2) rank: the number of pivots after reducing the rows."""
    return len(_reduce(m.row_bits, (1 << m.cols) - 1)[0])


def kernel_basis(m: BitMatrix) -> list[BitVector]:
    """Basis of ``{v : M v = 0}``: one vector per free column, its pivot
    unknowns back-substituted on the reduced rows."""
    pivots, _ = _reduce(m.row_bits, (1 << m.cols) - 1)
    return [BitVector(m.cols, _preimage(pivots, m.cols, 0, 1 << free))
            for free in range(m.cols) if 1 << free not in pivots]


def solve(m: BitMatrix, v: BitVector) -> BitVector | None:
    """One solution ``u`` of ``M u = v``, or None if ``v`` is not in the image.

    ``v`` is in the image iff every parity check has even parity with it;
    then ``_preimage`` back-substitutes, free unknowns 0.
    """
    if m.rows != v.length:
        raise DimensionMismatch(f"matrix rows {m.rows} != vector length {v.length}")
    pivots, checks = _reduce_with_ids(m)
    if any((h & v.bits).bit_count() & 1 for h in checks):
        return None
    return BitVector(m.cols, _preimage(pivots, m.cols, v.bits))


def span_ints(basis: Sequence[int]) -> list[int]:
    """All 2^k XOR combinations of the given packed vectors, in Gray-code
    order: element i combines the basis vectors at the set bits of
    i ^ (i >> 1)."""
    k = len(basis)
    if 1 << k > DEFAULT_SPAN_GUARD:
        raise CapacityError(f"span of dimension {k} exceeds guard {DEFAULT_SPAN_GUARD}")
    i = np.arange(1 << k)
    return span_array(basis)[i ^ (i >> 1)].tolist()


def span_array(basis: Sequence[int] | np.ndarray, dtype=np.uint64) -> np.ndarray:
    """All 2^k XOR combinations as an array; element i combines the basis
    vectors at the set bits of i.  Built by doubling: the second half of
    each step is the first half XOR the next basis vector.  A (k, ...)
    array spans k basis arrays elementwise into a (2^k, ...) array."""
    basis = np.asarray(basis, dtype=dtype)
    out = np.zeros((1 << len(basis),) + basis.shape[1:], dtype=dtype)
    for j, b in enumerate(basis):
        np.bitwise_xor(out[:1 << j], b, out=out[1 << j:2 << j])
    return out
