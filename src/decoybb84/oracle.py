"""Exact computation of Eve's post-protocol figures of merit at desk scale.

For an l-bit logical Pauli channel with joint error law P(x, z) (x the key
flips, z the phase flips), Eve's state for final key y decomposes into
blocks labeled by x, each block a pure state with amplitudes
``(-1)^(z.y) sqrt(P(z|x))``.  Everything worth knowing about Eve follows
from that block structure:

* her information equals the conditional phase entropy  sum_x P(x) H(Z|x),
* pairwise fidelity/trace norm between per-key states reduce to the block
  inner products  sum_z (-1)^(z.d) P(z|x),
* the optimal key-guessing probability is the covariant-measurement value
  sum_x P(x) (sum_z sqrt(P(z|x)) sqrt(2^-l))^2.

The tests cross-check these closed forms against a dense density-matrix
path (dimension 4^l) for small l.  ``reduce_code_channel`` grinds an
N-qubit channel plus a code pair (error-correction generator, hash
matrix) down to this logical level by exhaustive minimum-distance
decoding, and also reports the exact phase-error probability of that
decoder.

Both sides are one labelled code given by independent generators with
linear labels: Im m_e with the columns of m_p as labels on the key side,
and C1perp (label 0) plus l logical generators of C2perp on the phase side.
Each decoder averages over a shift space S spanned by the leading
generators (the key code itself, or C1perp), so the law for e ^ s0 is the
law for e with every label XORed by label(s0).  One histogram per
coset of S therefore gives every row: O(2^N 2^l) work rather than one pass
over 2^N words per shift (standard coset decoding, MacWilliams & Sloane,
*The Theory of Error-Correcting Codes*, ch. 1).

The channel then meets the two label laws in array passes: all terms of a
joint law at once, summed in law order by one cumulative sum, and a
product law one site at a time by the ``np.dot`` that ``np.tensordot``
would run.  The figures take every key difference in one pass and the
eigenvalues of every x-block from one batched ``eigvalsh``.  Each pass
forms its floats by the same operations, in the same order, as the
per-term and per-site loops it replaced, so every law and figure is the
same to the bit; a ``matmul`` or a regrouped sum would not be.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .errors import CapacityError, DimensionMismatch, check_law
from .gf2 import BitMatrix, _reduce, kernel_basis, mat_vec_mul, rank, span_array, span_ints

ORACLE_GUARD_L = 4
REDUCE_GUARD_N = 16
_SITE_KEYS = {(0, 0), (0, 1), (1, 0), (1, 1)}
_SUM_TOL = 1e-12


def check_logical_width(l: int) -> None:
    if l < 1:
        raise ValueError("l must be >= 1")
    if l > ORACLE_GUARD_L:
        raise CapacityError(f"l={l} exceeds oracle guard {ORACLE_GUARD_L}")


@dataclass(frozen=True)
class PauliErrorDistribution:
    """Joint distribution over (bit-flip, phase-flip) patterns on l bits."""

    l: int
    probs: np.ndarray  # shape (2^l, 2^l), probs[x, z]

    def __post_init__(self):
        check_logical_width(self.l)
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (1 << self.l, 1 << self.l):
            raise DimensionMismatch(f"probs must have shape (2^l, 2^l), got {p.shape}")
        check_law("logical law", p, _SUM_TOL)
        object.__setattr__(self, "probs", p)

    def x_marginal(self) -> np.ndarray:
        return self.probs.sum(axis=1)


def _conditional(probs: np.ndarray, px: np.ndarray) -> np.ndarray:
    cond = np.zeros_like(probs)
    nz = px > 0
    cond[nz] = probs[nz] / px[nz, None]
    return cond


@dataclass(frozen=True)
class EveFigures:
    """Exact figures of merit for one logical error distribution."""

    mutual_info_bits: float
    min_pair_fidelity: float
    max_pair_trace_norm: float
    min_avg_fidelity: float
    max_avg_trace_norm: float
    opt_success_prob: float
    phase_error_prob: float


def phase_error_probability(dist: PauliErrorDistribution) -> float:
    """Total probability of a nonzero phase-flip pattern."""
    return float(1.0 - dist.probs[:, 0].sum())


def _entropy_bits(p: np.ndarray) -> float:
    nz = p > 0
    return float(-(p[nz] * np.log2(p[nz])).sum())


def _mutual_information(px: np.ndarray, cond: np.ndarray) -> float:
    total = 0.0
    for x in np.flatnonzero(px > 0):
        total += px[x] * _entropy_bits(cond[x])
    return total


def _sign_matrix(l: int) -> np.ndarray:
    """S[d, z] = (-1)^(popcount(d & z)), the parity character table."""
    idx = np.arange(1 << l, dtype=np.uint64)
    par = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    return 1.0 - 2.0 * par


def _success_probability(px: np.ndarray, cond: np.ndarray, l: int) -> float:
    amp = np.sqrt(cond).sum(axis=1)
    return float((px * amp ** 2).sum() * 2.0 ** (-l))


def pairwise_figures(dist: PauliErrorDistribution) -> EveFigures:
    """All exact Eve figures, computed from the block structure.

    The per-key states are conjugate to each other under diagonal sign
    unitaries, so pairwise quantities depend only on the key difference d
    and the against-average quantities do not depend on the key at all.
    """
    l = dist.l
    px = dist.x_marginal()
    cond = _conditional(dist.probs, px)
    signs = _sign_matrix(l)
    # inner[x, d] = sum_z (-1)^(z.d) P(z|x).  Row d - 1 of w is column d,
    # contiguous, so each row sums as the 1-D column did.
    inner = cond @ signs.T
    w = np.ascontiguousarray(inner.T[1:])
    min_pair_fid = min(1.0, float((px * np.abs(w)).sum(axis=1).min()))
    max_pair_tn = max(0.0, float((px * 2.0 * np.sqrt(np.maximum(0.0, 1.0 - w ** 2)))
                                 .sum(axis=1).max()))

    avg_fid = float((px * np.sqrt((cond ** 2).sum(axis=1))).sum())

    # Block x of rho(y) - rho_bar is sqrt(P(.|x)) sqrt(P(.|x))^T - diag P(.|x).
    nz = px > 0
    s = np.sqrt(cond[nz])
    blocks = s[:, :, None] * s[:, None, :]
    diag = np.arange(1 << l)
    blocks[:, diag, diag] -= cond[nz]
    block_tn = np.abs(np.linalg.eigvalsh(blocks)).sum(axis=1)
    avg_tn = float(np.cumsum(px[nz] * block_tn)[-1])

    return EveFigures(
        mutual_info_bits=_mutual_information(px, cond),
        min_pair_fidelity=min_pair_fid,
        max_pair_trace_norm=max_pair_tn,
        min_avg_fidelity=avg_fid,
        max_avg_trace_norm=avg_tn,
        opt_success_prob=_success_probability(px, cond, l),
        phase_error_prob=phase_error_probability(dist),
    )


# ----------------------------------------------------------------------
# Reduction from an N-qubit channel and a code pair to the logical level.


def _label_transitions(basis: Sequence[int], labels: Sequence[int], n_shift: int,
                       n: int, n_lab: int) -> np.ndarray:
    """Row e: the law of label(decode(e ^ s)) ^ label(s) over s in the shift space.

    The code is spanned by the independent words ``basis``, which carry the
    linear ``labels``; the shift space S is spanned by the first ``n_shift``
    of them.  ``kernels.decode_table`` sends each word to its lex-smallest
    nearest codeword, whose label a table indexed by word gives; averaging
    over the transmitted word keeps that tie-break honest.

    One histogram per coset of S suffices: for s0 in S, row ``e ^ s0`` is row
    e with every label XORed by label(s0).  The words that are zero at the
    pivots of S's echelon form hold one word of each coset, so
    ``grid = reps ^ S`` lists every word once with one coset per row.
    """
    words = span_array(basis)
    label = np.zeros(1 << n, dtype=np.int64)
    label[words] = span_array(labels, dtype=np.int64)
    dec = label[kernels.decode_table(words, n)]
    pivots, _ = _reduce(basis[:n_shift], (1 << n) - 1)
    shifts = span_array(list(pivots.values()), dtype=np.int64)
    shift_lab = label[shifts]  # every shift is a codeword
    reps = span_array([1 << b for b in range(n) if 1 << b not in pivots], dtype=np.int64)
    grid = reps[:, None] ^ shifts
    rows = np.arange(len(reps))[:, None] * n_lab
    probs = np.bincount((rows + (dec[grid] ^ shift_lab)).ravel(),
                        minlength=len(reps) * n_lab) / len(shifts)
    table = np.empty((1 << n, n_lab))
    table[grid] = probs.take(rows[:, :, None] + (np.arange(n_lab) ^ shift_lab[:, None]))
    return table


def _normalize_channel(channel, n: int) -> tuple[str, object]:
    """Accept a per-position symbol law or an explicit joint pattern law.

    A joint law comes back as the arrays (x patterns, z patterns, probs).
    """
    if isinstance(channel, Mapping):
        probs = check_law("joint channel law", list(channel.values()))
        for key in channel:
            try:
                ex, ez = key
                inside = 0 <= ex < 1 << n and 0 <= ez < 1 << n and int(ex) == ex and int(ez) == ez
            except (TypeError, ValueError):
                raise ValueError(f"joint channel key {key!r} is not a pair of integer "
                                 "patterns") from None
            if not inside:
                raise ValueError(f"joint channel pattern {key} outside [0, 2^{n})")
        ex, ez = np.array(list(channel), dtype=np.int64).reshape(-1, 2).T
        return "joint", (ex, ez, probs)
    site_laws = []
    for i, law in enumerate(channel):
        for key in law:
            if key not in _SITE_KEYS:
                raise ValueError(f"site {i} key {key!r} outside {{0, 1}}^2")
        mat = np.zeros((2, 2))
        for (x, z), p in zip(law, check_law(f"site {i} law", list(law.values()))):
            mat[int(x), int(z)] = p  # a key equal to a bit pair, such as (1.0, 0), indexes as it
        site_laws.append(mat)
    if len(site_laws) != n:
        raise DimensionMismatch(f"channel has {len(site_laws)} sites, code expects {n}")
    return "product", site_laws


def reduce_code_channel(channel, m_e: BitMatrix, m_p: BitMatrix):
    """Reduce an N-qubit Pauli channel through a code pair to l logical bits.

    Args:
        channel: either a length-N sequence of per-site laws
            ``{(x, z): prob}`` (independent sites) or an explicit joint law
            ``{(x_pattern, z_pattern): prob}`` over packed N-bit patterns.
        m_e: N x (l+m) injective generator of the error-correction code.
        m_p: l x (l+m) hash matrix of full row rank.

    Returns:
        (logical distribution, phase-error probability of minimum-distance
        decoding on the dual code pair).  Key errors are decoded in the
        image of ``m_e`` and phase errors in the dual pair
        ``(image of m_e . ker m_p)^perp / (image of m_e)^perp``; both decoders
        average over the transmitted word so tie-breaking is honest.
    """
    n = m_e.rows
    lm = m_e.cols
    l = m_p.rows
    if m_p.cols != lm:
        raise DimensionMismatch("m_p columns must equal m_e columns")
    if n > REDUCE_GUARD_N:
        raise CapacityError(f"N={n} exceeds reduction guard {REDUCE_GUARD_N}")
    check_logical_width(l)  # before any 2^N x 2^l table
    if rank(m_e) != lm:
        raise ValueError("m_e must be injective (full column rank)")
    if rank(m_p) != l:
        raise ValueError("m_p must have full row rank")

    kind, law = _normalize_channel(channel, n)
    n_lab = 1 << l

    # --- key-error side: code Im(m_e), labels M_p Z, shifted by codewords
    m_e_t = m_e.transpose()
    ax = _label_transitions(m_e_t.row_bits, m_p.transpose().row_bits, lm, n, n_lab)

    # --- phase-error side: dual pair, shifted by C1perp ---------------
    c1_basis = [v.bits for v in kernel_basis(m_e_t)]  # (Im m_e)^perp
    ker_p = kernel_basis(m_p)                    # dim m
    sub_rows = tuple(mat_vec_mul(m_e, u).bits for u in ker_p)
    c2perp_basis = kernel_basis(BitMatrix(len(sub_rows), n, sub_rows))

    # Complete the C1perp basis to a C2perp basis in Gray order; the added
    # generators carry the l logical phase labels.  A word is picked when
    # it does not reduce to zero against the pivots of C1perp + chosen.
    mask = (1 << n) - 1
    pivots, _ = _reduce(c1_basis, mask)
    chosen: list[int] = []
    for v in span_ints([b.bits for b in c2perp_basis]):
        if len(chosen) == l:
            break
        if not _reduce([v], mask, pivots)[1]:
            chosen.append(v)
    if len(chosen) != l:
        raise ValueError("code pair does not expose l logical phase bits")

    # Logical coset lbl is C1perp + span_ints(chosen)[lbl]: the chosen words
    # at the set bits of gray(lbl) = lbl ^ (lbl >> 1).  The inverse Gray code
    # is linear with gray^-1(2^j) = 2^(j+1) - 1, so labelling chosen[j] by it
    # gives every word of coset lbl the label lbl.
    k = len(c1_basis)
    az = _label_transitions(c1_basis + chosen, [0] * k + [(2 << j) - 1 for j in range(l)],
                            k, n, n_lab)

    logical, p_ph_min = _contract(kind, law, ax, az)
    logical = np.clip(logical, 0.0, None)
    logical /= logical.sum()
    return PauliErrorDistribution(l, logical), p_ph_min


def _contract(kind: str, law, ax: np.ndarray, az: np.ndarray) -> tuple[np.ndarray, float]:
    """The unnormalized logical law sum P(ex, ez) ax[ex] (x) az[ez], and p_ph.

    Each path makes the float operations of a loop it replaces, in the same
    order, so the result is the same to the bit: a ``matmul`` or a regrouped
    sum would not be.
    """
    size, n_lab = az.shape
    if kind == "product":
        # The law is the Kronecker product of the site laws (site i on bit i,
        # which is axis N-1-i of a C-order reshape), so it is applied to az
        # one site at a time instead of being built as a 2^N x 2^N array.
        # Step i is np.tensordot(site, ., axes=(1, N-1-i)): np.dot of the site
        # with the (2, M) operand of bit i against the other axes in order.
        # Its result has bit i in front, so bit i+1's operand is the view
        # (bit i, higher bits, bit i+1, the rest) with the two bits swapped.
        n = len(law)
        az_by_site = az.reshape(1, -1)
        p_z = np.ones(1)
        for i, site in enumerate(law):
            operand = az_by_site.reshape(len(az_by_site), 1 << (n - 1 - i), 2, -1)
            az_by_site = np.dot(site, operand.transpose(2, 1, 0, 3).reshape(2, -1))
            p_z = np.multiply.outer(site.sum(axis=0), p_z).ravel()  # np.kron's products
        logical = ax.T @ az_by_site.reshape(size, n_lab)
    else:
        # Term t is (ax[ex] (x) az[ez]) p; the cumulative sum adds the terms
        # one after another in law order.
        ex, ez, probs = law
        p_z = np.zeros(size)
        np.add.at(p_z, ez, probs)
        terms = ax[ex][:, :, None] * az[ez][:, None, :]
        terms *= probs[:, None, None]
        logical = np.cumsum(terms, axis=0)[-1]
    return logical, float((p_z * (1.0 - az[:, 0])).sum())
