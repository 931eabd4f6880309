"""Closed-form finite-length security bounds and their verification helpers.

Everything here is a function of the detected-pulse classification (vacuum /
single / multi, normal or dark count), the phase-error count t among normal
single-photon detections, and the sacrifice-bit budget m:

* ``min_decoding_bound``        min{2^(K1 hbar(t/K1) + K2 - m), 1}
* ``averaged_bound``            its average over t, with K2 read from
  ``EC_DIRECTIONS``: J2 + J4 + J5 (forward, Alice -> Bob), J0 + J2
  (reverse, Bob -> Alice) or J0 + J2 + J4 + J5 (two-way)
* ``eve_info_bound``            hbar(P) + l P   (information from phase error)
* ``success_bound``             covariant-guessing bound in P and key size
* averaged variants over the hash/statistics randomness.

``verify_proposition_decoding`` replays the underlying decoding-error
argument at desk scale: it enumerates hash seeds and error patterns and
checks the averaged decoding error of the part-restricted minimum-distance
decoder against the analytic exponent, raising on any violation.  The
decoder sees only the syndrome of the error, which is linear in M_e^T w:
every seed's syndrome map is built on a basis of the image of M_e^T, and
``kernels.restricted_decode_flags`` decodes all seeds from coset-leader
tables over that image.

All logarithms are base 2; information is in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .errors import BoundViolation, CapacityError, check_law, check_probability
# kernel_basis, mat_vec_mul, rank, span_ints and build_toeplitz are unused
# here, kept only because perfbench's LAYER_MAP lists bounds as a binder.
from .gf2 import _rref, kernel_basis, mat_vec_mul, rank, span_array, span_ints  # noqa: F401
from .hashing import build_toeplitz  # noqa: F401

DECODING_GUARD_N = 14


def hbar(x: float) -> float:
    """Binary entropy clamped to 1 above x = 1/2."""
    return 1.0 if 0.5 < x <= 1.0 else binary_entropy(x)


def binary_entropy(x: float) -> float:
    """Unclamped binary entropy (0 log 0 := 0)."""
    check_probability("entropy argument", x)
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eve_info_bound(p_ph: float, l: int) -> float:
    """Upper bound hbar(P) + l P on Eve's information in bits."""
    check_probability("p_ph", p_ph)
    return hbar(p_ph) + l * p_ph


def distinguishability_bounds(p_ph: float) -> tuple[float, float, float, float]:
    """(pair fidelity lb, pair trace-norm ub, avg fidelity lb, avg trace-norm ub).

    Trace norms clamp to [0, 2] and fidelity lower bounds to [0, 1]; the
    clamped values remain valid bounds.
    """
    check_probability("p_ph", p_ph)
    fid_pair = min(1.0, max(0.0, 1.0 - 2.0 * p_ph))
    tn_pair = min(2.0, 4.0 * p_ph)
    fid_avg = min(1.0, max(0.0, 1.0 - p_ph))
    tn_avg = min(2.0, 2.0 * p_ph)
    return fid_pair, tn_pair, fid_avg, tn_avg


def success_bound(p_ph: float, l: int) -> float:
    """Upper bound on Eve's probability of guessing the l-bit key."""
    check_probability("p_ph", p_ph)
    if l < 1:
        raise ValueError("key length must be >= 1")
    c = 2.0 ** (-l)
    return (math.sqrt(p_ph) * math.sqrt(1.0 - c)
            + math.sqrt(1.0 - p_ph) * math.sqrt(c)) ** 2


def min_decoding_bound(k1: int, k2: int, t: int, m: int) -> float:
    """min{2^(K1 hbar(t/K1) + K2 - m), 1} for a fixed phase-error count t."""
    if k1 < 0 or k2 < 0 or m < 0:
        raise ValueError("counts must be non-negative")
    if t < 0 or t > k1:
        raise ValueError(f"t={t} outside [0, K1={k1}]")
    exponent = (k1 * hbar(t / k1) if k1 > 0 else 0.0) + k2 - m
    if exponent >= 0.0:
        return 1.0
    return 2.0 ** exponent


@dataclass
class BoundInputs:
    """Classification counts plus the privacy-amplification parameters.

    ``m`` and ``t_distribution``, which maps the phase-error count t (0..J1)
    to its probability, are keyword-only and required.  The counts are
    integers (not bool), ``n_bar`` and ``n_under`` at least 1 when given.
    """

    j0: int = 0
    j1: int = 0
    j2: int = 0
    j3: int = 0
    j4: int = 0
    j5: int = 0
    m: int = field(kw_only=True)
    n_bar: int | None = None
    n_under: int | None = None
    t_distribution: Mapping[int, float] = field(kw_only=True)

    def __post_init__(self):
        for name in ("j0", "j1", "j2", "j3", "j4", "j5", "m", "n_bar", "n_under"):
            v = getattr(self, name)
            low = int(name.startswith("n_"))  # n_bar and n_under: optional key sizes
            if v is None and low:
                continue
            if isinstance(v, bool) or not isinstance(v, Integral) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        if not isinstance(self.t_distribution, Mapping):
            raise TypeError("t_distribution must be an object mapping t to its probability")
        dist = {}
        for key, p in self.t_distribution.items():
            integral = isinstance(key, Integral) and not isinstance(key, bool)
            if not (integral or isinstance(key, str) and key.removeprefix("-").isdecimal()):
                raise ValueError(f"t_distribution key {key!r} is not an integer t")
            if int(key) in dist:
                raise ValueError(f"t_distribution key {key!r} names t={int(key)} twice")
            dist[int(key)] = p
        probs = check_law("t_distribution", list(dist.values()))
        for t in dist:
            if not 0 <= t <= self.j1:
                raise ValueError(f"t={t} outside [0, J1={self.j1}]")
        self.t_distribution = dict(zip(dist, probs.tolist()))


# What each error-correction direction leaves to the key.  First, the J
# parts (indices into J0..J5) that Eve holds outright; their sum is K2.
# Second, the key's credit per sent pulse in the asymptotic rates, from
# (nu, p0, p_D): the rate of the parts of {0, 3, 4, 5} outside K2, where J0
# detects at nu0 (p0 - p_D) and the dark counts J3, J4, J5 at nu0 p_D,
# nu1 p_D, nu2 p_D.  So forward keeps the vacuum counts, reverse every dark
# count and two-way only the vacuum dark counts (the GLLP-ILM rate credits
# none).  The two-way bound depends only on the t-marginal, so mixing over
# adaptively chosen codes leaves it unchanged.
EC_DIRECTIONS = {
    "forward": ((2, 4, 5), lambda nu, p0, p_dark: nu.v0 * p0),
    "reverse": ((0, 2), lambda nu, p0, p_dark: p_dark),
    "twoway": ((0, 2, 4, 5), lambda nu, p0, p_dark: nu.v0 * p_dark),
}


def k2_count(j: Sequence[int], direction: str) -> int:
    """K2 for the counts j = (J0, ..., J5) under the given direction."""
    if direction not in EC_DIRECTIONS:
        raise ValueError(f"unknown error-correction direction {direction!r}")
    return sum(j[i] for i in EC_DIRECTIONS[direction][0])


def averaged_bound(inputs: BoundInputs, direction: str) -> float:
    """The phase-error bound averaged over t for the given direction."""
    k2 = k2_count((inputs.j0, inputs.j1, inputs.j2, inputs.j3, inputs.j4, inputs.j5),
                  direction)
    return sum(p * min_decoding_bound(inputs.j1, k2, t, inputs.m)
               for t, p in inputs.t_distribution.items())


def averaged_eve_info_bound(p_av: float, n_bar: int) -> float:
    """Bound P_av (N_bar + 1 - log2 P_av) on Eve's averaged information."""
    check_probability("p_av", p_av)
    if p_av == 0.0:
        return 0.0
    return p_av * (n_bar + 1.0 - math.log2(p_av))


def per_bit_eve_info_bound(p_av: float, n_under: int) -> float:
    """Per-key-bit information bound hbar(P_av)/N_under + P_av."""
    if n_under < 1:
        raise ValueError("minimum key size must be >= 1")
    check_probability("p_av", p_av)
    return hbar(p_av) / n_under + p_av


# ----------------------------------------------------------------------
# Desk-scale verification of the decoding-error proposition.


@dataclass(frozen=True)
class DecodingCheck:
    """Result of one decoding-error verification run."""

    empirical_mean: float     # avg over weight<=t part-1 patterns, worst part-2
    empirical_max: float      # worst pattern overall (still seed-averaged)
    bound: float
    n_seeds: int
    n_patterns: int


def verify_proposition_decoding(n0: int, n1: int, n2: int, t: int,
                                c1_dim: int, m: int,
                                rng: np.random.Generator | None = None) -> DecodingCheck:
    """Replay the decoding-error bound 2^(n1 hbar(t/n1) + n2 - m) exactly.

    Coordinates are split into a noiseless part (n0 bits), a part with at
    most t flips (n1 bits) and an unconstrained part (n2 bits).  C1 is the
    image of a random full-rank M_e; every hash seed s gives the subcode
    C2 = M_e ker H_s with H_s = (X_s, I) Toeplitz.  The decoder knows only
    the coset y + C2-perp of the error y: among the estimates y ^ c with c
    in C2-perp and part 0 zero it takes the one of least part-1 weight,
    ties to the lex-smallest estimate, and fails unless c lies in C1-perp.
    From structure: w is in C2-perp exactly when M_e^T w lies in the row
    space of H_s, and in C1-perp exactly when M_e^T w = 0.  A
    BoundViolation is raised if any pattern's seed-averaged failure rate
    beats the analytic bound.
    """
    n = n0 + n1 + n2
    if n > DECODING_GUARD_N:
        raise CapacityError(f"N={n} exceeds guard {DECODING_GUARD_N}")
    if not 0 <= t <= n1:
        raise ValueError("need 0 <= t <= n1")
    if not 1 <= m < c1_dim <= n:
        raise ValueError("need 1 <= m < c1_dim <= N")
    l = c1_dim - m
    rng = rng or np.random.default_rng(0)

    # Imported here: protocol imports this module through decoy and rates,
    # and perfbench's LAYER_MAP lists no second binder of the sampler.
    from .protocol import random_full_rank_matrix
    m_e = random_full_rank_matrix(rng, n, c1_dim)
    seeds = np.arange(1 << (c1_dim - 1))

    # Word j stands for j << n0: the words with part 0 zero.  Its class is
    # M_e^T w, numbered by its bits at the pivot columns of a reduced basis.
    rows = np.array(m_e.row_bits[n0:], dtype=np.int64)
    basis, pivots = _rref(rows.tolist(), c1_dim)
    basis = np.array(basis, dtype=np.int64)
    cls = span_array((rows[:, None] >> np.int64(pivots) & 1) @ (1 << np.arange(len(pivots))))
    # Row i of H_s is (s >> i) & (2^m - 1) | 1 << (m + i): w is in C2-perp iff
    # v = M_e^T w has syndrome (v & (2^m - 1)) ^ XOR_i v_(m+i) (s >> i) = 0.
    low = (seeds[:, None, None] >> np.arange(l)) & ((1 << m) - 1)
    cands = np.bitwise_xor.reduce(low * (basis[:, None] >> m + np.arange(l) & 1), axis=2) \
        ^ (basis & ((1 << m) - 1))
    words = np.arange(1 << n1)
    part1 = words[np.bitwise_count(words) <= t]
    ys = ((np.arange(1 << n2)[:, None] << n1) | part1).ravel()
    fails = kernels.restricted_decode_flags(cands, cls, (1 << n1) - 1, ys, n - n0)

    fail_rate = fails / len(seeds)
    bound = 2.0 ** ((n1 * hbar(t / n1) if n1 else 0.0) + n2 - m)

    # np.mean's own add-reduce and divide, bit for bit, without its dispatch.
    empirical_mean = float((fail_rate.reshape(1 << n2, -1).sum(axis=1) / len(part1)).max())
    empirical_max = float(fail_rate.max())
    if empirical_max > bound + 1e-12:
        raise BoundViolation(
            f"decoding failure {empirical_max} exceeds bound {bound}")
    return DecodingCheck(empirical_mean, empirical_max, bound,
                         len(seeds), len(ys))

