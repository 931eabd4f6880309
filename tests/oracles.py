"""Independent brute-force oracles shared by the tests.

Each one restates a definition directly, with no call into the code paths
it checks: the library decodes and counts from structure, these enumerate.
The two channel samplers are the earlier per-group code, kept verbatim:
the library's samplers must make the same draws.  So is the symmetric
decoy interval at the end, which the library's key-term corner must
reproduce bit for bit.
"""

from typing import Mapping, Sequence

import numpy as np

from decoybb84.bounds import hbar
from decoybb84.channel import (DARK, MULTI, NORMAL, PLUS, SINGLE, TIMES, UNDETECTED, VACUUM,
                               ChannelStrategy)
from decoybb84.decoy import (EstimateInterval, ObservedRates, SourceDistribution,
                             _detector_corrected)
from decoybb84.errors import CapacityError, DimensionMismatch, InfeasibleObservation
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


def contract_reference(channel, ax: np.ndarray, az: np.ndarray) -> tuple[np.ndarray, float]:
    """(unnormalized logical law, p_ph) of ``oracle._contract`` from loops.

    The earlier code, kept verbatim: one ``np.outer`` per joint-law term,
    and one ``np.tensordot``, ``np.moveaxis`` and ``np.kron`` per site of a
    product law.  The library must match it to the bit.
    """
    size, n_lab = az.shape
    n = size.bit_length() - 1
    if isinstance(channel, Mapping):
        p_z = np.zeros(size)
        logical = np.zeros((n_lab, n_lab))
        for (ex, ez), p in channel.items():
            p_z[ez] += p
            logical += p * np.outer(ax[ex], az[ez])
    else:
        az_by_site = az.reshape((2,) * n + (n_lab,))
        p_z = np.ones(1)
        for i, law in enumerate(channel):
            site = np.zeros((2, 2))
            for (x, z), p in law.items():
                site[x, z] = p
            axis = n - 1 - i
            az_by_site = np.moveaxis(np.tensordot(site, az_by_site, axes=(1, axis)), 0, axis)
            p_z = np.kron(site.sum(axis=0), p_z)
        logical = ax.T @ az_by_site.reshape(size, n_lab)
    return logical, float((p_z * (1.0 - az[:, 0])).sum())


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


FEAS_TOL = 1e-9


def feasibility_check(nu: SourceDistribution, obs: ObservedRates,
                      candidate: tuple[float, float, float, float, float, float],
                      tol: float = FEAS_TOL) -> bool:
    """Check a full channel parameter tuple against all four balance equations.

    ``candidate`` is (q1, r1_x, q2_x, q2_plus, r2_x, r2_plus); yields must
    lie in [0, 1 - p_D] and error rates in [0, 1].
    """
    q1, r1x, q2x, q2p, r2x, r2p = candidate
    pd = obs.p_dark
    for q in (q1, q2x, q2p):
        if not -tol <= q <= 1.0 - pd + tol:
            return False
    for r in (r1x, r2x, r2p):
        if not -tol <= r <= 1.0 + tol:
            return False
    v0, v1, v2 = nu.v0, nu.v1, nu.v2
    p_plus = obs.p_nu_plus if obs.p_nu_plus is not None else obs.p_nu_times
    s_plus = obs.s_nu_plus if obs.s_nu_plus is not None else obs.s_nu_times
    residuals = (
        obs.p_nu_times - (v0 * obs.p0 + v1 * (pd + q1) + v2 * (pd + q2x)),
        p_plus - (v0 * obs.p0 + v1 * (pd + q1) + v2 * (pd + q2p)),
        obs.s_nu_times * obs.p_nu_times
        - (0.5 * v0 * obs.p0 + v1 * (0.5 * pd + r1x * q1)
           + v2 * (0.5 * pd + r2x * q2x)),
    )
    if any(abs(e) > tol for e in residuals):
        return False
    # The + error balance pins r1_plus, which must land in [0, 1].
    s_plus_num = (s_plus * p_plus - 0.5 * v0 * obs.p0 - 0.5 * v1 * pd
                  - v2 * (0.5 * pd + r2p * q2p))
    if v1 * q1 > tol:
        r1p = s_plus_num / (v1 * q1)
        return -tol <= r1p <= 1.0 + tol
    return abs(s_plus_num) <= tol


def key_term_scan(nu: SourceDistribution, obs: ObservedRates, n_q: int = 4001,
                  n_r: int = 11) -> np.ndarray:
    """q1 (1 - hbar(r1)) at every feasible point of an n_q x n_r grid.

    The grid spans q2_x in [0, 1 - p_D] and r2_x in [0, 1].  Each point
    solves the x-basis balances for (q1, r1_x) and the + basis counting
    balance for q2_plus, and is kept when all three lie in range and the +
    error balance admits some (r1_plus, r2_plus) in [0, 1]^2.  r1 is r1_x
    with the detector flips removed and clamped to [0, 1].
    """
    v0, v1, v2 = nu.v0, nu.v1, nu.v2
    p, s, p0, pd = obs.p_nu_times, obs.s_nu_times, obs.p0, obs.p_dark
    p_plus = obs.p_nu_plus if obs.p_nu_plus is not None else p
    s_plus = obs.s_nu_plus if obs.s_nu_plus is not None else s
    q2x = np.linspace(0.0, 1.0 - pd, n_q)[:, None]
    r2x = np.linspace(0.0, 1.0, n_r)[None, :]
    q1 = (p - v0 * p0 - v2 * (pd + q2x)) / v1 - pd
    q2p = (p_plus - v0 * p0 - v1 * (pd + q1)) / v2 - pd
    plus_errors = s_plus * p_plus - 0.5 * (v0 * p0 + v1 * pd + v2 * pd)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1x = (s * p - 0.5 * (v0 * p0 + v1 * pd + v2 * pd) - v2 * r2x * q2x) / (v1 * q1)
        r1 = np.clip((r1x - obs.p_s) / (1.0 - 2.0 * obs.p_s), 0.0, 1.0)
        h = -r1 * np.log2(r1) - (1.0 - r1) * np.log2(1.0 - r1)
    h = np.where(r1 > 0.5, 1.0, np.nan_to_num(h))
    ok = ((q1 > 0.0) & (q1 <= 1.0 - pd) & (q2p >= 0.0) & (q2p <= 1.0 - pd)
          & (r1x >= 0.0) & (r1x <= 1.0)
          & (plus_errors >= 0.0) & (plus_errors <= v1 * q1 + v2 * q2p))
    return (q1 * (1.0 - h))[ok]


def _clamp01(x: float) -> tuple[float, bool]:
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def interval_symmetric_reference(nu: SourceDistribution, obs: ObservedRates
                                 ) -> EstimateInterval:
    """The symmetric decoy interval with each end written out in full.

    The extremes sit at multi-photon yield 1 - p_D with zero error (lower
    end) and at multi-photon yield p_D only (upper end).
    """
    v0, v1, v2 = nu.v0, nu.v1, nu.v2
    p, s, p0, pd = obs.p_nu_times, obs.s_nu_times, obs.p0, obs.p_dark

    base = p - p0 * v0
    q1_min_raw = (base - v2) / v1 - pd
    q1_max_raw = (base - v2 * pd) / v1 - pd

    den_min = base - pd * v1 - v2            # = v1 * q1_min when in model
    den_max = base - pd * v1 - v2 * pd       # = v1 * q1_max
    s_num = s * p - 0.5 * p0 * v0 - 0.5 * pd * v1 - 0.5 * pd * v2
    if den_max <= 0.0:
        raise InfeasibleObservation("counting rates below the dark/vacuum floor")

    clamped = False
    if den_min <= 0.0:
        q1_min, r1_max = 0.0, 1.0
        clamped = True
    else:
        r1_max_raw = s_num / den_min
        if obs.p_s > 0.0:
            r1_max_raw = _detector_corrected(r1_max_raw, obs.p_s)
        r1_max, c = _clamp01(r1_max_raw)
        clamped |= c
        q1_min, c = _clamp01(q1_min_raw)
        clamped |= c

    r1_min_raw = (s_num - (1.0 - pd) * v2) / den_max
    if obs.p_s > 0.0:
        r1_min_raw = _detector_corrected(r1_min_raw, obs.p_s)
    r1_min_tilde, c = _clamp01(r1_min_raw)
    clamped |= c
    q1_max, c = _clamp01(q1_max_raw)
    clamped |= c

    q1_width = v2 * (1.0 - pd) / v1
    if den_min > 0.0:
        ratio = (1.0 - pd) * v2 / den_min
        a_pos = max(s_num - (1.0 - pd) * v2, 0.0)
        r1_width_bound = ratio * (1.0 + a_pos / den_min)
    else:
        r1_width_bound = 1.0
    return EstimateInterval(
        q1_min=q1_min, q1_max=q1_max, r1_max=r1_max, r1_min_tilde=r1_min_tilde,
        q1_width=q1_width, r1_width_bound=r1_width_bound, clamped=clamped)


def key_term_reference(nu: SourceDistribution, obs: ObservedRates
                       ) -> tuple[float, float, float]:
    """(q1_min, r1_max, q1_min (1 - hbar(r1_max))) of the reference interval."""
    interval = interval_symmetric_reference(nu, obs)
    return interval.q1_min, interval.r1_max, \
        interval.q1_min * (1.0 - hbar(interval.r1_max))
