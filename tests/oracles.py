"""Independent brute-force oracles shared by the tests.

Each one restates a definition directly, with no call into the code paths
it checks: the library decodes and counts from structure, these enumerate.
The two channel samplers are the earlier per-group code, kept verbatim:
the library's samplers must make the same draws.  So is the symmetric
decoy interval at the end, which the library's key-term corner must
reproduce bit for bit.

Two references need no speed and so run only here: Eve's states as dense
density matrices (dimension 4^l), which check the oracle's block formulas,
and the exact universality profile of completely random binary matrices,
which the Toeplitz family is compared with.  ``matrix_from_rows`` builds a
``BitMatrix`` from 0/1 rows for the worked examples.

``replay_public_decisions`` rebuilds a session's step-4 and step-6 lines
from its transcript, its config and the detector's dark-count rate alone,
so no decision can have read the simulator's private data.  Only the
m-rule's estimate is the library's own.

``least_sacrifice`` is no oracle of ``bounds``: it inverts
``bounds.averaged_bound`` by bisection, so that the finite-length bound can
be compared with the asymptotic rates.
"""

import dataclasses
import functools
import math
import operator
import re
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from decoybb84.bounds import BoundInputs, averaged_bound, hbar, k2_count
from decoybb84.channel import (DARK, MULTI, NORMAL, PLUS, SINGLE, TIMES, UNDETECTED, VACUUM,
                               ChannelStrategy)
from decoybb84.decoy import EstimateInterval, ObservedRates, SourceDistribution
from decoybb84.errors import CapacityError, DimensionMismatch, InfeasibleObservation
from decoybb84.gf2 import BitMatrix, BitVector, lex_key, pack_rows
from decoybb84.kernels import decode_table
from decoybb84.oracle import PauliErrorDistribution
from decoybb84.protocol import DExperimental, DInitial, initial_eve_info_m_rule


def matrix_from_rows(rows: Sequence[Sequence[int]]) -> BitMatrix:
    """The matrix with the given 0/1 rows, column j at bit j."""
    cols = len(rows[0]) if len(rows) else 0
    return BitMatrix(len(rows), cols, tuple(pack_rows(np.reshape(rows, (len(rows), cols)))))


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
                best_key = lex_key(best.bits, n)
            k = lex_key(c.bits, n)
            if k < best_key:
                best, best_key = c, k
    return best


def transpose_image_membership(l: int, m: int, seed: BitVector, z: BitVector) -> bool:
    """True iff z = (x, y) lies in Im M_p^T for the hash of the (l+m-1)-bit
    seed, i.e. x = X^T y."""
    if z.length != l + m:
        raise DimensionMismatch("z must have length l+m")
    x_part = z.bits & ((1 << m) - 1)
    y_part = z.bits >> m
    acc = 0
    for i in range(l):
        if (y_part >> i) & 1:
            acc ^= (seed.bits >> i) & ((1 << m) - 1)
    return acc == x_part


def random_matrix_universality_profile(l: int, m: int) -> dict[int, Fraction]:
    """Exact membership fractions for the fully random matrix family.

    Enumerates all 2^(l*(l+m)) matrices, so only tiny sizes are feasible.
    """
    n_bits = l * (l + m)
    if n_bits > 16:
        raise CapacityError(f"matrix space 2^{n_bits} exceeds guard 2^16")
    width = l + m
    counts = np.zeros(1 << width, dtype=np.int64)
    for mat in range(1 << n_bits):
        rows = tuple((mat >> (i * width)) & ((1 << width) - 1) for i in range(l))
        # Row space of M_p equals Im M_p^T.
        seen = {0}
        for r in rows:
            if r != 0 and r not in seen:
                seen |= {s ^ r for s in seen}
        for z in seen:
            counts[z] += 1
    denom = 1 << n_bits
    return {z: Fraction(int(counts[z]), denom) for z in range(1, 1 << width)}


def per_shift_transitions(words: np.ndarray, labels: np.ndarray, n: int, n_lab: int,
                          shifts: Sequence[tuple[int, int]]) -> np.ndarray:
    """Row e: the law of label(decode(e ^ s)) ^ label_s over the listed
    shifts (s, label_s), one ``bincount`` pass per shift.

    It checks the averaging of ``oracle._label_transitions``, so it shares
    that routine's decoder, ``decode_table`` on the words as given.
    """
    label = np.zeros(1 << n, dtype=np.int64)
    label[words] = labels
    dec = label[decode_table(words, n)]
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


def logical_law_reference(channel, m_e: BitMatrix, m_p: BitMatrix) -> tuple[np.ndarray, float]:
    """(logical law, p_ph) of ``reduce_code_channel`` by enumeration, N <= 8.

    Both decoders are the library's: minimum distance with ties to the
    lex-smallest codeword, averaged over the transmitted word.  Codeword
    M_e z carries the key label M_p z and shifts over the whole code.  A
    phase codeword w in C2perp carries the unique a with M_e^T w = M_p^T a,
    its phase on the final key (Shor and Preskill, PRL 85, 441 (2000)); the
    shifts are C1perp, where a = 0.  ``channel`` is a joint law
    ``{(x_pattern, z_pattern): prob}`` or a list of per-site laws.
    """
    n, lm, l = m_e.rows, m_e.cols, m_p.rows
    if n > 8:
        raise CapacityError(f"N={n} exceeds the reference guard 8")

    def image(rows, v):  # bit i is row i . v
        return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(rows))

    def row_sum(rows, v):  # the rows at the set bits of v, summed
        return functools.reduce(operator.xor, (r for i, r in enumerate(rows) if v >> i & 1), 0)

    key_code = {image(m_e.row_bits, z): image(m_p.row_bits, z) for z in range(1 << lm)}
    phase_of = {row_sum(m_p.row_bits, a): a for a in range(1 << l)}
    phase_code = {w: phase_of[v] for w in range(1 << n)
                  if (v := row_sum(m_e.row_bits, w)) in phase_of}
    ax = _averaged_decoder(key_code, list(key_code), n, l)
    az = _averaged_decoder(phase_code, [w for w, a in phase_code.items() if a == 0], n, l)

    if isinstance(channel, Mapping):
        joint = np.zeros((1 << n, 1 << n))
        for (ex, ez), p in channel.items():
            joint[ex, ez] += p
    else:
        joint = np.ones((1, 1))
        for law in channel:  # site i lands on bit i of (ex, ez)
            site = np.zeros((2, 2))
            for (x, z), p in law.items():
                site[x, z] = p
            joint = np.kron(site, joint)
    return ax.T @ joint @ az, float(joint.sum(axis=0) @ (1.0 - az[:, 0]))


def _averaged_decoder(code: Mapping[int, int], shifts: Sequence[int], n: int,
                      l: int) -> np.ndarray:
    """Row e: the law of label(decode(e ^ s)) ^ label(s) over the shifts s,
    for the code ``{codeword: label}``."""
    words = [BitVector(n, c) for c in code]
    dec = [code[min_distance_decode(BitVector(n, e), words).bits] for e in range(1 << n)]
    counts = np.zeros((1 << n, 1 << l))
    for e in range(1 << n):
        for s in shifts:
            counts[e, dec[e ^ s] ^ code[s]] += 1
    return counts / len(shifts)


def pauli_from_dict(l: int, entries: Mapping[tuple[int, int], float]) -> PauliErrorDistribution:
    """The l-bit logical law with probability ``entries[(x, z)]`` at (x, z)."""
    p = np.zeros((1 << l, 1 << l))
    for (x, z), v in entries.items():
        p[x, z] = v
    return PauliErrorDistribution(l, p)


# ----------------------------------------------------------------------
# Dense density-matrix path (dimension 4^l; l <= 2 intended).


def dense_eve_state(dist: PauliErrorDistribution, y: int) -> np.ndarray:
    """Eve's full density matrix for final key y, basis index x*2^l + z."""
    l = dist.l
    dim = 1 << (2 * l)
    rho = np.zeros((dim, dim))
    px = dist.x_marginal()
    cond = np.divide(dist.probs, px[:, None], out=np.zeros_like(dist.probs),
                     where=px[:, None] > 0)
    for x in range(1 << l):
        if px[x] == 0:
            continue
        amps = np.array([
            (-1.0) ** ((z & y).bit_count()) * math.sqrt(cond[x, z])
            for z in range(1 << l)
        ])
        base = x << l
        rho[base:base + (1 << l), base:base + (1 << l)] += px[x] * np.outer(amps, amps)
    return rho


def dense_average_state(dist: PauliErrorDistribution) -> np.ndarray:
    """Key-averaged Eve state: diagonal with entries P(x, z)."""
    return np.diag(dist.probs.ravel())


def quantum_relative_entropy_bits(rho: np.ndarray, sigma: np.ndarray,
                                  tol: float = 1e-12) -> float:
    """D(rho || sigma) in bits for Hermitian PSD matrices, supp rho <= supp sigma."""
    lam_r, vec_r = np.linalg.eigh(rho)
    lam_s, vec_s = np.linalg.eigh(sigma)
    term_r = float((lam_r[lam_r > tol] * np.log2(lam_r[lam_r > tol])).sum())
    term_s = 0.0
    for i, lam in enumerate(lam_s):
        if lam > tol:
            v = vec_s[:, i]
            term_s += float(v @ rho @ v) * math.log2(lam)
    return term_r - term_s


def dense_mutual_information(dist: PauliErrorDistribution) -> float:
    """Average over keys of D(rho_E(y) || rho_bar), the direct definition."""
    rho_bar = dense_average_state(dist)
    total = 0.0
    n = 1 << dist.l
    for y in range(n):
        total += quantum_relative_entropy_bits(dense_eve_state(dist, y), rho_bar)
    return total / n


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(a)
    lam = np.clip(lam, 0.0, None)
    return (vec * np.sqrt(lam)) @ vec.T


def dense_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Tr sqrt(sqrt(b) a sqrt(b)) for PSD a, b."""
    rb = _psd_sqrt(b)
    lam = np.linalg.eigvalsh(rb @ a @ rb)
    return float(np.sqrt(np.clip(lam, 0.0, None)).sum())


def dense_trace_norm(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


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
            # Invert r' = p_S (1 - r) + (1 - p_S) r.
            r1_max_raw = (r1_max_raw - obs.p_s) / (1.0 - 2.0 * obs.p_s)
        r1_max, c = _clamp01(r1_max_raw)
        clamped |= c
        q1_min, c = _clamp01(q1_min_raw)
        clamped |= c

    r1_min_raw = (s_num - (1.0 - pd) * v2) / den_max
    if obs.p_s > 0.0:
        r1_min_raw = (r1_min_raw - obs.p_s) / (1.0 - 2.0 * obs.p_s)
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


def replay_public_decisions(cfg, p_dark: float, transcript: Sequence[str]) -> list[str]:
    """The ``4 both abort`` line, or the ``6 both`` lines, that a session
    with this config and transcript must announce.

    Parses the kinds (giving D_initial's counts a), the ``C``/``E`` counts
    and every ``H[k]=`` of the step-4 and step-5 bob lines, then decides as
    the parties do: abort at step 4 unless both raw-key kinds have more than
    N common-basis pulses; per basis, + then x, lm = floor(N (1 - hbar(H /
    (E - N)))), m from ``constant:K`` or ``initial_eve_info_m_rule``, abort
    when lm - m < N_under, else clamp the length lm - m to N_bar.
    """
    n_kinds = 2 * cfg.k + 1
    a = [0] * n_kinds
    h = [0] * n_kinds
    for line in transcript:
        if line.startswith("2 alice kinds "):
            for kind in line[len("2 alice kinds "):].split(","):
                a[int(kind)] += 1
        elif counts := re.fullmatch(r"3 bob counts C=(\S+) E=(\S+)", line):
            c, e = ([int(v) for v in group.split(",")] for group in counts.groups())
        elif errors := re.fullmatch(r"[45] bob .*H\[(\d+)\]=(\d+)", line):
            h[int(errors[1])] = int(errors[2])
    n, x_kind, plus_kind = cfg.n, cfg.i0, cfg.i0 + cfg.k
    if min(e[x_kind], e[plus_kind]) <= n:
        return [f"4 both abort E_i0={e[x_kind]} E_i0k={e[plus_kind]} <= N={n}"]
    d_init, d_exp = DInitial(tuple(a), p_dark), DExperimental(tuple(c), tuple(e), tuple(h))
    lines = []
    for basis, kind in (("plus", plus_kind), ("times", x_kind)):
        lm = math.floor(n * (1.0 - hbar(h[kind] / (e[kind] - n))))
        if cfg.m_rule.startswith("constant:"):
            m = int(cfg.m_rule[len("constant:"):])
        else:
            m = initial_eve_info_m_rule(cfg, d_init, d_exp, basis, lm)
        if lm - m < cfg.n_under:
            return lines + [f"6 both abort {basis}: N eta - m = {lm - m} < N_under={cfg.n_under}"]
        clamped = lm - m > cfg.n_bar
        m = lm - cfg.n_bar if clamped else m
        lines.append(f"6 both {basis} lm={lm} m={m} l={lm - m}" + " clamped" * clamped)
    return lines


def least_sacrifice(j: Sequence[int], r1: float, direction: str,
                    target: float = 2.0 ** -10) -> int:
    """The least m with ``bounds.averaged_bound`` at most ``target`` for the
    counts j = (J0, ..., J5) and t ~ Binomial(J1, r1), 0 < r1 < 1.

    The pmf is trimmed below 1e-18 and renormalized.  The bound does not
    grow with m and is at most 2^(J1 + K2 - m), so a bisection over
    [0, J1 + K2 - log2(target)] finds m.
    """
    n1 = j[1]
    pmf = {t: math.exp(math.lgamma(n1 + 1) - math.lgamma(t + 1) - math.lgamma(n1 - t + 1)
                       + t * math.log(r1) + (n1 - t) * math.log1p(-r1))
           for t in range(n1 + 1)}
    kept = {t: p for t, p in pmf.items() if p >= 1e-18}
    total = math.fsum(kept.values())
    inputs = BoundInputs(*j, t_distribution={t: p / total for t, p in kept.items()})
    lo, hi = 0, n1 + k2_count(j, direction) + math.ceil(-math.log2(target))
    while lo < hi:
        mid = (lo + hi) // 2
        if averaged_bound(dataclasses.replace(inputs, m=mid), direction) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo
