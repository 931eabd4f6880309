"""Seeded end-to-end simulation of the decoy-state BB84 session.

A session runs its phases in draw order: ``_transmit`` (step 1 and the
channel, all private), ``_announce_detections`` (steps 2-3),
``_check_bits`` (steps 4-5, once the step-4 counts suffice), ``decide_sizes``
(step 6: the EC length, the sacrifice bits m, the N_bar clamp and the
N_under abort, a pure function of the public D_initial and D_experimental)
and ``_correct_and_amplify`` (steps 7-10, error correction then Toeplitz
privacy amplification, once per basis).  Both error-correction directions
run through one ``error_correct`` call; forward has Alice mask and Bob
decode, reverse swaps the two roles.  Everything is driven by one numpy
Generator seeded from the config, so a session is a pure function of
(config, strategy, seed).  Each phase appends its announcements to one log
as (step, party, template, args), the template a ``str.format`` string of
the line's payload; the text is rendered only when
``SessionOutcome.transcript`` is read, byte-identical across runs.

The outcome also carries ``truth``, the realized classification of each
basis's raw key.  The parties never see it, and no bound is computed here:
the exact bound it gives is the analyst's, built by the caller that reports
it (``cli``'s ``simulate`` entry).

Conventions the protocol text leaves open (documented assumptions):

* the receiver measures each detected pulse in a uniformly random basis,
* non-integer key-length products are floored,
* check-bit positions are drawn uniformly without replacement among the
  common-basis pulses of the raw-key kinds,
* the vacuum decoy (kind 0) is a true vacuum with no basis, and its
  counting rate estimates the dark-count-inclusive vacuum rate,
* detector/generator errors flip single- and multi-photon bits at the
  calibrated per-basis rates; dark and spurious counts are already uniform,
* measurement works at the reduced three-outcome level (no click / 0 / 1);
  double-click resolution by a fair coin is absorbed into the strategy's
  error rates.
"""

from __future__ import annotations

import hashlib
import math
import string
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import hashing, kernels
from .channel import (NORMAL, PLUS, TIMES, UNDETECTED, VACUUM, ChannelStrategy,
                      apply_bit_errors, categorical, classify, group_uniforms,
                      sample_detection, sample_flips, uniform_mask)
from .decoy import ObservedRates, SourceDistribution, minimize_key_term
from .errors import (CapacityError, DimensionMismatch, InfeasibleObservation, check_flip_rate,
                     check_law)
from .gf2 import (BitMatrix, BitVector, _preimage, _reduce_with_ids, mat_vec_mul, pack_rows,
                  rank, span_array)
# solve: unused here, kept for perfbench's LAYER_MAP.
from .gf2 import solve  # noqa: F401
from .hashing import sample_seed
from .rates import initial_eve_information_asymptotic, shannon_eta

DECODE_GUARD = 1 << 20  # words an EC decode may spend on its walk or its scan


@dataclass(frozen=True)
class DInitial:
    """Initial data beyond the config: pulse-kind counts, dark-count calibration."""

    a: tuple[int, ...]
    p_dark: float


@dataclass(frozen=True)
class DExperimental:
    """Experimental data: detected / common-basis / error counts per kind."""

    c: tuple[int, ...]
    e: tuple[int, ...]
    h: tuple[int, ...]


@dataclass
class SessionConfig:
    n: int
    n_bar: int
    n_under: int
    n_prime: int
    nus: tuple[SourceDistribution, ...]
    i0: int
    p_bar: tuple[float, ...]
    p_s: float = 0.0
    p_s_tilde: float = 0.0
    m_rule: str = "initial-eve-info"
    margin_bits: int = 0
    ec_direction: str = "forward"
    rng_seed: int = 0
    decode_guard: int = DECODE_GUARD

    def __post_init__(self):
        for name in ("n", "n_bar", "n_under", "n_prime", "i0", "margin_bits", "decode_guard"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.decode_guard < 1:
            raise ValueError(f"decode_guard must be at least 1, got {self.decode_guard}")
        k = len(self.nus)
        if k < 1:
            raise ValueError("need at least one source distribution")
        if len(self.p_bar) != 2 * k + 1:
            raise ValueError(f"p_bar must have 2k+1 = {2 * k + 1} entries")
        check_law("p_bar", self.p_bar)
        check_flip_rate("p_s", self.p_s)
        check_flip_rate("p_s_tilde", self.p_s_tilde)
        if not 1 <= self.i0 <= k:
            raise ValueError("i0 must index one of the k distributions")
        if not self.n < self.n_prime:
            raise ValueError("need N < N'")
        if not 1 <= self.n_under <= self.n_bar <= self.n:
            raise ValueError("need 1 <= N_under <= N_bar <= N")
        if self.ec_direction not in ("forward", "reverse"):
            raise ValueError("ec_direction must be 'forward' or 'reverse'")
        _constant_m(self.m_rule)

    @property
    def k(self) -> int:
        return len(self.nus)


@dataclass
class BasisResult:
    """Per-basis outcome of steps 6-10."""

    observed_error: float
    lm: int
    m: int
    alice_key: BitVector | None = None
    bob_key: BitVector | None = None
    ec_success: bool = False
    m_clamped: bool = False

    @property
    def length(self) -> int:
        """l = lm - m, the final key length."""
        return self.lm - self.m


@dataclass
class SessionOutcome:
    abort_step: int | None
    abort_reason: str | None
    plus: BasisResult | None
    times: BasisResult | None
    experiment: DExperimental
    # (step, party, template, args): each line of the log is
    # f"{step} {party} " + _PAYLOAD.format(template, *args), with args the
    # announced values, bound at announce time.
    announcements: tuple[tuple[int, str, str, tuple], ...] = field(repr=False, compare=False)
    truth: dict
    config: SessionConfig
    initial: DInitial

    @property
    def transcript(self) -> tuple[str, ...]:
        """The public announcements, one line each, rendered on every read."""
        return tuple(f"{step} {who} " + _PAYLOAD.format(template, *args)
                     for step, who, template, args in self.announcements)

    @property
    def completed(self) -> bool:
        return self.abort_reason is None

    @property
    def status(self) -> str:
        return "completed" if self.completed else "aborted"

    def keys_match(self) -> bool:
        return (self.completed
                and self.plus.alice_key == self.plus.bob_key
                and self.times.alice_key == self.times.bob_key)


def _hexbits(bits: np.ndarray) -> str:
    return np.packbits(bits.astype(np.uint8)).tobytes().hex()


def _ints(values: np.ndarray) -> str:
    return ",".join(map(str, values.tolist()))


class _Payload(string.Formatter):
    """Renders a log entry's payload template when a transcript is read.

    Spec ``ints`` joins an integer array, ``bits`` packs a bit array to
    hex, and ``code`` digests the rows of an EC code; any other spec is
    ``format``'s."""

    def format_field(self, value, spec):
        if spec == "ints":
            return _ints(value)
        if spec == "bits":
            return _hexbits(value)
        if spec == "code":
            rows = b"".join(r.to_bytes(16, "little") for r in value)
            return hashlib.sha256(rows).hexdigest()[:16]
        return format(value, spec)


_PAYLOAD = _Payload()


def random_full_rank_matrix(rng: np.random.Generator, rows: int, cols: int) -> BitMatrix:
    """Uniform binary matrix conditioned on full column rank."""
    if cols > rows:
        raise DimensionMismatch("need cols <= rows for an injective generator")
    while True:
        mat = BitMatrix(rows, cols, tuple(pack_rows(rng.integers(0, 2, size=(rows, cols)))))
        if rank(mat) == cols:
            return mat


def decode_to_seed(m_e: BitMatrix, received: BitVector,
                   guard: int = DECODE_GUARD) -> BitVector:
    """Recover z from a noisy M_e z by minimum-distance decoding.

    One coset decode over one reduction of (M_e | I): its checks give the
    syndrome of ``received``, and its pivot rows back-substitute the seed
    of the chosen codeword (MacWilliams & Sloane, ch. 1).  Syndrome 0 is
    the code itself, so ``received`` is its own nearest codeword and its
    preimage (free unknowns 0) is returned at once.  Otherwise the error
    patterns e are walked by weight until some have that syndrome: the
    words received ^ e are then the nearest codewords, and
    ``kernels.nearest_index`` picks the lex-smallest.  The walk stops
    before its ball of patterns would pass min(2^lm, guard); the whole
    code is then scanned if its 2^lm words are within the guard, and
    ``CapacityError`` raised if not.  The walk and the scan pack words into
    ``uint64``, so a code longer than 64 bits decodes only its own words.
    """
    n, lm = m_e.rows, m_e.cols
    if n != received.length:
        raise DimensionMismatch(f"matrix rows {n} != vector length {received.length}")
    pivots, checks = _reduce_with_ids(m_e)
    syndrome = sum(((c & received.bits).bit_count() & 1) << k for k, c in enumerate(checks))
    if syndrome == 0:
        return BitVector(lm, _preimage(pivots, lm, received.bits))
    if n > 64:
        raise CapacityError(f"code length N={n} exceeds the 64-bit words of the EC decode")
    unit = [0] * n  # unit[j]: the syndrome of bit j alone, bit k from check k
    for k, h in enumerate(checks):
        while h:
            low = h & -h
            unit[low.bit_length() - 1] |= 1 << k
            h ^= low
    errors = kernels.least_weight_errors(unit, syndrome, min(1 << lm, guard))
    if errors is None and 1 << lm > guard:
        weight, ball = 0, 1  # up to the weight whose ball stopped the walk
        while ball <= guard:
            weight, ball = weight + 1, ball + math.comb(n, weight + 1)
        raise CapacityError(f"EC decode walk stopped at weight {weight}: its ball of {ball} "
                            f"patterns and the 2^{lm} codewords both exceed guard {guard}")
    words = (span_array(m_e.transpose().row_bits) if errors is None
             else errors ^ np.uint64(received.bits))
    word = int(words[kernels.nearest_index(words, received.bits, n)])
    return BitVector(lm, _preimage(pivots, lm, word))


def error_correct(x_send: BitVector, x_recv: BitVector, m_e: BitMatrix,
                  rng: np.random.Generator,
                  guard: int = DECODE_GUARD) -> tuple[BitVector, BitVector, BitVector]:
    """One error-correction round in either direction.

    The sender masks a fresh seed z with their raw key and announces
    ``masked = M_e z + x_send``; the receiver adds their raw key and decodes
    the noisy codeword M_e z + e.  Returns (z, masked, receiver's seed).
    """
    if x_send.length != m_e.rows or x_recv.length != m_e.rows:
        raise DimensionMismatch("raw keys must match the code length")
    z = BitVector.from_bits(rng.integers(0, 2, size=m_e.cols))
    masked = mat_vec_mul(m_e, z) ^ x_send
    return z, masked, decode_to_seed(m_e, masked ^ x_recv, guard)


# ----------------------------------------------------------------------
# Sacrifice-bit rules.


def initial_eve_info_m_rule(cfg: SessionConfig, d_init: DInitial,
                            d_e: DExperimental, basis: str, lm: int) -> int:
    """Default placeholder rule: the initial-Eve-information estimate.

    Phase errors of one basis are bit errors of the conjugate basis, so the
    single-photon yield and phase-error rate come from
    ``decoy.minimize_key_term`` on the conjugate raw-key kind (with the
    initial data's p_D and that kind's flip rate: p_S for plus, p~_S for
    times), or (0, 1) when the observations admit no estimate.  They are fed into
    ``rates.initial_eve_information_asymptotic``,
    N (1 - nu1 q1 (1 - hbar(r1)) / p - credit / p), plus a margin knob.
    The pair is the normal one (``decoy._x_balance`` subtracts p_D), so at
    expected counts the estimate is J1 h(r1) + K2: N times the limit of
    m / N for the least m that the finite-length bound allows.
    A finite-sample statistical treatment is out of scope here.
    """
    k = cfg.k
    key_kind = cfg.i0 + k if basis == "plus" else cfg.i0
    conj_kind = cfg.i0 if basis == "plus" else cfg.i0 + k
    nu = cfg.nus[cfg.i0 - 1]
    a0, c0 = d_init.a[0], d_e.c[0]
    p0_hat = c0 / a0 if a0 > 0 else d_init.p_dark
    p_key = d_e.c[key_kind] / d_init.a[key_kind] if d_init.a[key_kind] else 0.0
    p_conj = d_e.c[conj_kind] / d_init.a[conj_kind] if d_init.a[conj_kind] else 0.0
    n_check = d_e.e[conj_kind] - cfg.n
    s_conj = d_e.h[conj_kind] / n_check if n_check > 0 else 1.0
    p_key = max(p_key, 1e-12)
    obs = ObservedRates(p0=p0_hat, p_dark=d_init.p_dark,
                        p_nu_times=max(p_conj, 1e-12),
                        s_nu_times=min(1.0, s_conj),
                        p_s=cfg.p_s if basis == "plus" else cfg.p_s_tilde)
    try:
        q1, r1, _ = minimize_key_term(nu, obs)
    except InfeasibleObservation:
        q1, r1 = 0.0, 1.0
    m_est = initial_eve_information_asymptotic(nu, q1, r1, p0_hat, d_init.p_dark,
                                               p_key, cfg.n, cfg.ec_direction)
    return max(0, min(lm, math.ceil(m_est) + cfg.margin_bits))


def _constant_m(m_rule) -> int | None:
    """K >= 0 for ``"constant:K"``, None for ``"initial-eve-info"``."""
    if m_rule == "initial-eve-info":
        return None
    if isinstance(m_rule, str) and m_rule.startswith("constant:"):
        try:
            k = int(m_rule.split(":", 1)[1])
        except ValueError:
            pass
        else:
            if k < 0:
                raise ValueError(f"m_rule {m_rule!r} needs K >= 0")
            return k
    raise ValueError(f"unknown m_rule {m_rule!r}; "
                     "use 'initial-eve-info' or 'constant:K'")


# ----------------------------------------------------------------------
# The session: one function per phase, called in draw order.

# Per basis, in the order steps 6-10 take them: its name, its check-bit tag,
# its raw-key kind as i0 + k * offset, and its EC step (PA is the next).
_BASES = (("plus", "+", 1, 7), ("times", "x", 0, 9))


def _transmit(cfg: SessionConfig, strategy: ChannelStrategy, rng: np.random.Generator):
    """Draws 1-8.  Returns kinds, labels ``cls + 3 * det``, phase flips,
    the detected and common-basis masks, then Alice's and Bob's bits."""
    k, n_kinds = cfg.k, 2 * cfg.k + 1
    kinds = categorical(cfg.p_bar, rng.random(cfg.n_prime))
    cls = np.zeros(cfg.n_prime, dtype=np.int8)  # VACUUM, SINGLE, MULTI = 0, 1, 2
    groups = [np.flatnonzero(kinds == kind) for kind in range(1, n_kinds)]
    for kind, pos, u in zip(range(1, n_kinds), groups, group_uniforms(rng, groups)):
        nu = cfg.nus[(kind - 1) % k]
        cls[pos] = categorical((nu.v0, nu.v1, nu.v2), u)
    basis_alice = np.array([-1] + [TIMES] * k + [PLUS] * k, dtype=np.int8).take(kinds)
    alice_bits = rng.integers(0, 2, size=cfg.n_prime, dtype=np.int8)

    # Channel: detection tags, Bob's basis, then flips and uniform coins.
    det = sample_detection(strategy, cls, basis_alice, rng)
    detected = det != UNDETECTED
    bob_basis = rng.integers(0, 2, size=cfg.n_prime, dtype=np.int8)
    common = detected & (bob_basis == basis_alice)  # Bob's basis is never -1
    xflip, zflip = sample_flips(strategy, cls, det, basis_alice, rng)
    bob_bits = apply_bit_errors(alice_bits, xflip,
                                uniform_mask(cls, det, basis_alice, bob_basis), rng)
    # Detector/generator errors on signal bits: p~_S if measured in +, p_S in x.
    sig = (det == NORMAL) & (cls != VACUUM) & common
    ud = rng.random(cfg.n_prime)
    flip_det = sig & (ud < np.array([cfg.p_s_tilde, cfg.p_s]).take(bob_basis))
    return (kinds, cls + 3 * det, zflip, detected, common,
            alice_bits, bob_bits ^ flip_det.astype(np.int8))


def _announce_detections(log: list, n_kinds: int, kinds, detected, common):
    """Alice announces the kinds, Bob the detected and common-basis masks
    and their counts per kind, which are returned."""
    c_counts = np.bincount(kinds[detected], minlength=n_kinds)
    e_counts = np.bincount(kinds[common], minlength=n_kinds)
    log.extend([(2, "alice", "kinds {:ints}", (kinds,)),
                (3, "bob", "detected {:bits}", (detected,)),
                (3, "bob", "common {:bits}", (common,)),
                (3, "bob", "counts C={:ints} E={:ints}", (c_counts, e_counts))])
    return c_counts, e_counts


def _check_bits(cfg: SessionConfig, rng: np.random.Generator, log: list,
                kinds, common, alice_bits, bob_bits):
    """Draw 9: E - N check bits of each raw-key kind, x then +, then every
    bit of the other kinds.  Returns the error counts per kind and each
    basis's raw-key positions, in ``_BASES`` order."""
    h_counts = np.zeros(2 * cfg.k + 1, dtype=np.int64)
    raw = {}
    for name, tag, offset, _ in reversed(_BASES):
        kind = cfg.i0 + cfg.k * offset
        pos = np.flatnonzero(common & (kinds == kind))
        check = np.zeros(len(pos), dtype=bool)
        check[rng.choice(len(pos), size=len(pos) - cfg.n, replace=False)] = True
        check_pos, raw[name] = pos[check], pos[~check]
        sent = alice_bits[check_pos]
        h_counts[kind] = errs = int((sent != bob_bits[check_pos]).sum())
        log.extend([(4, "alice", "check-{} positions {:ints}", (tag, check_pos)),
                    (4, "alice", "check-{} bits {:bits}", (tag, sent)),
                    (4, "bob", "H[{}]={}", (kind, errs))])
    for kind in sorted(set(range(1, len(h_counts))) - {cfg.i0, cfg.i0 + cfg.k}):
        pos = np.flatnonzero(common & (kinds == kind))
        sent, got = alice_bits[pos], bob_bits[pos]
        h_counts[kind] = errs = int((sent != got).sum())
        log.extend([(5, "alice", "bits kind={} {:bits}", (kind, sent)),
                    (5, "bob", "bits kind={0} {1:bits} H[{0}]={2}", (kind, got, errs))])
    return h_counts, [raw[name] for name, *_ in _BASES]


def _step4_abort(cfg: SessionConfig, e_counts) -> str | None:
    """Why step 4 aborts, or None when both raw-key kinds have more than N
    common-basis pulses, which leaves E - N > 0 check bits each."""
    e_x, e_p = int(e_counts[cfg.i0]), int(e_counts[cfg.i0 + cfg.k])
    return f"E_i0={e_x} E_i0k={e_p} <= N={cfg.n}" if min(e_x, e_p) <= cfg.n else None


def decide_sizes(cfg: SessionConfig, d_init: DInitial,
                 d_exp: DExperimental) -> tuple[list[BasisResult], str | None]:
    """Step 6 from public data: per basis, + then x, lm = floor(N eta(e)),
    m by ``cfg.m_rule`` and the N_bar clamp.  Returns the bases decided and
    the reason the first with under N_under key bits aborts, or None.  Of
    ``cfg`` it reads only the public protocol parameters.  Data of a session
    that aborted at step 4 raise ``ValueError`` with the step-4 reason."""
    step4 = _step4_abort(cfg, d_exp.e)
    if step4 is not None:
        raise ValueError(f"step 4 aborted: {step4}")
    constant_m = _constant_m(cfg.m_rule)
    results = []
    for name, _, offset, _ in _BASES:
        kind = cfg.i0 + cfg.k * offset
        err = d_exp.h[kind] / (d_exp.e[kind] - cfg.n)
        lm = math.floor(cfg.n * shannon_eta(err))
        m_bits = (initial_eve_info_m_rule(cfg, d_init, d_exp, name, lm)
                  if constant_m is None else constant_m)
        if lm - m_bits < cfg.n_under:
            return results, f"{name}: N eta - m = {lm - m_bits} < N_under={cfg.n_under}"
        clamped = lm - m_bits > cfg.n_bar
        if clamped:
            m_bits = lm - cfg.n_bar
        results.append(BasisResult(observed_error=err, lm=lm, m=m_bits, m_clamped=clamped))
    return results, None


def _correct_and_amplify(cfg: SessionConfig, rng: np.random.Generator, log: list,
                         name: str, step: int, res: BasisResult, x_alice, x_bob):
    """Draw 10 for one basis: EC at ``step``, PA at the next.  Fills in
    the keys and EC success of ``res``."""
    sender, receiver = (("alice", "bob") if cfg.ec_direction == "forward"
                        else ("bob", "alice"))
    raw = {"alice": BitVector.from_bits(x_alice), "bob": BitVector.from_bits(x_bob)}
    m_e = random_full_rank_matrix(rng, cfg.n, res.lm)
    z, masked, z_hat = error_correct(raw[sender], raw[receiver], m_e, rng, cfg.decode_guard)
    seed = sample_seed(rng, res.length, res.m)
    log.extend([(step, "both", "{} code {:code}", (name, m_e.row_bits)),
                (step, sender, "{} masked {:x}", (name, masked.bits)),
                (step + 1, "both", "{} pa-seed {:x}", (name, seed.bits))])
    m_p = hashing.build_toeplitz(res.length, res.m, seed)
    seeds = {sender: z, receiver: z_hat}
    res.alice_key = mat_vec_mul(m_p, seeds["alice"])
    res.bob_key = mat_vec_mul(m_p, seeds["bob"])
    res.ec_success = z_hat == z


def run_session(cfg: SessionConfig, strategy: ChannelStrategy) -> SessionOutcome:
    rng = np.random.default_rng(cfg.rng_seed)
    kinds, labels, zflip, detected, common, alice_bits, bob_bits = _transmit(cfg, strategy, rng)
    log: list[tuple] = []  # (step, party, template, args), rendered when read
    c_counts, e_counts = _announce_detections(log, 2 * cfg.k + 1, kinds, detected, common)
    d_init = DInitial(tuple(np.bincount(kinds, minlength=2 * cfg.k + 1).tolist()),
                      strategy.p_dark)

    step, reason = 4, _step4_abort(cfg, e_counts)
    h_counts, raw, truth = np.zeros_like(c_counts), [], {}
    if reason is None:
        h_counts, raw = _check_bits(cfg, rng, log, kinds, common, alice_bits, bob_bits)
        # Ground truth for the oracle/bounds tests: classify raw-key positions.
        truth = {name: classify(labels[pos], zflip[pos]) for (name, *_), pos in zip(_BASES, raw)}
    experiment = DExperimental(*(tuple(v.tolist()) for v in (c_counts, e_counts, h_counts)))
    if reason is None:
        step = 6
        results, reason = decide_sizes(cfg, d_init, experiment)
        log.extend((6, "both", "{} lm={} m={} l={}" + (" clamped" if res.m_clamped else ""),
                    (name, res.lm, res.m, res.length))
                   for (name, *_), res in zip(_BASES, results))
    if reason is None:
        for (name, _, _, step_ec), res, pos in zip(_BASES, results, raw):
            _correct_and_amplify(cfg, rng, log, name, step_ec, res,
                                 alice_bits[pos], bob_bits[pos])
    else:
        log.append((step, "both", "abort {}", (reason,)))
        results = [None, None]
    return SessionOutcome(
        abort_step=step if reason else None, abort_reason=reason,
        plus=results[0], times=results[1], experiment=experiment,
        announcements=tuple(log), truth=truth, config=cfg,
        initial=d_init)

