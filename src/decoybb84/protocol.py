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
as (step, party, render, args); the text is rendered only when
``SessionOutcome.transcript`` is read, byte-identical across runs.

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
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Callable

import numpy as np

from . import kernels
from .bounds import k2_count, min_decoding_bound
from .channel import (NORMAL, PLUS, TIMES, UNDETECTED, VACUUM, ChannelStrategy,
                      ClassCounts, apply_bit_errors, categorical, classify, group_uniforms,
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

DECODE_GUARD = 1 << 20  # codewords an exhaustive EC decode may scan


@dataclass(frozen=True)
class DInitial:
    """Initial data: pulse-kind counts, source laws, detector calibration."""

    a: tuple[int, ...]
    nus: tuple[SourceDistribution, ...]
    p_s: float
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
    length: int
    alice_key: BitVector | None = None
    bob_key: BitVector | None = None
    ec_success: bool = False
    m_clamped: bool = False


@dataclass
class SessionOutcome:
    status: str                        # "completed" or "aborted"
    abort_step: int | None
    abort_reason: str | None
    plus: BasisResult | None
    times: BasisResult | None
    experiment: DExperimental | None
    # (step, party, render, args): each line of the log is
    # f"{step} {party} {render(*args)}", with args bound at announce time.
    announcements: tuple[tuple[int, str, Callable[..., str], tuple], ...] = \
        field(repr=False, compare=False)
    truth: dict
    bounds_report: dict
    config: SessionConfig
    initial: DInitial | None = None
    initial_tilde: DInitial | None = None

    @property
    def transcript(self) -> tuple[str, ...]:
        """The public announcements, one line each, rendered on every read."""
        return tuple(f"{step} {who} {render(*args)}"
                     for step, who, render, args in self.announcements)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def keys_match(self) -> bool:
        return (self.completed
                and self.plus.alice_key == self.plus.bob_key
                and self.times.alice_key == self.times.bob_key)


def _hexbits(bits: np.ndarray) -> str:
    return np.packbits(bits.astype(np.uint8)).tobytes().hex()


def _comma_list(values: np.ndarray) -> str:
    """``",".join(map(str, values))`` for nonnegative ints, with no str() per
    value: each value's digits fill one fixed-width row of a uint8 buffer
    ending in a comma, and the leading zeros are dropped.  The digits come
    last first, by one division by 10 per column, in the narrowest unsigned
    type that holds the largest value."""
    values = np.asarray(values)
    top = int(values.max(initial=0))
    rest = values.astype(np.min_scalar_type(top))
    width = len(str(top))
    text = np.full((len(values), width + 1), ord(","), dtype=np.uint8)
    keep = np.ones(text.shape, dtype=bool)
    for j in range(width - 1, -1, -1):
        quot = rest // 10
        text[:, j] = rest - quot * 10 + ord("0")
        if j:
            keep[:, j - 1] = quot != 0  # a leading zero unless more digits follow
        rest = quot
    return text[keep].tobytes()[:-1].decode("ascii")


# Payload renderers, one per kind of announcement.  They run only when a
# transcript is read, on the values bound at announce time; being module
# functions, they close over nothing of a session and pickle by name.


def _say_kinds(kinds):
    return "kinds " + _comma_list(kinds)


def _say_mask(label, mask):
    return f"{label} " + _hexbits(mask)


def _say_counts(c, e):
    return "counts C=" + ",".join(map(str, c.tolist())) + " E=" + ",".join(map(str, e.tolist()))


def _say_abort(reason):
    return f"abort {reason}"


def _say_check_positions(tag, at):
    return f"check-{tag} positions " + _comma_list(at)


def _say_check_bits(tag, bits, at):
    return f"check-{tag} bits " + _hexbits(bits[at])


def _say_errors(kind, errs):
    return f"H[{kind}]={errs}"


def _say_kind_bits(kind, bits, at, errs=None):
    text = f"bits kind={kind} " + _hexbits(bits[at])
    return text if errs is None else text + " " + _say_errors(kind, errs)


def _say_sizes(name, lm, m, clamped):
    return f"{name} lm={lm} m={m} l={lm - m}" + (" clamped" if clamped else "")


def _say_code(name, rows):
    digest = hashlib.sha256(b"".join(r.to_bytes(16, "little") for r in rows)).hexdigest()
    return f"{name} code " + digest[:16]


def _say_word(name, label, bits):
    return f"{name} {label} " + format(bits, "x")


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
    preimage (free unknowns 0) is returned at once.  Otherwise, with the
    2^lm codewords under the guard, the error patterns e are walked by
    weight until some have that syndrome: the words received ^ e are then
    the nearest codewords, and ``kernels.nearest_index`` picks the
    lex-smallest.  The walk stops before its ball of patterns would
    outnumber the code, and the whole code is then scanned, so the
    walk costs min(ball, 2^lm) words and a decode at most 2^lm more.
    The walk and the scan pack words into ``uint64``, so a code longer
    than 64 bits decodes only its own words.
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
    if 1 << lm > guard:
        raise CapacityError(
            f"exhaustive decode of 2^{lm} codewords exceeds guard {guard}")
    unit = [0] * n  # unit[j]: the syndrome of bit j alone, bit k from check k
    for k, h in enumerate(checks):
        while h:
            low = h & -h
            unit[low.bit_length() - 1] |= 1 << k
            h ^= low
    errors = kernels.least_weight_errors(unit, syndrome, 1 << lm)
    if errors is None:
        # Word z of the span of M_e's columns is M_e z, so its index is the seed.
        words = span_array(m_e.transpose().row_bits)
        return BitVector(lm, kernels.nearest_index(words, received.bits, n))
    nearest = errors ^ np.uint64(received.bits)
    word = int(nearest[kernels.nearest_index(nearest, received.bits, n)])
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
    detector calibration carried by the initial data), or (0, 1) when the
    observations admit no estimate.  They are fed into
    ``rates.initial_eve_information_asymptotic``,
    N (1 - nu1 q1 (1 - hbar(r1)) / p - credit / p), plus a margin knob.
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
                        s_nu_times=min(1.0, s_conj), p_s=d_init.p_s)
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
    # Detector/generator errors on signal bits, per measured basis.
    sig = (det == NORMAL) & (cls != VACUUM) & common
    ud = rng.random(cfg.n_prime)
    flip_det = sig & (((bob_basis == TIMES) & (ud < cfg.p_s))
                      | ((bob_basis == PLUS) & (ud < cfg.p_s_tilde)))
    return (kinds, cls + 3 * det, zflip, detected, common,
            alice_bits, bob_bits ^ flip_det.astype(np.int8))


def _announce_detections(log: list, n_kinds: int, kinds, detected, common):
    """Alice announces the kinds, Bob the detected and common-basis masks
    and their counts per kind, which are returned."""
    c_counts = np.bincount(kinds[detected], minlength=n_kinds)
    e_counts = np.bincount(kinds[common], minlength=n_kinds)
    log.extend([(2, "alice", _say_kinds, (kinds,)),
                (3, "bob", _say_mask, ("detected", detected)),
                (3, "bob", _say_mask, ("common", common)),
                (3, "bob", _say_counts, (c_counts, e_counts))])
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
        chosen = np.sort(rng.choice(len(pos), size=len(pos) - cfg.n, replace=False))
        check_pos = pos[chosen]
        raw[name] = np.delete(pos, chosen)
        h_counts[kind] = errs = int((alice_bits[check_pos] != bob_bits[check_pos]).sum())
        log.extend([(4, "alice", _say_check_positions, (tag, check_pos)),
                    (4, "alice", _say_check_bits, (tag, alice_bits, check_pos)),
                    (4, "bob", _say_errors, (kind, errs))])
    for kind in sorted(set(range(1, len(h_counts))) - {cfg.i0, cfg.i0 + cfg.k}):
        pos = np.flatnonzero(common & (kinds == kind))
        h_counts[kind] = errs = int((alice_bits[pos] != bob_bits[pos]).sum())
        log.extend([(5, "alice", _say_kind_bits, (kind, alice_bits, pos)),
                    (5, "bob", _say_kind_bits, (kind, bob_bits, pos, errs))])
    return h_counts, [raw[name] for name, *_ in _BASES]


def decide_sizes(cfg: SessionConfig, d_init: DInitial, d_init_tilde: DInitial,
                 d_exp: DExperimental) -> tuple[list[BasisResult], str | None]:
    """Step 6 from public data: per basis, + (reading ``d_init``) then x
    (``d_init_tilde``), lm = floor(N eta(e)), m by ``cfg.m_rule`` and the
    N_bar clamp.  Returns the bases decided and the reason the first with
    under N_under key bits aborts, or None.  Of ``cfg`` it reads only the
    public protocol parameters."""
    constant_m = _constant_m(cfg.m_rule)
    results = []
    for (name, _, offset, _), d_i in zip(_BASES, (d_init, d_init_tilde)):
        kind = cfg.i0 + cfg.k * offset
        err = d_exp.h[kind] / (d_exp.e[kind] - cfg.n)
        lm = math.floor(cfg.n * shannon_eta(err))
        m_bits = (initial_eve_info_m_rule(cfg, d_i, d_exp, name, lm)
                  if constant_m is None else constant_m)
        if lm - m_bits < cfg.n_under:
            return results, f"{name}: N eta - m = {lm - m_bits} < N_under={cfg.n_under}"
        clamped = lm - m_bits > cfg.n_bar
        if clamped:
            m_bits = lm - cfg.n_bar
        results.append(BasisResult(observed_error=err, lm=lm, m=m_bits,
                                   length=lm - m_bits, m_clamped=clamped))
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
    hash_fn = sample_seed(rng, res.length, res.m)
    log.extend([(step, "both", _say_code, (name, m_e.row_bits)),
                (step, sender, _say_word, (name, "masked", masked.bits)),
                (step + 1, "both", _say_word, (name, "pa-seed", hash_fn.seed.bits))])
    m_p = hash_fn.matrix()
    seeds = {sender: z, receiver: z_hat}
    res.alice_key = mat_vec_mul(m_p, seeds["alice"])
    res.bob_key = mat_vec_mul(m_p, seeds["bob"])
    res.ec_success = z_hat == z


def run_session(cfg: SessionConfig, strategy: ChannelStrategy) -> SessionOutcome:
    rng = np.random.default_rng(cfg.rng_seed)
    kinds, labels, zflip, detected, common, alice_bits, bob_bits = _transmit(cfg, strategy, rng)
    log: list[tuple] = []  # (step, party, render, args), rendered when read
    c_counts, e_counts = _announce_detections(log, 2 * cfg.k + 1, kinds, detected, common)
    d_init = DInitial(tuple(np.bincount(kinds, minlength=2 * cfg.k + 1).tolist()),
                      cfg.nus, cfg.p_s, strategy.p_dark)
    d_init_tilde = replace(d_init, p_s=cfg.p_s_tilde)

    e_x, e_p = int(e_counts[cfg.i0]), int(e_counts[cfg.i0 + cfg.k])
    step, reason = 4, None
    h_counts, raw, truth = np.zeros_like(c_counts), [], {}
    if min(e_x, e_p) <= cfg.n:
        reason = f"E_i0={e_x} E_i0k={e_p} <= N={cfg.n}"
    else:
        h_counts, raw = _check_bits(cfg, rng, log, kinds, common, alice_bits, bob_bits)
        # Ground truth for the oracle/bounds tests: classify raw-key positions.
        truth = {name: classify(labels[pos], zflip[pos]) for (name, *_), pos in zip(_BASES, raw)}
    experiment = DExperimental(*(tuple(v.tolist()) for v in (c_counts, e_counts, h_counts)))
    if reason is None:
        step = 6
        results, reason = decide_sizes(cfg, d_init, d_init_tilde, experiment)
        log.extend((6, "both", _say_sizes, (name, res.lm, res.m, res.m_clamped))
                   for (name, *_), res in zip(_BASES, results))
    report = {}
    if reason is None:
        for (name, _, _, step_ec), res, pos in zip(_BASES, results, raw):
            _correct_and_amplify(cfg, rng, log, name, step_ec, res,
                                 alice_bits[pos], bob_bits[pos])
            report[name] = _basis_report(res, cfg, truth[name])
    else:
        log.append((step, "both", _say_abort, (reason,)))
        results = [None, None]
    return SessionOutcome(
        status="aborted" if reason else "completed",
        abort_step=step if reason else None, abort_reason=reason,
        plus=results[0], times=results[1], experiment=experiment,
        announcements=tuple(log), truth=truth, bounds_report=report, config=cfg,
        initial=d_init, initial_tilde=d_init_tilde)


def _basis_report(res: BasisResult, cfg: SessionConfig,
                  truth: ClassCounts) -> dict:
    # Simulator-side ground truth lets analyses attach the exact bound the
    # realized classification would give; the parties never see these.
    return {
        "observed_error": res.observed_error,
        "eta": shannon_eta(res.observed_error),
        "lm": res.lm,
        "m": res.m,
        "length": res.length,
        "m_clamped": res.m_clamped,
        "length_within_window": cfg.n_under <= res.length <= cfg.n_bar,
        "ec_success": res.ec_success,
        "truth_phase_error_bound": min_decoding_bound(
            truth.j1, k2_count(truth.j_tuple(), cfg.ec_direction), truth.t, res.m),
        "truth_twoway_bound": min_decoding_bound(
            truth.j1, k2_count(truth.j_tuple(), "twoway"), truth.t, res.m),
    }
