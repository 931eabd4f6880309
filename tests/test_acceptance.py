"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 2 is split per inequality leg: the two linear trace-norm legs are
faithfully asserted and fail (strict xfail): the exact Eve states violate
the claimed constants, e.g. pair trace norm sqrt(3) at phase-error 1/4
where the claim allows 1.  The analysis lives in the repo notes; the
Fuchs-van de Graaf square-root forms do hold and are tested in the oracle
module.  Everything else passes at its stated tolerance.
"""

import hashlib
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from decoybb84.bounds import (BoundInputs, averaged_bound, averaged_eve_info_bound,
                              eve_info_bound, hbar, success_bound,
                              verify_proposition_decoding)
from decoybb84.channel import ChannelStrategy
from decoybb84.decoy import (ObservedRates, SourceDistribution,
                             estimate_interval_symmetric, estimate_vacuum_single)
from decoybb84.errors import BoundViolation
from decoybb84.gf2 import rank
from decoybb84.hashing import universality_profile
from decoybb84.oracle import PauliErrorDistribution, pairwise_figures, reduce_code_channel
from decoybb84.protocol import SessionConfig, run_session
from decoybb84.rates import RateInputs, all_rates, verify_rate_ordering

from oracles import dense_mutual_information, matrix_from_rows
from test_decoy import forward_rates


def verdict(criterion: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {state}{' - ' + detail if detail else ''}")


# ----------------------------------------------------------------------
# 1. Toeplitz universality, exhaustive and exact.


def test_criterion_1_toeplitz_universality():
    start = time.time()
    checked = 0
    for total in range(2, 11):
        for l in range(1, total):
            m = total - l
            profile = universality_profile(l, m)
            bound = Fraction(1, 1 << m)
            xmask = (1 << m) - 1
            for z, frac in profile.items():
                x_part, y_part = z & xmask, z >> m
                assert frac <= bound, (l, m, z, frac)
                if x_part and y_part:
                    assert frac == bound, (l, m, z, frac)
                if x_part and not y_part:
                    assert frac == 0, (l, m, z, frac)
                checked += 1
    elapsed = time.time() - start
    verdict("criterion 1 (Toeplitz universality)", True,
            f"{checked} (l,m,Z) triples exact, {elapsed:.1f}s")
    assert elapsed < 120


# ----------------------------------------------------------------------
# 2. Exact Eve oracle vs the closed-form bounds, 1000 distributions per l.


@pytest.fixture(scope="module")
def oracle_suite():
    rng = np.random.default_rng(2024)
    suites = {}
    for l in (1, 2, 3):
        dim = 1 << (2 * l)
        entries = []
        for i in range(1000):
            if i % 4 == 3:  # sparse corners stress the extremes
                probs = rng.dirichlet(np.full(dim, 0.2))
            else:
                probs = rng.dirichlet(np.ones(dim))
            dist = PauliErrorDistribution(l, probs.reshape(1 << l, 1 << l))
            entries.append((dist, pairwise_figures(dist)))
        suites[l] = entries
    return suites


def _worst_slack(oracle_suite, slack_fn):
    worst = math.inf
    for l, entries in oracle_suite.items():
        for dist, fig in entries:
            worst = min(worst, slack_fn(l, fig))
    return worst


def test_criterion_2_info_bound(oracle_suite):
    worst = _worst_slack(
        oracle_suite,
        lambda l, fig: eve_info_bound(fig.phase_error_prob, l) - fig.mutual_info_bits)
    verdict("criterion 2 (Eve info vs hbar(P)+lP)", worst >= -1e-9,
            f"worst slack {worst:.3e}")
    assert worst >= -1e-9


def test_criterion_2_pair_fidelity(oracle_suite):
    worst = _worst_slack(
        oracle_suite,
        lambda l, fig: fig.min_pair_fidelity - (1 - 2 * fig.phase_error_prob))
    verdict("criterion 2 (pair fidelity >= 1-2P)", worst >= -1e-9,
            f"worst slack {worst:.3e}")
    assert worst >= -1e-9


@pytest.mark.xfail(strict=True, reason="known defect of the claimed bound: "
                   "the linear constant 4P is unattainable; exact values "
                   "reach 2 sqrt(1-(1-2P)^2)")
def test_criterion_2_pair_trace_norm(oracle_suite):
    worst = _worst_slack(
        oracle_suite,
        lambda l, fig: 4 * fig.phase_error_prob - fig.max_pair_trace_norm)
    verdict("criterion 2 (pair trace norm <= 4P)", worst >= -1e-9,
            f"worst slack {worst:.3e} (known defect of the claimed bound)")
    assert worst >= -1e-9


def test_criterion_2_avg_fidelity(oracle_suite):
    worst = _worst_slack(
        oracle_suite,
        lambda l, fig: fig.min_avg_fidelity - (1 - fig.phase_error_prob))
    verdict("criterion 2 (average fidelity >= 1-P)", worst >= -1e-9,
            f"worst slack {worst:.3e}")
    assert worst >= -1e-9


@pytest.mark.xfail(strict=True, reason="known defect of the claimed bound: "
                   "the linear constant 2P is unattainable; exact values "
                   "reach 2 sqrt(1-(1-P)^2)")
def test_criterion_2_avg_trace_norm(oracle_suite):
    worst = _worst_slack(
        oracle_suite,
        lambda l, fig: 2 * fig.phase_error_prob - fig.max_avg_trace_norm)
    verdict("criterion 2 (average trace norm <= 2P)", worst >= -1e-9,
            f"worst slack {worst:.3e} (known defect of the claimed bound)")
    assert worst >= -1e-9


def test_criterion_2_success_bound(oracle_suite):
    worst = _worst_slack(
        oracle_suite,
        lambda l, fig: success_bound(fig.phase_error_prob, l) - fig.opt_success_prob)
    verdict("criterion 2 (guessing probability bound)", worst >= -1e-9,
            f"worst slack {worst:.3e}")
    assert worst >= -1e-9


def test_criterion_2_mutual_information_vs_dense():
    rng = np.random.default_rng(77)
    worst = 0.0
    for l in (1, 2):
        for _ in range(60):
            dist = PauliErrorDistribution(
                l, rng.dirichlet(np.ones(1 << (2 * l))).reshape(1 << l, 1 << l))
            diff = abs(pairwise_figures(dist).mutual_info_bits - dense_mutual_information(dist))
            worst = max(worst, diff)
    verdict("criterion 2 (closed-form MI vs density matrices)", worst <= 1e-9,
            f"worst deviation {worst:.3e}")
    assert worst <= 1e-9


# ----------------------------------------------------------------------
# 3. Decoding-error proposition on exhaustive grids.


def _criterion_3_grid():
    """The criterion-3 configs (n0, n1, n2, t, c1_dim, m), 2032 of them, in grid order."""
    for n0 in (0, 1, 2):
        for n1 in (2, 3, 4, 5, 6, 8):
            for n2 in (0, 1, 2):
                n = n0 + n1 + n2
                if n > 10:
                    continue
                for t in range(0, min(n1, 4) + 1):
                    for m in (2, 3, 4, 5):
                        for c1_dim in sorted({min(n, m + 1), min(n, m + 2), min(n, m + 3)}):
                            if c1_dim > m:
                                yield n0, n1, n2, t, c1_dim, m


def test_criterion_3_proposition_decoding_grid():
    start = time.time()
    rng = np.random.default_rng(33)
    min_slack = math.inf
    violations = 0
    n_configs = 0
    for cfg in _criterion_3_grid():
        n_configs += 1
        try:
            res = verify_proposition_decoding(*cfg, rng=rng)
        except BoundViolation:
            violations += 1
            continue
        min_slack = min(min_slack, res.bound - res.empirical_max)
    elapsed = time.time() - start
    ok = violations == 0 and min_slack < 0.1
    verdict("criterion 3 (decoding-error proposition)", ok,
            f"{n_configs} configs, {violations} violations, min slack "
            f"{min_slack:.4f}, {elapsed:.1f}s")
    assert violations == 0
    assert min_slack < 0.1  # bound non-vacuity
    assert elapsed < 600


def test_criterion_3_grid_checks_pinned():
    # Every field of every check, floats exact (float.hex), with criterion
    # 3's generator: a faster replay must reproduce each seed-averaged rate.
    rng = np.random.default_rng(33)
    digest = hashlib.sha256()
    for cfg in _criterion_3_grid():
        res = verify_proposition_decoding(*cfg, rng=rng)
        fields = [res.empirical_mean.hex(), res.empirical_max.hex(), res.bound.hex(),
                  str(res.n_seeds), str(res.n_patterns)]
        digest.update((",".join(map(str, cfg)) + ":" + ",".join(fields) + "\n").encode())
    assert digest.hexdigest() == \
        "fc81addb968ce21b6a4c2a2f350372b6b227251108352268b2c1d8ad3d0b3b52"


# ----------------------------------------------------------------------
# 4. Dark-count bound structure: exponent dominance on random instances.


def test_criterion_4_dark_count_bound_ordering():
    rng = np.random.default_rng(44)
    violations = 0
    for _ in range(10_000):
        j = tuple(int(x) for x in rng.integers(0, 30, size=6))
        m = int(rng.integers(0, 40))
        support = rng.integers(0, j[1] + 1, size=int(rng.integers(1, 4)))
        weights = rng.dirichlet(np.ones(len(support)))
        t_dist: dict[int, float] = {}
        for t, w in zip(support, weights):
            t_dist[int(t)] = t_dist.get(int(t), 0.0) + float(w)
        inputs = BoundInputs(j0=j[0], j1=j[1], j2=j[2], j3=j[3], j4=j[4],
                             j5=j[5], m=m, t_distribution=t_dist)
        two = averaged_bound(inputs, "twoway")
        if any(two < averaged_bound(inputs, d) - 1e-15 for d in ("forward", "reverse")):
            violations += 1
    verdict("criterion 4 (two-way dominates one-way bounds)",
            violations == 0, "10000 instances")
    assert violations == 0


# ----------------------------------------------------------------------
# 5. Averaged bounds dominate Monte Carlo session-level oracle averages.


def _random_code_pair(rng, n, lm, l):
    while True:
        m_e = matrix_from_rows(rng.integers(0, 2, (n, lm)).tolist())
        if rank(m_e) == lm:
            break
    while True:
        m_p = matrix_from_rows(rng.integers(0, 2, (l, lm)).tolist())
        if rank(m_p) == l:
            break
    return m_e, m_p


def test_criterion_5_averaged_bounds_dominate_sessions():
    # Ensemble: N = 8 qubits, l+m = 4, l = 2 logical bits; random codes,
    # random hashes, random mild channels per session.  N_bar = l + 2 keeps
    # the all-log2 averaged information bound provable (see notes).
    rng = np.random.default_rng(55)
    n, lm, l = 8, 4, 2
    n_bar, n_under = l + 2, l
    infos, succs, pphs = [], [], []
    for _ in range(1000):
        m_e, m_p = _random_code_pair(rng, n, lm, l)
        laws = []
        for _ in range(n):
            pz = float(rng.uniform(0, 0.15))
            px = float(rng.uniform(0, 0.3))
            laws.append({(0, 0): (1 - px) * (1 - pz), (0, 1): (1 - px) * pz,
                         (1, 0): px * (1 - pz), (1, 1): px * pz})
        dist, pph = reduce_code_channel(laws, m_e, m_p)
        fig = pairwise_figures(dist)
        infos.append(fig.mutual_info_bits)
        succs.append(fig.opt_success_prob)
        pphs.append(pph)
    p_av = float(np.mean(pphs))
    assert max(pphs) <= 0.5  # ensemble sanity: the monotone step applies
    info_bound = averaged_eve_info_bound(p_av, n_bar)
    succ_bound = success_bound(p_av, n_under)
    info_slack = info_bound - float(np.mean(infos))
    succ_slack = succ_bound - float(np.mean(succs))
    ok = info_slack >= -1e-9 and succ_slack >= -1e-9
    verdict("criterion 5 (averaged bounds vs session averages)", ok,
            f"1000 sessions, info slack {info_slack:.4f}, "
            f"success slack {succ_slack:.4f}")
    assert info_slack >= -1e-9
    assert succ_slack >= -1e-9


def test_criterion_5_concavity_and_monotonicity_properties():
    rng = np.random.default_rng(56)
    for _ in range(1000):
        # entropy-side step of the averaged-information proof (natural log)
        x = float(rng.uniform(0, 1))
        assert -(1 - x) * math.log1p(-x) <= x + 1e-12
        # concavity of p -> -p log2 p
        a, b = rng.uniform(1e-9, 1, size=2)
        lam = float(rng.random())
        mid = lam * a + (1 - lam) * b
        f = lambda p: -p * math.log2(p)
        assert f(mid) >= lam * f(a) + (1 - lam) * f(b) - 1e-12
        # concavity of the guessing bound in the phase-error probability
        n_under = int(rng.integers(1, 12))
        lhs = success_bound(mid if mid <= 1 else 1.0, n_under)
        rhs = (lam * success_bound(min(a, 1.0), n_under)
               + (1 - lam) * success_bound(min(b, 1.0), n_under))
        assert lhs >= rhs - 1e-12
        # monotone increasing below 1/2 (the printed derivative sign is a typo)
        p1, p2 = sorted(rng.uniform(0, 0.5, size=2))
        assert success_bound(p2, n_under) >= success_bound(p1, n_under) - 1e-12
    verdict("criterion 5 (concavity/monotonicity properties)", True,
            "1000 random triples")


# ----------------------------------------------------------------------
# 6. Decoy estimation round trips.


def test_criterion_6_decoy_round_trips():
    rng = np.random.default_rng(66)
    # Exact round trip, no multi-photon component.
    for _ in range(300):
        v0 = float(rng.uniform(0, 0.6))
        nu = SourceDistribution(v0, 1 - v0)
        pd = float(rng.uniform(0, 0.01))
        p0 = float(rng.uniform(pd, 0.05))
        q1 = float(rng.uniform(0.05, 1 - pd))
        r1 = float(rng.uniform(0, 1))
        obs = forward_rates(nu, p0, pd, q1, r1)
        got_q, got_r = estimate_vacuum_single(nu, obs)
        assert abs(got_q.value - q1) <= 1e-12
        assert abs(got_r.value - r1) <= 1e-12
    # Bracketing and the exact width identity with multi-photon mass.
    for _ in range(300):
        v2 = float(rng.uniform(0.01, 0.15))
        v0 = float(rng.uniform(0, 0.25))
        nu = SourceDistribution(v0, 1 - v0 - v2, v2)
        pd = float(rng.uniform(0, 0.01))
        p0 = float(rng.uniform(pd, 0.05))
        q1 = float(rng.uniform(0.3, 0.7))
        r1 = float(rng.uniform(0.0, 1.0))
        q2 = float(rng.uniform(0, 1 - pd))
        r2 = float(rng.uniform(0, 1))
        obs = forward_rates(nu, p0, pd, q1, r1, q2x=q2, r2x=r2)
        interval = estimate_interval_symmetric(nu, obs)
        assert interval.q1_min - 1e-9 <= q1 <= interval.q1_max + 1e-9
        assert interval.r1_min_tilde - 1e-9 <= r1 <= interval.r1_max + 1e-9
        assert abs((interval.q1_max - interval.q1_min)
                   - nu.v2 * (1 - pd) / nu.v1) <= 1e-12
    # Statistical round trip at 10^6 pulses, 5 sigma.
    nu = SourceDistribution(0.3, 0.7)
    q_vac, pd, q1_true, r1_true = 0.010, 0.002, 0.35, 0.04
    p0_true = q_vac + pd
    n_vac = n_sig = 500_000
    p0_hat = float((rng.random(n_vac) < p0_true).mean())
    is_single = rng.random(n_sig) < nu.v1
    u = rng.random(n_sig)
    click_rate = np.where(is_single, q1_true, q_vac)
    normal = u < click_rate
    dark = (u >= click_rate) & (u < click_rate + pd)
    detected = normal | dark
    signal = normal & is_single
    errs = np.zeros(n_sig, dtype=bool)
    errs[signal] = rng.random(int(signal.sum())) < r1_true
    noise = detected & ~signal
    errs[noise] = rng.random(int(noise.sum())) < 0.5
    obs = ObservedRates(p0=p0_hat, p_dark=pd,
                        p_nu_times=float(detected.mean()),
                        s_nu_times=float(errs[detected].mean()))
    got_q, got_r = estimate_vacuum_single(nu, obs)
    sigma_q = (math.sqrt(0.25 / n_sig) + nu.v0 * math.sqrt(0.25 / n_vac)) / nu.v1
    sigma_r = 2.5 * math.sqrt(0.25 / n_sig) / (nu.v1 * q1_true)
    q_ok = abs(got_q.value - q1_true) < 5 * sigma_q
    r_ok = abs(got_r.value - r1_true) < 5 * sigma_r
    verdict("criterion 6 (decoy estimation round trips)", q_ok and r_ok,
            "exact to 1e-12, brackets hold, 10^6-pulse run within 5 sigma")
    assert q_ok and r_ok


# ----------------------------------------------------------------------
# 7. Asymptotic rate ordering chain.


def test_criterion_7_rate_ordering_chain():
    rng = np.random.default_rng(77)
    worst = math.inf
    for _ in range(10_000):
        v0 = float(rng.uniform(0, 0.5))
        v2 = float(rng.uniform(0, 0.3))
        nu = SourceDistribution(v0, 1 - v0 - v2, v2)
        pd = float(rng.uniform(0, 0.05))
        inputs = RateInputs(nu=nu, q1=float(rng.uniform(0, 1)),
                            r1=float(rng.uniform(0, 1)),
                            p0=float(rng.uniform(pd, 1)), p_dark=pd,
                            p_nu_plus=float(rng.uniform(0.01, 1)),
                            s_nu_plus=float(rng.uniform(0, 1)))
        report = verify_rate_ordering(inputs)
        worst = min(worst, min(slack for _, slack, _ in report.checks))
        assert report.all_ok, report.checks
    # degenerate equalities at p_D = 0
    inputs = RateInputs(nu=SourceDistribution(0.3, 0.7), q1=0.4, r1=0.06,
                        p0=0.02, p_dark=0.0, p_nu_plus=0.3, s_nu_plus=0.06)
    r = all_rates(inputs)
    assert r["bar_reverse"] == r["reverse"]
    assert r["twoway"] == r["bar_reverse"]
    assert r["forward"] == r["bar_forward"]
    verdict("criterion 7 (rate ordering chain)", True,
            f"10000 draws, worst slack {worst:.3e}, p_D=0 equalities exact")


# ----------------------------------------------------------------------
# 8. Protocol end to end.


def test_criterion_8_protocol_end_to_end():
    start = time.time()
    noiseless = ChannelStrategy()
    base = dict(n=64, n_bar=64, n_under=8, n_prime=512,
                nus=(SourceDistribution(0.0, 1.0),), i0=1,
                p_bar=(0.1, 0.45, 0.45))

    out = run_session(SessionConfig(**base, rng_seed=7), noiseless)
    completed_ok = out.completed and out.keys_match()

    # every abort branch of steps 4 and 6
    out4a = run_session(SessionConfig(**base, rng_seed=7),
                        ChannelStrategy(q_single=0.0))
    out4b = run_session(SessionConfig(**{**base, "n_prime": 140}, rng_seed=7),
                        noiseless)
    out6 = run_session(SessionConfig(**base, rng_seed=7, m_rule="constant:60"),
                       noiseless)
    aborts_ok = (out4a.abort_step == 4 and out4b.abort_step == 4
                 and out6.abort_step == 6)

    # byte-identical transcripts for identical seeds
    rerun = run_session(SessionConfig(**base, rng_seed=7), noiseless)
    deterministic = (rerun.transcript == out.transcript
                     and rerun.plus.alice_key == out.plus.alice_key
                     and rerun.times.alice_key == out.times.alice_key)
    elapsed = time.time() - start
    ok = completed_ok and aborts_ok and deterministic and elapsed < 60
    verdict("criterion 8 (protocol end to end)", ok,
            f"completed with equal keys in both bases, aborts at steps 4/6, "
            f"byte-identical reruns, {elapsed:.1f}s")
    assert completed_ok and aborts_ok and deterministic
    assert elapsed < 60
