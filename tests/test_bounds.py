"""Closed-form bound formulas: worked values, clamps, monotonicity, decoding."""

import numpy as np
import pytest

from decoybb84.bounds import (EC_DIRECTIONS, BoundInputs, DecodingCheck, averaged_bound,
                              averaged_eve_info_bound, binary_entropy,
                              distinguishability_bounds, eve_info_bound, hbar, k2_count,
                              min_decoding_bound, per_bit_eve_info_bound, success_bound,
                              verify_proposition_decoding)
from decoybb84.decoy import SourceDistribution
from decoybb84.errors import CapacityError
from decoybb84.gf2 import BitMatrix, BitVector, kernel_basis, lex_key, mat_vec_mul, span_ints
from decoybb84.hashing import build_toeplitz
from decoybb84.protocol import random_full_rank_matrix
from oracles import matrix_from_rows


def max_bound_over_inputs(candidates, kind="forward"):
    """Maximize one of the averaged bounds over adversarial strategies.

    The averaged bounds are linear in the conditional error distribution,
    so their worst case sits at deterministic (extremal) strategies; callers
    supply those as explicit BoundInputs candidates.
    """
    best = None
    best_inputs = None
    for cand in candidates:
        val = averaged_bound(cand, kind)
        if best is None or val > best:
            best, best_inputs = val, cand
    if best is None:
        raise ValueError("no candidate strategies supplied")
    return best, best_inputs


def worst_case_t_bound(j1, k2, m):
    """Maximum of the fixed-t bound over all t in [0, J1] (grid search)."""
    return max(min_decoding_bound(j1, k2, t, m) for t in range(j1 + 1))


class TestHbar:
    def test_zero(self):
        assert hbar(0.0) == 0.0

    def test_clamped_above_half(self):
        assert hbar(0.7) == 1.0
        assert hbar(1.0) == 1.0

    def test_quarter(self):
        assert hbar(0.25) == pytest.approx(0.8112781244591328)

    def test_continuous_at_half(self):
        assert hbar(0.5) == pytest.approx(1.0)
        assert hbar(0.5 - 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            hbar(-0.01)
        with pytest.raises(ValueError):
            hbar(1.01)

    def test_concave_on_lower_half(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = sorted(rng.uniform(0, 0.5, size=2))
            lam = rng.random()
            mid = lam * a + (1 - lam) * b
            assert hbar(mid) >= lam * hbar(a) + (1 - lam) * hbar(b) - 1e-12


class TestEveInfoBound:
    def test_zero(self):
        assert eve_info_bound(0.0, 12) == 0.0

    def test_half(self):
        assert eve_info_bound(0.5, 10) == pytest.approx(6.0)

    def test_quarter(self):
        assert eve_info_bound(0.25, 4) == pytest.approx(1.8112781244591328)


class TestDistinguishabilityBounds:
    def test_zero(self):
        assert distinguishability_bounds(0.0) == (1.0, 0.0, 1.0, 0.0)

    def test_linear_region(self):
        assert distinguishability_bounds(0.1) == \
            pytest.approx((0.8, 0.4, 0.9, 0.2))

    def test_trace_norm_clamp(self):
        fid_pair, tn_pair, _, _ = distinguishability_bounds(0.6)
        assert tn_pair == 2.0
        assert fid_pair == 0.0  # 1 - 2*0.6 clamps up to a valid lower bound


class TestSuccessBound:
    def test_blind_guessing(self):
        assert success_bound(0.0, 8) == pytest.approx(2.0 ** -8)

    def test_full_phase_error(self):
        assert success_bound(1.0, 8) == pytest.approx(1 - 2.0 ** -8)

    def test_worked_value(self):
        assert success_bound(0.01, 8) == pytest.approx(0.026241, abs=1e-6)

    def test_concave_in_p(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = rng.random(2)
            lam = rng.random()
            lhs = success_bound(lam * a + (1 - lam) * b, 6)
            rhs = lam * success_bound(a, 6) + (1 - lam) * success_bound(b, 6)
            assert lhs >= rhs - 1e-12


class TestMinDecodingBound:
    def test_error_free(self):
        assert min_decoding_bound(5, 0, 0, 3) == pytest.approx(0.125)

    def test_worked(self):
        assert min_decoding_bound(4, 2, 2, 8) == pytest.approx(0.25)

    def test_clamped_to_one(self):
        assert min_decoding_bound(2, 5, 1, 3) == 1.0

    def test_k1_zero(self):
        assert min_decoding_bound(0, 2, 0, 5) == pytest.approx(0.125)

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            min_decoding_bound(3, 0, 4, 2)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            k1 = int(rng.integers(0, 30))
            k2 = int(rng.integers(0, 30))
            t = int(rng.integers(0, k1 + 1))
            m = int(rng.integers(0, 60))
            v = min_decoding_bound(k1, k2, t, m)
            assert 0.0 < v <= 1.0


def make_inputs(j, m, t_dist):
    return BoundInputs(j0=j[0], j1=j[1], j2=j[2], j3=j[3], j4=j[4], j5=j[5],
                       m=m, t_distribution=t_dist)


class TestBoundInputs:
    @pytest.mark.parametrize("field,value", [
        ("j1", 8.5), ("m", 6.5), ("j1", True), ("m", False), ("j2", -1), ("m", "6"),
        ("j0", None), ("n_bar", 0), ("n_under", 0), ("n_under", 2.0), ("n_bar", True),
    ])
    def test_bad_count_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            BoundInputs(**{"j1": 4, "m": 2, field: value})

    def test_numpy_integers_accepted(self):
        inputs = BoundInputs(j1=np.int64(3), m=np.int64(2), n_bar=np.int64(4), n_under=1)
        assert inputs.n_bar == 4 and inputs.n_under == 1

    @pytest.mark.parametrize("dist", [
        {0: -0.5, 1: 1.5}, {0: float("nan"), 1: 1.0}, {0: 0.5}, {},
    ], ids=["negative", "nan", "short", "empty"])
    def test_bad_t_distribution_rejected_at_construction(self, dist):
        with pytest.raises(ValueError, match="t_distribution"):
            BoundInputs(j1=1, t_distribution=dist)

    def test_t_outside_support_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            BoundInputs(j1=1, t_distribution={2: 1.0})

    def test_non_mapping_t_distribution_rejected(self):
        with pytest.raises(TypeError, match="t_distribution"):
            BoundInputs(j1=1, t_distribution=[1.0])

    def test_t_distribution_normalized(self):
        inputs = BoundInputs(j1=2, t_distribution={"1": 1})
        assert inputs.t_distribution == {1: 1.0}
        assert isinstance(inputs.t_distribution[1], float)


class TestK2:
    J = (1, 20, 300, 4000, 50000, 600000)  # J0..J5 in distinct decimal places

    @pytest.mark.parametrize("direction,k2", [
        ("forward", 300 + 50000 + 600000),  # J2 + J4 + J5
        ("reverse", 1 + 300),               # J0 + J2
        ("twoway", 1 + 300 + 50000 + 600000),
    ])
    def test_parts(self, direction, k2):
        assert k2_count(self.J, direction) == k2

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="sideways"):
            k2_count(self.J, "sideways")

    def test_credit_is_the_rate_of_the_parts_left_to_the_key(self):
        # Per sent pulse J0 detects at nu0 (p0 - p_D), and J3, J4, J5 (the
        # dark counts) at nu0 p_D, nu1 p_D, nu2 p_D.  Each direction's
        # credit must be the rate of the parts of {0, 3, 4, 5} outside K2.
        assert set(EC_DIRECTIONS) == {"forward", "reverse", "twoway"}
        rng = np.random.default_rng(24)
        for _ in range(1000):
            v0 = float(rng.uniform(0, 1))
            v2 = float(rng.uniform(0, 1 - v0))
            nu = SourceDistribution(v0, 1 - v0 - v2, v2)
            p_dark = float(rng.uniform(0, 0.1))
            p0 = float(rng.uniform(p_dark, 1))
            rate = {0: nu.v0 * (p0 - p_dark), 3: nu.v0 * p_dark, 4: nu.v1 * p_dark,
                    5: nu.v2 * p_dark}
            for direction, (parts, credit) in EC_DIRECTIONS.items():
                kept = sum(rate[i] for i in rate if i not in parts)
                assert abs(kept - credit(nu, p0, p_dark)) <= 1e-15, direction


class TestAveragedBounds:
    def test_forward_point_mass(self):
        inputs = make_inputs((0, 5, 0, 0, 0, 0), 10, {0: 1.0})
        assert averaged_bound(inputs, "forward") == pytest.approx(2.0 ** -10)

    def test_forward_worked(self):
        inputs = make_inputs((0, 4, 2, 0, 0, 0), 8, {2: 1.0})
        assert averaged_bound(inputs, "forward") == pytest.approx(0.25)

    def test_forward_two_term_average(self):
        inputs = make_inputs((0, 4, 0, 0, 0, 0), 6, {0: 0.5, 4: 0.5})
        assert averaged_bound(inputs, "forward") == pytest.approx(0.5 * (1 / 64 + 0.25))

    def test_reverse_point_mass(self):
        inputs = make_inputs((0, 5, 0, 0, 0, 0), 10, {0: 1.0})
        assert averaged_bound(inputs, "reverse") == pytest.approx(2.0 ** -10)

    def test_reverse_worked(self):
        inputs = make_inputs((3, 2, 1, 0, 0, 0), 10, {1: 1.0})
        assert averaged_bound(inputs, "reverse") == pytest.approx(2.0 ** -4)

    def test_reverse_below_forward_when_exponent_smaller(self):
        inputs = make_inputs((1, 4, 1, 0, 2, 1), 9, {1: 1.0})
        # reverse exponent J0+J2 = 2; forward J2+J4+J5 = 4
        assert averaged_bound(inputs, "reverse") < averaged_bound(inputs, "forward")

    def test_twoway_trivial(self):
        inputs = make_inputs((0, 6, 0, 0, 0, 0), 4, {0: 1.0})
        assert averaged_bound(inputs, "twoway") == pytest.approx(2.0 ** -4)

    def test_twoway_worked(self):
        inputs = make_inputs((1, 2, 0, 0, 1, 0), 5, {0: 1.0})
        assert averaged_bound(inputs, "twoway") == pytest.approx(2.0 ** -3)

    def test_twoway_dominates(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            j = tuple(int(x) for x in rng.integers(0, 20, size=6))
            m = int(rng.integers(0, 40))
            ts = rng.integers(0, j[1] + 1, size=3)
            ps = rng.dirichlet(np.ones(3))
            dist = {}
            for t, p in zip(ts, ps):
                dist[int(t)] = dist.get(int(t), 0.0) + float(p)
            inputs = make_inputs(j, m, dist)
            two = averaged_bound(inputs, "twoway")
            assert two >= averaged_bound(inputs, "forward") - 1e-15
            assert two >= averaged_bound(inputs, "reverse") - 1e-15

    def test_monotone_in_m_and_counts(self):
        def bound(j, m, t):
            return averaged_bound(make_inputs(tuple(j), m, {t: 1.0}), "forward")

        rng = np.random.default_rng(4)
        for _ in range(200):
            j = [int(x) for x in rng.integers(0, 15, size=6)]
            m = int(rng.integers(1, 30))
            t = int(rng.integers(0, j[1] + 1))
            base = bound(j, m, t)
            assert bound(j, m + 1, t) <= base + 1e-15
            j_up = list(j)
            j_up[2] += 1  # J2 enters every K2 variant
            assert bound(j_up, m, t) >= base - 1e-15

    def test_missing_distribution(self):
        with pytest.raises(ValueError):
            averaged_bound(make_inputs((0, 3, 0, 0, 0, 0), 2, None), "forward")

    def test_nan_distribution_rejected(self):
        with pytest.raises(ValueError):
            averaged_bound(make_inputs((0, 3, 0, 0, 0, 0), 2, {0: float("nan"), 1: 1.0}),
                           "forward")

    def test_max_over_strategies(self):
        cands = [make_inputs((0, 4, k2, 0, 0, 0), 6, {1: 1.0}) for k2 in range(4)]
        val, best = max_bound_over_inputs(cands, "forward")
        assert best.j2 == 3 and val == averaged_bound(cands[-1], "forward")

    def test_worst_case_t(self):
        assert worst_case_t_bound(4, 0, 6) == \
            pytest.approx(min_decoding_bound(4, 0, 2, 6))


class TestAveragedInfoSuccess:
    def test_worked_value(self):
        assert averaged_eve_info_bound(2.0 ** -10, 20) == \
            pytest.approx(0.0302734375)

    def test_unit(self):
        assert averaged_eve_info_bound(1.0, 0) == pytest.approx(1.0)

    def test_limit_at_zero(self):
        assert averaged_eve_info_bound(0.0, 50) == 0.0
        assert averaged_eve_info_bound(1e-300, 50) < 1e-290

    def test_success_matches_closed_form(self):
        assert success_bound(0.0, 5) == pytest.approx(2.0 ** -5)
        assert success_bound(0.01, 8) == pytest.approx(0.026241, abs=1e-6)

    def test_success_monotone_below_half(self):
        # Monotone increasing in the averaged probability for P <= 1/2
        # (the derivative sqrt((1-p)/q) - sqrt(p/(1-q)) stays nonnegative).
        n_under = 4
        grid = np.linspace(0.0, 0.5, 200)
        vals = [success_bound(p, n_under) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_per_bit(self):
        assert per_bit_eve_info_bound(0.0, 10) == 0.0
        assert per_bit_eve_info_bound(0.5, 100) == pytest.approx(0.51)

    def test_per_bit_decreasing_in_n(self):
        vals = [per_bit_eve_info_bound(0.3, n) for n in range(1, 50)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_entropy_mixture_concavity(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            ps = rng.random(4)
            ws = rng.dirichlet(np.ones(4))
            mixed = float((ws * ps).sum())
            assert hbar(mixed) >= \
                sum(w * hbar(p) for w, p in zip(ws, ps)) - 1e-12


class TestOracleDominance:
    """The averaged decoding bound dominates the exact oracle value.

    Channel: n1 'single' positions carrying a fixed phase pattern of weight
    t (so the error-count variable is deterministic) plus k2 positions with
    adversarial (uniform) phase.  The exact phase-error probability of
    minimum-distance decoding, averaged over every Toeplitz hash seed, must
    stay below min{2^(n1 h(t/n1) + k2 - m), 1}.
    """

    @pytest.mark.parametrize("n1,k2,t,lm,m", [
        (5, 0, 0, 4, 2), (5, 0, 1, 4, 2), (4, 2, 1, 4, 2),
        (6, 1, 2, 5, 3), (3, 3, 0, 4, 3),
    ])
    def test_averaged_oracle_below_bound(self, n1, k2, t, lm, m):
        from decoybb84.gf2 import BitVector, rank
        from decoybb84.hashing import build_toeplitz
        from decoybb84.oracle import reduce_code_channel

        n = n1 + k2
        l = lm - m
        rng = np.random.default_rng(n1 * 100 + k2 * 10 + t)
        while True:
            m_e = matrix_from_rows(rng.integers(0, 2, (n, lm)).tolist())
            if rank(m_e) == lm:
                break
        # fixed weight-t pattern on the first n1 positions
        pattern = 0
        for i in rng.choice(n1, size=t, replace=False):
            pattern |= 1 << int(i)
        laws = []
        for i in range(n1):
            z = (pattern >> i) & 1
            laws.append({(0, z): 1.0})
        laws.extend({(0, 0): 0.5, (0, 1): 0.5} for _ in range(k2))

        total = 0.0
        n_seeds = 1 << (lm - 1)
        for seed in range(n_seeds):
            m_p = build_toeplitz(l, m, BitVector(lm - 1, seed))
            _, pph = reduce_code_channel(laws, m_e, m_p)
            total += pph
        avg = total / n_seeds
        bound = min(1.0, 2.0 ** (n1 * hbar(t / n1) + k2 - m))
        assert avg <= bound + 1e-12
        assert avg <= averaged_bound(BoundInputs(
            j1=n1, j2=k2, m=m, t_distribution={t: 1.0}), "forward") + 1e-12


class TestPropositionDecoding:
    def test_error_free_within_two_to_minus_m(self):
        res = verify_proposition_decoding(n0=2, n1=4, n2=0, t=0,
                                          c1_dim=5, m=3,
                                          rng=np.random.default_rng(0))
        assert res.bound == pytest.approx(2.0 ** -3)
        assert res.empirical_max <= res.bound

    def test_worked_bound_value(self):
        res = verify_proposition_decoding(n0=2, n1=4, n2=1, t=2,
                                          c1_dim=7, m=6,
                                          rng=np.random.default_rng(1))
        assert res.bound == pytest.approx(0.5)
        assert res.empirical_max <= 0.5

    def test_adversarial_part2_still_bounded(self):
        # All part-2 patterns are enumerated; the reported mean is the
        # worst part-2 slice, which must stay below the bound.
        res = verify_proposition_decoding(n0=1, n1=4, n2=2, t=1,
                                          c1_dim=6, m=4,
                                          rng=np.random.default_rng(2))
        assert res.empirical_mean <= res.empirical_max <= res.bound + 1e-12

    def test_part2_error_alone_makes_decoding_fail(self):
        # With t = 0 the only part-1 pattern is zero, so every failure comes
        # from a part-2 error; a decoder that saw the true error never fails.
        res = verify_proposition_decoding(n0=0, n1=4, n2=2, t=0,
                                          c1_dim=5, m=3,
                                          rng=np.random.default_rng(0))
        assert res.n_patterns == 4
        assert res.empirical_max == 0.25
        assert res.bound == 0.5

    def test_no_error_coordinates(self):
        # n1 = n2 = 0: the zero word is the only error and the only word with
        # part 0 zero, so every seed decodes correctly.
        res = verify_proposition_decoding(3, 0, 0, 0, 2, 1, rng=np.random.default_rng(0))
        assert res == DecodingCheck(0.0, 0.0, 0.5, 2, 1)

    @pytest.mark.parametrize("rng_seed", [0, 1, 2])
    def test_matches_per_seed_brute_force(self, rng_seed):
        configs = [(n0, n1, n2, t, c1_dim, m)
                   for n0 in (0, 1, 2) for n1 in (1, 2, 3, 4) for n2 in (0, 1, 2)
                   if n0 + n1 + n2 <= 7
                   for t in sorted({0, min(n1, 2)}) for m in (1, 2, 3)
                   for c1_dim in range(m + 1, min(n0 + n1 + n2, m + 3) + 1)]
        rng = np.random.default_rng(rng_seed)
        for cfg in configs:
            state = rng.integers(1 << 32)
            want = _brute_force_check(*cfg, np.random.default_rng(state))
            got = verify_proposition_decoding(*cfg, rng=np.random.default_rng(state))
            assert got == want, cfg

    # Seed-7 replays near the size guard: up to 2^13 words with part 0 zero
    # and 2^10 hash seeds, larger than any criterion-3 config.
    GUARD_EDGE = {
        (0, 10, 2, 2, 10, 5): ("0x1.bd44924924925p-1", "0x1.0000000000000p+0",
                               "0x1.2a05f1ffffffdp+4", 512, 224),
        (2, 8, 2, 2, 11, 5): ("0x1.9cf59f2298376p-1", "0x1.fc80000000000p-1",
                              "0x1.67980e0bf08cap+3", 1024, 148),
        (0, 10, 3, 1, 11, 4): ("0x1.c480000000000p-1", "0x1.0000000000000p+0",
                               "0x1.9cfceb624ad8fp+3", 1024, 88),
    }

    @pytest.mark.parametrize("cfg", sorted(GUARD_EDGE))
    def test_guard_edge_pinned(self, cfg):
        mean, worst, bound, n_seeds, n_patterns = self.GUARD_EDGE[cfg]
        want = DecodingCheck(float.fromhex(mean), float.fromhex(worst), float.fromhex(bound),
                             n_seeds, n_patterns)
        assert verify_proposition_decoding(*cfg, rng=np.random.default_rng(7)) == want

    def test_guard(self):
        with pytest.raises(CapacityError):
            verify_proposition_decoding(8, 8, 0, 1, 10, 4)

    def test_binary_entropy_helper(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    @pytest.mark.parametrize("x", [float("nan"), -0.1, 1.5])
    def test_entropy_rejects_outside_and_nan(self, x):
        for entropy in (binary_entropy, hbar):
            with pytest.raises(ValueError, match=r"^entropy argument=.* outside \[0, 1\]$"):
                entropy(x)


def _brute_force_check(n0, n1, n2, t, c1_dim, m, rng):
    """The decoding replay seed by seed: C2 = M_e ker H_s from the Toeplitz
    matrix, its dual by kernel_basis and span_ints, and a plain-Python
    minimum over the candidates by (part-1 weight, lex_key of the estimate)."""
    n, l = n0 + n1 + n2, c1_dim - m
    m_e = random_full_rank_matrix(rng, n, c1_dim)
    c1perp = set(span_ints([v.bits for v in kernel_basis(m_e.transpose())]))
    seeds = range(1 << (c1_dim - 1))
    mask1 = ((1 << n1) - 1) << n0
    part1 = [e << n0 for e in range(1 << n1) if e.bit_count() <= t]
    ys = [e1 | e2 << (n0 + n1) for e2 in range(1 << n2) for e1 in part1]
    fails = [0] * len(ys)
    for seed in seeds:
        hash_m = build_toeplitz(l, m, BitVector(c1_dim - 1, seed))
        sub_rows = tuple(mat_vec_mul(m_e, u).bits for u in kernel_basis(hash_m))
        c2perp = span_ints([v.bits for v in kernel_basis(BitMatrix(len(sub_rows), n, sub_rows))])
        cands = [w for w in c2perp if w & ((1 << n0) - 1) == 0]
        for i, y in enumerate(ys):
            c = min(cands, key=lambda w: (((y ^ w) & mask1).bit_count(), lex_key(y ^ w, n)))
            fails[i] += c not in c1perp
    rate = np.array(fails) / len(seeds)
    return DecodingCheck(float(rate.reshape(1 << n2, len(part1)).mean(axis=1).max()),
                         float(rate.max()), 2.0 ** ((n1 * hbar(t / n1) if n1 else 0.0) + n2 - m),
                         len(seeds), len(ys))
