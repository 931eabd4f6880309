"""Decoy estimators: worked values, round trips, interval identities."""

import math
from dataclasses import replace

import numpy as np
import pytest

from decoybb84.bounds import hbar
from decoybb84.decoy import (ObservedRates, SourceDistribution,
                             estimate_interval_symmetric,
                             estimate_vacuum_single, minimize_key_term)
from decoybb84.errors import InfeasibleObservation
from oracles import (feasibility_check, interval_symmetric_reference, key_term_reference,
                     key_term_scan)


def forward_rates(nu, p0, pd, q1, r1x, q2x=0.0, r2x=0.0, q2p=None, r2p=None,
                  r1p=None):
    """Exact observed rates from known channel parameters (the four balance
    equations run forward); the independent oracle for every round trip."""
    q2p = q2x if q2p is None else q2p
    r2p = r2x if r2p is None else r2p
    r1p = r1x if r1p is None else r1p
    p_times = nu.v0 * p0 + nu.v1 * (pd + q1) + nu.v2 * (pd + q2x)
    p_plus = nu.v0 * p0 + nu.v1 * (pd + q1) + nu.v2 * (pd + q2p)
    s_times = (0.5 * nu.v0 * p0 + nu.v1 * (0.5 * pd + r1x * q1)
               + nu.v2 * (0.5 * pd + r2x * q2x)) / p_times
    s_plus = (0.5 * nu.v0 * p0 + nu.v1 * (0.5 * pd + r1p * q1)
              + nu.v2 * (0.5 * pd + r2p * q2p)) / p_plus
    return ObservedRates(p0=p0, p_dark=pd, p_nu_times=p_times,
                         s_nu_times=s_times, p_nu_plus=p_plus,
                         s_nu_plus=s_plus)


class TestEstimateVacuumSingle:
    def test_worked_example(self):
        nu = SourceDistribution(0.5, 0.5)
        obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.1055,
                            s_nu_times=0.0115 / 0.1055)
        q1, r1 = estimate_vacuum_single(nu, obs)
        assert q1.value == pytest.approx(0.200, abs=1e-12)
        assert r1.value == pytest.approx(0.0875, abs=1e-12)
        assert not q1.clamped and not r1.clamped

    def test_perfect_source(self):
        nu = SourceDistribution(0.0, 1.0)
        obs = ObservedRates(p0=0.0, p_dark=0.0, p_nu_times=1.0, s_nu_times=0.0)
        q1, r1 = estimate_vacuum_single(nu, obs)
        assert (q1.value, r1.value) == (1.0, 0.0)

    def test_all_counts_from_vacuum_and_dark(self):
        nu = SourceDistribution(0.5, 0.5)
        p0, pd = 0.02, 0.001
        obs = ObservedRates(p0=p0, p_dark=pd,
                            p_nu_times=0.5 * p0 + 0.5 * pd,
                            s_nu_times=0.5)
        q1, r1 = estimate_vacuum_single(nu, obs)
        assert q1.value == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_raises(self):
        nu = SourceDistribution(0.5, 0.5)
        obs = ObservedRates(p0=0.5, p_dark=0.0, p_nu_times=0.1, s_nu_times=0.1)
        with pytest.raises(InfeasibleObservation):
            estimate_vacuum_single(nu, obs)

    def test_plus_counting_rate_must_match(self):
        # Without multi-photon pulses both bases count nu1 q1; p_nu_plus = 0.9
        # against p_nu_times = 0.1055 fits no channel.
        nu = SourceDistribution(0.5, 0.5)
        obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.1055, s_nu_times=0.109,
                            p_nu_plus=0.9, s_nu_plus=0.5)
        with pytest.raises(InfeasibleObservation, match=r"^\+ basis rates"):
            estimate_vacuum_single(nu, obs)
        # Within the tolerance the + counting rate is accepted.
        obs = replace(obs, p_nu_plus=0.1055 + 1e-10, s_nu_plus=0.109)
        assert estimate_vacuum_single(nu, obs)[0].value == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("r1p,feasible", [(0.0, True), (1.0, True), (0.3, True),
                                              (-0.1, False), (1.1, False)])
    def test_plus_error_count_within_single_photon_counts(self, r1p, feasible):
        # The + error count net of the vacuum and dark halves is nu1 q1 r1_+,
        # so it must lie in [0, nu1 q1]; r1_+ = -0.1 and 1.1 still give an
        # s_nu_plus inside [0, 1].
        nu = SourceDistribution(0.3, 0.7)
        obs = forward_rates(nu, 0.05, 0.01, 0.1, 0.06, r1p=r1p)
        if feasible:
            assert estimate_vacuum_single(nu, obs)[1].value == pytest.approx(0.06, abs=1e-12)
        else:
            with pytest.raises(InfeasibleObservation):
                estimate_vacuum_single(nu, obs)

    def test_exact_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v0 = float(rng.uniform(0, 0.6))
            nu = SourceDistribution(v0, 1 - v0)
            p0 = float(rng.uniform(0.001, 0.05))
            pd = float(rng.uniform(0, p0))
            q1 = float(rng.uniform(0.05, 1 - pd))
            r1 = float(rng.uniform(0, 1))
            obs = forward_rates(nu, p0, pd, q1, r1)
            got_q, got_r = estimate_vacuum_single(nu, obs)
            assert got_q.value == pytest.approx(q1, abs=1e-12)
            assert got_r.value == pytest.approx(r1, abs=1e-12)

    def test_round_trip_with_detector_error(self):
        nu = SourceDistribution(0.3, 0.7)
        p0, pd, q1, r1, ps = 0.01, 0.001, 0.4, 0.06, 0.02
        r1_observed = ps * (1 - r1) + (1 - ps) * r1
        obs_raw = forward_rates(nu, p0, pd, q1, r1_observed)
        obs = ObservedRates(p0=p0, p_dark=pd, p_nu_times=obs_raw.p_nu_times,
                            s_nu_times=obs_raw.s_nu_times, p_s=ps)
        got_q, got_r = estimate_vacuum_single(nu, obs)
        assert got_q.value == pytest.approx(q1, abs=1e-12)
        assert got_r.value == pytest.approx(r1, abs=1e-12)


class TestCorrectDetectorError:
    """The detector-flip correction r = (r' - p_S)/(1 - 2 p_S) on the estimator
    path: a perfect single-photon source with no dark counts observes r' as
    its error rate, so the r1 estimate is the corrected r' (clamped)."""

    @staticmethod
    def corrected(r1_observed, p_s):
        obs = ObservedRates(p0=0.0, p_dark=0.0, p_nu_times=0.5, s_nu_times=r1_observed,
                            p_s=p_s)
        return estimate_vacuum_single(SourceDistribution(0.0, 1.0), obs)[1].value

    def test_identity_at_zero(self):
        assert self.corrected(0.3, 0.0) == pytest.approx(0.3)

    def test_all_error_from_detector(self):
        assert self.corrected(0.01, 0.01) == pytest.approx(0.0)

    def test_worked_value(self):
        assert self.corrected(0.0875, 0.01) == \
            pytest.approx(0.0775 / 0.98, abs=1e-12)

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            self.corrected(0.2, 0.5)


class TestIntervalSymmetric:
    def test_degenerate_no_multi(self):
        nu = SourceDistribution(0.5, 0.5, 0.0)
        obs = forward_rates(nu, 0.01, 0.001, 0.2, 0.0875)
        interval = estimate_interval_symmetric(nu, obs)
        assert interval.q1_min == pytest.approx(interval.q1_max, abs=1e-12)
        assert interval.q1_min == pytest.approx(0.2, abs=1e-12)
        assert interval.q1_width == 0.0

    def test_worked_q1_min(self):
        nu = SourceDistribution(0.05, 0.90, 0.05)
        obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.15,
                            s_nu_times=0.05)
        interval = estimate_interval_symmetric(nu, obs)
        assert interval.q1_min == pytest.approx(0.0995 / 0.9 - 0.001, abs=1e-12)
        # independent substitution of the displayed formulas
        v0, v1, v2 = 0.05, 0.90, 0.05
        p, s, p0, pd = 0.15, 0.05, 0.01, 0.001
        q1_min = (p - p0 * v0 - v2) / v1 - pd
        q1_max = (p - p0 * v0 - v2 * pd) / v1 - pd
        r1_max = (s * p - 0.5 * p0 * v0 - 0.5 * pd * v1 - 0.5 * pd * v2) / \
            (p - p0 * v0 - pd * v1 - v2)
        r1_min = (s * p - 0.5 * p0 * v0 - 0.5 * pd * v1 - 0.5 * pd * v2
                  - (1 - pd) * v2) / (p - p0 * v0 - pd * v1 - v2 * pd)
        assert interval.q1_min == pytest.approx(q1_min, abs=1e-12)
        assert interval.q1_max == pytest.approx(q1_max, abs=1e-12)
        assert interval.r1_max == pytest.approx(r1_max, abs=1e-12)
        assert interval.r1_min_tilde == pytest.approx(max(r1_min, 0.0), abs=1e-12)

    def test_width_identity(self):
        # Draws keep both interval ends inside [0, 1 - p_D] so the exact
        # width identity applies without clamping.
        rng = np.random.default_rng(1)
        for _ in range(50):
            v2 = float(rng.uniform(0.01, 0.15))
            v0 = float(rng.uniform(0, 0.25))
            nu = SourceDistribution(v0, 1 - v0 - v2, v2)
            pd = float(rng.uniform(0, 0.01))
            p0 = float(rng.uniform(pd, 0.05))
            q1 = float(rng.uniform(0.3, 0.7))
            obs = forward_rates(nu, p0, pd, q1, 0.05, q2x=0.5, r2x=0.1)
            interval = estimate_interval_symmetric(nu, obs)
            assert interval.q1_max - interval.q1_min == \
                pytest.approx(nu.v2 * (1 - pd) / nu.v1, abs=1e-12)
            assert interval.q1_width == \
                pytest.approx(nu.v2 * (1 - pd) / nu.v1, abs=1e-12)

    def test_brackets_truth(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v2 = float(rng.uniform(0.01, 0.25))
            v0 = float(rng.uniform(0, 0.3))
            nu = SourceDistribution(v0, 1 - v0 - v2, v2)
            pd = float(rng.uniform(0, 0.01))
            p0 = float(rng.uniform(pd, 0.05))
            q1 = float(rng.uniform(0.1, 1 - pd))
            r1 = float(rng.uniform(0, 1))
            q2 = float(rng.uniform(0, 1 - pd))
            r2 = float(rng.uniform(0, 1))
            obs = forward_rates(nu, p0, pd, q1, r1, q2x=q2, r2x=r2)
            interval = estimate_interval_symmetric(nu, obs)
            assert interval.q1_min <= q1 + 1e-9
            assert q1 <= interval.q1_max + 1e-9
            assert r1 <= interval.r1_max + 1e-9
            assert interval.r1_min_tilde <= r1 + 1e-9
            # analytic width bound on the error-rate interval
            assert interval.r1_max - interval.r1_min_tilde <= \
                interval.r1_width_bound + 1e-9

    def test_non_symmetric_rejected(self):
        nu = SourceDistribution(0.1, 0.8, 0.1)
        obs = ObservedRates(p0=0.01, p_dark=0.0, p_nu_times=0.2,
                            s_nu_times=0.05, p_nu_plus=0.3, s_nu_plus=0.05)
        with pytest.raises(ValueError):
            estimate_interval_symmetric(nu, obs)


class TestFeasibility:
    def _setting(self):
        nu = SourceDistribution(0.1, 0.8, 0.1)
        params = dict(p0=0.02, pd=0.002, q1=0.5, r1x=0.08,
                      q2x=0.6, r2x=0.2, q2p=0.55, r2p=0.25)
        obs = forward_rates(nu, params["p0"], params["pd"], params["q1"],
                            params["r1x"], q2x=params["q2x"], r2x=params["r2x"],
                            q2p=params["q2p"], r2p=params["r2p"], r1p=0.09)
        return nu, obs, params

    def test_forward_simulated_tuple_feasible(self):
        nu, obs, p = self._setting()
        cand = (p["q1"], p["r1x"], p["q2x"], p["q2p"], p["r2x"], p["r2p"])
        assert feasibility_check(nu, obs, cand)

    def test_corner_realizes_extremes(self):
        # The interval ends are hit together at multi-photon yield 1 - p_D
        # with zero multi-photon error.
        nu = SourceDistribution(0.1, 0.8, 0.1)
        pd, p0 = 0.002, 0.02
        obs = forward_rates(nu, p0, pd, 0.5, 0.08, q2x=1 - pd, r2x=0.0)
        interval = estimate_interval_symmetric(nu, obs)
        cand = (interval.q1_min, interval.r1_max, 1 - pd, 1 - pd, 0.0, 0.0)
        assert feasibility_check(nu, obs, cand)

    def test_perturbed_equation_infeasible(self):
        nu, obs, p = self._setting()
        cand = (p["q1"] + 1e-3, p["r1x"], p["q2x"], p["q2p"], p["r2x"], p["r2p"])
        assert not feasibility_check(nu, obs, cand)


class TestMinimizeKeyTerm:
    def test_symmetric_closed_form(self):
        nu = SourceDistribution(0.05, 0.9, 0.05)
        obs = forward_rates(nu, 0.01, 0.001, 0.4, 0.03, q2x=0.3, r2x=0.1)
        interval = estimate_interval_symmetric(nu, obs)
        q1, r1, value = minimize_key_term(nu, obs)
        assert q1 == pytest.approx(interval.q1_min, abs=1e-12)
        assert r1 == pytest.approx(interval.r1_max, abs=1e-12)
        assert value == pytest.approx(
            interval.q1_min * (1 - hbar(interval.r1_max)), abs=1e-12)

    def test_no_multi_unique_point(self):
        nu = SourceDistribution(0.5, 0.5)
        obs = forward_rates(nu, 0.01, 0.001, 0.2, 0.0875)
        q1, r1, value = minimize_key_term(nu, obs)
        assert q1 == pytest.approx(0.2, abs=1e-12)
        assert value == pytest.approx(0.2 * (1 - hbar(0.0875)), abs=1e-12)

    def test_non_symmetric_at_least_symmetric_value(self):
        # Extra + basis constraints can only shrink the feasible set.
        nu = SourceDistribution(0.05, 0.85, 0.10)
        p0, pd = 0.01, 0.001
        obs_full = forward_rates(nu, p0, pd, 0.5, 0.05,
                                 q2x=0.4, r2x=0.1, q2p=0.5, r2p=0.2, r1p=0.06)
        sym_obs = ObservedRates(p0=p0, p_dark=pd,
                                p_nu_times=obs_full.p_nu_times,
                                s_nu_times=obs_full.s_nu_times)
        q_sym, r_sym, v_sym = minimize_key_term(nu, sym_obs)
        q_ns, r_ns, v_ns = minimize_key_term(nu, obs_full)
        assert v_ns >= v_sym - 1e-6

    def test_non_symmetric_feasible_set_narrower(self):
        # Every channel feasible under both bases stays inside the interval
        # computed from the x basis alone, so the widths never grow.
        rng = np.random.default_rng(17)
        for _ in range(20):
            v2 = float(rng.uniform(0.02, 0.12))
            v0 = float(rng.uniform(0, 0.2))
            nu = SourceDistribution(v0, 1 - v0 - v2, v2)
            pd = float(rng.uniform(0, 0.005))
            p0 = float(rng.uniform(pd, 0.03))
            q1 = float(rng.uniform(0.35, 0.6))
            obs = forward_rates(nu, p0, pd, q1, 0.05, q2x=0.4, r2x=0.1,
                                q2p=0.45, r2p=0.15, r1p=0.06)
            sym = ObservedRates(p0=p0, p_dark=pd, p_nu_times=obs.p_nu_times,
                                s_nu_times=obs.s_nu_times)
            interval = estimate_interval_symmetric(nu, sym)
            # scan feasible (q2x, r2x) pairs and track the realized q1, r1
            lo_q, hi_q = 1.0, 0.0
            lo_r, hi_r = 1.0, 0.0
            for q2 in np.linspace(0, 1 - pd, 41):
                qq1 = (obs.p_nu_times - nu.v0 * p0
                       - nu.v2 * (pd + q2)) / nu.v1 - pd
                if not 0 <= qq1 <= 1 - pd:
                    continue
                q2p = (obs.p_nu_plus - nu.v0 * p0
                       - nu.v1 * (pd + qq1)) / nu.v2 - pd
                if not 0 <= q2p <= 1 - pd:
                    continue
                for r2 in np.linspace(0, 1, 41):
                    num = (obs.s_nu_times * obs.p_nu_times - 0.5 * nu.v0 * p0
                           - 0.5 * nu.v1 * pd - nu.v2 * (0.5 * pd + r2 * q2))
                    if nu.v1 * qq1 <= 1e-12:
                        continue
                    rr1 = num / (nu.v1 * qq1)
                    if not 0 <= rr1 <= 1:
                        continue
                    lo_q, hi_q = min(lo_q, qq1), max(hi_q, qq1)
                    lo_r, hi_r = min(lo_r, rr1), max(hi_r, rr1)
            assert hi_q - lo_q <= interval.q1_width + 1e-9
            assert lo_q >= interval.q1_min - 1e-9
            assert hi_q <= interval.q1_max + 1e-9
            assert hi_r <= interval.r1_max + 1e-9
            assert lo_r >= interval.r1_min_tilde - 1e-9

    def test_plus_cap_sets_the_corner(self):
        # p_nu_plus exceeds p_nu_times by 0.01, so the + basis multi-photon
        # yield reaches 1 - p_D when the x basis one is 1 - p_D - 0.01 / nu2.
        nu = SourceDistribution(0.3, 0.6, 0.1)
        obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.2, s_nu_times=0.05,
                            p_nu_plus=0.21, s_nu_plus=0.06)
        y = 1.0 - 0.01 / 0.1
        q1 = (0.2 - 0.3 * 0.01 - 0.1 * y) / 0.6 - 0.001
        r1 = (0.05 * 0.2 - 0.5 * (0.3 * 0.01 + 0.6 * 0.001 + 0.1 * 0.001)) / (0.6 * q1)
        got_q, got_r, value = minimize_key_term(nu, obs)
        assert got_q == pytest.approx(q1, rel=1e-12)
        assert got_r == pytest.approx(r1, rel=1e-12)
        assert value == pytest.approx(q1 * (1 - hbar(r1)), rel=1e-12)

    @pytest.mark.parametrize("p_nu_plus", [0.4, 0.05])
    def test_plus_counts_out_of_reach_raise(self, p_nu_plus):
        # |p_nu_plus - p_nu_times| above nu2 (1 - p_D): no multi-photon
        # yield pair in range explains both bases.
        nu = SourceDistribution(0.3, 0.6, 0.1)
        obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.2, s_nu_times=0.05,
                            p_nu_plus=p_nu_plus, s_nu_plus=0.05)
        with pytest.raises(InfeasibleObservation):
            minimize_key_term(nu, obs)

    @pytest.mark.parametrize("s_nu_plus", [0.0, 1.0])
    def test_plus_errors_out_of_reach_raise(self, s_nu_plus):
        # Fewer + basis errors than the vacuum and dark counts' half, or
        # more than every count: no error rates in [0, 1] fit.
        nu = SourceDistribution(0.3, 0.6, 0.1)
        obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.2, s_nu_times=0.05,
                            p_nu_plus=0.21, s_nu_plus=s_nu_plus)
        with pytest.raises(InfeasibleObservation):
            minimize_key_term(nu, obs)

    def test_no_credit_when_top_yield_explains_all_counts(self):
        nu = SourceDistribution(0.3, 0.6, 0.1)
        obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.08, s_nu_times=0.05,
                            p_nu_plus=0.07, s_nu_plus=0.05)
        assert minimize_key_term(nu, obs) == (0.0, 1.0, 0.0)

    def test_negative_error_numerator_clamps(self):
        # Fewer x-basis errors than the vacuum and dark counts explain: r1
        # clamps to 0 in both branches instead of raising.
        nu = SourceDistribution(0.3, 0.6, 0.1)
        for p_nu_plus in (None, 0.205):
            obs = ObservedRates(p0=0.01, p_dark=0.001, p_nu_times=0.2, s_nu_times=0.001,
                                p_nu_plus=p_nu_plus, s_nu_plus=0.05)
            q1, r1, value = minimize_key_term(nu, obs)
            assert r1 == 0.0 and value == q1 > 0.0

    def test_statistical_round_trip(self):
        # 10^6 pulses split between the vacuum decoy and the nu source.
        rng = np.random.default_rng(7)
        nu = SourceDistribution(0.3, 0.7)
        q_vac, pd, q1_true, r1_true = 0.010, 0.002, 0.35, 0.04
        p0_true = q_vac + pd
        n = 1_000_000
        n_vac = n // 2
        n_sig = n - n_vac

        p0_hat = float((rng.random(n_vac) < p0_true).mean())

        is_single = rng.random(n_sig) < nu.v1
        u = rng.random(n_sig)
        click_rate = np.where(is_single, q1_true, q_vac)
        normal = u < click_rate
        dark = (u >= click_rate) & (u < click_rate + pd)
        detected = normal | dark
        signal = normal & is_single               # informative clicks
        errs = np.zeros(n_sig, dtype=bool)
        errs[signal] = rng.random(int(signal.sum())) < r1_true
        noise = detected & ~signal                # spurious or dark: fair coin
        errs[noise] = rng.random(int(noise.sum())) < 0.5

        p_hat = float(detected.mean())
        s_hat = float(errs[detected].mean())
        obs = ObservedRates(p0=p0_hat, p_dark=pd, p_nu_times=p_hat,
                            s_nu_times=s_hat)
        got_q, got_r = estimate_vacuum_single(nu, obs)
        # 5 sigma windows propagated through the linear estimator maps
        sigma_q = (math.sqrt(0.25 / n_sig) + nu.v0 * math.sqrt(0.25 / n_vac)) / nu.v1
        sigma_r = math.sqrt(0.25 / n_sig) / (nu.v1 * q1_true) * 2.5
        assert abs(got_q.value - q1_true) < 5 * sigma_q
        assert abs(got_r.value - r1_true) < 5 * sigma_r


def _random_channel(rng, p_s):
    """A source and the observations of a random channel run forward, with
    detector flips at rate p_s on the single-photon error rates."""
    v2 = float(rng.uniform(0.02, 0.25))
    v0 = float(rng.uniform(0, 0.3))
    nu = SourceDistribution(v0, 1 - v0 - v2, v2)
    pd = float(rng.uniform(0, 0.01))
    p0 = float(rng.uniform(pd, 0.05))
    q1 = float(rng.uniform(0.1, 1 - pd))
    r1x, r1p = (p_s + (1 - 2 * p_s) * float(r) for r in rng.uniform(0, 0.2, 2))
    q2x, q2p = (float(q) for q in rng.uniform(0, 1 - pd, 2))
    r2x, r2p = (float(r) for r in rng.uniform(0, 1, 2))
    obs = forward_rates(nu, p0, pd, q1, r1x, q2x=q2x, r2x=r2x, q2p=q2p, r2p=r2p, r1p=r1p)
    return nu, replace(obs, p_s=p_s)


class TestKeyTermCorner:
    """The closed-form corner against a brute-force scan, the feasibility
    oracle and the symmetric interval written out in full."""

    def test_below_every_feasible_scan_point(self):
        rng = np.random.default_rng(31)
        n_q = 4001
        checked = 0
        for i in range(210):
            p_s = (0.0, 0.02, 0.04)[i % 3]
            nu, obs = _random_channel(rng, p_s)
            q1, r1, value = minimize_key_term(nu, obs)
            scan = key_term_scan(nu, obs, n_q=n_q)
            assert len(scan) > 0
            assert value <= scan.min() + 1e-12
            # ... and no lower than the scan's step allows: the value moves
            # by less than 2 nu2 / nu1 per unit of q2_x.
            step = (1 - obs.p_dark) / (n_q - 1)
            assert scan.min() - value <= 2 * nu.v2 / nu.v1 * step
            if not (0.0 < q1 and 0.0 < r1 < 1.0):
                assert value == 0.0 or r1 == 0.0
                continue
            # The corner is a channel: rebuild it from (q1, r1) alone.
            v0, v1, v2, p0, pd = nu.v0, nu.v1, nu.v2, obs.p0, obs.p_dark
            r1x = p_s + (1 - 2 * p_s) * r1
            q2x = (obs.p_nu_times - v0 * p0 - v1 * (pd + q1)) / v2 - pd
            q2p = (obs.p_nu_plus - v0 * p0 - v1 * (pd + q1)) / v2 - pd
            plus_errors = (obs.s_nu_plus * obs.p_nu_plus
                           - 0.5 * (v0 * p0 + v1 * pd + v2 * pd))
            r2p = min(1.0, plus_errors / (v2 * q2p)) if q2p > 0 else 0.0
            assert feasibility_check(nu, obs, (q1, r1x, q2x, q2p, 0.0, r2p))
            assert value == pytest.approx(q1 * (1 - hbar(r1)), abs=1e-15)
            checked += 1
        assert checked >= 180

    def test_symmetric_bitwise_reference(self):
        # Random rates, infeasible and clamped ones included, with and
        # without explicit + basis rates equal to the x basis ones.
        rng = np.random.default_rng(47)
        outcomes = set()
        for i in range(1200):
            v2 = float(rng.uniform(0.001, 0.4))
            v0 = float(rng.uniform(0, 0.5))
            nu = SourceDistribution(v0, 1 - v0 - v2, v2)
            p, s = (float(x) for x in rng.uniform(0, 1, 2))
            pd = float(rng.uniform(0, 0.05))
            p0 = float(rng.uniform(pd, 0.2))
            plus = dict(p_nu_plus=p, s_nu_plus=s) if i % 2 else {}
            obs = ObservedRates(p0=p0, p_dark=pd, p_nu_times=p, s_nu_times=s,
                                p_s=(0.0, 0.02, 0.04)[i % 3], **plus)
            try:
                want = interval_symmetric_reference(nu, obs)
            except InfeasibleObservation:
                with pytest.raises(InfeasibleObservation):
                    estimate_interval_symmetric(nu, obs)
                with pytest.raises(InfeasibleObservation):
                    minimize_key_term(nu, obs)
                outcomes.add("infeasible")
                continue
            assert estimate_interval_symmetric(nu, obs) == want
            assert minimize_key_term(nu, obs) == key_term_reference(nu, obs)
            outcomes.add("no credit" if want.q1_min == 0.0 else
                         "clamped" if want.clamped else "interior")
        assert outcomes == {"infeasible", "no credit", "clamped", "interior"}

    @pytest.mark.parametrize("p_s", [0.0, 0.02, 0.04])
    def test_continuous_across_symmetric_switch(self, p_s):
        nu = SourceDistribution(0.05, 0.85, 0.10)
        obs = forward_rates(nu, 0.01, 0.001, 0.5, p_s + (1 - 2 * p_s) * 0.05,
                            q2x=0.4, r2x=0.1)
        obs = replace(obs, p_s=p_s)
        assert obs.symmetric()
        _, _, value = minimize_key_term(nu, obs)
        for factor in (1 + 1e-9, 1 - 1e-9):
            moved = replace(obs, p_nu_plus=obs.p_nu_plus * factor)
            assert not moved.symmetric()
            assert abs(minimize_key_term(nu, moved)[2] - value) < 1e-6
