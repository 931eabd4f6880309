"""Key-rate formulas, effective parameters, and the ordering chain."""

import numpy as np
import pytest

from decoybb84.bounds import hbar
from decoybb84.decoy import SourceDistribution
from decoybb84.rates import (RateInputs, all_rates, gllp_effective_params,
                             initial_eve_information_asymptotic, shannon_eta,
                             verify_rate_ordering)


def random_inputs(rng):
    v0 = float(rng.uniform(0, 0.5))
    v2 = float(rng.uniform(0, 0.3))
    nu = SourceDistribution(v0, 1 - v0 - v2, v2)
    p_dark = float(rng.uniform(0, 0.05))
    return RateInputs(
        nu=nu,
        q1=float(rng.uniform(0, 1)),
        r1=float(rng.uniform(0, 1)),
        p0=float(rng.uniform(p_dark, 1)),  # a vacuum pulse can always dark-count
        p_dark=p_dark,
        p_nu_plus=float(rng.uniform(0.01, 1)),
        s_nu_plus=float(rng.uniform(0, 1)))


class TestGllpEffectiveParams:
    def test_no_dark_counts(self):
        assert gllp_effective_params(0.3, 0.07, 0.0) == (0.3, 0.07)

    def test_worked(self):
        q1b, r1b = gllp_effective_params(0.2, 0.0875, 0.001)
        assert q1b == pytest.approx(0.201)
        assert r1b == pytest.approx(0.018 / 0.201)

    def test_pure_dark_counts_unbiased(self):
        q1b, r1b = gllp_effective_params(0.0, 0.3, 0.01)
        assert q1b == pytest.approx(0.01)
        assert r1b == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gllp_effective_params(0.0, 0.1, 0.0)


class TestRateFormulas:
    def test_perfect_single_photon_half(self):
        inputs = RateInputs(nu=SourceDistribution(0.0, 1.0), q1=1.0, r1=0.0,
                            p0=0.0, p_dark=0.0, p_nu_plus=1.0, s_nu_plus=0.0)
        r = all_rates(inputs)
        assert r["forward"] == pytest.approx(0.5)
        assert r["reverse"] == pytest.approx(0.5)

    def test_entropy_clamp_kills_photon_term(self):
        inputs = RateInputs(nu=SourceDistribution(0.0, 1.0), q1=0.8, r1=0.6,
                            p0=0.0, p_dark=0.0, p_nu_plus=0.5, s_nu_plus=0.0)
        assert all_rates(inputs)["forward"] == pytest.approx(0.0)

    def test_dual_evaluation(self):
        # Independent re-evaluation of every display, straight substitution.
        nu = SourceDistribution(0.5, 0.5)
        inputs = RateInputs(nu=nu, q1=0.2, r1=0.0875, p0=0.01, p_dark=0.001,
                            p_nu_plus=0.1055, s_nu_plus=0.109)
        r = all_rates(inputs)
        photon = 0.5 * 0.2 * (1 - hbar(0.0875))
        corr = 0.1055 * (1 - (1 - hbar(0.109)))
        q1b = 0.2 + 0.001
        r1b = (0.0875 * 0.2 + 0.0005) / 0.201
        photon_bar = 0.5 * q1b * (1 - hbar(r1b))
        assert r["forward"] == pytest.approx((photon + 0.5 * 0.01 - corr) / 2, abs=1e-12)
        assert r["reverse"] == pytest.approx((photon + 0.001 - corr) / 2, abs=1e-12)
        assert r["twoway"] == pytest.approx((photon + 0.5 * 0.001 - corr) / 2, abs=1e-12)
        assert r["gllp_ilm"] == pytest.approx((photon_bar - corr) / 2, abs=1e-12)
        assert r["bar_forward"] == pytest.approx((photon_bar + 0.5 * 0.01 - corr) / 2, abs=1e-12)
        assert r["bar_reverse"] == pytest.approx((photon_bar - corr) / 2, abs=1e-12)

    def test_refinement_strictly_beats_effective_params(self):
        inputs = RateInputs(nu=SourceDistribution(0.0, 1.0), q1=0.3, r1=0.02,
                            p0=0.02, p_dark=0.01, p_nu_plus=0.32, s_nu_plus=0.02)
        r = all_rates(inputs)
        assert r["forward"] > r["bar_forward"]

    def test_two_way_vacuum_limit(self):
        # As v0 -> 1 the two-way credit approaches the full dark-count rate.
        nu = SourceDistribution(0.98, 0.02)
        inputs = RateInputs(nu=nu, q1=0.5, r1=0.1, p0=0.02, p_dark=0.01,
                            p_nu_plus=0.05, s_nu_plus=0.1)
        r = all_rates(inputs)
        assert r["twoway"] - r["bar_reverse"] >= 0
        credit = 2 * r["twoway"] - 2 * r["reverse"]
        assert credit == pytest.approx(0.98 * 0.01 - 0.01, abs=1e-12)

    def test_negative_rates_returned_raw(self):
        inputs = RateInputs(nu=SourceDistribution(0.5, 0.5), q1=0.01, r1=0.4,
                            p0=0.0, p_dark=0.0, p_nu_plus=1.0, s_nu_plus=0.5)
        assert all_rates(inputs)["forward"] < 0.0

    def test_linearity_in_terms(self):
        # Every rate is (credit terms - debit)/2: doubling each term through
        # the inputs doubles the photon credit exactly.
        inputs = RateInputs(nu=SourceDistribution(0.0, 1.0), q1=0.2, r1=0.1,
                            p0=0.0, p_dark=0.0, p_nu_plus=0.0, s_nu_plus=0.0)
        doubled = RateInputs(nu=SourceDistribution(0.0, 1.0), q1=0.4, r1=0.1,
                             p0=0.0, p_dark=0.0, p_nu_plus=0.0, s_nu_plus=0.0)
        assert all_rates(doubled)["forward"] == pytest.approx(2 * all_rates(inputs)["forward"])


class TestInitialEveInformation:
    def test_noiseless_perfect(self):
        nu = SourceDistribution(0.0, 1.0)
        assert initial_eve_information_asymptotic(
            nu, 1.0, 0.0, 0.0, 0.0, 1.0, n=100, direction="forward") == \
            pytest.approx(0.0)

    def test_asymptotic_matches_expected_counts(self):
        # With counts at their expected fractions the two forms agree.
        nu = SourceDistribution(0.2, 0.8)
        q1, r1, p0, pd = 0.5, 0.05, 0.03, 0.01
        p_nu = nu.v0 * p0 + nu.v1 * (pd + q1)
        n = 10_000
        j1 = n * nu.v1 * q1 / p_nu
        j0 = n * nu.v0 * (p0 - pd) / p_nu
        j3 = n * nu.v0 * pd / p_nu
        j4 = n * nu.v1 * pd / p_nu
        j = (j0, j1, 0.0, j3, j4, 0.0)
        counts_form = j1 * hbar(r1) + j[2] + j[4] + j[5]
        asym_form = initial_eve_information_asymptotic(
            nu, q1, r1, p0, pd, p_nu, n=n, direction="forward")
        assert counts_form == pytest.approx(asym_form, rel=1e-12)

    def test_requires_positive_rate(self):
        with pytest.raises(ValueError):
            initial_eve_information_asymptotic(
                SourceDistribution(0.0, 1.0), 1.0, 0.0, 0.0, 0.0, 0.0, 10)


class TestOrderingChain:
    def test_randomized_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            report = verify_rate_ordering(random_inputs(rng))
            assert report.all_ok, report.checks

    def test_degenerate_no_dark_counts(self):
        inputs = RateInputs(nu=SourceDistribution(0.3, 0.7), q1=0.4, r1=0.06,
                            p0=0.02, p_dark=0.0, p_nu_plus=0.3, s_nu_plus=0.06)
        r = all_rates(inputs)
        assert r["bar_reverse"] == pytest.approx(r["reverse"], abs=1e-15)
        assert r["twoway"] == pytest.approx(r["bar_reverse"], abs=1e-15)
        assert r["bar_forward"] == pytest.approx(r["forward"], abs=1e-15)

    def test_forward_beats_reverse_when_vacuum_credit_larger(self):
        inputs = RateInputs(nu=SourceDistribution(0.5, 0.5), q1=0.4, r1=0.06,
                            p0=0.5, p_dark=0.01, p_nu_plus=0.3, s_nu_plus=0.06)
        if inputs.nu.v0 * inputs.p0 >= inputs.p_dark:
            assert all_rates(inputs)["forward"] >= all_rates(inputs)["reverse"]

    def test_continuity_spot(self):
        base = RateInputs(nu=SourceDistribution(0.3, 0.7), q1=0.5, r1=0.1,
                          p0=0.05, p_dark=0.01, p_nu_plus=0.4, s_nu_plus=0.08)
        bumped = RateInputs(nu=base.nu, q1=0.5 + 1e-9, r1=0.1, p0=0.05,
                            p_dark=0.01, p_nu_plus=0.4, s_nu_plus=0.08)
        assert abs(all_rates(bumped)["forward"] - all_rates(base)["forward"]) < 1e-8

    def test_eta_default_shannon(self):
        assert shannon_eta(0.0) == 1.0
        assert shannon_eta(0.5) == 0.0
