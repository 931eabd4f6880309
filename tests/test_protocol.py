"""End-to-end session behavior: aborts, clamps, determinism, statistics."""

import hashlib
import inspect
import itertools
import json
import math
import pickle
import re
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import decoybb84.protocol as protocol_mod
from decoybb84 import gf2, kernels
from decoybb84.bounds import hbar
from decoybb84.channel import ChannelStrategy
from decoybb84.cli import _session_entry, input_keys, load_input, parse_key_values
from decoybb84.decoy import (ObservedRates, SourceDistribution,
                             estimate_interval_symmetric, estimate_vacuum_single)
from decoybb84.errors import CapacityError, DimensionMismatch, InfeasibleObservation
from decoybb84.gf2 import BitVector, mat_vec_mul, solve, span_array
from decoybb84.protocol import (DExperimental, DInitial, SessionConfig, decide_sizes, decode_to_seed, error_correct,
                                initial_eve_info_m_rule, random_full_rank_matrix,
                                run_session)
from oracles import matrix_from_rows, min_distance_decode, replay_public_decisions


def single_photon_config(**overrides):
    base = dict(n=64, n_bar=64, n_under=8, n_prime=512,
                nus=(SourceDistribution(0.0, 1.0),), i0=1,
                p_bar=(0.1, 0.45, 0.45), rng_seed=7)
    base.update(overrides)
    return SessionConfig(**base)


def noisy_strategy():
    return ChannelStrategy(p_dark=0.01, q_vacuum=0.01, q_single=0.6,
                           q_multi_times=0.7, q_multi_plus=0.7,
                           single_error_plus=(0.9, 0.03, 0.04, 0.03),
                           single_error_times=(0.9, 0.03, 0.04, 0.03),
                           multi_flip_plus=0.05, multi_flip_times=0.05)


class TestNoiselessSession:
    def test_completes_with_equal_keys(self):
        out = run_session(single_photon_config(), ChannelStrategy())
        assert out.completed
        assert out.keys_match()
        assert out.plus.ec_success and out.times.ec_success
        assert out.experiment.h[1] == 0 and out.experiment.h[2] == 0

    def test_key_length_law(self):
        out = run_session(single_photon_config(), ChannelStrategy())
        cfg = out.config
        for res in (out.plus, out.times):
            assert res.length == res.lm - res.m
            assert cfg.n_under <= res.length <= cfg.n_bar

    def test_truth_counts(self):
        out = run_session(single_photon_config(), ChannelStrategy())
        for counts in out.truth.values():
            assert sum(counts.j_tuple()) == 64
            assert counts.j1 + counts.j4 == 64 and counts.t == 0


class TestReverseDirection:
    def test_noiseless_reverse_session(self):
        cfg = single_photon_config(ec_direction="reverse")
        out = run_session(cfg, ChannelStrategy())
        assert out.completed and out.keys_match()
        assert out.plus.ec_success and out.times.ec_success

    def test_noisy_reverse_session_with_dark_counts(self):
        cfg = SessionConfig(n=16, n_bar=16, n_under=1, n_prime=4000,
                            nus=(SourceDistribution(0.05, 0.9, 0.05),), i0=1,
                            p_bar=(0.1, 0.45, 0.45), rng_seed=5,
                            ec_direction="reverse")
        out = run_session(cfg, noisy_strategy())
        assert out.completed
        if out.plus.ec_success:
            assert out.plus.alice_key == out.plus.bob_key
        rerun = run_session(cfg, noisy_strategy())
        assert rerun.transcript == out.transcript

    def test_reverse_sacrifice_uses_dark_credit(self):
        # With p0 well above p_D the reverse rule credits less, so it
        # sacrifices at least as much as the forward rule on the same data.
        strat = ChannelStrategy(p_dark=0.002, q_vacuum=0.05, q_single=0.6,
                                q_multi_times=0.7, q_multi_plus=0.7,
                                single_error_plus=(0.95, 0.0, 0.05, 0.0),
                                single_error_times=(0.95, 0.0, 0.05, 0.0))
        nu = SourceDistribution(0.3, 0.7)
        common = dict(n=16, n_bar=16, n_under=1, n_prime=6000, nus=(nu,),
                      i0=1, p_bar=(0.2, 0.4, 0.4), rng_seed=9)
        fwd = run_session(SessionConfig(**common, ec_direction="forward"),
                          strat)
        rev = run_session(SessionConfig(**common, ec_direction="reverse"),
                          strat)
        assert fwd.completed and rev.completed
        assert rev.plus.m >= fwd.plus.m


class TestDeterminism:
    def test_identical_seed_identical_transcript(self):
        cfg = single_photon_config(rng_seed=123)
        a = run_session(cfg, ChannelStrategy())
        b = run_session(cfg, ChannelStrategy())
        assert a.transcript == b.transcript
        assert a.plus.alice_key == b.plus.alice_key
        assert a.times.alice_key == b.times.alice_key

    def test_noisy_session_deterministic(self):
        cfg = SessionConfig(n=16, n_bar=16, n_under=1, n_prime=4000,
                            nus=(SourceDistribution(0.05, 0.9, 0.05),), i0=1,
                            p_bar=(0.1, 0.45, 0.45), rng_seed=3)
        a = run_session(cfg, noisy_strategy())
        b = run_session(cfg, noisy_strategy())
        assert a.transcript == b.transcript
        assert a.status == b.status == "completed"
        assert a.keys_match() and b.keys_match()

    def test_different_seeds_differ(self):
        a = run_session(single_photon_config(rng_seed=1), ChannelStrategy())
        b = run_session(single_photon_config(rng_seed=2), ChannelStrategy())
        assert a.transcript != b.transcript


class TestAbortBranches:
    def test_step4_no_detection(self):
        dead = ChannelStrategy(q_single=0.0)
        out = run_session(single_photon_config(), dead)
        assert out.status == "aborted" and out.abort_step == 4

    def test_step4_not_enough_common(self):
        # Detections exist but N' is barely above N: E_i0 <= N.
        cfg = single_photon_config(n_prime=140)
        out = run_session(cfg, ChannelStrategy())
        assert out.status == "aborted" and out.abort_step == 4

    def test_step6_sacrifice_eats_key(self):
        cfg = single_photon_config(m_rule="constant:60", n_under=8)
        out = run_session(cfg, ChannelStrategy())
        assert out.status == "aborted" and out.abort_step == 6
        assert "N_under" in out.abort_reason

    def test_step6_high_error_rate(self):
        noisy = ChannelStrategy(single_error_plus=(0.55, 0.0, 0.45, 0.0),
                                single_error_times=(0.55, 0.0, 0.45, 0.0))
        cfg = single_photon_config(n_under=30, m_rule="constant:0")
        out = run_session(cfg, noisy)
        assert out.status == "aborted" and out.abort_step == 6

    def test_every_abort_tagged(self):
        out = run_session(single_photon_config(n_prime=140),
                          ChannelStrategy())
        assert out.status == "aborted"
        assert out.abort_step in (4, 6) and out.abort_reason


class TestClampBranch:
    def test_max_key_size_clamp(self):
        cfg = single_photon_config(n_bar=32, n_under=8, m_rule="constant:0")
        out = run_session(cfg, ChannelStrategy())
        assert out.completed
        assert out.plus.m_clamped and out.plus.length == 32
        assert out.times.m_clamped and out.times.length == 32
        # m was replaced by N eta - N_bar
        assert out.plus.m == out.plus.lm - 32


class TestErrorCorrection:
    def _repetition(self):
        return matrix_from_rows([[1], [1], [1]])

    def _correct(self, x_send, x_recv, m_e, rng):
        """error_correct, checking that the announced word is M_e z + x_send."""
        z, masked, z_hat = error_correct(x_send, x_recv, m_e, rng)
        assert masked == mat_vec_mul(m_e, z) ^ x_send
        return z, z_hat

    def test_identity_channel(self):
        rng = np.random.default_rng(0)
        m_e = self._repetition()
        x = BitVector.from_bits([1, 1, 1])
        z, z_hat = self._correct(x, x, m_e, rng)
        assert z_hat == z

    def test_single_flip_corrected(self):
        rng = np.random.default_rng(1)
        m_e = self._repetition()
        x_a = BitVector.from_bits([1, 0, 1])
        x_b = BitVector.from_bits([1, 1, 1])  # one flipped bit
        z, z_hat = self._correct(x_a, x_b, m_e, rng)
        assert z_hat == z

    def test_failure_rate_matches_enumeration(self):
        # Repetition code corrects weight <= 1; exactly 4 of 8 patterns.
        m_e = self._repetition()
        successes = 0
        for e in range(8):
            rng = np.random.default_rng(10)
            x_a = BitVector.from_bits([1, 0, 1])
            x_b = BitVector(3, x_a.bits ^ e)
            z, z_hat = self._correct(x_a, x_b, m_e, rng)
            successes += z_hat == z
        assert successes == 4

    def test_reverse_mirrors_forward(self):
        # Reverse EC: Bob sends, Alice decodes; the same seed comes back.
        m_e = self._repetition()
        x_a = BitVector.from_bits([0, 1, 0])
        x_b = BitVector.from_bits([0, 1, 1])
        z_b, z_a = self._correct(x_b, x_a, m_e, np.random.default_rng(2))
        assert z_a == z_b
        assert (z_a, z_b) == self._correct(x_a, x_b, m_e, np.random.default_rng(2))

    def test_reverse_identity(self):
        m_e = self._repetition()
        x = BitVector.from_bits([1, 1, 0])
        z_b, z_a = self._correct(x, x, m_e, np.random.default_rng(3))
        assert z_a == z_b

    def test_decode_to_seed_matches_min_distance_decode(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 11))
            lm = int(rng.integers(1, min(n, 6) + 1))
            m_e = random_full_rank_matrix(rng, n, lm)
            code = [mat_vec_mul(m_e, BitVector(lm, z)) for z in range(1 << lm)]
            for y in rng.integers(0, 1 << n, size=16).tolist():
                received = BitVector(n, y)
                want = min_distance_decode(received, code)
                assert mat_vec_mul(m_e, decode_to_seed(m_e, received)) == want


def scan_decode(m_e, received):
    """The exhaustive decode: the nearest of all 2^lm words M_e z, by index z."""
    words = span_array(m_e.transpose().row_bits)
    return BitVector(m_e.cols, kernels.nearest_index(words, received.bits, m_e.rows))


class TestCosetDecode:
    """decode_to_seed walks error patterns by weight under the parity checks
    of Im M_e, and enumerates the code only once that walk outgrows it."""

    def _record(self, monkeypatch):
        calls = []
        for name in ("least_weight_errors", "nearest_index"):
            def wrapper(*args, _f=getattr(kernels, name), _name=name):
                out = _f(*args)
                calls.append((_name, out, args))
                return out
            monkeypatch.setattr(kernels, name, wrapper)
        return calls

    def test_matches_min_distance_decode(self, monkeypatch):
        calls = self._record(monkeypatch)
        rng = np.random.default_rng(5)
        scans = ties = 0
        for trial in range(60):
            n = int(rng.integers(2, 25))
            lm = int(rng.integers(1, min(n, 9) + 1))
            m_e = random_full_rank_matrix(rng, n, lm)
            code = [mat_vec_mul(m_e, BitVector(lm, z)) for z in range(1 << lm)]
            ys = rng.integers(0, 1 << n, size=4).tolist() + [code[trial % len(code)].bits]
            for y in ys:
                received = BitVector(n, y)
                calls.clear()
                z = decode_to_seed(m_e, received)
                assert mat_vec_mul(m_e, z) == min_distance_decode(received, code)
                assert z == scan_decode(m_e, received)
                walks = [out for name, out, _ in calls if name == "least_weight_errors"]
                scans += any(out is None for out in walks)
                ties += any(out is not None and len(out) > 1 for out in walks)
        # Some walks outgrew their code and fell back to the scan; some ended
        # on several nearest codewords.
        assert scans > 10 and ties > 10

    def _count_reductions(self, monkeypatch):
        reductions = []

        def counting(*args, _f=gf2._reduce):
            reductions.append(args)
            return _f(*args)
        monkeypatch.setattr(gf2, "_reduce", counting)
        return reductions

    def test_weight_zero_is_the_exact_preimage(self, monkeypatch):
        calls = self._record(monkeypatch)
        reductions = self._count_reductions(monkeypatch)
        m_e = matrix_from_rows([[1, 0], [0, 1], [1, 1], [1, 0]])
        z = BitVector(2, 0b10)
        assert decode_to_seed(m_e, mat_vec_mul(m_e, z)) == z
        assert calls == [] and len(reductions) == 1

    def test_every_decode_reduces_m_e_once(self, monkeypatch):
        # One reduction of (M_e | I) gives the syndrome, and the seed of the
        # chosen codeword, whether the word is exact (syndrome 0) or the walk
        # or the scan finds that codeword.
        rng = np.random.default_rng(12)
        m_e = random_full_rank_matrix(rng, 12, 6)
        code = {mat_vec_mul(m_e, BitVector(6, z)).bits for z in range(1 << 6)}
        calls = self._record(monkeypatch)
        reductions = self._count_reductions(monkeypatch)
        paths = set()
        for y in rng.integers(0, 1 << 12, size=40).tolist() + sorted(code)[:4]:
            received = BitVector(12, y)
            calls.clear()
            reductions.clear()
            z = decode_to_seed(m_e, received)
            assert z == scan_decode(m_e, received)
            walks = [out is None for name, out, _ in calls if name == "least_weight_errors"]
            paths.add("exact" if y in code else "scan" if walks == [True] else "walk")
            assert len(reductions) == 1 and len(reductions[0][0]) == 12
        assert paths == {"exact", "walk", "scan"}

    def test_exact_words_skip_the_guard(self, monkeypatch):
        # Rank-deficient M_e too: a word of the code returns its preimage
        # with free unknowns 0, as solve does, before the guard and before
        # any kernel.
        calls = self._record(monkeypatch)
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 16))
            lm = int(rng.integers(1, min(n, 8) + 1))
            m_e = matrix_from_rows(rng.integers(0, 2, size=(n, lm)).tolist())
            word = mat_vec_mul(m_e, BitVector(lm, int(rng.integers(0, 1 << lm))))
            assert decode_to_seed(m_e, word, guard=1) == solve(m_e, word)
        assert calls == []

    def test_length_mismatch_rejected(self):
        m_e = matrix_from_rows([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(DimensionMismatch, match="matrix rows 3 != vector length 4"):
            decode_to_seed(m_e, BitVector(4, 0b0111))

    def test_ties_go_to_the_lex_smallest_codeword(self, monkeypatch):
        # The even-weight code of length 5: a word of weight 1 (coordinate
        # 4) lies at distance 1 from five codewords, and 00000 is the
        # lex-smallest of them.
        calls = self._record(monkeypatch)
        m_e = matrix_from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                                   [1, 1, 1, 1]])
        assert decode_to_seed(m_e, BitVector(5, 1 << 4)) == BitVector(4, 0)
        errors = [out for name, out, _ in calls if name == "least_weight_errors"]
        assert len(errors) == 1 and len(errors[0]) == 5

    def test_random_matrices_match_the_scan(self):
        # Rank-deficient M_e too: the exact preimage (free unknowns 0) is the
        # least index z of the chosen codeword, as in the scan.
        rng = np.random.default_rng(6)
        for _ in range(150):
            n = int(rng.integers(2, 25))
            lm = int(rng.integers(1, min(n, 10) + 1))
            m_e = matrix_from_rows(rng.integers(0, 2, size=(n, lm)).tolist())
            received = BitVector(n, int(rng.integers(0, 1 << n)))
            assert decode_to_seed(m_e, received) == scan_decode(m_e, received)

    def test_capacity_error_as_before(self):
        """The guard rule: a word off the code raises only once the walk's
        ball and the 2^lm codewords both pass ``decode_guard``; a word of
        the code never does.  N = 12 and weight 1 make a ball of 13."""
        rng = np.random.default_rng(7)
        m_e = random_full_rank_matrix(rng, 12, 6)
        codeword = mat_vec_mul(m_e, BitVector(6, 0b101101))
        noisy = codeword ^ BitVector(12, 1)
        for guard in range(1, 13):
            assert decode_to_seed(m_e, codeword, guard) == BitVector(6, 0b101101)
            with pytest.raises(CapacityError) as info:
                decode_to_seed(m_e, noisy, guard)
            assert str(info.value) == ("EC decode walk stopped at weight 1: its ball of 13 "
                                       f"patterns and the 2^6 codewords both exceed guard {guard}")
        for guard in (*range(13, 66), 1 << 20):
            assert decode_to_seed(m_e, noisy, guard) == scan_decode(m_e, noisy)

    def test_walk_under_a_guard_below_the_code(self):
        # N = 20, lm = 12 and guard 256 < 2^12: the ball reaches 211
        # patterns at weight 2 and 1,351 at weight 3, so a word within
        # distance 2 of the code decodes as the brute force does, and any
        # farther word raises.
        rng = np.random.default_rng(20)
        outcomes = set()
        for _ in range(4):
            m_e = random_full_rank_matrix(rng, 20, 12)
            code = [mat_vec_mul(m_e, BitVector(12, z)) for z in range(1 << 12)]
            for y in rng.integers(0, 1 << 20, size=12).tolist():
                received = BitVector(20, y)
                nearest = min_distance_decode(received, code)
                if (nearest ^ received).bits.bit_count() <= 2:
                    assert mat_vec_mul(m_e, decode_to_seed(m_e, received, 256)) == nearest
                    outcomes.add("decoded")
                else:
                    with pytest.raises(CapacityError, match="weight 3: its ball of 1351 "):
                        decode_to_seed(m_e, received, 256)
                    outcomes.add("raised")
        assert outcomes == {"decoded", "raised"}

    def test_code_longer_than_64_bits_fails_cleanly(self):
        # The walk and the scan pack words into uint64; a word of the code
        # needs neither and still decodes.
        rng = np.random.default_rng(65)
        m_e = random_full_rank_matrix(rng, 65, 6)
        codeword = mat_vec_mul(m_e, BitVector(6, 0b100111))
        assert decode_to_seed(m_e, codeword) == BitVector(6, 0b100111)
        with pytest.raises(CapacityError, match="code length N=65 exceeds the 64-bit"):
            decode_to_seed(m_e, codeword ^ BitVector(65, 1 << 64))

    def test_far_word_falls_back_within_twice_the_scan_memory(self, monkeypatch):
        # N = 64, lm = 20: the ball reaches C(64, <= 4) = 679,121 patterns,
        # weight 5 would pass 2^20, and the received word lies farther out.
        ball = [sum(math.comb(64, w) for w in range(top + 1)) for top in (4, 5)]
        assert ball[0] <= 1 << 20 < ball[1]
        rng = np.random.default_rng(64)
        m_e = random_full_rank_matrix(rng, 64, 20)
        received = BitVector(64, int(rng.integers(0, 1 << 63)) << 1 | 1)
        tracemalloc.start()
        try:
            want = scan_decode(m_e, received)
            scan_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            calls = self._record(monkeypatch)
            got = decode_to_seed(m_e, received)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert (mat_vec_mul(m_e, got) ^ received).bits.bit_count() >= 5
        assert [(name, out is None) for name, out, _ in calls] == \
            [("least_weight_errors", True), ("nearest_index", False)]
        assert len(calls[1][2][0]) == 1 << 20
        assert peak <= 2 * scan_peak


class TestExperimentData:
    def test_conservation(self):
        out = run_session(single_photon_config(), ChannelStrategy())
        d_i, d_e = out.initial, out.experiment
        assert sum(d_i.a) == out.config.n_prime
        assert all(c <= a for c, a in zip(d_e.c, d_i.a))
        assert all(e <= c for e, c in zip(d_e.e, d_e.c))

    def test_statistics_converge(self):
        # Counting rates per kind approach the strategy detection rates.
        strat = noisy_strategy()
        nu = SourceDistribution(0.05, 0.9, 0.05)
        cfg = SessionConfig(n=16, n_bar=16, n_under=1, n_prime=200_000,
                            nus=(nu,), i0=1, p_bar=(0.2, 0.4, 0.4),
                            rng_seed=11)
        out = run_session(cfg, strat)
        d_i, d_e = out.initial, out.experiment
        p_vac = strat.q_vacuum + strat.p_dark
        p_sig = (nu.v0 * (strat.q_vacuum + strat.p_dark)
                 + nu.v1 * (strat.q_single + strat.p_dark)
                 + nu.v2 * (strat.q_multi_times + strat.p_dark))
        for kind, p_true in ((0, p_vac), (1, p_sig), (2, p_sig)):
            a, c = d_i.a[kind], d_e.c[kind]
            sigma = math.sqrt(a * p_true * (1 - p_true))
            assert abs(c - a * p_true) < 5 * sigma
        # Sifting: common-basis counts are about half the detected counts.
        for kind in (1, 2):
            c, e = d_e.c[kind], d_e.e[kind]
            assert abs(e - c / 2) < 5 * math.sqrt(c * 0.25)
        # Check-bit error rate approaches the + basis single-photon rate
        # diluted by the other detected classes.
        n_check = d_e.e[2] - cfg.n
        assert abs(d_e.h[2] / n_check - out.plus.observed_error) < 1e-12
        x_single = strat.single_error_plus[2] + strat.single_error_plus[3]
        err_true = (nu.v0 * (strat.q_vacuum + strat.p_dark) * 0.5
                    + nu.v1 * (strat.q_single * x_single + strat.p_dark * 0.5)
                    + nu.v2 * (strat.q_multi_plus * strat.multi_flip_plus
                               + strat.p_dark * 0.5)) / p_sig
        sigma = math.sqrt(err_true * (1 - err_true) / n_check)
        assert abs(d_e.h[2] / n_check - err_true) < 5 * sigma

    def test_keys_equal_whenever_ec_succeeds(self):
        # Marginal noise regime: error correction sometimes fails, but
        # whenever the success flag is set the final keys must agree.
        strat = ChannelStrategy(single_error_plus=(0.85, 0.0, 0.15, 0.0),
                                single_error_times=(0.85, 0.0, 0.15, 0.0))
        successes = failures = 0
        for seed in range(25):
            cfg = SessionConfig(n=12, n_bar=12, n_under=1, n_prime=600,
                                nus=(SourceDistribution(0.0, 1.0),), i0=1,
                                p_bar=(0.1, 0.45, 0.45), rng_seed=seed,
                                m_rule="constant:2")
            out = run_session(cfg, strat)
            if not out.completed:
                continue
            for res in (out.plus, out.times):
                if res.ec_success:
                    successes += 1
                    assert res.alice_key == res.bob_key
                else:
                    failures += 1
        assert successes > 0 and failures > 0  # both branches exercised


# The session file of single_photon_config(), which carries no rng_seed.
SINGLE_PHOTON_TEXT = """\
n = 64
n_bar = 64
n_under = 8
n_prime = 512
nus = [[0.0, 1.0, 0.0]]
i0 = 1
p_bar = [0.1, 0.45, 0.45]
"""


def load_session(text):
    return load_input("session", parse_key_values(text))


class TestConfigFiles:
    def test_round_trip(self):
        cfg = single_photon_config(m_rule="constant:4", margin_bits=2)
        text = "".join(
            f"{key} = {json.dumps(getattr(cfg, key), default=astuple)}\n"
            for key in input_keys("session")[0])
        # Session files carry no seed: rng_seed comes back at its default.
        assert load_session(text) == replace(cfg, rng_seed=SessionConfig.rng_seed)
        assert cfg.rng_seed != SessionConfig.rng_seed

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            load_session("zzz = 3\n")

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            single_photon_config(p_bar=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            single_photon_config(i0=2)
        with pytest.raises(ValueError):
            single_photon_config(n_prime=64)
        with pytest.raises(ValueError):
            single_photon_config(n_under=65)

    @pytest.mark.parametrize("name", ["n", "n_bar", "n_under", "n_prime", "i0",
                                      "margin_bits", "decode_guard"])
    @pytest.mark.parametrize("value", [1.0, True], ids=["float", "bool"])
    def test_counts_must_be_integers(self, name, value):
        # Checked before the ranges: a float i0 would index the counts.
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            single_photon_config(**{name: value})

    @pytest.mark.parametrize("line", [
        "p_bar = [NaN, 0.45, 0.45]",
        "p_bar = [-0.1, 0.55, 0.55]",
        "nus = [[NaN, 0.8, 0.2]]",
        "nus = [[0.2, 0.8, NaN]]",
        "p_s = NaN",
        "p_s_tilde = 1.5",
    ])
    def test_nan_rejected(self, line):
        # The bad line replaces the base config's line for the same key.
        base = load_session(SINGLE_PHOTON_TEXT)
        assert base == single_photon_config(rng_seed=SessionConfig.rng_seed)
        key = line.split(" = ")[0]
        text = "".join(l + "\n" for l in SINGLE_PHOTON_TEXT.splitlines()
                       if not l.startswith(key + " = "))
        with pytest.raises(ValueError, match="outside|must be"):
            load_session(text + line + "\n")

    @pytest.mark.parametrize("name", ["p_s", "p_s_tilde"])
    @pytest.mark.parametrize("value", [0.5, 0.6])
    def test_detector_error_half_rejected(self, name, value):
        # No detector correction exists at p_S >= 1/2; every session's
        # estimator would fail, so the config does.
        with pytest.raises(ValueError, match=rf"^{name}={value} must be below 1/2$"):
            single_photon_config(**{name: value})
        single_photon_config(**{name: 0.49})

    def test_constant_rule_parsing(self):
        cfg = single_photon_config(m_rule="constant:12")
        out = run_session(cfg, ChannelStrategy())
        assert out.completed and out.plus.m == 12
        # A negative K would sacrifice no bits at all.
        with pytest.raises(ValueError, match=r"^m_rule 'constant:-3' needs K >= 0$"):
            single_photon_config(m_rule="constant:-3")


def inline_m_rule(cfg, d_init, d_e, basis, lm):
    """The initial-Eve-information rule written out in full: the estimator
    chosen by nu2 == 0, the (0, 1) fallback for infeasible observations, and
    both credits inline.  Returns (m, whether the fallback was taken)."""
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
    fell_back = False
    try:
        if nu.v2 == 0.0:
            q1, r1, _ = estimate_vacuum_single(nu, obs)
        else:
            interval = estimate_interval_symmetric(nu, obs)
            q1, r1 = interval.q1_min, interval.r1_max
    except InfeasibleObservation:
        q1, r1 = 0.0, 1.0
        fell_back = True
    photon = nu.v1 * q1 * (1.0 - hbar(r1)) / p_key
    if cfg.ec_direction == "forward":
        credit = nu.v0 * p0_hat / p_key
    else:
        credit = d_init.p_dark / p_key
    m_est = cfg.n * (1.0 - photon - credit)
    return max(0, min(lm, math.ceil(m_est) + cfg.margin_bits)), fell_back


class TestInitialEveInfoRule:
    def test_only_infeasible_observations_fall_back(self, monkeypatch):
        # An infeasible observation gives the conservative (q1, r1) = (0, 1);
        # any other exception from the estimator is a fault and propagates.
        def planted(exc):
            def estimator(nu, obs):
                raise exc
            return estimator

        cfg = single_photon_config()
        monkeypatch.setattr(protocol_mod, "minimize_key_term",
                            planted(InfeasibleObservation("planted")))
        out = run_session(cfg, ChannelStrategy())
        # m = lm leaves no key: the session stops at step 6.
        assert out.abort_step == 6 and "N eta - m = 0 <" in out.abort_reason
        monkeypatch.setattr(protocol_mod, "minimize_key_term", planted(KeyError("planted")))
        with pytest.raises(KeyError, match="planted"):
            run_session(cfg, ChannelStrategy())

    def test_matches_inline_rule(self):
        # Random data in the shape a session produces; n up to 10^6 so that
        # the ceiling does not hide a difference in the last bits of m_est.
        rng = np.random.default_rng(2024)
        nus_options = [
            (SourceDistribution(0.3, 0.7),),
            (SourceDistribution(0.05, 0.75, 0.2),),
            (SourceDistribution(0.4, 0.5, 0.1), SourceDistribution(0.0, 1.0)),
        ]
        seen = set()
        for nus, direction, n in itertools.product(
                nus_options, ("forward", "reverse"), (16, 1000, 10 ** 6)):
            k = len(nus)
            cfg = SessionConfig(n=n, n_bar=n, n_under=1, n_prime=2 * n + 1,
                                nus=nus, i0=1, p_bar=(1.0 / (2 * k + 1),) * (2 * k + 1),
                                ec_direction=direction)
            for _ in range(60):
                a = rng.integers(0, 3 * n, size=2 * k + 1)
                c = rng.binomial(a, rng.uniform(0.0, 1.0, size=2 * k + 1))
                e = rng.binomial(c, 0.5 + 0.5 * rng.uniform(size=2 * k + 1))
                h = rng.binomial(np.maximum(e - n, 0), rng.uniform(0.0, 0.7, size=2 * k + 1))
                d_init = DInitial(tuple(a.tolist()), float(rng.choice([0.0, 1e-3, 0.05])))
                d_e = DExperimental(tuple(c.tolist()), tuple(e.tolist()), tuple(h.tolist()))
                margin = int(rng.integers(-3, 4))
                lm = int(rng.integers(0, n + 1)) if rng.random() < 0.3 else n
                rule_cfg = replace(cfg, margin_bits=margin)
                # Set past the config's own check, so that a rate of 1/2 or
                # more reaches the rule; plus reads p_S and times p~_S.
                rule_cfg.p_s, rule_cfg.p_s_tilde = (
                    float(v) for v in rng.choice([0.0, 0.02, 0.3, 0.5, 0.6], size=2))
                for basis in ("plus", "times"):
                    try:
                        want, fell_back = inline_m_rule(rule_cfg, d_init, d_e, basis, lm)
                    except ValueError:
                        # ObservedRates rejects p_S >= 1/2, which has no
                        # detector correction, before any fallback can hide it.
                        assert (rule_cfg.p_s if basis == "plus" else rule_cfg.p_s_tilde) >= 0.5
                        with pytest.raises(ValueError, match=r"^p_s=.* must be below 1/2$"):
                            initial_eve_info_m_rule(rule_cfg, d_init, d_e, basis, lm)
                        seen.add("raised")
                        continue
                    assert initial_eve_info_m_rule(rule_cfg, d_init, d_e, basis, lm) == want
                    seen.add((nus[0].v2 == 0.0, fell_back))
        assert seen == {(True, True), (True, False), (False, True), (False, False), "raised"}


README = Path(__file__).resolve().parents[1] / "README.md"

# What each placeholder of the README's transcript grammar matches.
GRAMMAR_FIELDS = {
    "ints": r"\d+(?:,\d+)*", "bits": r"(?:[0-9a-f]{2})*", "tag": r"[x+]",
    "kind": r"\d+", "count": r"\d+", "basis": "plus|times", "ec": "7|9", "pa": "8|10",
    "sender": "alice|bob", "code": "[0-9a-f]{16}", "word": "0|[1-9a-f][0-9a-f]*",
    "abort": "4|6", "reason": ".+",
}


def readme_grammar() -> dict:
    """Each line shape of the README's transcript grammar block, as a regex."""
    section = README.read_text().split("### Transcript grammar\n", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    return {shape: re.compile("".join(
        f"(?:{GRAMMAR_FIELDS[part[1:-1]]})" if part.startswith("<") else re.escape(part)
        for part in re.split(r"(<[a-z]+>)", shape)))
        for shape in block.splitlines()}


class TestTranscriptAndReport:
    def test_transcript_grammar(self):
        # Every line of the pinned sessions, of a step-4 abort, a clamp and
        # a reverse EC has exactly one README shape, and every shape occurs.
        runs = [(single_photon_config(), ChannelStrategy())]
        runs += [(desk_config(seed), DESK_STRATEGY) for seed in PINNED_DESK_SESSIONS]
        runs += [(eleven_kind_config(seed), DESK_STRATEGY)
                 for seed in PINNED_ELEVEN_KIND_SESSIONS]
        runs += [(EDGE_CASES[case][0](seed), EDGE_CASES[case][1])
                 for case, seed in PINNED_EDGE_SESSIONS]
        runs += [(replace(desk_config(0), **change), DESK_STRATEGY)
                 for change in ({"n_prime": 60}, {"n_bar": 4}, {"ec_direction": "reverse"})]
        shapes = readme_grammar()
        seen, session_steps = set(), []
        for cfg, strategy in runs:
            transcript = run_session(cfg, strategy).transcript
            for line in transcript:
                matched = [shape for shape, regex in shapes.items() if regex.fullmatch(line)]
                assert len(matched) == 1, (line, matched)
                seen.update(matched)
            session_steps.append([int(line.split(" ", 1)[0]) for line in transcript])
        assert seen == set(shapes)
        assert all(steps == sorted(steps) for steps in session_steps)  # protocol order
        assert set(session_steps[0]) >= {2, 3, 4, 6, 7, 8, 9, 10}

    def test_transcript_announces_what_it_counts(self):
        # Each step-5 H[k] is the Hamming distance between the two announced
        # bit strings of kind k, and each step-4 bit string holds one bit per
        # announced check position, zero-padded to whole bytes.
        configs = ([desk_config(seed) for seed in PINNED_DESK_SESSIONS]
                   + [eleven_kind_config(seed) for seed in PINNED_ELEVEN_KIND_SESSIONS])
        pairs = checks = 0
        for cfg in configs:
            alice, positions = {}, {}
            for line in run_session(cfg, DESK_STRATEGY).transcript:
                if m := re.fullmatch(r"5 alice bits kind=(\d+) ([0-9a-f]*)", line):
                    alice[m[1]] = m[2]
                elif m := re.fullmatch(r"5 bob bits kind=(\d+) ([0-9a-f]*) H\[\1\]=(\d+)", line):
                    sent, got = alice.pop(m[1]), m[2]
                    assert len(sent) == len(got)
                    assert int(m[3]) == (int(sent or "0", 16) ^ int(got or "0", 16)).bit_count()
                    pairs += bool(sent)
                elif m := re.fullmatch(r"4 alice check-(.) positions ([0-9,]+)", line):
                    positions[m[1]] = len(m[2].split(","))
                elif m := re.fullmatch(r"4 alice check-(.) bits ([0-9a-f]+)", line):
                    n_bits = positions.pop(m[1])
                    pad = -n_bits % 8
                    assert len(m[2]) == (n_bits + pad) // 4
                    assert int(m[2], 16) & ((1 << pad) - 1) == 0
                    checks += 1
            assert alice == positions == {}
        assert (pairs, checks) == (32, 40)

    def test_truth_bounds_attached(self):
        out = run_session(single_photon_config(), ChannelStrategy())
        entry = _session_entry(out)
        for name in ("plus", "times"):
            rep = entry[name]
            assert 0.0 < rep["truth_phase_error_bound"] <= 1.0
            assert rep["truth_phase_error_bound"] <= \
                rep["truth_twoway_bound"] + 1e-15
            assert rep["length_within_window"]


class TestPhaseTruth:
    def test_forced_phase_flips_counted(self):
        strat = ChannelStrategy(single_error_plus=(0.0, 1.0, 0.0, 0.0),
                                single_error_times=(0.0, 1.0, 0.0, 0.0))
        out = run_session(single_photon_config(), strat)
        assert out.completed  # phase flips are invisible to bit errors
        assert out.truth["plus"].t == out.truth["plus"].j1
        assert out.truth["times"].t == out.truth["times"].j1


# ----------------------------------------------------------------------
# Byte-for-byte session pins.  Each seed's fingerprint is the first 16 hex
# digits of sha256("\n".join(transcript)), the status, then
# "alice/bob" keys ("length:hex") of the plus and times bases.

DESK_STRATEGY = ChannelStrategy(
    p_dark=0.001, q_vacuum=0.001, q_single=0.6,
    q_multi_times=0.7, q_multi_plus=0.7,
    single_error_times=(0.9, 0.03, 0.04, 0.03),
    single_error_plus=(0.9, 0.03, 0.04, 0.03),
    multi_flip_times=0.05, multi_flip_plus=0.05)


def desk_config(rng_seed):
    return SessionConfig(n=24, n_bar=24, n_under=2, n_prime=4000,
                         nus=(SourceDistribution(0.0, 1.0, 0.0),), i0=1,
                         p_bar=(0.1, 0.45, 0.45), rng_seed=rng_seed)


def eleven_kind_config(rng_seed):
    # k = 5, so the step-2 kinds text carries two-digit kinds 10 and above.
    nus = (SourceDistribution(0.0, 1.0, 0.0), SourceDistribution(0.6, 0.3, 0.1),
           SourceDistribution(0.8, 0.18, 0.02), SourceDistribution(0.4, 0.4, 0.2),
           SourceDistribution(0.9, 0.1, 0.0))
    return SessionConfig(n=24, n_bar=24, n_under=2, n_prime=12000, nus=nus, i0=1,
                         p_bar=(0.04, 0.4) + (0.02,) * 4 + (0.4,) + (0.02,) * 4,
                         rng_seed=rng_seed)


def session_fingerprint(out) -> str:
    def key(v):
        return "-" if v is None else f"{v.length}:{v.bits:x}"

    digest = hashlib.sha256("\n".join(out.transcript).encode()).hexdigest()[:16]
    parts = [digest, out.status]
    for res in (out.plus, out.times):
        parts.append("-" if res is None else f"{key(res.alice_key)}/{key(res.bob_key)}")
    return " ".join(parts)


PINNED_DESK_SESSIONS = {
    0: 'd7a1c93261e9fbe0 completed 6:3/6:3 6:2b/6:2b',
    1: '6e061021414ba794 completed 4:d/4:d 4:8/4:8',
    2: '04fee4499a30df3c completed 6:23/6:23 6:2d/6:3e',
    3: '82da755add6e4a87 completed 4:6/4:6 4:9/4:9',
    4: '50542aec10c5d6ca completed 5:8/5:8 7:28/7:28',
    5: '1bdac8f520e50219 completed 3:4/3:4 3:5/3:0',
    6: '106e08234bb95ae9 completed 5:7/5:7 5:19/5:1a',
    7: '77539e1b7512cb32 completed 6:33/6:33 5:5/5:5',
    8: '6c941a33a20155ed completed 7:44/7:44 5:8/5:14',
    9: '205400cc802f2ca4 completed 7:6e/7:1c 7:0/7:1c',
    10: '8545f271802f94af completed 5:13/5:2 6:27/6:27',
    11: 'd75fc05acf924fc2 completed 7:c/7:c 5:d/5:d',
    12: '73af8ae5b4ee5c4b completed 5:c/5:7 5:a/5:5',
    13: 'c54bcda180ac76f4 completed 6:6/6:21 4:6/4:6',
    14: '8a8acef90c6a8b7f completed 6:39/6:38 5:1d/5:1d',
    15: '86112d967f2c1282 completed 5:18/5:18 7:31/7:31',
}

PINNED_ELEVEN_KIND_SESSIONS = {
    0: '92d958dff676c262 completed 6:2c/6:2c 5:3/5:3',
    1: '972200019d9c1816 completed 7:6b/7:6b 6:33/6:24',
    2: '23d51325ff21e931 completed 6:13/6:13 6:24/6:24',
    3: '58a3942317792300 completed 4:f/4:f 4:1/4:1',
}


# Each edge config but the last leaves some draw group empty.  The two
# without detected single photons use a constant m rule so that steps 7-10
# run: the default rule, with no single-photon yield to estimate, aborts at
# step 6.  The last aborts at step 6 on the times basis, after the plus
# sizes are decided.

def all_multi_config(rng_seed):
    # SourceDistribution refuses v1 = 0 (the estimators need single photons);
    # the simulator reads only v0, v1 and v2.  No single-photon flip draws.
    return replace(desk_config(rng_seed), m_rule="constant:2",
                   nus=(SimpleNamespace(v0=0.0, v1=0.0, v2=1.0),))


def zero_kind_config(rng_seed):
    # k = 2 with kinds 2 and 4 (the second source) at probability 0.
    return replace(desk_config(rng_seed),
                   nus=(SourceDistribution(0.0, 1.0, 0.0), SourceDistribution(0.5, 0.3, 0.2)),
                   p_bar=(0.1, 0.45, 0.0, 0.45, 0.0))


def no_single_config(rng_seed):
    # Run with q_single = 0, so no single photon is a normal count.
    return replace(desk_config(rng_seed), m_rule="constant:2",
                   nus=(SourceDistribution(0.2, 0.5, 0.3),))


def strict_config(rng_seed):
    # N_under = 8: these seeds decide the plus sizes, then abort at step 6
    # on the times basis.
    return replace(desk_config(rng_seed), n_under=8)


EDGE_CASES = {
    "all-multi": (all_multi_config, DESK_STRATEGY),
    "zero-kind": (zero_kind_config, DESK_STRATEGY),
    "no-single": (no_single_config, replace(DESK_STRATEGY, q_single=0.0)),
    "times-abort": (strict_config, DESK_STRATEGY),
}

PINNED_EDGE_SESSIONS = {
    ("all-multi", 0): 'ced96bf511f36f2f completed 14:3d28/14:3d28 17:16145/17:16145',
    ("all-multi", 1): '2c2bff656d6f73e0 completed 15:5192/15:6bee 15:7071/15:174c',
    ("all-multi", 2): 'b76c6bcb3c221461 completed 15:7e77/15:47d2 14:d46/14:d46',
    ("zero-kind", 0): '736fee5bdfb70ccb completed 6:3/6:3 6:2b/6:2b',
    ("zero-kind", 1): '8cd4f613d7e9e278 completed 4:d/4:d 4:8/4:8',
    ("zero-kind", 2): 'e20e17df2c7a76d8 completed 6:23/6:23 6:2d/6:3e',
    ("no-single", 0): '483ae636b718097a completed 15:163/15:163 11:1e3/11:1e3',
    ("no-single", 1): 'dd732e3e9155516e completed 11:44b/11:44b 15:4b71/15:4b71',
    ("no-single", 2): '990cbce255b7da40 completed 15:2417/15:3997 11:24e/11:24e',
    ("times-abort", 22): '6072c4867d829f20 aborted - -',
    ("times-abort", 29): 'a3a82b481677f9ef aborted - -',
}


class TestPinnedSessions:
    @pytest.mark.parametrize("seed", range(16))
    def test_desk_config(self, seed):
        out = run_session(desk_config(seed), DESK_STRATEGY)
        assert session_fingerprint(out) == PINNED_DESK_SESSIONS[seed]

    def test_session_renders_no_announcement(self, monkeypatch):
        # The log is rendered when read: a session whose transcript is never
        # read formats no field and digests no EC code, and reading it does.
        def refuse(*_):
            raise AssertionError("rendered")

        monkeypatch.setattr(protocol_mod, "_ints", refuse)
        monkeypatch.setattr(protocol_mod, "_hexbits", refuse)
        monkeypatch.setattr(protocol_mod._PAYLOAD, "format_field", refuse)
        monkeypatch.setattr(protocol_mod, "hashlib", SimpleNamespace(sha256=refuse))
        out = run_session(desk_config(0), DESK_STRATEGY)
        with pytest.raises(AssertionError, match="rendered"):
            out.transcript
        monkeypatch.undo()
        assert session_fingerprint(out) == PINNED_DESK_SESSIONS[0]

    def test_transcript_rendered_after_config_reused(self):
        # A later read sees the values of announce time: no loop variable of
        # the session and no field of the config, which simulate mutates
        # between trials.
        cfg = desk_config(0)
        first = run_session(cfg, DESK_STRATEGY)
        cfg.rng_seed = 1
        second = run_session(cfg, DESK_STRATEGY)
        assert session_fingerprint(first) == PINNED_DESK_SESSIONS[0]
        assert first.transcript == first.transcript
        assert session_fingerprint(second) == PINNED_DESK_SESSIONS[1]

    def test_announcements_out_of_repr_and_eq(self):
        # They hold arrays and template strings, and the formatter is not
        # stored on the outcome, so an outcome still pickles.
        a, b = (run_session(desk_config(0), DESK_STRATEGY) for _ in range(2))
        assert a == b and repr(a) == repr(b)
        assert "announcements" not in repr(a)
        assert pickle.loads(pickle.dumps(a)).transcript == a.transcript

    @pytest.mark.parametrize("seed", range(4))
    def test_eleven_kinds(self, seed):
        out = run_session(eleven_kind_config(seed), DESK_STRATEGY)
        assert out.completed
        kinds = out.transcript[0].split(" ", 3)[3].split(",")
        assert "10" in kinds
        assert session_fingerprint(out) == PINNED_ELEVEN_KIND_SESSIONS[seed]

    @pytest.mark.parametrize("case, seed", sorted(PINNED_EDGE_SESSIONS))
    def test_empty_draw_groups(self, case, seed):
        make_config, strategy = EDGE_CASES[case]
        out = run_session(make_config(seed), strategy)
        assert session_fingerprint(out) == PINNED_EDGE_SESSIONS[case, seed]

    def test_step6_abort_on_times(self):
        out = run_session(strict_config(22), DESK_STRATEGY)
        assert (out.abort_step, out.plus, out.times) == (6, None, None)
        assert out.transcript[-2:] == ("6 both plus lm=16 m=8 l=8",
                                       "6 both abort times: N eta - m = 7 < N_under=8")

    def test_decide_sizes_replays_step_6(self):
        # Step 6 from the outcome's public fields alone, with the config's
        # private fields changed: every pinned session decides the same
        # sizes, or aborts for the same reason after the same bases.
        assert list(inspect.signature(decide_sizes).parameters) == ["cfg", "d_init", "d_exp"]
        sessions = ([(desk_config(seed), DESK_STRATEGY) for seed in PINNED_DESK_SESSIONS]
                    + [(eleven_kind_config(seed), DESK_STRATEGY)
                       for seed in PINNED_ELEVEN_KIND_SESSIONS]
                    + [(EDGE_CASES[case][0](seed), EDGE_CASES[case][1])
                       for case, seed in PINNED_EDGE_SESSIONS])
        aborts = 0
        for cfg, strategy in sessions:
            out = run_session(cfg, strategy)
            public = replace(out.config, rng_seed=out.config.rng_seed + 1, decode_guard=1)
            results, reason = decide_sizes(public, out.initial, out.experiment)
            sizes = [(r.observed_error, r.lm, r.m, r.length, r.m_clamped) for r in results]
            if out.completed:
                assert reason is None
                assert sizes == [(r.observed_error, r.lm, r.m, r.length, r.m_clamped)
                                 for r in (out.plus, out.times)]
            else:
                aborts += 1
                assert (out.abort_step, reason) == (6, out.abort_reason)
                decided = [line for line in out.transcript if line.startswith("6 both ")][:-1]
                assert decided == [f"6 both {name} lm={lm} m={m} l={length}"
                                   + (" clamped" if clamped else "")
                                   for name, (_, lm, m, length, clamped)
                                   in zip(("plus", "times"), sizes)]
        assert (len(sessions), aborts) == (31, 2)

    def test_decide_sizes_refuses_step_4_abort(self):
        # Seed 0 with N' = 60 aborts at step 4; its public data decide nothing.
        out = run_session(replace(desk_config(0), n_prime=60), DESK_STRATEGY)
        assert (out.abort_step, out.abort_reason) == (4, "E_i0=3 E_i0k=7 <= N=24")
        with pytest.raises(ValueError, match="^step 4 aborted: E_i0=3 E_i0k=7 <= N=24$"):
            decide_sizes(out.config, out.initial, out.experiment)

    def test_decide_sizes_refuses_e_equal_to_n(self):
        # E = N leaves no check bit to estimate the error rate from.
        out = run_session(desk_config(0), DESK_STRATEGY)
        e = list(out.experiment.e)
        e[1] = 24
        with pytest.raises(ValueError, match=f"E_i0=24 E_i0k={e[2]} <= N=24"):
            decide_sizes(out.config, out.initial, replace(out.experiment, e=tuple(e)))

    def test_public_decisions_replay_from_the_transcript(self):
        # The step-4 abort or the step-6 lines of each session, rebuilt from
        # its transcript, config and dark-count rate alone: desk sessions in
        # both EC directions, eleven kinds, every edge config, step-4 aborts
        # (N' = 60), clamps (N_bar = 4) and detector flip rates in both bases.
        flips = {"p_s": 0.02, "p_s_tilde": 0.1, "margin_bits": 2}
        cases = [("desk", desk_config, DESK_STRATEGY, range(16)),
                 ("eleven-kind", eleven_kind_config, DESK_STRATEGY, range(4))]
        cases += [(case, make, strategy, range(4)) for case, (make, strategy) in EDGE_CASES.items()]
        cases += [(str(change), lambda seed, change=change: replace(desk_config(seed), **change),
                   DESK_STRATEGY, range(8))
                  for change in ({"ec_direction": "reverse"}, {"n_prime": 60}, {"n_bar": 4}, flips)]
        seen = set()
        for case, make_config, strategy, seeds in cases:
            for seed in seeds:
                out = run_session(make_config(seed), strategy)
                decided = [line for line in out.transcript if line.startswith(("4 both", "6 both"))]
                assert replay_public_decisions(out.config, strategy.p_dark,
                                               out.transcript) == decided, (case, seed)
                seen.add(out.abort_step or any(line.endswith(" clamped") for line in decided))
        assert seen == {4, 6, False, True}  # both aborts, with and without a clamp

    def test_desk_decodes(self, monkeypatch):
        # Every EC decode of desk sessions 0..127 in both directions, as the
        # seeds "lm:z" in call order; most of them miss the exact preimage.
        decode = protocol_mod.decode_to_seed
        seeds = []

        def record(m_e, received, guard):
            z = decode(m_e, received, guard)
            seeds.append(f"{z.length}:{z.bits:x}")
            return z

        monkeypatch.setattr(protocol_mod, "decode_to_seed", record)
        for direction in ("forward", "reverse"):
            for seed in range(128):
                run_session(replace(desk_config(seed), ec_direction=direction), DESK_STRATEGY)
        digest = hashlib.sha256("\n".join(seeds).encode()).hexdigest()
        assert (len(seeds), digest) == PINNED_DESK_DECODES


PINNED_DESK_DECODES = (512, "d3d3591530fceee6463c5d7f26db4c691a792a3a1ae29269d90b6878212acf93")


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: random_full_rank_matrix(np.random.default_rng(0), 2, 3),
                 "need cols <= rows for an injective generator", id="generator-shape"),
    pytest.param(lambda: error_correct(BitVector(2, 0), BitVector(3, 0),
                                       gf2.BitMatrix(3, 1, (1, 0, 0)), np.random.default_rng(0)),
                 "raw keys must match the code length", id="raw-key-length"),
])
def test_validation_raises(call, message):
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        call()
