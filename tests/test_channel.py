"""Pulse classification, the array channel samplers, and the strategy file format."""

import copy
import json
import math

import numpy as np
import pytest

import oracles
from decoybb84.channel import (DARK, MULTI, NORMAL, PLUS, SINGLE, TIMES, UNDETECTED,
                               VACUUM, ChannelStrategy, apply_bit_errors, categorical, classify,
                               group_uniforms, sample_detection, sample_flips, uniform_mask)
from decoybb84.cli import input_keys, load_input, parse_key_values
from decoybb84.errors import DimensionMismatch


def load_strategy(text):
    return load_input("strategy", parse_key_values(text))


def pulses(n, cls=SINGLE, det=NORMAL, basis=PLUS):
    """(cls, det, basis) arrays of ``n`` identical pulses."""
    return tuple(np.full(n, v, dtype=np.int8) for v in (cls, det, basis))


def labels(cls, det):
    """One classification code per pulse."""
    return np.asarray(cls, dtype=np.int8) + 3 * np.asarray(det, dtype=np.int8)


def parts(cls, det):
    """K and J parts of pulses without phase flips."""
    return classify(labels(cls, det), np.zeros(len(cls), dtype=np.int8))


def singles(n, law_plus, law_times=(1.0, 0.0, 0.0, 0.0), seed=0, basis=PLUS):
    """Flips of ``n`` normal-count single photons under the given laws."""
    cls, det, bases = pulses(n, basis=basis)
    strat = ChannelStrategy(single_error_plus=law_plus, single_error_times=law_times)
    x, z = sample_flips(strat, cls, det, bases, np.random.default_rng(seed))
    return labels(cls, det), x, z


def chi_square_critical(df, alpha=1e-4):
    """Wilson-Hilferty approximation of the chi-square quantile."""
    z = 3.719  # standard normal quantile for 1 - 1e-4
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


FUZZ_STRATEGY = ChannelStrategy(p_dark=0.05, q_vacuum=0.1, q_single=0.7,
                                q_multi_times=0.8, q_multi_plus=0.9,
                                single_error_plus=(0.7, 0.1, 0.1, 0.1),
                                single_error_times=(0.25, 0.25, 0.25, 0.25),
                                multi_flip_plus=0.3, multi_flip_times=0.4)


def random_pulses(rng, n):
    """Random classes, tags and bases; some vacuum pulses are the basis-free decoy."""
    cls = rng.integers(0, 3, size=n).astype(np.int8)
    det = rng.integers(0, 3, size=n).astype(np.int8)
    basis = rng.integers(0, 2, size=n).astype(np.int8)
    basis[(cls == VACUUM) & (rng.random(n) < 0.5)] = -1
    return cls, det, basis


class TestClassify:
    def test_all_singles(self):
        counts = parts([SINGLE] * 7, [NORMAL] * 7)
        assert (counts.k0, counts.k1, counts.k2) == (0, 7, 0)

    def test_one_per_class(self):
        counts = parts([VACUUM, SINGLE, MULTI] * 2, [NORMAL] * 3 + [DARK] * 3)
        assert counts.j_tuple() == (1, 1, 1, 1, 1, 1)

    def test_no_dark_tags(self):
        counts = parts([VACUUM, SINGLE, MULTI], [NORMAL] * 3)
        assert (counts.j3, counts.j4, counts.j5) == (0, 0, 0)

    def test_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            cls = rng.integers(0, 3, size=n)
            det = np.where(rng.integers(0, 2, size=n) == 1, DARK, NORMAL)
            counts = parts(cls, det)
            assert counts.k0 + counts.k1 + counts.k2 == n
            assert sum(counts.j_tuple()) == n
            assert (counts.k0, counts.k1, counts.k2) == tuple(np.bincount(cls, minlength=3))

    def test_undetected_skipped(self):
        counts = parts([SINGLE, SINGLE], [NORMAL, UNDETECTED])
        assert counts.k0 + counts.k1 + counts.k2 == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parts([], [])


class TestSampleErrorPattern:
    def test_noiseless_gives_zero_t(self):
        cls, det, basis = pulses(50)
        x, z = sample_flips(ChannelStrategy(), cls, det, basis, np.random.default_rng(1))
        assert classify(labels(cls, det), z).t == 0
        assert not x.any()

    def test_certain_phase_flip_gives_full_t(self):
        law = (0.0, 1.0, 0.0, 0.0)
        lab, x, z = singles(30, law, law, seed=2, basis=TIMES)
        assert classify(lab, z).t == 30
        lab, x, z = singles(30, law, seed=2)
        assert classify(lab, z).t == 30

    def test_binomial_mean_within_4_sigma(self):
        r, n = 0.2, 100_000
        lab, x, z = singles(n, (1 - r, r, 0.0, 0.0), seed=3)
        t = classify(lab, z).t
        sigma = math.sqrt(n * r * (1 - r))
        assert abs(t - n * r) < 4 * sigma

    def test_dark_always_d(self):
        # A dark count carries no flip and gives the receiver a fair coin.
        cls = np.array([VACUUM, SINGLE, MULTI] * 2, dtype=np.int8)
        det = np.full(6, DARK, dtype=np.int8)
        basis = np.array([-1, PLUS, PLUS, TIMES, TIMES, TIMES], dtype=np.int8)
        strat = ChannelStrategy(single_error_plus=(0.0, 0.0, 0.0, 1.0),
                                single_error_times=(0.0, 0.0, 0.0, 1.0),
                                multi_flip_plus=1.0, multi_flip_times=1.0)
        x, z = sample_flips(strat, cls, det, basis, np.random.default_rng(4))
        assert not x.any() and not z.any()
        for bob in (PLUS, TIMES):
            assert uniform_mask(cls, det, basis, np.full(6, bob, dtype=np.int8)).all()

    def test_admissibility_fuzz(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            cls, det, basis = random_pulses(rng, n)
            x, z = sample_flips(FUZZ_STRATEGY, cls, det, basis, rng)
            photon = (det == NORMAL) & (cls != VACUUM)
            assert not x[~photon].any() and not z[~photon].any()
            assert not z[cls == MULTI].any()
            # Uniform coins land only at the mask, one draw per masked pulse.
            bob = rng.integers(0, 2, size=n).astype(np.int8)
            uniform = uniform_mask(cls, det, basis, bob)
            bits = rng.integers(0, 2, size=n).astype(np.int8)
            ref = copy.deepcopy(rng)
            out = apply_bit_errors(bits, x, uniform, rng)
            assert np.array_equal(out[~uniform], (bits ^ x)[~uniform])
            coins = ref.integers(0, 2, size=int(uniform.sum()), dtype=np.int8)
            assert np.array_equal(out[uniform], coins)
            assert rng.random() == ref.random()

    def test_draw_order(self):
        # Singles + then x (one law index 2x + z each), then multi flips + then x.
        rng = np.random.default_rng(14)
        cls, det, basis = random_pulses(rng, 400)
        ref = copy.deepcopy(rng)
        x, z = sample_flips(FUZZ_STRATEGY, cls, det, basis, rng)
        want_x = np.zeros(400, dtype=np.int8)
        want_z = np.zeros(400, dtype=np.int8)
        normal = det == NORMAL
        for b, law in ((PLUS, FUZZ_STRATEGY.single_error_plus),
                       (TIMES, FUZZ_STRATEGY.single_error_times)):
            pos = np.flatnonzero(normal & (cls == SINGLE) & (basis == b))
            idx = ref.choice(4, size=len(pos), p=law)
            want_x[pos], want_z[pos] = idx >> 1, idx & 1
        for b, p in ((PLUS, FUZZ_STRATEGY.multi_flip_plus),
                     (TIMES, FUZZ_STRATEGY.multi_flip_times)):
            pos = np.flatnonzero(normal & (cls == MULTI) & (basis == b))
            want_x[pos] = ref.random(len(pos)) < p
        assert np.array_equal(x, want_x) and np.array_equal(z, want_z)
        assert rng.random() == ref.random()

    def test_t_distribution_is_binomial(self):
        # chi-square goodness of fit of t against Binomial(K1, r).
        k1, r, trials = 12, 0.3, 100_000
        lab, x, z = singles(k1 * trials, (1 - r, r, 0.0, 0.0), seed=6)
        t_per_trial = z.reshape(trials, k1).sum(axis=1)
        assert classify(lab, z).t == t_per_trial.sum()
        counts = np.bincount(t_per_trial, minlength=k1 + 1)
        expected = np.array([math.comb(k1, t) * r ** t * (1 - r) ** (k1 - t)
                             for t in range(k1 + 1)]) * trials
        keep = expected >= 5
        stat = float(((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum())
        assert stat < chi_square_critical(int(keep.sum()) - 1)

    def test_t_ignores_bit_component(self):
        # A joint (1, 1) flip counts as a phase error; a bit flip alone does not.
        cls, det, _ = pulses(4)
        basis = np.array([PLUS, PLUS, TIMES, TIMES], dtype=np.int8)
        strat = ChannelStrategy(single_error_plus=(0.0, 0.0, 0.0, 1.0),
                                single_error_times=(0.0, 0.0, 1.0, 0.0))
        x, z = sample_flips(strat, cls, det, basis, np.random.default_rng(15))
        assert x.tolist() == [1, 1, 1, 1]
        assert classify(labels(cls, det), z).t == 2


class TestCountPhaseErrors:
    def test_no_errors(self):
        assert classify(labels([SINGLE] * 3, [NORMAL] * 3), np.zeros(3)).t == 0

    def test_joint_flips_count(self):
        assert classify(labels([SINGLE] * 3, [NORMAL] * 3), np.ones(3)).t == 3

    def test_multi_photon_never_counts(self):
        lab = labels([MULTI, MULTI, SINGLE, VACUUM], [NORMAL, NORMAL, DARK, NORMAL])
        assert classify(lab, np.array([1, 1, 1, 1])).t == 0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            classify(labels([SINGLE], [NORMAL]), np.zeros(0))


class TestApplyBitErrors:
    def test_identity(self):
        bits = np.array([1, 0, 1, 1], dtype=np.int8)
        out = apply_bit_errors(bits, np.zeros(4, dtype=np.int8), np.zeros(4, dtype=bool),
                               np.random.default_rng(7))
        assert out.tolist() == bits.tolist()

    def test_full_complement(self):
        bits = np.array([1, 0, 1, 0], dtype=np.int8)
        out = apply_bit_errors(bits, np.ones(4, dtype=np.int8), np.zeros(4, dtype=bool),
                               np.random.default_rng(8))
        assert out.tolist() == [0, 1, 0, 1]

    def test_phase_only_leaves_bits(self):
        _, x, z = singles(3, (0.0, 1.0, 0.0, 0.0), seed=9)
        bits = np.array([1, 1, 0], dtype=np.int8)
        out = apply_bit_errors(bits, x, np.zeros(3, dtype=bool), np.random.default_rng(9))
        assert z.all() and out.tolist() == bits.tolist()

    def test_multi_symbols(self):
        cls, det, _ = pulses(2, cls=MULTI)
        basis = np.array([PLUS, TIMES], dtype=np.int8)
        strat = ChannelStrategy(multi_flip_plus=1.0, multi_flip_times=0.0)
        rng = np.random.default_rng(10)
        x, z = sample_flips(strat, cls, det, basis, rng)
        out = apply_bit_errors(np.zeros(2, dtype=np.int8), x, np.zeros(2, dtype=bool), rng)
        assert out.tolist() == [1, 0] and not z.any()

    def test_dark_bits_unbiased(self):
        n_trials = 100_000
        cls, det, basis = pulses(n_trials, cls=VACUUM, det=DARK, basis=-1)
        uniform = uniform_mask(cls, det, basis, np.zeros(n_trials, dtype=np.int8))
        out = apply_bit_errors(np.zeros(n_trials, dtype=np.int8),
                               np.zeros(n_trials, dtype=np.int8), uniform,
                               np.random.default_rng(11))
        ones = int(out.sum())
        sigma = math.sqrt(n_trials * 0.25)
        assert abs(ones - n_trials / 2) < 4 * sigma

    def test_uniform_positions(self):
        # Spurious vacuum clicks and wrong-basis signals get coins; a
        # right-basis signal and an undetected pulse do not.
        cls = np.array([VACUUM, VACUUM, SINGLE, MULTI, SINGLE, MULTI, SINGLE], dtype=np.int8)
        det = np.array([NORMAL, NORMAL, NORMAL, NORMAL, NORMAL, NORMAL, UNDETECTED],
                       dtype=np.int8)
        basis = np.array([-1, PLUS, PLUS, TIMES, PLUS, TIMES, PLUS], dtype=np.int8)
        bob = np.array([PLUS, PLUS, TIMES, PLUS, PLUS, TIMES, TIMES], dtype=np.int8)
        assert uniform_mask(cls, det, basis, bob).tolist() == \
            [True, True, True, True, False, False, False]


class TestDetectionSampling:
    def test_rates_match(self):
        rng = np.random.default_rng(12)
        strat = ChannelStrategy(p_dark=0.02, q_single=0.5,
                                q_multi_times=0.9, q_multi_plus=0.9)
        n = 100_000
        cls, _, basis = pulses(n)
        det = sample_detection(strat, cls, basis, rng)
        normal = int((det == NORMAL).sum())
        dark = int((det == DARK).sum())
        assert abs(normal - 0.5 * n) < 4 * math.sqrt(n * 0.25)
        assert abs(dark - 0.02 * n) < 4 * math.sqrt(n * 0.02 * 0.98)

    def test_yield_per_class_and_basis(self):
        strat = ChannelStrategy(q_vacuum=0.0, q_single=1.0,
                                q_multi_times=1.0, q_multi_plus=0.0)
        cls = np.array([VACUUM, VACUUM, SINGLE, SINGLE, MULTI, MULTI], dtype=np.int8)
        basis = np.array([-1, PLUS, PLUS, TIMES, TIMES, PLUS], dtype=np.int8)
        det = sample_detection(strat, cls, basis, np.random.default_rng(13))
        assert det.tolist() == [UNDETECTED, UNDETECTED, NORMAL, NORMAL, NORMAL, UNDETECTED]


# ----------------------------------------------------------------------
# Exact draws: the samplers make the same draws as numpy's rng.choice and as
# the earlier per-group samplers (tests/oracles.py), and leave the generator
# in the same state.  A numpy change to choice's rule fails here.

CHOICE_LAWS = [
    (1.0,), (0.0, 1.0), (1.0, 0.0), (0.5, 0.0, 0.5), (0.0, 0.0, 1.0), (0.1, 0.45, 0.45),
    (0.9, 0.03, 0.04, 0.03), (0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0),
    (0.04, 0.4) + (0.02,) * 4 + (0.4,) + (0.02,) * 4,
]


def random_law(rng):
    """A law of 1..12 entries, some of them exactly 0."""
    w = rng.random(int(rng.integers(1, 13)))
    w[rng.random(len(w)) < 0.3] = 0.0
    if not w.any():
        w[int(rng.integers(len(w)))] = 1.0
    return tuple((w / w.sum()).tolist())


def assert_same_draws(rng_a, rng_b, want, got):
    assert len(want) == len(got)
    for w, g in zip(want, got):
        assert np.array_equal(w, g) and w.dtype == g.dtype
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestExactDraws:
    @pytest.mark.parametrize("law", CHOICE_LAWS)
    @pytest.mark.parametrize("size", [0, 1, 2, 17, 4000])
    def test_categorical_matches_choice(self, law, size):
        rng_a, rng_b = np.random.default_rng(size), np.random.default_rng(size)
        want = rng_a.choice(len(law), size=size, p=law)
        got = categorical(law, rng_b.random(size))
        assert np.array_equal(want, got)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_categorical_fuzz(self):
        seeds = np.random.default_rng(20)
        for _ in range(300):
            law = random_law(seeds)
            size = int(seeds.choice([0, 1, int(seeds.integers(2, 500))]))
            seed = int(seeds.integers(1 << 32))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(rng_a.choice(len(law), size=size, p=law),
                                  categorical(law, rng_b.random(size)))
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_categorical_at_cdf_edges(self):
        # A uniform equal to a cdf entry lies above it, as in searchsorted(side="right").
        law = (0.25, 0.0, 0.25, 0.5)
        cdf = np.cumsum(law) / np.sum(law)
        u = np.concatenate([[0.0], cdf[:-1], np.nextafter(cdf[:-1], 0.0)])
        assert categorical(law, u).tolist() == cdf.searchsorted(u, side="right").tolist()
        assert categorical(law, u).tolist() == [0, 2, 2, 3, 0, 0, 2]

    def test_group_uniforms_concatenate(self):
        groups = [np.arange(3), np.arange(0), np.arange(5), np.arange(1)]
        rng_a, rng_b = np.random.default_rng(21), np.random.default_rng(21)
        got = group_uniforms(rng_b, groups)
        assert [len(u) for u in got] == [3, 0, 5, 1]
        for u, pos in zip(got, groups):
            assert np.array_equal(u, rng_a.random(len(pos)))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_detection_at_yield_edges(self):
        # Uniforms exactly at q and at q + p_dark fall above them, as in the
        # per-group code; a stub generator hands out the chosen uniforms.
        class Uniforms:
            def __init__(self, u):
                self.u = u

            def random(self, n):
                assert n == len(self.u)
                return self.u

        strat = ChannelStrategy(p_dark=0.25, q_vacuum=0.0, q_single=0.5,
                                q_multi_times=0.625, q_multi_plus=0.125)
        cls = np.repeat(np.array([VACUUM, SINGLE, MULTI, MULTI], dtype=np.int8), 6)
        basis = np.repeat(np.array([-1, PLUS, TIMES, PLUS], dtype=np.int8), 6)
        q = np.repeat([0.0, 0.5, 0.625, 0.125], 6)
        u = q + np.tile([0.0, 0.25, -1e-17, 0.25 - 1e-17, 1e-17, 0.2], 4)
        u = np.clip(u, 0.0, np.nextafter(1.0, 0.0))
        want = oracles.sample_detection(strat, cls, basis, Uniforms(u))
        assert np.array_equal(sample_detection(strat, cls, basis, Uniforms(u)), want)
        assert want[::6].tolist() == [DARK] * 4 and want[1::6].tolist() == [UNDETECTED] * 4

    @pytest.mark.parametrize("strategy", [
        FUZZ_STRATEGY,
        ChannelStrategy(),
        ChannelStrategy(p_dark=0.2, q_vacuum=0.0, q_single=0.0, q_multi_times=0.8,
                        q_multi_plus=0.0, single_error_plus=(0.0, 0.0, 1.0, 0.0),
                        single_error_times=(0.0, 1.0, 0.0, 0.0),
                        multi_flip_plus=1.0, multi_flip_times=0.0),
        ChannelStrategy(p_dark=0.0, q_vacuum=1.0, q_single=1.0, q_multi_times=1.0,
                        q_multi_plus=1.0, single_error_plus=(0.5, 0.0, 0.0, 0.5),
                        single_error_times=(0.0, 0.5, 0.5, 0.0),
                        multi_flip_plus=0.5, multi_flip_times=0.25),
    ], ids=["fuzz", "noiseless", "zero-entries", "full-yield"])
    def test_samplers_match_per_group_code(self, strategy):
        seeds = np.random.default_rng(22)
        for trial in range(200):
            n = (0, 1, 2)[trial] if trial < 3 else int(seeds.integers(1, 300))
            cls, det, basis = random_pulses(seeds, n)
            keep = int(seeds.integers(4))  # 1..3: only vacuum, single or multi pulses
            if keep:
                cls[:] = keep - 1
                basis[basis < 0] = PLUS
                if keep == 1:
                    basis[seeds.random(n) < 0.5] = -1
            seed = int(seeds.integers(1 << 32))
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_draws(rng_a, rng_b,
                              (oracles.sample_detection(strategy, cls, basis, rng_a),),
                              (sample_detection(strategy, cls, basis, rng_b),))
            assert_same_draws(rng_a, rng_b,
                              oracles.sample_flips(strategy, cls, det, basis, rng_a),
                              sample_flips(strategy, cls, det, basis, rng_b))


class TestStrategyFiles:
    def test_round_trip(self):
        strat = ChannelStrategy(p_dark=0.01, q_vacuum=0.02, q_single=0.6,
                                q_multi_times=0.7, q_multi_plus=0.8,
                                single_error_plus=(0.9, 0.05, 0.03, 0.02),
                                single_error_times=(0.85, 0.05, 0.05, 0.05),
                                multi_flip_times=0.1, multi_flip_plus=0.2)
        text = "".join(f"{key} = {json.dumps(getattr(strat, key))}\n"
                       for key in input_keys("strategy")[0])
        assert load_strategy(text) == strat

    def test_comments_and_blanks(self):
        text = ("# comment\n\np_dark = 0.1\nq_single = 0.5\n"
                "q_multi_times = 0.8\nq_multi_plus = 0.8\n")
        strat = load_strategy(text)
        assert strat.p_dark == 0.1 and strat.q_single == 0.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            load_strategy("qq = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="line 2: bad value"):
            load_strategy("# comment\np_dark = oops\n")

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            ChannelStrategy(p_dark=0.5, q_single=0.6)
        with pytest.raises(ValueError):
            ChannelStrategy(single_error_plus=(0.5, 0.5, 0.5, 0.5))

    @pytest.mark.parametrize("line", [
        "single_error_plus = [NaN, 0.0, 0.0, 1.0]",
        "single_error_times = [0.5, NaN, 0.5, 0.0]",
        "single_error_plus = [Infinity, 0.0, 0.0, 1.0]",
        "p_dark = NaN",
        "multi_flip_plus = NaN",
    ])
    def test_nan_rejected(self, line):
        with pytest.raises(ValueError):
            load_strategy(line + "\n")
