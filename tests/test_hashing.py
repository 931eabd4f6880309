"""Toeplitz hashing: construction rules and the exact universality profile."""

from fractions import Fraction

import numpy as np
import pytest

from decoybb84.errors import CapacityError, DimensionMismatch
from decoybb84.gf2 import BitMatrix, BitVector, kernel_basis, mat_vec_mul, rank
from decoybb84.hashing import (UniversalityProfile, build_toeplitz, profile_summary,
                               sample_seed, universality_profile)
from oracles import (matrix_from_rows, random_matrix_universality_profile,
                     transpose_image_membership)


def bv(*bits):
    return BitVector.from_bits(bits)


class TestBuildToeplitz:
    def test_one_by_two(self):
        assert build_toeplitz(1, 1, bv(1)).to_array().tolist() == [[1, 1]]

    def test_zero_x_block(self):
        assert build_toeplitz(2, 1, bv(0, 0)).to_array().tolist() == \
            [[0, 1, 0], [0, 0, 1]]

    def test_diagonal_rule(self):
        # X[i][j] = seed[i+j]: seed (1,0,1) gives X = [[1,0],[0,1]].
        assert build_toeplitz(2, 2, bv(1, 0, 1)).to_array().tolist() == \
            [[1, 0, 1, 0], [0, 1, 0, 1]]

    def test_wrong_seed_length(self):
        with pytest.raises(DimensionMismatch):
            build_toeplitz(2, 2, bv(1, 0))

    @pytest.mark.parametrize("l, m", [(0, 1), (0, 3), (-1, 2), (2, -1), (1, -1)])
    def test_rejects_empty_key_or_negative_sacrifice(self, l, m):
        with pytest.raises(ValueError, match="need l >= 1 and m >= 0"):
            build_toeplitz(l, m, BitVector(max(l + m - 1, 0), 0))

    def test_matches_diagonal_rule_entrywise(self):
        rng = np.random.default_rng(4)
        for l, m in ((1, 0), (3, 0), (1, 5), (4, 4), (7, 3), (2, 70), (40, 30)):
            seed = BitVector.from_bits(rng.integers(0, 2, size=l + m - 1))
            want = [[seed.bits >> (i + j) & 1 for j in range(m)] + [int(i == j) for j in range(l)]
                    for i in range(l)]
            assert build_toeplitz(l, m, seed).to_array().tolist() == want

    def test_full_row_rank(self):
        rng = np.random.default_rng(0)
        from decoybb84.gf2 import rank
        for _ in range(20):
            l = int(rng.integers(1, 6))
            m = int(rng.integers(0, 5))
            if l + m - 1 < 1:
                continue
            assert rank(build_toeplitz(l, m, sample_seed(rng, l, m))) == l


class TestHashKey:
    def test_zero_maps_to_zero(self):
        assert mat_vec_mul(build_toeplitz(2, 2, bv(1, 0, 1)), bv(0, 0, 0, 0)) == bv(0, 0)

    def test_single_row_cases(self):
        mp = build_toeplitz(1, 1, bv(1))
        assert mat_vec_mul(mp, bv(1, 0)) == bv(1)
        assert mat_vec_mul(mp, bv(1, 1)) == bv(0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            l = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            mp = build_toeplitz(l, m, sample_seed(rng, l, m))
            z1 = BitVector(l + m, int(rng.integers(0, 1 << (l + m))))
            z2 = BitVector(l + m, int(rng.integers(0, 1 << (l + m))))
            assert mat_vec_mul(mp, z1 ^ z2) == mat_vec_mul(mp, z1) ^ mat_vec_mul(mp, z2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat_vec_mul(build_toeplitz(1, 1, bv(0)), bv(1, 0, 0))


class TestUniversalityProfile:
    def test_x_only_entries_are_zero(self):
        for l, m in ((1, 2), (2, 2), (3, 2)):
            profile = universality_profile(l, m)
            for x in range(1, 1 << m):
                assert profile[x] == 0

    def test_mixed_entries_hit_bound_exactly(self):
        for l, m in ((1, 1), (2, 2), (2, 3)):
            profile = universality_profile(l, m)
            bound = Fraction(1, 1 << m)
            for z, frac in profile.items():
                if (z & ((1 << m) - 1)) and (z >> m):
                    assert frac == bound

    def test_y_only_entries_within_bound(self):
        l, m = 1, 1
        profile = universality_profile(l, m)
        assert profile[0b10] <= Fraction(1, 2)  # x = 0, y = 1

    def test_matches_membership_oracle(self):
        l, m = 2, 3
        profile = universality_profile(l, m)
        denom = 1 << (l + m - 1)
        for z in range(1, 1 << (l + m)):
            hits = sum(
                transpose_image_membership(l, m, BitVector(l + m - 1, s), BitVector(l + m, z))
                for s in range(denom))
            assert profile[z] == Fraction(hits, denom)

    def test_guard(self):
        with pytest.raises(CapacityError):
            universality_profile(15, 10, guard=20)

    def test_mapping_keys(self):
        for l, m in ((1, 0), (1, 1), (2, 3), (4, 2)):
            profile = universality_profile(l, m)
            size = 1 << (l + m)
            assert len(profile) == size - 1
            assert list(profile) == list(range(1, size))
            assert [z for z, _ in profile.items()] == list(range(1, size))
            for z in (0, size, -1):
                assert z not in profile
                with pytest.raises(KeyError):
                    profile[z]

    def test_mapping_takes_integer_keys_only(self):
        # As in a dict: True is the key 1 and a numpy integer its value;
        # floats, strings and None are no keys, whatever their value.
        profile = universality_profile(2, 2)
        assert True in profile and profile[True] == profile[1]
        assert np.int64(3) in profile and profile[np.int64(3)] == profile[3]
        assert False not in profile
        for key in (1.5, 2.0, "3", None, (1,)):
            assert key not in profile
            assert profile.get(key) is None
            with pytest.raises(KeyError):
                profile[key]

    def test_summary_matches_fraction_loop(self):
        rng = np.random.default_rng(3)
        failed = set()
        for l in range(1, 11):
            for m in range(0, 11 - l):
                profile = universality_profile(l, m)
                got = profile_summary(profile)
                assert got == _summary_by_fractions(profile, m), (l, m)
                assert all(type(v) in (bool, Fraction) for v in got.values())
                if m:
                    broken = _break_a_rank(profile, rng)
                    got = profile_summary(broken)
                    assert got == _summary_by_fractions(broken, m), (l, m)
                    failed |= {key for key, v in got.items() if v is False}
        # Each flag failed somewhere, so each can fail.
        assert failed == {"within_bound", "zero_when_y_zero", "sharp_when_both_nonzero"}

    def test_rank_summary_matches_count_summary(self):
        rng = np.random.default_rng(5)
        for l in range(1, 15):
            for m in range(0, 15 - l):
                profile = universality_profile(l, m)
                assert profile_summary(profile) == _summary_by_counts(profile), (l, m)
                if m:
                    broken = _break_a_rank(profile, rng)
                    assert profile_summary(broken) == _summary_by_counts(broken), (l, m)

    def test_membership_equals_kernel_orthogonality(self):
        # Z in Im M_p^T iff Z is orthogonal to Ker M_p.
        rng = np.random.default_rng(7)
        for _ in range(20):
            l = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            seed = sample_seed(rng, l, m)
            kern = kernel_basis(build_toeplitz(l, m, seed))
            for z in range(1 << (l + m)):
                zv = BitVector(l + m, z)
                ortho = all((k.bits & z).bit_count() % 2 == 0 for k in kern)
                assert transpose_image_membership(l, m, seed, zv) == ortho


def _break_a_rank(profile, rng):
    """The profile with one rank moved off the Toeplitz value (m >= 1):
    either one u != 0 loses a basis vector (r(u) < m), or u = 0 gains
    one (r(0) > 0).  The basis stays reduced, so the counts follow."""
    basis = profile.basis.copy()
    c = int(rng.integers(profile.m))
    if rng.integers(2):
        basis[c, int(rng.integers(1, 1 << profile.l))] = 0
    else:
        basis[c, 0] = 1 << c
    return UniversalityProfile(profile.l, profile.m, np.count_nonzero(basis, axis=0), basis)


def _summary_by_counts(profile):
    """The 2^-m classification read off the expanded count array."""
    m, denom = profile.m, profile.denom
    grid = profile.counts.reshape(-1, 1 << m)  # grid[y, x]
    worst = int(grid.reshape(-1)[1:].max())
    return {"bound": Fraction(1, 1 << m), "max_fraction": Fraction(worst, denom),
            "within_bound": worst << m <= denom,
            "zero_when_y_zero": not grid[0, 1:].any(),
            "sharp_when_both_nonzero": bool((grid[1:, 1:] == denom >> m).all())}


def _summary_by_fractions(profile, m):
    """The 2^-m classification by one Fraction comparison per nonzero Z."""
    bound = Fraction(1, 1 << m)
    worst = Fraction(0)
    ok = xonly_zero = mixed_sharp = True
    xmask = (1 << m) - 1
    for z, frac in profile.items():
        worst = max(worst, frac)
        ok = ok and frac <= bound
        x_part, y_part = z & xmask, z >> m
        if y_part == 0 and x_part != 0 and frac != 0:
            xonly_zero = False
        if y_part != 0 and x_part != 0 and frac != bound:
            mixed_sharp = False
    return {"bound": bound, "max_fraction": worst, "within_bound": ok,
            "zero_when_y_zero": xonly_zero, "sharp_when_both_nonzero": mixed_sharp}


class TestSampleSeed:
    def test_reproducible(self):
        a = sample_seed(np.random.default_rng(42), 3, 2)
        b = sample_seed(np.random.default_rng(42), 3, 2)
        assert a == b
        c = sample_seed(np.random.default_rng(43), 3, 2)
        assert c != a  # distinct sources give distinct hashes here

    def test_seed_length_contract(self):
        assert sample_seed(np.random.default_rng(0), 1, 1).length == 1

    def test_uniform_over_full_enumeration(self):
        # Feed the sampler every raw bit pattern once; each distinct hash
        # must appear exactly once (exact chi-square statistic of zero).
        l, m = 3, 2
        n_bits = l + m - 1

        class PatternSource:
            def __init__(self, value):
                self.value = value

            def integers(self, low, high, size):
                assert (low, high, size) == (0, 2, n_bits)
                return np.array([(self.value >> i) & 1 for i in range(n_bits)])

        seen = [sample_seed(PatternSource(v), l, m).bits
                for v in range(1 << n_bits)]
        counts = np.bincount(seen, minlength=1 << n_bits)
        expected = 1.0
        chi_square = float(((counts - expected) ** 2 / expected).sum())
        assert chi_square == 0.0


class TestRandomMatrixAlternative:
    def test_exhaustive_condition_tiny(self):
        # Every nonzero Z obeys the 2^-m condition for the random family too.
        l, m = 2, 1
        profile = random_matrix_universality_profile(l, m)
        bound = Fraction(1, 1 << m)
        assert all(frac <= bound for frac in profile.values())

    def test_row_space_against_linear_algebra(self):
        rng = np.random.default_rng(9)
        l, m = 2, 2
        for _ in range(10):
            mat = matrix_from_rows(rng.integers(0, 2, (l, l + m)).tolist())
            kern = kernel_basis(mat)
            for z in range(1 << (l + m)):
                ortho = all((k.bits & z).bit_count() % 2 == 0 for k in kern)
                # membership in the row space via rank comparison
                r1 = rank(BitMatrix(l + 1, l + m, mat.row_bits + (z,)))
                assert (rank(mat) == r1) == ortho
