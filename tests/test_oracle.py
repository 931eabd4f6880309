"""Exact Eve figures and the code-channel reduction, with independent oracles."""

import math

import numpy as np
import pytest

from decoybb84.bounds import (distinguishability_bounds, eve_info_bound,
                              success_bound)
from decoybb84.errors import CapacityError
from decoybb84.gf2 import BitMatrix, BitVector, kernel_basis, mat_vec_mul, span_ints
from decoybb84.oracle import (PauliErrorDistribution, dense_average_state,
                              dense_eve_state, dense_fidelity,
                              dense_mutual_information, dense_trace_norm,
                              eve_mutual_information, optimal_success_probability,
                              pairwise_figures, phase_error_probability,
                              reduce_code_channel)
from oracles import min_distance_decode


def random_distribution(rng, l):
    return PauliErrorDistribution(l, rng.dirichlet(
        np.ones(1 << (2 * l))).reshape(1 << l, 1 << l))


class TestPhaseErrorProbability:
    def test_point_mass_zero(self):
        d = PauliErrorDistribution.from_dict(1, {(0, 0): 1.0})
        assert phase_error_probability(d) == 0.0

    def test_uniform_half(self):
        d = PauliErrorDistribution(1, np.full((2, 2), 0.25))
        assert phase_error_probability(d) == pytest.approx(0.5)

    def test_all_mass_on_phase_errors(self):
        d = PauliErrorDistribution.from_dict(1, {(0, 1): 0.3, (1, 1): 0.7})
        assert phase_error_probability(d) == pytest.approx(1.0)


class TestMutualInformation:
    def test_deterministic_channel_zero(self):
        d = PauliErrorDistribution.from_dict(2, {(0, 0): 1.0})
        assert eve_mutual_information(d) == 0.0

    def test_uniform_phase_gives_l_bits(self):
        for l in (1, 2):
            probs = np.zeros((1 << l, 1 << l))
            probs[0, :] = 1.0 / (1 << l)
            d = PauliErrorDistribution(l, probs)
            assert eve_mutual_information(d) == pytest.approx(l)

    def test_binary_entropy_case(self):
        d = PauliErrorDistribution.from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
        assert eve_mutual_information(d) == pytest.approx(0.8112781244591328)

    @pytest.mark.parametrize("l", [1, 2])
    def test_closed_form_equals_dense_relative_entropy(self, l):
        rng = np.random.default_rng(100 + l)
        for _ in range(25):
            d = random_distribution(rng, l)
            assert eve_mutual_information(d) == \
                pytest.approx(dense_mutual_information(d), abs=1e-9)


class TestPairwiseFigures:
    def test_key_independent_channel(self):
        d = PauliErrorDistribution.from_dict(2, {(1, 0): 0.5, (3, 0): 0.5})
        fig = pairwise_figures(d)
        assert fig.min_pair_fidelity == pytest.approx(1.0)
        assert fig.max_pair_trace_norm == pytest.approx(0.0)

    def test_uniform_phase_orthogonal_states(self):
        probs = np.zeros((2, 2))
        probs[0, :] = 0.5
        fig = pairwise_figures(PauliErrorDistribution(1, probs))
        assert fig.min_pair_fidelity == pytest.approx(0.0)
        assert fig.max_pair_trace_norm == pytest.approx(2.0)

    def test_block_formula_values(self):
        d = PauliErrorDistribution.from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
        fig = pairwise_figures(d)
        assert fig.min_pair_fidelity == pytest.approx(0.5)
        assert fig.max_pair_trace_norm == pytest.approx(math.sqrt(3.0))

    @pytest.mark.parametrize("l", [1, 2])
    def test_against_dense_matrices_all_key_pairs(self, l):
        # Fidelity tolerance 1e-7: the dense path takes eigen-roots of
        # rank-deficient PSD matrices, good to ~1e-8 only.
        rng = np.random.default_rng(7 + l)
        for _ in range(10):
            d = random_distribution(rng, l)
            fig = pairwise_figures(d)
            states = [dense_eve_state(d, y) for y in range(1 << l)]
            rho_bar = dense_average_state(d)
            fids = [dense_fidelity(states[y], states[yp])
                    for y in range(1 << l) for yp in range(1 << l) if y != yp]
            tns = [dense_trace_norm(states[y] - states[yp])
                   for y in range(1 << l) for yp in range(1 << l) if y != yp]
            assert fig.min_pair_fidelity == pytest.approx(min(fids), abs=1e-7)
            assert fig.max_pair_trace_norm == pytest.approx(max(tns), abs=1e-9)
            afids = [dense_fidelity(s, rho_bar) for s in states]
            atns = [dense_trace_norm(s - rho_bar) for s in states]
            assert fig.min_avg_fidelity == pytest.approx(min(afids), abs=1e-7)
            assert fig.max_avg_trace_norm == pytest.approx(max(atns), abs=1e-9)

    def test_trace_norm_fidelity_relation(self):
        # ||rho - rho'||_1 >= 2 (1 - F), exact on the block forms.
        rng = np.random.default_rng(21)
        for _ in range(50):
            d = random_distribution(rng, 2)
            fig = pairwise_figures(d)
            assert fig.max_pair_trace_norm >= \
                2 * (1 - fig.min_pair_fidelity) - 1e-12


class TestOptimalSuccess:
    def test_uniform_phase_perfect_discrimination(self):
        for l in (1, 2):
            probs = np.zeros((1 << l, 1 << l))
            probs[0, :] = 1.0 / (1 << l)
            d = PauliErrorDistribution(l, probs)
            assert optimal_success_probability(d) == pytest.approx(1.0)

    def test_point_mass_blind_guessing(self):
        for l in (1, 2, 3):
            d = PauliErrorDistribution.from_dict(l, {(0, 0): 1.0})
            assert optimal_success_probability(d) == pytest.approx(2.0 ** -l)

    def test_worked_example(self):
        d = PauliErrorDistribution.from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
        expect = (math.sqrt(3) + 1) ** 2 / 8
        assert optimal_success_probability(d) == pytest.approx(expect)


class TestBoundsHoldOnOracle:
    """Spot battery for the provable bound legs.

    The trace-norm legs (the claimed <= 4 P_ph and <= 2 P_ph) are checked in
    the acceptance module, where their failure is documented: the exact
    values exceed those linear constants (see the sqrt test below).
    """

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_provable_inequalities(self, l):
        rng = np.random.default_rng(50 + l)
        for _ in range(100):
            d = random_distribution(rng, l)
            fig = pairwise_figures(d)
            p = fig.phase_error_prob
            fb, _, fab, _ = distinguishability_bounds(p)
            assert fig.mutual_info_bits <= eve_info_bound(p, l) + 1e-9
            assert fig.min_pair_fidelity >= fb - 1e-9
            assert fig.min_avg_fidelity >= fab - 1e-9
            assert fig.opt_success_prob <= success_bound(p, l) + 1e-9

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_trace_norms_obey_fidelity_derived_bounds(self, l):
        # What IS provable for the trace norms: the Fuchs-van de Graaf
        # forms 2 sqrt(1 - (1-2P)^2) and 2 sqrt(1 - (1-P)^2).
        rng = np.random.default_rng(80 + l)
        for _ in range(100):
            d = random_distribution(rng, l)
            fig = pairwise_figures(d)
            p = fig.phase_error_prob
            pair_ub = 2 * math.sqrt(max(0.0, 1 - max(0.0, 1 - 2 * p) ** 2))
            avg_ub = 2 * math.sqrt(max(0.0, 1 - max(0.0, 1 - p) ** 2))
            assert fig.max_pair_trace_norm <= pair_ub + 1e-9
            assert fig.max_avg_trace_norm <= avg_ub + 1e-4

    def test_linear_trace_norm_bound_counterexample(self):
        # Documented defect: the linear constants fail already on the
        # worked example P(z=0)=3/4, where the exact pair trace norm is
        # sqrt(3) but 4 P_ph = 1.
        d = PauliErrorDistribution.from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
        fig = pairwise_figures(d)
        assert fig.max_pair_trace_norm == pytest.approx(math.sqrt(3.0))
        assert fig.max_pair_trace_norm > 4 * fig.phase_error_prob

    def test_equality_at_zero_phase_error(self):
        d = PauliErrorDistribution.from_dict(2, {(0, 0): 0.25, (1, 0): 0.75})
        fig = pairwise_figures(d)
        assert fig.phase_error_prob == 0.0
        assert fig.min_pair_fidelity == pytest.approx(1.0)
        assert fig.max_pair_trace_norm == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Independent brute-force reduction oracle.


def brute_phase_error_probability(site_laws, m_e, m_p):
    """Iterate all phase patterns, decode with the library-independent
    minimum-distance decoder, count decodes landing outside the sent coset."""
    n = m_e.rows
    c1perp = set(span_ints([v.bits for v in kernel_basis(m_e.transpose())]))
    sub_rows = tuple(mat_vec_mul(m_e, u).bits for u in kernel_basis(m_p))
    c2perp = [BitVector(n, v) for v in span_ints(
        [v.bits for v in kernel_basis(BitMatrix(len(sub_rows), n, sub_rows))])]
    pz = np.zeros(1 << n)
    pz[0] = 1.0
    for i, law in enumerate(site_laws):
        p1 = sum(p for (x, z), p in law.items() if z == 1)
        new = np.zeros_like(pz)
        for e in range(1 << n):
            if pz[e]:
                new[e] += pz[e] * (1 - p1)
                new[e ^ (1 << i)] += pz[e] * p1
        pz = new
    total = 0.0
    for c in c1perp:
        for e in range(1 << n):
            if pz[e] == 0.0:
                continue
            dec = min_distance_decode(BitVector(n, c ^ e), c2perp)
            if (dec.bits ^ c) not in c1perp:
                total += pz[e]
    return total / len(c1perp)


class TestReduceCodeChannel:
    def _repetition_pair(self):
        # M_e = I_3 sends 3 bits; M_p = (1 1 1) hashes to 1 bit; the dual
        # pair is {000, 111} over the trivial coset, a 3-bit repetition code.
        return BitMatrix.identity(3), BitMatrix.from_rows([[1, 1, 1]])

    def test_noiseless_point_mass(self):
        m_e, m_p = self._repetition_pair()
        site = {(0, 0): 1.0}
        dist, pph = reduce_code_channel([site] * 3, m_e, m_p)
        assert pph == 0.0
        assert dist.probs[0, 0] == pytest.approx(1.0)

    def test_repetition_code_phase_error(self):
        m_e, m_p = self._repetition_pair()
        for p in (0.05, 0.1, 0.3):
            site = {(0, 0): 1 - p, (0, 1): p}
            _, pph = reduce_code_channel([site] * 3, m_e, m_p)
            assert pph == pytest.approx(3 * p * p * (1 - p) + p ** 3, abs=1e-12)

    def test_certain_phase_flip_decodes_wrong(self):
        m_e, m_p = self._repetition_pair()
        site = {(0, 1): 1.0}  # flips every qubit; 111 is the wrong coset
        _, pph = reduce_code_channel([site] * 3, m_e, m_p)
        assert pph == pytest.approx(1.0)

    def test_logical_marginal_matches_pph(self):
        rng = np.random.default_rng(3)
        m_e, m_p = self._repetition_pair()
        for _ in range(10):
            laws = []
            for _ in range(3):
                probs = rng.dirichlet(np.ones(4))
                laws.append({(0, 0): probs[0], (0, 1): probs[1],
                             (1, 0): probs[2], (1, 1): probs[3]})
            dist, pph = reduce_code_channel(laws, m_e, m_p)
            assert phase_error_probability(dist) == pytest.approx(pph, abs=1e-12)

    @pytest.mark.parametrize("trial", range(8))
    def test_agrees_with_brute_force(self, trial):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(4, 8))
        lm = int(rng.integers(2, min(n, 5) + 1))
        l = int(rng.integers(1, lm))
        from decoybb84.gf2 import rank
        while True:
            m_e = BitMatrix.from_rows(rng.integers(0, 2, (n, lm)).tolist())
            if rank(m_e) == lm:
                break
        while True:
            m_p = BitMatrix.from_rows(rng.integers(0, 2, (l, lm)).tolist())
            if rank(m_p) == l:
                break
        laws = []
        for _ in range(n):
            pz = float(rng.uniform(0, 0.4))
            laws.append({(0, 0): 1 - pz, (0, 1): pz})
        _, pph = reduce_code_channel(laws, m_e, m_p)
        brute = brute_phase_error_probability(laws, m_e, m_p)
        assert pph == pytest.approx(brute, abs=1e-10)

    def test_agrees_with_brute_force_n10(self):
        rng = np.random.default_rng(99)
        n, lm, l = 10, 6, 3
        from decoybb84.gf2 import rank
        while True:
            m_e = BitMatrix.from_rows(rng.integers(0, 2, (n, lm)).tolist())
            if rank(m_e) == lm:
                break
        while True:
            m_p = BitMatrix.from_rows(rng.integers(0, 2, (l, lm)).tolist())
            if rank(m_p) == l:
                break
        laws = [{(0, 0): 1 - pz, (0, 1): pz}
                for pz in rng.uniform(0, 0.3, size=n)]
        _, pph = reduce_code_channel(laws, m_e, m_p)
        brute = brute_phase_error_probability(laws, m_e, m_p)
        assert pph == pytest.approx(brute, abs=1e-10)

    def test_figure_ranges(self):
        rng = np.random.default_rng(123)
        for l in (1, 2, 3):
            for _ in range(30):
                d = random_distribution(rng, l)
                fig = pairwise_figures(d)
                assert 0.0 <= fig.mutual_info_bits <= l + 1e-12
                assert 0.0 <= fig.min_pair_fidelity <= 1.0 + 1e-12
                assert 0.0 <= fig.min_avg_fidelity <= 1.0 + 1e-12
                assert 0.0 <= fig.max_pair_trace_norm <= 2.0 + 1e-12
                assert 0.0 <= fig.max_avg_trace_norm <= 2.0 + 1e-12
                assert 2.0 ** -l - 1e-12 <= fig.opt_success_prob <= 1.0 + 1e-12
                assert 0.0 <= fig.phase_error_prob <= 1.0 + 1e-12

    def test_joint_law_input(self):
        m_e, m_p = self._repetition_pair()
        p = 0.2
        joint = {}
        for e in range(8):
            w = bin(e).count("1")
            joint[(0, e)] = p ** w * (1 - p) ** (3 - w)
        dist_j, pph_j = reduce_code_channel(joint, m_e, m_p)
        site = {(0, 0): 1 - p, (0, 1): p}
        dist_p, pph_p = reduce_code_channel([site] * 3, m_e, m_p)
        assert pph_j == pytest.approx(pph_p, abs=1e-12)
        assert np.allclose(dist_j.probs, dist_p.probs, atol=1e-12)

    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_product_law_matches_explicit_kron_joint(self, n):
        rng = np.random.default_rng(n)
        from decoybb84.gf2 import rank
        lm, l = n - 1, 2
        while True:
            m_e = BitMatrix.from_rows(rng.integers(0, 2, (n, lm)).tolist())
            if rank(m_e) == lm:
                break
        while True:
            m_p = BitMatrix.from_rows(rng.integers(0, 2, (l, lm)).tolist())
            if rank(m_p) == l:
                break
        sites = [rng.dirichlet(np.ones(4)).reshape(2, 2) for _ in range(n)]
        joint = np.array([[1.0]])
        for site in sites:  # site i on bit i of the packed patterns
            joint = np.kron(site, joint)
        explicit = {(ex, ez): float(joint[ex, ez])
                    for ex in range(1 << n) for ez in range(1 << n)}
        laws = [{(x, z): float(site[x, z]) for x in (0, 1) for z in (0, 1)}
                for site in sites]
        dist_p, pph_p = reduce_code_channel(laws, m_e, m_p)
        dist_j, pph_j = reduce_code_channel(explicit, m_e, m_p)
        assert abs(pph_p - pph_j) <= 1e-12
        assert np.abs(dist_p.probs - dist_j.probs).max() <= 1e-12

    def test_guard(self):
        m_e = BitMatrix.identity(13)
        m_p = BitMatrix.from_rows([[1] * 13])
        with pytest.raises(CapacityError):
            reduce_code_channel([{(0, 0): 1.0}] * 13, m_e, m_p)
