"""Exact Eve figures and the code-channel reduction, with independent oracles."""

import hashlib
import importlib.util
import math
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from decoybb84.bounds import (distinguishability_bounds, eve_info_bound,
                              success_bound)
from decoybb84.errors import CapacityError
from decoybb84.gf2 import (BitMatrix, BitVector, kernel_basis, mat_vec_mul, rank,
                           span_array, span_ints)
from decoybb84.oracle import (REDUCE_GUARD_N, PauliErrorDistribution, _contract,
                              _label_transitions, _normalize_channel, pairwise_figures,
                              phase_error_probability, reduce_code_channel)
from oracles import (contract_reference, dense_average_state, dense_eve_state,
                     dense_fidelity, dense_mutual_information, dense_trace_norm,
                     logical_law_reference, matrix_from_rows, min_distance_decode,
                     pauli_from_dict, per_shift_transitions)


def random_code_pair(rng, n, lm, l):
    """Injective N x lm M_e and full-row-rank l x lm M_p, drawn until they fit."""
    while True:
        m_e = matrix_from_rows(rng.integers(0, 2, (n, lm)).tolist())
        if rank(m_e) == lm:
            break
    while True:
        m_p = matrix_from_rows(rng.integers(0, 2, (l, lm)).tolist())
        if rank(m_p) == l:
            break
    return m_e, m_p


def random_channel(rng, n, form):
    """A per-site product law, or a joint law on 32 random pattern pairs."""
    if form == "product":
        return [dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], rng.dirichlet(np.ones(4)).tolist()))
                for _ in range(n)]
    patterns = rng.integers(0, 1 << n, size=(32, 2)).tolist()
    joint = {}
    for (ex, ez), w in zip(patterns, rng.dirichlet(np.ones(32)).tolist()):
        joint[(ex, ez)] = joint.get((ex, ez), 0.0) + w
    return joint


def random_distribution(rng, l):
    return PauliErrorDistribution(l, rng.dirichlet(
        np.ones(1 << (2 * l))).reshape(1 << l, 1 << l))


class TestPhaseErrorProbability:
    def test_point_mass_zero(self):
        d = pauli_from_dict(1, {(0, 0): 1.0})
        assert phase_error_probability(d) == 0.0

    def test_uniform_half(self):
        d = PauliErrorDistribution(1, np.full((2, 2), 0.25))
        assert phase_error_probability(d) == pytest.approx(0.5)

    def test_all_mass_on_phase_errors(self):
        d = pauli_from_dict(1, {(0, 1): 0.3, (1, 1): 0.7})
        assert phase_error_probability(d) == pytest.approx(1.0)


class TestLogicalLawChecks:
    @pytest.mark.parametrize("probs", [
        [[float("nan"), 0.5], [0.25, 0.25]], [[1.5, -0.5], [0.0, 0.0]],
        [[0.5, 0.25], [0.25, 1e-11]],
    ], ids=["nan", "negative", "sum-off-by-1e-11"])
    def test_rejected(self, probs):
        with pytest.raises(ValueError, match="logical law"):
            PauliErrorDistribution(1, np.array(probs))

    def test_tolerance_is_1e_12(self):
        d = PauliErrorDistribution(1, np.array([[0.5, 0.25], [0.25, 1e-13]]))
        assert d.probs[1, 1] == 1e-13


class TestMutualInformation:
    def test_deterministic_channel_zero(self):
        d = pauli_from_dict(2, {(0, 0): 1.0})
        assert pairwise_figures(d).mutual_info_bits == 0.0

    def test_uniform_phase_gives_l_bits(self):
        for l in (1, 2):
            probs = np.zeros((1 << l, 1 << l))
            probs[0, :] = 1.0 / (1 << l)
            d = PauliErrorDistribution(l, probs)
            assert pairwise_figures(d).mutual_info_bits == pytest.approx(l)

    def test_binary_entropy_case(self):
        d = pauli_from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
        assert pairwise_figures(d).mutual_info_bits == pytest.approx(0.8112781244591328)

    @pytest.mark.parametrize("l", [1, 2])
    def test_closed_form_equals_dense_relative_entropy(self, l):
        rng = np.random.default_rng(100 + l)
        for _ in range(25):
            d = random_distribution(rng, l)
            assert pairwise_figures(d).mutual_info_bits == \
                pytest.approx(dense_mutual_information(d), abs=1e-9)


class TestPairwiseFigures:
    def test_key_independent_channel(self):
        d = pauli_from_dict(2, {(1, 0): 0.5, (3, 0): 0.5})
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
        d = pauli_from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
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


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def perfbench_code_reduction():
    """The benchmark's ``CodeReduction`` workload, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CodeReduction


def pinned_figure_laws():
    """The benchmark's 50 reduced laws, then 40 random laws with l = 1..4:
    every third with some rows of zero probability, every fourth with zero
    entries inside its rows."""
    code_reduction = perfbench_code_reduction()
    laws = []
    for j in range(code_reduction.POOL):
        _, m_e, m_p, channel = code_reduction.instance(j)
        laws.append(reduce_code_channel(channel, m_e, m_p)[0])
    rng = np.random.default_rng(2024)
    for i in range(40):
        l = 1 + i % 4
        keep = np.ones((1 << l, 1 << l), dtype=bool)
        if i % 3 == 0:
            keep[rng.permutation(1 << l)[:max(1, (1 << l) // 2)]] = False
        if i % 4 == 0:
            keep &= rng.random(keep.shape) < 0.7
            keep.flat[rng.integers(keep.size)] = True
        probs = np.zeros(keep.shape)
        probs[keep] = rng.dirichlet(np.ones(int(keep.sum())))
        laws.append(PauliErrorDistribution(l, probs))
    return laws


# SHA-256 of float.hex of every EveFigures field, law after law.
PINNED_FIGURES = "6b4ec46ed7d0953dcd7e484048b5d58d3c88ccb71a085e05ebb85cbf9ebc47c0"


def test_pinned_figures():
    hexes = [float.hex(v) for law in pinned_figure_laws() for v in astuple(pairwise_figures(law))]
    assert hashlib.sha256("\n".join(hexes).encode()).hexdigest() == PINNED_FIGURES


class TestOptimalSuccess:
    def test_uniform_phase_perfect_discrimination(self):
        for l in (1, 2):
            probs = np.zeros((1 << l, 1 << l))
            probs[0, :] = 1.0 / (1 << l)
            d = PauliErrorDistribution(l, probs)
            assert pairwise_figures(d).opt_success_prob == pytest.approx(1.0)

    def test_point_mass_blind_guessing(self):
        for l in (1, 2, 3):
            d = pauli_from_dict(l, {(0, 0): 1.0})
            assert pairwise_figures(d).opt_success_prob == pytest.approx(2.0 ** -l)

    def test_worked_example(self):
        d = pauli_from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
        expect = (math.sqrt(3) + 1) ** 2 / 8
        assert pairwise_figures(d).opt_success_prob == pytest.approx(expect)


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
        d = pauli_from_dict(1, {(0, 0): 0.75, (0, 1): 0.25})
        fig = pairwise_figures(d)
        assert fig.max_pair_trace_norm == pytest.approx(math.sqrt(3.0))
        assert fig.max_pair_trace_norm > 4 * fig.phase_error_prob

    def test_equality_at_zero_phase_error(self):
        d = pauli_from_dict(2, {(0, 0): 0.25, (1, 0): 0.75})
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


# (N, lm, l, channel form): the first twenty cover N 3..12 in both forms;
# then lm = N (C1perp = {0}), l = lm (m = 0) and lm = 1.
PINNED_LAW_CASES = [
    (3, 2, 1), (4, 3, 2), (5, 3, 1), (6, 4, 3), (7, 5, 2),
    (8, 6, 4), (9, 5, 3), (10, 7, 2), (11, 7, 4), (12, 7, 3),
]
PINNED_LAW_CASES = [case + (form,) for case in PINNED_LAW_CASES
                    for form in ("product", "joint")] + [
    (5, 5, 2, "product"), (7, 7, 3, "joint"), (6, 3, 3, "joint"),
    (8, 4, 4, "product"), (4, 1, 1, "product"), (9, 1, 1, "joint"),
]

# SHA-256 of the law's probs.tobytes() and float.hex of p_ph per case.
PINNED_LAWS = {
    (3, 2, 1, 'product'): ('89e5a0d20e99f62c4ef071989c7c7270f0587d24ca0bc64c1843697a52ee5621',
        '0x1.fed45434f1e7fp-2'),
    (3, 2, 1, 'joint'): ('e13959aff0444a1058f88b1d1a5bfee20eee9ce36d113424e34c03e05683df34',
        '0x1.5d536094ba517p-1'),
    (4, 3, 2, 'product'): ('57f3300bd9cc41b05404c571c3bb3b089640222ad3de3032432930d0891a22ad',
        '0x1.d34a4e4d50c62p-1'),
    (4, 3, 2, 'joint'): ('5ad86bfa9fe1dd8e22d77ebb8928a290afbbf4d3df0425d375be58564e0e59b2',
        '0x1.8194cc65d3b25p-1'),
    (5, 3, 1, 'product'): ('ab92d5538b9800998a26f691b37c8e7962520bcabbcb76bccb8aaa463bf629da',
        '0x1.ee17b5f294d7fp-2'),
    (5, 3, 1, 'joint'): ('0d12258715d596226d284be19af5cd3904524a0072e64782364eea0d8eafcf4e',
        '0x1.4c8996c720ae6p-1'),
    (6, 4, 3, 'product'): ('c031fb5766ed01b26f20402b4604627df076a467f8d1d87d5994992e94abeef2',
        '0x1.bfe402c716eb5p-1'),
    (6, 4, 3, 'joint'): ('182f1ae720141e169f91588412e55ba2a5b77093cf399f29eb0bd95d19da99bb',
        '0x1.cab9faea17d79p-1'),
    (7, 5, 2, 'product'): ('c14d700caf3bf9cf51ef86279123939f76138406dd1163321d739666b3e8cb05',
        '0x1.bb7ec9fa62853p-1'),
    (7, 5, 2, 'joint'): ('d60a23fc0595e554b88f1892be80a035abb9f20db7a967b89d52e521bd8af244',
        '0x1.a30b995873d70p-1'),
    (8, 6, 4, 'product'): ('4a3fab4c500be680915ab19dfc6783d4f1d6650ccf523f9c637f412426af6691',
        '0x1.c4afa883c270cp-1'),
    (8, 6, 4, 'joint'): ('d04281bca9c58dce1606a1749568e5cf170df09aeeb2705b1d145872ec5e1b5c',
        '0x1.d3988667d410fp-1'),
    (9, 5, 3, 'product'): ('ae575fcf2a1229197edf11f8d3ddfc10df5c2a7431a3ae4069da94b619a01b9c',
        '0x1.c71e2733bf062p-1'),
    (9, 5, 3, 'joint'): ('6ebf47f217cf097a243161305dbb6d8729c485c600ec5c9377e7d4999f29f202',
        '0x1.81e1783e426e9p-1'),
    (10, 7, 2, 'product'): ('62deed20a97027f638cfd09cc0d5fafe81c5053d5dc678bf3d8cab5d7aa08cc5',
        '0x1.2ecdd3220f980p-1'),
    (10, 7, 2, 'joint'): ('bc47e84632f8c109e0679bd0b244e971f2903c908c5c44e46bc0f831dab1e7d2',
        '0x1.30e234d9bde49p-1'),
    (11, 7, 4, 'product'): ('5a9642ee221834c9e9fd7ce2cc124a49e98590c564dd7ef6e5371ff47f25cf16',
        '0x1.e021e2a7d59d6p-1'),
    (11, 7, 4, 'joint'): ('a8aea134adaaf9c725ccecc7c7a1dc6918f7e2da3eb907706babb3dfcde3f31e',
        '0x1.d942717698b84p-1'),
    (12, 7, 3, 'product'): ('a1a97e44c4ae72c68df6348c2b18b75a419f1e3a09f7788129633f509dec3c3f',
        '0x1.c8e2c81df8c0cp-1'),
    (12, 7, 3, 'joint'): ('1dfce4705ebe5e1aadcd858c7d1886a4e62d8037e719a3040a0154f9339789e7',
        '0x1.f5f2b23e925f4p-1'),
    (5, 5, 2, 'product'): ('3ef8be5739c4b07bdd7db2904bf67ae97f205dd18ed4c7c83efd173967b01881',
        '0x1.af938042ed996p-1'),
    (7, 7, 3, 'joint'): ('eb4d0cdc2474230184452bb8f3aded8ca18efdfc7a0fd1511cae876a8212d0c2',
        '0x1.94c37be01c62cp-1'),
    (6, 3, 3, 'joint'): ('c8d4e1a26e2691b7b22d1ab08524f698cc41be569502820a44c49adb86238c3f',
        '0x1.c8f63351f1dc5p-1'),
    (8, 4, 4, 'product'): ('cd5dde725d013e469990f1f759ac2f4dc53ddf6d0a9bdf5e785ede8a5dee1b5e',
        '0x1.df5092ec37da5p-1'),
    (4, 1, 1, 'product'): ('5eeae1e68010d4055cad111348283085b55ac08e522f38c46a1aa6df1cdd1c7f',
        '0x1.49836e9f232a8p-1'),
    (9, 1, 1, 'joint'): ('df417ae5e6a7fe77f4ef2038e58c76f83c9175837ad3c21d9cde756d9cb5ce29',
        '0x1.2627602640a78p-1'),
}


def pinned_case(n, lm, l, form):
    rng = np.random.default_rng([n, lm, l, form == "joint"])
    m_e, m_p = random_code_pair(rng, n, lm, l)
    return random_channel(rng, n, form), m_e, m_p


class TestReduceCodeChannel:
    def _repetition_pair(self):
        # M_e = I_3 sends 3 bits; M_p = (1 1 1) hashes to 1 bit; the dual
        # pair is {000, 111} over the trivial coset, a 3-bit repetition code.
        return BitMatrix(3, 3, (1, 2, 4)), matrix_from_rows([[1, 1, 1]])

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

    @pytest.mark.parametrize("site", [
        {(0, 0): 1.5, (1, 1): -0.5}, {(0, 0): float("nan"), (0, 1): 1.0},
    ], ids=["negative", "nan"])
    def test_bad_site_law_rejected(self, site):
        m_e, m_p = self._repetition_pair()
        with pytest.raises(ValueError, match="site 1 law"):
            reduce_code_channel([{(0, 0): 1.0}, site, {(0, 0): 1.0}], m_e, m_p)

    @pytest.mark.parametrize("joint", [
        {(0, 0): 1.0, (0, 7): float("nan")}, {(0, 0): 1.25, (0, 7): -0.25},
    ], ids=["nan", "negative"])
    def test_bad_joint_law_rejected(self, joint):
        m_e, m_p = self._repetition_pair()
        with pytest.raises(ValueError, match="joint channel law"):
            reduce_code_channel(joint, m_e, m_p)

    @pytest.mark.parametrize("key", [(-1, 0), (0, 2)], ids=["negative", "two"])
    def test_site_key_outside_bits_rejected(self, key):
        m_e, m_p = self._repetition_pair()
        site = {(0, 0): 0.5, key: 0.5}
        with pytest.raises(ValueError, match=rf"site 1 key \({key[0]}, {key[1]}\)"):
            reduce_code_channel([{(0, 0): 1.0}, site, {(0, 0): 1.0}], m_e, m_p)

    @pytest.mark.parametrize("key", [(-1, 0), (0, -3), (8, 0), (1.5, 0)],
                             ids=["minus-one", "minus-three", "two-to-the-n", "fraction"])
    def test_joint_pattern_outside_words_rejected(self, key):
        # -1 and -3 would alias to 2^N - 1 and 2^N - 3, and 1.5 to 1; 2^N
        # would index past the table.
        m_e, m_p = self._repetition_pair()
        joint = {(0, 0): 0.5, key: 0.5}
        with pytest.raises(ValueError,
                           match=rf"joint channel pattern \({key[0]}, {key[1]}\) outside"):
            reduce_code_channel(joint, m_e, m_p)

    def test_site_keys_that_do_not_compare_rejected(self):
        # The first bad key is named; picking the least of (0, "a") and
        # (0, 2) would compare "a" with 2.
        m_e, m_p = self._repetition_pair()
        site = {(0, 0): 0.5, (0, "a"): 0.25, (0, 2): 0.25}
        with pytest.raises(ValueError, match=r"site 1 key \(0, 'a'\) outside"):
            reduce_code_channel([{(0, 0): 1.0}, site, {(0, 0): 1.0}], m_e, m_p)

    @pytest.mark.parametrize("key", [(0, 0, 0), (1,), ("a", 0)],
                             ids=["triple", "single", "non-numeric"])
    def test_joint_key_not_a_pattern_pair_rejected(self, key):
        m_e, m_p = self._repetition_pair()
        joint = {(0, 0): 0.5, key: 0.5}
        with pytest.raises(ValueError, match=rf"joint channel key {re.escape(repr(key))} is not"):
            reduce_code_channel(joint, m_e, m_p)

    def test_site_key_equal_to_a_bit_pair_accepted(self):
        # (1.0, 0) equals (1, 0), as a joint pattern 1.0 equals 1.
        m_e, m_p = self._repetition_pair()
        dist, pph = reduce_code_channel([{(0, 0): 0.8, (1.0, 0): 0.2}] * 3, m_e, m_p)
        want, want_pph = reduce_code_channel([{(0, 0): 0.8, (1, 0): 0.2}] * 3, m_e, m_p)
        assert dist.probs.tobytes() == want.probs.tobytes() and pph == want_pph

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
        m_e, m_p = random_code_pair(rng, n, lm, l)
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
        m_e, m_p = random_code_pair(rng, n, lm, l)
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
        m_e, m_p = random_code_pair(rng, n, n - 1, 2)
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

    @pytest.mark.parametrize("case", PINNED_LAW_CASES,
                             ids=["N{}-lm{}-l{}-{}".format(*c) for c in PINNED_LAW_CASES])
    def test_pinned_laws(self, case):
        dist, pph = reduce_code_channel(*pinned_case(*case))
        got = (hashlib.sha256(dist.probs.tobytes()).hexdigest(), float.hex(pph))
        assert got == PINNED_LAWS[case]

    def test_guard(self):
        m_e = BitMatrix(17, 17, tuple(1 << i for i in range(17)))
        m_p = matrix_from_rows([[1] * 17])
        with pytest.raises(CapacityError):
            reduce_code_channel([{(0, 0): 1.0}] * 17, m_e, m_p)

    def test_guard_edge_runs(self):
        rng = np.random.default_rng(16)
        n = REDUCE_GUARD_N
        m_e, m_p = random_code_pair(rng, n, 9, 3)
        dist, pph = reduce_code_channel(random_channel(rng, n, "product"), m_e, m_p)
        assert 0.0 < pph < 1.0
        assert abs(phase_error_probability(dist) - pph) <= 1e-12


# (N, lm, l) for the comparison with the per-shift loop; the last three
# are lm = N, l = lm and lm = 1.
TRANSITION_CASES = [(2, 1, 1), (5, 3, 2), (7, 4, 1), (8, 6, 3), (9, 5, 4), (10, 7, 2),
                    (6, 6, 2), (7, 3, 3), (8, 1, 1)]


@pytest.mark.parametrize("n,lm,l", TRANSITION_CASES)
def test_label_transitions_match_per_shift_loop(n, lm, l):
    """The coset histogram equals one bincount pass per shift, bit for bit,
    on both sides of the reduction."""
    rng = np.random.default_rng([n, lm, l])
    n_lab = 1 << l
    # Key side: the code Im M_e labelled by M_p, shifted by its own words.
    m_e, m_p = random_code_pair(rng, n, lm, l)
    gens, gen_labels = m_e.transpose().row_bits, m_p.transpose().row_bits
    got = _label_transitions(gens, gen_labels, lm, n, n_lab)
    words, labels = span_array(gens), span_array(gen_labels, dtype=np.uint32)
    want = per_shift_transitions(words, labels, n, n_lab,
                                 list(zip(words.tolist(), labels.tolist())))
    assert np.array_equal(got, want)
    # Phase side: k = N - lm shift generators with label 0 and l logical
    # generators with the inverse-Gray labels, as for C1perp in C2perp.
    k = n - lm
    basis = list(random_code_pair(rng, n, k + l, 1)[0].transpose().row_bits)
    gen_labels = [0] * k + [(2 << j) - 1 for j in range(l)]
    got = _label_transitions(basis, gen_labels, k, n, n_lab)
    words, labels = span_array(basis), span_array(gen_labels, dtype=np.uint32)
    want = per_shift_transitions(words, labels, n, n_lab,
                                 [(s, 0) for s in span_array(basis[:k]).tolist()])
    assert np.array_equal(got, want)


def label_laws(rng, n, l):
    """Random label laws ax, az on 2^n rows, about a third of entries zero."""
    ax, az = rng.dirichlet(np.ones(1 << l), size=(2, 1 << n))
    ax[rng.random(ax.shape) < 0.3] = 0.0
    az[rng.random(az.shape) < 0.3] = 0.0
    return ax, az


def assert_contraction_matches_loops(channel, n, ax, az):
    got_law, got_pph = _contract(*_normalize_channel(channel, n), ax, az)
    want_law, want_pph = contract_reference(channel, ax, az)
    assert (got_law.tobytes(), float.hex(got_pph)) == (want_law.tobytes(), float.hex(want_pph))


@pytest.mark.parametrize("n", range(1, 13))
def test_product_contraction_matches_site_loop(n):
    rng = np.random.default_rng([31, n])
    ax, az = label_laws(rng, n, 1 + n % 3)
    assert_contraction_matches_loops(random_channel(rng, n, "product"), n, ax, az)


@pytest.mark.parametrize("case", ["random", "repeated-ez", "zero-terms", "single-term"])
@pytest.mark.parametrize("n", [1, 4, 9])
def test_joint_contraction_matches_term_loop(case, n):
    rng = np.random.default_rng([37, n, len(case)])
    ax, az = label_laws(rng, n, 1 + n % 3)
    terms = 1 if case == "single-term" else 40
    ex = rng.integers(0, 1 << n, size=terms).tolist()
    ez = rng.integers(0, 1 << n, size=terms)
    if case == "repeated-ez":
        ez = rng.choice(ez[:3], size=terms)
    weights = rng.dirichlet(np.ones(terms))
    if case == "zero-terms":
        weights[rng.permutation(terms)[:terms // 2]] = 0.0
        weights /= weights.sum()
    channel = {}
    for key, w in zip(zip(ex, ez.tolist()), weights.tolist()):
        channel[key] = channel.get(key, 0.0) + w
    if case == "repeated-ez":
        assert len({z for _, z in channel}) < len(channel)
    assert_contraction_matches_loops(channel, n, ax, az)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_inverse_gray_labels(l):
    """The phase-side labels (2 << j) - 1 span the inverse Gray code, so the
    word at Gray index gray(i) = i ^ (i >> 1) carries label i."""
    labels = span_array([(2 << j) - 1 for j in range(l)])
    for i in range(1 << l):
        assert labels[i ^ (i >> 1)] == i


# ----------------------------------------------------------------------
# The whole logical law against an enumeration that labels the residual
# phase by its pattern on the final key.

# The worked example: M_e = I_4, M_p rows 0b0011 and 0b0110, so phase 0b0011
# is final-key bit 0 alone (z = 1) and 0b0110 bit 1 alone (z = 2).
EXAMPLE_M_E = np.eye(4, dtype=int).tolist()
EXAMPLE_M_P = [[1, 1, 0, 0], [0, 1, 1, 0]]
EXAMPLE_LAW = {(0, 0b0011): 0.5, (0, 0b0110): 0.3, (0, 0): 0.2}
EXAMPLE_ROW_0 = [0.2, 0.5, 0.3, 0.0]

# (N, lm, l, channel form), N <= 8 for the enumeration.
LAW_ORACLE_CASES = [(n, lm, l, form)
                    for n, lm, l in [(3, 2, 1), (4, 3, 2), (5, 5, 2), (6, 4, 3), (7, 3, 3),
                                     (7, 5, 2), (8, 6, 4), (8, 4, 2)]
                    for form in ("product", "joint")]

GRAY_LABELS = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="reduce_code_channel labels the phase by a Gray-order completion of C1perp "
           "to C2perp, not by its pattern on the final key (ROADMAP item 5)")


def law_oracle_case(n, lm, l, form):
    rng = np.random.default_rng([24, n, lm, l, form == "joint"])
    m_e, m_p = random_code_pair(rng, n, lm, l)
    return random_channel(rng, n, form), m_e, m_p


def test_law_oracle_worked_example():
    law, p_ph = logical_law_reference(EXAMPLE_LAW, matrix_from_rows(EXAMPLE_M_E),
                                      matrix_from_rows(EXAMPLE_M_P))
    np.testing.assert_allclose(law[0], EXAMPLE_ROW_0, atol=1e-15)
    assert p_ph == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("case", LAW_ORACLE_CASES, ids=str)
def test_law_oracle_matches_up_to_a_column_permutation(case):
    """The oracle and the library differ only in how they name the phase
    cosets: the same columns in another order, and the same p_ph."""
    channel, m_e, m_p = law_oracle_case(*case)
    law, p_ph = logical_law_reference(channel, m_e, m_p)
    dist, p_ph_lib = reduce_code_channel(channel, m_e, m_p)
    assert p_ph_lib == pytest.approx(p_ph, abs=1e-12)
    unused = list(range(law.shape[1]))
    for a in range(law.shape[1]):
        match = [b for b in unused if np.allclose(law[:, a], dist.probs[:, b], rtol=0, atol=1e-12)]
        assert match, f"column {a} has no match"
        unused.remove(match[0])


@GRAY_LABELS
def test_worked_example_phase_on_final_key():
    dist, _ = reduce_code_channel(EXAMPLE_LAW, matrix_from_rows(EXAMPLE_M_E),
                                  matrix_from_rows(EXAMPLE_M_P))
    np.testing.assert_allclose(dist.probs[0], EXAMPLE_ROW_0, atol=1e-15)


@GRAY_LABELS
def test_law_equals_oracle():
    for case in LAW_ORACLE_CASES:
        channel, m_e, m_p = law_oracle_case(*case)
        law, _ = logical_law_reference(channel, m_e, m_p)
        dist, _ = reduce_code_channel(channel, m_e, m_p)
        np.testing.assert_allclose(dist.probs, law, rtol=0, atol=1e-12, err_msg=str(case))
