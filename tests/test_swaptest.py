import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from renyiqnn import cli, hamiltonians, swaptest
from renyiqnn.hamiltonians import (
    LCUHamiltonian,
    PauliTerm,
    normalize,
    pauli_tables,
    random_two_local,
)
from renyiqnn.models import UQNNParams, build_uqnn, conjugated_generator_vec, uqnn_statevector
from renyiqnn.states import DensityMatrix, haar_unitaries, random_density_matrix, thermal_state
from renyiqnn.swaptest import (
    MCEstimate,
    SwapTestSpec,
    cyclic_shift,
    mc_reverse_gradient_thermal,
    swap_test_probability,
    trace_power_estimate,
)
from renyiqnn.divergence import uqnn_grad_reverse
from tests.conftest import random_state_vec


def dm(mat: np.ndarray) -> DensityMatrix:
    return DensityMatrix.from_mat(np.asarray(mat, dtype=complex))


def pure(vec: np.ndarray) -> DensityMatrix:
    return DensityMatrix.from_mat(np.outer(vec, vec.conj()))


class TestCyclicShift:
    def test_single_register_is_identity(self):
        assert np.array_equal(cyclic_shift(1, 2), np.eye(4))

    def test_two_registers_is_swap(self):
        # literal SWAP on two single-qubit registers
        swap = np.array(
            [
                [1, 0, 0, 0],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        assert np.array_equal(cyclic_shift(2, 1), swap)

    def test_is_unitary_permutation(self):
        s = cyclic_shift(3, 2)
        assert np.max(np.abs(s.conj().T @ s - np.eye(64))) == 0.0
        assert np.array_equal(np.abs(s), np.abs(s) ** 2)  # entries are 0/1

    def test_conjugation_cycles_tensor_factors(self, rng):
        a = random_density_matrix(1, rng).mat
        b = random_density_matrix(1, rng).mat
        c = random_density_matrix(1, rng).mat
        s = cyclic_shift(3, 1)
        lhs = s @ np.kron(np.kron(a, b), c) @ s.conj().T
        rhs = np.kron(np.kron(c, a), b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_nth_power_is_identity(self):
        s = cyclic_shift(3, 1)
        assert np.allclose(np.linalg.matrix_power(s, 3), np.eye(8))
        assert not np.allclose(np.linalg.matrix_power(s, 2), np.eye(8))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            cyclic_shift(0, 1)
        with pytest.raises(ValueError):
            cyclic_shift(1, 0)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            cyclic_shift(7, 2)


class TestSwapTestProbability:
    def test_identical_pure_states_give_one(self, rng):
        v = random_state_vec(2, rng)
        spec = SwapTestSpec([pure(v), pure(v)], [np.eye(2)] * 2)
        assert swap_test_probability(spec) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_pair_gives_three_quarters(self):
        mixed = dm(np.eye(2) / 2)
        spec = SwapTestSpec([mixed, mixed], [np.eye(2)] * 2)
        # Tr((I/2)^2) = 1/2, so P(0) = (1 + 1/2)/2
        assert swap_test_probability(spec) == pytest.approx(0.75, abs=1e-12)

    def test_orthogonal_pure_states_give_half(self):
        zero = dm(np.diag([1.0, 0.0]))
        one = dm(np.diag([0.0, 1.0]))
        spec = SwapTestSpec([zero, one], [np.eye(2)] * 2)
        assert swap_test_probability(spec) == pytest.approx(0.5, abs=1e-12)

    def test_single_register_with_unitary(self, rng):
        # n = 1: P(0) = (1 + Re Tr(U rho)) / 2
        rho = random_density_matrix(1, rng)
        u = haar_unitaries(1, 1, rng)[0]
        expect = 0.5 * (1 + np.trace(u @ rho.mat).real)
        assert swap_test_probability(SwapTestSpec([rho], [u])) == pytest.approx(expect, abs=1e-12)

    def test_closed_form_on_non_commuting_corpus(self, rng):
        # registers and unitaries drawn independently; includes m = 2 registers
        for n, m in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            regs = [random_density_matrix(m, rng) for _ in range(n)]
            us = list(haar_unitaries(m, n, rng))
            prod = us[0] @ regs[0].mat
            for u, r in zip(us[1:], regs[1:]):
                prod = prod @ u @ r.mat
            expect = 0.5 * (1 + np.trace(prod).real)
            got = swap_test_probability(SwapTestSpec(regs, us))
            assert got == pytest.approx(expect, abs=1e-10)
            assert -1e-12 <= got <= 1 + 1e-12

    def test_trace_cycle_invariance(self, rng):
        # cycling (rho_i, U_i) pairs leaves the trace, hence P(0), unchanged
        regs = [random_density_matrix(1, rng) for _ in range(3)]
        us = list(haar_unitaries(1, 3, rng))
        p1 = swap_test_probability(SwapTestSpec(regs, us))
        p2 = swap_test_probability(SwapTestSpec(regs[1:] + regs[:1], us[1:] + us[:1]))
        assert p1 == pytest.approx(p2, abs=1e-12)


class TestSwapTestSpecValidation:
    def test_empty_registers(self):
        with pytest.raises(ValueError, match="register"):
            SwapTestSpec([], [])

    def test_unitaries_are_required(self, rng):
        with pytest.raises(TypeError, match="unitaries"):
            SwapTestSpec([random_density_matrix(1, rng)])

    def test_unitary_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="per register"):
            SwapTestSpec([random_density_matrix(1, rng)], [])

    def test_register_size_mismatch(self, rng):
        with pytest.raises(ValueError, match="differ"):
            SwapTestSpec(
                [random_density_matrix(1, rng), random_density_matrix(2, rng)],
                [np.eye(2), np.eye(4)],
            )

    def test_non_unitary_rejected(self, rng):
        with pytest.raises(ValueError, match="not unitary"):
            SwapTestSpec([random_density_matrix(1, rng)], [np.eye(2) * 1.001])

    def test_wrong_unitary_shape(self, rng):
        with pytest.raises(ValueError, match="shape"):
            SwapTestSpec([random_density_matrix(1, rng)], [np.eye(4)])


class TestMCEstimateValidation:
    def test_valid(self):
        MCEstimate(mean=0.5, std_error=0.01, shots=100, q_max=5, tail_bound=1e-9)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            MCEstimate(mean=0.0, std_error=0.0, shots=0, q_max=0)

    def test_rejects_negative_std_error(self):
        with pytest.raises(ValueError, match="std_error"):
            MCEstimate(mean=0.0, std_error=-1.0, shots=10, q_max=0)

    @pytest.mark.parametrize("name", ["mean", "std_error", "tail_bound"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, name, value):
        fields = {"mean": 0.5, "std_error": 0.01, "tail_bound": 1e-9} | {name: value}
        with pytest.raises(ValueError, match=f"non-finite {name}"):
            MCEstimate(shots=100, q_max=5, **fields)


class TestTracePowerEstimate:
    def test_pure_state_deterministic(self, rng):
        v = random_state_vec(2, rng)
        est = trace_power_estimate(pure(v), 3, shots=50, rng=rng)
        # Tr(rho^m) = 1 for pure rho: success probability is exactly 1
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_maximally_mixed_m2_within_four_se(self, rng_factory):
        rng = rng_factory(42)
        est = trace_power_estimate(dm(np.eye(2) / 2), 2, shots=10000, rng=rng)
        assert est.std_error > 0
        assert abs(est.mean - 0.5) < 4 * est.std_error

    def test_m1_unit_trace(self, rng):
        est = trace_power_estimate(random_density_matrix(2, rng), 1, shots=100, rng=rng)
        assert est.mean == 1.0

    def test_m3_mixed_within_four_se(self, rng_factory):
        rng = rng_factory(7)
        rho = dm(np.diag([0.5, 0.3, 0.15, 0.05]))
        truth = float(np.sum(np.diag(rho.mat).real ** 3))
        est = trace_power_estimate(rho, 3, shots=40000, rng=rng)
        assert abs(est.mean - truth) < 4 * est.std_error

    def test_argument_validation(self, rng):
        rho = random_density_matrix(1, rng)
        with pytest.raises(ValueError, match="power"):
            trace_power_estimate(rho, 0, shots=10, rng=rng)
        with pytest.raises(ValueError, match="shots"):
            trace_power_estimate(rho, 2, shots=0, rng=rng)


def small_target(rng, n=2, norm=0.8):
    h = random_two_local(n, 0.4, 0.4, rng)
    h = normalize(h, 1.0)
    return LCUHamiltonian(h.n_qubits, [PauliTerm(t.coeff * norm, t.axes) for t in h.terms])


class TestMCReverseGradient:
    def test_matches_exact_gradient_within_four_se(self, rng_factory):
        rng = rng_factory(11)
        p = build_uqnn(2, 0, rng)
        target = small_target(rng)
        rho = thermal_state(target)
        exact = uqnn_grad_reverse(p, rho)
        k = 3
        est = mc_reverse_gradient_thermal(p, target, k, shots=100000, rng=rng_factory(99))
        assert est.std_error > 0
        assert abs(est.mean - exact[k - 1]) < 4 * est.std_error

    def test_negative_coefficients_supported(self, rng_factory):
        rng = rng_factory(13)
        p = build_uqnn(2, 0, rng)
        h = small_target(rng)
        flipped = LCUHamiltonian(h.n_qubits, [PauliTerm(-abs(t.coeff), t.axes) for t in h.terms])
        rho = thermal_state(flipped)
        exact = uqnn_grad_reverse(p, rho)
        est = mc_reverse_gradient_thermal(p, flipped, 1, shots=100000, rng=rng_factory(5))
        assert abs(est.mean - exact[0]) < 4 * est.std_error

    def test_hidden_units_supported(self, rng_factory):
        rng = rng_factory(17)
        p = build_uqnn(1, 1, rng)
        target = small_target(rng, n=1, norm=0.5)
        rho = thermal_state(target)
        exact = uqnn_grad_reverse(p, rho)
        k = 2
        est = mc_reverse_gradient_thermal(p, target, k, shots=100000, rng=rng_factory(23))
        assert abs(est.mean - exact[k - 1]) < 4 * est.std_error

    def test_zero_target_supported(self, rng_factory):
        # no nonzero term: every shot draws order 0, the identity label
        rng = rng_factory(19)
        p = build_uqnn(2, 1, rng)
        zero = LCUHamiltonian(2, [PauliTerm(0.0, ((0, "z"),))])
        exact = uqnn_grad_reverse(p, thermal_state(zero))
        est = mc_reverse_gradient_thermal(p, zero, 2, shots=100000, rng=rng_factory(29))
        assert est.std_error > 0 and abs(est.mean - exact[1]) < 4 * est.std_error

    def test_se_scales_with_shots(self, rng_factory):
        rng = rng_factory(31)
        p = build_uqnn(2, 0, rng)
        target = small_target(rng)
        ses = []
        for shots, seed in [(50000, 1), (200000, 2)]:
            est = mc_reverse_gradient_thermal(p, target, 2, shots=shots, rng=rng_factory(seed))
            ses.append(est.std_error)
        # quadrupling the shots halves the standard error, within 20 percent
        assert ses[0] / ses[1] == pytest.approx(2.0, rel=0.2)

    def test_tail_bound_reported(self, rng_factory):
        rng = rng_factory(37)
        p = build_uqnn(2, 0, rng)
        target = small_target(rng)
        est = mc_reverse_gradient_thermal(p, target, 1, shots=1000, rng=rng_factory(3), q_max=5)
        assert est.q_max == 5
        assert est.tail_bound > 0

    def test_alpha_norm_guard(self, rng_factory):
        rng = rng_factory(41)
        p = build_uqnn(2, 0, rng)
        h = random_two_local(2, 1.0, 1.0, rng)
        big = LCUHamiltonian(2, [PauliTerm(t.coeff * 30 / swaptest._series_terms(h)[2], t.axes) for t in h.terms])
        with pytest.raises(ValueError, match="norm"):
            mc_reverse_gradient_thermal(p, big, 1, shots=10, rng=rng)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected_before_sampling(self, rng_factory, bad):
        rng = rng_factory(47)
        p = build_uqnn(2, 0, rng)
        h = small_target(rng)
        terms = [PauliTerm(bad, h.terms[0].axes), *h.terms[1:]]
        shot_rng = rng_factory(5)
        before = shot_rng.bit_generator.state
        with pytest.raises(ValueError, match="finite"):
            mc_reverse_gradient_thermal(p, LCUHamiltonian(2, terms), 1, shots=10, rng=shot_rng)
        assert shot_rng.bit_generator.state == before

    def test_estimate_leaves_the_block_products_of_the_model_as_found(self, rng_factory):
        rng = rng_factory(53)
        p = build_uqnn(2, 1, rng)
        target = small_target(rng)
        mc_reverse_gradient_thermal(p, target, 1, shots=1000, rng=rng_factory(5))
        assert p._products is None
        uqnn_statevector(p)
        cached = p._products
        mc_reverse_gradient_thermal(p, target, 2, shots=1000, rng=rng_factory(6))
        assert p._products is cached

    def test_member_stack_and_wide_visible_register_rejected(self, rng_factory):
        rng = rng_factory(59)
        p = build_uqnn(2, 0, rng)
        stacked = UQNNParams(2, 0, p.generators, np.stack([p.thetas, p.thetas]))
        with pytest.raises(ValueError, match="one network of at most 8 visible qubits"):
            mc_reverse_gradient_thermal(stacked, small_target(rng), 1, shots=10, rng=rng)
        wide = build_uqnn(9, 0, rng)
        target = LCUHamiltonian(9, [PauliTerm(0.5, ((0, "z"),))])
        with pytest.raises(ValueError, match="one network of at most 8 visible qubits"):
            mc_reverse_gradient_thermal(wide, target, 1, shots=10, rng=rng)

    def test_k_out_of_range(self, rng_factory):
        rng = rng_factory(43)
        p = build_uqnn(2, 0, rng)
        target = small_target(rng)
        with pytest.raises(IndexError):
            mc_reverse_gradient_thermal(p, target, len(p.generators) + 1, shots=10, rng=rng)
        with pytest.raises(IndexError):
            mc_reverse_gradient_thermal(p, target, 0, shots=10, rng=rng)


def enumerated_net_law(p):
    """Law of the first half of the Bernoulli rows p (2r, L) minus the second half on -r..r, over all joint outcomes."""
    r = len(p) // 2
    law = np.zeros((p.shape[1], 2 * r + 1))
    for bits in itertools.product((0, 1), repeat=2 * r):
        prob = np.prod([pi if b else 1.0 - pi for pi, b in zip(p, bits)], axis=0)
        law[:, sum(bits[:r]) - sum(bits[r:]) + r] += prob
    return law


def row_labels(picks, terms, n):
    """Label i^e X^x Z^z of the product terms[picks[r, 0]] ... terms[picks[r, -1]] of each row r, from dense rows.

    Every row carries its own (perm, phase) rows of length 2^n, composed
    string by string, with the coefficient signs folded into the phases;
    the label is read off the composed rows.
    """
    alpha = np.array([t.coeff for t in terms])
    idx_tab, cp_tab = pauli_tables(terms, n)[:2]
    cp_tab = np.where(alpha < 0.0, -1.0, 1.0)[:, None] * cp_tab
    dv = 2**n
    perm = np.broadcast_to(np.arange(dv), (len(picks), dv)).copy()
    phase = np.ones((len(picks), dv), dtype=complex)
    for step in range(picks.shape[1]):
        ip = idx_tab[picks[:, step]]
        phase = cp_tab[picks[:, step]] * np.take_along_axis(phase, ip, axis=1)
        perm = np.take_along_axis(perm, ip, axis=1)
    # U|j> = i^e (-1)^|z & j| |j ^ x>: x from perm[0], e from phase[0], z from the single-bit columns
    e = np.rint(np.angle(phase[:, 0]) / (np.pi / 2)).astype(np.int64) & 3
    z = sum(((phase[:, 1 << b] * phase[:, 0].conj()).real < 0).astype(np.int64) << b for b in range(n))
    return perm[:, 0] << (n + 2) | z << 2 | e


def reference_probabilities(p, k, counts_den, counts_num):
    """Shot success probabilities per label that occurs, each trace summed over the label's dense (perm, phase) rows.

    Returns p_den (L,) and p_num over the 4^(n_v+1) labels, 0.5 at the labels no shot drew. p_num has
    four rows, B1 = A sv, B2 = sv A, B3 = A^dag sv and B4 = sv A^dag, or at n_h = 0 only B1 and B4.
    """
    dv = 2**p.n_v
    psi_m = uqnn_statevector(p).reshape(dv, -1)
    phi_m = conjugated_generator_vec(p, k).reshape(dv, -1)
    sv = psi_m @ psi_m.conj().T
    a_mat = phi_m @ psi_m.conj().T
    bs_den = [sv @ sv]
    bs_num = [a_mat @ sv, sv @ a_mat, a_mat.conj().T @ sv, sv @ a_mat.conj().T]

    def traces(counts, bs):
        lab = np.flatnonzero(counts)[:, None]
        j = np.arange(dv)[None, :]
        perm = j ^ (lab >> (p.n_v + 2))
        phase = (1j ** (lab & 3)) * np.where(hamiltonians._parity(j & (lab >> 2) & (dv - 1)) == 1, -1.0, 1.0)
        t_lab = np.zeros((len(bs), len(counts)), dtype=complex)
        for mi, b in enumerate(bs):
            t_lab[mi, lab[:, 0]] = np.sum(phase * b[j, perm], axis=1)
        return t_lab

    p_den = np.clip(0.5 * (1.0 + traces(counts_den, bs_den)[0].real), 0.0, 1.0)
    p_num = np.clip(0.5 * (1.0 + traces(counts_num, bs_num).imag), 0.0, 1.0)
    if p.n_h == 0:
        # sv A = <psi|phi> sv with <psi|phi> real: B2 and B3 share every success probability
        assert np.max(np.abs(p_num[1] - p_num[2])) <= 1e-15
        p_num = p_num[[0, 3]]
    return p_den, p_num


def reference_tallies(target_h, p_den, net_law, counts_den, counts_num, shots, rng, q_max):
    """The outcome draws, given the label counts and laws: the arguments the estimator passes to _ratio_stats.

    The outcomes are drawn over the full label vector, in label order: one
    binomial for the denominator and one multinomial over the law of the
    numerator's added rows minus its subtracted rows on -r..r, whose shot
    value is twice that.
    """
    a1 = float(np.sum(np.abs([t.coeff for t in target_h.terms if t.coeff != 0.0])))
    orders = np.arange(q_max + 1)
    t_mass = float(np.sum(a1**orders / np.array([math.factorial(q) for q in orders], dtype=float)))
    n_plus = int(rng.binomial(counts_den, p_den).sum())
    hist = [int(c) for c in rng.multinomial(counts_num, net_law).sum(axis=0)]
    return (*tallies(range(1 - len(hist), len(hist), 2), hist), 2 * n_plus - shots, shots, shots, t_mass)


# n_v, n_h, q_max, alpha norm, make every coefficient negative
SAMPLER_CASES = [
    (nv, nh, q_max, norm, flip)
    for nv in (1, 2, 3)
    for nh in (0, 1)
    for q_max, norm, flip in ((0, 0.8, False), (5, 2.0, True), (30, 0.8, False))
]


def mc_pair(nv, nh, norm, flip, seed):
    rng = np.random.default_rng(seed)
    p = build_uqnn(nv, nh, rng)
    h = small_target(rng, n=nv, norm=norm)
    if flip:
        h = LCUHamiltonian(h.n_qubits, [PauliTerm(-abs(t.coeff), t.axes) for t in h.terms])
    return p, h


@pytest.mark.parametrize("nv", [1, 2])
@pytest.mark.parametrize("flip", [False, True])
def test_label_laws_equal_the_enumerated_products(nv, flip):
    # every pick sequence up to order 3, weighted by its probability and labelled by dense rows: with
    # one-hot weights the mixture law is one order's law, with the series weights of q_max = 3 their mixture
    _, h = mc_pair(nv, 0, 0.8, flip, seed=nv)
    terms, alpha, a1 = swaptest._series_terms(h)
    laws = []
    for q in range(4):
        seqs = list(itertools.product(range(len(terms)), repeat=q))
        picks = np.array(seqs, dtype=np.intp).reshape(len(seqs), q)
        prob = np.prod((np.abs(alpha) / a1)[picks], axis=1)
        laws.append(np.bincount(row_labels(picks, terms, nv), weights=prob, minlength=4 ** (nv + 1)))
    series = a1 ** np.arange(4) / np.array([1.0, 1.0, 2.0, 6.0])
    for c in [*np.eye(4), series / series.sum()]:
        law = swaptest._label_law(terms, alpha / a1, nv, c)
        assert law.shape == (4 ** (nv + 1),)
        want = sum(cq * lq for cq, lq in zip(c, laws))
        assert np.max(np.abs(law - want)) <= 1e-15, c


class OutcomeRecorder:
    """A Generator that keeps the label counts and laws its outcome draws take, and its state before them.

    The estimator's binomial is its first outcome draw; the numerator's multinomial over
    the outcome law is its last multinomial.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def binomial(self, n, p):
        self.counts_den, self.p_den, self.state = n, p, self._rng.bit_generator.state
        return self._rng.binomial(n, p)

    def multinomial(self, n, pvals, size=None):
        self.counts_num, self.net_law = n, pvals
        return self._rng.multinomial(n, pvals, size)


@pytest.mark.parametrize("nv,nh,q_max,norm,flip", SAMPLER_CASES)
def test_outcome_stage_matches_the_reference(monkeypatch, nv, nh, q_max, norm, flip):
    # the outcome laws of every label drawn agree with the dense-row traces and the enumerated net law
    # to rounding; given the estimator's counts and laws, the reference's draws give bit-identical tallies
    p, h = mc_pair(nv, nh, norm, flip, seed=100 * nv + 10 * nh + q_max)
    seen = []
    monkeypatch.setattr(swaptest, "_ratio_stats", lambda *a: seen.append(a) or (0.0, 0.0))
    for i, shots in enumerate([1, 2, 1000, 10**5]):
        k = 1 + i % len(p.generators)
        rec = OutcomeRecorder(np.random.default_rng(shots))
        mc_reverse_gradient_thermal(p, h, k, shots, rec, q_max)
        assert rec.counts_den.sum() == rec.counts_num.sum() == shots
        want_den, want_num = reference_probabilities(p, k, rec.counts_den, rec.counts_num)
        assert np.max(np.abs(rec.p_den - want_den)[rec.counts_den > 0]) <= 1e-15, shots
        assert np.max(np.abs(rec.net_law - enumerated_net_law(want_num))[rec.counts_num > 0]) <= 1e-15, shots
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = rec.state
        got = reference_tallies(h, rec.p_den, rec.net_law, rec.counts_den, rec.counts_num, shots, ref_rng, q_max)
        assert got == seen[-1], shots
        assert ref_rng.bit_generator.state == rec.bit_generator.state, shots


@pytest.mark.parametrize("rows", [2, 4])
def test_net_law_equals_the_enumerated_outcomes(rows):
    rng = np.random.default_rng(7)
    p = rng.random((rows, 400))
    # certain and impossible outcomes in every row, and columns made of them alone
    p[rng.random(p.shape) < 0.2] = 0.0
    p[rng.random(p.shape) < 0.2] = 1.0
    p[:, : 2**rows] = np.array(list(itertools.product((0.0, 1.0), repeat=rows))).T
    law = swaptest._net_law(p)
    assert law.shape == (400, rows + 1)
    assert np.max(np.abs(law - enumerated_net_law(p))) <= 1e-15


def test_estimates_pool_to_a_unit_normal_around_the_exact_gradient():
    # 200 estimates at 2e4 shots: the z-scores against the exact gradient sum to N(0, 200)
    # and spread as a unit normal
    p, target, q_max = mc_2q_inputs()
    exact = uqnn_grad_reverse(p, thermal_state(target))
    z = []
    for seed in range(200):
        k = 1 + seed % len(p.generators)
        est = mc_reverse_gradient_thermal(p, target, k, 2 * 10**4, np.random.default_rng(seed), q_max)
        z.append((est.mean - exact[k - 1]) / est.std_error)
    assert abs(sum(z)) / math.sqrt(200) <= 4
    assert 0.8 <= np.std(z, ddof=1) <= 1.2


def test_estimates_with_a_hidden_qubit_pool_to_a_unit_normal():
    # as above on a 2v+1h model, where the numerator pair B2 - B3 carries signal:
    # dropping it there biases the pooled z-score
    p, target, q_max = mc_2q_inputs(n_h=1)
    exact = uqnn_grad_reverse(p, thermal_state(target))
    z = []
    for seed in range(200):
        k = 1 + seed % len(p.generators)
        est = mc_reverse_gradient_thermal(p, target, k, 2 * 10**4, np.random.default_rng(seed), q_max)
        z.append((est.mean - exact[k - 1]) / est.std_error)
    assert abs(sum(z)) / math.sqrt(200) <= 4
    assert 0.8 <= np.std(z, ddof=1) <= 1.2


# Shot values of the sampler's numerator (u, the signed sum of four +-1 draws, two at n_h = 0) and
# denominator (v, one draw).
U_VALUES, V_VALUES = (-4, -2, 0, 2, 4), (-1, 1)
# mean: five roundings (two divisions by n, two products with the scale, the ratio);
# std_error: the integer division, halved by the square root, then the root itself
MEAN_TOL, SE_TOL = 5 * 2.0**-53, 1.5 * 2.0**-53


def tallies(values, counts):
    """S and SS of a shot sample given as a histogram."""
    return sum(x * c for x, c in zip(values, counts)), sum(x * x * c for x, c in zip(values, counts))


def ratio_stats_mp(s_u, ss_u, s_v, ss_v, n, scale):
    """Mean and std_error of mean(scale u) / mean(scale v) by the textbook formulas, in 50 digits."""
    with mp.workdps(50):
        scale = mp.mpf(scale)
        n_bar, d_bar = scale * s_u / n, scale * s_v / n
        if n == 1:
            return n_bar / d_bar, mp.mpf(0)
        var_u = scale**2 * (ss_u - mp.mpf(s_u) ** 2 / n) / (n - 1)
        var_v = scale**2 * (ss_v - mp.mpf(s_v) ** 2 / n) / (n - 1)
        se2 = var_u / n / d_bar**2 + n_bar**2 * (var_v / n) / d_bar**4
        return n_bar / d_bar, mp.sqrt(se2)


def assert_close(got, exact, tol):
    with mp.workdps(50):
        if exact == 0:
            assert got == 0.0
        else:
            assert abs((mp.mpf(got) - exact) / exact) <= tol, (got, exact)


class TestRatioStatsOracle:
    """The sampler's integer-tally statistics against a 50-digit evaluation of the exact formulas."""

    def check(self, u_counts, v_counts, scale):
        n = sum(u_counts)
        assert sum(v_counts) == n
        args = (*tallies(U_VALUES, u_counts), *tallies(V_VALUES, v_counts), n, scale)
        mean, se = swaptest._ratio_stats(*args)
        exact_mean, exact_se = ratio_stats_mp(*args)
        assert_close(mean, exact_mean, MEAN_TOL)
        assert_close(se, exact_se, SE_TOL)

    def test_random_tallies(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            n = int(10 ** rng.uniform(0.5, 12))
            u_counts = [int(c) for c in rng.multinomial(n, rng.dirichlet(np.ones(5)))]
            n_plus = int(rng.binomial(n, rng.uniform()))
            if 2 * n_plus == n:
                continue
            self.check(u_counts, [n - n_plus, n_plus], float(np.exp(rng.uniform(0.0, 20.0))))

    def test_sampler_tallies(self, monkeypatch):
        # the tallies of real estimates, mc_2q seeds 0, 1 and 3
        seen = []
        monkeypatch.setattr(swaptest, "_ratio_stats", lambda *a: seen.append(a) or (0.0, 0.0))
        p, target, q_max = mc_2q_inputs()
        for seed in (0, 1, 3):
            mc_reverse_gradient_thermal(p, target, 1, 10**5, np.random.default_rng(seed), q_max)
        monkeypatch.undo()
        for args in seen:
            mean, se = swaptest._ratio_stats(*args)
            exact_mean, exact_se = ratio_stats_mp(*args)
            assert_close(mean, exact_mean, MEAN_TOL)
            assert_close(se, exact_se, SE_TOL)

    def test_tallies_of_a_trillion_shots(self, monkeypatch):
        # the cost does not grow with the shots; the tallies stay Python ints, so the statistics stay exact
        seen = []
        ratio_stats = swaptest._ratio_stats
        monkeypatch.setattr(swaptest, "_ratio_stats", lambda *a: seen.append(a) or ratio_stats(*a))
        p, target, q_max = mc_2q_inputs()
        est = mc_reverse_gradient_thermal(p, target, 1, 10**12, np.random.default_rng(0), q_max)
        assert math.isfinite(est.mean) and 0.0 < est.std_error < 1e-5
        (args,) = seen
        assert all(type(a) is int for a in args[:5])
        exact_mean, exact_se = ratio_stats_mp(*args)
        assert_close(est.mean, exact_mean, MEAN_TOL)
        assert_close(est.std_error, exact_se, SE_TOL)

    @pytest.mark.parametrize(
        "u_counts,v_counts",
        [
            ([0, 0, 0, 0, 1], [0, 1]),  # one shot: no sample std
            ([1, 0, 0, 0, 0], [1, 0]),
            ([0, 1, 0, 0, 1], [0, 2]),  # two shots
            ([0, 0, 0, 0, 7], [0, 7]),  # all outcomes equal: std_error exactly 0
            ([0, 0, 9, 0, 0], [9, 0]),
            ([0, 0, 0, 0, 10**15], [0, 10**15]),  # largest |S|: every shot at its extreme
            ([10**15, 0, 0, 0, 0], [0, 10**15]),
            ([0, 0, 0, 1, 10**15 - 1], [1, 10**15 - 1]),  # largest |S| with a nonzero spread
        ],
    )
    def test_edges(self, u_counts, v_counts):
        self.check(u_counts, v_counts, 2.2255409284924674)

    @pytest.mark.parametrize("n", [2, 30, 10**6])
    def test_zero_denominator_raises(self, n):
        s_u, ss_u = tallies(U_VALUES, [0, 0, n // 2, 0, n - n // 2])
        with pytest.raises(ArithmeticError, match="exactly zero"):
            swaptest._ratio_stats(s_u, ss_u, 0, n, n, 1.5)


def mc_2q_inputs(n_h=None):
    """The mc_2q model, target and series cutoff; n_h, if given, replaces the config's hidden qubit count."""
    doc = cli.load_experiment_config(cli.bundled_config_path("mc_2q.json"), "mc-estimate")
    rng = np.random.default_rng(0)
    h = cli._target_hamiltonian(doc["n_v"], doc["target"], rng)
    target = cli._scale_alpha_norm(h, doc["target_alpha_norm"])
    return build_uqnn(doc["n_v"], doc["n_h"] if n_h is None else n_h, rng), target, doc["q_max"]


class TestSamplerMemoryAndFailures:
    def test_million_shots_peak_under_32_mb(self):
        p, target, q_max = mc_2q_inputs()
        tracemalloc.start()
        try:
            est = mc_reverse_gradient_thermal(p, target, 1, 10**6, np.random.default_rng(1), q_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.std_error > 0
        # the row sampler peaked at about 195 MB; per-shot arrays are now a few bytes
        assert peak < 32 * 2**20

    def test_no_float_array_grows_with_shots(self):
        # label counts are one multinomial per stream and outcomes are drawn per label,
        # so no array spans the shots; one float64 array per shot alone would add 8 bytes a shot
        p, target, q_max = mc_2q_inputs()
        peaks = {}
        for shots in (2 * 10**5, 10**6):
            tracemalloc.start()
            try:
                mc_reverse_gradient_thermal(p, target, 1, shots, np.random.default_rng(1), q_max)
                peaks[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**6] - peaks[2 * 10**5] <= 6 * 8 * 10**5

    def test_balanced_denominator_raises(self):
        # 15 of the 30 denominator outcomes are +1, so the denominator's mean is exactly 0
        # (a float mean of the +-t_mass shot values is a rounding residue of about 1e-18)
        p, target, q_max = mc_2q_inputs()
        with pytest.raises(ArithmeticError, match="exactly zero"):
            mc_reverse_gradient_thermal(p, target, 1, 30, np.random.default_rng(403), q_max)

    @pytest.mark.parametrize("q_max", [170, 200])
    def test_series_cutoff_past_the_float_factorial_is_rejected(self, q_max):
        # the weights would need 171! as a float
        p, target, _ = mc_2q_inputs()
        with pytest.raises(ValueError, match="q_max must be in 0..169"):
            mc_reverse_gradient_thermal(p, target, 1, 10, np.random.default_rng(0), q_max)

    def test_largest_series_cutoff_runs(self):
        p, target, _ = mc_2q_inputs()
        est = mc_reverse_gradient_thermal(p, target, 1, 1000, np.random.default_rng(0), 169)
        assert est.q_max == 169 and math.isfinite(est.mean) and est.tail_bound >= 0.0

    def test_series_cutoff_zero_draws_only_the_identity_label(self):
        # every shot draws order 0, the identity label; on mc_2q's target the transform-built law
        # reads 1 + 2e-16 there, which the multinomial refuses unless the law is clipped into [0, 1]
        p, target, _ = mc_2q_inputs()
        rec = OutcomeRecorder(np.random.default_rng(0))
        est = mc_reverse_gradient_thermal(p, target, 1, 10**5, rec, 0)
        assert rec.counts_den[0] == rec.counts_num[0] == 10**5 and est.q_max == 0

    def test_trace_outside_unit_disc_raises(self, monkeypatch):
        p, target, q_max = mc_2q_inputs()
        # a statevector of norm sqrt(3) gives a visible state of trace 3
        monkeypatch.setattr(swaptest, "uqnn_statevector", lambda p: math.sqrt(3.0) * uqnn_statevector(p))
        with pytest.raises(ArithmeticError, match="unit disc"):
            mc_reverse_gradient_thermal(p, target, 1, 1000, np.random.default_rng(2), q_max)


class ChoiceForbidden:
    """A Generator whose choice raises; every other method is the wrapped generator's."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, *args, **kwargs):
        raise AssertionError("the sampler called Generator.choice")


@pytest.mark.parametrize("k,shots", [(1, 10**4), (8, 16385)])
def test_sampler_draws_without_generator_choice(k, shots):
    p, target, q_max = mc_2q_inputs()
    got_rng, ref_rng = np.random.default_rng(k), np.random.default_rng(k)
    got = mc_reverse_gradient_thermal(p, target, k, shots, ChoiceForbidden(got_rng), q_max)
    ref = mc_reverse_gradient_thermal(p, target, k, shots, ref_rng, q_max)
    assert got == ref and got.std_error > 0
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    nv=st.integers(1, 3),
    nh=st.integers(0, 1),
    shots=st.sampled_from([1, 2, 30, 16385, 10**12]),
    q_max=st.integers(0, swaptest._Q_MAX_CAP),
    norm=st.floats(0.0, swaptest.ALPHA_NORM_GUARD),
    flip=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_every_valid_estimate_is_finite_or_fails_typed(nv, nh, shots, q_max, norm, flip, seed, data):
    """Over the estimator's valid domain: an estimate with finite fields, a ValueError or an ArithmeticError."""
    p, h = mc_pair(nv, nh, 1.0, flip, seed)
    # the drawn l1 norm up to rounding, 0 included
    l1 = sum(abs(t.coeff) for t in h.terms)
    target = LCUHamiltonian(nv, [PauliTerm(t.coeff * norm / l1, t.axes) for t in h.terms])
    k = data.draw(st.integers(1, len(p.generators)), label="k")
    try:
        est = mc_reverse_gradient_thermal(p, target, k, shots, np.random.default_rng(seed), q_max)
    except (ValueError, ArithmeticError):
        return
    assert est.shots == shots and est.q_max == q_max
    assert all(math.isfinite(x) for x in (est.mean, est.std_error, est.tail_bound))
