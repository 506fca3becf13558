import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from renyiqnn import cli, swaptest
from renyiqnn.hamiltonians import (
    LCUHamiltonian,
    PauliTerm,
    normalize,
    pauli_tables,
    random_two_local,
)
from renyiqnn.models import (
    UQNNParams,
    build_uqnn,
    conjugated_generator_vec,
    uqnn_statevector,
    uqnn_visible_state,
)
from renyiqnn.states import DensityMatrix, haar_unitary, random_density_matrix, thermal_state
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
        u = haar_unitary(1, rng)
        expect = 0.5 * (1 + np.trace(u @ rho.mat).real)
        assert swap_test_probability(SwapTestSpec([rho], [u])) == pytest.approx(expect, abs=1e-12)

    def test_closed_form_on_non_commuting_corpus(self, rng):
        # registers and unitaries drawn independently; includes m = 2 registers
        for n, m in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            regs = [random_density_matrix(m, rng) for _ in range(n)]
            us = [haar_unitary(m, rng) for _ in range(n)]
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
        us = [haar_unitary(1, rng) for _ in range(3)]
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
        big = LCUHamiltonian(2, [PauliTerm(t.coeff * 30 / h.alpha_norm(), t.axes) for t in h.terms])
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

    def test_k_out_of_range(self, rng_factory):
        rng = rng_factory(43)
        p = build_uqnn(2, 0, rng)
        target = small_target(rng)
        with pytest.raises(IndexError):
            mc_reverse_gradient_thermal(p, target, len(p.generators) + 1, shots=10, rng=rng)
        with pytest.raises(IndexError):
            mc_reverse_gradient_thermal(p, target, 0, shots=10, rng=rng)


def reference_mc_gradient(p, target_h, k, shots, rng, q_max):
    """The per-shot row sampler that the labelled block sampler replaced.

    Every shot carries its own (perm, phase) rows of length d_v, composed
    gate by gate; all arrays span every shot at once.
    """
    terms = [t for t in target_h.terms if t.coeff != 0.0]
    alpha = np.array([t.coeff for t in terms])
    a1 = float(np.sum(np.abs(alpha)))
    dv = 2**p.n_v
    psi = uqnn_statevector(p)
    phi = conjugated_generator_vec(p, k)
    psi_m = psi.reshape(dv, -1)
    phi_m = phi.reshape(dv, -1)
    sv = psi_m @ psi_m.conj().T
    a_mat = phi_m @ psi_m.conj().T
    bs_den = [sv @ sv]
    bs_num = [a_mat @ sv, sv @ a_mat, a_mat.conj().T @ sv, sv @ a_mat.conj().T]
    idx_tab, cp_tab = pauli_tables(terms, p.n_v)
    cp_tab = np.where(alpha < 0.0, -1.0, 1.0)[:, None] * cp_tab
    p_idx = np.abs(alpha) / a1 if a1 > 0.0 else None
    orders = np.arange(q_max + 1)
    weights = a1**orders / np.array([math.factorial(q) for q in orders], dtype=float)
    t_mass = float(weights.sum())
    p_q = weights / t_mass
    tail = a1 ** (q_max + 1) / math.factorial(q_max + 1)

    def sample_traces(bs):
        t_vals = np.zeros((len(bs), shots), dtype=complex)
        qs = rng.choice(q_max + 1, size=shots, p=p_q)
        cols = np.arange(dv)[None, :]
        for q in np.unique(qs):
            rows = np.nonzero(qs == q)[0]
            if q == 0:
                for mi, b in enumerate(bs):
                    t_vals[mi, rows] = np.trace(b)
                continue
            picks = rng.choice(len(terms), size=(rows.size, int(q)), p=p_idx)
            perm = np.broadcast_to(np.arange(dv), (rows.size, dv)).copy()
            phase = np.ones((rows.size, dv), dtype=complex)
            for step in range(int(q)):
                ip = idx_tab[picks[:, step]]
                phase = cp_tab[picks[:, step]] * np.take_along_axis(phase, ip, axis=1)
                perm = np.take_along_axis(perm, ip, axis=1)
            for mi, b in enumerate(bs):
                t_vals[mi, rows] = np.sum(phase * b[cols, perm], axis=1)
        if float(np.max(np.abs(t_vals))) > 1.0 + 1e-9:
            raise ArithmeticError("sampled trace left the unit disc; not a valid shot probability")
        return t_vals

    t_den = sample_traces(bs_den)
    p_den = np.clip(0.5 * (1.0 + t_den[0].real), 0.0, 1.0)
    den_vals = np.where(rng.random(shots) < p_den, 1, -1)
    t_num = sample_traces(bs_num)
    p_num = np.clip(0.5 * (1.0 + t_num.imag), 0.0, 1.0)
    draws = np.where(rng.random((4, shots)) < p_num, 1, -1)
    num_vals = draws[0] + draws[1] - draws[2] - draws[3]
    # per-shot outcome sums in units of t_mass, reduced by the sampler's own statistics
    sums = [int(v.sum()) for v in (num_vals, num_vals**2, den_vals, den_vals**2)]
    mean, se = swaptest._ratio_stats(*sums, shots, t_mass)
    return MCEstimate(mean=mean, std_error=se, shots=shots, q_max=q_max, tail_bound=tail)


B = swaptest._BLOCK
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


def outcome(estimator, *args):
    """(mean, std_error, tail_bound), or the message of an exactly zero denominator."""
    try:
        est = estimator(*args)
    except ArithmeticError as exc:
        return str(exc)
    return est.mean, est.std_error, est.tail_bound


class TestLabelledSamplerBitIdentity:
    @pytest.mark.parametrize("nv,nh,q_max,norm,flip", SAMPLER_CASES)
    def test_matches_row_sampler(self, nv, nh, q_max, norm, flip):
        p, h = mc_pair(nv, nh, norm, flip, seed=100 * nv + 10 * nh + q_max)
        shot_counts = [1, 2, B - 1, B, B + 1] + ([10**5] if q_max == 30 else [])
        for i, shots in enumerate(shot_counts):
            k = 1 + i % len(p.generators)
            got_rng, ref_rng = np.random.default_rng(shots), np.random.default_rng(shots)
            got = outcome(mc_reverse_gradient_thermal, p, h, k, shots, got_rng, q_max)
            ref = outcome(reference_mc_gradient, p, h, k, shots, ref_rng, q_max)
            assert got == ref, shots
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state, shots


# Shot values of the sampler's numerator (u, the sum of four +-1 draws) and denominator (v, one draw).
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


def mc_2q_inputs():
    doc = cli.load_experiment_config(cli.bundled_config_path("mc_2q.json"), "mc-estimate")
    rng = np.random.default_rng(0)
    h = cli._target_hamiltonian(doc["n_v"], doc["target"], rng)
    target = cli._scale_alpha_norm(h, doc["target_alpha_norm"])
    return build_uqnn(doc["n_v"], doc["n_h"], rng), target, doc["q_max"]


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
        # orders, labels and the int8 numerator tally cost 1 byte a shot each, and the
        # shot indices of one expansion order 8 bytes a shot of that order; one float64
        # array per shot alone would add 8
        p, target, q_max = mc_2q_inputs()
        peaks = {}
        for shots in (2 * 10**5, 10**6):
            tracemalloc.start()
            try:
                mc_reverse_gradient_thermal(p, target, 1, shots, np.random.default_rng(1), q_max)
                peaks[shots] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[10**6] - peaks[2 * 10**5] <= 10 * 8 * 10**5

    def test_balanced_denominator_raises(self):
        # 15 of the 30 denominator outcomes are +1, so the denominator's mean is exactly 0
        # (a float mean of the +-t_mass shot values is a rounding residue of about 1e-18)
        p, target, q_max = mc_2q_inputs()
        with pytest.raises(ArithmeticError, match="exactly zero"):
            mc_reverse_gradient_thermal(p, target, 1, 30, np.random.default_rng(3962), q_max)

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

    def test_trace_outside_unit_disc_raises(self, monkeypatch):
        p, target, q_max = mc_2q_inputs()
        # a statevector of norm sqrt(3) gives a visible state of trace 3
        monkeypatch.setattr(swaptest, "uqnn_statevector", lambda p: math.sqrt(3.0) * uqnn_statevector(p))
        with pytest.raises(ArithmeticError, match="unit disc"):
            mc_reverse_gradient_thermal(p, target, 1, 1000, np.random.default_rng(2), q_max)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    k_entries=st.integers(1, 700),
    table_seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.3, 0.9]),
    decay=st.sampled_from([0.0, 0.5, 5.0, 50.0]),
    size=st.one_of(st.integers(0, 3 * B), st.tuples(st.integers(0, B + 1), st.integers(1, 6))),
    draw_seed=st.integers(0, 2**32 - 1),
)
@example(k_entries=1, table_seed=0, zero_share=0.0, decay=0.0, size=B, draw_seed=0)
@example(k_entries=700, table_seed=1, zero_share=0.0, decay=0.0, size=(B + 1, 3), draw_seed=1)
@example(k_entries=257, table_seed=2, zero_share=0.3, decay=50.0, size=0, draw_seed=2)
def test_inverse_cdf_equals_generator_choice(k_entries, table_seed, zero_share, decay, size, draw_seed):
    """The sampler's table lookup returns choice's indices and leaves the generator in choice's state."""
    # zero entries, and (decay) tails so small that the cdf reaches 1.0 long before the last entry
    t = np.random.default_rng(table_seed)
    w = t.random(k_entries) * np.exp(-decay * np.arange(k_entries)) * (t.random(k_entries) >= zero_share)
    w[t.integers(k_entries)] += 1.0
    p = w / w.sum()
    got_rng, ref_rng = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
    got = swaptest._inverse_cdf(p)(got_rng, size)
    ref = ref_rng.choice(k_entries, size=size, p=p)
    assert got.shape == ref.shape and np.array_equal(got, ref)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_inverse_cdf_counts_a_cdf_entry_equal_to_the_uniform():
    # choice returns cdf.searchsorted(u, side="right"): an entry equal to u counts; a random
    # uniform hits an entry with probability about 2^-53, so these uniforms are fixed
    p = np.array([0.25, 0.25, 0.0, 0.5])  # cdf 0.25, 0.5, 0.5, 1.0, exact in binary
    u = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(0.25, 0.0), np.nextafter(1.0, 0.0)])

    class FixedUniforms:
        def random(self, size):
            return u.reshape(size)

    got = swaptest._inverse_cdf(p)(FixedUniforms(), u.shape)
    assert got.tolist() == p.cumsum().searchsorted(u, side="right").tolist() == [0, 1, 3, 3, 0, 3]


class ChoiceForbidden:
    """A Generator whose choice raises; every other method is the wrapped generator's."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, *args, **kwargs):
        raise AssertionError("the sampler called Generator.choice")


@pytest.mark.parametrize("k,shots", [(1, 10**4), (8, B + 1)])
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
    shots=st.sampled_from([1, 2, B - 1, B, B + 1]),
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
    target = LCUHamiltonian(nv, [PauliTerm(t.coeff * norm / h.alpha_norm(), t.axes) for t in h.terms])
    k = data.draw(st.integers(1, len(p.generators)), label="k")
    try:
        est = mc_reverse_gradient_thermal(p, target, k, shots, np.random.default_rng(seed), q_max)
    except (ValueError, ArithmeticError):
        return
    assert est.shots == shots and est.q_max == q_max
    assert all(math.isfinite(x) for x in (est.mean, est.std_error, est.tail_bound))
