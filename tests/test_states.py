import math

import numpy as np
import pytest

from renyiqnn.hamiltonians import LCUHamiltonian, PauliTerm, normalize, random_three_local, random_two_local
from renyiqnn.states import (
    DensityMatrix,
    entanglement_entropy,
    fidelity,
    haar_unitary,
    random_density_matrix,
    thermal_state,
)
from tests.conftest import random_state_vec


def pure(vec: np.ndarray) -> DensityMatrix:
    return DensityMatrix.from_mat(np.outer(vec, vec.conj()))


class TestDensityMatrixValidation:
    def test_accepts_valid(self, rng):
        random_density_matrix(2, rng).validate()

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix.from_mat(m).validate()

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_mat(np.eye(2, dtype=complex)).validate()

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix.from_mat(np.diag([1.5, -0.5]).astype(complex)).validate()

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            DensityMatrix.from_mat(np.eye(3, dtype=complex) / 3)

    def test_stack_validates_member_by_member(self, rng):
        stack = np.stack([random_density_matrix(2, rng).mat for _ in range(3)])
        DensityMatrix(2, stack).validate()
        stack[1] *= 1.5
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, stack).validate()

    @pytest.mark.parametrize("members", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_from_mat_reads_a_member_stack(self, rng, members, n):
        stack = np.stack([random_density_matrix(n, rng).mat for _ in range(members)])
        state = DensityMatrix.from_mat(stack)
        assert state.n_qubits == n and np.array_equal(state.mat, stack)

    def test_purity(self, rng):
        v = random_state_vec(4, rng)
        assert abs(pure(v).purity() - 1.0) < 1e-12
        assert abs(DensityMatrix.from_mat(np.eye(4, dtype=complex) / 4).purity() - 0.25) < 1e-12


class TestThermalState:
    def test_zero_hamiltonian_is_maximally_mixed(self):
        out = thermal_state(LCUHamiltonian(3, []))
        assert np.allclose(out.mat, np.eye(8) / 8)

    def test_ln2_sigma_z(self):
        # e^{-ln2} : e^{+ln2} = 1/2 : 2, normalized to diag(1/5, 4/5)
        h = LCUHamiltonian(1, [PauliTerm(math.log(2), ((0, "z"),))])
        assert np.allclose(thermal_state(h).mat, np.diag([0.2, 0.8]), atol=1e-12)

    def test_half_ln2_sigma_z(self):
        # ratio e^{-ln2/2} : e^{+ln2/2} = 1 : 2, i.e. diag(1/3, 2/3)
        h = LCUHamiltonian(1, [PauliTerm(math.log(2) / 2, ((0, "z"),))])
        assert np.allclose(thermal_state(h).mat, np.diag([1 / 3, 2 / 3]), atol=1e-12)

    def test_unit_trace_and_full_rank(self, rng):
        for _ in range(5):
            rho = thermal_state(random_two_local(3, 0.5, 0.5, rng))
            assert abs(np.trace(rho.mat) - 1) < 1e-10
            assert np.linalg.eigvalsh(rho.mat).min() > 0

    def test_huge_norm_gives_unit_trace_state(self, rng):
        # the exponent is shifted by the smallest eigenvalue, so no norm overflows;
        # the far end of the spectrum underflows to exact zeros
        rho = thermal_state(normalize(random_two_local(2, 0.5, 0.5, rng), 750.0))
        assert np.trace(rho.mat).real == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(rho.mat))
        h = LCUHamiltonian(1, [PauliTerm(800.0, ((0, "z"),))])
        assert np.array_equal(thermal_state(h).mat, np.diag([0.0, 1.0]))

    def test_rejects_non_finite_spectrum(self):
        with pytest.raises(ValueError, match="not finite"), np.errstate(invalid="ignore"):
            thermal_state(LCUHamiltonian(1, [PauliTerm(np.inf, ((0, "z"),))]))


class TestFactor:
    """The factor (U, s) each construction fills reproduces the matrix it forms."""

    @staticmethod
    def rebuilt(state: DensityMatrix) -> np.ndarray:
        u, s = state.factor()
        return (u * s[..., None, :]) @ u.conj().swapaxes(-1, -2)

    @pytest.mark.parametrize("d,k", [(4, 4), (4, 8), (8, 2), (4, 1)])
    def test_from_root(self, rng, d, k):
        b = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        state = DensityMatrix.from_root(b / np.linalg.norm(b))
        u, s = state.factor()
        assert u.shape == (d, d) and s.shape == (d,)
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-13)
        # fewer columns than rows: the missing eigenvalues are exact zeros
        assert np.count_nonzero(s) == min(d, k)
        assert np.allclose(self.rebuilt(state), state.mat, atol=1e-14)

    def test_thermal_state_factor_is_the_gibbs_spectrum(self, rng):
        # the 63 three-local strings span every traceless Hermitian 8 x 8 matrix
        h = normalize(random_three_local(3, 1.0, rng), 20.0)
        rho = thermal_state(h)
        u, s = rho.factor()
        w = np.linalg.eigvalsh(h.dense())
        expect = np.exp(-(w - w[0])) / np.sum(np.exp(-(w - w[0])))
        assert np.allclose(s, expect, rtol=1e-12, atol=0)
        assert np.allclose(self.rebuilt(rho), rho.mat, atol=1e-15)
        assert np.allclose(u @ np.diag(w) @ u.conj().T, h.dense(), atol=1e-12)

    def test_stack_and_take_keep_member_factors(self, rng):
        states = [random_density_matrix(2, rng) for _ in range(3)]
        stacked = DensityMatrix.stack(states)
        picked = stacked.take([2, 0])
        for i, st in zip([2, 0], (picked.take([0]), picked.take([1]))):
            assert np.array_equal(st.mat[0], states[i].mat)
            assert all(np.array_equal(a[0], b) for a, b in zip(st.factor(), states[i].factor()))

    def test_plain_matrix_factorized_by_eigh_and_refreshed_on_write(self, rng):
        a, b = random_density_matrix(2, rng), random_density_matrix(2, rng)
        state = DensityMatrix(2, a.mat.copy())
        assert np.allclose(state.factor()[1], np.linalg.eigvalsh(a.mat), rtol=0, atol=1e-15)
        state.mat[...] = b.mat
        assert np.allclose(state.factor()[1], np.linalg.eigvalsh(b.mat), rtol=0, atol=1e-15)


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density_matrix(2, rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_orthogonal_pure_states(self):
        zero = pure(np.array([1.0, 0.0], dtype=complex))
        one = pure(np.array([0.0, 1.0], dtype=complex))
        assert abs(fidelity(zero, one)) < 1e-9

    def test_pure_vs_maximally_mixed(self):
        # root convention: F(|0><0|, I/2) = sqrt(<0|I/2|0>) = sqrt(1/2)
        zero = pure(np.array([1.0, 0.0], dtype=complex))
        mixed = DensityMatrix.from_mat(np.eye(2, dtype=complex) / 2)
        assert abs(fidelity(zero, mixed) - math.sqrt(0.5)) < 1e-12

    def test_pure_pure_is_overlap_magnitude(self, rng):
        a, b = random_state_vec(4, rng), random_state_vec(4, rng)
        # rank-deficient inputs cost a few digits in the matrix square root
        assert abs(fidelity(pure(a), pure(b)) - abs(np.vdot(a, b))) < 1e-7

    def test_symmetry(self, rng):
        rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9

    def test_unitary_invariance(self, rng):
        rho, sigma = random_density_matrix(2, rng), random_density_matrix(2, rng)
        u = haar_unitary(2, rng)
        conj = lambda m: DensityMatrix.from_mat(u @ m.mat @ u.conj().T)
        assert abs(fidelity(conj(rho), conj(sigma)) - fidelity(rho, sigma)) < 1e-9

    def test_unity_iff_equal(self, rng):
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(2, rng)
        assert fidelity(rho, sigma) < 1.0 - 1e-6  # generic distinct pair
        assert fidelity(rho, rho) > 1.0 - 1e-9

    def test_range(self, rng):
        for _ in range(10):
            f = fidelity(random_density_matrix(2, rng), random_density_matrix(2, rng))
            assert -1e-9 <= f <= 1 + 1e-9

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            fidelity(random_density_matrix(1, rng), random_density_matrix(2, rng))


class TestHaarUnitary:
    def test_unitarity(self, rng):
        u = haar_unitary(2, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10

    def test_determinism(self, rng_factory):
        a = haar_unitary(2, rng_factory(5))
        b = haar_unitary(2, rng_factory(5))
        assert np.array_equal(a, b)

    def test_entry_moment_matches_haar(self, rng):
        # E|U_00|^2 = 1/dim for Haar; 3 sigma band from the empirical variance
        vals = np.array([abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10000)])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.25) < 3 * se


class TestRandomDensityMatrix:
    def test_valid_and_full_rank(self, rng):
        rho = random_density_matrix(2, rng)
        rho.validate()
        assert np.linalg.eigvalsh(rho.mat).min() > 0

    def test_rank_control(self, rng):
        rho = random_density_matrix(2, rng, rank=1)
        w = np.linalg.eigvalsh(rho.mat)
        assert (w > 1e-12).sum() == 1

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_rejected(self, rng, rank):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            random_density_matrix(2, rng, rank=rank)


class TestEntanglementEntropy:
    def test_product_state_zero(self):
        v = np.zeros(8, dtype=complex)
        v[0] = 1.0
        assert abs(entanglement_entropy(pure(v), 2)) < 1e-12

    def test_bell_state(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        assert abs(entanglement_entropy(pure(bell), 1) - math.log(2)) < 1e-10

    def test_mixed_input_rejected(self, rng):
        with pytest.raises(ValueError, match="pure"):
            entanglement_entropy(random_density_matrix(2, rng), 1)

    def test_range_and_page_report(self, rng):
        vals = []
        for _ in range(20):
            v = random_state_vec(64, rng)
            s = entanglement_entropy(pure(v), 3)
            assert -1e-9 <= s <= 3 * math.log(2) + 1e-9
            vals.append(s)
        page = 3 * math.log(2) - 0.5  # asymptotic half-system estimate, report only
        print(f"haar 3+3 entropy mean {np.mean(vals):.4f} vs page-like value {page:.4f}")
