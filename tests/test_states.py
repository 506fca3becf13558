import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from renyiqnn.hamiltonians import LCUHamiltonian, PauliTerm, normalize, random_three_local, random_two_local
from renyiqnn.states import (
    DensityMatrix,
    fidelity,
    haar_unitaries,
    random_density_matrix,
    thermal_state,
)
from tests.conftest import check_density_matrix, purity, random_state_vec


def pure(vec: np.ndarray) -> DensityMatrix:
    return DensityMatrix.from_mat(np.outer(vec, vec.conj()))


class TestDensityMatrixValidation:
    def test_accepts_valid(self, rng):
        check_density_matrix(random_density_matrix(2, rng))

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(DensityMatrix.from_mat(m))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(DensityMatrix.from_mat(np.eye(2, dtype=complex)))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            check_density_matrix(DensityMatrix.from_mat(np.diag([1.5, -0.5]).astype(complex)))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of 2"):
            DensityMatrix.from_mat(np.eye(3, dtype=complex) / 3)

    def test_stack_validates_member_by_member(self, rng):
        stack = np.stack([random_density_matrix(2, rng).mat for _ in range(3)])
        check_density_matrix(DensityMatrix(2, stack))
        stack[1] *= 1.5
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(DensityMatrix(2, stack))

    @pytest.mark.parametrize("members", [2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_from_mat_reads_a_member_stack(self, rng, members, n):
        stack = np.stack([random_density_matrix(n, rng).mat for _ in range(members)])
        state = DensityMatrix.from_mat(stack)
        assert state.n_qubits == n and np.array_equal(state.mat, stack)

    def test_purity(self, rng):
        v = random_state_vec(4, rng)
        assert abs(purity(pure(v)) - 1.0) < 1e-12
        assert abs(purity(DensityMatrix.from_mat(np.eye(4, dtype=complex) / 4)) - 0.25) < 1e-12


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

    def test_plain_matrix_factorized_by_one_eigh(self, rng, monkeypatch):
        a = random_density_matrix(2, rng)
        state = DensityMatrix(2, a.mat.copy())
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or eigh(m))
        for _ in range(3):
            assert np.allclose(state.factor()[1], np.linalg.eigvalsh(a.mat), rtol=0, atol=1e-15)
        fidelity(state, state)
        assert len(calls) == 1


class TestValue:
    """Every state is a value: its matrix is read-only and fixed at construction, and a caller's arrays stay theirs."""

    @staticmethod
    def build(kind: str, rng) -> tuple[DensityMatrix, list[np.ndarray]]:
        """A state built by `kind`, with the arrays its caller passed in."""
        arr = random_density_matrix(2, rng).mat.copy()
        other = random_density_matrix(2, rng)
        if kind == "init":
            return DensityMatrix(2, arr), [arr]
        if kind == "from_mat":
            return DensityMatrix.from_mat(arr), [arr]
        if kind == "from_factor":
            s, u = np.linalg.eigh(arr)
            return DensityMatrix.from_factor(u, s), [u, s]
        if kind == "from_root":
            b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            b /= np.linalg.norm(b)
            return DensityMatrix.from_root(b), [b]
        if kind == "stack":
            return DensityMatrix.stack([DensityMatrix(2, arr), other]), [arr]
        if kind == "take":
            return DensityMatrix.stack([DensityMatrix(2, arr), other]).take([1, 0]), [arr]
        assert kind == "thermal_state"
        return thermal_state(normalize(random_two_local(2, 0.5, 1.0, rng), 2.0)), []

    @pytest.mark.parametrize(
        "kind", ["init", "from_mat", "from_factor", "from_root", "stack", "take", "thermal_state"]
    )
    def test_matrix_and_factor_fixed_at_construction(self, rng, kind):
        state, passed = self.build(kind, rng)
        mat = state.mat.copy()
        u, s = (a.copy() for a in state.factor())
        assert not state.mat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state.mat[..., 0, 0] = 0.5
        with pytest.raises(FrozenInstanceError):
            state.mat = mat
        for a in passed:
            assert a.flags.writeable  # the caller's array stays theirs
            a[...] = 0.5
        assert np.array_equal(state.mat, mat)
        assert all(np.array_equal(x, y) for x, y in zip(state.factor(), (u, s)))
        assert np.allclose(TestFactor.rebuilt(state), mat, rtol=0, atol=1e-14)


class TestRootSlot:
    """A state built from its root keeps a copy of the root and takes its SVD only when its factor is asked for."""

    @staticmethod
    def root(rng, d: int, k: int, members: tuple = ()) -> np.ndarray:
        b = rng.standard_normal(members + (d, k)) + 1j * rng.standard_normal(members + (d, k))
        return b / np.linalg.norm(b, axis=(-2, -1), keepdims=True)

    def test_svd_on_first_factor_only(self, rng, monkeypatch):
        calls, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: calls.append(kw.get("compute_uv", True)) or svd(m, **kw))
        b = self.root(rng, 4, 2)
        state = DensityMatrix.from_root(b)
        fidelity(thermal_state(normalize(random_two_local(2, 0.5, 1.0, rng), 2.0)), state)
        assert calls == [False]  # the fidelity's singular values only
        b[...] = 0.5  # the caller's array stays theirs: the factor below is of the root passed in
        first = state.factor()
        assert all(x is y for x, y in zip(state.factor(), first))
        assert calls == [False, True]
        assert np.allclose(TestFactor.rebuilt(state), state.mat, rtol=0, atol=1e-14)
        assert not state.root.flags.writeable

    @pytest.mark.parametrize("d,k,members", [(4, 4, ()), (8, 2, ()), (4, 8, ()), (4, 1, ()), (8, 8, (3,))])
    def test_root_fidelity_matches_the_factor_route(self, rng, d, k, members):
        targets = [thermal_state(normalize(random_two_local(d.bit_length() - 1, 0.5, 1.0, rng), 2.0))
                   for _ in range(members[0] if members else 1)]
        rho = DensityMatrix.stack(targets) if members else targets[0]
        state = DensityMatrix.from_root(self.root(rng, d, k, members))
        got = fidelity(rho, state)
        factored = fidelity(rho, DensityMatrix.from_factor(*state.factor()))
        assert np.all(np.abs(got - factored) <= 1e-14 * np.abs(factored))


class TestFactorSlot:
    """A state's matrix is never reassigned or written, so its factor is never refreshed."""

    @staticmethod
    def factor_built(rng) -> list[DensityMatrix]:
        h = normalize(random_two_local(2, 0.5, 1.0, rng), 2.0)
        b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        stacked = DensityMatrix.stack([thermal_state(h), random_density_matrix(2, rng)])
        return [thermal_state(h), DensityMatrix.from_root(b / np.linalg.norm(b)), stacked, stacked.take([1])]

    def test_factor_built_matrix_refuses_writes(self, rng):
        for state in self.factor_built(rng):
            with pytest.raises(ValueError, match="read-only"):
                state.mat[..., 0, 0] = 0.5
            with pytest.raises(ValueError, match="read-only"):
                state.mat *= 2.0

    def test_reassigned_matrix_raises_and_keeps_the_factor(self, rng):
        for state in self.factor_built(rng):
            mat, (u, s) = state.mat, state.factor()
            new = np.broadcast_to(random_density_matrix(2, rng).mat, mat.shape).copy()
            with pytest.raises(FrozenInstanceError):
                state.mat = new
            assert state.mat is mat
            assert all(x is y for x, y in zip(state.factor(), (u, s)))

    def test_caller_matrix_is_copied_not_locked(self, rng):
        arr = random_density_matrix(2, rng).mat.copy()
        w = np.linalg.eigvalsh(arr)
        states = (DensityMatrix(2, arr), DensityMatrix.from_mat(arr))
        for state in states:
            state.factor()
            fidelity(state, state)
            assert arr.flags.writeable and state.mat is not arr
        arr[...] = np.eye(4) / 4  # a write through the caller's array does not reach the states
        for state in states:
            assert np.allclose(state.factor()[1], w, rtol=0, atol=1e-15)
            assert not np.allclose(state.mat, arr)


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
        u = haar_unitaries(2, 1, rng)[0]
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
        u = haar_unitaries(2, 1, rng)[0]
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10

    def test_determinism(self, rng_factory):
        a = haar_unitaries(2, 1, rng_factory(5))[0]
        b = haar_unitaries(2, 1, rng_factory(5))[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_draws_as_one_by_one(self, rng_factory, n):
        stacked, single = rng_factory(7), rng_factory(7)
        a = haar_unitaries(n, 4, stacked)
        b = [haar_unitaries(n, 1, single)[0] for _ in range(4)]
        assert np.array_equal(a, b)
        assert stacked.random() == single.random()

    def test_entry_moment_matches_haar(self, rng):
        # E|U_00|^2 = 1/dim for Haar; 3 sigma band from the empirical variance
        vals = np.abs(haar_unitaries(2, 10000, rng)[:, 0, 0]) ** 2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.25) < 3 * se


class TestRandomDensityMatrix:
    def test_valid_and_full_rank(self, rng):
        rho = random_density_matrix(2, rng)
        check_density_matrix(rho)
        assert np.linalg.eigvalsh(rho.mat).min() > 0
