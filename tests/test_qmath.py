import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from renyiqnn import qmath
from tests.conftest import PAULI, random_hermitian


class TestCheckDim:
    def test_oversized_result_rejected(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            qmath.check_dim(2**13)


class TestPartialTrace:
    def test_product_state_factorization(self, rng):
        rho = random_hermitian(4, rng)
        tau = random_hermitian(2, rng)
        out = qmath.partial_trace(np.kron(rho, tau), 2, 1)
        assert np.allclose(out, rho * np.trace(tau), atol=1e-12)

    def test_bell_projector_reduces_to_mixed(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        proj = np.outer(bell, bell.conj())
        assert np.allclose(qmath.partial_trace(proj, 1, 1), np.eye(2) / 2, atol=1e-12)

    def test_zero_drop_is_identity(self, rng):
        m = random_hermitian(8, rng)
        assert np.array_equal(qmath.partial_trace(m, 3, 0), m)

    def test_trace_and_hermiticity_preserved(self, rng):
        m = random_hermitian(16, rng)
        out = qmath.partial_trace(m, 2, 2)
        assert abs(np.trace(out) - np.trace(m)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            qmath.partial_trace(random_hermitian(8, rng), 1, 1)


class TestHermExpm:
    def test_exp_of_zero(self):
        assert np.allclose(qmath.herm_expm(np.zeros((4, 4)), -1.0), np.eye(4))

    def test_diagonal_case(self):
        out = qmath.herm_expm(PAULI["z"], -1.0)
        assert np.allclose(out, np.diag([np.exp(-1), np.exp(1)]))

    def test_inverse_identity(self, rng):
        h = random_hermitian(8, rng)
        prod = qmath.herm_expm(h, -1.0) @ qmath.herm_expm(h, 1.0)
        assert np.max(np.abs(prod - np.eye(8))) < 1e-10

    def test_semigroup(self, rng):
        h = random_hermitian(8, rng)
        lhs = qmath.herm_expm(h, 0.7) @ qmath.herm_expm(h, -0.2)
        assert np.max(np.abs(lhs - qmath.herm_expm(h, 0.5))) < 1e-10

    def test_against_scipy_expm(self, rng):
        h = random_hermitian(8, rng)
        assert np.max(np.abs(qmath.herm_expm(h, -1.0) - scipy_expm(-h))) < 1e-10


class TestOpNorm:
    def test_pauli_norm(self):
        assert np.isclose(qmath.op_norm(PAULI["x"]), 1.0)

    def test_scaling(self):
        assert np.isclose(qmath.op_norm(-2.5 * np.eye(4)), 2.5)

    def test_bounds_state_expectation(self, rng):
        h = random_hermitian(8, rng)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        assert qmath.op_norm(h) >= abs(np.trace(h @ rho)) - 1e-12

    def test_matches_two_norm(self, rng):
        h = random_hermitian(8, rng)
        assert np.isclose(qmath.op_norm(h), np.linalg.norm(h, 2))


class TestHermitianCheck:
    def test_accepts_hermitian(self, rng):
        assert qmath.is_hermitian(random_hermitian(4, rng))

    def test_rejects_asymmetric(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        assert not qmath.is_hermitian(m)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
def test_herm_expm_semigroup_property(s1, s2):
    rng = np.random.default_rng(7)
    h = random_hermitian(4, rng)
    lhs = qmath.herm_expm(h, s1) @ qmath.herm_expm(h, s2)
    rhs = qmath.herm_expm(h, s1 + s2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))
