"""Shared fixtures and independent reference helpers.

Reference implementations here deliberately avoid the package's own fast
paths (gate tables, kernel sweeps, the Boltzmann adjoint kernel) so that tests compare
two independent routes to the same quantity.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from renyiqnn import qmath
from renyiqnn.models import UQNNParams
from renyiqnn.states import DensityMatrix

TRACE_TOL = 1e-10
EIG_TOL = 1e-10

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string_dense(n: int, axes) -> np.ndarray:
    """Literal kron build of a Pauli string, independent of the package."""
    factors = [PAULI["i"]] * n
    for q, a in axes:
        factors[q] = PAULI[a]
    m = factors[0]
    for f in factors[1:]:
        m = np.kron(m, f)
    return m


def uqnn_state_reference(p: UQNNParams) -> np.ndarray:
    """Full pure state via dense scipy expm products, slowest possible route."""
    n = p.n_v + p.n_h
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for g, th in zip(reversed(p.generators), reversed(p.thetas)):
        h = g.coeff * pauli_string_dense(n, g.axes)
        psi = expm(-1j * th * h) @ psi
    return psi


def conjugated_generators_reference(p: UQNNParams) -> list[np.ndarray]:
    """Dense H~_k = W_k H_k W_k^dag for every k, W_k the product of the scipy expm gates before k."""
    n = p.n_v + p.n_h
    w = np.eye(2**n, dtype=complex)
    out = []
    for g, th in zip(p.generators, p.thetas):
        h = g.coeff * pauli_string_dense(n, g.axes)
        out.append(w @ h @ w.conj().T)
        w = w @ expm(-1j * th * h)
    return out


def check_density_matrix(state: DensityMatrix) -> DensityMatrix:
    """Assert Hermiticity, unit trace and positivity (within tolerances) of every member of a state."""
    if not qmath.is_hermitian(state.mat):
        raise ValueError("density matrix is not Hermitian")
    for tr in np.trace(state.mat, axis1=-2, axis2=-1).reshape(-1).tolist():
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1")
    wmin = float(np.min(np.linalg.eigvalsh(state.mat)))
    if wmin < -EIG_TOL:
        raise ValueError(f"negative eigenvalue {wmin}")
    return state


def purity(state: DensityMatrix) -> float:
    """Tr(rho^2) of one state, from its dense matrix."""
    return float(np.real(np.trace(state.mat @ state.mat)))


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Umegaki relative entropy S(rho||sigma) = Tr rho (ln rho - ln sigma), in nats, by dense eigh of both states."""
    wr = np.linalg.eigvalsh(rho.mat)
    ws, vs = np.linalg.eigh(sigma.mat)
    assert float(np.min(ws)) > 0.0, "singular second argument"
    s_rho = float(np.sum(np.where(wr > 1e-15, wr * np.log(np.clip(wr, 1e-300, None)), 0.0)))
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    return s_rho - float(np.real(np.trace(rho.mat @ log_sigma)))


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_state_vec(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def factor_roots_at_construction(monkeypatch) -> None:
    """Make every state built from a root take the SVD of the root at once and keep no root.

    Its loss, kernel and fidelity are then read from its factor, as for any
    other state: the factor-basis route, against which the root route is
    compared.
    """
    from_root = DensityMatrix.from_root

    def factored(b):
        state = from_root(b)
        return DensityMatrix._with_factor(state.mat, *state.factor())

    monkeypatch.setattr(DensityMatrix, "from_root", staticmethod(factored))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260815)


@pytest.fixture
def rng_factory():
    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make

