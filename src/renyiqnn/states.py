"""Quantum-state construction, validation, and comparison."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qmath

TRACE_TOL = 1e-10
EIG_TOL = 1e-10


@dataclass
class DensityMatrix:
    """Unit-trace PSD Hermitian operator on n_qubits qubits."""

    n_qubits: int
    mat: np.ndarray
    _eig: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.shape != (self.dim, self.dim):
            raise ValueError(f"shape {self.mat.shape} does not match {self.n_qubits} qubits")

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, V) of the Hermitian part of mat, reused until mat is reassigned or written to other entries."""
        m = self.mat
        if self._eig is None or not np.array_equal(self._eig[0], m):
            self._eig = (m.copy(), *np.linalg.eigh(qmath._symmetrize(m)))
        return self._eig[1:]

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @classmethod
    def from_mat(cls, mat: np.ndarray) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        n = int(round(np.log2(mat.shape[0])))
        if 2**n != mat.shape[0]:
            raise ValueError(f"dimension {mat.shape[0]} is not a power of 2")
        return cls(n, mat)

    def validate(self, herm_tol: float = qmath.HERM_TOL) -> "DensityMatrix":
        """Assert Hermiticity, unit trace, and positivity (within tolerances)."""
        if not qmath.is_hermitian(self.mat, herm_tol):
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(self.mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1")
        wmin = float(np.min(np.linalg.eigvalsh(self.mat)))
        if wmin < -EIG_TOL:
            raise ValueError(f"negative eigenvalue {wmin}")
        return self

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))


def _dense_hamiltonian(h) -> np.ndarray:
    # Accept either an LCU Hamiltonian (duck-typed via .dense()) or a dense array.
    if hasattr(h, "dense"):
        return h.dense()
    return np.asarray(h, dtype=complex)


def thermal_state(h) -> DensityMatrix:
    """Gibbs state e^{-H}/Tr(e^{-H}); always full rank.

    `h` may be an LCUHamiltonian or a dense Hermitian array.
    """
    hd = _dense_hamiltonian(h)
    norm = qmath.op_norm(hd)
    if norm > 700.0:
        # e^{+-norm} would overflow/underflow float64 entirely.
        raise ValueError(f"operator norm {norm:.3g} too large for a stable exponential")
    e = qmath.herm_expm(hd, -1.0)
    rho = e / np.real(np.trace(e))
    return DensityMatrix.from_mat(rho)


def _psd_sqrt(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    w = np.clip(w, 0.0, None)  # roundoff guard: clamp tiny negatives
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Root (unsquared) convention: F(pure, mixed) = sqrt(<psi|sigma|psi>).
    Reported experiment fidelities use this convention; initial-state values
    for the thermal ensembles land in the documented windows only under it.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    sr = _psd_sqrt(*rho._eigh())
    inner = _psd_sqrt(*np.linalg.eigh(qmath._symmetrize(sr @ sigma.mat @ sr)))
    return float(np.real(np.trace(inner)))


def haar_unitary(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R diagonal's phases are divided out; without that fix QR output is not
    Haar-distributed.
    """
    d = 2**n_qubits
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return q


def random_density_matrix(
    n_qubits: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random full-rank (or fixed-rank) state: normalized GG^dagger for Ginibre G."""
    d = 2**n_qubits
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = g @ g.conj().T
    return DensityMatrix.from_mat(m / np.real(np.trace(m)))


def entanglement_entropy(sigma: DensityMatrix, n_v: int) -> float:
    """Von Neumann entropy (nats) of the leading-n_v reduction of a pure state."""
    if sigma.purity() <= 1.0 - 1e-8:
        raise ValueError("entropy defined for pure sigma only")
    n_h = sigma.n_qubits - n_v
    red = qmath.partial_trace(sigma.mat, n_v, n_h)
    w = np.linalg.eigvalsh(red)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log(w)))
