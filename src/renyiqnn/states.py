"""Quantum-state construction, validation, and comparison.

Every `DensityMatrix` carries one factor (U, s), mat = U diag(s) U^dag, and
inverses, roots and conditioning figures are read from it, never from an
inverted or rooted matrix, so small eigenvalues keep their relative
accuracy. The factor comes from what a state's construction has in hand:
H's eigenpairs with s = e^{-(w - w_min)}/Z for a thermal state (targets,
and fully visible Boltzmann machines in `models.qbm_thermal`); the SVD
B = U S W^dag, s = S^2, for a state B B^dag (`from_root`: a circuit's
visible state with B the statevector as d_v x d_h, a Boltzmann machine
with hidden units with B = V e^{-w/2} / sqrt(Z) reshaped by hidden index);
`eigh` of the matrix, on first use, for any other state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .hamiltonians import LCUHamiltonian

TRACE_TOL = 1e-10
EIG_TOL = 1e-10


def _qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


@dataclass
class DensityMatrix:
    """Unit-trace PSD Hermitian operator on n_qubits qubits, with its factor (U, s).

    mat may carry a leading member axis, (R, 2^n, 2^n): a stack of states
    that validate and the loss, gradient and fidelity code treat member by
    member; only purity takes a single state. The factor, and whatever is
    built from it (`derived`), is kept until mat is reassigned or written to.
    """

    n_qubits: int
    mat: np.ndarray
    # the one factor slot: (copy of mat it belongs to, U, s, {builder: what it built from U, s})
    _slot: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.ndim not in (2, 3) or self.mat.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"shape {self.mat.shape} does not match {self.n_qubits} qubits")

    @classmethod
    def _with_factor(cls, mat: np.ndarray, u: np.ndarray, s: np.ndarray) -> "DensityMatrix":
        state = cls(_qubits(mat.shape[-1]), mat)
        state._slot = (state.mat.copy(), u, s, {})
        return state

    @classmethod
    def from_factor(cls, u: np.ndarray, s: np.ndarray) -> "DensityMatrix":
        """U diag(s) U^dag, keeping (U, s) as its factor."""
        return cls._with_factor((u * s[..., None, :]) @ u.conj().swapaxes(-1, -2), u, s)

    @classmethod
    def from_root(cls, b: np.ndarray) -> "DensityMatrix":
        """B B^dag for B of shape (..., d, k), its factor from the SVD of B."""
        d, k = b.shape[-2:]
        u, sv, _ = np.linalg.svd(b, full_matrices=k < d)
        s = sv * sv
        if k < d:
            s = np.concatenate([s, np.zeros(s.shape[:-1] + (d - k,))], axis=-1)
        return cls._with_factor(b @ b.conj().swapaxes(-1, -2), u, s)

    @classmethod
    def stack(cls, states: list["DensityMatrix"]) -> "DensityMatrix":
        """A member stack of one-member states, their factors stacked alike."""
        u, s = zip(*(st.factor() for st in states))
        return cls._with_factor(np.stack([st.mat for st in states]), np.stack(u), np.stack(s))

    def take(self, keep: list[int]) -> "DensityMatrix":
        """The members `keep` of a stack, with their factors."""
        u, s = self.factor()
        return DensityMatrix._with_factor(self.mat[keep], u[keep], s[keep])

    def factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, s) with mat = U diag(s) U^dag; by eigh of mat for a state built without one."""
        m = self.mat
        if self._slot is None or self._slot[0].shape != m.shape or not (self._slot[0] == m).all():
            w, v = np.linalg.eigh(qmath._symmetrize(m))
            self._slot = (m.copy(), v, w, {})
        return self._slot[1:3]

    def derived(self, build):
        """build(U, s), kept with the factor it was built from (a root, an inverse's root)."""
        u, s = self.factor()
        built = self._slot[3]
        if build not in built:
            built[build] = build(u, s)
        return built[build]

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @classmethod
    def from_mat(cls, mat: np.ndarray) -> "DensityMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(_qubits(mat.shape[-1]), mat)

    def validate(self) -> "DensityMatrix":
        """Assert Hermiticity, unit trace, and positivity (within tolerances) of every member."""
        if not qmath.is_hermitian(self.mat):
            raise ValueError("density matrix is not Hermitian")
        for tr in np.trace(self.mat, axis1=-2, axis2=-1).reshape(-1).tolist():
            if abs(tr - 1.0) > TRACE_TOL:
                raise ValueError(f"trace {tr} is not 1")
        wmin = float(np.min(np.linalg.eigvalsh(self.mat)))
        if wmin < -EIG_TOL:
            raise ValueError(f"negative eigenvalue {wmin}")
        return self

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))


def thermal_state(h: LCUHamiltonian) -> DensityMatrix:
    """Gibbs state e^{-H}/Tr(e^{-H}) of a Pauli-sum Hamiltonian; always full rank.

    The factor is H's eigenpairs with s = e^{-(w - w_min)} / Z, each entry
    at most 1, so the smallest eigenvalues keep their relative accuracy.
    """
    w, v = np.linalg.eigh(qmath._symmetrize(h.dense()))
    if not np.all(np.isfinite(w)):
        raise ValueError("Hamiltonian spectrum is not finite")
    e = np.exp(-(w - w[0]))
    return DensityMatrix.from_factor(v, e / np.sum(e))


def _psd_sqrt(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Root factor R = U diag(sqrt s), with state = R R^dag."""
    s = np.clip(s, 0.0, None)  # roundoff guard: clamp tiny negatives of an eigh factor
    return u * np.sqrt(s)[..., None, :]


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float | np.ndarray:
    """Uhlmann fidelity F = Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1].

    Root (unsquared) convention: F(pure, mixed) = sqrt(<psi|sigma|psi>).
    Reported experiment fidelities use this convention; initial-state values
    for the thermal ensembles land in the documented windows only under it.
    With root factors rho = A A^dag and sigma = B B^dag, F is the sum of the
    singular values of A^dag B, so no matrix is rooted. Member stacks give
    one fidelity per member; each state's root factor is kept with its
    factor, so a fixed target builds it once.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    a = rho.derived(_psd_sqrt).conj().swapaxes(-1, -2) @ sigma.derived(_psd_sqrt)
    f = np.sum(np.linalg.svd(a, compute_uv=False), axis=-1)
    return float(f) if f.ndim == 0 else f


def haar_unitary(n_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix.

    The R diagonal's phases are divided out; without that fix QR output is not
    Haar-distributed.
    """
    return _haar_unitaries(n_qubits, 1, rng)[0]


def _haar_unitaries(n_qubits: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, d, d) stack of Haar unitaries, drawn from rng as count haar_unitary calls would be."""
    d = 2**n_qubits
    g = rng.standard_normal((count, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = r.diagonal(axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def random_density_matrix(
    n_qubits: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Random full-rank (or fixed-rank) state: normalized GG^dagger for Ginibre G."""
    d = 2**n_qubits
    r = d if rank is None else rank
    if r < 1:
        raise ValueError("rank must be >= 1")
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
