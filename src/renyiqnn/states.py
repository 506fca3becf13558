"""Quantum-state construction and comparison.

Every `DensityMatrix` carries one factor (U, s), mat = U diag(s) U^dag, and
inverses, roots and conditioning figures are read from it, never from an
inverted or rooted matrix, so small eigenvalues keep their relative
accuracy. The factor comes from what a state's construction has in hand:
H's eigenpairs with s = e^{-(w - w_min)}/Z for a thermal state (targets,
and fully visible Boltzmann machines in `models.qbm_thermal`); for a state
B B^dag built `from_root` (a circuit's visible state with B the
statevector as d_v x d_h, a Boltzmann machine with hidden units with
B = V e^{-w/2} / sqrt(Z) reshaped by hidden index), the root B itself is
kept, and the SVD B = U S W^dag, s = S^2, is taken only on the first
`factor()` call: the reverse loss and the fidelity read B directly;
`eigh` of the matrix, on first use, for any other state. A state's matrix
is fixed and read-only from construction, so its factor is found once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .hamiltonians import LCUHamiltonian


def _qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of 2")
    return n


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator on n_qubits qubits, with its factor (U, s).

    mat may carry a leading member axis, (R, 2^n, 2^n): a stack of states
    that the loss, gradient and fidelity code treat member by member.
    A state is a value: its mat is read-only and fixed at construction (an
    array a caller passes in is copied, so it stays theirs and writeable),
    and its factor, and whatever is built from it (`derived`), is found at
    most once. A state built `from_root` keeps a read-only copy of its root.
    """

    n_qubits: int
    mat: np.ndarray
    # the one factor slot: (U, s, {builder: what it built from U, s}); given by a
    # construction that forms mat from its factor, else filled by the first `factor`
    _slot: tuple | None = field(default=None, repr=False)
    # B with mat = B B^dag, kept by `from_root`; the factor is then the SVD of B
    _root: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # a caller's array is copied; a matrix just formed from its factor or root is the state's own
        own = self._slot is not None or self._root is not None
        mat = np.asarray(self.mat, dtype=complex) if own else np.array(self.mat, dtype=complex)
        if mat.ndim not in (2, 3) or mat.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"shape {mat.shape} does not match {self.n_qubits} qubits")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @classmethod
    def _with_factor(cls, mat: np.ndarray, u: np.ndarray, s: np.ndarray) -> "DensityMatrix":
        return cls(_qubits(mat.shape[-1]), mat, (u, s, {}))

    @classmethod
    def from_factor(cls, u: np.ndarray, s: np.ndarray) -> "DensityMatrix":
        """U diag(s) U^dag, keeping copies of (U, s) as its factor, so the caller's arrays stay theirs."""
        u, s = u.copy(), s.copy()
        return cls._with_factor((u * s[..., None, :]) @ u.conj().swapaxes(-1, -2), u, s)

    @classmethod
    def from_root(cls, b: np.ndarray) -> "DensityMatrix":
        """B B^dag for B of shape (..., d, k), keeping a read-only copy of B; its factor is the SVD of B, on first use."""
        b = np.array(b, dtype=complex)
        b.flags.writeable = False
        return cls(_qubits(b.shape[-2]), b @ b.conj().swapaxes(-1, -2), _root=b)

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
        """(U, s) with mat = U diag(s) U^dag; for a state built without one, by one SVD of its root or one eigh of mat."""
        if self._slot is None:
            if self._root is None:
                s, u = np.linalg.eigh(qmath._symmetrize(self.mat))
            else:
                d, k = self._root.shape[-2:]
                u, sv, _ = np.linalg.svd(self._root, full_matrices=k < d)
                s = sv * sv
                if k < d:
                    s = np.concatenate([s, np.zeros(s.shape[:-1] + (d - k,))], axis=-1)
            object.__setattr__(self, "_slot", (u, s, {}))
        return self._slot[:2]

    @property
    def root(self) -> np.ndarray | None:
        """The root B kept by `from_root` (mat = B B^dag), or None for a state built otherwise."""
        return self._root

    def derived(self, build):
        """build(U, s), kept with the factor it was built from (a root, an inverse's root)."""
        u, s = self.factor()
        built = self._slot[2]
        if build not in built:
            built[build] = build(u, s)
        return built[build]

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @classmethod
    def from_mat(cls, mat: np.ndarray) -> "DensityMatrix":
        return cls(_qubits(np.shape(mat)[-1]), mat)


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
    With roots rho = A A^dag and sigma = B B^dag, F is the sum of the
    singular values of A^dag B, so no matrix is rooted. A state built
    `from_root` gives its kept root, any other U diag(sqrt s) from its
    factor, kept with it, so a fixed target builds it once. Member stacks
    give one fidelity per member.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    a, b = (st.derived(_psd_sqrt) if st.root is None else st.root for st in (rho, sigma))
    a = a.conj().swapaxes(-1, -2) @ b
    f = np.sum(np.linalg.svd(a, compute_uv=False), axis=-1)
    return float(f) if f.ndim == 0 else f


def haar_unitaries(n_qubits: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """A (count, d, d) stack of Haar-random unitaries via QR of complex Ginibre matrices.

    The R diagonal's phases are divided out; without that fix QR output is not
    Haar-distributed. The stack takes rng's stream in the order of count
    one-by-one draws.
    """
    d = 2**n_qubits
    g = rng.standard_normal((count, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = r.diagonal(axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def random_density_matrix(n_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state: normalized GG^dagger for a square Ginibre G."""
    d = 2**n_qubits
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix.from_mat(m / np.real(np.trace(m)))
