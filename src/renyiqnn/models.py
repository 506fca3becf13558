"""Model architectures: unitary-circuit networks and Boltzmann machines.

A unitary network prepares sigma(theta) = W |0><0| W^dag with
W = e^{-i H_1 theta_1} ... e^{-i H_N theta_N} (the N-th factor hits |0>
first). Every generator H_j is a Hermitian-unitary Pauli string, so each
factor has the closed form cos(theta) I - i sin(theta) H_j and the circuit
runs on statevectors in O(N 2^n).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .hamiltonians import (
    LCUHamiltonian,
    PauliTerm,
    pair_axes,
    pauli_tables,
    single_axes,
    two_local_terms,
    weighted_sum_dense,
)
from .states import DensityMatrix

GateTable = tuple[np.ndarray, np.ndarray]


def gate_table(term: PauliTerm, n_qubits: int) -> GateTable:
    """(idx, col_phase) for the full generator including its +-1 coefficient."""
    if abs(abs(term.coeff) - 1.0) > 1e-12:
        raise ValueError(f"generator coefficient must be +-1, got {term.coeff}")
    idx, col_phase = term.action(n_qubits)
    return idx, term.coeff * col_phase


def apply_pauli(v: np.ndarray, table: GateTable) -> np.ndarray:
    idx, col_phase = table
    if v.ndim == 1:
        return (col_phase * v)[idx]
    return (col_phase[:, None] * v)[idx, :]


def apply_gate(v: np.ndarray, table: GateTable, theta: float, inverse: bool = False) -> np.ndarray:
    """e^{-i H theta} v (or e^{+i H theta} v) via the cos/sin closed form."""
    s = 1j if inverse else -1j
    return np.cos(theta) * v + s * np.sin(theta) * apply_pauli(v, table)


@functools.lru_cache(maxsize=16)
def _layout_tables(generators: tuple[PauliTerm, ...], n_qubits: int) -> GateTable:
    """Read-only stacked (idx, phase) of a circuit layout, shape (len(generators), 2^n).

    Row j equals gate_table(generators[j], n_qubits) bit for bit; every
    parameter vector of the layout shares the pair.
    """
    coeffs = np.array([g.coeff for g in generators], dtype=float)
    bad = coeffs[np.abs(np.abs(coeffs) - 1.0) > 1e-12]
    if bad.size:
        raise ValueError(f"generator coefficient must be +-1, got {bad[0]}")
    idx, col_phase = pauli_tables(generators, n_qubits)
    phase = coeffs[:, None] * col_phase
    idx.flags.writeable = phase.flags.writeable = False
    return idx, phase


def _apply_prefix(p: "UQNNParams", v: np.ndarray, m: int, inverse: bool = False) -> np.ndarray:
    """W v (or W^dag v) for W = e^{-i H_1 theta_1} ... e^{-i H_m theta_m}; v a vector or a matrix's columns.

    The one gate kernel: with -+i sin(theta_j) folded into the shared phase
    rows once per call, gate j maps v to c[j] v + (rows[j] v)[idx[j]].
    """
    idx, phase = p.tables()
    th = p.thetas[:m]
    c = np.cos(th).tolist()
    rows = ((1j if inverse else -1j) * np.sin(th))[:, None] * phase[:m]
    rows = rows.reshape(rows.shape + (1,) * (v.ndim - 1))
    for j in range(m) if inverse else range(m - 1, -1, -1):
        v = c[j] * v + (rows[j] * v)[idx[j]]
    return v


@dataclass
class UQNNParams:
    """Ordered generators H_j with angles theta_j and a visible/hidden split."""

    n_v: int
    n_h: int
    generators: list[PauliTerm]
    thetas: np.ndarray
    _layout: GateTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        if len(self.thetas) != len(self.generators):
            raise ValueError("one theta per generator required")

    @property
    def n_qubits(self) -> int:
        return self.n_v + self.n_h

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def tables(self) -> GateTable:
        """The layout's shared read-only (idx, phase) tables, one row per generator."""
        # generators are fixed per object: hash the layout key once, not per call
        if self._layout is None:
            self._layout = _layout_tables(tuple(self.generators), self.n_qubits)
        return self._layout

    def to_checkpoint(self, rng_seed: int | None = None, epoch: int = 0) -> dict:
        return {
            "kind": "uqnn",
            "n_v": self.n_v,
            "n_h": self.n_h,
            "generators": [
                {"coeff": float(g.coeff), "axes": [[q, a] for q, a in g.axes]}
                for g in self.generators
            ],
            "thetas": [float(t) for t in self.thetas],
            "rng_seed": rng_seed,
            "epoch": epoch,
        }

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "UQNNParams":
        if doc.get("kind") != "uqnn":
            raise ValueError(f"checkpoint kind {doc.get('kind')!r} is not 'uqnn'")
        gens = [
            PauliTerm(float(g["coeff"]), tuple((int(q), a) for q, a in g["axes"]))
            for g in doc["generators"]
        ]
        return cls(int(doc["n_v"]), int(doc["n_h"]), gens, np.array(doc["thetas"], dtype=float))


def uqnn_statevector(p: UQNNParams) -> np.ndarray:
    """W |0...0> with the last generator applied first."""
    qmath.check_dim(p.dim)
    psi = np.zeros(p.dim, dtype=complex)
    psi[0] = 1.0
    return _apply_prefix(p, psi, len(p.generators))


def uqnn_full_state(p: UQNNParams) -> DensityMatrix:
    """Pure state W |0><0| W^dag on all n_v + n_h qubits."""
    psi = uqnn_statevector(p)
    return DensityMatrix(p.n_qubits, np.outer(psi, psi.conj()))


def visible_from_statevector(psi: np.ndarray, n_v: int, n_h: int) -> np.ndarray:
    """Tr_h |psi><psi| without forming the full outer product."""
    a = psi.reshape(2**n_v, 2**n_h)
    return a @ a.conj().T


def uqnn_visible_state(p: UQNNParams) -> DensityMatrix:
    psi = uqnn_statevector(p)
    return DensityMatrix(p.n_v, visible_from_statevector(psi, p.n_v, p.n_h))


def circuit_prefix(p: UQNNParams, k: int) -> np.ndarray:
    """Dense W_k = e^{-i H_1 theta_1} ... e^{-i H_{k-1} theta_{k-1}}."""
    if not 1 <= k <= len(p.generators):
        raise IndexError(f"k={k} out of range 1..{len(p.generators)}")
    return _apply_prefix(p, np.eye(p.dim, dtype=complex), k - 1)


def conjugated_generator(p: UQNNParams, k: int) -> np.ndarray:
    """H~_k = W_k H_k W_k^dag; Hermitian with H~_k^2 = I."""
    w = circuit_prefix(p, k)
    hk = p.generators[k - 1].dense(p.n_qubits)
    return w @ hk @ w.conj().T


def uqnn_state_derivative(p: UQNNParams, k: int) -> np.ndarray:
    """d sigma / d theta_k = -i [H~_k, sigma]; Hermitian and traceless."""
    ht = conjugated_generator(p, k)
    sigma = uqnn_full_state(p).mat
    return -1j * (ht @ sigma - sigma @ ht)


def conjugated_generator_vec(p: UQNNParams, k: int, psi: np.ndarray) -> np.ndarray:
    """W_k H_k W_k^dag |psi> by gate application, O(N 2^n) and matrix-free."""
    if not 1 <= k <= len(p.generators):
        raise IndexError(f"k={k} out of range 1..{len(p.generators)}")
    idx, phase = p.tables()
    y = _apply_prefix(p, psi, k - 1, inverse=True)
    return _apply_prefix(p, (phase[k - 1] * y)[idx[k - 1]], k - 1)


@dataclass
class QBMParams:
    """Pauli-basis weights theta defining H(theta) = sum_m theta_m basis_m."""

    n_v: int
    n_h: int
    basis: list[PauliTerm]
    thetas: np.ndarray
    _tables: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        if len(self.thetas) != len(self.basis):
            raise ValueError("one theta per basis term required")
        for t in self.basis:
            if abs(t.coeff - 1.0) > 1e-12:
                raise ValueError("basis strings must have unit coefficient")

    @property
    def n_qubits(self) -> int:
        return self.n_v + self.n_h

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (idx, col_phase) of the basis strings, shape (len(basis), dim)."""
        # As for UQNNParams: the basis is fixed, only thetas change in training.
        if self._tables is None:
            self._tables = pauli_tables(self.basis, self.n_qubits)
        return self._tables

    def hamiltonian_dense(self) -> np.ndarray:
        return weighted_sum_dense(self.thetas, self.tables())

    def to_hamiltonian(self) -> LCUHamiltonian:
        terms = [PauliTerm(float(th), t.axes) for th, t in zip(self.thetas, self.basis)]
        return LCUHamiltonian(self.n_qubits, [t for t in terms if t.coeff != 0.0])

    def to_checkpoint(self, rng_seed: int | None = None, epoch: int = 0) -> dict:
        return {
            "kind": "qbm",
            "n_v": self.n_v,
            "n_h": self.n_h,
            "generators": [
                {"coeff": 1.0, "axes": [[q, a] for q, a in t.axes]} for t in self.basis
            ],
            "thetas": [float(t) for t in self.thetas],
            "rng_seed": rng_seed,
            "epoch": epoch,
        }

    @classmethod
    def from_checkpoint(cls, doc: dict) -> "QBMParams":
        if doc.get("kind") != "qbm":
            raise ValueError(f"checkpoint kind {doc.get('kind')!r} is not 'qbm'")
        basis = [
            PauliTerm(1.0, tuple((int(q), a) for q, a in g["axes"])) for g in doc["generators"]
        ]
        return cls(int(doc["n_v"]), int(doc["n_h"]), basis, np.array(doc["thetas"], dtype=float))


def qbm_thermal(p: QBMParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """(w, V, E, Z, sigma_v) of the Boltzmann state in the eigenbasis H = V diag(w) V^dag.

    w is shifted so that min(w) = 0; E = V diag(e^{-w}) V^dag, Z = Tr E and
    sigma_v = Tr_h(E) / Z. The shift cancels in every ratio with Z and keeps
    e^{-w} <= 1, so no spectral spread overflows.
    """
    w, v = np.linalg.eigh(p.hamiltonian_dense())
    w = w - w[0]
    ew = np.exp(-w)
    e_mat = (v * ew) @ v.conj().T
    z = float(np.sum(ew))
    return w, v, e_mat, z, qmath.partial_trace(e_mat, p.n_v, p.n_h) / z


def qbm_visible_state(p: QBMParams) -> DensityMatrix:
    """Tr_h(e^{-H(theta)}) / Tr(e^{-H(theta)}); full rank by construction."""
    return DensityMatrix(p.n_v, qbm_thermal(p)[-1])


def brick_two_local_terms(n: int, coeff: float = 1.0) -> list[PauliTerm]:
    """Nearest-neighbour layered layout: singles, then even bonds, then odd bonds."""
    terms = [PauliTerm(coeff, ax) for ax in single_axes(n)]
    for parity in (0, 1):
        bonds = [(i, i + 1) for i in range(parity, n - 1, 2)]
        for i, j in bonds:
            terms += [
                PauliTerm(coeff, ((i, a), (j, b)))
                for a, b in [(a, b) for a in ("x", "y", "z") for b in ("x", "y", "z")]
            ]
    return terms


def uqnn_layer_terms(n: int, layout: str = "exhaustive") -> list[PauliTerm]:
    if layout == "exhaustive":
        return two_local_terms(n)
    if layout == "brick":
        return brick_two_local_terms(n)
    raise ValueError(f"unknown layout {layout!r}")


def build_uqnn(
    n_v: int,
    n_h: int,
    rng: np.random.Generator,
    layout: str = "exhaustive",
    repetitions: int = 1,
) -> UQNNParams:
    """Unitary network over the two-local generator set, thetas ~ N(0, 1)."""
    layer = uqnn_layer_terms(n_v + n_h, layout)
    gens = layer * repetitions
    thetas = rng.standard_normal(len(gens))
    return UQNNParams(n_v, n_h, gens, thetas)


def build_qbm(
    n_v: int, n_h: int, rng: np.random.Generator, normalize_init: bool = True
) -> QBMParams:
    """Boltzmann machine over the two-local basis, weights ~ N(0, 1).

    With normalize_init the initial weight vector is divided once by the
    operator norm of H(theta); training does not re-normalize.
    """
    basis = two_local_terms(n_v + n_h)
    thetas = rng.standard_normal(len(basis))
    p = QBMParams(n_v, n_h, basis, thetas)
    if normalize_init:
        p.thetas = p.thetas / qmath.op_norm(p.hamiltonian_dense())
    return p


# pair_axes is re-exported for layout-aware callers
__all__ = [
    "UQNNParams",
    "QBMParams",
    "gate_table",
    "apply_pauli",
    "apply_gate",
    "uqnn_statevector",
    "uqnn_full_state",
    "uqnn_visible_state",
    "visible_from_statevector",
    "circuit_prefix",
    "conjugated_generator",
    "conjugated_generator_vec",
    "uqnn_state_derivative",
    "qbm_thermal",
    "qbm_visible_state",
    "build_uqnn",
    "build_qbm",
    "uqnn_layer_terms",
    "brick_two_local_terms",
    "two_local_terms",
    "pair_axes",
]
