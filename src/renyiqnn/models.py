"""Model architectures: unitary-circuit networks and Boltzmann machines.

A unitary network prepares sigma(theta) = W |0><0| W^dag with
W = e^{-i H_1 theta_1} ... e^{-i H_N theta_N} (the N-th factor hits |0>
first). Every generator H_j is a Pauli string with coefficient 1 (the gate
of -H_j is that of H_j at -theta_j), so each factor has the closed form
cos(theta) I - i sin(theta) H_j and the circuit runs on statevectors in
O(N 2^n). Boltzmann basis strings and checkpoints follow the same rule.

The statevector and the adjoint gradient sweep run block by block: a run
of consecutive generators grows while their joint support has no more
qubits than the layout's widest generator, w, is padded to w qubits with
idle ones, and is multiplied out into one small block unitary (2^w x 2^w,
the same shape for every block of a layout), the gate fusion of full
simulators (Qulacs, arXiv:2011.13524) applied to the adjoint method of
Jones & Gacon (arXiv:2009.02823), taken per block instead of per gate.
Blocks round differently from the per-gate loop: amplitudes agree to
1e-14, sweep entries to 1e-13 of the kernel's operator norm. The
conjugated generators come from the same kernel by the parameter shift
H~_k |psi(theta)> = i |psi(theta + (pi/2) e_k)>. Only gate_table and
apply_gate work gate by gate: the per-gate route the benchmark traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import qmath
from .hamiltonians import (
    LCUHamiltonian,
    PauliTerm,
    pauli_tables,
    single_axes,
    two_local_terms,
    weighted_sum_dense,
)
from .states import DensityMatrix

GateTable = tuple[np.ndarray, np.ndarray]


def _check_unit(term: PauliTerm) -> None:
    """Generators and basis strings have coefficient 1; a rotation's sign is carried by its angle."""
    if not abs(term.coeff - 1.0) <= 1e-12:
        raise ValueError(f"a generator must be a unit coefficient Pauli string, got coefficient {term.coeff}")


def gate_table(term: PauliTerm, n_qubits: int) -> GateTable:
    """(idx, col_phase) of a unit-coefficient generator."""
    _check_unit(term)
    return term.action(n_qubits)


def apply_gate(v: np.ndarray, table: GateTable, theta: float) -> np.ndarray:
    """e^{-i H theta} v via the cos/sin closed form, with H v = (col_phase * v)[idx]."""
    idx, col_phase = table
    hv = (col_phase * v)[idx] if v.ndim == 1 else (col_phase[:, None] * v)[idx, :]
    return np.cos(theta) * v - 1j * np.sin(theta) * hv


class BlockTable(NamedTuple):
    """A layout cut into B blocks of w qubits, w its widest generator; at most L gates each.

    gates: (B, L) generator index at each in-block position; positions past
           a block's end hold len(generators), whose angle reads as 0.
    phase: (B, L, 2^w) local generator P as a table, P|j> = phase[j] |idx[j]>;
           zero at padded positions.
    flip:  (B, 2^w, L, 2^w) flat index into a (B, 2^w, L + 1, 2^w) stack of
           matrices V: entry [b, m, t, j] addresses V[b, m, t, idx[j]], so
           V.reshape(-1)[flip] * phase[:, None] is every V_t P_t at once.

    Block b works on the state as a (2^w, 2^(n-w)) matrix over (local, rest)
    basis bits, flattened into "layout b". Each index table is composed with
    the inverse of its neighbour's, so one gather moves the state between
    layouts: state_gather[b] takes layout b+1 (natural order for the last
    block) to layout b, state_out takes layout 0 back to natural order, and
    sweep_gather[b] takes layout b-1 (natural order for b = 0) to layout b
    for a pair of states interleaved as (basis index, pair).
    """

    gates: np.ndarray
    phase: np.ndarray
    flip: np.ndarray
    state_gather: np.ndarray
    state_out: np.ndarray
    sweep_gather: np.ndarray


def _block_index(support: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Full basis index of layout position (local, rest), flattened; qubit 0 is the most significant bit."""

    def spread(qubits: list[int]) -> np.ndarray:
        k = np.arange(2 ** len(qubits))
        out = np.zeros_like(k)
        for i, q in enumerate(qubits):
            out |= ((k >> (len(qubits) - 1 - i)) & 1) << (n_qubits - 1 - q)
        return out

    rest = [q for q in range(n_qubits) if q not in support]
    return (spread(list(support))[:, None] | spread(rest)[None, :]).reshape(-1)


@functools.lru_cache(maxsize=16)
def _layout_blocks(generators: tuple[PauliTerm, ...], n_qubits: int) -> BlockTable:
    """Read-only block table of a circuit layout, shared by every parameter vector of it.

    A block is a run of consecutive generators that keeps absorbing the next
    one while the union of their supports has no more qubits than the
    layout's widest generator. A narrower run is then widened to that width
    with the lowest-numbered qubits it leaves idle, whose factor is the
    identity, so every block has one shape; each gate acts on its qubits'
    positions in the block's sorted support. Multiplying longer runs out
    rounds differently from the per-gate loop: amplitudes agree to 1e-14,
    sweep entries to 1e-13 of the kernel's norm.
    """
    for g in generators:
        _check_unit(g)
    supports = [tuple(q for q, _ in g.axes) for g in generators]
    width = max(map(len, supports), default=0)
    runs: list[tuple[tuple[int, ...], list[int]]] = []
    for j, support in enumerate(supports):
        if support and support[-1] >= n_qubits:
            raise ValueError(f"qubit {support[-1]} out of range for n={n_qubits}")
        union = tuple(sorted(set(runs[-1][0]) | set(support))) if runs else support
        if runs and len(union) <= width:
            runs[-1] = (union, runs[-1][1] + [j])
        else:
            runs.append((support, [j]))
    n_blocks, d, length = len(runs), 2**width, max((len(js) for _, js in runs), default=0)
    gates = np.full((n_blocks, length), len(generators))
    idx = np.broadcast_to(np.arange(d), (n_blocks, length, d)).copy()
    phase = np.zeros((n_blocks, length, d), dtype=complex)
    for b, (support, js) in enumerate(runs):
        idle = [q for q in range(n_qubits) if q not in support]
        support = tuple(sorted([*support, *idle[: width - len(support)]]))
        runs[b] = (support, js)
        for t, j in enumerate(js):
            local = PauliTerm(1.0, tuple((support.index(q), a) for q, a in generators[j].axes))
            gates[b, t] = j
            idx[b, t], phase[b, t] = local.action(width)
    # flat position of V[b, m, t, idx[b, t, j]] in a (B, d, L + 1, d) array
    rows = np.arange(n_blocks)[:, None, None] * d + np.arange(d)[None, :, None]
    flip = (rows[..., None] * (length + 1) + np.arange(length)[:, None]) * d + idx[:, None]
    dim = 2**n_qubits
    cols = np.array([_block_index(support, n_qubits) for support, _ in runs], dtype=int).reshape(n_blocks, dim)
    pos = np.argsort(cols, axis=1)  # pos[b][i]: where full index i sits in layout b
    natural = np.arange(dim)
    before = np.take_along_axis(np.vstack([natural, pos[:-1]]), cols, axis=1)
    table = BlockTable(
        gates,
        phase,
        flip,
        np.take_along_axis(np.vstack([pos[1:], natural]), cols, axis=1),
        pos[0] if n_blocks else natural,
        (2 * before[..., None] + np.arange(2)).reshape(n_blocks, 2 * dim),
    )
    for a in table:
        a.flags.writeable = False
    return table


def _block_products(table: BlockTable, thetas: np.ndarray) -> np.ndarray:
    """In-block prefix products, shape (R, B, 2^w, L + 1, 2^w) for thetas of shape (R, N).

    V[r, b, :, t] = G_0 ... G_{t-1} over block b's first t gates at member
    r's angles, with G = cos(theta) I - i sin(theta) P, built as
    V_{t+1} = cos V_t - i sin V_t P_t (one gather per in-block position for
    all blocks and members); V[r, b, :, L] is block b's unitary. Padded
    positions have angle 0, so they leave V as it is. Rows come first, so
    V[r, b] reshaped to (2^w, (L + 1) 2^w) is [V_0 | V_1 | ...] and one
    product by a 2^w x 2^w matrix reaches every prefix of a block.
    """
    th = np.concatenate([thetas, np.zeros((len(thetas), 1))], axis=1)
    n_blocks, d, length, _ = table.flip.shape
    t = th[:, table.gates]
    c = np.cos(t)[:, :, None, :, None]
    rows = (-1j * np.sin(t))[:, :, None, :, None] * table.phase[:, None]
    v = np.empty((len(th), n_blocks, d, length + 1, d), dtype=complex)
    v[..., 0, :] = np.eye(d)
    flat = v.reshape(len(th), -1)
    for pos in range(length):
        v[..., pos + 1, :] = c[..., pos, :] * v[..., pos, :] + rows[..., pos, :] * flat.take(table.flip[:, :, pos], axis=1)
    return v


@dataclass
class UQNNParams:
    """Ordered generators H_j with angles theta_j and a visible/hidden split.

    thetas of shape (R, N) hold R member networks of one layout, simulated
    in lockstep: the statevector and the gradient sweep then carry a
    leading member axis.
    """

    n_v: int
    n_h: int
    generators: list[PauliTerm]
    thetas: np.ndarray
    _blocks: BlockTable | None = field(default=None, repr=False, compare=False)
    _products: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        if self.thetas.ndim not in (1, 2) or self.thetas.shape[-1] != len(self.generators):
            raise ValueError("one theta per generator required")

    @property
    def n_qubits(self) -> int:
        return self.n_v + self.n_h

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def blocks(self) -> BlockTable:
        """The layout's shared read-only block table."""
        if self._blocks is None:
            self._blocks = _layout_blocks(tuple(self.generators), self.n_qubits)
        return self._blocks

    def block_products(self) -> np.ndarray:
        """_block_products of the current thetas, rebuilt only when thetas change; always with a member axis."""
        if self._products is None or not np.array_equal(self._products[0], self.thetas):
            thetas = np.array(self.thetas, dtype=float)
            self._products = (thetas, _block_products(self.blocks(), np.atleast_2d(thetas)))
        return self._products[1]


def uqnn_statevector(p: UQNNParams) -> np.ndarray:
    """W |0...0> with the last block applied first: one gather and one product per block.

    Member thetas (R, N) give one state per row, shape (R, 2^n).
    """
    qmath.check_dim(p.dim)
    n = len(p.thetas) if p.thetas.ndim == 2 else 1
    psi = np.zeros((n, p.dim), dtype=complex)
    psi[:, 0] = 1.0
    table, v = p.blocks(), p.block_products()
    for b in reversed(range(len(table.gates))):
        psi = v[:, b, :, -1] @ psi.reshape(n, -1).take(table.state_gather[b], axis=1).reshape(n, v.shape[2], -1)
    psi = psi.reshape(n, -1).take(table.state_out, axis=1)
    return psi if p.thetas.ndim == 2 else psi[0]


def uqnn_visible_state(p: UQNNParams) -> DensityMatrix:
    """Tr_h |psi><psi| = M M^dag, M the statevector reshaped to d_v x d_h; its factor is the SVD of M.

    Member thetas (R, N) give a stack of R states.
    """
    psi = uqnn_statevector(p)
    return DensityMatrix.from_root(psi.reshape(psi.shape[:-1] + (2**p.n_v, 2**p.n_h)))


def conjugated_generator_vec(p: UQNNParams, k: int) -> np.ndarray:
    """W_k H_k W_k^dag |psi> for the circuit's own state |psi>; one vector per member row.

    Every gate is e^{-i theta H} with H^2 = I, so e^{-i (theta + pi/2) H} =
    -i H e^{-i theta H} and H~_k |psi(theta)> = i |psi(theta + (pi/2) e_k)>:
    one block statevector at the shifted angles, on the layout's shared blocks.
    """
    if not 1 <= k <= len(p.generators):
        raise IndexError(f"k={k} out of range 1..{len(p.generators)}")
    thetas = p.thetas.copy()
    thetas[..., k - 1] += np.pi / 2
    return 1j * uqnn_statevector(UQNNParams(p.n_v, p.n_h, p.generators, thetas, _blocks=p.blocks()))


@dataclass
class QBMParams:
    """Pauli-basis weights theta defining H(theta) = sum_m theta_m basis_m.

    thetas of shape (R, M) hold R member machines of one basis, evaluated
    in lockstep with a leading member axis.
    """

    n_v: int
    n_h: int
    basis: list[PauliTerm]
    thetas: np.ndarray
    _tables: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.thetas = np.asarray(self.thetas, dtype=float)
        if self.thetas.ndim not in (1, 2) or self.thetas.shape[-1] != len(self.basis):
            raise ValueError("one theta per basis term required")
        for t in self.basis:
            _check_unit(t)

    @property
    def n_qubits(self) -> int:
        return self.n_v + self.n_h

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (idx, col_phase) of the basis strings, shape (len(basis), dim)."""
        # the basis is fixed per object; only thetas change in training
        if self._tables is None:
            self._tables = pauli_tables(self.basis, self.n_qubits)
        return self._tables

    def hamiltonian_dense(self) -> np.ndarray:
        return weighted_sum_dense(self.thetas, self.tables())

    def to_hamiltonian(self) -> LCUHamiltonian:
        terms = [PauliTerm(float(th), t.axes) for th, t in zip(self.thetas, self.basis)]
        return LCUHamiltonian(self.n_qubits, [t for t in terms if t.coeff != 0.0])


def checkpoint_doc(p: UQNNParams | QBMParams, rng_seed: int | None = None, epoch: int = 0) -> dict:
    """The checkpoint of a model of either kind; load_checkpoint_model reads it back."""
    kind, terms = ("uqnn", p.generators) if isinstance(p, UQNNParams) else ("qbm", p.basis)
    return {
        "kind": kind,
        "n_v": p.n_v,
        "n_h": p.n_h,
        "generators": [{"coeff": float(t.coeff), "axes": [[q, a] for q, a in t.axes]} for t in terms],
        "thetas": [float(t) for t in p.thetas],
        "rng_seed": rng_seed,
        "epoch": epoch,
    }


def _checkpoint_field(doc: dict, key: str, ok, what: str):
    if key not in doc:
        raise ValueError(f"checkpoint lacks {key!r}")
    if not ok(doc[key]):
        raise ValueError(f"checkpoint {key} must be {what}, got {doc[key]!r}")
    return doc[key]


def load_checkpoint_model(doc: dict) -> UQNNParams | QBMParams:
    """Rebuild the model a checkpoint dict describes.

    A checkpoint comes from outside the program: a malformed document
    raises ValueError naming the field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a checkpoint must be a JSON object, got {type(doc).__name__}")
    kind = _checkpoint_field(doc, "kind", lambda v: v in ("uqnn", "qbm"), "'uqnn' or 'qbm'")
    n_v = _checkpoint_field(doc, "n_v", lambda v: qmath.is_integer(v) and v >= 1, "an integer >= 1")
    n_h = _checkpoint_field(doc, "n_h", lambda v: qmath.is_integer(v) and v >= 0, "an integer >= 0")
    gens = _checkpoint_field(doc, "generators", lambda v: isinstance(v, list), "a list")
    thetas = _checkpoint_field(
        doc, "thetas",
        lambda v: isinstance(v, list) and len(v) == len(gens) and all(map(qmath.is_number, v)),
        f"a list of {len(gens)} finite numbers, one per generator",
    )
    terms = []
    for i, g in enumerate(gens):
        try:
            coeff, axes = g["coeff"], tuple((q, a) for q, a in g["axes"])
            if not qmath.is_number(coeff) or not all(qmath.is_integer(q) for q, _ in axes):
                raise TypeError(f"coeff must be a number and qubits integers, got {g!r}")
            term = PauliTerm(float(coeff), axes)
            term.masks(n_v + n_h)  # every qubit in range
            _check_unit(term)
        except KeyError as exc:
            raise ValueError(f"checkpoint generators[{i}] lacks {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"checkpoint generators[{i}]: {exc}") from exc
        terms.append(term)
    cls = UQNNParams if kind == "uqnn" else QBMParams
    return cls(n_v, n_h, terms, np.array(thetas, dtype=float))


def qbm_thermal(p: QBMParams) -> tuple[np.ndarray, np.ndarray, float | np.ndarray, DensityMatrix]:
    """(w, V, Z, sigma_v) of the Boltzmann state in the eigenbasis H = V diag(w) V^dag.

    w is shifted so that min(w) = 0 and Z = sum e^{-w}; the shift cancels
    in every ratio with Z and keeps e^{-w} <= 1, so no spectral spread
    overflows. sigma_v = Tr_h(e^{-H}) / Z comes with its factor: exactly
    (V, e^{-w} / Z) when n_h = 0; otherwise sigma_v = B B^dag with B the
    columns of V e^{-w/2} / sqrt(Z) reshaped by hidden index to
    d_v x (d_h 2^n), factored by its SVD. Member thetas (R, M) give every
    output a leading member axis.
    """
    w, v = np.linalg.eigh(p.hamiltonian_dense())
    w = w - w[..., :1]
    ew = np.exp(-w)
    z = np.sum(ew, axis=-1)
    weights = ew / z[..., None]
    if p.n_h == 0:
        sigma_v = DensityMatrix.from_factor(v, weights)
    else:
        b = v * np.sqrt(weights)[..., None, :]
        sigma_v = DensityMatrix.from_root(b.reshape(b.shape[:-2] + (2**p.n_v, -1)))
    return w, v, (float(z) if z.ndim == 0 else z), sigma_v


def qbm_visible_state(p: QBMParams) -> DensityMatrix:
    """Tr_h(e^{-H(theta)}) / Tr(e^{-H(theta)}) with its factor; full rank by construction."""
    return qbm_thermal(p)[-1]


def brick_two_local_terms(n: int) -> list[PauliTerm]:
    """Nearest-neighbour layered layout: singles, then even bonds, then odd bonds."""
    terms = [PauliTerm(1.0, ax) for ax in single_axes(n)]
    for parity in (0, 1):
        bonds = [(i, i + 1) for i in range(parity, n - 1, 2)]
        for i, j in bonds:
            terms += [
                PauliTerm(1.0, ((i, a), (j, b)))
                for a, b in [(a, b) for a in ("x", "y", "z") for b in ("x", "y", "z")]
            ]
    return terms


LAYOUTS = {"exhaustive": two_local_terms, "brick": brick_two_local_terms}


@functools.lru_cache(maxsize=16)
def _layer_generators(n: int, layout: str) -> tuple[PauliTerm, ...]:
    """One shared copy of a layout's generators; every network built on it holds these terms."""
    if layout not in LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}")
    return tuple(LAYOUTS[layout](n))


def build_uqnn(
    n_v: int,
    n_h: int,
    rng: np.random.Generator,
    layout: str = "exhaustive",
    repetitions: int = 1,
) -> UQNNParams:
    """Unitary network over the two-local generator set, thetas ~ N(0, 1)."""
    gens = list(_layer_generators(n_v + n_h, layout)) * repetitions
    thetas = rng.standard_normal(len(gens))
    return UQNNParams(n_v, n_h, gens, thetas)


def build_qbm(n_v: int, n_h: int, rng: np.random.Generator) -> QBMParams:
    """Boltzmann machine over the two-local basis, weights ~ N(0, 1) divided once by the operator norm of H(theta)."""
    basis = two_local_terms(n_v + n_h)
    thetas = rng.standard_normal(len(basis))
    p = QBMParams(n_v, n_h, basis, thetas)
    p.thetas = p.thetas / qmath.op_norm(p.hamiltonian_dense())
    return p


__all__ = [
    "UQNNParams",
    "QBMParams",
    "gate_table",
    "apply_gate",
    "uqnn_statevector",
    "uqnn_visible_state",
    "conjugated_generator_vec",
    "checkpoint_doc",
    "load_checkpoint_model",
    "qbm_thermal",
    "qbm_visible_state",
    "build_uqnn",
    "build_qbm",
    "brick_two_local_terms",
    "two_local_terms",
]
