"""Pauli-basis Hamiltonians: random two-/three-local models, LCU form, normalization.

A Pauli string is stored sparsely as an axes list [(qubit, "x"|"y"|"z"), ...].
Its dense action on index i is a bit flip plus a phase, which keeps every
state-preparation and trace evaluation O(2^n) instead of O(4^n).
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

from . import qmath

AXES = ("x", "y", "z")


def _parity(v: np.ndarray) -> np.ndarray:
    """Bit parity of each entry (works for indices below 2^32)."""
    v = v.copy()
    for shift in (16, 8, 4, 2, 1):
        v ^= v >> shift
    return v & 1


def _bit(q: int, n: int) -> int:
    # Qubit 0 is the most significant bit of the basis index.
    return 1 << (n - 1 - q)


@dataclass(frozen=True)
class PauliTerm:
    """One weighted Pauli string: coeff * prod_q sigma_axis(q)."""

    coeff: float
    axes: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple((int(q), str(a)) for q, a in self.axes))
        qubits = [q for q, _ in self.axes]
        if any(a not in AXES for _, a in self.axes):
            raise ValueError(f"bad axis in {self.axes}")
        if sorted(set(qubits)) != qubits:
            raise ValueError(f"qubit indices must be strictly increasing: {qubits}")
        if qubits and qubits[0] < 0:
            raise ValueError("negative qubit index")

    def scaled(self, s: float) -> "PauliTerm":
        """The string with coefficient s * coeff; its axes, already checked, are not checked again."""
        term = object.__new__(PauliTerm)
        object.__setattr__(term, "coeff", s * self.coeff)
        object.__setattr__(term, "axes", self.axes)
        return term

    def masks(self, n_qubits: int) -> tuple[int, int, int]:
        """(xmask, zmask, n_y) with P = i^{n_y} X^xmask Z^zmask."""
        x = z = ny = 0
        for q, a in self.axes:
            if q >= n_qubits:
                raise ValueError(f"qubit {q} out of range for n={n_qubits}")
            b = _bit(q, n_qubits)
            if a in ("x", "y"):
                x |= b
            if a in ("z", "y"):
                z |= b
            ny += a == "y"
        return x, z, ny

    def action(self, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
        """(idx, col_phase) of the unit-coefficient string: P|i> = col_phase[i] |idx[i]>.

        Applying to a vector is `(col_phase * v)[idx]` since idx is an involution.
        """
        x, z, ny = self.masks(n_qubits)
        return string_action(x, z, n_qubits, ny)


def string_action(xmask, zmask, n_qubits: int, n_y=0) -> tuple[np.ndarray, np.ndarray]:
    """Action arrays for i^{n_y} X^xmask Z^zmask on the 2^n basis.

    The masks and n_y are ints, or stacked (L, 1) integer arrays for L
    strings at once; the arrays then have shape (L, 2^n), one row per string.
    """
    d = 2**n_qubits
    i = np.arange(d)
    idx = i ^ xmask
    col_phase = (1j**n_y) * np.where(_parity(i & zmask) == 1, -1.0, 1.0).astype(complex)
    return idx, col_phase


def string_trace(m: np.ndarray, idx: np.ndarray, col_phase: np.ndarray) -> complex:
    """Tr(P m) in O(dim): sum_k col_phase[k] * m[k, idx[k]]."""
    d = m.shape[0]
    return complex(np.sum(col_phase * m[np.arange(d), idx]))


class PauliTables(NamedTuple):
    """Stacked unit-coefficient strings, P_l|j> = col_phase[l, j] |idx[l, j]>, and the dense positions they use.

    idx[l, j] = j ^ x_l for the string's X/Y flip mask x_l, so the strings of one mask fill the same entries.
    """

    idx: np.ndarray  # (L, d)
    col_phase: np.ndarray  # (L, d)
    trace_at: np.ndarray  # (L, d): flat position of m[j, idx[l, j]], the entries Tr(P_l m) reads
    group_at: np.ndarray  # (G, d): flat position of m[j ^ x_g, j], one row per flip mask x_g that occurs
    groups: np.ndarray  # (S, G): 1 + the terms of mask x_g down column g, in term order; 0 leads and pads


def pauli_tables(terms, n_qubits: int) -> PauliTables:
    """The PauliTables of the strings `terms`, their coefficients left out.

    idx and col_phase are string_action over the stacked masks, so row l
    equals terms[l].action(n_qubits) bit for bit.
    """
    qmath.check_dim(2**n_qubits)
    masks = np.array([t.masks(n_qubits) for t in terms], dtype=np.int64).reshape(-1, 3, 1)
    return _mask_tables(masks[:, 0], masks[:, 1], n_qubits, masks[:, 2])


def _mask_tables(xmask: np.ndarray, zmask: np.ndarray, n_qubits: int, n_y: np.ndarray) -> PauliTables:
    """The PauliTables of the strings i^{n_y} X^xmask Z^zmask, masks stacked as (L, 1) integer arrays."""
    idx, col_phase = string_action(xmask, zmask, n_qubits, n_y)
    d, x, terms = idx.shape[1], xmask[:, 0], np.arange(len(xmask))
    present = np.zeros(d, dtype=bool)
    present[x] = True
    flips, group = np.flatnonzero(present), np.cumsum(present)[x] - 1
    # no sort (its first use pages in about 0.6 MB of code): a term's slot is its rank within its group
    rank = np.cumsum(group[:, None] == np.arange(len(flips)), axis=0)[terms, group]
    groups = np.zeros((rank.max(initial=0) + 1, len(flips)), dtype=np.intp)
    groups[rank, group] = 1 + terms
    j = np.arange(d)
    return PauliTables(idx, col_phase, idx + d * j, (flips[:, None] ^ j) * d + j, groups)


def pauli_traces(m: np.ndarray, tables: PauliTables) -> np.ndarray:
    """Tr(P_l m) for every row l of stacked pauli_tables, in one gather.

    Row l sums the same products in the same order as string_trace does.
    Leading axes of m index a stack of matrices, with one row of traces each.
    """
    d = m.shape[-1]
    entries = m.reshape(m.shape[:-2] + (d * d,)).take(tables.trace_at, axis=-1)  # m[..., j, idx[l, j]]
    return np.sum(tables.col_phase * entries, axis=-1)


def weighted_sum_dense(coeffs, tables: PauliTables) -> np.ndarray:
    """Dense sum_l coeffs[l] * P_l from the stacked tables of pauli_tables.

    Each flip-mask group sums its terms' values coeffs[l] * col_phase[l]
    down the zero-led `groups` table, starting from +0 and in term order,
    with one np.add.reduce over its slot axis; one plain assignment then
    writes every group's entries (one block of columns at desk sizes). So
    every entry is the sum a per-term loop (or a scatter in term order)
    would form, bit for bit; np.add.reduceat, which neither starts from +0 nor adds in order,
    would not be. Leading axes of coeffs give a stack of matrices, one per
    coefficient row.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    lead, (n_terms, d) = coeffs.shape[:-1], tables.col_phase.shape
    led = np.zeros(lead + (n_terms + 1, d), dtype=complex)  # row 0: the +0 every sum starts from
    np.multiply(coeffs[..., None], tables.col_phase, out=led[..., 1:, :])
    m = np.zeros(lead + (d, d), dtype=complex)
    flat = m.reshape(lead + (d * d,))
    # blocks of columns keep the padded slots within a quarter of the values' size (a three-local
    # sum on 12 qubits pads to 13.6 slots per term); 2^20 entries (16 MB) take any desk-size sum in one block
    cols = max(1, max(n_terms * d // 4, 1 << 20) // max(tables.groups.size, 1))
    for c in range(0, d, cols):
        slots = led[..., c:c + cols].take(tables.groups, axis=-2)
        flat[..., tables.group_at[:, c:c + cols]] = np.add.reduce(slots, axis=-3)
    return m


@dataclass
class LCUHamiltonian:
    """H = sum_l coeff_l * PauliString_l on n_qubits qubits.

    Its PauliTables are built once, on first use, unless it is given them,
    and shared with every `scaled` copy: a rescaled H has the same strings.
    """

    n_qubits: int
    terms: list[PauliTerm] = field(default_factory=list)
    _tables: PauliTables | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        seen = set()
        for t in self.terms:
            if t.axes in seen:
                raise ValueError(f"duplicate Pauli string {t.axes}")
            seen.add(t.axes)

    def tables(self) -> PauliTables:
        if self._tables is None:
            self._tables = pauli_tables(self.terms, self.n_qubits)
        return self._tables

    def dense(self) -> np.ndarray:
        return weighted_sum_dense([t.coeff for t in self.terms], self.tables())

    def scaled(self, s: float) -> "LCUHamiltonian":
        """s H, its terms not checked again and its tables shared."""
        self.tables()
        h = copy.copy(self)
        h.terms = [t.scaled(s) for t in self.terms]
        return h


def single_axes(n: int) -> list[tuple[tuple[int, str], ...]]:
    return [((q, a),) for q in range(n) for a in AXES]


def pair_axes(n: int) -> list[tuple[tuple[int, str], ...]]:
    return [
        ((i, a), (j, b))
        for i, j in combinations(range(n), 2)
        for a, b in product(AXES, AXES)
    ]


def triple_axes(n: int) -> list[tuple[tuple[int, str], ...]]:
    return [
        ((i, a), (j, b), (k, c))
        for i, j, k in combinations(range(n), 3)
        for a, b, c in product(AXES, AXES, AXES)
    ]


@functools.lru_cache(maxsize=16)
def _unit_terms(n: int, locality: int) -> tuple[PauliTerm, ...]:
    """The unit strings of up to `locality` qubits on n qubits, checked once, in canonical order."""
    axes = single_axes(n) + pair_axes(n) + (triple_axes(n) if locality == 3 else [])
    return tuple(PauliTerm(1.0, ax) for ax in axes)


@functools.lru_cache(maxsize=2)
def _unit_tables(n: int, locality: int) -> PauliTables:
    """The read-only PauliTables of _unit_terms(n, locality), shared by every target drawn from them.

    The two most recent (n, locality) stay cached for the life of the process (one run draws from
    one); a three-local set on 12 qubits holds about 0.86 GB.
    """
    tables = pauli_tables(_unit_terms(n, locality), n)
    for a in tables:
        a.flags.writeable = False
    return tables


def two_local_terms(n: int) -> list[PauliTerm]:
    """All 3n + 9*C(n,2) two-local strings in canonical order.

    Order is deterministic: by locality, then qubit indices, then axes
    (x < y < z), so the same list always enumerates the same way.
    """
    return list(_unit_terms(n, 2))


def random_two_local(
    n: int, std_single: float, std_pair: float, rng: np.random.Generator
) -> LCUHamiltonian:
    """Random H2 = sum_i J^i_a s_a^i + sum_{i<j} J^{ij}_{ab} s_a^i s_b^j."""
    if n < 1:
        raise ValueError("need at least one qubit")
    units = _unit_terms(n, 2)
    stds = [std_single] * (3 * n) + [std_pair] * (len(units) - 3 * n)
    terms = [t.scaled(std * rng.standard_normal()) for t, std in zip(units, stds)]
    return LCUHamiltonian(n, terms, _unit_tables(n, 2))


def random_three_local(n: int, std: float, rng: np.random.Generator) -> LCUHamiltonian:
    """Random H3 = H2 + triple terms, all coefficients ~ N(0, std^2)."""
    if n < 3:
        raise ValueError("three-local terms need n >= 3")
    terms = [t.scaled(std * rng.standard_normal()) for t in _unit_terms(n, 3)]
    return LCUHamiltonian(n, terms, _unit_tables(n, 3))


def normalize(h: LCUHamiltonian, tau: float) -> LCUHamiltonian:
    """Rescale coefficients so the dense realization has operator norm tau."""
    norm = qmath.op_norm(h.dense())
    if norm == 0.0:
        raise ValueError("cannot normalize the zero Hamiltonian")
    return h.scaled(tau / norm)
