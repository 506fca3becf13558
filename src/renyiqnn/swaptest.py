"""Extended swap-test circuits and shot-based estimators.

An n-register swap test encodes Re Tr(U_1 rho_1 U_2 rho_2 ... U_n rho_n) in
the statistics of one ancilla bit: Hadamard, controlled-U_i on each register,
controlled inverse cyclic shift, Hadamard, measure. This module simulates
that circuit exactly, checks it against the closed form, and builds the two
estimators that rest on it: trace powers Tr(rho^m), and an importance-sampled
estimate of single gradient entries for thermal targets, where e^H is
expanded as a power series and sampled term by term.

Shot outcomes are drawn from exactly computed Bernoulli success
probabilities; statistics are identical to per-shot circuit execution at a
tiny fraction of the cost.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import qmath
from .hamiltonians import LCUHamiltonian, PauliTerm, _parity, pauli_traces, string_action
from .models import UQNNParams, conjugated_generator_vec, uqnn_statevector
from .states import DensityMatrix

UNITARY_TOL = 1e-8
CIRCUIT_TOL = 1e-10
DEFAULT_Q_MAX = 30
ALPHA_NORM_GUARD = 20.0
# largest series cutoff: the weights divide by q! as a float up to q = q_max + 1, and 171! overflows one
_Q_MAX_CAP = 169

_HAD1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
# shots per block of the Monte-Carlo sampler: its temporaries do not grow with the shot count
_BLOCK = 2**14


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most _BLOCK items covering range(n)."""
    return (slice(s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK))


def _inverse_cdf(p: np.ndarray) -> Callable[[np.random.Generator, int | tuple[int, ...]], np.ndarray]:
    """Sampler of indices i with probability p[i]: draw(rng, size) equals rng.choice(len(p), size, p=p).

    Generator.choice draws u = rng.random(size) and returns the number of
    entries of cdf = p.cumsum() / (its last entry) that are <= u. draw takes
    the same uniforms and counts the same entries by binary lifting: the
    entries below 1.0 (u < 1 never reaches the others), padded with +inf to
    a power of two, are searched with one gather and compare per halving
    step, log2 of the table size in all. Indices, and the generator's state
    afterwards, are bit-identical to choice's.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    below = cdf[cdf < 1.0]
    pad = np.full(1 << below.size.bit_length(), np.inf)
    pad[: below.size] = below
    steps = [pad.size >> j for j in range(1, pad.size.bit_length())]

    def draw(rng: np.random.Generator, size: int | tuple[int, ...]) -> np.ndarray:
        u = rng.random(size)
        i = np.zeros(u.shape, dtype=np.intp)
        for step in steps:
            # step more entries <= u when the last of pad[i : i + step] is
            i += step * (pad[step - 1 :].take(i) <= u)
        return i

    return draw


@dataclass
class MCEstimate:
    """One Monte-Carlo scalar estimate with its sampling error.

    std_error is the sample standard deviation over shots divided by
    sqrt(shots) (0.0 when a single shot makes the sample std undefined).
    tail_bound is the first term dropped by the series cutoff, 0.0 for
    estimators that do not truncate a series.
    """

    mean: float
    std_error: float
    shots: int
    q_max: int
    tail_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        for name in ("mean", "std_error", "tail_bound"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite {name} {getattr(self, name)}")
        if self.std_error < 0.0:
            raise ValueError(f"bad std_error {self.std_error}")


@dataclass
class SwapTestSpec:
    """Registers rho_1..rho_n (equal qubit counts) with one unitary each."""

    registers: list[DensityMatrix]
    unitaries: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.registers:
            raise ValueError("need at least one register")
        if len(self.unitaries) != len(self.registers):
            raise ValueError("one unitary per register required")
        m = self.registers[0].n_qubits
        if any(r.n_qubits != m for r in self.registers):
            raise ValueError("register qubit counts differ")
        d = 2**m
        self.unitaries = [np.asarray(u, dtype=complex) for u in self.unitaries]
        for u in self.unitaries:
            if u.shape != (d, d):
                raise ValueError(f"unitary shape {u.shape} does not match {m}-qubit registers")
            if np.max(np.abs(u.conj().T @ u - np.eye(d))) > UNITARY_TOL:
                raise ValueError("matrix is not unitary")

    @property
    def n_regs(self) -> int:
        return len(self.registers)

    @property
    def m_qubits(self) -> int:
        return self.registers[0].n_qubits


def cyclic_shift(n_regs: int, m_qubits: int) -> np.ndarray:
    """Permutation S moving the last m-qubit register to the front.

    S |x_1, ..., x_n> = |x_n, x_1, ..., x_{n-1}>, so conjugation cycles a
    tensor product: S (A_1 x ... x A_n) S^dag = A_n x A_1 x ... x A_{n-1}.
    S^n = identity.
    """
    if n_regs < 1:
        raise ValueError("need at least one register")
    if m_qubits < 1:
        raise ValueError("registers must hold at least one qubit")
    d = 2**m_qubits
    dim = d**n_regs
    qmath.check_dim(dim)
    src = np.arange(dim)
    dst = (src % d) * d ** (n_regs - 1) + src // d
    s = np.zeros((dim, dim), dtype=complex)
    s[dst, src] = 1.0
    return s


def swap_test_probability(spec: SwapTestSpec) -> float:
    """Probability of measuring the ancilla in |0>.

    Evaluates both routes: (a) the explicit circuit - Hadamard, each
    controlled-U_i, the controlled inverse cyclic shift, Hadamard, project
    the ancilla on |0> - and (b) the closed form
    (1 + Re Tr(U_1 rho_1 ... U_n rho_n)) / 2, in register order. The two
    must agree to 1e-10; the closed form is returned.
    """
    n, m = spec.n_regs, spec.m_qubits
    d = 2**m
    dim = d**n
    qmath.check_dim(2 * dim)

    prod = spec.unitaries[0] @ spec.registers[0].mat
    for u, r in zip(spec.unitaries[1:], spec.registers[1:]):
        prod = prod @ u @ r.mat
    closed = 0.5 * (1.0 + float(np.real(np.trace(prod))))

    block = spec.registers[0].mat
    for r in spec.registers[1:]:
        block = np.kron(block, r.mat)
    chi = np.zeros((2 * dim, 2 * dim), dtype=complex)
    chi[:dim, :dim] = block

    had = np.kron(_HAD1, np.eye(dim))
    chi = had @ chi @ had
    for i, u in enumerate(spec.unitaries):
        u_block = np.kron(np.kron(np.eye(d**i), u), np.eye(d ** (n - 1 - i)))
        cu = np.eye(2 * dim, dtype=complex)
        cu[dim:, dim:] = u_block
        chi = cu @ chi @ cu.conj().T
    cs = np.eye(2 * dim, dtype=complex)
    cs[dim:, dim:] = cyclic_shift(n, m).conj().T
    chi = cs @ chi @ cs.conj().T
    chi = had @ chi @ had
    circuit = float(np.real(np.trace(chi[:dim, :dim])))

    if abs(circuit - closed) >= CIRCUIT_TOL:
        raise ArithmeticError(
            f"swap-test circuit and closed form disagree by {abs(circuit - closed):.3e}"
        )
    return closed


def trace_power_estimate(
    rho: DensityMatrix, m: int, shots: int, rng: np.random.Generator
) -> MCEstimate:
    """Shot-based estimate of Tr(rho^m).

    The m-register swap test with identity unitaries has ancilla success
    probability (1 + Tr(rho^m)) / 2. That probability is computed exactly,
    `shots` Bernoulli outcomes are drawn, and the estimate is
    2 * (success fraction) - 1.
    """
    if m < 1:
        raise ValueError("power m must be >= 1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    tr = float(np.real(np.trace(np.linalg.matrix_power(rho.mat, m))))
    p0 = min(max(0.5 * (1.0 + tr), 0.0), 1.0)
    successes = int(rng.binomial(shots, p0))
    mean = 2.0 * successes / shots - 1.0
    # +-1 outcomes: sum of squared deviations is shots * (1 - mean^2)
    se = math.sqrt(max(0.0, 1.0 - mean * mean) / (shots - 1)) if shots > 1 else 0.0
    return MCEstimate(mean=mean, std_error=se, shots=shots, q_max=0, tail_bound=0.0)


def _series_terms(h: LCUHamiltonian) -> tuple[list[PauliTerm], np.ndarray, float]:
    """The nonzero terms of h, their coefficients alpha, and |alpha|_1 as the estimator's guard sums it."""
    terms = [t for t in h.terms if t.coeff != 0.0]
    alpha = np.array([t.coeff for t in terms])
    return terms, alpha, float(np.sum(np.abs(alpha)))


def mc_reverse_gradient_thermal(
    p: UQNNParams,
    target_h: LCUHamiltonian,
    k: int,
    shots: int,
    rng: np.random.Generator,
    q_max: int = DEFAULT_Q_MAX,
) -> MCEstimate:
    """Sampled estimate of one reverse-divergence gradient entry, thermal target.

    For rho = e^{-H}/Z the entry d/dtheta_k ln Tr(sigma_v^2 rho^{-1}) equals

        2 Im[Tr(A sigma_v e^H) + Tr(A e^H sigma_v)] / Tr(sigma_v^2 e^H),

    with A = Tr_h(H~_k sigma) and H~_k the conjugated k-th generator; the
    partition function cancels between numerator and denominator. Both traces
    expand e^H = sum_q H^q / q! over the Pauli form H = sum_l alpha_l P_l.
    Each shot samples an expansion order q with weight |alpha|_1^q / q!
    (cut off at q_max; the first dropped weight is reported as tail_bound),
    then q string indices i.i.d. with probability |alpha_l| / |alpha|_1,
    coefficient signs folded into the sampled string. The swap-test success
    probability of the sampled term is computed exactly and one Bernoulli
    outcome drawn per circuit; the numerator combines four circuits (the two
    operator orderings and their adjoints) whose imaginary parts add, while
    the denominator is a single real-part test on sigma_v^2.

    `shots` counts samples per stream; the numerator and denominator streams
    are drawn independently and the ratio's std_error comes from first-order
    error propagation.

    A product of Pauli strings is again one string times a power of i, so
    each shot carries one small-integer label (x mask, z mask, phase
    exponent), composed per sampled string with an XOR and a parity. The
    trace is computed once per label that occurs (at most 4^(n_v+1)), and
    the per-shot work runs in blocks of _BLOCK shots. Outcomes are tallied
    as exact integers: the denominator as a count of +1 outcomes, the
    numerator as one int8 per shot (its four draw rows are consumed row
    after row) reduced to a histogram of its five values. Memory is
    O(shots) bytes: an order, a label and that int8 per shot, plus the
    shot indices of one expansion order at a time. Orders and string picks
    are drawn by inverting the two cumulative tables, built once per
    estimate (_inverse_cdf): one uniform per draw, mapped to the index that
    Generator.choice returns for the same uniform, so stream and estimates
    match a sampler that calls choice. The random stream is
    consumed in a fixed order (all orders, then each order's string picks
    in increasing order, the denominator draws, then the four numerator
    draw rows), so estimates do not depend on the block size.
    """
    if target_h.n_qubits != p.n_v:
        raise ValueError(
            f"target Hamiltonian acts on {target_h.n_qubits} qubits, visible register has {p.n_v}"
        )
    if not 1 <= k <= len(p.generators):
        raise IndexError(f"k={k} out of range 1..{len(p.generators)}")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= q_max <= _Q_MAX_CAP:
        raise ValueError(f"q_max must be in 0..{_Q_MAX_CAP}, got {q_max}")

    terms, alpha, a1 = _series_terms(target_h)
    if not math.isfinite(a1):
        raise ValueError(f"coefficient l1 norm is {a1}; every target coefficient must be finite")
    if a1 > ALPHA_NORM_GUARD:
        raise ValueError(
            f"coefficient l1 norm {a1:.3f} exceeds {ALPHA_NORM_GUARD}; "
            "the series sampler needs e^{2|alpha|_1} shots to resolve anything"
        )

    dv = 2**p.n_v
    psi = uqnn_statevector(p)
    phi = conjugated_generator_vec(p, k)
    psi_m = psi.reshape(dv, -1)
    phi_m = phi.reshape(dv, -1)
    sv = psi_m @ psi_m.conj().T  # Tr_h |psi><psi|
    a_mat = phi_m @ psi_m.conj().T  # Tr_h(H~_k |psi><psi|)

    bs_den = [sv @ sv]
    bs_num = [a_mat @ sv, sv @ a_mat, a_mat.conj().T @ sv, sv @ a_mat.conj().T]

    # Label i^e X^x Z^z as x << (n_v + 2) | z << 2 | e; a negative
    # coefficient adds 2 to e. Label 0 is the identity, the product at q = 0.
    n = p.n_v
    masks = [t.masks(n) for t in terms]
    term_lab = np.array(
        [x << (n + 2) | z << 2 | (ny + 2 * (t.coeff < 0.0)) & 3 for t, (x, z, ny) in zip(terms, masks)],
        dtype=np.int64,
    )
    n_lab = 4 ** (n + 1)

    orders = np.arange(q_max + 1)
    weights = a1**orders / np.array([math.factorial(q) for q in orders], dtype=float)
    t_mass = float(weights.sum())
    tail = a1 ** (q_max + 1) / math.factorial(q_max + 1)
    draw_order = _inverse_cdf(weights / t_mass)
    # with a1 == 0 every order is 0 and no string is drawn
    draw_pick = _inverse_cdf(np.abs(alpha) / a1) if a1 > 0.0 else None

    def sample_labels() -> np.ndarray:
        """Label of the sampled string product U = P_1 ... P_q, one per shot."""
        qs = np.empty(shots, dtype=np.min_scalar_type(q_max))
        for blk in _blocks(shots):
            qs[blk] = draw_order(rng, qs[blk].size)
        labels = np.zeros(shots, dtype=np.min_scalar_type(n_lab - 1))
        for q in range(1, int(qs.max()) + 1):
            rows = np.flatnonzero(qs == q)
            for blk in _blocks(rows.size):
                picks = term_lab[draw_pick(rng, (rows[blk].size, q))]
                lab = picks[:, 0]
                for t in picks.T[1:]:
                    # (i^a X^x Z^z)(i^b X^x' Z^z') = i^(a+b+2|z&x'|) X^(x^x') Z^(z^z')
                    flip = _parity((lab >> 2) & (t >> (n + 2)))
                    lab = ((lab ^ t) & ~3) | ((lab + t + 2 * flip) & 3)
                labels[rows[blk]] = lab
        return labels

    def label_traces(labels: np.ndarray, bs: list[np.ndarray]) -> np.ndarray:
        """Exact Tr(B U) per circuit B and per label that occurs, (len(bs), 4^(n_v + 1))."""
        seen = np.zeros(n_lab, dtype=bool)
        for blk in _blocks(shots):
            seen[labels[blk]] = True
        used = np.flatnonzero(seen)
        lab = used[:, None]
        tables = string_action(lab >> (n + 2), (lab >> 2) & (dv - 1), n, lab & 3)
        t_lab = np.zeros((len(bs), n_lab), dtype=complex)
        for mi, b in enumerate(bs):
            t_lab[mi, used] = pauli_traces(b, tables)
        if float(np.max(np.abs(t_lab[:, seen]))) > 1.0 + 1e-9:
            raise ArithmeticError("sampled trace left the unit disc; not a valid shot probability")
        return t_lab

    def hits(p_lab: np.ndarray, labels: np.ndarray, blk: slice) -> np.ndarray:
        """One Bernoulli draw per shot of the block: True for the +1 outcome."""
        return rng.random(labels[blk].size) < p_lab.take(labels[blk])

    labels = sample_labels()
    p_den = np.clip(0.5 * (1.0 + label_traces(labels, bs_den)[0].real), 0.0, 1.0)
    n_plus = sum(int(np.count_nonzero(hits(p_den, labels, blk))) for blk in _blocks(shots))
    del labels  # not alive while the numerator's labels are drawn

    labels = sample_labels()
    # ancilla phase-gate variant: success probability carries Im, not Re
    p_num = np.clip(0.5 * (1.0 + label_traces(labels, bs_num).imag), 0.0, 1.0)
    # hits of the two + rows minus hits of the two - rows, in -2..2: half the shot's outcome sum
    net = np.zeros(shots, dtype=np.int8)
    for p_lab, add in zip(p_num, (np.add, np.add, np.subtract, np.subtract)):
        for blk in _blocks(shots):
            add(net[blk], hits(p_lab, labels, blk), out=net[blk])
    counts = sum(np.bincount(net[blk] + 2, minlength=5) for blk in _blocks(shots))
    s_num = sum(u * int(c) for u, c in zip(range(-4, 5, 2), counts))
    ss_num = sum(u * u * int(c) for u, c in zip(range(-4, 5, 2), counts))

    mean, se = _ratio_stats(s_num, ss_num, 2 * n_plus - shots, shots, shots, t_mass)
    return MCEstimate(mean=mean, std_error=se, shots=shots, q_max=q_max, tail_bound=tail)


def _ratio_stats(s_num: int, ss_num: int, s_den: int, ss_den: int, shots: int, scale: float) -> tuple[float, float]:
    """Mean and std_error of mean(x) / mean(y) from exact integer tallies of shot values.

    Shot i has values x_i = scale * u_i and y_i = scale * v_i with integers
    u_i, v_i; S_u = s_num = sum u, SS_u = ss_num = sum u^2, and S_v = s_den,
    SS_v = ss_den likewise. The mean is the ratio of the two shot means,
    (scale * (S_u / n)) / (scale * (S_v / n)). The std_error is first-order
    error propagation of the two sample standard errors (ddof=1), in which
    the scale cancels,

        se^2 = [S_v^2 (n SS_u - S_u^2) + S_u^2 (n SS_v - S_v^2)] / ((n - 1) S_v^4),

    evaluated as one correctly rounded integer division and one square root;
    0.0 for a single shot.
    """
    if s_den == 0:
        raise ArithmeticError("denominator estimate is exactly zero; increase shots")
    n = shots
    mean = (scale * (s_num / n)) / (scale * (s_den / n))
    if n == 1:
        return mean, 0.0
    var = s_den**2 * (n * ss_num - s_num**2) + s_num**2 * (n * ss_den - s_den**2)
    return mean, math.sqrt(var / ((n - 1) * s_den**4))


__all__ = [
    "MCEstimate",
    "SwapTestSpec",
    "cyclic_shift",
    "swap_test_probability",
    "trace_power_estimate",
    "mc_reverse_gradient_thermal",
]
