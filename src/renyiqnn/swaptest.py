"""Extended swap-test circuits and shot-based estimators.

An n-register swap test encodes Re Tr(U_1 rho_1 U_2 rho_2 ... U_n rho_n) in
the statistics of one ancilla bit: Hadamard, controlled-U_i on each register,
controlled inverse cyclic shift, Hadamard, measure. This module simulates
that circuit exactly, checks it against the closed form, and builds the two
estimators that rest on it: trace powers Tr(rho^m), and an importance-sampled
estimate of single gradient entries for thermal targets, where e^H is
expanded as a power series and sampled term by term.

Shot outcomes are Bernoulli draws at exactly computed success
probabilities, drawn as counts: one binomial for a trace power. A gradient
entry draws its sampled series terms as counts too: the shots per label
(sampled Pauli product) of each stream are one multinomial over the exact
label law of a shot, the mixture of the expansion orders' laws, and then a
binomial or a multinomial per label over the shots that drew it. Their
statistics are identical to per-shot circuit execution, and no cost grows
with the shot count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .hamiltonians import LCUHamiltonian, PauliTerm, _parity
from .models import UQNNParams, uqnn_statevector
from .states import DensityMatrix

UNITARY_TOL = 1e-8
CIRCUIT_TOL = 1e-10
DEFAULT_Q_MAX = 30
ALPHA_NORM_GUARD = 20.0
# largest series cutoff: the weights divide by q! as a float up to q = q_max + 1, and 171! overflows one
_Q_MAX_CAP = 169
# largest visible register of a gradient estimate: its label law and label traces hold a few 4^(n_v+1)-entry
# arrays and cost O(8^n_v) time (n_v = 8: 0.14-0.2 s on one BLAS thread, 46 MB traced; 4x the memory per qubit more)
_MC_MAX_N_V = 8

_HAD1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


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
    the denominator is a single real-part test on sigma_v^2. With no hidden
    qubits, sigma_v A = <psi|H~_k|psi> sigma_v with a real factor, so the
    ordering Tr(A e^H sigma_v) has no imaginary part: its two circuits share
    their success probability at every label and add only variance, and the
    numerator draws the other ordering's two circuits alone.

    `shots` counts samples per stream; the numerator and denominator streams
    are drawn independently and the ratio's std_error comes from first-order
    error propagation.

    A product of Pauli strings is again one string times a power of i, so
    a shot's sampled term is one of 4^(n_v+1) labels i^e X^x Z^z, and the
    label of a shot, which draws its order and then its product, has one
    exact law: the mixture of the order-q laws with the order weights
    (_label_law). Shots are therefore drawn as counts, never one by one: the
    shots per label of each stream are one multinomial over that law. The
    traces of all labels come from one Pauli expansion per circuit
    (_pauli_expansion). Given its label, a shot's outcomes are independent
    Bernoulli draws, so they are drawn per label as exact integer tallies:
    the denominator's +1 count among the label's shots is binomial, and the
    histogram of the numerator's added draw rows minus its subtracted ones
    over them (B1 + B2 - B3 - B4 on -2..2, or B1 - B4 on -1..1 with no
    hidden qubits) is multinomial (_net_law). Together these are the joint
    law of the tallies of per-shot draws.

    The random stream is consumed in a fixed order: the label counts of
    both streams (one multinomial of two rows, denominator first), the
    denominator's binomials and the numerator's multinomials, each over all
    labels in label order. The label law is built once per estimate, for
    both streams, and with the label traces it takes O(q_max 4^n_v + 8^n_v)
    time and O(4^(n_v+1)) memory, whatever the number of target terms; n_v
    is capped at _MC_MAX_N_V. No step grows with the shot count, and no
    array spans the shots.
    """
    if target_h.n_qubits != p.n_v:
        raise ValueError(
            f"target Hamiltonian acts on {target_h.n_qubits} qubits, visible register has {p.n_v}"
        )
    if not 1 <= k <= len(p.generators):
        raise IndexError(f"k={k} out of range 1..{len(p.generators)}")
    if p.thetas.ndim != 1 or p.n_v > _MC_MAX_N_V:
        raise ValueError(f"an estimate takes one network of at most {_MC_MAX_N_V} visible qubits")
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
    # psi and H~_k psi = i psi(theta + (pi/2) e_k) (models.conjugated_generator_vec) as one two-member
    # statevector on the model's block table, so the caller's model keeps no cached block products
    thetas = np.stack([p.thetas, p.thetas])
    thetas[1, k - 1] += np.pi / 2
    local = UQNNParams(p.n_v, p.n_h, p.generators, thetas, _blocks=p.blocks())
    psi_m, phi_m = uqnn_statevector(local).reshape(2, dv, -1)
    sv = psi_m @ psi_m.conj().T  # Tr_h |psi><psi|
    a_mat = 1j * phi_m @ psi_m.conj().T  # Tr_h(H~_k |psi><psi|)
    a_dag = a_mat.conj().T

    # the denominator's circuit, then the numerator's added rows B1, B2 and subtracted rows B3, B4;
    # with no hidden qubits B2 and B3 share every success probability, and only B1 and B4 are drawn
    rows = [a_mat @ sv, sv @ a_mat, a_dag @ sv, sv @ a_dag] if p.n_h else [a_mat @ sv, sv @ a_dag]
    bs = np.stack([sv @ sv, *rows])

    n = p.n_v
    orders = np.arange(q_max + 1)
    weights = a1**orders / np.array([math.factorial(q) for q in orders], dtype=float)
    t_mass = float(weights.sum())
    tail = a1 ** (q_max + 1) / math.factorial(q_max + 1)
    counts_den, counts_num = rng.multinomial(shots, _label_law(terms, alpha / a1, n, weights / t_mass), size=2)

    # Tr(B i^e X^x Z^z) = i^e 2^n c(x, z) for every circuit B and label, c the Pauli expansion of B^T
    t_lab = ((dv * _pauli_expansion(bs.swapaxes(1, 2), n))[..., None] * 1j ** np.arange(4)).reshape(len(bs), -1)
    if float(np.max(np.abs(t_lab))) > 1.0 + 1e-9:
        raise ArithmeticError("a label's trace left the unit disc; not a valid shot probability")
    p_den = np.clip(0.5 * (1.0 + t_lab[0].real), 0.0, 1.0)
    # ancilla phase-gate variant: success probability carries Im, not Re
    p_num = np.clip(0.5 * (1.0 + t_lab[1:].imag), 0.0, 1.0)
    n_plus = int(rng.binomial(counts_den, p_den).sum())
    # shots of each value of the added rows' sum minus the subtracted rows' sum (half the shot's outcome sum)
    hist = rng.multinomial(counts_num, _net_law(p_num)).sum(axis=0)
    values = range(1 - len(hist), len(hist), 2)
    s_num = sum(u * int(c) for u, c in zip(values, hist))
    ss_num = sum(u * u * int(c) for u, c in zip(values, hist))

    mean, se = _ratio_stats(s_num, ss_num, 2 * n_plus - shots, shots, shots, t_mass)
    return MCEstimate(mean=mean, std_error=se, shots=shots, q_max=q_max, tail_bound=tail)


def _label_law(terms: list[PauliTerm], w: np.ndarray, n: int, c: np.ndarray) -> np.ndarray:
    """Law of a shot's label over the 4^(n+1) labels: the mixture sum_q c[q] law_q of the order-q laws.

    law_q is the law of the label of U = P_1 ... P_q, each P_i terms[j] times
    the sign of w_j, i.i.d. with probability |w_j| (w = alpha / |alpha|_1).
    Label i^e X^x Z^z is x << (n + 2) | z << 2 | e; law_0 puts all mass on
    label 0, the identity. The law of a product is a convolution power on the
    Pauli group, so the mixture is taken in the group's Fourier basis,
    f_c(x, z) = sum_e law(e, x, z) i^(ce). A product's phase drops out of f_0
    and f_2, whose order-q parts are XOR-convolution powers: their mixture is
    the series sum_q c_q s^q of their Walsh spectra s, by Horner's rule. f_1
    is the Pauli expansion of sum_q c_q M^q, M = sum_j w_j P_j = H / |alpha|_1,
    taken in M's eigenbasis, and f_3 = conj(f_1). Then
    law(e, x, z) = (f_0 + (-1)^e f_2 + 2 Re(i^-e f_1)) / 4, clipped into [0, 1]
    against rounding. The cost is O(len(c) 4^n + 8^n) time and O(4^(n+1))
    memory, whatever the number of terms.
    """
    d = 2**n
    x, z, ny = np.array([t.masks(n) for t in terms], dtype=np.int64).reshape(-1, 3).T
    j, had = np.arange(d), _walsh_signs(n)
    even = np.zeros((2, d, d))
    even[0, x, z] = np.abs(w)
    even[1, x, z] = np.abs(w) * (1 - 2 * (ny & 1))  # (-1)^e; a sign adds 2 to e
    f1 = np.zeros((d, d), dtype=complex)
    f1[x, z] = w * 1j**ny
    m = np.zeros((d, d), dtype=complex)
    m[j ^ j[:, None], j] = f1 @ had  # M[j ^ x, j] = sum_z f_1(x, z) (-1)^|z & j|
    lam, v = np.linalg.eigh(m)
    # one series over both Walsh spectra and the eigenvalues of M
    series = _horner(c, np.concatenate(((had @ even @ had).ravel(), lam)))
    f0, f2 = had @ series[:-d].reshape(2, d, d) @ had / d**2
    f1 = _pauli_expansion((v * series[-d:]) @ v.conj().T, n)
    law = np.stack((f0 + f2 + 2 * f1.real, f0 - f2 + 2 * f1.imag, f0 + f2 - 2 * f1.real, f0 - f2 - 2 * f1.imag), -1)
    law *= 0.25
    return np.clip(law, 0.0, 1.0, out=law).ravel()


def _horner(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_q c[q] x^q elementwise, by Horner's rule (a power table is slower from n_v = 6)."""
    s = np.full(x.shape, c[-1])
    for cq in c[-2::-1]:
        s *= x
        s += cq
    return s


def _pauli_expansion(m: np.ndarray, n: int) -> np.ndarray:
    """c with m = sum_{x,z} c[x, z] X^x Z^z on n qubits: c[x, z] = 2^-n sum_j (-1)^|z & j| m[j ^ x, j].

    Leading axes of m index a stack of matrices. One gather and one Walsh transform, O(8^n).
    """
    j = np.arange(2**n)
    return m[..., j ^ j[:, None], j] @ _walsh_signs(n) / 2**n


@functools.lru_cache(maxsize=_MC_MAX_N_V + 1)
def _walsh_signs(n: int) -> np.ndarray:
    """The Walsh transform on n bits as a read-only matrix, (-1)^|a & b| at [a, b]."""
    j = np.arange(2**n)
    had = 1.0 - 2.0 * _parity(j & j[:, None])
    had.flags.writeable = False
    return had


def _net_law(p: np.ndarray) -> np.ndarray:
    """Law of B_1 + ... + B_r - B_{r+1} - ... - B_2r on -r..r for independent Bernoulli B_i at p[i - 1].

    p has shape (2r, L), one column per label; the law has shape (L, 2r + 1).
    Each row convolves one more Bernoulli into the law: an added B_i moves
    mass up one value with probability p_i, a subtracted one keeps it with
    probability p_i as the lowest value drops by one.
    """
    law = np.ones((p.shape[1], 1))
    for i, pi in enumerate(p):
        up, stay = (pi, 1.0 - pi) if i < len(p) // 2 else (1.0 - pi, pi)
        nxt = np.zeros((len(law), law.shape[1] + 1))
        nxt[:, 1:] = up[:, None] * law
        nxt[:, :-1] += stay[:, None] * law
        law = nxt
    return law


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
