"""Dense reference computations that share no code with the program.

Pauli strings are Kronecker products of 2x2 matrices, exponentials come from
scipy's Pade `expm`, Boltzmann derivatives from scipy's `expm_frechet`, and
fidelities from scipy's Schur-based `sqrtm`. Losses and gradients follow the
defining formulas

    reverse  D = ln Tr(s^2 r^-1),  dD = Tr(ds (s r^-1 + r^-1 s)) / Tr(s^2 r^-1)
    forward  D = ln Tr(r^2 s^-1),  dD = -Tr(ds s^-1 r^2 s^-1) / Tr(r^2 s^-1)

with s the model's visible state, r the target, and ds = d s / d theta_k.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, expm_frechet, sqrtm

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(axes, n: int) -> np.ndarray:
    """Kronecker product over qubits 0..n-1, qubit 0 the leftmost factor."""
    by_qubit = {int(q): a for q, a in axes}
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, PAULI[by_qubit[q]] if q in by_qubit else np.eye(2))
    return out


def pauli_sum(terms, n: int) -> np.ndarray:
    """sum_l coeff_l P_l for (coeff, axes) pairs."""
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    for coeff, axes in terms:
        out += coeff * pauli_string(axes, n)
    return out


def thermal(h: np.ndarray) -> np.ndarray:
    e = expm(-h)
    return e / np.trace(e).real


def trace_hidden(m: np.ndarray, n_v: int, n_h: int) -> np.ndarray:
    dv, dh = 2**n_v, 2**n_h
    return np.trace(m.reshape(dv, dh, dv, dh), axis1=1, axis2=3)


def loss(sv: np.ndarray, rho: np.ndarray, direction: str) -> float:
    if direction == "reverse":
        return float(np.log(np.trace(sv @ np.linalg.solve(rho, sv)).real))
    return float(np.log(np.trace(rho @ np.linalg.solve(sv, rho)).real))


def fidelity(rho: np.ndarray, sv: np.ndarray) -> float:
    r = sqrtm(rho)
    return float(np.trace(sqrtm(r @ sv @ r)).real)


def gradient(sv: np.ndarray, dsv: list[np.ndarray], rho: np.ndarray, direction: str) -> np.ndarray:
    if direction == "reverse":
        rinv = np.linalg.inv(rho)
        kernel = sv @ rinv + rinv @ sv
        denom = np.trace(sv @ rinv @ sv).real
        return np.array([np.trace(d @ kernel).real for d in dsv]) / denom
    sinv = np.linalg.inv(sv)
    kernel = sinv @ rho @ rho @ sinv
    denom = np.trace(rho @ sinv @ rho).real
    return -np.array([np.trace(d @ kernel).real for d in dsv]) / denom


def circuit(generators, thetas, n_v: int, n_h: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Visible state of W|0> and its derivative per angle.

    W = G_1 ... G_N with G_j = expm(-i theta_j P_j); with W_k = G_1 ... G_{k-1}
    the derivative is d sigma / d theta_k = -i [W_k P_k W_k^dag, sigma].
    """
    n = n_v + n_h
    d = 2**n
    prefix = np.eye(d, dtype=complex)
    conjugated = []
    for (coeff, axes), theta in zip(generators, thetas):
        p = coeff * pauli_string(axes, n)
        conjugated.append(prefix @ p @ prefix.conj().T)
        prefix = prefix @ expm(-1j * theta * p)
    psi = prefix[:, 0]
    sigma = np.outer(psi, psi.conj())
    dsv = [trace_hidden(-1j * (c @ sigma - sigma @ c), n_v, n_h) for c in conjugated]
    return trace_hidden(sigma, n_v, n_h), dsv


def boltzmann(basis, thetas, n_v: int, n_h: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Visible state of e^{-H}/Z, H = sum_m theta_m P_m, and its derivative per weight."""
    n = n_v + n_h
    strings = [pauli_string(axes, n) for axes in basis]
    h = sum(t * p for t, p in zip(thetas, strings))
    e = expm(-h)
    z = np.trace(e).real
    dsv = []
    for p in strings:
        de = expm_frechet(-h, -p, compute_expm=False)
        dsv.append(trace_hidden(de / z - e * (np.trace(de).real / z**2), n_v, n_h))
    return trace_hidden(e / z, n_v, n_h), dsv


def close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol * max(1, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(b))


def vector_error(got, want) -> float:
    """Largest deviation relative to max(1, largest |want|)."""
    return float(np.max(np.abs(np.asarray(got) - want))) / max(1.0, float(np.max(np.abs(want))))
