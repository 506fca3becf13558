"""Renyi-2 divergence losses and analytic gradients for both architectures.

Loss conventions (natural log throughout):
    forward  D2(rho || sigma) = ln Tr(rho^2 sigma^-1)   (model state inverted)
    reverse  D2(sigma || rho) = ln Tr(sigma^2 rho^-1)   (target inverted)

`evaluate` builds the model state once and returns it with the loss and
the gradient. Gradient entries are computed from the commutator form
d sigma / d theta_k = -i [H~_k, sigma] for circuit models and from the
closed-form derivative of the operator exponential for Boltzmann machines.
Both have independent oracles: finite differences, and (for Boltzmann
machines) a per-weight evaluation of the integral form of that derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qmath
from .hamiltonians import pauli_traces
from .models import (
    QBMParams,
    UQNNParams,
    qbm_thermal,
    uqnn_statevector,
    visible_from_statevector,
)
from .states import DensityMatrix

DEFAULT_REL_CUTOFF = 1e-12


class SingularStateError(ValueError):
    """Raised when an inverted state is rank-deficient beyond the cutoff."""

    def __init__(self, msg: str, conditioning: float):
        super().__init__(f"{msg} (smallest eigenvalue {conditioning:.3e})")
        self.conditioning = conditioning


@dataclass
class LossValue:
    """value = ln(numerator); conditioning = smallest eigenvalue of the inverted state."""

    value: float
    numerator: float
    conditioning: float


def _checked_inverse(state: DensityMatrix, rel_cutoff: float, what: str) -> tuple[np.ndarray, float]:
    w, v = state._eigh()
    wmin, wmax = float(w[0]), float(w[-1])
    if wmax <= 0.0 or wmin < rel_cutoff * wmax:
        raise SingularStateError(f"singular {what}", wmin)
    inv = (v / w) @ v.conj().T
    return inv, wmin


def _real_trace(m: np.ndarray, tol: float = 1e-9) -> float:
    # roundoff in Tr of a product scales with the operand norms, not the result
    t = complex(np.trace(m))
    scale = max(1.0, float(np.linalg.norm(m)), abs(t.real))
    if abs(t.imag) > tol * scale:
        raise ArithmeticError(f"trace expression has imaginary residue {t.imag:.3e}")
    return t.real


def _renyi2_kernel(
    sigma_v: DensityMatrix, target: DensityMatrix, direction: str, rel_cutoff: float
) -> tuple[np.ndarray, LossValue, float]:
    """(Q, loss, sign) with d D2 = sign Tr(d sigma_v Q) / loss.numerator.

    reverse: Q = {sigma_v, rho^-1},            numerator Tr(sigma_v^2 rho^-1), sign +1
    forward: Q = sigma_v^-1 rho^2 sigma_v^-1,  numerator Tr(rho^2 sigma_v^-1), sign -1
    """
    sv, rho = sigma_v.mat, target.mat
    if direction == "reverse":
        rinv, wmin = _checked_inverse(target, rel_cutoff, "target state")
        q, num, sign = sv @ rinv + rinv @ sv, _real_trace(sv @ rinv @ sv), 1.0
    elif direction == "forward":
        svinv, wmin = _checked_inverse(sigma_v, rel_cutoff, "model state")
        q, num, sign = svinv @ rho @ rho @ svinv, _real_trace(rho @ svinv @ rho), -1.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return q, LossValue(math.log(num), num, wmin), sign


def renyi2_forward(
    rho: DensityMatrix, sigma: DensityMatrix, rel_cutoff: float = DEFAULT_REL_CUTOFF
) -> LossValue:
    """D2(rho || sigma) = ln Tr(rho^2 sigma^-1). sigma must be full rank."""
    return _renyi2_kernel(sigma, rho, "forward", rel_cutoff)[1]


def renyi2_reverse(
    sigma: DensityMatrix, rho: DensityMatrix, rel_cutoff: float = DEFAULT_REL_CUTOFF
) -> LossValue:
    """D2(sigma || rho) = ln Tr(sigma^2 rho^-1). rho must be full rank."""
    return _renyi2_kernel(sigma, rho, "reverse", rel_cutoff)[1]


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Umegaki relative entropy S(rho||sigma) = Tr rho (ln rho - ln sigma), in nats."""
    wr, vr = np.linalg.eigh(rho.mat)
    ws, vs = np.linalg.eigh(sigma.mat)
    if float(ws[0]) <= 0.0:
        raise SingularStateError("singular second argument", float(ws[0]))
    wr_pos = np.clip(wr, 1e-300, None)
    s_rho = float(np.sum(np.where(wr > 1e-15, wr * np.log(wr_pos), 0.0)))
    log_sigma = (vs * np.log(ws)) @ vs.conj().T
    return s_rho - _real_trace(rho.mat @ log_sigma)


# ---------------------------------------------------------------------------
# Unitary-network gradients.
#
# For entry k the dense formulas reduce to +-2 Im <psi| M W_k H_k W_k^dag |psi>
# over the common denominator, where M is a fixed Hermitian kernel. Sweeping
# a_k = W_k^dag M|psi> and b_k = W_k^dag|psi> turns the whole gradient into
# O(N) gate applications instead of O(N^2).
# ---------------------------------------------------------------------------


def _kernel_sweep(p: UQNNParams, kernel_v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """2 Im <psi| (kernel_v x I_h) W_k H_k W_k^dag |psi> for every k."""
    dv, dh = 2**p.n_v, 2**p.n_h
    idx, phase = p.tables()
    c, s = np.cos(p.thetas).tolist(), (1j * np.sin(p.thetas)).tolist()
    # rows a and b advance together; take keeps the gathered rows C-ordered
    ab = np.stack([(kernel_v @ psi.reshape(dv, dh)).reshape(-1), psi])
    out = np.empty(len(c))
    for k in range(len(c)):
        pab = (phase[k] * ab).take(idx[k], axis=1)
        out[k] = 2.0 * np.vdot(ab[0], pab[1]).imag
        ab = c[k] * ab + s[k] * pab
    return out


def uqnn_grad_reverse(
    p: UQNNParams, rho: DensityMatrix, rel_cutoff: float = DEFAULT_REL_CUTOFF
) -> np.ndarray:
    """Gradient of D2(sigma_v || rho) wrt every circuit angle.

    Entry k is -i Tr({Tr_h([H~_k, sigma]), sigma_v} rho^-1) / Tr(sigma_v^2 rho^-1);
    entries are real by construction.
    """
    return evaluate(p, rho, "reverse", rel_cutoff).grad


def uqnn_grad_forward(
    p: UQNNParams, rho: DensityMatrix, rel_cutoff: float = DEFAULT_REL_CUTOFF
) -> np.ndarray:
    """Gradient of D2(rho || sigma_v); requires a full-rank visible reduction.

    Entry k is i Tr(rho^2 sigma_v^-1 Tr_h([H~_k, sigma]) sigma_v^-1) / Tr(rho^2 sigma_v^-1).
    """
    return evaluate(p, rho, "forward", rel_cutoff).grad


def uqnn_grad_linear(p: UQNNParams, observable: np.ndarray) -> np.ndarray:
    """Gradient of the plain expectation loss Tr(M sigma_v); plateau baseline."""
    psi = uqnn_statevector(p)
    return _kernel_sweep(p, np.asarray(observable, dtype=complex), psi)


def state_gradient_entry(
    sigma: np.ndarray, dsigma: np.ndarray, rho: np.ndarray, direction: str
) -> float:
    """Single gradient entry from an explicit state derivative (all-visible).

    reverse: Tr(dsigma {sigma, rho^-1}) / Tr(sigma^2 rho^-1)
    forward: -Tr(dsigma sigma^-1 rho^2 sigma^-1) / Tr(rho^2 sigma^-1)
    """
    states = DensityMatrix.from_mat(sigma), DensityMatrix.from_mat(rho)
    q, loss, sign = _renyi2_kernel(*states, direction, DEFAULT_REL_CUTOFF)
    return sign * _real_trace(dsigma @ q) / loss.numerator


# ---------------------------------------------------------------------------
# Boltzmann-machine gradients.
#
# d/dtheta_m e^{-H} = -G_m, G_m = integral_0^1 e^{-sH} P_m e^{-(1-s)H} ds.
# In the eigenbasis H = V diag(w) V^dag, G_m = V[(V^dag P_m V) o Phi]V^dag with
# Phi_ij = -f[w_i, w_j] the negated divided difference of f(x) = e^{-x}
# (Higham, Functions of Matrices, 2008, ch. 3). Phi is real symmetric, so
# Tr(G_m X) = Tr(P_m R) with R = V[(V^dag X V) o Phi]V^dag: one kernel R serves
# every weight, each of which then costs a single O(dim) Pauli trace.
# ---------------------------------------------------------------------------


def _exp_neg_adjoint(w: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R = V[(V^dag x V) o Phi]V^dag with Phi_ij = (e^{-w_j} - e^{-w_i}) / (w_i - w_j), Phi_ii = e^{-w_i}.

    Phi is evaluated as e^{-min(w_i, w_j)} (1 - e^{-|d|}) / |d|, d = w_i - w_j,
    whose factors are both at most 1: no cancellation and no overflow at any
    spectral spread.
    """
    d = np.abs(w[:, None] - w[None, :])
    nonzero = d > 0.0
    safe = np.where(nonzero, d, 1.0)
    phi = np.exp(-np.minimum.outer(w, w)) * np.where(nonzero, -np.expm1(-safe) / safe, 1.0)
    return v @ ((v.conj().T @ x @ v) * phi) @ v.conj().T


# ---------------------------------------------------------------------------
# One evaluation per parameter vector: every model state, loss and gradient
# the package computes for training is assembled here.
# ---------------------------------------------------------------------------


@dataclass
class Evaluation:
    """Visible model state, loss and raw gradient, all from one state build."""

    sigma_v: DensityMatrix
    loss: LossValue
    grad: np.ndarray


def evaluate(
    p: UQNNParams | QBMParams,
    rho: DensityMatrix,
    direction: str,
    rel_cutoff: float = DEFAULT_REL_CUTOFF,
) -> Evaluation:
    """sigma_v, the Renyi-2 loss in `direction` and its gradient wrt p.thetas.

    A circuit model is simulated once (one statevector); a Boltzmann machine
    is diagonalized once (one qbm_thermal call).
    """
    if isinstance(p, UQNNParams):
        psi = uqnn_statevector(p)
        sv = DensityMatrix(p.n_v, visible_from_statevector(psi, p.n_v, p.n_h))
        q, loss, sign = _renyi2_kernel(sv, rho, direction, rel_cutoff)
        grad = sign * _kernel_sweep(p, q, psi) / loss.numerator
        return Evaluation(sv, loss, grad)
    # d sigma_v = (Tr(P_m E) sigma_v - Tr_h G_m) / Z, hence entry m is
    # sign Tr(P_m (Tr(sigma_v Q) E - R)) / (Z numerator), R the adjoint kernel of Q x I_h
    w, v, e_mat, z, sv_mat = qbm_thermal(p)
    sv = DensityMatrix(p.n_v, sv_mat)
    q, loss, sign = _renyi2_kernel(sv, rho, direction, rel_cutoff)
    r = _exp_neg_adjoint(w, v, np.kron(q, np.eye(2**p.n_h)))
    kernel = sign * (_real_trace(sv_mat @ q) * e_mat - r) / (z * loss.numerator)
    g = pauli_traces(kernel, p.tables())
    bad = np.nonzero(np.abs(g.imag) > 1e-8 * np.maximum(1.0, np.abs(g.real)))[0]
    if bad.size:
        m = int(bad[0])
        raise ArithmeticError(f"gradient entry {m} has imaginary residue {g[m].imag:.3e}")
    return Evaluation(sv, loss, g.real)


def qbm_grad_reverse(p: QBMParams, rho: DensityMatrix) -> np.ndarray:
    """Gradient of D2(sigma_v(theta) || rho) wrt the basis weights.

    Entry m: -Tr(G_m ({sigma_v, rho^-1} x I_h)) / (Tr(sigma_v^2 rho^-1) Z)
    +  2 Tr(dH_m e^{-H}) / Z, with d(e^{-H})/dtheta_m = -G_m.
    """
    return evaluate(p, rho, "reverse").grad


def qbm_grad_forward(p: QBMParams, rho: DensityMatrix) -> np.ndarray:
    """Gradient of D2(rho || sigma_v(theta)) wrt the basis weights.

    Entry m: +Tr(rho^2 sigma_v^-1 Tr_h(G_m) sigma_v^-1) / (Tr(rho^2 sigma_v^-1) Z)
    -  Tr(dH_m e^{-H}) / Z, with d(e^{-H})/dtheta_m = -G_m.
    """
    return evaluate(p, rho, "forward").grad


def frechet_exp_neg_derivative(w: np.ndarray, v: np.ndarray, pm: np.ndarray) -> np.ndarray:
    """G_m = integral_0^1 e^{-sH} P_m e^{-(1-s)H} ds, exactly, in the eigenbasis of H.

    Entrywise: G'_ij = B_ij exp(-(w_i+w_j)/2) sinh(d/2)/(d/2), d = w_i - w_j.
    Satisfies d(e^{-H})/dtheta_m = -G_m. Evaluated per weight with its own
    sinh form, independently of the adjoint kernel the production gradients
    use; a second oracle against them.
    """
    b = v.conj().T @ pm @ v
    delta = w[:, None] - w[None, :]
    mean = 0.5 * (w[:, None] + w[None, :])
    half = 0.5 * delta
    # sinh(x)/x with a series fallback at small x
    small = np.abs(half) < 1e-8
    ratio = np.where(small, 1.0 + half**2 / 6.0, np.sinh(np.where(small, 1.0, half)) / np.where(small, 1.0, half))
    phi = np.exp(-mean) * ratio
    return v @ (b * phi) @ v.conj().T


def _qbm_grad_frechet(p: QBMParams, rho: DensityMatrix, direction: str) -> np.ndarray:
    w, v, e_mat, z, sv = qbm_thermal(p)
    q, loss, sign = _renyi2_kernel(DensityMatrix(p.n_v, sv), rho, direction, DEFAULT_REL_CUTOFF)
    grads = np.empty(len(p.basis))
    for m, t in enumerate(p.basis):
        pm = t.dense(p.n_qubits)
        g_m = frechet_exp_neg_derivative(w, v, pm)
        trace_pm_e = _real_trace(pm @ e_mat)
        dsv = -qmath.partial_trace(g_m, p.n_v, p.n_h) / z + sv * (trace_pm_e / z)
        grads[m] = sign * _real_trace(dsv @ q) / loss.numerator
    return grads


def qbm_grad_reverse_frechet(p: QBMParams, rho: DensityMatrix) -> np.ndarray:
    """Exact divided-difference route for the reverse gradient (oracle)."""
    return _qbm_grad_frechet(p, rho, "reverse")


def qbm_grad_forward_frechet(p: QBMParams, rho: DensityMatrix) -> np.ndarray:
    """Exact divided-difference route for the forward gradient (oracle)."""
    return _qbm_grad_frechet(p, rho, "forward")


def fd_gradient(loss: Callable[[np.ndarray], float], thetas: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences (L(t + h e_k) - L(t - h e_k)) / 2h."""
    if h <= 0:
        raise ValueError("h must be positive")
    thetas = np.asarray(thetas, dtype=float)
    out = np.empty(len(thetas))
    for k in range(len(thetas)):
        tp = thetas.copy()
        tm = thetas.copy()
        tp[k] += h
        tm[k] -= h
        out[k] = (loss(tp) - loss(tm)) / (2.0 * h)
    return out


def fd_richardson(loss: Callable[[np.ndarray], float], thetas: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Richardson-extrapolated central differences, O(h^4) truncation.

    Plain central differences lose digits when the loss curvature is steep
    (ill-conditioned inverted states); this stays accurate there.
    """
    return (4.0 * fd_gradient(loss, thetas, h / 2) - fd_gradient(loss, thetas, h)) / 3.0
