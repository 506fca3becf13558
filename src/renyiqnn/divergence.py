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

No formed density matrix is inverted or rooted: losses, kernels and
conditioning figures read each state's factor (U, s) (see `states`), and
the Renyi-2 kernel is built in the basis of the model state's factor,
except for the reverse loss of a state built from its root (circuit
models, Boltzmann machines with hidden units): that needs only the fixed
target's inverse, so its kernel is built in the standard basis and the
model state is never factored.

Every step takes a leading member axis: models with member thetas (R, N),
evaluated against a stack of R targets (or one shared target), give R
states, losses and gradients from one pass, each member's numbers
bit-identical to a one-member evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import qmath
from .hamiltonians import pauli_traces, weighted_sum_dense
from .models import QBMParams, UQNNParams, qbm_thermal, uqnn_statevector
from .states import DensityMatrix

REL_CUTOFF = 1e-12  # an inverted state is singular below this ratio of its extreme eigenvalues
_IMAG_TOL = 1e-9  # relative imaginary residue a real trace may carry


class SingularStateError(ValueError):
    """Raised when an inverted state's smallest eigenvalue is below REL_CUTOFF times its largest."""

    def __init__(self, msg: str, conditioning: float):
        super().__init__(f"{msg} (smallest eigenvalue {conditioning:.3e})")
        self.conditioning = conditioning


@dataclass
class LossValue:
    """value = ln(numerator); conditioning = smallest eigenvalue of the inverted state.

    For member stacks each field is an array with one entry per member.
    """

    value: float
    numerator: float
    conditioning: float


def _inverse(u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """D = U diag(s^-1/2), the inverse as a root factor: state^-1 = D D^dag, never formed."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # singular states are never served
        return u / np.sqrt(s)[..., None, :]


def _conditioning(u: np.ndarray, s: np.ndarray) -> tuple[float | np.ndarray, float | None]:
    """(smallest eigenvalue per member, the first member's that is below REL_CUTOFF of its largest, or None)."""
    smin, smax = s.min(axis=-1), s.max(axis=-1)
    pairs = zip(smin.reshape(-1).tolist(), smax.reshape(-1).tolist())
    singular = next((lo for lo, hi in pairs if hi <= 0.0 or lo < REL_CUTOFF * hi), None)
    return (float(smin) if smin.ndim == 0 else smin), singular


def _checked_inverse(state: DensityMatrix, what: str) -> float | np.ndarray:
    """The smallest eigenvalue of a state about to be inverted, per member; singular below REL_CUTOFF of the largest.

    Read through `derived`, so a run's fixed target is checked once.
    """
    smin, singular = state.derived(_conditioning)
    if singular is not None:
        raise SingularStateError(f"singular {what}", singular)
    return smin


def _real_trace(m: np.ndarray) -> float | np.ndarray:
    """Real Tr m, one per member of a stack; an imaginary part beyond roundoff raises."""
    t = np.trace(m, axis1=-2, axis2=-1)
    for i, z in enumerate(t.reshape(-1).tolist()):
        # roundoff in Tr of a product scales with the operand norms, not the
        # result; the norm is needed only where the residue beats max(1, |Re|)
        if abs(z.imag) > _IMAG_TOL * max(1.0, abs(z.real)):
            norm = float(np.linalg.norm(m.reshape((-1,) + m.shape[-2:])[i]))
            if abs(z.imag) > _IMAG_TOL * max(1.0, norm, abs(z.real)):
                raise ArithmeticError(f"trace expression has imaginary residue {z.imag:.3e}")
    return float(t.real) if t.ndim == 0 else t.real


def _log(x: float | np.ndarray) -> float | np.ndarray:
    # math.log member by member: numpy's vectorized log may round differently
    return math.log(x) if isinstance(x, float) else np.fromiter(map(math.log, x.tolist()), float, len(x))


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _renyi2_kernel(
    sigma_v: DensityMatrix, target: DensityMatrix, direction: str
) -> tuple[np.ndarray, LossValue, float, np.ndarray | None]:
    """(Q', loss, sign, U) with d D2 = sign Tr(d sigma_v Q) / loss.numerator, per member of a stack.

    Q' = U^dag Q U is the kernel in the basis of sigma_v's factor,
    sigma_v = U diag(p) U^dag. With Y = C C^dag:

    reverse: Q = {sigma_v, rho^-1},            C = U^dag D (rho^-1 = D D^dag),
             Q'_ij = (p_i + p_j) Y_ij,         numerator sum_i p_i^2 Y_ii, sign +1
    forward: Q = sigma_v^-1 rho^2 sigma_v^-1,  C = U^dag rho,
             Q'_ij = Y_ij / (p_i p_j),         numerator sum_i Y_ii / p_i, sign -1

    Re Y_ii = sum_k |C_ik|^2 is a sum of positive terms, so the numerator
    has no cancellation, and Tr(sigma_v Q) equals 2 numerator (reverse) or
    numerator (forward) exactly.

    In reverse, a state built from its root is not factored: with
    E = D^dag sigma_v, Q = D E + (D E)^dag itself (U None) and the
    numerator ||E||_F^2, again a sum of positive terms.
    """
    if direction == "reverse" and sigma_v.root is not None:
        wmin = _checked_inverse(target, "target state")
        d = target.derived(_inverse)
        e = _dagger(d) @ sigma_v.mat
        de = d @ e
        num = (e.real * e.real + e.imag * e.imag).sum(axis=(-2, -1))
        num = float(num) if num.ndim == 0 else num
        return de + _dagger(de), LossValue(_log(num), num, wmin), 1.0, None
    u, p = sigma_v.factor()
    if direction == "reverse":
        wmin = _checked_inverse(target, "target state")
        c = _dagger(u) @ target.derived(_inverse)
    elif direction == "forward":
        wmin = _checked_inverse(sigma_v, "model state")
        c = _dagger(u) @ target.mat
    else:
        raise ValueError(f"unknown direction {direction!r}")
    y = c @ _dagger(c)
    y_diag = y.diagonal(axis1=-2, axis2=-1).real
    if direction == "reverse":
        q, num, sign = (p[..., :, None] + p[..., None, :]) * y, (p * p * y_diag).sum(axis=-1), 1.0
    else:
        inv = 1.0 / p
        q, num, sign = inv[..., :, None] * y * inv[..., None, :], (y_diag * inv).sum(axis=-1), -1.0
    num = float(num) if num.ndim == 0 else num
    return q, LossValue(_log(num), num, wmin), sign, u


def _standard_basis(u: np.ndarray | None, q: np.ndarray) -> np.ndarray:
    """U Q' U^dag: a kernel from the basis of a state's factor U back to the standard basis (Q' itself for U None)."""
    return q if u is None else u @ q @ _dagger(u)


def renyi2_forward(rho: DensityMatrix, sigma: DensityMatrix) -> LossValue:
    """D2(rho || sigma) = ln Tr(rho^2 sigma^-1). sigma must be full rank."""
    return _renyi2_kernel(sigma, rho, "forward")[1]


def renyi2_reverse(sigma: DensityMatrix, rho: DensityMatrix) -> LossValue:
    """D2(sigma || rho) = ln Tr(sigma^2 rho^-1). rho must be full rank."""
    return _renyi2_kernel(sigma, rho, "reverse")[1]


# ---------------------------------------------------------------------------
# Unitary-network gradients.
#
# For entry k the dense formulas reduce to +-2 Im <psi| M W_k H_k W_k^dag |psi>
# over the common denominator, where M is a fixed Hermitian kernel. Sweeping
# a_k = W_k^dag M|psi> and b_k = W_k^dag|psi> turns the whole gradient into
# O(N) gate applications instead of O(N^2). The sweep advances block by
# block: with A, B the (local, rest) matrices of a and b at a block's start
# and V_k the in-block prefix before gate k, <a_k|P_k b_k> = Tr(V_k P_k V_k^dag K)
# for the block's cross matrix K = B A^dag.
# ---------------------------------------------------------------------------


def _kernel_sweep(p: UQNNParams, kernel_v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """2 Im <psi| (kernel_v x I_h) W_k H_k W_k^dag |psi> for every k.

    With member thetas (R, N), psi (R, 2^n) and kernel_v (R, d_v, d_v) (or
    one shared kernel), one row per member.
    """
    dv, dh = 2**p.n_v, 2**p.n_h
    n = len(psi) if psi.ndim == 2 else 1
    psi = psi.reshape(n, -1)
    table, v = p.blocks(), p.block_products()
    n_blocks, d, length, _ = table.flip.shape
    inverses = v[..., -1, :].conj().swapaxes(-1, -2)
    # the pair (a, b) at each block's start, as (local, rest, pair) per block and member
    x = np.empty((n_blocks, n, d, p.dim // d, 2), dtype=complex)
    ab = np.stack([(kernel_v @ psi.reshape(n, dv, dh)).reshape(n, -1), psi], axis=2).reshape(n, -1)
    for b, gather in enumerate(table.sweep_gather):
        ab.take(gather, axis=1, out=x[b].reshape(n, -1))
        ab = (inverses[:, b] @ x[b].reshape(n, d, -1)).reshape(n, -1)
    out = np.empty((n, p.thetas.shape[-1] + 1))  # the last slot takes the padded positions
    cross = (x[..., 1] @ x[..., 0].conj().swapaxes(-1, -2)).swapaxes(0, 1)
    # Tr(V P V^dag K) = sum_mj conj(V)_mj (K V P)_mj, every in-block position at once
    # unnamed, (cross @ rows) is freed before the phase product allocates (named: circuit-train -9 % on 2 cores)
    rows = v.reshape(n, n_blocks, d, (length + 1) * d)
    kvp = (cross @ rows).reshape(n, -1).take(table.flip, axis=1) * table.phase[:, None]
    out[:, table.gates] = 2.0 * np.einsum("rbmtj,rbmtj->rbt", v[..., :-1, :].conj(), kvp).imag
    return out[:, :-1] if p.thetas.ndim == 2 else out[0, :-1]


def uqnn_grad_reverse(p: UQNNParams, rho: DensityMatrix) -> np.ndarray:
    """Gradient of D2(sigma_v || rho) wrt every circuit angle.

    Entry k is -i Tr({Tr_h([H~_k, sigma]), sigma_v} rho^-1) / Tr(sigma_v^2 rho^-1);
    entries are real by construction.
    """
    return evaluate(p, rho, "reverse").grad


def uqnn_grad_forward(p: UQNNParams, rho: DensityMatrix) -> np.ndarray:
    """Gradient of D2(rho || sigma_v); requires a full-rank visible reduction.

    Entry k is i Tr(rho^2 sigma_v^-1 Tr_h([H~_k, sigma]) sigma_v^-1) / Tr(rho^2 sigma_v^-1).
    """
    return evaluate(p, rho, "forward").grad


def uqnn_grad_linear(p: UQNNParams, observable: np.ndarray) -> np.ndarray:
    """Gradient of the plain expectation loss Tr(M sigma_v); plateau baseline."""
    psi = uqnn_statevector(p)
    return _kernel_sweep(p, np.asarray(observable, dtype=complex), psi)


def state_gradient_entry(
    sigma: np.ndarray, dsigma: np.ndarray, rho: np.ndarray, direction: str
) -> float | np.ndarray:
    """Gradient entries from explicit state derivatives (all-visible), one per member.

    reverse: Tr(dsigma {sigma, rho^-1}) / Tr(sigma^2 rho^-1)
    forward: -Tr(dsigma sigma^-1 rho^2 sigma^-1) / Tr(rho^2 sigma^-1)
    sigma and dsigma may be (R, d, d) stacks against one rho; each entry is bit-identical to a one-member call.
    """
    q, loss, sign, u = _renyi2_kernel(DensityMatrix.from_mat(sigma), DensityMatrix.from_mat(rho), direction)
    return sign * _real_trace(dsigma @ _standard_basis(u, q)) / loss.numerator


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


@functools.lru_cache(maxsize=4)
def _dim_constants(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(I, min(i, j) at every entry) of d x d matrices; built once per dimension, read-only."""
    k = np.arange(d)
    tables = np.eye(d), np.minimum.outer(k, k)
    for t in tables:
        t.flags.writeable = False
    return tables


def _exp_neg_divided_differences(w: np.ndarray) -> np.ndarray:
    """Phi_ij = (e^{-w_j} - e^{-w_i}) / (w_i - w_j), Phi_ii = e^{-w_i}, for w in ascending order (as eigh returns it).

    Evaluated as e^{-min(w_i, w_j)} (1 - e^{-|d|}) / |d|, d = w_i - w_j,
    whose factors are both at most 1: no cancellation and no overflow at any
    spectral spread. Ascending w makes min(w_i, w_j) = w_min(i, j), so the
    first factor is a gather of e^{-w}.
    """
    d = np.abs(w[..., :, None] - w[..., None, :])
    nonzero = d > 0.0
    safe = np.where(nonzero, d, 1.0)
    return np.exp(-w).take(_dim_constants(w.shape[-1])[1], axis=-1) * np.where(nonzero, -np.expm1(-safe) / safe, 1.0)


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


def evaluate(p: UQNNParams | QBMParams, rho: DensityMatrix, direction: str) -> Evaluation:
    """sigma_v, the Renyi-2 loss in `direction` and its gradient wrt p.thetas.

    A circuit model is simulated once (one statevector); a Boltzmann machine
    is diagonalized once (one qbm_thermal call). Member thetas (R, N) with
    a stack of R targets (or one shared target) give every field a leading
    member axis; an exception then means at least one member failed.
    """
    if isinstance(p, UQNNParams):
        psi = uqnn_statevector(p)
        sv = DensityMatrix.from_root(psi.reshape(psi.shape[:-1] + (2**p.n_v, 2**p.n_h)))
        q, loss, sign, u = _renyi2_kernel(sv, rho, direction)
        grad = sign * _kernel_sweep(p, _standard_basis(u, q), psi) / np.asarray(loss.numerator)[..., None]
        return Evaluation(sv, loss, grad)
    # d sigma_v = (Tr(P_m E) sigma_v - Tr_h G_m) / Z with E = e^{-H}, hence entry m is
    # sign Tr(P_m V K V^dag) / (Z numerator) with, in H's eigenbasis,
    # K = Tr(sigma_v Q) diag(e^{-w}) - X o Phi = (Tr(sigma_v Q) I - X) o Phi
    # (Phi_ii = e^{-w_i}) and X = V^dag (Q x I_h) V
    w, v, z, sv = qbm_thermal(p)
    q, loss, sign, u = _renyi2_kernel(sv, rho, direction)
    if p.n_h:
        q = _standard_basis(u, q)
        # q x I_h by broadcasting: the products np.kron forms, without its overhead
        dv, dh = q.shape[-1], 2**p.n_h
        q_ext = (q[..., :, None, :, None] * _dim_constants(dh)[0][:, None, :]).reshape(q.shape[:-2] + (dv * dh, dv * dh))
        x = _dagger(v) @ q_ext @ v
    else:
        x = q  # sigma_v's factor basis is H's eigenbasis
    num = np.asarray(loss.numerator)[..., None, None]
    trace_q = (2.0 if direction == "reverse" else 1.0) * num  # Tr(sigma_v Q), exactly
    k = (_dim_constants(p.dim)[0] * trace_q - x) * _exp_neg_divided_differences(w)
    kernel = v @ k @ _dagger(v) * (sign / (np.asarray(z)[..., None, None] * num))
    g = pauli_traces(kernel, p.tables())
    leak = np.nonzero(np.abs(g.imag) > 1e-8 * np.maximum(1.0, np.abs(g.real)))
    if leak[0].size:
        at = tuple(int(i[0]) for i in leak)
        raise ArithmeticError(f"gradient entry {at[-1]} has imaginary residue {g[at].imag:.3e}")
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
    use; a second oracle against them. A stack pm (M, d, d) gives one G_m each.
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


def qbm_grad_frechet(p: QBMParams, rho: DensityMatrix, direction: str) -> np.ndarray:
    """Oracle gradient by the exact divided-difference route, weight by weight, independently of `evaluate`.

    sigma_v is formed densely from e^{-H}, and Q and the numerator from the
    standard-basis formulas with formed matrices and dense inverses; no
    state factor and no eigenbasis kernel is used.
    """
    w, v = np.linalg.eigh(p.hamiltonian_dense())
    w = w - w[0]
    e_mat = (v * np.exp(-w)) @ v.conj().T
    z = float(np.trace(e_mat).real)
    sv = qmath.partial_trace(e_mat, p.n_v, p.n_h) / z
    r = rho.mat
    if direction == "reverse":
        rinv = np.linalg.inv(r)
        q, num, sign = sv @ rinv + rinv @ sv, _real_trace(sv @ rinv @ sv), 1.0
    elif direction == "forward":
        svinv = np.linalg.inv(sv)
        q, num, sign = svinv @ r @ r @ svinv, _real_trace(r @ svinv @ r), -1.0
    else:
        raise ValueError(f"unknown direction {direction!r}")
    pm = weighted_sum_dense(np.eye(len(p.basis)), p.tables())  # row m weights string m alone
    g = frechet_exp_neg_derivative(w, v, pm)
    trace_pm_e = _real_trace(pm @ e_mat)
    dsv = -qmath.partial_trace(g, p.n_v, p.n_h) / z + sv * (trace_pm_e / z)[:, None, None]
    return sign * _real_trace(dsv @ q) / num


def fd_gradient(loss: Callable[[np.ndarray], np.ndarray], thetas: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences (L(t + h e_k) - L(t - h e_k)) / 2h for every k.

    `loss` maps an (M, N) stack of parameter vectors to their M values; it is
    called once per side, on all N probes of that side as one stack.
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be finite and positive, got {h}")
    thetas = np.asarray(thetas, dtype=float)
    k = np.arange(len(thetas))
    tp = np.tile(thetas, (len(thetas), 1))
    tm = tp.copy()
    tp[k, k] += h
    tm[k, k] -= h
    return (loss(tp) - loss(tm)) / (2.0 * h)


def fd_richardson(loss: Callable[[np.ndarray], np.ndarray], thetas: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Richardson-extrapolated central differences, O(h^4) truncation.

    Plain central differences lose digits when the loss curvature is steep
    (ill-conditioned inverted states); this stays accurate there.
    """
    return (4.0 * fd_gradient(loss, thetas, h / 2) - fd_gradient(loss, thetas, h)) / 3.0
