"""Gradient-magnitude diagnostics over random initializations and Haar ensembles.

A loss landscape flattens exponentially ("barren plateau") when gradient
second moments decay like 2^{-2n}. This module measures the moments three
ways: Haar-conjugated states against the closed-form lower-bound
expressions, random circuit initializations at epoch 0, and a linear
expectation loss as the decaying baseline the divergence losses are
contrasted with.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import qmath
from .divergence import _checked_inverse, state_gradient_entry, uqnn_grad_linear, uqnn_grad_reverse
from .hamiltonians import LCUHamiltonian
from .models import build_uqnn, conjugated_generator_vec, uqnn_statevector
from .states import DensityMatrix, haar_unitaries, thermal_state


@dataclass
class PlateauReport:
    """Gradient statistics keyed by configuration (n_v, n_h, loss_kind); ensemble_size members each.

    Quantiles are degenerate for ensemble_size 1; two or more members are
    needed before the spread statistics mean anything.
    """

    ensemble_size: int
    records: dict[tuple[int, int, str], dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        for (n_v, n_h, kind), stats in self.records.items():
            for name, value in stats.items():
                if not math.isfinite(value):
                    raise ValueError(f"non-finite statistic {name}={value} in (n_v={n_v}, n_h={n_h}, {kind})")

    def to_json_dict(self) -> dict:
        return {
            "ensemble_size": self.ensemble_size,
            "records": [
                {"n_v": n_v, "n_h": n_h, "loss_kind": kind, "stats": {k: float(v) for k, v in stats.items()}}
                for (n_v, n_h, kind), stats in self.records.items()
            ],
        }

    def save_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)

    def to_csv(self, path: str) -> None:
        """One row per statistic: n_v, n_h, loss_kind, stat_name, value."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n_v", "n_h", "loss_kind", "stat_name", "value"])
            for key, stats in self.records.items():
                for name, value in stats.items():
                    writer.writerow([*key, name, repr(float(value))])

    def stat(self, n_v: int, n_h: int, loss_kind: str, name: str) -> float:
        return self.records[(n_v, n_h, loss_kind)][name]


def _checked_derivative(sigma: DensityMatrix, dsigma: np.ndarray) -> np.ndarray:
    """dsigma as a complex array; it must have the state's shape and be Hermitian."""
    dsigma = np.asarray(dsigma, dtype=complex)
    if dsigma.shape != sigma.mat.shape:
        raise ValueError(f"dsigma shape {dsigma.shape} does not match the state")
    if not qmath.is_hermitian(dsigma, 1e-10):
        raise ValueError("dsigma must be Hermitian")
    return dsigma


def haar_gradient_moment(
    sigma: DensityMatrix,
    dsigma: np.ndarray,
    rho: DensityMatrix,
    direction: str,
    n_samples: int,
    rng: np.random.Generator,
) -> float:
    """Mean squared gradient entry under Haar conjugation of the model state.

    Each sample conjugates sigma and dsigma by the same Haar-random unitary
    (rho stays fixed) and evaluates the exact all-visible gradient entry for
    the chosen divergence direction; the average of its square estimates the
    Haar second moment that the lower-bound expressions of lemma1_bounds
    control.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if sigma.dim != rho.dim:
        raise ValueError("sigma and rho dimensions differ")
    dsigma = _checked_derivative(sigma, dsigma)
    u = haar_unitaries(sigma.n_qubits, n_samples, rng)
    u_dag = u.conj().swapaxes(-1, -2)
    g = state_gradient_entry(u @ sigma.mat @ u_dag, u @ dsigma @ u_dag, rho.mat, direction)
    # cumsum adds in sample order, as a running sum would; np.sum pairs terms up
    return float(np.cumsum(g * g)[-1]) / n_samples


def lemma1_bounds(sigma: DensityMatrix, dsigma: np.ndarray, n: int) -> tuple[float, float]:
    """The two closed-form lower-bound expressions for the Haar second moment.

    Returns, without any asymptotic constant,

        first  = Tr^2(sigma^-2 dsigma) / (2^{2n} Tr^2(sigma^-1))
        second = Tr^2(sigma dsigma) / (2^{2n} |sigma|^4)

    with |sigma| the operator norm. Which expression pairs with which
    divergence direction is left to the caller; both are reference scales,
    not strict bounds (tests compare against them with an explicit factor).
    """
    if 2**n != sigma.dim:
        raise ValueError(f"n={n} does not match a {sigma.dim}-dimensional state")
    dsigma = _checked_derivative(sigma, dsigma)
    _checked_inverse(sigma, "state")
    v, w = sigma.factor()
    wmax = float(np.max(w))
    inv2 = (v / w**2) @ v.conj().T
    tr_inv = float(np.sum(1.0 / w))
    scale = 2.0 ** (2 * n)
    first = float(np.real(np.trace(inv2 @ dsigma))) ** 2 / (scale * tr_inv**2)
    second = float(np.real(np.trace(sigma.mat @ dsigma))) ** 2 / (scale * wmax**4)
    return first, second


def _second_expr_mean(p, psi: np.ndarray) -> float:
    """Mean over circuit angles of the inverse-free bound expression.

    Circuit states are pure, so only the second lemma1_bounds expression
    (which needs no sigma^-1) is defined at epoch 0; it is evaluated on the
    visible reduction for every angle and averaged.
    """
    dv = 2**p.n_v
    psi_m = psi.reshape(dv, -1)
    sv = psi_m @ psi_m.conj().T  # Tr_h |psi><psi|
    wmax = float(np.linalg.eigvalsh(0.5 * (sv + sv.conj().T))[-1])
    scale = float(dv) ** 2 * wmax**4
    acc = 0.0
    for k in range(1, len(p.generators) + 1):
        phi_m = conjugated_generator_vec(p, k).reshape(dv, -1)
        a_mat = phi_m @ psi_m.conj().T
        dsv = -1j * (a_mat - a_mat.conj().T)
        acc += float(np.real(np.trace(sv @ dsv))) ** 2 / scale
    return acc / len(p.generators)


def init_gradient_scan(
    n_v: int,
    target: LCUHamiltonian,
    n_h_list: list[int],
    ensemble: int,
    rng: np.random.Generator,
    layout: str = "exhaustive",
    repetitions: int = 1,
) -> PlateauReport:
    """Epoch-0 gradient statistics of random circuits against one thermal target.

    For each hidden-unit count, `ensemble` circuits are drawn with
    theta ~ N(0, 1) and the full reverse-divergence gradient is evaluated at
    initialization, alongside the linear expectation loss Tr(M sigma_v) with
    M the dense target state (the bounded baseline whose gradients are
    expected to decay). Records hold per-entry moments, infinity-norm
    quantiles over the ensemble, and for the divergence loss the mean
    inverse-free bound expression.
    """
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if not n_h_list:
        raise ValueError("n_h_list must not be empty")
    if len(set(n_h_list)) < len(n_h_list):
        raise ValueError(f"n_h_list repeats a width: {n_h_list}")
    if target.n_qubits != n_v:
        raise ValueError(f"target acts on {target.n_qubits} qubits, expected n_v={n_v}")
    rho = thermal_state(target)
    records = {}
    for n_h in n_h_list:
        grads = {"reverse": [], "linear": []}
        bound_vals = []
        for _ in range(ensemble):
            p = build_uqnn(n_v, n_h, rng, layout=layout, repetitions=repetitions)
            grads["reverse"].append(uqnn_grad_reverse(p, rho))
            grads["linear"].append(uqnn_grad_linear(p, rho.mat))
            bound_vals.append(_second_expr_mean(p, uqnn_statevector(p)))
        for kind, gs in grads.items():
            flat = np.concatenate(gs)
            inf_norms = np.array([float(np.max(np.abs(g))) for g in gs])
            stats = {
                "grad_abs_mean": float(np.mean(np.abs(flat))),
                "grad_sq_mean": float(np.mean(flat**2)),
                "inf_norm_mean": float(np.mean(inf_norms)),
                "inf_norm_q10": float(np.quantile(inf_norms, 0.10)),
                "inf_norm_median": float(np.quantile(inf_norms, 0.50)),
                "inf_norm_q90": float(np.quantile(inf_norms, 0.90)),
                "inf_norm_max": float(np.max(inf_norms)),
            }
            if kind == "reverse":
                stats["lemma1_second_expr_mean"] = float(np.mean(bound_vals))
            records[(n_v, n_h, kind)] = stats
    return PlateauReport(ensemble, records)


__all__ = [
    "PlateauReport",
    "haar_gradient_moment",
    "lemma1_bounds",
    "init_gradient_scan",
]
