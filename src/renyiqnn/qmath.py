"""Dense complex linear algebra primitives for 2^n-dimensional Hermitian operators.

All operators are plain complex numpy arrays. One global convention is used
throughout the package: qubit 0 is the first (leftmost) tensor factor and the
most significant bit of the computational-basis index; visible qubits occupy
the leading factors.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

HERM_TOL = 1e-12

# Dense storage of a 2^12 x 2^12 complex matrix is ~270 MB; refuse beyond that.
DIM_CAP = 2**12


def check_dim(dim: int) -> None:
    if dim > DIM_CAP:
        raise ValueError(f"dimension {dim} exceeds cap {DIM_CAP}")


def _check_qubits(n_qubits: int) -> None:
    """check_dim of an n-qubit state; 2^n is formed only for n up to 64, so no width is too large to check."""
    if n_qubits > 64:
        raise ValueError(f"dimension 2^{n_qubits} exceeds cap {DIM_CAP}")
    check_dim(2**n_qubits)


def is_integer(x) -> bool:
    """An integer that is not a bool (JSON true and false load as Python bools, which are ints)."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def is_number(x) -> bool:
    """A finite real number that is not a bool (JSON configs may hold NaN and Infinity)."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    """Every matrix of m (leading axes index a stack) within tol of its adjoint, entrywise."""
    return bool(np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= tol)


def _symmetrize(m: np.ndarray) -> np.ndarray:
    # Suppress roundoff drift before eigendecomposition; leading axes index a stack.
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def partial_trace(m: np.ndarray, n_keep: int, n_drop: int) -> np.ndarray:
    """Trace out the trailing n_drop qubits, keeping the leading n_keep.

    The kept qubits are the first tensor factors (visible registers live at
    the front everywhere in this package). Leading axes of m index a stack
    of matrices, each traced on its own.
    """
    m = np.asarray(m)
    dk, dd = 2**n_keep, 2**n_drop
    if m.shape[-2:] != (dk * dd, dk * dd):
        raise ValueError(f"matrix shape {m.shape} does not match {n_keep}+{n_drop} qubits")
    if n_drop == 0:
        return m.copy()
    return np.einsum("...ijkj->...ik", m.reshape(m.shape[:-2] + (dk, dd, dk, dd)))


def herm_expm(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """e^{scale*h} for Hermitian h, via eigendecomposition.

    Returns a Hermitian positive-definite matrix. The input is symmetrized
    first so tiny anti-Hermitian roundoff does not feed the eigensolver.
    """
    h = _symmetrize(np.asarray(h, dtype=complex))
    w, v = np.linalg.eigh(h)
    out = (v * np.exp(scale * w)) @ v.conj().T
    return _symmetrize(out)


def op_norm(m: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: max |eigenvalue|."""
    w = np.linalg.eigvalsh(_symmetrize(np.asarray(m, dtype=complex)))
    return float(np.max(np.abs(w)))
