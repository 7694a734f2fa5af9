"""Dense complex matrix kernel: partial transpose, Hermitian eigenvalues
and trace norm.

There is no partial trace: reductions of pure states are M·M† of their
amplitude matrix (states.split_amplitudes).  What stays dense is the
validation of a public DensityMatrix and the negativity of a mixed state.

Conventions: matrices are square complex ndarrays in row-major order;
subsystem 0 is the leftmost tensor factor.
"""

import numpy as np

from .errors import ContractError, DimensionError

# Dense storage cap: 12 qubits.  Everything in this package is desk-scale.
DIM_CAP = 2 ** 12

# Hermiticity contract and eigenvalue clamping threshold.
HERM_TOL = 1e-10


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractError("matrix contains NaN or Inf entries")
    return m


def _check_dims(m: np.ndarray, dims) -> tuple:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise DimensionError(f"subsystem dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise DimensionError(
            f"matrix shape {m.shape} does not match subsystem dims {dims} "
            f"(product {total})"
        )
    return dims


def partial_transpose(rho, dims, side) -> np.ndarray:
    """Transpose the indices of one tensor factor, leaving the rest alone.

    Applying the operation twice returns the input exactly.
    """
    rho = _as_matrix(rho)
    dims = _check_dims(rho, dims)
    side = int(side)
    if not 0 <= side < len(dims):
        raise DimensionError(f"side {side} out of range for {len(dims)} subsystems")
    n = len(dims)
    work = rho.reshape(dims + dims)
    work = np.moveaxis(work, [side, side + n], [side + n, side])
    d = int(np.prod(dims))
    return work.reshape(d, d)


def herm_eigvals(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, sorted in descending order.

    The input must satisfy max|m - m†| <= 1e-10; the returned spectrum is
    real and its sum equals the trace to the same tolerance.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    dev = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if dev > HERM_TOL:
        raise ContractError(f"matrix is not Hermitian: max|m - m†| = {dev:.3e}")
    return np.linalg.eigvalsh(m)[::-1]


def psd_eigvals(m) -> np.ndarray:
    """Hermitian eigenvalues with small negative roundoff clamped to zero.

    Values in [-1e-10, 0) are set to 0 so that downstream entropies and
    square roots stay finite on rank-deficient reduced states; values
    below -1e-10 are a genuine contract violation.
    """
    vals = herm_eigvals(m)
    if vals.size and vals[-1] < -HERM_TOL:
        raise ContractError(f"matrix is not PSD: min eigenvalue {vals[-1]:.3e}")
    return np.clip(vals, 0.0, None)


def trace_norm(m) -> float:
    """Trace norm (sum of singular values) of a general square matrix."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))
