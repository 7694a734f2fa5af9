"""Dense complex matrix kernel: Hermitian eigenvalues.

There is no partial trace and no partial transpose: reductions of pure
states are M·M† of their amplitude matrix (states.split_amplitudes), and
the negativity of a group comes from a factor of that matrix
(measures.negativity).  What stays dense is the validation of a public
DensityMatrix.

Conventions: matrices are square complex ndarrays in row-major order.
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

