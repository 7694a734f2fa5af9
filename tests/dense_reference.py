"""Slow dense references for the property tests.

The package computes reductions, negativities and the qubit-to-group
concurrence interval from pure-state amplitudes.  These references do the
same on dense matrices: the partial trace of the full projector, the
partial transpose and trace norm of a formed group state, and the interval
read off an explicitly formed group state through its partial traces.
They are kept here, outside the package, as the independent slow path.
"""

import math

import numpy as np

from entmono import (DensityMatrix, MeasureValue, PureState, concurrence_pure,
                     concurrence_two_qubit)
from entmono.errors import DimensionError


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {m.shape}")
    return m


def purity(rho: DensityMatrix) -> float:
    """Tr rho² as the squared Frobenius norm (rho is Hermitian)."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def psd_eigvals(m) -> np.ndarray:
    """Descending eigenvalues of a trusted PSD Hermitian matrix, roundoff
    below zero clamped to 0."""
    return np.clip(np.linalg.eigvalsh(_as_matrix(m))[::-1], 0.0, None)


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


def trace_norm(m) -> float:
    """Trace norm (sum of singular values) of a general square matrix."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not in keep (nonempty; kept factors in order)."""
    rho = _as_matrix(rho)
    dims = _check_dims(rho, dims)
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise DimensionError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise DimensionError(f"keep indices {keep} out of range for {len(dims)} subsystems")

    drop = [i for i in range(len(dims)) if i not in keep]
    work = rho.reshape(dims + dims)
    rem = list(dims)
    for idx in sorted(drop, reverse=True):
        work = np.trace(work, axis1=idx, axis2=idx + len(rem))
        del rem[idx]
    d = int(np.prod(rem))
    return work.reshape(d, d)


def dense_reduce(rho: DensityMatrix, keep) -> DensityMatrix:
    """The validated reduced state of a dense state on keep."""
    keep = sorted(keep)
    return DensityMatrix(partial_trace(rho.matrix, rho.dims, keep),
                         tuple(rho.dims[i] for i in keep))


def slow_reduce(state: PureState, keep) -> DensityMatrix:
    """Partial trace of the full projector, fully validated."""
    keep = sorted(keep)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(partial_trace(rho, state.dims, keep),
                         tuple(state.dims[i] for i in keep))


def dense_concurrence_interval(rho: DensityMatrix, side: int = 0) -> MeasureValue:
    """Certified concurrence interval of one qubit against a dense group state.

    lo = sqrt(sum_j C²(rho_{side,j})) from the Wootters form of each pair,
    hi = sqrt(2[1 - Tr rho_side²]); a group of purity >= 1 - 1e-10 gives
    the exact pure-state value of its leading eigenvector.
    """
    if purity(rho) >= 1.0 - 1e-10:
        evs, vecs = np.linalg.eigh(rho.matrix)
        vec = vecs[:, int(np.argmax(evs))]
        return concurrence_pure(PureState(vec / np.linalg.norm(vec), rho.dims), {side})
    lo = math.sqrt(sum(float(concurrence_two_qubit(dense_reduce(rho, [side, j]))) ** 2
                       for j in range(len(rho.dims)) if j != side))
    p = psd_eigvals(dense_reduce(rho, [side]).matrix)
    hi = math.sqrt(max(0.0, 2.0 * (1.0 - float(np.sum(p ** 2)))))
    return MeasureValue.interval(lo, max(lo, hi))
