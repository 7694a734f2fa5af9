"""Multi-qubit state construction: the five-amplitude three-qubit family,
GHZ and W states, Haar-random pure states, and reduced density matrices.

Qubit 0 is subsystem A; the remaining qubits are B, C, ... in tensor order
(most significant bit first in computational-basis indexing).

Amplitude vectors are capped at AMP_CAP = 2**20 entries (20 qubits);
dense matrices, including every reduced density matrix, at the 12-qubit
DIM_CAP of the dense kernel.
"""

import json
from dataclasses import dataclass

import numpy as np

from .densemat import DIM_CAP, partial_trace, psd_eigvals
from .errors import ContractError, DimensionError, ParameterError

# Amplitude-vector cap: 20 qubits.  Dense matrices stay under DIM_CAP.
MAX_QUBITS = 20
AMP_CAP = 2 ** MAX_QUBITS

NORM_TOL = 1e-12
FILE_NORM_TOL = 1e-9


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over an ordered qubit register."""

    amplitudes: np.ndarray
    dims: tuple

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in dims):
            raise ParameterError(f"subsystem dims must be positive, got {dims}")
        if amps.ndim != 1 or amps.size != int(np.prod(dims)):
            raise DimensionError(
                f"amplitude count {amps.size} does not match dims {dims}"
            )
        _check_unit(amps)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def n_qubits(self) -> int:
        return len(self.dims)

    def density_matrix(self) -> "DensityMatrix":
        """The rank-1 projector |psi><psi| (at most DIM_CAP rows)."""
        _check_dense(self.amplitudes.size, "density matrix")
        return DensityMatrix._from_gram(
            np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def reduce(self, keep) -> "DensityMatrix":
        """Reduced density matrix on the kept subsystems (ascending order).

        Computed as M·M† of the amplitude matrix (:func:`split_amplitudes`),
        at O(2^n · d_keep) cost and without forming the full projector.  The
        product of a unit-norm amplitude matrix with its adjoint is
        Hermitian, PSD and unit-trace by construction, so the result skips
        the eigenvalue re-check of the public constructor.  Errors are those
        of :func:`keep_indices`, plus DimensionError when the kept side
        exceeds the dense cap of 12 qubits.
        """
        keep = keep_indices(keep, self.n_qubits)
        m = split_amplitudes(self.amplitudes, self.dims, keep)
        _check_dense(m.shape[0], "reduced state")
        return DensityMatrix._from_gram(gram(m), tuple(self.dims[i] for i in keep))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix with per-subsystem dimensions.

    Invariants (Hermitian within 1e-10, trace 1 within 1e-10, minimum
    eigenvalue >= -1e-10) are validated once at public construction.  The
    only exception is the private :meth:`_from_gram`, which pure-state
    reductions use for M·M† of a unit-norm amplitude matrix: that product
    satisfies the invariants by construction.
    """

    matrix: np.ndarray
    dims: tuple

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        dims = tuple(int(d) for d in self.dims)
        d = int(np.prod(dims))
        if m.shape != (d, d):
            raise DimensionError(f"matrix shape {m.shape} does not match dims {dims}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise ContractError(f"trace {tr} deviates from 1 beyond 1e-10")
        psd_eigvals(m)  # raises on non-Hermitian or indefinite input
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _from_gram(cls, m: np.ndarray, dims: tuple) -> "DensityMatrix":
        """Trusted constructor for M·M† with M a unit-norm amplitude matrix.

        Skips validation: the caller guarantees a Hermitian, PSD,
        unit-trace complex matrix whose shape matches dims.
        """
        rho = object.__new__(cls)
        m.flags.writeable = False
        object.__setattr__(rho, "matrix", m)
        object.__setattr__(rho, "dims", tuple(dims))
        return rho

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    def purity(self) -> float:
        """Tr rho² as the squared Frobenius norm (rho is Hermitian)."""
        return float(np.vdot(self.matrix, self.matrix).real)

    def is_pure(self, tol=1e-10) -> bool:
        return self.purity() >= 1.0 - tol

    def eigvals(self) -> np.ndarray:
        """Descending eigenvalues with negative roundoff clamped to zero."""
        return psd_eigvals(self.matrix)

    def partial_trace(self, keep) -> "DensityMatrix":
        keep = sorted(set(int(i) for i in keep))
        sub = partial_trace(self.matrix, self.dims, keep)
        return DensityMatrix(sub, tuple(self.dims[i] for i in keep))


@dataclass(frozen=True)
class SchmidtParams:
    """Parameters of the canonical five-amplitude three-qubit pure state.

    The weights are nonnegative with sum of squares 1; ``phi`` is the
    relative phase (radians) on the second amplitude.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    phi: float = 0.0

    def __post_init__(self):
        lams = self.lambdas
        if any(l < 0 for l in lams):
            raise ParameterError(f"weights must be nonnegative, got {lams}")
        ssq = sum(l * l for l in lams)
        if abs(ssq - 1.0) > NORM_TOL:
            raise ParameterError(f"sum of squared weights {ssq!r} deviates from 1 beyond {NORM_TOL}")

    @property
    def lambdas(self) -> tuple:
        return (self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4)


def schmidt3(params: SchmidtParams) -> PureState:
    """Three-qubit pure state in the canonical five-amplitude form.

    Amplitude placement (qubits A, B, C left to right):

        lambda0           on |000>
        lambda1 e^{i phi} on |100>
        lambda2           on |110>
        lambda3           on |101>
        lambda4           on |111>

    With this placement the closed forms C(A|BC) = 2 l0 sqrt(l2²+l3²+l4²),
    C(AB) = 2 l0 l2 and C(AC) = 2 l0 l3 hold for the pairwise and
    one-to-group concurrences.
    """
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = params.lambda0
    amps[0b100] = params.lambda1 * np.exp(1j * params.phi)
    amps[0b110] = params.lambda2
    amps[0b101] = params.lambda3
    amps[0b111] = params.lambda4
    return PureState(amps, (2, 2, 2))


def example1_params() -> SchmidtParams:
    """The worked-example parameter point: l0=l3=l4=1/sqrt(5), l2=sqrt(2/5)."""
    s5 = 1.0 / np.sqrt(5.0)
    return SchmidtParams(s5, 0.0, np.sqrt(2.0 / 5.0), s5, s5)


def ghz(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n >= 2 qubits."""
    n = int(n)
    if n < 2:
        raise ParameterError(f"ghz requires n >= 2 qubits, got {n}")
    _check_qubits(n)
    amps = np.zeros(2 ** n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return PureState(amps, (2,) * n)


def w_state(n: int) -> PureState:
    """Equal superposition of the n single-excitation basis states, n >= 2."""
    n = int(n)
    if n < 2:
        raise ParameterError(f"w_state requires n >= 2 qubits, got {n}")
    _check_qubits(n)
    amps = np.zeros(2 ** n, dtype=complex)
    for k in range(n):
        amps[1 << k] = 1.0 / np.sqrt(n)
    return PureState(amps, (2,) * n)


def bell() -> PureState:
    """(|00> + |11>)/sqrt(2)."""
    return ghz(2)


def random_pure(n: int, seed) -> PureState:
    """Haar-distributed pure state on n qubits, deterministic given seed.

    Sampling is by normalizing a vector of iid complex Gaussians; ``seed``
    is anything ``numpy.random.default_rng`` accepts (an int, or a tuple
    such as (master_seed, index) for per-sample derivation).
    """
    n = int(n)
    if n < 1:
        raise ParameterError(f"random_pure requires n >= 1 qubits, got {n}")
    _check_qubits(n)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return PureState(_haar_vector(rng, 2 ** n), (2,) * n)


def haar_block(n: int, seed, start: int, stop: int) -> np.ndarray:
    """Amplitudes of random_pure(n, seed_path(seed, i)) for start <= i < stop.

    One row per sample, each drawn from its own (seed, i) stream in the
    same order as :func:`random_pure`, so a block holds exactly the states
    of the one-state-at-a-time path.  The rows pass the PureState checks
    (finite, norm² within NORM_TOL of 1) as one block.
    """
    d = 2 ** n
    out = np.empty((stop - start, d), dtype=complex)
    for row, i in enumerate(range(start, stop)):
        out[row] = _haar_vector(np.random.default_rng(seed_path(seed, i)), d)
    _check_unit(out)
    return out


def _haar_vector(rng, d: int) -> np.ndarray:
    # real parts first, then imaginary parts: the draw order fixes the sample set
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return v


def split_amplitudes(amps: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Amplitudes (..., prod(dims)) as matrices (..., d_keep, d_rest).

    keep is a sorted list of valid subsystem indices; rows run over the
    kept subsystems in ascending order and columns over the rest, so M·M†
    (:func:`gram`) is the reduced state on keep for every leading index,
    and the singular values of M are the Schmidt coefficients of the split.
    """
    lead = amps.shape[:-1]
    k = len(lead)
    rest = [i for i in range(len(dims)) if i not in keep]
    d_keep = int(np.prod([dims[i] for i in keep]))
    psi = amps.reshape(lead + tuple(dims))
    psi = np.transpose(psi, list(range(k)) + [k + i for i in keep + rest])
    return psi.reshape(lead + (d_keep, -1))


def keep_indices(keep, n: int) -> list:
    """keep as a sorted list of distinct indices of n subsystems.

    An empty keep raises ParameterError, an index outside [0, n) DimensionError.
    """
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ParameterError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")
    return keep


def gram(m: np.ndarray) -> np.ndarray:
    """M·M† over the last two axes."""
    return m @ np.swapaxes(m.conj(), -1, -2)


def seed_path(seed, *indices) -> tuple:
    """Flatten a seed plus derivation indices into an int tuple.

    Feeding the result to ``numpy.random.default_rng`` gives independent,
    reproducible streams per (master seed, index, ...) path, so parallel
    and serial sample evaluation agree exactly.  A negative entry raises
    ParameterError (the generator accepts only nonnegative integers).
    """
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    path = tuple(int(x) for x in base) + tuple(int(i) for i in indices)
    if any(x < 0 for x in path):
        raise ParameterError(f"seeds must be nonnegative integers, got {path}")
    return path


def _check_unit(amps: np.ndarray):
    """Raise unless each vector along the last axis is finite with norm² 1.

    The norm² tolerance is NORM_TOL; the first offending norm² is quoted.
    """
    if not np.all(np.isfinite(amps)):
        raise ContractError("amplitudes contain NaN or Inf")
    norm2 = (np.einsum("...i,...i->...", amps.real, amps.real)
             + np.einsum("...i,...i->...", amps.imag, amps.imag))
    bad = np.abs(norm2 - 1.0) > NORM_TOL
    if np.any(bad):
        raise ParameterError(
            f"state norm² = {float(norm2[bad][0])!r} deviates from 1 beyond {NORM_TOL}")


def _check_qubits(n: int):
    if n > MAX_QUBITS:
        raise DimensionError(f"{n} qubits exceed the amplitude cap of {AMP_CAP} amplitudes")


def _check_dense(d: int, what: str):
    if d > DIM_CAP:
        raise DimensionError(
            f"{what} of dimension {d} exceeds the dense-storage cap of {DIM_CAP}")


def save_state(state: PureState, path):
    """Write a pure qubit state as JSON: n_qubits plus [re, im] amplitude pairs."""
    rec = {
        "n_qubits": state.n_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rec, fh)
        fh.write("\n")


def load_state(path) -> PureState:
    """Read a pure qubit state written by :func:`save_state`.

    n_qubits must be a JSON integer >= 1.  The squared norm must be within
    1e-9 of 1; the vector is renormalized to machine precision after the
    check.  A file that is not UTF-8 JSON of this shape raises
    ParameterError; one that cannot be opened raises OSError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rec = json.load(fh)
        n = rec["n_qubits"]
        pairs = rec["amplitudes"]
        amps = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ParameterError(f"malformed state file: {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParameterError(f"state file n_qubits must be an integer >= 1, got {n!r}")
    _check_qubits(n)
    if amps.size != 2 ** n:
        raise DimensionError(
            f"state file lists {amps.size} amplitudes for {n} qubits (expected {2 ** n})"
        )
    norm = float(np.linalg.norm(amps))
    if abs(norm * norm - 1.0) > FILE_NORM_TOL:
        raise ParameterError(f"state file norm² = {norm * norm!r} deviates from 1 beyond {FILE_NORM_TOL}")
    return PureState(amps / norm, (2,) * n)
