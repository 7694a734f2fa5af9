"""Multi-qubit state construction: the five-amplitude three-qubit family,
GHZ and W states, Haar-random pure states, and reduced density matrices.

Qubit 0 is subsystem A; the remaining qubits are B, C, ... in tensor order
(most significant bit first in computational-basis indexing).

Amplitude vectors are capped at AMP_CAP = 2**20 entries (20 qubits).  The
dense matrices formed from them, a reduced density matrix of
PureState.reduce or the partial-transpose factor of measures.negativity,
are capped at DIM_CAP = 2**12 rows (12 qubits).
"""

import functools
import json
import math
import numbers
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractError, DimensionError, ParameterError

# Amplitude-vector cap: 20 qubits.  Dense matrices stay under DIM_CAP.
MAX_QUBITS = 20
AMP_CAP = 2 ** MAX_QUBITS

# Dense storage cap: 12 qubits.  Everything in this package is desk-scale.
DIM_CAP = 2 ** 12

# Input contracts, not roundoff allowances: how far an input may sit from
# the ideal object before it is refused.  HERM_TOL bounds the Hermiticity
# defect and the most negative eigenvalue of a DensityMatrix, NORM_TOL the
# norm² defect of a PureState or SchmidtParams, FILE_NORM_TOL that of a
# state file (which is renormalized after the check), TRACE_TOL the trace
# defect of a DensityMatrix.  They say nothing about the roundoff of any
# value computed from a valid input.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12
FILE_NORM_TOL = 1e-9


class _ArrayRecord:
    """Base of PureState and DensityMatrix, frozen records whose fields are
    one complex array and the subsystem dims, in that order."""

    @classmethod
    def _from_checked(cls, array: np.ndarray, dims: tuple):
        """Trusted constructor: no copy and none of the public checks (for a
        DensityMatrix an O(d³) eigvalsh); array is made read-only.  The
        caller guarantees a complex128 array the constructor accepts for
        dims, a tuple of positive ints: load_state's normalized vector, or
        PureState.reduce's Gram matrix M·M† of a unit-norm M."""
        record = object.__new__(cls)
        array.flags.writeable = False
        for name, value in zip(cls.__dataclass_fields__, (array, dims)):
            object.__setattr__(record, name, value)
        return record


@dataclass(frozen=True)
class PureState(_ArrayRecord):
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

    def reduce(self, keep) -> "DensityMatrix":
        """Reduced density matrix on the kept subsystems (ascending order).

        Computed as M·M† of the amplitude matrix (:func:`split_amplitudes`),
        at O(2^n · d_keep) cost and without forming the full projector;
        keeping every subsystem gives the projector |psi><psi| itself.
        Errors are those of :func:`keep_indices`, plus DimensionError when
        the kept side exceeds the dense cap of 12 qubits.
        """
        keep = keep_indices(keep, self.n_qubits)
        m = split_amplitudes(self.amplitudes, self.dims, keep)
        _check_dense(m.shape[0], "reduced state")
        return DensityMatrix._from_checked(gram(m), tuple(self.dims[i] for i in keep))


@dataclass(frozen=True)
class DensityMatrix(_ArrayRecord):
    """Hermitian, PSD, unit-trace matrix with per-subsystem dimensions.

    Invariants are validated once at construction, in this order:
    shape (d, d) for d the product of dims (DimensionError), then trace 1
    within TRACE_TOL, finite entries, Hermitian within HERM_TOL and minimum
    eigenvalue >= -HERM_TOL (ContractError each).

    It has no public methods.  Reductions, marginal spectra and
    negativities come from the amplitudes of a PureState, and Tr rho² from
    the Gram purity of measures.group_link, not from here; a DensityMatrix
    is only the input of the dense kernels that stay (the two-qubit closed
    forms and the assisted estimator).
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
        if abs(tr - 1.0) > TRACE_TOL:
            raise ContractError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        if not np.all(np.isfinite(m)):
            raise ContractError("matrix contains NaN or Inf entries")
        dev = np.max(np.abs(m - m.conj().T))
        if dev > HERM_TOL:
            raise ContractError(f"matrix is not Hermitian: max|m - m†| = {dev:.3e}")
        low = np.linalg.eigvalsh(m)[0]
        if low < -HERM_TOL:
            raise ContractError(f"matrix is not PSD: min eigenvalue {low:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)


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
    return PureState(_haar_rows(rng.normal(size=(1, 2 ** (n + 1))))[0], (2,) * n)


def haar_blocks(sizes, seed, start: int, stop: int) -> dict:
    """Amplitudes of random_pure(n, seed_path(seed, i)) for start <= i < stop:
    n -> the (stop - start, 2**n) block, for each register size n in sizes.

    One row per sample, from its own (seed, i) stream: the seed words of
    the whole block are hashed at once (:func:`seed_words`), then one PCG64
    per row, seeded through numpy's ISeedSequence hook with those words,
    makes one draw as wide as the widest size, written into its row of the
    block in place (standard_normal(out=row): no draw array, no copy).  An
    n-qubit sample is the first 2**(n+1) normals of its stream (the draw
    fills its output one value after another, so a shorter draw is a prefix
    of a longer one), so every size reads a prefix of the same rows and
    each stream is seeded once.  random_pure draws normal(0, 1), which is
    0.0 + 1.0*z of the same z, so the two differ only where z is -0.0
    (probability about 2**-53 per value, where the sum reads +0.0): each
    block holds the states of the one-state-at-a-time path, bit for bit,
    as the block tests check.  The draws become unit vectors together
    (:func:`_haar_rows`), and each block passes the PureState checks
    (finite, norm² within NORM_TOL of 1) as a whole.  Errors are those of
    :func:`seed_words`.
    """
    words = seed_words(seed, start, stop)
    fixed_words = _fixed_words()
    g = np.empty((stop - start, 2 ** (max(sizes) + 1)))
    for row, w in enumerate(words):
        np.random.Generator(np.random.PCG64(fixed_words(w))).standard_normal(out=g[row])
    blocks = {n: _haar_rows(g[:, :2 ** (n + 1)]) for n in sizes}
    for amps in blocks.values():
        _check_unit(amps)
    return blocks


def _haar_rows(g: np.ndarray) -> np.ndarray:
    """Unit complex vectors from rows of 2d iid normals.

    Each row is one draw, real parts first, then imaginary parts (the same
    stream as two draws of d); the draw order fixes the sample set.  Each
    row is divided by its own norm, the square root of the dot products of
    its real and of its imaginary parts: the two strided dot products of
    np.linalg.norm, without its wrapper, so the bits are the same.  Each is
    one row-times-column matmul over the stack of rows, which numpy hands
    to the same BLAS ddot, on the same stride-2 views of the complex
    vector, as x.dot(x) and np.linalg.norm.  A dot product of the
    contiguous normals, or a norm over the whole block, sums in another
    order and moves amplitudes in the last bits.
    """
    d = g.shape[1] // 2
    v = g[:, :d] + 1j * g[:, d:]
    re, im = v.real, v.imag
    v /= np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0]
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
    d_keep = int(math.prod(dims[i] for i in keep))
    psi = amps.reshape(lead + tuple(dims))
    psi = np.transpose(psi, list(range(k)) + [k + i for i in keep + rest])
    return psi.reshape(lead + (d_keep, -1))


def keep_indices(keep, n: int) -> list:
    """keep, one index or an iterable of them, as a sorted list of distinct
    indices of n subsystems.

    An empty keep raises ParameterError, an index outside [0, n) DimensionError.
    """
    if isinstance(keep, numbers.Integral):
        keep = [keep]
    keep = sorted(set(int(i) for i in keep))
    if not keep:
        raise ParameterError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise DimensionError(f"keep indices {keep} out of range for {n} subsystems")
    return keep


def gram(m: np.ndarray) -> np.ndarray:
    """M·M† over the last two axes."""
    return m @ np.swapaxes(m.conj(), -1, -2)


def _is_integer(value) -> bool:
    """Whether value is an integer (a numpy one too); a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def seed_path(seed, *indices) -> tuple:
    """Flatten a seed plus derivation indices into an int tuple.

    Feeding the result to ``numpy.random.default_rng`` gives independent,
    reproducible streams per (master seed, index, ...) path, so parallel
    and serial sample evaluation agree exactly; :func:`seed_words` hashes
    the seed words of a whole block of such paths at once.  A negative
    entry raises ParameterError (the generator accepts only nonnegative
    integers), and so does an entry that is not an integer (a bool or a
    float is not one).
    """
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    path = base + indices
    if not all(map(_is_integer, path)):
        raise ParameterError(f"seeds must be nonnegative integers, got {path!r}")
    path = tuple(map(int, path))
    if any(x < 0 for x in path):
        raise ParameterError(f"seeds must be nonnegative integers, got {path}")
    return path


# numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx, after
# O'Neill's seed_seq_fe, HMC-CS-2014-0905): a pool of 4 32-bit words
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715

# sample indices below this fit one 32-bit entropy word
INDEX_CAP = 2 ** 32


def seed_words(seed, start: int, stop: int) -> np.ndarray:
    """The (stop - start, 4) uint64 array whose row i - start is
    ``SeedSequence(seed_path(seed, i)).generate_state(4, np.uint64)``.

    These are the words PCG64 seeds from, so ``default_rng(seed_path(seed,
    i))`` is the PCG64 stream of row i - start.  numpy's pool hash is
    32-bit integer arithmetic, so it runs on the whole block at once, in
    uint64 arrays masked to 32 bits: the words of seed_path(seed) are
    shared by every row, and the sample index is the last entropy word.
    So an index must fit one word: a negative start or a stop above
    INDEX_CAP raises ParameterError, as does a negative seed entry.
    """
    if start < 0 or stop > INDEX_CAP:
        raise ParameterError(
            f"sample indices must lie in [0, {INDEX_CAP}), got [{start}, {stop})")
    entropy = [w for x in seed_path(seed) for w in _uint32_words(x)]
    entropy.append(np.arange(start, stop, dtype=np.uint64))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state: 8 32-bit words from the cycled pool, paired little-endian
    out = _hasher(_INIT_B, _MULT_B)
    state = [out(pool[i % _POOL_SIZE]) for i in range(8)]
    return np.stack([state[2 * k] | (state[2 * k + 1] << 32) for k in range(4)], axis=-1)


def _hasher(init: int, mult: int):
    """numpy's hashmix: hashes one 32-bit word per call, advancing its
    multiplier from init by mult.  A word is a Python int (shared by all
    rows) or a uint64 row array; an array argument is not changed."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = (const * mult) & _MASK32
        value = (value * const) & _MASK32
        return value ^ (value >> 16)
    return hashmix


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _uint32_words(x: int) -> list:
    """A nonnegative int as SeedSequence's entropy words, least significant
    first (0 is one word)."""
    words = [x & _MASK32]
    while x > _MASK32:
        x >>= 32
        words.append(x & _MASK32)
    return words


@functools.cache
def _fixed_words():
    """The ISeedSequence that hands PCG64 one precomputed row of
    :func:`seed_words`.

    Defined on first use, so importing this module does not import
    numpy.random.  PCG64 asks for exactly generate_state(4, np.uint64).
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedWords


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

    n_qubits must be a JSON integer >= 1.  Each amplitude is a [re, im]
    pair of JSON numbers: a boolean entry, or one beyond the float range,
    makes the file malformed, and a NaN or infinite amplitude is rejected
    before the norm check.  The squared norm must be within 1e-9 of 1; the
    vector is renormalized to machine precision after the check.  A file
    that is not UTF-8 JSON of this shape raises ParameterError; one that
    cannot be opened raises OSError.

    The vector is validated once, here: the checks above leave a finite
    vector whose division by its norm meets every PureState invariant, so
    the state is built by the trusted PureState._from_checked.  The file
    is read as bytes and decoded here, with the newline translation of a
    text-mode read, so every error message is the one a text read gives.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        rec = json.loads(text)
        n = rec["n_qubits"]
        pairs = rec["amplitudes"]
        amps = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise ParameterError(f"malformed state file: {exc}") from exc
    if not set(map(type, chain.from_iterable(pairs))) <= {int, float}:
        raise ParameterError("malformed state file: amplitude entries must be real "
                             "numbers, not booleans")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParameterError(f"state file n_qubits must be an integer >= 1, got {n!r}")
    _check_qubits(n)
    if amps.size != 2 ** n:
        raise DimensionError(
            f"state file lists {amps.size} amplitudes for {n} qubits (expected {2 ** n})"
        )
    if not np.isfinite(amps).all():
        raise ParameterError("state file amplitudes must be finite")
    norm = float(np.linalg.norm(amps))
    if abs(norm * norm - 1.0) > FILE_NORM_TOL:
        raise ParameterError(f"state file norm² = {norm * norm!r} deviates from 1 beyond {FILE_NORM_TOL}")
    return PureState._from_checked(amps / norm, (2,) * n)
