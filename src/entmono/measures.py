"""Entanglement measures: concurrence (pure, two-qubit mixed, certified
intervals), negativity and its convex-roof extension, entanglement of
formation, Tsallis-q and Renyi-entropy measures, and a heuristic
estimator for their assisted (decomposition-maximizing) duals.

Every value of a family on a spectrum comes from MeasureKind.from_spectrum;
from_concurrence, the closed forms f_eof and g_tsallis and the suites of
:mod:`corpus` read it, and no other function calls the entropies.

Pure-state values come only from two stacked kernels, marginal_spectra
and pair_concurrences, which take one state or a block of them; every
pair value M(A, B_i) comes from MeasureKind.pair_values.  The
certified value of one qubit against a group of a pure state comes from
the same kernels on the state's amplitudes, through the one rule
group_link (for the concurrence and the CREN); no group state is formed.
The negativity of a group takes the QR factor of the same amplitudes
(see negativity), so it is never formed there either.

The Wootters concurrence of a two-qubit state rho depends only on the
singular values of L^T (sy x sy) L for any factor rho = L·L†, since the
columns of L are a pure-state decomposition of rho (Wootters, PRL 80,
2245, 1998).  A pair of a pure state of at most 4 qubits is therefore
measured from its amplitude matrix alone (wootters_factor_concurrence);
a density matrix, or a pair of a wider register, from the rank-retained
eigen-factor of its matrix (wootters_concurrence).

The qubit-sized cases take closed forms with no LAPACK call: the spectrum
of a 2 x m amplitude matrix, m <= 8 (_qubit_spectra), the Wootters value
of a 2 x 2 L^T (sy x sy) L (_wootters_2x2), and the restarts of the
assisted estimator on a rank-2 pair (_householder_q2, _range_terms).  The
first two have a roundoff radius, SCHMIDT_RADIUS or WOOTTERS_RADIUS,
proved in its docstring, and read a value within it as exactly 0 (a
decided zero), so a product qubit reads 0 for every family.  Wider
matrices keep the svd.

All logarithms are base 2 and 0·log 0 := 0.  On two-qubit mixed states the
entropic measures reduce to closed-form functions of the Wootters
concurrence: the EoF always, the Tsallis-q measure for q within
[TSALLIS_Q_LO, TSALLIS_Q_HI] and the Renyi measure for orders at or above
RENYI_ORDER_LO; outside those windows, and on larger groups, the entropic
measures are deliberately unsupported rather than silently approximated.
Only the concurrence and the CREN support certified interval evaluation
of one qubit against a larger group.
"""

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, DimensionError, DomainError, ParameterError
from .states import (DensityMatrix, PureState, _check_dense, _is_integer, gram, keep_indices,
                     seed_path, split_amplitudes)

# Validity window of the concurrence closed form for the mixed-state
# Tsallis route: (5 - sqrt(13))/2 <= q <= (5 + sqrt(13))/2.
TSALLIS_Q_LO = (5.0 - math.sqrt(13.0)) / 2.0
TSALLIS_Q_HI = (5.0 + math.sqrt(13.0)) / 2.0

# Lower edge of the mixed-state Renyi route: E_a(rho) = f_a(C(rho)) on
# two-qubit states is proven for a >= (sqrt(7) - 1)/2 (Wang, Mu, Vedral and
# Fan, PRA 93, 022324, 2016)
RENYI_ORDER_LO = (math.sqrt(7.0) - 1.0) / 2.0

# family -> the MeasureKind field of its parameter (Tsallis q, Renyi order)
PARAMETERS = {"tsallis": "q", "renyi": "order"}

# roundoff allowance of every certified comparison: the verdicts of
# bounds._clause, whose saturating states sit exactly on a clause
# boundary, the exit code of a computed verify margin, and group_link's
# exactness test (a step of extracted (mu, l) saturates by proof instead,
# see bounds.check_conditions)
CERT_TOL = 1e-9

# Roundoff allowance, not an input contract: how far an interval's lo may
# exceed its hi, the two ends coming from different computations, before
# MeasureValue refuses the interval
INTERVAL_ORDER_TOL = 1e-15

# Roundoff allowance, not an input contract: _member_terms skips an ensemble
# member whose weight p = |row|² is at most this, counting its term p·F(C) <=
# p·F(1) as 0, rather than normalize a row that is roundoff by sqrt(p)
MEMBER_WEIGHT_CUT = 1e-14

# Input contract, not a roundoff allowance: how far outside [0, 1] the
# squared concurrence given to f_eof or g_tsallis may lie, a C² computed
# elsewhere that rounds past an end, before it is a DomainError; an
# accepted argument is clamped into [0, 1]
UNIT_INTERVAL_SLACK = 1e-12

# assisted restarts per block: a block stacks at most pairs x RESTART_BLOCK
# isometries of one rank, one QR (a closed form at rank 2) and one
# ensemble evaluation, which bounds memory for any budget
RESTART_BLOCK = 256

# sy x sy = antidiag(-1, 1, 1, -1): L^T (sy x sy) is L^T with its columns
# reversed and signed, exactly as the matrix product gives it
_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

# unit roundoff of one float64 operation
_UNIT_ROUNDOFF = 2.0 ** -53

# Roundoff radii of the closed-form qubit kernels on unit states (norm²
# within states.NORM_TOL of 1), each proved in its kernel's docstring: a
# computed value at or below its radius is decided to be exactly 0.
# SCHMIDT_RADIUS is that of the concurrence 2 sqrt(sum |minor|²) of a 2 x m
# amplitude matrix (_qubit_spectra, and the 2 x 2 members of
# _pure_two_qubit_concurrence), WOOTTERS_RADIUS that of the phase-aligned
# Wootters form of a 4 x 2 factor (_wootters_2x2).
SCHMIDT_RADIUS = 16 * _UNIT_ROUNDOFF
WOOTTERS_RADIUS = 64 * _UNIT_ROUNDOFF

# m -> the indices, into the 2m entries of a 2 x m matrix with rows t and b,
# of the factors (t_j, b_k, t_k, b_j) of each of its minors t_j b_k - t_k b_j,
# j < k, for the m that _qubit_spectra takes
_MINORS = {m: np.array([(j, m + k, k, m + j) for j, k in itertools.combinations(range(m), 2)]).T
           for m in range(2, 9)}


@dataclass(frozen=True)
class MeasureValue:
    """A measure result together with its certification status.

    status is one of "exact", "interval" (with certified lo <= hi bounds,
    value = midpoint) or "heuristic" (a lower estimate; never used for
    certified verdicts).
    """

    value: float
    status: str = "exact"
    lo: float = None
    hi: float = None

    def __post_init__(self):
        if self.status not in ("exact", "interval", "heuristic"):
            raise ParameterError(f"unknown certification status {self.status!r}")
        if self.status == "interval":
            if self.lo is None or self.hi is None or self.lo > self.hi + INTERVAL_ORDER_TOL:
                raise ParameterError(f"bad interval [{self.lo}, {self.hi}]")

    def __float__(self):
        return float(self.value)

    @property
    def bounds(self) -> tuple:
        """(lo, hi) with lo = hi = value for exact results."""
        if self.status == "interval":
            return (self.lo, self.hi)
        return (self.value, self.value)

    @classmethod
    def exact(cls, v):
        return cls(float(v), "exact")

    @classmethod
    def interval(cls, lo, hi):
        lo, hi = float(lo), float(hi)
        return cls(0.5 * (lo + hi), "interval", lo, hi)


@dataclass(frozen=True)
class MeasureKind:
    """Selector for one of the five measure families.

    name is one of "concurrence", "cren", "eof", "tsallis" or "renyi"; a
    family of PARAMETERS requires its field, a finite real number > 0 and
    != 1 (ParameterError otherwise, for a string or a complex number too).
    assisted selects the decomposition-maximizing dual, which is only
    available through the heuristic estimator.
    """

    name: str
    q: float = None
    order: float = None
    assisted: bool = False

    def __post_init__(self):
        if self.name not in ("concurrence", "cren", "eof", "tsallis", "renyi"):
            raise ParameterError(f"unknown measure kind {self.name!r}")
        for owner, param in PARAMETERS.items():
            value = getattr(self, param)
            if self.name != owner:
                if value is not None:
                    raise ParameterError(
                        f"{param} is only meaningful for {owner}, got kind {self.name!r}")
            elif (not isinstance(value, numbers.Real) or not math.isfinite(value)
                  or value <= 0 or value == 1):
                raise ParameterError(
                    f"{owner} requires finite {param} > 0, {param} != 1, got {value}")

    @property
    def label(self) -> str:
        param = PARAMETERS.get(self.name)
        base = self.name if param is None else f"{self.name}({param}={getattr(self, param):g})"
        return f"assisted-{base}" if self.assisted else base

    @property
    def certifies_groups(self) -> bool:
        """Whether group_link certifies one qubit against any group (see there)."""
        return self.name in ("concurrence", "cren") and not self.assisted

    def from_concurrence(self, c):
        """Value of this measure on any state of known concurrence c.

        Valid on 2 x m pure states and two-qubit mixed states, where each
        family is a fixed monotone function of the concurrence: from_spectrum
        of ((1+s)/2, (1-s)/2), s = sqrt(1 - c²).  c is clamped into [0, 1]
        and may be a scalar (a float is returned) or an array (elementwise).
        """
        c = np.minimum(np.maximum(np.asarray(c, dtype=float), 0.0), 1.0)
        if self.name in ("concurrence", "cren"):
            return _scalar_or_array(c)
        return self.from_spectrum(_two_level(c * c))

    def from_spectrum(self, evs):
        """Value on a pure state whose marginal on either side has spectrum evs.

        evs holds nonnegative eigenvalues along its last axis; leading axes
        are a stack of states (an array is returned) and a single spectrum
        gives a float.
        """
        p = np.asarray(evs, dtype=float)
        if self.name == "concurrence":
            out = _conc_from_spectrum(p)
        elif self.name == "cren":
            # (Tr sqrt(rho_keep))^2 - 1; equals the concurrence whenever one
            # side is a single qubit (Schmidt rank <= 2).
            out = np.sqrt(p).sum(axis=-1) ** 2 - 1.0
        elif self.name == "eof":
            out = _entropy_vn(p)
        elif self.name == "tsallis":
            out = _entropy_tsallis(p, self.q)
        else:
            out = _entropy_renyi(p, self.order)
        # every family is nonnegative, but a product state's top Schmidt
        # coefficient can round above 1 and put a sum about 1e-16 below 0;
        # adding 0.0 turns the -0.0 of a zero over q - 1 < 0 into 0.0
        return _scalar_or_array(np.maximum(0.0, out) + 0.0)

    def pure_value(self, state: PureState, keep) -> float:
        """Exact value on a pure state for the bipartition keep | rest."""
        return self.from_spectrum(marginal_spectra(state.amplitudes, state.dims, keep))

    def two_qubit_value(self, rho: DensityMatrix) -> float:
        """Exact value on a two-qubit mixed state via the Wootters form.

        The windows of :meth:`_from_mixed_concurrence` apply (Tsallis q,
        Renyi order).  An assisted kind raises CapabilityError: its
        mixed-state value is a maximum over decompositions, which only
        assisted_estimate bounds.
        """
        self._require_exact_mixed()
        return self._from_mixed_concurrence(float(concurrence_two_qubit(rho)))

    def pair_values(self, state: PureState, side: int = 0, others=None, budget: int = 200,
                    seed=0) -> np.ndarray:
        """M(side, j) of a pure qubit state for each j in others (as in
        pair_factors), as an array: the one route to pair values.

        A plain kind reads pair_concurrences within the windows of
        :meth:`_from_mixed_concurrence`.  An assisted kind runs one
        assisted_estimates pass over the pair states, the one at position i
        of others seeded seed_path(seed, i): each value is assisted_estimate
        of that pair state alone (heuristic, budget restarts).
        """
        if self.assisted:
            rhos = gram(pair_factors(state.amplitudes, state.dims, side, others))
            return assisted_estimates(rhos, self, budget,
                                      [seed_path(seed, i) for i in range(len(rhos))])
        return self._from_mixed_concurrence(
            pair_concurrences(state.amplitudes, state.dims, side, others))

    def _require_exact_mixed(self):
        """Raise CapabilityError for an assisted kind, which has no exact
        mixed-state value (see two_qubit_value)."""
        if self.assisted:
            raise CapabilityError(f"{self.label} of a mixed state has no exact value; "
                                  f"assisted_estimate gives a heuristic one")

    def _from_mixed_concurrence(self, c):
        """from_concurrence of two-qubit mixed states' Wootters concurrences c.

        Two families take this route only inside a proven window
        (CapabilityError otherwise): Tsallis with q in [TSALLIS_Q_LO,
        TSALLIS_Q_HI], Renyi with order >= RENYI_ORDER_LO.
        """
        if self.name == "tsallis" and not TSALLIS_Q_LO <= self.q <= TSALLIS_Q_HI:
            raise CapabilityError(
                f"mixed-state tsallis route requires q within "
                f"[{TSALLIS_Q_LO:.6f}, {TSALLIS_Q_HI:.6f}], got q={self.q}"
            )
        if self.name == "renyi" and not self.order >= RENYI_ORDER_LO:
            raise CapabilityError(
                f"mixed-state renyi route requires order >= {RENYI_ORDER_LO:.6f}, "
                f"got order={self.order}")
        return self.from_concurrence(c)

    def evaluate(self, state, side=None, group=None) -> MeasureValue:
        """This measure for the split side | group∖side of a state.

        The one measure route.  On a PureState, side and group (default:
        the whole register) are register indices, each one index or an
        iterable of them, with side a proper subset of group:

        - the whole register gives the exact pure_value;
        - one qubit A (on either side) against the rest of a smaller qubit
          group gives group_link of A's pure_value and of its pair_values
          (no reduction), with the windows of two_qubit_value.  Only a
          2-qubit group, or a kind that certifies groups, reads them: any
          other group has no link.
          An assisted kind has no exact value off the whole register: it
          raises two_qubit_value's CapabilityError before reading any pair.

        A 2x2-qubit DensityMatrix gives the exact two_qubit_value (side and
        group are then ignored).  Every other input raises CapabilityError:
        no certified route exists there.  An empty side or one that is not
        a proper subset of group raises ParameterError, an index outside the
        register DimensionError.
        """
        if isinstance(state, DensityMatrix):
            if tuple(state.dims) != (2, 2):
                raise CapabilityError(
                    f"{self.label} on a {len(state.dims)}-subsystem DensityMatrix is not "
                    f"supported; only 2x2-qubit ones are (pass the pure state and the group)")
            return MeasureValue.exact(self.two_qubit_value(state))
        if not isinstance(state, PureState):
            raise ParameterError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
        side, group = _split(state.n_qubits, side, group)
        if len(group) == state.n_qubits:
            return MeasureValue.exact(self.pure_value(state, side))
        self._require_exact_mixed()  # before any pair value is read
        a, others = sorted((side, [j for j in group if j not in side]), key=len)
        link = None
        if (len(a) == 1 and all(state.dims[i] == 2 for i in group)
                and (len(group) == 2 or self.certifies_groups)):
            pairs = self.pair_values(state, a[0], others)
            # a pair's link is its one pair value: A's full value is not read
            full = self.pure_value(state, a) if len(group) > 2 else None
            link = group_link(self, state, a + others, pairs, full)
        if link is None:
            raise CapabilityError(
                f"{self.label} on a mixed {len(group)}-subsystem group is not supported; only "
                f"2-qubit groups and the concurrence and CREN of one qubit against qubits are")
        return link


def _split(n: int, side, group=None) -> tuple:
    """side and group (default: all n subsystems) as sorted index lists.

    Both are read by keep_indices; side must be a proper subset of group
    (ParameterError otherwise).
    """
    side = keep_indices(() if side is None else side, n)
    group = list(range(n)) if group is None else keep_indices(group, n)
    if not set(side) < set(group):
        raise ParameterError(f"side {side} is not a proper subset of the group {group}")
    return side, group


_CONCURRENCE = MeasureKind("concurrence")
_CREN = MeasureKind("cren")
_EOF = MeasureKind("eof")


def marginal_spectra(amps: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """Descending marginal spectra of pure states for the cut keep | rest.

    amps holds unit-norm amplitude vectors along its last axis; leading
    axes are a stack of states.  keep is checked by keep_indices.  The
    spectrum is that of the amplitude matrix M of the side with fewer
    subsystems: both marginals of a pure state share their nonzero
    spectrum, and the smaller one stays small on wide registers.  A 2 x m
    M, 2 <= m <= 8 (a qubit against at most three qubits), takes the
    closed form _qubit_spectra, with no LAPACK call and a decided zero;
    any other M takes the squared singular values of an svd, each with a
    relative, not an absolute, roundoff.  eigvalsh of M·M† would read a
    product state's zero Schmidt coefficient as noise of order 1e-16,
    whose square root surfaces near 1e-8 in the concurrence.
    """
    keep = keep_indices(keep, len(dims))
    rest = [i for i in range(len(dims)) if i not in keep]
    side = rest if len(rest) < len(keep) else keep
    m = split_amplitudes(amps, dims, side)
    if m.shape[-2] == 2 and m.shape[-1] in _MINORS:
        # one state runs as a stack of one: numpy rounds the 0-d arithmetic
        # of a lone matrix differently from its array loops
        return _qubit_spectra(m[None])[0] if m.ndim == 2 else _qubit_spectra(m)
    s = np.linalg.svd(m, compute_uv=False)
    return s * s


def _qubit_spectra(m: np.ndarray) -> np.ndarray:
    """Descending spectra (p1, p2) of M·M† for an (..., 2, m) stack of unit
    amplitude matrices, 2 <= m <= 8, in closed form.

    With rows t and b of M: p1 + p2 = ||M||_F² and, by Cauchy-Binet,
    p1 p2 = det M·M† = sum_{j<k} |t_j b_k - t_k b_j|², a sum of
    nonnegative terms.  The larger root is taken first, from
    p1 - p2 = sqrt((|t|² - |b|²)² + 4|<t, b>|²), also a sum of squares,
    and then p2 = p1 p2 / p1.  Neither step subtracts two values of
    the size of the answer: p1 >= 1/2 carries a relative roundoff, and
    the textbook p2 = (s - sqrt(s² - 4 det))/2 or det = |t|²|b|² - |<t, b>|²
    (which reads up to 2.6e-8 on product qubits) is never formed.

    Decided zero.  The concurrence of the cut is C = 2 sqrt(p1 p2), and a
    C at or below SCHMIDT_RADIUS = 16u (u = 2^-53) reads exactly 0 with
    spectrum (1, 0).  The radius holds the computed C of a unit M whose
    entries each carry a relative error of up to 2u from their own
    construction (a product and a normalization): a minor's two complex
    products and its difference add at most (sqrt(5) + 1)u, and the input
    4u, of w_jk = |t_j||b_k| + |t_k||b_j|, so the vector of minor errors
    has 2-norm at most 7.3u·sqrt(sum w_jk²) <= 7.3u·sqrt(2)|t||b| <=
    7.3u/sqrt(2) (since |t|² + |b|² = 1), and C's error is at most twice
    that, 10.4u, plus the relative roundoff of the sum and the square
    root.  A product qubit, whose exact C is 0, therefore reads 0; on
    15000 product states of 2-4 qubits the undecided C was at most 2.0u,
    and on Haar 3-qubit states the spectrum is within 2.3u of the exact
    one of the stored amplitudes (the svd's is within 10.4u).

    Every operation is elementwise or a sum along the contiguous last axis.
    For m <= 4 numpy adds such a sum in one order for every row, so a stack
    of one state gives the bits of its row in any block (marginal_spectra
    runs one state as such a stack).  The 28 minors of m = 8, a qubit
    against three qubits, are summed in another order inside a block, and
    about half the rows of a 4-qubit block differ from their stack of one
    in the last bit.
    """
    cols = m.shape[-1]
    factors = m.reshape(m.shape[:-2] + (2 * cols,))[..., _MINORS[cols]]
    minors = factors[..., 0, :] * factors[..., 1, :] - factors[..., 2, :] * factors[..., 3, :]
    det = (minors.real ** 2 + minors.imag ** 2).sum(axis=-1)
    norms = (m.real ** 2 + m.imag ** 2).sum(axis=-1)
    t2, b2 = norms[..., 0], norms[..., 1]
    g = (m[..., 0, :] * m[..., 1, :].conj()).sum(axis=-1)
    p1 = 0.5 * (t2 + b2 + np.sqrt((t2 - b2) ** 2 + 4.0 * (g.real ** 2 + g.imag ** 2)))
    spectra = np.empty(np.shape(det) + (2,))
    spectra[..., 0] = p1
    spectra[..., 1] = np.minimum(det / p1, p1)
    spectra[4.0 * det <= SCHMIDT_RADIUS ** 2] = (1.0, 0.0)
    return spectra


def pair_concurrences(amps: np.ndarray, dims: tuple, side: int = 0,
                      others=None) -> np.ndarray:
    """C(side, j) of pure qubit states, j in others, along a new last axis.

    amps, side and others are as in :func:`pair_factors`, so the default
    gives C(A,B_i), i = 1..N-1.  The amplitude matrix M of the split
    {side, j} | rest is a factor of the pair state, M·M† = rho, so its
    columns are a pure-state decomposition of rho and the pairs of every
    state go through one :func:`wootters_factor_concurrence` call on the
    stacked M, with no Gram matrix and no eigh.  That holds while M has at
    most 4 columns (a complement of at most two qubits): with 2 columns (a
    3-qubit register) it is the closed form _wootters_2x2, with its
    decided zero, and with 4 an svd.  A wider M would make the svd larger
    than the 4 x 4 pair state, so the pair states are then formed as M·M†
    and go through :func:`wootters_concurrence`.
    """
    ms = pair_factors(amps, dims, side, others)
    if ms.shape[-1] <= 4:
        return wootters_factor_concurrence(ms)
    return wootters_concurrence(gram(ms))


def pair_factors(amps: np.ndarray, dims: tuple, side: int = 0, others=None) -> np.ndarray:
    """Amplitude matrices M of the splits {side, j} | rest along a new axis -3.

    amps is as in marginal_spectra; others defaults to every subsystem but
    side, ascending.  M·M† (gram) of entry j is the pair state on {side, j}.
    An index outside the register, or a side or partner that is not a
    qubit, raises DimensionError; an empty others, or one repeating an
    index or side, ParameterError.
    """
    if others is None:
        others = [j for j in range(len(dims)) if j != side]
    if not others or len(keep_indices([side, *others], len(dims))) != len(others) + 1:
        raise ParameterError(f"pairs need distinct partners of side {side}, got {others}")
    if any(dims[i] != 2 for i in (side, *others)):
        raise DimensionError(f"pairs need qubits, got dims {dims} at side {side} and {others}")
    return np.stack([split_amplitudes(amps, dims, sorted((side, j))) for j in others], axis=-3)


def _require_two_qubits(rho: DensityMatrix, what: str):
    if not isinstance(rho, DensityMatrix):
        raise ParameterError(f"{what} expects a DensityMatrix, got {type(rho).__name__}")
    if tuple(rho.dims) != (2, 2):
        raise DimensionError(f"{what} requires a 2x2-qubit state, got dims {rho.dims}")


# Entropic functions of spectra held along the last axis of p (nonnegative,
# unit sum); leading axes are a stack of states.  0·log 0 := 0.

def _conc_from_spectrum(p):
    # sqrt(2[1 - sum p²]) = sqrt(4 sum_{i<j} p_i p_j) for a unit-sum p; the
    # pair sum has only nonnegative terms, so a small value never comes
    # out of a cancellation next to purity 1
    pairs = (p[..., 1:] * np.cumsum(p[..., :-1], axis=-1)).sum(axis=-1)
    return np.sqrt(4.0 * pairs)


def _entropy_vn(p):
    plogp = p * np.log2(p + (p == 0.0))  # log2 1 = 0 on the zero entries
    return 0.0 - plogp.sum(axis=-1)


def _entropy_tsallis(p, q: float):
    return (1.0 - (p ** q).sum(axis=-1)) / (q - 1.0)


def _entropy_renyi(p, order: float):
    # log2 sum p^a = a log2 p_max + log2 sum (p/p_max)^a: no power under- or
    # overflows for any finite order, so the result stays finite
    top = p.max(axis=-1)
    tail = ((p / top[..., None]) ** order).sum(axis=-1)
    return np.log2(top) * (order / (1.0 - order)) + np.log2(tail) / (1.0 - order)


def _scalar_or_array(x):
    """A float for a 0-d result, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def concurrence_pure(state: PureState, keep) -> MeasureValue:
    """Concurrence sqrt(2[1 - Tr rho_keep²]) of a pure-state bipartition.

    keep must be a proper nonempty subset of the subsystems; the result
    lies in [0, sqrt(2(d-1)/d)] for d the smaller side dimension.
    """
    return _CONCURRENCE.evaluate(state, keep)


# eigenvalues of a unit-trace state below this are treated as rank noise
_RANK_TOL = 1e-12


def wootters_factor_concurrence(factors: np.ndarray) -> np.ndarray:
    """Wootters concurrence of the two-qubit states L·L† of an (..., 4, r) stack.

    C = max{0, l1 - l2 - ...} where the l_i are the descending singular
    values of A = L^T (sy x sy) L.  They do not depend on the factor: for
    any L with rho = L·L† they are the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), since the columns of L are a pure-state
    decomposition of rho (Wootters, PRL 80, 2245, 1998).  Callers pass
    r <= 4, so the r x r matrix is no larger than rho; a factor with fewer
    than 4 columns gives fewer singular values, the missing ones being
    zero.  No Gram matrix, eigendecomposition or square root of rho is
    taken.  A 2 x 2 A (r = 2, the pairs of a 3-qubit state) takes the
    closed form _wootters_2x2, with no LAPACK call and a decided zero; any
    other r takes an svd of A.
    """
    if factors.shape[-1] == 2:
        return _wootters_2x2(factors)
    lt_yy = np.swapaxes(factors, -1, -2)[..., ::-1] * _YY_SIGNS
    lam = np.linalg.svd(lt_yy @ factors, compute_uv=False)
    c = lam[..., 0]
    for i in range(1, lam.shape[-1]):
        c = c - lam[..., i]
    return np.maximum(0.0, c)


def _wootters_2x2(factors: np.ndarray) -> np.ndarray:
    """l1 - l2 of A = L^T (sy x sy) L for an (..., 4, 2) stack of factors
    of unit-trace two-qubit states, in closed form.

    With the columns x, y of L, A is the symmetric [[2a, b], [b, 2c]],
    a = x1 x2 - x0 x3, c = y1 y2 - y0 y3 and b = x1 y2 + x2 y1 - x0 y3 -
    x3 y0.  Let B = e^{-i theta/2} A with theta = arg det A (theta = 0 when
    det A = 0): then det B = |det A| = l1 l2 is real and nonnegative, and
    for any 2 x 2 B with det B >= 0,
    |b11 - conj(b22)|² + |b12 + conj(b21)|² = ||B||_F² - 2 Re det B
    = (l1 - l2)²,
    so C = 2 sqrt(|e a - conj(e c)|² + (Re e b)²), e = e^{-i theta/2}, a
    sum of squares that is 0 without a cancellation where C is.  The
    textbook sqrt(||A||_F² - 2|det A|) reads up to 1.3e-8 on rotated GHZ
    pairs and is never formed.  e is the conjugate of the square root of
    det A/|det A|, not exp(-i theta/2): exp(-i pi/2) is 6e-17 - 1j, which
    leaves 6e-17 on GHZ_3's exact-zero pairs, while the square root of -1
    is 1j exactly.

    Decided zero.  A C at or below WOOTTERS_RADIUS = 64u (u = 2^-53)
    reads exactly 0.  With s = ||L||_F² = 1 and an input error of 2u per
    entry of L (as in _qubit_spectra), each entry of A, a sum of at most
    four products, is off by at most 10u times its weight |x|², |x||y| or
    |y|², so the computed A is within eta = 10u·s of A in the Frobenius
    norm.  The form f(B) above is sqrt(2)-Lipschitz in that norm, and the
    product with the phase adds sqrt(5)u·||A||_F <= 2.3u·s, which makes
    sqrt(2)(eta + 2.3u·s) = 17.4u·s.  The phase itself is that of the
    computed det A, off by at most ||A||_F eta + eta² + 2u||A||_F²; an angle
    delta adds sqrt(C² + 4 l1 l2 sin² delta) - C.  Where l1 = l2 >= eta
    that is at most 2.4 eta + 2.8u·s, where l2 <= eta at most 3.4 eta, and
    between the two cases less, so the whole form stays within 52u·s.  The
    undecided form read at most 1.6u on 5000 product pairs and 7.9u on
    5000 Haar local-unitary copies of GHZ_3, whose pairs are exactly 0.

    Every operation is elementwise, in one order for every row, so a stack
    of one gives the bits of its row in any block.
    """
    r0, r1, r2, r3 = (factors[..., i, :] for i in range(4))  # rows: (x_i, y_i)
    halves = r1 * r2 - r0 * r3
    a, c = halves[..., 0], halves[..., 1]
    b = (r1[..., 0] * r2[..., 1] + r2[..., 0] * r1[..., 1]
         - (r0[..., 0] * r3[..., 1] + r3[..., 0] * r0[..., 1]))
    det = 4.0 * (a * c) - b * b
    size = np.abs(det)
    zero = size == 0.0
    phase = np.sqrt((det + zero) / (size + zero)).conj()
    conc = 2.0 * np.hypot(np.abs(phase * a - (phase * c).conj()), (phase * b).real)
    return np.where(conc <= WOOTTERS_RADIUS, 0.0, conc)


def wootters_concurrence(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each two-qubit state in an (..., 4, 4) stack:
    :func:`wootters_factor_concurrence` of its _eigen_factor.  The inputs
    are trusted to be density matrices.
    """
    return wootters_factor_concurrence(_eigen_factor(rhos)[0])


def _eigen_factor(rhos: np.ndarray) -> tuple:
    """(L, ranks): the rank-retained factor L = V·sqrt(D), rho = L·L†, of
    each state of an (..., d, d) stack, and the rank of each.

    The square root never touches an eigenvalue at or below _RANK_TOL,
    whose noise would otherwise surface at the sqrt(eps) level on low-rank
    states; it gives a zero column instead.  eigh is ascending, so the
    kept columns come last, largest weight at the end.
    """
    evs, vecs = np.linalg.eigh(rhos)
    keep = evs > _RANK_TOL
    return vecs * np.sqrt(np.where(keep, evs, 0.0))[..., None, :], keep.sum(axis=-1)


def concurrence_two_qubit(rho: DensityMatrix) -> MeasureValue:
    """Wootters concurrence of a two-qubit mixed state (see wootters_concurrence)."""
    _require_two_qubits(rho, "concurrence_two_qubit")
    return MeasureValue.exact(float(wootters_concurrence(rho.matrix[None])[0]))


def group_link(kind: MeasureKind, state: PureState, group, pairs, full: float):
    """Certified M(A|G∖A) of one qubit A of a qubit group G of a pure state, or None.

    The one rule for which value of kind is certified.  group lists G with
    A first; pairs are M(A, j), j in group[1:], and full M(A|rest of the
    register) (an assisted kind's pairs are heuristic).  The whole
    register gives full exactly and a 2-qubit group pairs[0] (None if
    assisted).  A larger group gives the interval of C(A|G∖A) below if
    kind.certifies_groups holds; if not, None, before any group state is
    read:

    - lo = sqrt(sum_j C²(A, j)): the Osborne-Verstraete inequality (PRL 96,
      220503, 2006) bounds each member phi_i of an optimal decomposition
      of rho_G, C(phi_i) >= ||(C_j(phi_i))_j||; averaging with the triangle
      inequality of the 2-norm and the convexity of each pair concurrence
      gives C(rho_G) >= ||(C(rho_{A,j}))_j||.
    - hi = full = sqrt(2[1 - Tr rho_A²]): rho_A -> sqrt(2[1 - Tr rho_A²])
      is concave (Tr rho² is convex, and the square root of a nonnegative
      concave function is concave), and the marginal of a mixture is the
      mixture of marginals, so every ensemble of rho_G averages at most
      this value; the convex-roof minimum does too.
    - A pure group, 1 - Tr rho_G² <= CERT_TOL, gives full exactly if the
      Mintert-Buchleitner leg sqrt(max(0, full² - 2[1 - Tr rho_G²])), from
      C(rho)² >= 2[Tr rho² - Tr rho_A²] (PRL 98, 140505, 2007), is within
      CERT_TOL of full; a nearly pure group with a small full keeps the
      interval.  The leg decides exactness only.  Tr rho_G² is the purity
      of the smaller side of G | rest, the squared Frobenius norm of M·M†.

    It holds for the CREN as it stands: a pure member of a decomposition
    of rho_G has Schmidt rank <= 2 across A | G∖A (A is a qubit), and with
    Schmidt coefficients l1, l2 its CREN (sqrt(l1) + sqrt(l2))² - 1 and
    its concurrence sqrt(2[1 - l1² - l2²]) both equal 2 sqrt(l1 l2).  The
    two convex roofs minimize one function over the same decompositions,
    so they are equal, as are the pair values and full the legs read.
    """
    if len(group) == state.n_qubits:
        return MeasureValue.exact(full)
    if len(group) == 2:
        return None if kind.assisted else MeasureValue.exact(pairs[0])
    if not kind.certifies_groups:
        return None
    rest = [i for i in range(state.n_qubits) if i not in group]
    m = gram(split_amplitudes(state.amplitudes, state.dims, min(rest, sorted(group), key=len)))
    mixedness = 1.0 - float(np.vdot(m, m).real)
    if (mixedness <= CERT_TOL
            and full - math.sqrt(max(0.0, full * full - 2.0 * mixedness)) <= CERT_TOL):
        return MeasureValue.exact(full)
    lo = math.sqrt(sum(c * c for c in pairs))
    return MeasureValue.interval(lo, max(lo, full))


def negativity(state, side=0, group=None) -> MeasureValue:
    """Negativity ||rho_G^{T_S}||_1 - 1 of the split S | G∖S of a pure state.

    side S and group G (default: the whole register) are read as in
    MeasureKind.evaluate, S a proper subset of G; a DensityMatrix raises
    ParameterError.  Every value comes from the amplitudes; no rho_G and
    no partial transpose of it is formed.

    The whole register takes the Schmidt coefficients s_i of S | rest:
    ||rho^{T_S}||_1 = (sum_i s_i)² exactly, so the negativity is the cren
    pure_value of the same split.  A smaller group takes a factor kernel,
    with k the dimension of the rest of the register.  Let M_i (D x k) be
    the amplitude block of basis state i of S, rows over G∖S, so that
    rho_G = sum_ij |i><j| (x) M_i M_j†.  The reduced QR [M_1 ... M_{d_S}] =
    Q R, with R = [R_1 ... R_{d_S}], gives M_i = Q R_i, hence rho_G =
    (I (x) Q) rho~ (I (x) Q†) with rho~ = sum_ij |i><j| (x) R_i R_j†.  The
    transpose on S touches only the |i><j| factor, so rho_G^{T_S} =
    (I (x) Q) Y (I (x) Q†) with Y = rho~^{T_S}, the Hermitian matrix whose
    block (i, j) is R_j R_i†.  I (x) Q is an isometry, so rho_G^{T_S} and Y
    share their nonzero spectrum and ||rho_G^{T_S}||_1 = sum |eig(Y)|.

    Y has d_S · min(D, d_S k) <= d_G rows; with D <= d_S k the QR would
    not shrink it, and Q = I, R = M are taken.  The transpose on G∖S is
    the full transpose of the one on S, with the same trace norm, so the
    smaller part, whose Y is smaller, is transposed.  A Y beyond DIM_CAP
    raises DimensionError before anything is allocated.  With Tr Y = 1 the
    negativity is 2 sum |eig(Y) < 0|: nonnegative, and exactly 0.0 on a
    group whose transpose keeps every eigenvalue at or above 0.
    """
    if not isinstance(state, PureState):
        raise ParameterError(f"negativity expects a PureState, got {type(state).__name__}")
    side, group = _split(state.n_qubits, side, group)
    if len(group) == state.n_qubits:
        return MeasureValue.exact(_CREN.pure_value(state, side))
    other = [j for j in group if j not in side]
    d_s, d_o = (math.prod(state.dims[i] for i in part) for part in (side, other))
    if d_o < d_s:
        side, other, d_s, d_o = other, side, d_o, d_s
    k = state.amplitudes.size // (d_s * d_o)
    rows = min(d_o, d_s * k)
    _check_dense(d_s * rows, "partial-transpose factor")
    m = split_amplitudes(state.amplitudes, state.dims, side + other).reshape(d_s, d_o, k)
    r = m.transpose(1, 0, 2).reshape(d_o, d_s * k)  # [M_1 ... M_{d_S}]
    if d_o > rows:
        r = np.linalg.qr(r, mode="r")
    blocks = r.reshape(rows, d_s, k).transpose(1, 0, 2).reshape(d_s * rows, k)
    y = gram(blocks).reshape(d_s, rows, d_s, rows).transpose(2, 1, 0, 3)
    evs = np.linalg.eigvalsh(y.reshape(d_s * rows, d_s * rows))
    return MeasureValue.exact(2.0 * float(np.abs(evs[evs < 0.0]).sum()))


# The closed forms below are from_spectrum of the marginal spectrum
# ((1+s)/2, (1-s)/2), s = sqrt(1 - C²), of a 2 x m pure state with
# concurrence C, as a function of x = C² (MeasureKind.from_concurrence takes
# C itself).  Each takes a scalar (returns a float) or an array
# (elementwise); any argument outside [0, 1] raises DomainError.

def f_eof(x):
    """Entanglement of formation as a function of squared concurrence.

    f(x) = H((1 + sqrt(1-x))/2) with H the base-2 binary entropy;
    monotonically increasing on [0, 1] with f(0) = 0, f(1) = 1.
    """
    return _EOF.from_spectrum(_two_level(_unit_interval(x, "f_eof")))


def g_tsallis(x, q: float):
    """Tsallis-q entanglement as a function of squared concurrence.

    g_q(x) = [1 - ((1+s)/2)^q - ((1-s)/2)^q]/(q-1) with s = sqrt(1-x);
    g_q(0) = 0 and g_2(x) = x/2 exactly.  q is checked by MeasureKind.
    """
    kind = MeasureKind("tsallis", q=q)
    return kind.from_spectrum(_two_level(_unit_interval(x, "g_tsallis")))


_HALVES = np.array([0.5, -0.5])


def _two_level(x):
    """Spectrum ((1+s)/2, (1-s)/2), s = sqrt(1-x), along a new last axis (x in [0, 1])."""
    return np.multiply.outer(np.sqrt(1.0 - x), _HALVES) + 0.5


def eof(state, partition=None) -> MeasureValue:
    """Entanglement of formation.

    Pure states: von Neumann entropy of the marginal on ``partition``.
    Two-qubit mixed states: f_eof(C²).  Mixed states beyond 2x2 are
    unsupported (no certified route exists here); see MeasureKind.evaluate.
    """
    return MeasureKind("eof").evaluate(state, partition)


def tsallis(state, partition=None, q: float = 2.0) -> MeasureValue:
    """Tsallis-q entanglement; see :func:`eof` for the supported regimes.

    The pure route (1 - Tr rho^q)/(q - 1) works for any q > 0, q != 1; the
    mixed two-qubit route additionally requires q within the closed-form
    validity window [(5-sqrt(13))/2, (5+sqrt(13))/2].
    """
    return MeasureKind("tsallis", q=float(q)).evaluate(state, partition)


def renyi(state, partition=None, order: float = 2.0) -> MeasureValue:
    """Renyi entanglement of order ``order``; regimes as in :func:`eof`.

    The mixed two-qubit route additionally requires order >= RENYI_ORDER_LO.
    """
    return MeasureKind("renyi", order=float(order)).evaluate(state, partition)


def _pure_two_qubit_concurrence(vecs: np.ndarray) -> np.ndarray:
    # |<phi|sy x sy|phi*>| = 2|a d - b c| for unit amplitudes (a, b, c, d) along
    # the last axis: the one minor of _qubit_spectra's 2 x 2 matrix, with its
    # decided zero at SCHMIDT_RADIUS
    c = 2.0 * np.abs(vecs[..., 0] * vecs[..., 3] - vecs[..., 1] * vecs[..., 2])
    c[c <= SCHMIDT_RADIUS] = 0.0
    return c


def assisted_estimate(rho: DensityMatrix, kind: MeasureKind, budget: int = 200,
                      seed=0) -> MeasureValue:
    """Heuristic lower estimate of an assisted (max-decomposition) measure.

    Random pure-state decompositions of the two-qubit state are generated
    by mixing the eigen-ensemble with isometries Q (ensemble sizes up to
    rank²), each the Householder Q factor of a complex Gaussian block; the
    best ensemble average over ``budget`` restarts is returned.  Q is not
    Haar: Re Q_00 = -|x_0 cos theta|/||x|| <= 0, with x the block's first
    column and theta = arg x_0 (Mezzadri, Notices AMS 54, 592, 2007).  It
    is flagged heuristic and never feeds certified verdicts.  The estimate
    is at least the non-assisted measure (every decomposition average
    dominates the convex-roof minimum) and is nondecreasing in ``budget``
    for a fixed seed.  It is :func:`assisted_estimates` on a stack of one
    state; see there for the streams and the blocks.
    """
    _require_two_qubits(rho, "assisted_estimate")
    return MeasureValue(float(assisted_estimates(rho.matrix[None], kind, budget, [seed])[0]),
                        "heuristic")


def check_budget(budget):
    """ParameterError unless budget, a count of restarts, is a nonnegative
    integer; a bool or a float is not one."""
    if not _is_integer(budget):
        raise ParameterError(f"budget must be a nonnegative integer, got {budget!r}")
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget}")


def assisted_estimates(rhos: np.ndarray, kind: MeasureKind, budget: int, seeds) -> np.ndarray:
    """assisted_estimate of each two-qubit state of a (P, 4, 4) stack, in one pass.

    rhos are trusted density matrices and seeds holds one seed per state.
    State i draws from two streams of its own: restart j takes its ensemble
    size m_j in [r_i, r_i²] from seed_path(seeds[i], 0) and an r_i² x r_i
    complex Gaussian block from seed_path(seeds[i], 1), restart-major, with
    r_i the state's rank; rows m_j onward are zeroed.  So no draw depends
    on ``budget``, on the split into RESTART_BLOCK blocks or on the other
    states of the stack, and each value equals the one of a stack of one.

    One _eigen_factor call gives every eigen-ensemble: the rows of its
    rank-r_i factor, largest weight first, whose own average is the first
    candidate.  The states are then grouped by rank.  The P_r states of
    rank r run their restarts as one uniform stack per block, (P_r, k,
    r², r) with k <= RESTART_BLOCK, through one batched QR and one
    :func:`_member_terms` call; a block holds at most P x RESTART_BLOCK
    isometries, which bounds memory for any budget.  Rank 2, every pair of
    a 3-qubit register, takes the same Q in closed form
    (:func:`_householder_q2`) and reads its members on the range of the
    state (:func:`_range_terms`), with no LAPACK call and no member formed.
    Every state meets only matrices of its own shape, so its value is the
    one of a stack of one.

    The best average of each state is returned, its eigen-ensemble's when
    budget is 0, capped at the family's maximum from_concurrence(1).  budget
    must pass check_budget and seeds be as long as rhos (ParameterError
    otherwise).
    """
    if not kind.assisted:
        raise ParameterError("assisted_estimate requires a kind with assisted=True")
    check_budget(budget)
    if len(seeds) != len(rhos):
        raise ParameterError(f"{len(rhos)} states need as many seeds, got {len(seeds)}")

    factors, ranks = _eigen_factor(rhos)  # a unit-trace state keeps at least one
    # rows: the unnormalized eigen-ensembles, largest weight first, so a
    # state of rank r keeps its first r rows
    members = np.swapaxes(factors, -1, -2)[:, ::-1]

    best = np.empty(len(rhos))
    for r in sorted(set(ranks.tolist())):
        group = np.flatnonzero(ranks == r)
        own = members[group, :r]
        best[group] = _member_terms(own, kind).sum(axis=-1)
        streams = [[np.random.default_rng(seed_path(seeds[i], s)) for s in (0, 1)]
                   for i in group]
        rows = np.arange(r * r)
        for start in range(0, budget, RESTART_BLOCK):
            k = min(budget - start, RESTART_BLOCK)
            z = np.empty((len(group), k, r * r, r), dtype=complex)
            for block, (sizes, draws) in zip(z, streams):
                m = sizes.integers(r, r * r + 1, size=k)
                g = draws.normal(size=(k, 2, r * r, r))
                block.real, block.imag = g[:, 0], g[:, 1]
                block[rows >= m[:, None]] = 0.0
            if r == 2:
                terms = _range_terms(*_householder_q2(z), own, kind)
            else:
                terms = _member_terms(np.linalg.qr(z)[0] @ own[:, None], kind)
            averages = terms.sum(axis=-1)
            best[group] = np.maximum(best[group], averages.max(axis=-1))
    # roundoff can put an average a few ulps above the family's maximum F(1)
    return np.minimum(best, kind.from_concurrence(1.0))


def _householder_q2(z: np.ndarray) -> tuple:
    """Columns (q0, q1) of the Q factor of an (..., n, 2) stack z = [x y],
    as LAPACK's zgeqrf and zungqr (numpy.linalg.qr) give it, in closed form.

    With beta1 = -copysign(||x||, Re x_0), v = y - (q0ᴴy)q0,
    alpha2 = v_1 - x_1 v_0/(x_0 - beta1) and
    beta2 = -copysign(||v||, Re alpha2): q0 = x/beta1 and q1 = v/beta2.

    Proof, in exact arithmetic.  zlarfg gives the first reflector
    H1 = I - tau u uᴴ, u = e_0 + (0, x_1, ..., x_{n-1})/(x_0 - beta1), with
    H1ᴴx = beta1·e_0 and this beta1.  Q = H1·H2 and H2 fixes e_0, so
    x = Q R e_0 = beta1·Q e_0 gives q0 = x/beta1.  Then y = R_01 q0 + R_11 q1
    with R_01 = q0ᴴy, so q1 = v/R_11, and |R_11| = ||v||.  zgeqrf reflects
    the entries 1..n-1 of H1ᴴy next, starting at alpha2 = (H1ᴴy)_1, and
    takes R_11 = -copysign(||v||, Re alpha2).  Since H1ᴴq0 = e_0,
    H1ᴴv = H1ᴴy - R_01 e_0: its entry 0 is 0 and its entry 1 is alpha2.
    With H1ᴴ = I - conj(tau) u uᴴ these read v_0 = conj(tau)(uᴴv) and
    alpha2 = v_1 - u_1 v_0, the formula above.  x_0 - beta1 never cancels:
    Re x_0 and -beta1 have one sign, so |x_0 - beta1| >= ||x||.  zlarfg
    takes H = I instead when the entries below its alpha are all 0 and
    alpha is real, which a complex Gaussian block meets with probability 0.

    Roundoff.  q0 is within a few u (u = 2^-53) of x/beta1 entry by entry
    at any column scale.  v is one Gram-Schmidt step, whose error is a few
    u·||y||, so q1 is within a few u·||y||/||v|| = u/sin(x, y) of v/beta2,
    the first-order sensitivity that LAPACK's Q has too.  The sign of beta2
    follows the computed Re alpha2, so where |Re alpha2| is within roundoff
    of 0, an event of probability about u/sin(x, y) on Gaussian blocks, the
    two may take opposite signs of q1, another isometry of the same
    distribution.
    """
    x, y = z[..., 0], z[..., 1]
    beta1 = -np.copysign(np.sqrt((x.real ** 2 + x.imag ** 2).sum(axis=-1)), x[..., 0].real)
    q0 = x / beta1[..., None]
    v = y - (q0.conj() * y).sum(axis=-1)[..., None] * q0
    alpha2 = v[..., 1] - x[..., 1] * v[..., 0] / (x[..., 0] - beta1)
    beta2 = -np.copysign(np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=-1)), alpha2.real)
    return q0, v / beta2[..., None]


def _range_terms(a: np.ndarray, b: np.ndarray, own: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """Member terms p·F(C) of rank-2 ensembles, read on the 2-dimensional
    range of each state, with no member formed.

    own is a (P, 2, 4) stack of eigen-members e0, e1 (orthogonal, with
    lambda_k = ||e_k||²), and a, b the (P, k, n) columns of the isometries
    Q; member j of ensemble (i, t) is a_j e0 + b_j e1 of state i, as in
    Q @ own.  With s(phi) = phi_0 phi_3 - phi_1 phi_2 = phiᵀJphi/2,
    J = antidiag(1, -1, -1, 1), a member's minor is the quadratic form
    s00 a² + s01 ab + s11 b² with s00 = s(e0), s11 = s(e1) and
    s01 = e0ᵀJe1 (Osborne, PRA 72, 022309, 2005), and its weight is
    p = lambda_0|a|² + lambda_1|b|².  So C = 2|s00 a² + s01 ab + s11 b²|/p,
    the value _pure_two_qubit_concurrence gives the normalized member, with
    the same decided zero at SCHMIDT_RADIUS, and a member of weight at most
    MEMBER_WEIGHT_CUT is skipped, as in _member_terms.

    Roundoff, to first order in u.  |s00| <= lambda_0/2, |s11| <= lambda_1/2
    and |s01| <= sqrt(lambda_0 lambda_1) (|phiᵀJpsi| <= ||phi|| ||psi||), so
    the three terms of the form have magnitudes summing to at most p.  With
    complex products within sqrt(5)u and sums within u of their terms'
    magnitudes, the computed form is within (3 sqrt(5) + 5)u·p of that of
    the stored a, b, e0, e1, the weight within 9u·p, and C within 35u.
    Where every member of the range is a product (s00 = s01 = s11 = 0 for
    the stored e_k), only the errors of the computed s remain, at most
    (sqrt(5) + 3)u·p in the form, so C is at most 10.5u, below
    SCHMIDT_RADIUS = 16u, and reads exactly 0.  The weight leaves out the
    cross term 2 Re(a b̄ e1ᴴe0), which eigh's roundoff keeps within O(u)·p.
    """
    # lambda_k and each entry e_k[j] of every state as (P, 1, 1), to broadcast against a, b
    lam0, lam1 = (own.real ** 2 + own.imag ** 2).sum(axis=-1).T[..., None, None]
    e0, e1 = np.moveaxis(own, 0, -1)[..., None, None]
    s00 = e0[0] * e0[3] - e0[1] * e0[2]
    s11 = e1[0] * e1[3] - e1[1] * e1[2]
    s01 = e0[0] * e1[3] + e1[0] * e0[3] - e0[1] * e1[2] - e1[1] * e0[2]
    probs = lam0 * (a.real ** 2 + a.imag ** 2) + lam1 * (b.real ** 2 + b.imag ** 2)
    live = probs > MEMBER_WEIGHT_CUT
    p = probs[live]
    c = 2.0 * np.abs(((s00 * a + s01 * b) * a + s11 * (b * b))[live]) / p
    c[c <= SCHMIDT_RADIUS] = 0.0
    terms = np.zeros(probs.shape)
    terms[live] = p * kind.from_concurrence(c)
    return terms


def _member_terms(members: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """Member terms p·F(C) of the ensembles in a (..., m, 4) stack of members.

    Each (m, 4) matrix holds the unnormalized pure members of one
    decomposition as rows (an isometry times the eigen-ensemble, or that
    ensemble itself), with weights p = |row|²; members with p <=
    MEMBER_WEIGHT_CUT are skipped (their term is 0).  All ensembles are
    evaluated in one stack; the sum of an ensemble's terms (the last axis)
    is its average.
    """
    probs = np.sum(np.abs(members) ** 2, axis=-1)
    live = probs > MEMBER_WEIGHT_CUT
    p = probs[live]
    terms = np.zeros(probs.shape)
    terms[live] = p * kind.from_concurrence(
        _pure_two_qubit_concurrence(members[live] / np.sqrt(p)[:, None]))
    return terms


def _unit_interval(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    inside = (x >= -UNIT_INTERVAL_SLACK) & (x <= 1.0 + UNIT_INTERVAL_SLACK)
    if not inside.all():
        bad = float(x[~inside][0])
        raise DomainError(f"{what} requires an argument in [0, 1], got {bad!r}")
    return np.minimum(np.maximum(x, 0.0), 1.0)
