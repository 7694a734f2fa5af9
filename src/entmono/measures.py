"""Entanglement measures: concurrence (pure, two-qubit mixed, certified
intervals), negativity and its convex-roof extension, entanglement of
formation, Tsallis-q and Renyi-entropy measures, and a heuristic
estimator for their assisted (decomposition-maximizing) duals.

All logarithms are base 2 and 0·log 0 := 0.  On two-qubit mixed states the
entropic measures reduce to closed-form functions of the Wootters
concurrence; beyond 2x2 only the concurrence supports certified interval
evaluation, and the entropic measures are deliberately unsupported rather
than silently approximated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .densemat import partial_transpose, trace_norm
from .errors import CapabilityError, DimensionError, DomainError, ParameterError
from .states import DensityMatrix, PureState, seed_path

# Validity window of the concurrence closed form for the mixed-state
# Tsallis route: (5 - sqrt(13))/2 <= q <= (5 + sqrt(13))/2.
TSALLIS_Q_LO = (5.0 - math.sqrt(13.0)) / 2.0
TSALLIS_Q_HI = (5.0 + math.sqrt(13.0)) / 2.0

# assisted_estimate restarts evaluated in one stack; bounds its memory for any budget
RESTART_BLOCK = 256

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SY, _SY)


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
            if self.lo is None or self.hi is None or self.lo > self.hi + 1e-15:
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

    @classmethod
    def heuristic(cls, v):
        return cls(float(v), "heuristic")


@dataclass(frozen=True)
class MeasureKind:
    """Selector for one of the five measure families.

    name is one of "concurrence", "cren", "eof", "tsallis" (requires q) or
    "renyi" (requires order); assisted selects the decomposition-maximizing
    dual, which is only available through the heuristic estimator.
    """

    name: str
    q: float = None
    order: float = None
    assisted: bool = False

    def __post_init__(self):
        if self.name not in ("concurrence", "cren", "eof", "tsallis", "renyi"):
            raise ParameterError(f"unknown measure kind {self.name!r}")
        if self.name == "tsallis":
            if self.q is None or not math.isfinite(self.q) or self.q <= 0 or self.q == 1:
                raise ParameterError(f"tsallis requires finite q > 0, q != 1, got {self.q}")
        elif self.q is not None:
            raise ParameterError(f"q is only meaningful for tsallis, got kind {self.name!r}")
        if self.name == "renyi":
            if (self.order is None or not math.isfinite(self.order) or self.order <= 0
                    or self.order == 1):
                raise ParameterError(
                    f"renyi requires finite order > 0, order != 1, got {self.order}")
        elif self.order is not None:
            raise ParameterError(f"order is only meaningful for renyi, got kind {self.name!r}")

    @property
    def label(self) -> str:
        if self.name == "tsallis":
            base = f"tsallis(q={self.q:g})"
        elif self.name == "renyi":
            base = f"renyi(order={self.order:g})"
        else:
            base = self.name
        return f"assisted-{base}" if self.assisted else base

    def from_concurrence(self, c):
        """Value of this measure on any state of known concurrence c.

        Valid on 2 x m pure states and two-qubit mixed states, where each
        family is a fixed monotone function of the concurrence.  c may be
        a scalar (a float is returned) or an array (elementwise).
        """
        c = np.minimum(np.maximum(np.asarray(c, dtype=float), 0.0), 1.0)
        if self.name in ("concurrence", "cren"):
            return _scalar_or_array(c)
        if self.name == "eof":
            return f_eof(c * c)
        if self.name == "tsallis":
            return g_tsallis(c * c, self.q)
        return f_renyi(c, self.order)

    def from_spectrum(self, evs):
        """Value on a pure state whose marginal on either side has spectrum evs.

        evs holds nonnegative eigenvalues along its last axis; leading axes
        are a stack of states (an array is returned) and a single spectrum
        gives a float.
        """
        p = np.asarray(evs, dtype=float)
        if self.name == "concurrence":
            out = _conc_from_purity(p)
        elif self.name == "cren":
            # (Tr sqrt(rho_keep))^2 - 1; equals the concurrence whenever one
            # side is a single qubit (Schmidt rank <= 2).
            out = np.maximum(0.0, np.sqrt(p).sum(axis=-1) ** 2 - 1.0)
        elif self.name == "eof":
            out = _entropy_vn(p)
        elif self.name == "tsallis":
            out = _entropy_tsallis(p, self.q)
        else:
            out = _entropy_renyi(p, self.order)
        return _scalar_or_array(out)

    def pure_value(self, state: PureState, keep) -> float:
        """Exact value on a pure state for the bipartition keep | rest.

        The marginal is taken on the smaller side: both marginals of a pure
        state share their nonzero spectrum, and the smaller one stays
        within the dense cap on wide registers.
        """
        keep = sorted(set(int(i) for i in keep))
        rest = [i for i in range(state.n_qubits) if i not in keep]
        side = rest if rest and len(rest) < len(keep) else keep
        return self.from_spectrum(state.reduce(side).eigvals())

    def two_qubit_value(self, rho: DensityMatrix) -> float:
        """Exact value on a two-qubit mixed state via the Wootters form."""
        c = float(concurrence_two_qubit(rho))
        if self.name == "tsallis" and not TSALLIS_Q_LO <= self.q <= TSALLIS_Q_HI:
            raise CapabilityError(
                f"mixed-state tsallis route requires q within "
                f"[{TSALLIS_Q_LO:.6f}, {TSALLIS_Q_HI:.6f}], got q={self.q}"
            )
        return self.from_concurrence(c)

    def evaluate(self, state, side=None) -> MeasureValue:
        """This measure for the split side | rest of a state.

        The one route per input: a proper bipartition of a PureState gives
        the exact pure_value; a 2x2-qubit DensityMatrix the exact
        two_qubit_value (side is then ignored); the concurrence of one
        qubit against a mixed group the certified concurrence_interval.
        Any other mixed input raises CapabilityError: no certified route
        exists there.
        """
        keep = [] if side is None else sorted(set(int(i) for i in side))
        if isinstance(state, PureState):
            if not keep or len(keep) >= state.n_qubits:
                raise ParameterError(
                    f"side {keep} is not a proper bipartition of {state.n_qubits} subsystems")
            return MeasureValue.exact(self.pure_value(state, keep))
        if not isinstance(state, DensityMatrix):
            raise ParameterError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
        if tuple(state.dims) == (2, 2):
            return MeasureValue.exact(self.two_qubit_value(state))
        if self.name == "concurrence" and len(keep) == 1:
            return concurrence_interval(state, side=keep[0])
        raise CapabilityError(
            f"{self.name} on a mixed {len(state.dims)}-subsystem state is not supported; "
            f"only 2x2-qubit states and one-qubit concurrence intervals are")


_CONCURRENCE = MeasureKind("concurrence")


def _require_two_qubits(rho: DensityMatrix, what: str):
    if not isinstance(rho, DensityMatrix):
        raise ParameterError(f"{what} expects a DensityMatrix, got {type(rho).__name__}")
    if tuple(rho.dims) != (2, 2):
        raise DimensionError(f"{what} requires a 2x2-qubit state, got dims {rho.dims}")


# Entropic functions of spectra held along the last axis of p (nonnegative,
# unit sum); leading axes are a stack of states.  0·log 0 := 0.

def _conc_from_purity(p):
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - (p ** 2).sum(axis=-1))))


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


def wootters_concurrence(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence of each two-qubit state in an (S, 4, 4) stack.

    C = max{0, l1 - l2 - l3 - l4} where the l_i are the descending square
    roots of the eigenvalues of rho (sy x sy) rho* (sy x sy).  They are
    computed as the singular values of Psi^T (sy x sy) Psi with Psi built
    from the rank-retained eigenpairs of rho: the same spectrum, but the
    square root never touches near-zero eigenvalues, whose noise would
    otherwise surface at the sqrt(eps) level on low-rank states.  Dropped
    eigenpairs become zero columns of Psi, which only add zero singular
    values.  The inputs are trusted to be density matrices.
    """
    evs, vecs = np.linalg.eigh(rhos)
    psi = vecs * np.sqrt(np.where(evs > _RANK_TOL, evs, 0.0))[..., None, :]
    lam = np.linalg.svd(np.swapaxes(psi, -1, -2) @ _YY @ psi, compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def concurrence_two_qubit(rho: DensityMatrix) -> MeasureValue:
    """Wootters concurrence of a two-qubit mixed state (see wootters_concurrence)."""
    _require_two_qubits(rho, "concurrence_two_qubit")
    return MeasureValue.exact(float(wootters_concurrence(rho.matrix[None])[0]))


def concurrence_interval(rho: DensityMatrix, side: int = 0) -> MeasureValue:
    """Certified concurrence interval for a mixed qubit | qubit-group split.

    The lower leg is sqrt(sum_j C²(rho_{A,Bj})) over the group qubits (the
    squared pairwise concurrences bound the squared group concurrence from
    below).  The upper leg is sqrt(2[1 - Tr rho_A²]): the map
    rho_A -> sqrt(2[1 - Tr rho_A²]) is concave (Tr rho² is convex, and the
    square root of a nonnegative concave function is concave), and the
    marginal of a mixture is the mixture of marginals, so for any ensemble
    sum_i p_i C(phi_i) = sum_i p_i g(rho_A,i) <= g(rho_A); minimizing over
    ensembles keeps the inequality.  Rank-1 inputs collapse to the exact
    pure-state value.
    """
    if not isinstance(rho, DensityMatrix):
        raise ParameterError("concurrence_interval expects a DensityMatrix")
    if any(d != 2 for d in rho.dims) or len(rho.dims) < 3:
        raise DimensionError(
            f"concurrence_interval requires >= 3 qubit subsystems, got dims {rho.dims}"
        )
    side = int(side)
    if not 0 <= side < len(rho.dims):
        raise DimensionError(f"side {side} out of range")

    if rho.is_pure():
        evs, vecs = np.linalg.eigh(rho.matrix)
        vec = vecs[:, int(np.argmax(evs))]
        state = PureState(vec / np.linalg.norm(vec), rho.dims)
        return MeasureValue.exact(float(concurrence_pure(state, {side})))

    lo_sq = 0.0
    for j in range(len(rho.dims)):
        if j == side:
            continue
        pair = rho.partial_trace([side, j])
        lo_sq += float(concurrence_two_qubit(pair)) ** 2
    lo = math.sqrt(lo_sq)
    hi = float(_conc_from_purity(rho.partial_trace([side]).eigvals()))
    return MeasureValue.interval(lo, max(lo, hi))


def negativity(rho, side=0) -> MeasureValue:
    """Negativity ||rho^{T_side}|| - 1 for the split side | rest.

    Accepts a DensityMatrix or a PureState; side may be one subsystem
    index or a group of them (the transpose is applied to each factor in
    the group).  A pure state never forms its projector: with s_i the
    singular values of its amplitude matrix reshaped as side | rest (the
    Schmidt coefficients), ||rho^{T_side}|| = (sum_i s_i)² exactly.  A
    density matrix takes the partial transpose and its trace norm.  The
    result is clamped at 0 from below (roundoff tolerance 1e-12).
    """
    sides = sorted({int(side)} if np.isscalar(side) else {int(i) for i in side})
    if not sides or sides[0] < 0 or sides[-1] >= len(rho.dims):
        raise DimensionError(f"side {side!r} out of range for dims {rho.dims}")
    if len(sides) == len(rho.dims):
        raise DimensionError("side must leave at least one factor untransposed")
    if isinstance(rho, PureState):
        s = np.linalg.svd(rho.amplitude_matrix(sides), compute_uv=False)
        return MeasureValue.exact(max(0.0, float(np.sum(s)) ** 2 - 1.0))
    pt = rho.matrix
    for idx in sides:
        pt = partial_transpose(pt, rho.dims, idx)
    return MeasureValue.exact(max(0.0, trace_norm(pt) - 1.0))


# The closed forms below are the entropies of the marginal spectrum
# ((1+s)/2, (1-s)/2), s = sqrt(1 - C²), of a 2 x m pure state with
# concurrence C.  Each takes a scalar (returns a float) or an array
# (elementwise); any argument outside [0, 1] raises DomainError.

def f_eof(x):
    """Entanglement of formation as a function of squared concurrence.

    f(x) = H((1 + sqrt(1-x))/2) with H the base-2 binary entropy;
    monotonically increasing on [0, 1] with f(0) = 0, f(1) = 1.
    """
    x = _unit_interval(x, "f_eof")
    return _scalar_or_array(_entropy_vn(_two_level(x)))


def g_tsallis(x, q: float):
    """Tsallis-q entanglement as a function of squared concurrence.

    g_q(x) = [1 - ((1+s)/2)^q - ((1-s)/2)^q]/(q-1) with s = sqrt(1-x);
    g_q(0) = 0 and g_2(x) = x/2 exactly.
    """
    if q <= 0 or q == 1:
        raise ParameterError(f"g_tsallis requires q > 0, q != 1, got {q}")
    x = _unit_interval(x, "g_tsallis")
    return _scalar_or_array(_entropy_tsallis(_two_level(x), q))


def f_renyi(x, order: float):
    """Renyi entanglement as a function of the concurrence (not squared).

    f_a(x) = log2[((1-s)/2)^a + ((1+s)/2)^a]/(1-a) with s = sqrt(1-x²);
    f_a(0) = 0, f_a(1) = 1, increasing on [0, 1].
    """
    if order <= 0 or order == 1:
        raise ParameterError(f"f_renyi requires order > 0, order != 1, got {order}")
    x = _unit_interval(x, "f_renyi")
    return _scalar_or_array(_entropy_renyi(_two_level(x * x), order))


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
    """Renyi entanglement of order ``order``; regimes as in :func:`eof`."""
    return MeasureKind("renyi", order=float(order)).evaluate(state, partition)


def _pure_two_qubit_concurrence(vecs: np.ndarray) -> np.ndarray:
    # |<phi|sy x sy|phi*>| = 2|a d - b c| for amplitudes (a, b, c, d) along the last axis
    return 2.0 * np.abs(vecs[..., 0] * vecs[..., 3] - vecs[..., 1] * vecs[..., 2])


def assisted_estimate(rho: DensityMatrix, kind: MeasureKind, budget: int = 200,
                      seed=0) -> MeasureValue:
    """Heuristic lower estimate of an assisted (max-decomposition) measure.

    Random pure-state decompositions of the two-qubit state are generated
    by mixing the eigen-ensemble with Haar isometries (ensemble sizes up
    to rank²); the best ensemble average over ``budget`` restarts is
    returned.  It is flagged heuristic and never feeds certified verdicts.
    The estimate is at least the non-assisted measure (every decomposition
    average dominates the convex-roof minimum) and is nondecreasing in
    ``budget`` for a fixed seed.  Restart i draws from its own (seed, i)
    stream; up to RESTART_BLOCK restarts are evaluated as one stack, so
    memory stays bounded for any budget.
    """
    if not kind.assisted:
        raise ParameterError("assisted_estimate requires a kind with assisted=True")
    _require_two_qubits(rho, "assisted_estimate")
    budget = int(budget)
    if budget < 0:
        raise ParameterError(f"budget must be nonnegative, got {budget}")

    evs, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evs)[::-1]
    evs, vecs = np.clip(evs[order], 0.0, None), vecs[:, order]
    mask = evs > 1e-12
    evs, vecs = evs[mask], vecs[:, mask]
    rank = max(1, int(mask.sum()))
    members = np.sqrt(evs)[:, None] * vecs.T  # rows: the unnormalized eigen-ensemble

    best = float(_ensemble_averages([np.eye(rank)], members, kind)[0])
    for start in range(0, budget, RESTART_BLOCK):
        draws = []
        for i in range(start, min(budget, start + RESTART_BLOCK)):
            rng = np.random.default_rng(seed_path(seed, i))
            m = int(rng.integers(rank, rank * rank + 1)) if rank > 1 else 1
            draws.append(rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank)))
        mixes = _q_factors(draws)
        best = max(best, float(np.max(_ensemble_averages(mixes, members, kind))))
    return MeasureValue.heuristic(best)


def _q_factors(draws) -> list:
    """Q of the reduced QR decomposition of each matrix, one LAPACK stack per shape."""
    out = [None] * len(draws)
    for shape in {z.shape for z in draws}:
        idx = [k for k, z in enumerate(draws) if z.shape == shape]
        for k, q in zip(idx, np.linalg.qr(np.stack([draws[k] for k in idx]))[0]):
            out[k] = q
    return out


def _ensemble_averages(mixes, members: np.ndarray, kind: MeasureKind) -> np.ndarray:
    """Ensemble average of kind for each isometry u in mixes.

    The rows of u @ members are the unnormalized pure members of one
    decomposition, with weights p = |row|²; members with p <= 1e-14 are
    skipped.  All ensembles are evaluated in one stack.
    """
    tilde = np.concatenate(mixes) @ members
    probs = np.sum(np.abs(tilde) ** 2, axis=1)
    live = probs > 1e-14
    p = probs[live]
    terms = np.zeros(probs.size)
    terms[live] = p * kind.from_concurrence(
        _pure_two_qubit_concurrence(tilde[live] / np.sqrt(p)[:, None]))
    return np.add.reduceat(terms, np.cumsum([0] + [len(u) for u in mixes[:-1]]))


def _unit_interval(x, what: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    inside = (x >= -1e-12) & (x <= 1.0 + 1e-12)
    if not inside.all():
        bad = float(x[~inside][0])
        raise DomainError(f"{what} requires an argument in [0, 1], got {bad!r}")
    return np.minimum(np.maximum(x, 0.0), 1.0)
