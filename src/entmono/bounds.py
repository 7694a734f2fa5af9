"""Tightened one-to-group entanglement bounds for multi-qubit states.

For a measure M and a state on qubits A, B_1, ..., B_{N-1}, the bounds
compared here all have the shape

    M^alpha(A|B_1...B_{N-1})  vs  sum_i  c_i * M^alpha(A,B_i)

with c_i a product of per-step weights.  The four right-hand sides are
one chained sum, which _right_sides evaluates from one list of
M^alpha(A,B_i), floats or stacks of samples (the corpus reads its CKW
and lemma2 sums from it too), and differ only in that weight: the
tightened K_r = (mu_r + l_r)^s - l_r^s with s = alpha/gamma, against
the prior constants 1 (CKW), 2^s - 1 (JF) and ((1+k)^s - 1)/k^s (KF).
A split m in [1, N-2] swaps the roles of pair and tail in steps
m+1..N-2; no split is split N-2.  Monogamy families bound from below
(>=) under hypotheses on the chain of residual-group values; polygamy
families bound the assisted duals from above (<=).

Every bound is built from one measured object, the Chain of a (state,
family) pair, which Chain(state, family, budget=, seed=) checks and
measures once per command (no caller hands it values): the full value
M(A|B_1...B_{N-1}) and the pair values M(A,B_i) with their provenance
(exact closed forms, or heuristic assisted estimates).  Its links
M(A|B_r...B_{N-1}), each a certified MeasureValue or None, are built
when read, which only the hypothesis checks do, by measures.group_link,
the one rule behind `measure` on a group too.
Parameter extraction (resolve_params), the right-hand sides, the prior
bounds and the hypothesis checks (check_conditions) all read that
record; none measures again.

THEOREMS is the one home of the families: each selector's measure,
direction, gamma (2 for the concurrence and CREN, sqrt(2) for the EoF, 1
otherwise) and q/order window.  A BoundFamily is a measure, which must
sit inside its THEOREMS row; the direction, gamma and the alpha domain
follow from it.  evaluate_bounds is the one pipeline behind verify and
the CLI sweep, and BoundFamily.check_alpha the one domain rule for every
exponent alpha.

Every hypothesis clause is one _clause verdict on (lo, hi) float
endpoints, None marking an uncertified value, except the clauses that a
step extracted unchanged from an exact chain decides by proof
(check_conditions decides which, from the request and the chain).
Parameters outside their theorem ranges (mu >= 1 and l >= 1 for
monogamy; 0 < mu <= 1, l >= 1 for polygamy) are such clauses, reported
as failed conditions rather than rejected, so that extracted maximal
parameters can always be evaluated.
"""

import math
import numbers
from collections.abc import Iterable
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from .errors import CapabilityError, ParameterError
from .measures import CERT_TOL, PARAMETERS, RENYI_ORDER_LO, MeasureKind, check_budget, group_link
from .states import PureState, seed_path

MONOGAMY = "monogamy"
POLYGAMY = "polygamy"

# Input contract, not a roundoff allowance: how far an alpha may sit outside
# its family's domain before check_alpha refuses it, so an edge reached by a
# float computation (a sweep grid's last point) is still inside
ALPHA_DOMAIN_SLACK = 1e-12

# Input contract, not a roundoff allowance: the smallest mu that automatic
# (mu, l) hands a polygamy theorem, whose range 0 < mu <= 1 excludes the 0 or
# negative mu that heuristic pair values can extract
POLYGAMY_MU_FLOOR = 1e-9

# theorem selector -> (measure, direction, gamma, window of q or order): the
# one table of the bound families.  A window is a tuple of closed intervals
# (None: the measure takes no parameter).
THEOREMS = {
    "concurrence": ("concurrence", MONOGAMY, 2.0, None),
    "cren": ("cren", MONOGAMY, 2.0, None),
    "eof": ("eof", MONOGAMY, math.sqrt(2.0), None),
    "tsallis": ("tsallis", MONOGAMY, 1.0, ((2.0, 3.0),)),
    "renyi": ("renyi", MONOGAMY, 1.0, ((2.0, math.inf),)),
    "eoa": ("eof", POLYGAMY, 1.0, None),
    "teoa": ("tsallis", POLYGAMY, 1.0, ((1.0, 2.0), (3.0, 4.0))),
    "reoa": ("renyi", POLYGAMY, 1.0, ((RENYI_ORDER_LO, (math.sqrt(13.0) - 1.0) / 2.0),)),
}


@dataclass(frozen=True)
class BoundFamily:
    """One theorem family: its measure, inside a row of THEOREMS.

    The family is polygamy exactly when the measure is assisted.  gamma,
    read from the (name, direction) row, is the power at which the chain
    conditions are stated (M^gamma comparisons), the divisor of the
    coefficient exponent s(alpha) = alpha / gamma, and the edge of the
    alpha domain: [gamma, inf] for monogamy, [0, gamma] for polygamy.  A
    measure with no row, or with its PARAMETERS field (q or order) outside
    the row's window, the one in which the theorem is stated, is a
    ParameterError.  The theorem ranges of (mu_r, l_r) are clauses of
    check_conditions.
    """

    measure: MeasureKind
    gamma: float = field(init=False)

    def __post_init__(self):
        kind, direction = self.measure, self.direction
        rows = [row for row in THEOREMS.values() if row[:2] == (kind.name, direction)]
        if not rows:
            raise ParameterError(f"no {direction} family exists for {kind.name}")
        _, _, gamma, window = rows[0]
        if window is not None:
            param = PARAMETERS[kind.name]
            value = getattr(kind, param)
            if not any(lo <= value <= hi for lo, hi in window):
                allowed = " or ".join(f"[{lo:g}, {hi:g}]" for lo, hi in window)
                raise ParameterError(f"{direction} {kind.name} bound requires {param} in "
                                     f"{allowed}, got {value}")
        object.__setattr__(self, "gamma", gamma)

    @property
    def direction(self) -> str:
        return POLYGAMY if self.measure.assisted else MONOGAMY

    @property
    def domain(self) -> tuple:
        return (0.0, self.gamma) if self.measure.assisted else (self.gamma, math.inf)

    def scale(self, alpha):
        return alpha / self.gamma

    def check_alpha(self, alpha):
        """ParameterError unless alpha is finite and inside the domain.

        The one alpha-domain rule of every bound (ALPHA_DOMAIN_SLACK).  alpha may
        be an array (a sweep's grid, a corpus block): it is inside when its
        smallest and largest entries are, since the check is a range (NaN
        propagates through min and max), and the error shows them as
        min..max.  An empty grid, or an alpha that is neither a real number
        (a bool is not one) nor an ndarray, is a ParameterError.
        """
        lo = hi = shown = alpha
        if isinstance(alpha, np.ndarray):
            if not alpha.size:
                raise ParameterError(f"alpha grid is empty for {self.label}")
            lo, hi = float(alpha.min()), float(alpha.max())
            shown = f"{lo}..{hi}"
        elif not _is_real(alpha):
            raise ParameterError(
                f"alpha must be a real number or an ndarray, got {alpha!r} for {self.label}")
        low, high = self.domain
        # a NaN or -inf lo fails the first comparison
        if not (low - ALPHA_DOMAIN_SLACK <= lo and hi <= high + ALPHA_DOMAIN_SLACK
                and math.isfinite(hi)):
            raise ParameterError(
                f"alpha={shown} is not finite or outside [{low}, {high}] for {self.label}")

    @property
    def label(self) -> str:
        return f"{self.direction}:{self.measure.label}"


def bound_family(measure: str, direction: str = MONOGAMY, q: float = None,
                 order: float = None) -> BoundFamily:
    """The BoundFamily of a measure name and direction, its measure
    assisted exactly for polygamy.  A direction other than monogamy or
    polygamy is a ParameterError; BoundFamily checks the row and window."""
    kind = MeasureKind(str(measure), q=q, order=order, assisted=(direction == POLYGAMY))
    if direction not in (MONOGAMY, POLYGAMY):
        raise ParameterError(f"direction must be monogamy or polygamy, got {direction!r}")
    return BoundFamily(kind)


def _is_real(value) -> bool:
    """Whether value is a real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class BoundParams:
    """Instantiation of one bound: exponent, per-step (mu_r, l_r), split.

    mu and ell are iterables of positive finite real numbers (not strings
    or bools), both None to request automatic extraction of the maximal
    feasible parameters (exact only for three-qubit pure states); giving
    only one of them is a ParameterError.  split, an integer m in [1,
    N-2], groups steps m+1..N-2 with the swapped-role hypotheses; None,
    the all-steps chain, is split N-2.  alpha is a float, or a 1-D array
    of exponents (a sweep's grid) checked by BoundFamily.check_alpha.
    """

    family: BoundFamily
    alpha: float
    mu: tuple = None
    ell: tuple = None
    split: int = None

    def __post_init__(self):
        self.family.check_alpha(self.alpha)
        for name in ("mu", "ell"):
            vals = getattr(self, name)
            if vals is None:
                continue
            if isinstance(vals, Iterable) and not isinstance(vals, (str, bytes)):
                vals = tuple(vals)
            if not isinstance(vals, tuple) or not all(map(_is_real, vals)):
                raise ParameterError(f"{name} must be an iterable of real numbers, got {vals!r}")
            vals = tuple(float(v) for v in vals)
            if any(not math.isfinite(v) or v <= 0 for v in vals):
                raise ParameterError(f"{name} entries must be positive finite, got {vals}")
            object.__setattr__(self, name, vals)
        if (self.mu is None) != (self.ell is None):
            raise ParameterError("give both mu and ell, or neither for extraction")
        if self.mu is not None and len(self.mu) != len(self.ell):
            raise ParameterError(
                f"mu and ell lengths differ: {len(self.mu)} vs {len(self.ell)}")
        if self.split is not None and not (isinstance(self.split, numbers.Integral)
                                           and _is_real(self.split) and self.split >= 1):
            raise ParameterError(f"split must be a positive step index, got {self.split}")


@dataclass(frozen=True)
class PairTerm:
    """One right-hand-side contribution: coefficient * value**alpha."""

    pair: int          # 1-based index of B_i
    coefficient: float
    value: float       # measure of rho_{A,B_i}
    contribution: float


@dataclass(frozen=True)
class ConditionStep:
    """One checked hypothesis clause with its certified verdict."""

    description: str
    status: str        # holds | fails | undecidable
    slack: float = None


@dataclass(frozen=True)
class ConditionReport:
    steps: tuple

    @property
    def all_hold(self) -> bool:
        return all(s.status == "holds" for s in self.steps)

    @property
    def any_undecidable(self) -> bool:
        return any(s.status == "undecidable" for s in self.steps)

    @property
    def summary(self) -> str:
        if self.all_hold:
            return "holds"
        if self.any_undecidable:
            return "undecidable"
        return "fails"

    def to_dict(self) -> dict:
        return {"summary": self.summary, "steps": [_fields(s) for s in self.steps]}


@dataclass(frozen=True)
class BoundReport:
    """Full verdict: left side, assembled right side, priors, conditions."""

    family: str
    direction: str
    alpha: float
    lhs_measure: float     # measure of the A | B_1...B_{N-1} split
    lhs: float             # lhs_measure ** alpha
    rhs: float
    coefficients: tuple
    terms: tuple
    mu: tuple
    ell: tuple
    split: int
    margin: float          # direction-signed; >= 0 means the bound holds
    conditions: ConditionReport
    priors: dict
    value_status: str      # exact | heuristic (pairwise value provenance)

    def to_dict(self) -> dict:
        """The fields in order, with the conditions' summary added.

        Built from the fields directly: the terms become a tuple of dicts
        and the priors a new dict, as dataclasses.asdict gives them, but
        no value is deep-copied.
        """
        out = _fields(self)
        out["terms"] = tuple(_fields(t) for t in self.terms)
        out["conditions"] = self.conditions.to_dict()
        out["priors"] = dict(self.priors)
        return out


def _fields(record) -> dict:
    """A dataclass record's fields as a new dict, in field order, values shared."""
    return {name: getattr(record, name) for name in record.__dataclass_fields__}


def coefficient_K(mu, ell, alpha, family: BoundFamily):
    """Tightening weight (mu + l)^s - l^s with s = alpha / gamma.

    Requires alpha in the family domain, mu > 0 and l >= 0, all finite (so
    the powers are real), a scalar mu or l a real number as in BoundParams
    (a bool or a string is not one); theorem-range checks on mu and l are
    left to the condition reports.  For monogamy parameters mu, l >= 1 the
    weight is at least 2^s - 1.

    Scalars give a float.  If any argument is an ndarray the three
    broadcast and the weights come back as an array; every entry is
    checked once per call, and a bad one raises the ParameterError of a
    scalar call.  A weight beyond the float range raises OverflowError,
    as the float power does.
    """
    family.check_alpha(alpha)
    if any(isinstance(v, np.ndarray) for v in (mu, ell, alpha)):
        mu, ell, alpha = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                               for v in (mu, ell, alpha)))
        # every check is a range, so the smallest and largest entries stand
        # for all of them; NaN propagates through min and max
        checked = [(float(mu.min()), float(ell.min())),
                   (float(mu.max()), float(ell.max()))] if mu.size else []
    else:
        for name, value in (("mu", mu), ("ell", ell)):
            if not _is_real(value):
                raise ParameterError(f"{name} must be a real number or an ndarray, got {value!r}")
        mu, ell, alpha = float(mu), float(ell), float(alpha)
        checked = [(mu, ell)]
    for m, l in checked:
        if not (0.0 < m < math.inf and 0.0 <= l < math.inf):
            raise ParameterError(f"require mu > 0 and l >= 0, got mu={m}, l={l}")
    s = family.scale(alpha)
    with np.errstate(all="ignore"):
        return _in_range((mu + ell) ** s - ell ** s)


def _in_range(x):
    """x, or OverflowError if x is an inf or NaN, or an array holding one.

    A float power beyond the float range raises OverflowError, but a float
    sum or product overflows to inf without raising, and numpy's power
    returns inf (its warning silenced by the caller).  So every result is
    checked once, a float by math.isfinite and an array as a whole, and a
    scalar result fails as an array one does.
    """
    if not (np.isfinite(x).all() if isinstance(x, np.ndarray) else math.isfinite(x)):
        raise OverflowError("a power in the bound exceeds the float range")
    return x


@dataclass(frozen=True)
class RhsBreakdown:
    rhs: float
    coefficients: tuple
    terms: tuple


def _split_step(n_values: int, n_steps: int, split) -> int:
    """The split m (None is N-2) of n_values pair values and n_steps (mu, ell):
    ParameterError unless n_steps = N-2 and m is in [1, N-2]."""
    if n_steps != n_values - 1:
        raise ParameterError(
            f"{n_values} values need {n_values - 1} (mu, ell) steps, got {n_steps}")
    m = n_steps if split is None else int(split)
    if not 1 <= m <= n_steps:
        raise ParameterError(f"split {m} outside [1, {n_steps}] for {n_values} pairs")
    return m


def _right_sides(values, family: BoundFamily, alpha, split, names, mu=(), ell=(),
                 k=None) -> dict:
    """Each right side in names (in order) from one list of values**alpha.

    The one kernel of the chained sums c_i * values[i]**alpha.  The step
    weight is K_r = (mu_r + ell_r)^s - ell_r^s (coefficient_K's formula)
    for "ours" and prior_weight(name, s, k) for a prior (kf needs
    0 < k <= 1).  With split m (None is m = N-2), pairs 1..m carry the
    products of the weights before them, pairs m+1..N-2 the product of the
    first m times their own weight, and the final pair the product of the
    first m.  The values are checked once, after the first name's weights
    (so errors come in the order of separate sums): a negative, infinite
    or NaN one is a ParameterError.  alpha is not checked again.  A grid
    alpha gives arrays, no coefficient aliasing another.  "ours" maps to
    an RhsBreakdown, a prior to its sum; a weight, power or sum beyond the
    float range raises OverflowError.

    Values may be stacked: a value that is an ndarray holds one entry per
    sample (a corpus block), and broadcasts against alpha, mu and ell as
    numpy does, so every entry of a sum is that sample's sum.  numpy's
    power may differ from the float one by an ulp; float values keep the
    float path.  One bad entry fails the whole stack.
    """
    s = family.scale(alpha if isinstance(alpha, np.ndarray) else float(alpha))
    out, powers = {}, None
    with np.errstate(all="ignore"):
        for name in names:
            if name == "ours":
                weights = [_in_range((mu_r + ell_r) ** s - ell_r ** s)
                           for mu_r, ell_r in zip(mu, ell)]
            elif name == "kf" and (k is None or not 0.0 < k <= 1.0):
                raise ParameterError(f"kf comparator requires 0 < k <= 1, got {k}")
            else:
                weights = [prior_weight(name, s, k)] * (len(values) - 1)
            if powers is None:
                values = [v if isinstance(v, np.ndarray) else float(v) for v in values]
                if len(values) < 2:
                    raise ParameterError(f"need at least 2 pairwise values, got {len(values)}")
                # a NaN fails the comparisons as a negative or infinite value does
                if not all(((v >= 0) & (v < np.inf)).all() if isinstance(v, np.ndarray)
                           else 0 <= v < math.inf for v in values):
                    raise ParameterError(
                        f"measure values must be nonnegative and finite, got {values}")
                m = _split_step(len(values), len(weights), split)
                powers = [v ** alpha for v in values]
            coeffs, head = [], 1.0
            for w in weights[:m]:
                coeffs.append(head)
                head = head * w
            coeffs += [head * w for w in weights[m:]] + [head]
            parts = [c * p for c, p in zip(coeffs, powers)]
            rhs = _in_range(sum(parts))
            out[name] = rhs if name != "ours" else RhsBreakdown(rhs, tuple(weights), tuple(
                PairTerm(i + 1, *term) for i, term in enumerate(zip(coeffs, values, parts))))
    return out


def rhs_assemble(values, params: BoundParams) -> RhsBreakdown:
    """The tightened right-hand side, the "ours" entry of _right_sides, of
    the N-1 pair values M(A,B_1)..M(A,B_{N-1}); params must carry explicit
    mu and ell (N-2 each).  A grid params.alpha gives arrays (numpy's
    power may differ from the float one by an ulp)."""
    if params.mu is None:
        raise ParameterError("rhs_assemble needs explicit mu and ell (resolve auto first)")
    return _right_sides(values, params.family, params.alpha, params.split, ("ours",),
                        params.mu, params.ell)["ours"]


PRIOR_KINDS = ("ckw", "jf", "kf")


def prior_weight(kind: str, s, k=None):
    """Per-step weight of a prior bound at coefficient exponent s.

    1 for "ckw", 2^s - 1 for "jf" and ((1+k)^s - 1)/k^s for "kf";
    elementwise for arrays s and k.  An unknown kind raises
    ParameterError; k is not checked here (_right_sides checks it).

    kf is evaluated as ((1+k)/k)^s · (1 - (1+k)^-s), each factor from
    log1p and expm1: 1 + k is never rounded to 1 (a tiny k keeps the
    weight 1 at s = 1) and no underflowed k^s is divided by.  As with the
    float power of jf, a scalar weight beyond the float range raises
    OverflowError (math.exp does), and an array one reads inf.
    """
    if kind == "ckw":
        return 1.0
    if kind == "jf":
        return 2.0 ** s - 1.0
    if kind == "kf":
        f = np if isinstance(s, np.ndarray) or isinstance(k, np.ndarray) else math
        lp = f.log1p(k)
        return f.exp(s * (lp - f.log(k))) * -f.expm1(-s * lp)
    raise ParameterError(f"unknown prior kind {kind!r}; expected one of {PRIOR_KINDS}")


def prior_rhs(values, alpha, family: BoundFamily, kind: str,
              k: float = None, split: int = None):
    """Right-hand side of the prior bound kind, the _right_sides entry of
    kind once alpha (a float, or a 1-D grid that gives an array) is checked
    against the family's domain: step weight 1 for "ckw", 2^s - 1 for "jf"
    and ((1+k)^s - 1)/k^s with 0 < k <= 1 for "kf" (k unused otherwise)."""
    family.check_alpha(alpha)
    return _right_sides(values, family, alpha, split, (kind,), k=k)[kind]


def extract_mu_l(full, ab, ac, family: BoundFamily):
    """Maximal feasible (mu, l) of a three-qubit chain at measure level.

    full is M(A|BC), ab and ac are M(A,B) and M(A,C); at g = family.gamma
    mu = (full^g - ab^g)/ac^g and l = ab^g/ac^g, the pair-dominates-tail
    branch of the chain's one step, which precedes every split.  Where
    ac^g or ab^g is 0 no such pair exists and the result is (None, None):

    - ac^g = 0: both hypotheses, M^g(A|BC) >= M^g(A,B) + mu M^g(A,C) and
      M^g(A,B) >= l M^g(A,C), read M^g(A|BC) >= M^g(A,B) and M^g(A,B) >= 0
      for every mu and l, so the step is unconstrained and no maximum
      exists.
    - ab^g = 0 < ac^g: the second hypothesis, 0 >= l ac^g, holds for no
      l > 0, so no feasible (mu, l) exists; l = 0 is no parameter of the
      theorem (BoundParams takes positive values).

    resolve_params then takes (1, 1), where check_conditions decides the
    second hypothesis on the exact values: it holds when ac^g = 0 and fails
    when ab^g = 0 < ac^g.  A value within the roundoff radius of its
    measures kernel reads exactly 0 (the decided zeros of
    measures.SCHMIDT_RADIUS and WOOTTERS_RADIUS), so a product qubit takes
    these branches and no mu or l is a ratio of roundoff.
    """
    g = family.gamma
    parent, pair, tail = float(full) ** g, float(ab) ** g, float(ac) ** g
    if tail == 0.0 or pair == 0.0:
        return None, None
    return (parent - pair) / tail, pair / tail


@dataclass(frozen=True)
class Chain:
    """The measured chain of one (state, family), the only way to measure it.

    Chain(state, family, budget=..., seed=...) checks its input, then
    measures once; full and pairs are measured, never given.  The state
    must be a PureState of at least 3 qubits, the seed a nonnegative
    integer (seed_path) and the budget one too (check_budget), in that
    order, each a ParameterError before any measure is called.  The
    pair values M(A,B_i) are the measure's pair_values: exact closed forms
    of the pair concurrences for monogamy (a measure outside the closed
    form's window raises CapabilityError), heuristic assisted estimates
    for polygamy (budget restarts; pair i seeds seed_path(seed, i - 1)).
    The full value is the exact pure-state measure (an assisted value of a
    pure state equals the plain value).
    """

    state: PureState
    family: BoundFamily
    full: float = field(init=False)     # M(A|B_1...B_{N-1}), exact
    pairs: tuple = field(init=False)    # M(A,B_1)..M(A,B_{N-1})
    _: KW_ONLY
    budget: InitVar[int] = 200
    seed: InitVar[int] = 0

    def __post_init__(self, budget, seed):
        state, kind = self.state, self.family.measure
        if not isinstance(state, PureState):
            raise ParameterError(f"a bound needs a PureState, got {type(state).__name__}")
        if state.n_qubits < 3:
            raise ParameterError(
                f"a bound needs at least 3 qubits (2 pair terms), got {state.n_qubits}")
        seed_path(seed)
        check_budget(budget)
        pairs = kind.pair_values(state, budget=budget, seed=seed)
        object.__setattr__(self, "full", kind.pure_value(state, [0]))
        object.__setattr__(self, "pairs", tuple(float(v) for v in pairs))

    @property
    def status(self) -> str:
        """exact | heuristic: provenance of the pair values."""
        return "heuristic" if self.family.direction == POLYGAMY else "exact"

    @property
    def links(self) -> tuple:
        """measures.group_link of M(A|B_r...B_{N-1}), r = 1..N-1; built on each read.

        The group A,B_r..B_{N-1} takes the chain's pair values M(A,B_j),
        j >= r, and full (the group's rho_A is the global one).
        """
        n, kind = self.state.n_qubits, self.family.measure
        return tuple(group_link(kind, self.state, [0, *range(r, n)], self.pairs[r - 1:],
                                self.full)
                     for r in range(1, n))


def _clause(desc, lhs, rhs, op=">=") -> ConditionStep:
    """Certified verdict for lhs >= rhs (or <=) on (lo, hi) endpoint pairs,
    within CERT_TOL; None is an uncertified side.  The one verdict rule of
    every hypothesis clause."""
    if lhs is None or rhs is None:
        return ConditionStep(desc, "undecidable")
    if op == "<=":
        lhs, rhs = rhs, lhs
    (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = lhs, rhs
    if lhs_lo >= rhs_hi - CERT_TOL:
        return ConditionStep(desc, "holds", lhs_lo - rhs_hi)
    if lhs_hi < rhs_lo - CERT_TOL:
        return ConditionStep(desc, "fails", lhs_hi - rhs_lo)
    return ConditionStep(desc, "undecidable")


def check_conditions(chain: Chain, params: BoundParams) -> ConditionReport:
    """Hypothesis check for every chain step of the request params, each
    clause a _clause verdict unless the step saturates by proof.

    params is a request as verify and the sweep accept it: explicit mu and
    ell, with the shape and split _right_sides requires (ParameterError
    otherwise), or both None for the chain's own, resolved by
    resolve_params (a chain beyond three qubits raises the one
    CapabilityError of _refuse_automatic).  Clauses run on endpoints at
    the power gamma: a certified link's bounds, an exact pair value v as
    (v, v), their multiples and sums end by end; an uncertified value (a
    heuristic pair, a None link) is None and stays None.  The mu_r and l_r ranges are clauses of
    (mu_r, mu_r) and (l_r, l_r) against (1, 1).  Three-qubit pure states
    yield exact verdicts; beyond them the concurrence and CREN families
    certify what their links allow.

    A step of an automatic request that resolve_params took from
    extract_mu_l unchanged (_saturated: neither its (1, 1) fallback nor
    its polygamy clamp acted) is decided by proof on an exact (monogamy)
    chain of three qubits.  With F = M(A|BC), x = M^g(A,B), y = M^g(A,C),
    g = gamma and the links (F^g, F^g) and (y, y) that group_link gives
    the whole register and the last pair, the extracted
    mu* = (F^g - x)/y and l* = x/y make the pair clause x >= l* y and the
    sum clause F^g >= x + mu* y equalities, whatever floats x, y and F
    are; both read "holds" with slack 0.0.  mu* >= 1 is
    F^g >= M^g(A,B) + M^g(A,C), a published monogamy inequality for every
    family, each of which BoundFamily holds inside its THEOREMS window:
    Coffman, Kundu and Wootters (PRA 61, 052306, 2000) for the
    concurrence, and for the CREN, which equals the concurrence on a
    qubit against a group and on a qubit pair; Bai, Xu and Wang (PRL 113,
    100503, 2014) for the EoF at gamma = sqrt(2); Kim (PRA 81, 062328,
    2010) for Tsallis-q, 2 <= q <= 3; Kim and Sanders (J. Phys. A 43,
    445305, 2010) for Renyi order >= 2.  So that clause reads "holds",
    its slack the computed mu - 1.  The l clause, M(A,B) >= M(A,C), stays
    the one comparison of measured values.  A polygamy chain's pair
    values are heuristic, so its clauses are decided as without
    extraction.
    """
    request, params = params, resolve_params(chain, params)
    family = params.family
    m = _split_step(len(chain.pairs), len(params.mu), params.split)
    proven = chain.status == "exact" and _saturated(chain, request, params)
    p = family.gamma
    links = [None if link is None else tuple(end ** p for end in link.bounds)
             for link in chain.links]
    pairs = [(v ** p,) * 2 if chain.status == "exact" else None for v in chain.pairs]
    op = ">=" if family.direction == MONOGAMY else "<="
    ptxt = "" if p == 1.0 else f"^{p:g}"

    steps = []
    for r in range(1, len(params.mu) + 1):
        mu, ell = params.mu[r - 1], params.ell[r - 1]
        mu_desc = f"step {r}: mu_{r} >= 1" if op == ">=" else f"step {r}: 0 < mu_{r} <= 1"
        steps.append(ConditionStep(mu_desc, "holds", mu - 1.0) if proven
                     else _clause(mu_desc, (mu, mu), (1.0, 1.0), op))
        steps.append(_clause(f"step {r}: l_{r} >= 1", (ell, ell), (1.0, 1.0)))

        # steps up to the split compare the pair against the tail; beyond it
        # the two swap roles; the second clause is x + mu*y either way
        pair_txt, tail_txt = f"M{ptxt}(A,B{r})", f"M{ptxt}(A|B{r + 1}..)"
        if r <= m:
            x, y, xt, yt = pairs[r - 1], links[r], pair_txt, tail_txt
            sum_txt = f"{xt} + mu_{r} * {yt}"
        else:
            x, y, xt, yt = links[r], pairs[r - 1], tail_txt, pair_txt
            sum_txt = f"mu_{r} * {yt} + {xt}"
        pair_desc = f"step {r}: {xt} >= l_{r} * {yt}"
        sum_desc = f"step {r}: M{ptxt}(A|B{r}..) {op} {sum_txt}"
        if proven:
            steps += [ConditionStep(desc, "holds", 0.0) for desc in (pair_desc, sum_desc)]
            continue
        certified = x is not None and y is not None
        steps.append(_clause(pair_desc, x, None if y is None else (ell * y[0], ell * y[1])))
        steps.append(_clause(sum_desc, links[r - 1],
                             (x[0] + mu * y[0], x[1] + mu * y[1]) if certified else None, op))
    return ConditionReport(tuple(steps))


def _saturated(chain: Chain, request: BoundParams, params: BoundParams) -> bool:
    """Whether params, request resolved on chain, are the chain's own
    extract_mu_l pair: request is automatic, and resolve_params' (1, 1)
    fallback and polygamy clamp did not act.  Such a step saturates its
    pair and sum clauses (check_conditions) and its bound (verify)."""
    return request.mu is None and (*params.mu, *params.ell) == extract_mu_l(
        chain.full, *chain.pairs, params.family)


def _refuse_automatic(state: PureState, params: BoundParams):
    """CapabilityError for an automatic request (mu and ell None) on more
    than three qubits: the one refusal of automatic (mu, l), whose maximal
    parameters are extracted from the exact three-qubit chain only."""
    if params.mu is None and state.n_qubits > 3:
        raise CapabilityError(
            "automatic (mu, l) extraction needs the exact three-qubit chain; "
            f"supply mu and ell explicitly for {state.n_qubits}-qubit states")


def resolve_params(chain: Chain, params: BoundParams) -> BoundParams:
    """Fill in auto (mu, ell) with the maximal feasible values of the chain.

    The one resolution of a request, which evaluate_bounds and
    check_conditions both apply; explicit (mu, ell) come back as given.
    Exact for three-qubit pure states, the only chains extracted from: an
    automatic request on a wider chain raises the CapabilityError of
    _refuse_automatic.  For assisted families the pair values are heuristic
    estimates and the extracted parameters inherit that status (clamped
    into the theorem ranges).  A step with no maximal pair (a zero ac or
    ab, see extract_mu_l) falls back to (1, 1), so BoundParams never gets
    an l of 0: with ac = 0 its terms vanish, and with ab = 0 < ac the
    hypothesis M^g(A,B) >= l M^g(A,C) is reported as failed.  A step
    that neither the fallback nor the clamp moved is _saturated.
    """
    if params.mu is not None:
        return params
    _refuse_automatic(chain.state, params)
    family = params.family
    mu, ell = extract_mu_l(chain.full, *chain.pairs, family)
    if mu is None:
        mu, ell = 1.0, 1.0
    if family.direction == POLYGAMY:
        mu, ell = min(max(mu, POLYGAMY_MU_FLOOR), 1.0), max(ell, 1.0)
    return BoundParams(family, params.alpha, (mu,), (ell,), params.split)


def evaluate_bounds(state: PureState, params: BoundParams, names, comparator_k: float = 0.5,
                    budget: int = 200, seed=0) -> tuple:
    """(chain, params, ours, priors) of the bounds named in names, one instance.

    The one rule behind verify and the sweep: refuse automatic (mu, l)
    beyond three qubits (_refuse_automatic, before anything is measured),
    build the Chain, which checks the rest of the input (a pure state of
    at least 3 qubits, a nonnegative seed and budget, for every family)
    before it measures once, and resolve (mu, l) into the returned params.
    Then only the selected right sides are evaluated, by one _right_sides
    call: ours, the RhsBreakdown of rhs_assemble if "ours" is in names
    (None otherwise), and priors, the prior_rhs value of each selected
    kind in PRIOR_KINDS order (kf with k = comparator_k).  params.alpha
    may be a sweep's grid, for which the values are arrays over it.  A
    weight, power or sum beyond the float range raises OverflowError.
    """
    if isinstance(state, PureState):
        _refuse_automatic(state, params)
    chain = Chain(state, params.family, budget=budget, seed=seed)
    params = resolve_params(chain, params)
    sides = _right_sides(chain.pairs, params.family, params.alpha, params.split,
                         [name for name in ("ours",) + PRIOR_KINDS if name in names],
                         params.mu, params.ell, comparator_k)
    return chain, params, sides.pop("ours", None), sides


def verify(state: PureState, params: BoundParams, comparator_k: float = 0.5,
           comparator_only: bool = False, budget: int = 200, seed=0) -> BoundReport:
    """Evaluate one bound instance on a pure state and render the verdict.

    The left side is the exact pure-state measure of A | B_1...B_{N-1};
    pairwise values are exact two-qubit closed forms (heuristic estimates
    for assisted families).  The report carries evaluate_bounds' tightened
    right-hand side and the three prior right-hand sides at the same
    exponent, the hypothesis-condition verdicts and the direction-signed
    margin.  Beyond three qubits the hypothesis chain is certifiable only
    for a measure whose certifies_groups holds (the concurrence and CREN
    families, see measures.group_link); for every other family pass
    comparator_only to skip straight to the bound comparison (conditions
    then report undecidable).

    An automatic step that resolve_params takes from extract_mu_l as it
    is, with neither its (1, 1) fallback nor its polygamy clamp acting
    (_saturated), saturates the bound: with s = alpha/g, F = M(A|BC),
    x = M^g(A,B), y = M^g(A,C), mu* = (F^g - x)/y and l* = x/y,
    (mu* + l*) y = F^g, so the right side x^s + ((mu* + l*)^s - l*^s) y^s
    is x^s + F^(g s) - x^s = F^alpha.  The identity holds on whatever
    values were measured, heuristic ones too, so such a report's margin
    is exactly 0.0 in either direction, and check_conditions, handed the
    same request, decides its defining clauses by proof.  Its mu, l,
    coefficients, terms, rhs and priors stay the computed floats, whose
    agreement with the identity the corpus's lemma2 suite and the tests
    check.
    """
    family = params.family
    if (isinstance(state, PureState) and state.n_qubits > 3
            and not family.measure.certifies_groups and not comparator_only):
        raise CapabilityError(
            f"{family.label} beyond 3 qubits lacks certified chain values "
            f"M(A|B_r..B_{state.n_qubits - 1}); rerun with comparator_only=True "
            "(--comparator-only on the command line)")

    chain, resolved, breakdown, priors = evaluate_bounds(
        state, params, ("ours",) + PRIOR_KINDS, comparator_k, budget, seed)
    lhs = chain.full ** params.alpha
    if _saturated(chain, params, resolved):
        margin = 0.0
    else:
        margin = lhs - breakdown.rhs if family.direction == MONOGAMY else breakdown.rhs - lhs
    return BoundReport(
        family=family.label,
        direction=family.direction,
        alpha=params.alpha,
        lhs_measure=chain.full,
        lhs=lhs,
        rhs=breakdown.rhs,
        coefficients=breakdown.coefficients,
        terms=breakdown.terms,
        mu=resolved.mu,
        ell=resolved.ell,
        split=params.split,
        margin=margin,
        conditions=check_conditions(chain, params),
        priors=priors,
        value_status=chain.status,
    )
