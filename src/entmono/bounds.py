"""Tightened one-to-group entanglement bounds for multi-qubit states.

For a measure M and a state on qubits A, B_1, ..., B_{N-1}, the bounds
compared here all have the shape

    M^alpha(A|B_1...B_{N-1})  vs  sum_i  c_i * M^alpha(A,B_i)

and differ in the per-step weights: the tightened weight is
K_r = (mu_r + l_r)^s - l_r^s with s = alpha/2, alpha/sqrt(2) or alpha
depending on the measure family, against the prior constants 2^s - 1,
((1+k)^s - 1)/k^s and 1.  Monogamy families bound from below (>=) under
hypotheses on the chain of residual-group values; polygamy families bound
the assisted duals from above (<=).

Every bound is built from one measured object, the Chain of a (state,
family) pair, which measure_chain computes once per command: the full
value M(A|B_1...B_{N-1}) and the pair values M(A,B_i) with their
provenance (exact closed forms, or heuristic assisted estimates).  Its
links, a certified Interval for each residual link M(A|B_r...B_{N-1}) or
None where no certified value exists, are built when read, which only
the hypothesis checks do.  Parameter extraction (resolve_params), the
right-hand sides, the prior bounds and the hypothesis checks
(check_conditions) all read that record; none measures again.

Hypothesis parameters outside their theorem ranges (mu >= 1 and l >= 1
for monogamy; 0 < mu <= 1, l >= 1 for polygamy) are reported as failed
conditions rather than rejected, so that extracted maximal parameters can
always be evaluated.
"""

import math
from dataclasses import dataclass

from .errors import CapabilityError, ParameterError
from .measures import MeasureKind, assisted_estimate, pair_concurrences
from .states import PureState, seed_path

SQRT2 = math.sqrt(2.0)

# Order windows of the assisted-dual theorems.
RENYI_POLY_LO = (math.sqrt(7.0) - 1.0) / 2.0
RENYI_POLY_HI = (math.sqrt(13.0) - 1.0) / 2.0

MONOGAMY = "monogamy"
POLYGAMY = "polygamy"

# roundoff allowance for certified hypothesis verdicts (saturating states
# sit exactly on the clause boundary)
CERT_TOL = 1e-9


@dataclass(frozen=True)
class BoundFamily:
    """One theorem family: measure, direction, exponent scale and domains.

    hypothesis_power p is the power at which the chain conditions are
    stated (M^p comparisons); the coefficient exponent is
    s(alpha) = alpha / scale_div.
    """

    measure: MeasureKind
    direction: str
    hypothesis_power: float
    scale_div: float
    alpha_min: float
    alpha_max: float

    def scale(self, alpha: float) -> float:
        return alpha / self.scale_div

    def alpha_ok(self, alpha: float) -> bool:
        return math.isfinite(alpha) and self.alpha_min - 1e-12 <= alpha <= self.alpha_max + 1e-12

    def mu_ok(self, mu: float) -> bool:
        if self.direction == MONOGAMY:
            return mu >= 1.0 - CERT_TOL
        return 0.0 < mu <= 1.0 + CERT_TOL

    def ell_ok(self, ell: float) -> bool:
        return ell >= 1.0 - CERT_TOL

    @property
    def label(self) -> str:
        return f"{self.direction}:{self.measure.label}"


def bound_family(measure, direction: str = MONOGAMY, q: float = None,
                 order: float = None) -> BoundFamily:
    """Build the family record for a measure name and bound direction.

    The (measure, direction) pair fixes the hypothesis power, exponent
    scale and alpha domain; entropy orders are validated against the
    windows in which the corresponding theorem is stated.
    """
    if isinstance(measure, MeasureKind):
        kind = measure
        if q is not None or order is not None:
            raise ParameterError("pass q/order inside the MeasureKind, not alongside it")
    else:
        kind = MeasureKind(str(measure), q=q, order=order,
                           assisted=(direction == POLYGAMY))
    if direction not in (MONOGAMY, POLYGAMY):
        raise ParameterError(f"direction must be monogamy or polygamy, got {direction!r}")
    if direction == POLYGAMY:
        if kind.name in ("concurrence", "cren"):
            raise ParameterError(f"no polygamy family exists for {kind.name}")
        if not kind.assisted:
            raise ParameterError("polygamy families apply to assisted measures")
        if kind.name == "tsallis" and not (1.0 <= kind.q <= 2.0 or 3.0 <= kind.q <= 4.0):
            raise ParameterError(
                f"assisted tsallis bound requires q in [1,2] or [3,4], got {kind.q}")
        if kind.name == "renyi" and not RENYI_POLY_LO <= kind.order <= RENYI_POLY_HI:
            raise ParameterError(
                f"assisted renyi bound requires order in "
                f"[{RENYI_POLY_LO:.6f}, {RENYI_POLY_HI:.6f}], got {kind.order}")
        return BoundFamily(kind, POLYGAMY, 1.0, 1.0, 0.0, 1.0)

    if kind.assisted:
        raise ParameterError("monogamy families apply to non-assisted measures")
    if kind.name in ("concurrence", "cren"):
        return BoundFamily(kind, MONOGAMY, 2.0, 2.0, 2.0, math.inf)
    if kind.name == "eof":
        return BoundFamily(kind, MONOGAMY, SQRT2, SQRT2, SQRT2, math.inf)
    if kind.name == "tsallis":
        if not 2.0 <= kind.q <= 3.0:
            raise ParameterError(f"tsallis monogamy bound requires q in [2,3], got {kind.q}")
        return BoundFamily(kind, MONOGAMY, 1.0, 1.0, 1.0, math.inf)
    if not kind.order >= 2.0:
        raise ParameterError(f"renyi monogamy bound requires order >= 2, got {kind.order}")
    return BoundFamily(kind, MONOGAMY, 1.0, 1.0, 1.0, math.inf)


@dataclass(frozen=True)
class BoundParams:
    """Instantiation of one bound: exponent, per-step (mu_r, l_r), split.

    mu and ell both None request automatic extraction of the maximal
    feasible parameters (exact only for three-qubit pure states); giving
    only one of them is a ParameterError.  split of None is
    the all-steps chain; split m in [1, N-2] groups steps m+1..N-2 with
    the swapped-role hypotheses.
    """

    family: BoundFamily
    alpha: float
    mu: tuple = None
    ell: tuple = None
    split: int = None

    def __post_init__(self):
        if not self.family.alpha_ok(self.alpha):
            raise ParameterError(
                f"alpha={self.alpha} is not finite or outside [{self.family.alpha_min}, "
                f"{self.family.alpha_max}] for {self.family.label}")
        for name in ("mu", "ell"):
            vals = getattr(self, name)
            if vals is None:
                continue
            vals = tuple(float(v) for v in vals)
            if any(not math.isfinite(v) or v <= 0 for v in vals):
                raise ParameterError(f"{name} entries must be positive finite, got {vals}")
            object.__setattr__(self, name, vals)
        if (self.mu is None) != (self.ell is None):
            raise ParameterError("give both mu and ell, or neither for extraction")
        if self.mu is not None and len(self.mu) != len(self.ell):
            raise ParameterError(
                f"mu and ell lengths differ: {len(self.mu)} vs {len(self.ell)}")
        if self.split is not None and int(self.split) < 1:
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
    def any_fail(self) -> bool:
        return any(s.status == "fails" for s in self.steps)

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
        return {
            "summary": self.summary,
            "steps": [
                {"description": s.description, "status": s.status, "slack": s.slack}
                for s in self.steps
            ],
        }


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
        return {
            "family": self.family,
            "direction": self.direction,
            "alpha": self.alpha,
            "lhs_measure": self.lhs_measure,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "coefficients": list(self.coefficients),
            "terms": [
                {"pair": t.pair, "coefficient": t.coefficient,
                 "value": t.value, "contribution": t.contribution}
                for t in self.terms
            ],
            "mu": list(self.mu),
            "ell": list(self.ell),
            "split": self.split,
            "margin": self.margin,
            "conditions": self.conditions.to_dict(),
            "priors": dict(self.priors),
            "value_status": self.value_status,
        }


def coefficient_K(mu: float, ell: float, alpha: float, family: BoundFamily) -> float:
    """Tightening weight (mu + l)^s - l^s with s = alpha / scale_div.

    Requires alpha in the family domain, mu > 0 and l >= 0 (so the powers
    are real); theorem-range checks on mu and l are left to the condition
    reports.  For monogamy parameters mu, l >= 1 the weight is at least
    2^s - 1.
    """
    mu, ell, alpha = float(mu), float(ell), float(alpha)
    if not family.alpha_ok(alpha):
        raise ParameterError(
            f"alpha={alpha} outside [{family.alpha_min}, {family.alpha_max}] "
            f"for {family.label}")
    if mu <= 0 or ell < 0 or not (math.isfinite(mu) and math.isfinite(ell)):
        raise ParameterError(f"require mu > 0 and l >= 0, got mu={mu}, l={ell}")
    s = family.scale(alpha)
    return (mu + ell) ** s - ell ** s


def _coefficient_layout(per_step, split, n_pairs):
    """Per-pair multipliers for the chained bound.

    per_step[r-1] is the weight of step r (r = 1..n_pairs-1).  With no
    split, pair i carries the product of the first i-1 step weights.  With
    split m, pairs m+1..n_pairs-1 each carry (prod of first m) * own step
    weight, and the final pair carries the product of the first m.
    """
    n_steps = n_pairs - 1
    coeffs = []
    if split is None:
        acc = 1.0
        for i in range(n_pairs):
            coeffs.append(acc)
            if i < n_steps:
                acc *= per_step[i]
        return coeffs
    m = int(split)
    if not 1 <= m <= n_steps:
        raise ParameterError(f"split {m} outside [1, {n_steps}] for {n_pairs} pairs")
    acc = 1.0
    for i in range(1, m + 1):       # pairs 1..m: prefix products
        coeffs.append(acc)
        acc *= per_step[i - 1]
    head = acc                      # product of steps 1..m
    for i in range(m + 1, n_pairs):  # pairs m+1..n_pairs-1: head * own weight
        coeffs.append(head * per_step[i - 1])
    coeffs.append(head)             # final pair
    return coeffs


@dataclass(frozen=True)
class RhsBreakdown:
    rhs: float
    coefficients: tuple
    terms: tuple


def rhs_assemble(values, params: BoundParams) -> RhsBreakdown:
    """Assemble the tightened right-hand side from pairwise measure values.

    values are the N-1 pairwise measures M(A,B_1)..M(A,B_{N-1}); the
    params must carry explicit mu and ell (N-2 each).
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ParameterError(f"need at least 2 pairwise values, got {len(values)}")
    if any(v < 0 for v in values):
        raise ParameterError(f"measure values must be nonnegative, got {values}")
    n_steps = len(values) - 1
    if params.mu is None:
        raise ParameterError("rhs_assemble needs explicit mu and ell (resolve auto first)")
    if len(params.mu) != n_steps or len(params.ell) != n_steps:
        raise ParameterError(
            f"{len(values)} values need {n_steps} (mu, ell) steps, "
            f"got {len(params.mu)} and {len(params.ell)}")
    ks = [coefficient_K(m, l, params.alpha, params.family)
          for m, l in zip(params.mu, params.ell)]
    coeffs = _coefficient_layout(ks, params.split, len(values))
    terms = tuple(
        PairTerm(i + 1, c, v, c * v ** params.alpha)
        for i, (c, v) in enumerate(zip(coeffs, values))
    )
    return RhsBreakdown(sum(t.contribution for t in terms), tuple(ks), terms)


PRIOR_KINDS = ("ckw", "jf", "kf")


def prior_rhs(values, alpha: float, family: BoundFamily, kind: str,
              k: float = None, split: int = None) -> float:
    """Right-hand side of one of the three prior bounds.

    kind "ckw" is the plain alpha-power sum; "jf" uses the constant weight
    2^s - 1 per step; "kf" uses ((1+k)^s - 1)/k^s with 0 < k <= 1.
    """
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ParameterError(f"need at least 2 pairwise values, got {len(values)}")
    if not family.alpha_ok(alpha):
        raise ParameterError(f"alpha={alpha} outside the domain of {family.label}")
    s = family.scale(alpha)
    if kind == "ckw":
        c = 1.0
    elif kind == "jf":
        c = 2.0 ** s - 1.0
    elif kind == "kf":
        if k is None or not 0.0 < k <= 1.0:
            raise ParameterError(f"kf comparator requires 0 < k <= 1, got {k}")
        c = ((1.0 + k) ** s - 1.0) / k ** s
    else:
        raise ParameterError(f"unknown prior kind {kind!r}; expected one of {PRIOR_KINDS}")
    coeffs = _coefficient_layout([c] * (len(values) - 1), split, len(values))
    return sum(cf * v ** alpha for cf, v in zip(coeffs, values))


def extract_mu_l(chain, pairs, family: BoundFamily, split: int = None):
    """Maximal feasible (mu_r, l_r) from measured chain and pair values.

    chain[r-1] is M(A | B_r...B_{N-1}) for r = 1..N-1 and pairs[r-1] is
    M(A, B_r) for r = 1..N-2, all at measure level (the hypothesis power
    is applied here).  Steps r <= split use the pair-dominates-tail
    branch; steps beyond use the swapped-role branch.  A zero denominator
    makes the step unconstrained: (None, None) is returned for it.
    """
    chain = [float(v) for v in chain]
    pairs = [float(v) for v in pairs]
    if len(chain) != len(pairs) + 1:
        raise ParameterError(
            f"chain of length {len(chain)} needs {len(chain) - 1} pair values, "
            f"got {len(pairs)}")
    p = family.hypothesis_power
    mus, ells = [], []
    for r in range(1, len(pairs) + 1):
        parent, tail, pair = chain[r - 1] ** p, chain[r] ** p, pairs[r - 1] ** p
        i_branch = split is None or r <= int(split)
        denom = tail if i_branch else pair
        if denom == 0.0:
            mus.append(None)
            ells.append(None)
            continue
        if i_branch:
            mus.append((parent - pair) / denom)
            ells.append(pair / denom)
        else:
            mus.append((parent - tail) / denom)
            ells.append(tail / denom)
    return tuple(mus), tuple(ells)


@dataclass(frozen=True)
class Interval:
    """Certified range lo <= x <= hi of a nonnegative measured value.

    Powers (p > 0), nonnegative scalings and sums map certified ranges to
    certified ranges endpoint by endpoint.
    """

    lo: float
    hi: float

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    def __pow__(self, p: float) -> "Interval":
        return Interval(self.lo ** p, self.hi ** p)

    def __rmul__(self, c: float) -> "Interval":
        return Interval(c * self.lo, c * self.hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)


@dataclass(frozen=True)
class Chain:
    """The measured chain of one (state, family); see measure_chain."""

    state: PureState
    family: BoundFamily
    full: float        # M(A|B_1...B_{N-1}), exact
    pairs: tuple       # M(A,B_1)..M(A,B_{N-1})

    @property
    def status(self) -> str:
        """exact | heuristic: provenance of the pair values."""
        return "heuristic" if self.family.direction == POLYGAMY else "exact"

    @property
    def links(self) -> tuple:
        """Interval of M(A|B_r...B_{N-1}), r = 1..N-1, or None; built on each read.

        No intermediate group state is formed: the first link and, for
        monogamy families, the last (the pair A,B_{N-1}) are exact, and for
        the concurrence family an intermediate group A,B_r..B_{N-1} gets

        - lo = sqrt(sum_{j>=r} C²(A,B_j)), the Osborne-Verstraete N-qubit
          inequality (PRL 96, 220503, 2006), over the pair values;
        - hi = C(A|B_1...B_{N-1}): the group's rho_A is the global rho_A,
          and sqrt(2[1 - Tr rho_A²]) bounds the convex roof from above (see
          concurrence_interval);
        - the point hi when the group is pure (see _group_is_pure), where
          the upper leg is the exact value.

        Every other link is uncertified (None): intermediate groups of the
        entropic families and the convex-roof negativity, and every link
        beyond the first of the assisted families.
        """
        n, full, pairs = self.state.n_qubits, self.full, self.pairs
        links = [Interval.point(full)]
        for r in range(2, n):
            if self.family.direction == POLYGAMY:
                links.append(None)
            elif r == n - 1:
                links.append(Interval.point(pairs[-1]))
            elif self.family.measure.name != "concurrence":
                links.append(None)
            elif _group_is_pure(self.state, r):
                links.append(Interval.point(full))
            else:
                lo = math.sqrt(sum(v * v for v in pairs[r - 1:]))
                links.append(Interval(lo, max(lo, full)))
        return tuple(links)


def _group_is_pure(state: PureState, r: int) -> bool:
    """Tr rho² >= 1 - 1e-10 for the group A,B_r..B_{N-1} of a pure state.

    Both sides of the cut (A,B_r..) | (B_1..B_{r-1}) have the same purity,
    so it is read from the reduced state of the smaller side.
    """
    group = [0] + list(range(r, state.n_qubits))
    complement = list(range(1, r))
    return state.reduce(min(complement, group, key=len)).is_pure()


def measure_chain(state: PureState, family: BoundFamily, budget: int = 200,
                  seed=0) -> Chain:
    """Measure the chain of one (state, family) once; see Chain.

    Monogamy pair values are the exact closed forms of the pair
    concurrences, all from one pair_concurrences call (bound_family keeps
    a monogamy Tsallis q within the window of the mixed-state closed
    form).  Polygamy pair values are heuristic assisted estimates (budget
    restarts, pair i drawing from seed_path(seed, i - 1)).  The full value
    is the exact pure-state measure (an assisted value of a pure state
    equals the plain value).
    """
    kind = family.measure
    if family.direction == POLYGAMY:
        pairs = [assisted_estimate(state.reduce([0, i]), kind, budget=budget,
                                   seed=seed_path(seed, i - 1)).value
                 for i in range(1, state.n_qubits)]
    else:
        pairs = kind.from_concurrence(pair_concurrences(state.amplitudes, state.dims))
    return Chain(state, family, kind.pure_value(state, [0]), tuple(float(v) for v in pairs))


def _clause(desc, lhs: Interval, rhs: Interval, op=">=") -> ConditionStep:
    """Certified verdict for lhs >= rhs (or <=); None is an uncertified side."""
    if lhs is None or rhs is None:
        return ConditionStep(desc, "undecidable")
    if op == "<=":
        lhs, rhs = rhs, lhs
    if lhs.lo >= rhs.hi - CERT_TOL:
        return ConditionStep(desc, "holds", lhs.lo - rhs.hi)
    if lhs.hi < rhs.lo - CERT_TOL:
        return ConditionStep(desc, "fails", lhs.hi - rhs.lo)
    return ConditionStep(desc, "undecidable")


def check_conditions(chain: Chain, params: BoundParams) -> ConditionReport:
    """Hypothesis check for every chain step, interval-certified.

    Three-qubit pure states yield exact verdicts.  For larger registers
    the concurrence family certifies what its links allow and reports
    "undecidable" otherwise; heuristic pair values and uncertified links
    never certify a clause.
    """
    family = params.family
    if params.mu is None:
        raise ParameterError("check_conditions needs explicit mu and ell")
    p = family.hypothesis_power
    # None (uncertified) stays None through every expression below
    links = [link and link ** p for link in chain.links]
    pairs = [Interval.point(v ** p) if chain.status == "exact" else None
             for v in chain.pairs]
    mono = family.direction == MONOGAMY
    op = ">=" if mono else "<="
    ptxt = "" if p == 1.0 else f"^{p:g}"

    steps = []
    for r in range(1, chain.state.n_qubits - 1):
        mu, ell = params.mu[r - 1], params.ell[r - 1]
        steps.append(ConditionStep(
            f"step {r}: mu_{r} >= 1" if mono else f"step {r}: 0 < mu_{r} <= 1",
            "holds" if family.mu_ok(mu) else "fails",
            mu - 1.0 if mono else 1.0 - mu))
        steps.append(ConditionStep(
            f"step {r}: l_{r} >= 1", "holds" if family.ell_ok(ell) else "fails",
            ell - 1.0))

        # steps up to the split compare the pair against the tail; beyond it
        # the two swap roles; the second clause is x + mu*y either way
        pair_txt, tail_txt = f"M{ptxt}(A,B{r})", f"M{ptxt}(A|B{r + 1}..)"
        if params.split is None or r <= int(params.split):
            x, y, xt, yt = pairs[r - 1], links[r], pair_txt, tail_txt
            sum_txt = f"{xt} + mu_{r} * {yt}"
        else:
            x, y, xt, yt = links[r], pairs[r - 1], tail_txt, pair_txt
            sum_txt = f"mu_{r} * {yt} + {xt}"
        steps.append(_clause(f"step {r}: {xt} >= l_{r} * {yt}", x, y and ell * y))
        steps.append(_clause(f"step {r}: M{ptxt}(A|B{r}..) {op} {sum_txt}",
                             links[r - 1], x and y and x + mu * y, op))
    return ConditionReport(tuple(steps))


def resolve_params(chain: Chain, params: BoundParams) -> BoundParams:
    """Fill in auto (mu, ell) with the maximal feasible values of the chain.

    Exact for three-qubit pure states.  For assisted families the pair
    values are heuristic estimates and the extracted parameters inherit
    that status (clamped into the theorem ranges).  Unconstrained steps
    (zero denominators) fall back to (1, 1); their terms vanish anyway.
    """
    require_exact_chain(chain.state.n_qubits, params)
    if params.mu is not None:
        return params
    family = params.family
    mus, ells = extract_mu_l([chain.full, chain.pairs[-1]], chain.pairs[:-1], family,
                             split=params.split)
    mus = [1.0 if m is None else m for m in mus]
    ells = [1.0 if l is None else l for l in ells]
    if family.direction == POLYGAMY:
        mus = [min(max(m, 1e-9), 1.0) for m in mus]
        ells = [max(l, 1.0) for l in ells]
    return BoundParams(family, params.alpha, tuple(mus), tuple(ells), params.split)


def require_exact_chain(n_qubits: int, params: BoundParams):
    """CapabilityError when auto params need the chain of a non-three-qubit state.

    Run it before measure_chain, so no measurement is made only to be
    rejected.
    """
    if params.mu is None and n_qubits != 3:
        raise CapabilityError(
            "automatic (mu, l) extraction needs the exact three-qubit chain; "
            f"supply mu and ell explicitly for {n_qubits}-qubit states")


def verify(state: PureState, params: BoundParams, comparator_k: float = 0.5,
           comparator_only: bool = False, budget: int = 200, seed=0) -> BoundReport:
    """Evaluate one bound instance on a pure state and render the verdict.

    The left side is the exact pure-state measure of A | B_1...B_{N-1};
    pairwise values are exact two-qubit closed forms (heuristic estimates
    for assisted families).  The report carries the tightened right-hand
    side, the three prior right-hand sides at the same exponent, the
    hypothesis-condition verdicts and the direction-signed margin.  For
    entropic, convex-roof-negativity and assisted families beyond three
    qubits the hypothesis chain is not certifiable: pass comparator_only
    to skip straight to the bound comparison (conditions then report
    undecidable).
    """
    if not isinstance(state, PureState):
        raise ParameterError(f"verify expects a PureState, got {type(state).__name__}")
    if state.n_qubits < 3:
        raise ParameterError("verify needs at least 3 qubits (2 pair terms)")
    family = params.family
    if state.n_qubits > 3 and family.measure.name != "concurrence" and not comparator_only:
        raise CapabilityError(
            f"{family.label} beyond 3 qubits lacks certified chain values "
            f"M(A|B_r..B_{state.n_qubits - 1}); rerun with comparator_only=True")

    require_exact_chain(state.n_qubits, params)
    chain = measure_chain(state, family, budget=budget, seed=seed)
    params = resolve_params(chain, params)

    breakdown = rhs_assemble(chain.pairs, params)
    priors = {
        name: prior_rhs(chain.pairs, params.alpha, family, name,
                        k=comparator_k if name == "kf" else None,
                        split=params.split)
        for name in PRIOR_KINDS
    }
    lhs = chain.full ** params.alpha
    margin = lhs - breakdown.rhs if family.direction == MONOGAMY else breakdown.rhs - lhs
    conditions = check_conditions(chain, params)
    return BoundReport(
        family=family.label,
        direction=family.direction,
        alpha=params.alpha,
        lhs_measure=chain.full,
        lhs=lhs,
        rhs=breakdown.rhs,
        coefficients=breakdown.coefficients,
        terms=breakdown.terms,
        mu=params.mu,
        ell=params.ell,
        split=params.split,
        margin=margin,
        conditions=conditions,
        priors=priors,
        value_status=chain.status,
    )
