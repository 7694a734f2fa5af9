"""The former hypothesis check, kept as the slow reference.

Before check_conditions ran on (lo, hi) endpoint pairs, it raised each
certified link to gamma, scaled it by l_r and added mu_r times it to the
pair value through arithmetic on frozen MeasureValue records, one record
per operation, and it judged the theorem ranges of mu_r and l_r with
their own rules instead of _clause.  The bodies below are that code as it
was, with the MeasureValue operators written as functions; the property
test requires the endpoint version to give the same ConditionReport.
"""

import operator

from entmono.bounds import MONOGAMY, ConditionReport, ConditionStep
from entmono.errors import CapabilityError, ParameterError
from entmono.measures import CERT_TOL, MeasureValue


def endpointwise(f, *values) -> MeasureValue:
    """f, nondecreasing in each argument, on the lower and on the upper ends.

    Exact when every operand is exact; a heuristic operand has no certified
    range and raises CapabilityError.
    """
    if any(v.status == "heuristic" for v in values):
        raise CapabilityError("a heuristic value has no certified range to compute with")
    lo = f(*(v.bounds[0] for v in values))
    if all(v.status == "exact" for v in values):
        return MeasureValue.exact(lo)
    return MeasureValue.interval(lo, f(*(v.bounds[1] for v in values)))


def power(value, p):
    return endpointwise(lambda x: x ** p, value)


def scale(c, value):
    if not c >= 0:
        raise ParameterError(f"only a nonnegative multiple keeps a certified range, got {c}")
    return endpointwise(lambda x: c * x, value)


def add(a, b):
    return endpointwise(operator.add, a, b)


def mu_ok(family, mu) -> bool:
    if family.direction == MONOGAMY:
        return mu >= 1.0 - CERT_TOL
    return 0.0 < mu <= 1.0 + CERT_TOL


def ell_ok(ell) -> bool:
    return ell >= 1.0 - CERT_TOL


def clause(desc, lhs, rhs, op=">=") -> ConditionStep:
    """Certified verdict for lhs >= rhs (or <=); None is an uncertified side."""
    if lhs is None or rhs is None:
        return ConditionStep(desc, "undecidable")
    if op == "<=":
        lhs, rhs = rhs, lhs
    (lhs_lo, lhs_hi), (rhs_lo, rhs_hi) = lhs.bounds, rhs.bounds
    if lhs_lo >= rhs_hi - CERT_TOL:
        return ConditionStep(desc, "holds", lhs_lo - rhs_hi)
    if lhs_hi < rhs_lo - CERT_TOL:
        return ConditionStep(desc, "fails", lhs_hi - rhs_lo)
    return ConditionStep(desc, "undecidable")


def check_conditions(chain, params) -> ConditionReport:
    family = params.family
    if params.mu is None:
        raise ParameterError("check_conditions needs explicit mu and ell")
    p = family.gamma
    # None (uncertified) stays None through every expression below
    links = [link and power(link, p) for link in chain.links]
    pairs = [MeasureValue.exact(v ** p) if chain.status == "exact" else None
             for v in chain.pairs]
    mono = family.direction == MONOGAMY
    op = ">=" if mono else "<="
    ptxt = "" if p == 1.0 else f"^{p:g}"

    steps = []
    for r in range(1, chain.state.n_qubits - 1):
        mu, ell = params.mu[r - 1], params.ell[r - 1]
        steps.append(ConditionStep(
            f"step {r}: mu_{r} >= 1" if mono else f"step {r}: 0 < mu_{r} <= 1",
            "holds" if mu_ok(family, mu) else "fails",
            mu - 1.0 if mono else 1.0 - mu))
        steps.append(ConditionStep(
            f"step {r}: l_{r} >= 1", "holds" if ell_ok(ell) else "fails",
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
        steps.append(clause(f"step {r}: {xt} >= l_{r} * {yt}", x, y and scale(ell, y)))
        steps.append(clause(f"step {r}: M{ptxt}(A|B{r}..) {op} {sum_txt}",
                            links[r - 1], x and y and add(x, scale(mu, y)), op))
    return ConditionReport(tuple(steps))
