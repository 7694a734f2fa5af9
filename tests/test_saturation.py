"""Saturation identities of automatic (mu, l) on three qubits.

With F = M(A|BC), x = M^g(A,B), y = M^g(A,C) and g = gamma, the extracted
mu* = (F^g - x)/y and l* = x/y make the pair clause x >= l* y, the sum
clause F^g >= x + mu* y and the bound equalities on any floats, so verify
reports them by proof: the margin is exactly 0.0, both clauses of an
exact chain read "holds" with slack 0.0, and the mu clause of a monogamy
family of bounds.THEOREMS reads "holds" by the family's theorem.  A step
that the (1, 1) fallback or the polygamy clamp moved is reported as its
explicit parameters are.

verify no longer compares the floats of a saturated step, so they are
checked here against the explicit-parameter report, which does: its
verdicts must be the proven ones, its float margin |lhs - rhs| at most
MARGIN_ULPS·u·max(1, s) (s = alpha/g, u = 2^-53), and the computed
F^g - x - y of mu* >= 1 at least -RESIDUAL_ULPS·u.  Hypothesis draws
3-qubit Haar states, W_3 and GHZ_3 under Haar local unitaries, product x
Haar states, and every monogamy row of THEOREMS with q or order inside
its window.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import BoundParams, bound_family, ghz, random_pure, verify, w_state
from entmono.bounds import (MONOGAMY, POLYGAMY, POLYGAMY_MU_FLOOR, THEOREMS, Chain,
                            ConditionStep, extract_mu_l)

from qubit_reference import local_copy, product_state

UNIT_ROUNDOFF = 2.0 ** -53

# Over 20,000 rotated W_3 states (F^g = x + y exactly) the computed
# F^g - x - y was at least -34u (CREN; -31u for Tsallis q = 2, -6u for the
# concurrence), and over 20,000 Haar and rotated W_3 states with s in
# [1, 4] the float |lhs - rhs| of the extracted pair was at most
# 4.7u·max(1, s) (EoF).  The bounds leave room for the draws of any run.
RESIDUAL_ULPS = 64
MARGIN_ULPS = 8

SEEDS = st.integers(0, 2 ** 31 - 1)
FAST = settings(max_examples=60, deadline=None)

# q or order inside each window (the monogamy edges are drawn too), never 1
ORDERS = {"tsallis": st.floats(2.0, 3.0).map(lambda q: {"q": q}),
          "renyi": st.floats(2.0, 16.0).map(lambda order: {"order": order}),
          "teoa": st.one_of(st.floats(1.01, 2.0), st.floats(3.0, 4.0)).map(lambda q: {"q": q}),
          "reoa": st.floats(0.85, 1.3).filter(lambda order: order != 1.0).map(
              lambda order: {"order": order})}


@st.composite
def states(draw):
    """A 3-qubit Haar state, a rotated W_3 or GHZ_3, or a product qubit x Haar."""
    kind, seed = draw(st.sampled_from(["haar", "w", "ghz", "product"])), draw(SEEDS)
    if kind == "haar":
        return random_pure(3, seed)
    if kind == "product":
        return product_state(3, draw(st.integers(0, 2)), seed)
    return local_copy((w_state if kind == "w" else ghz)(3), seed)


@st.composite
def families(draw, direction):
    key = draw(st.sampled_from([k for k, row in THEOREMS.items() if row[1] == direction]))
    measure, _, _, _ = THEOREMS[key]
    return bound_family(measure, direction, **draw(ORDERS.get(key, st.just({}))))


def explicit(state, family, alpha, mu, ell, **kwargs):
    return verify(state, BoundParams(family, alpha, (mu,), (ell,)), **kwargs)


def without(report, *names) -> dict:
    out = report.to_dict()
    for name in names:
        del out[name]
    return out


@FAST
@given(states(), families(MONOGAMY), st.floats(1.0, 4.0))
def test_an_extracted_monogamy_step_is_proven_and_its_floats_agree(state, family, s):
    alpha = family.gamma * s
    report = verify(state, BoundParams(family, alpha))
    chain = Chain(state, family)
    mu, ell = extract_mu_l(chain.full, *chain.pairs, family)
    if mu is None:
        # the (1, 1) fallback: the report of explicit (1, 1), float verdicts and all
        assert report == explicit(state, family, alpha, 1.0, 1.0)
        return
    floats = explicit(state, family, alpha, mu, ell)
    assert without(report, "margin", "conditions") == without(floats, "margin", "conditions")
    assert report.margin == 0.0
    mu_step, l_step, pair_step, sum_step = report.conditions.steps
    assert (mu_step.status, mu_step.slack) == ("holds", mu - 1.0)
    assert l_step == floats.conditions.steps[1]
    assert (pair_step, sum_step) == tuple(ConditionStep(step.description, "holds", 0.0)
                                          for step in floats.conditions.steps[2:])
    # the float comparisons reach the proven verdicts, within their roundoff
    assert [step.status for step in floats.conditions.steps] == \
        [step.status for step in report.conditions.steps]
    assert abs(floats.margin) <= MARGIN_ULPS * UNIT_ROUNDOFF * max(1.0, s)
    g = family.gamma
    residual = chain.full ** g - chain.pairs[0] ** g - chain.pairs[1] ** g
    assert residual >= -RESIDUAL_ULPS * UNIT_ROUNDOFF


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["haar", "w"]), SEEDS, families(POLYGAMY), st.floats(0.05, 1.0))
def test_a_polygamy_extraction_saturates_unless_clamped(name, seed, family, s):
    state = random_pure(3, seed) if name == "haar" else local_copy(w_state(3), seed)
    alpha = family.gamma * s
    report = verify(state, BoundParams(family, alpha), budget=4)
    chain = Chain(state, family, budget=4)
    mu, ell = extract_mu_l(chain.full, *chain.pairs, family)
    unclamped = mu is not None and POLYGAMY_MU_FLOOR <= mu <= 1.0 and ell >= 1.0
    floats = explicit(state, family, alpha, *report.mu, *report.ell, budget=4)
    if not unclamped:
        assert report == floats
        return
    assert report == dataclasses.replace(floats, margin=0.0)
    assert abs(floats.margin) <= MARGIN_ULPS * UNIT_ROUNDOFF
    # heuristic pair values decide no pair or sum clause
    assert [step.status for step in report.conditions.steps[2:]] == ["undecidable"] * 2
