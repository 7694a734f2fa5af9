"""The endpoint hypothesis check against the former MeasureValue algebra.

bounds.check_conditions runs every clause through _clause on (lo, hi)
float pairs; the slow reference in conditions_reference.py is the code it
replaced, which built a MeasureValue record per operation and judged the
mu/l ranges by their own rules.  Hypothesis draws every THEOREMS row on
3-7-qubit Haar, GHZ, W and product x Haar states, every split, and mu and
l from a set that holds 1 +- CERT_TOL, the floats next to them, 0.3 and
1e200, or the maximal parameters of a three-qubit chain; both must give
the same ConditionReport: description, status and float.hex of the slack.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (BoundParams, PureState, bound_family, ghz, random_pure, seed_path,
                     w_state)
from entmono.bounds import THEOREMS, Chain, check_conditions, resolve_params
from entmono.measures import CERT_TOL

import conditions_reference as ref

# one family per theorem selector, q or order inside the theorem's window
ORDERS = {"tsallis": {"q": 2.5}, "renyi": {"order": 2.5}, "teoa": {"q": 3.5},
          "reoa": {"order": 1.2}}
FAMILIES = {key: bound_family(measure, direction, **ORDERS.get(key, {}))
            for key, (measure, direction, _, _) in THEOREMS.items()}

EDGES = [1.0, 1.0 - CERT_TOL, 1.0 + CERT_TOL]
PARAMS = st.one_of(
    st.sampled_from(EDGES + [math.nextafter(e, d) for e in EDGES for d in (0.0, math.inf)]
                    + [0.3, 1e200, 2.0, 0.5]),
    st.floats(1e-3, 10.0))


def product_state(n, seed, qubit_first):
    """A Haar qubit times a Haar (n-1)-qubit state, in either order."""
    one = random_pure(1, seed_path(seed, 0)).amplitudes
    rest = random_pure(n - 1, seed_path(seed, 1)).amplitudes
    a = np.kron(one, rest) if qubit_first else np.kron(rest, one)
    return PureState(a / np.linalg.norm(a), (2,) * n)


STATES = {
    "haar": lambda n: random_pure(n, seed_path(n, 0)),
    "ghz": ghz,
    "w": w_state,
    "qubit-haar": lambda n: product_state(n, n, True),
    "haar-qubit": lambda n: product_state(n, n, False),
}


@functools.lru_cache(maxsize=None)
def chain_of(key, state, n):
    return Chain(STATES[state](n), FAMILIES[key], budget=3)


@st.composite
def cases(draw):
    key = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(3, 7))
    chain = chain_of(key, draw(st.sampled_from(sorted(STATES))), n)
    family = FAMILIES[key]
    split = draw(st.sampled_from([None] + list(range(1, n - 1))))
    if n == 3 and draw(st.booleans()):
        # the maximal parameters sit on a clause boundary
        return chain, resolve_params(chain, BoundParams(family, family.gamma, split=split))
    mu = tuple(draw(st.lists(PARAMS, min_size=n - 2, max_size=n - 2)))
    ell = tuple(draw(st.lists(PARAMS, min_size=n - 2, max_size=n - 2)))
    return chain, BoundParams(family, family.gamma, mu, ell, split)


def bits(report):
    return [(s.description, s.status, None if s.slack is None else s.slack.hex())
            for s in report.steps]


@settings(max_examples=300, deadline=None)
@given(cases())
def test_every_clause_has_the_verdict_of_the_former_algebra(case):
    chain, params = case
    assert bits(check_conditions(chain, params)) == bits(ref.check_conditions(chain, params))
