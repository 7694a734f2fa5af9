"""The one right-hand-side kernel against the former per-bound chained sums.

bounds._right_sides evaluates every requested right side from one list of
values**alpha; rhs_assemble and prior_rhs are thin calls into it.  The
slow reference in right_sides_reference.py is the code they replaced.
Hypothesis draws 2-11 pair values (zeros included), a scalar alpha or a
2-61-point grid of every theorem family's domain, every split, k in
(0, 1], and inputs that leave the float range or break a rule; the kernel
must give the reference's bits (float.hex, or the bytes of an array, and
the type) or raise the reference's error with its message.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import BoundParams, bound_family, prior_rhs, rhs_assemble
from entmono.bounds import POLYGAMY, PRIOR_KINDS, THEOREMS, _right_sides

import right_sides_reference as ref

# one family per theorem selector, q or order inside the theorem's window
ORDERS = {"tsallis": {"q": 2.5}, "renyi": {"order": 2.5}, "teoa": {"q": 3.5},
          "reoa": {"order": 1.2}}
FAMILIES = {key: bound_family(measure, direction, **ORDERS.get(key, {}))
            for key, (measure, direction, _, _) in THEOREMS.items()}
NAMES = ("ours",) + PRIOR_KINDS

VALUES = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 5e-324, 1e-300, 2.0, 40.0]),
                   st.floats(0.0, 1.0), st.floats(0.0, 1e3))
WEIGHTS = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 1e-3, 100.0, 1e300]),
                    st.floats(1e-3, 1e3))


@st.composite
def alphas(draw, family):
    """A scalar alpha or a 2-61-point grid inside the family's domain,
    reaching exponents where the weights and powers overflow."""
    if family.direction == POLYGAMY:
        lo, hi = 0.0, family.gamma
    else:
        lo = family.gamma
        hi = lo + draw(st.sampled_from([0.0, 1.0, 10.0, 100.0, 3000.0]))
    a = draw(st.floats(lo, hi))
    if draw(st.booleans()):
        return a
    b = draw(st.floats(a, hi))
    steps = draw(st.integers(2, 61))
    return a + (b - a) * np.arange(steps) / (steps - 1)


@st.composite
def cases(draw):
    """(values, params, k): mostly valid, sometimes with a negative value,
    too few values, a mu/ell length that does not fit, a split past N-2 or
    a kf k outside (0, 1]."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    values = draw(st.lists(VALUES, min_size=2, max_size=11))
    steps = len(values) - 1
    flaw = draw(st.sampled_from([None] * 6 + ["negative", "short", "steps", "split", "k"]))
    if flaw == "negative":
        values[draw(st.integers(0, steps))] = -draw(st.floats(1e-300, 1.0))
    if flaw == "short":
        values = values[:draw(st.integers(0, 1))]
    n_weights = steps
    if flaw == "steps":
        n_weights += 1 if steps == 1 else draw(st.sampled_from([-1, 1]))
    mu = tuple(draw(st.lists(WEIGHTS, min_size=n_weights, max_size=n_weights)))
    ell = tuple(draw(st.lists(WEIGHTS, min_size=n_weights, max_size=n_weights)))
    split = draw(st.sampled_from([None] + list(range(1, steps + 1))))
    if flaw == "split":
        split = steps + draw(st.integers(1, 3))
    k = draw(st.one_of(st.floats(1e-20, 1.0, exclude_min=False), st.sampled_from([1.0, 0.5])))
    if flaw == "k":
        k = draw(st.sampled_from([None, 0.0, -0.5, 1.5, math.nan]))
    params = BoundParams(family, draw(alphas(family)), mu, ell, split)
    return values, params, k


def outcome(call):
    """call()'s result, or the type and message of its exception."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def assert_bits(got, want, path="rhs"):
    """Same type and the same bits, all the way down."""
    assert type(got) is type(want), (path, got, want)
    if isinstance(want, tuple):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_bits(g, w, f"{path}[{i}]")
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for name in want:
            assert_bits(got[name], want[name], f"{path}.{name}")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, path
        assert got.tobytes() == want.tobytes(), (path, got, want)
    elif isinstance(want, float):
        assert got.hex() == want.hex(), (path, got, want)
    elif isinstance(want, (ref.RhsBreakdown, ref.PairTerm)):
        assert_bits(tuple(vars(got).values()), tuple(vars(want).values()), path)
    else:
        assert got == want, path


@settings(max_examples=400, deadline=None)
@given(cases())
@example(([0.5, 0.25, 0.0], BoundParams(FAMILIES["concurrence"], 2.5, (1.5, 2.0), (1.0, 3.0),
                                        1), 0.5))
def test_every_right_side_has_the_bits_of_the_former_chained_sums(case):
    values, params, k = case
    got = outcome(lambda: rhs_assemble(values, params))
    want = outcome(lambda: ref.rhs_assemble(values, params))
    assert_bits(got, want, "ours")
    for name in PRIOR_KINDS:
        got = outcome(lambda: prior_rhs(values, params.alpha, params.family, name, k,
                                        params.split))
        want = outcome(lambda: ref.prior_rhs(values, params.alpha, params.family, name, k,
                                             params.split))
        assert_bits(got, want, name)
    # evaluate_bounds' one call, on every selection of the four
    for mask in range(1, 16):
        names = [name for i, name in enumerate(NAMES) if mask >> i & 1]
        got = outcome(lambda: _right_sides(values, params.family, params.alpha, params.split,
                                           names, params.mu, params.ell, k))
        want = outcome(lambda: ref.evaluate_right_sides(values, params, names, k))
        if isinstance(got, dict):
            got = (got.pop("ours", None), got)
        assert_bits(got, want, f"selection {names}")

