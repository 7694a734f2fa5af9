"""The one right-hand-side kernel against the former per-bound chained sums.

bounds._right_sides evaluates every requested right side from one list of
values**alpha; rhs_assemble and prior_rhs are thin calls into it.  The
slow reference in right_sides_reference.py is the code they replaced.
Hypothesis draws 2-11 pair values (zeros included), a scalar alpha or a
2-61-point grid of every theorem family's domain, every split, k in
(0, 1], and inputs that leave the float range or break a rule; the kernel
must give the reference's bits (float.hex, or the bytes of an array, and
the type) or raise the reference's error with its message.

A stack of samples (one ndarray per pair value) must give each row what
the kernel gives on that row's floats, within a relative bound, and a
bad row must fail the stack with the error class it fails with alone.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import BoundParams, bound_family
from entmono.bounds import (POLYGAMY, PRIOR_KINDS, THEOREMS, RhsBreakdown, _right_sides,
                            prior_rhs, rhs_assemble)

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


# numpy's vector power and the float power differ by an ulp on some
# inputs, so a stacked row may leave the bits of its float call: 4e-15 is
# about 18 ulps.  An "ours" weight (mu + l)^s - l^s with its own (mu, l)
# per row carries such an ulp times its conditioning
# ((mu + l)^s + l^s) / ((mu + l)^s - l^s); a product of weights that
# falls below the normal range rounds to 2^-1074 absolutely, and every
# power of a value in [1e-3, 1] is at most 1, hence the absolute floor.
STACK_REL = 4e-15
STACK_ABS = 1e-300

# pair values at most 1, as the measures' are, with powers in the normal range
STACK_VALUES = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-3]), st.floats(1e-3, 1.0))


@st.composite
def stacks(draw):
    """(rows, family, alpha, split, names, mu, ell, k, per_row) for N = 3-6:
    1-6 rows of N-1 pair values; alpha a scalar or a 2-9-point grid of the
    family's domain; a (mu, l) per step, shared by every row or one per row
    (per_row); sometimes one row holds a negative or NaN value, or k lies
    outside (0, 1]."""
    family = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    n_values, n_rows = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    rows = np.array(draw(st.lists(st.lists(STACK_VALUES, min_size=n_values, max_size=n_values),
                                  min_size=n_rows, max_size=n_rows)))
    flaw = draw(st.sampled_from([None] * 5 + ["negative", "nan", "k"]))
    if flaw in ("negative", "nan"):
        rows[draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_values - 1))] = \
            math.nan if flaw == "nan" else -draw(st.floats(1e-300, 1.0))
    per_row = draw(st.booleans())
    mu, ell = (np.array(draw(st.lists(st.lists(WEIGHTS, min_size=n_values - 1,
                                               max_size=n_values - 1),
                                      min_size=n_rows if per_row else 1,
                                      max_size=n_rows if per_row else 1)))
               for _ in range(2))
    lo, hi = (0.0, family.gamma) if family.direction == POLYGAMY else \
        (family.gamma, family.gamma + draw(st.sampled_from([0.0, 1.0, 10.0, 30.0])))
    a = draw(st.floats(lo, hi))
    if draw(st.booleans()):
        steps = draw(st.integers(2, 9))
        a = a + (draw(st.floats(a, hi)) - a) * np.arange(steps) / (steps - 1)
    names = [name for name in NAMES if draw(st.booleans())] or [draw(st.sampled_from(NAMES))]
    k = draw(st.sampled_from([None, 0.0, 1.5, math.nan]) if flaw == "k" else
             st.one_of(st.floats(1e-3, 1.0), st.just(1.0)))
    return (rows, family, a, draw(st.sampled_from([None, 1])), names, mu, ell, k, per_row)


def conditioning(mu, ell, s):
    """1 plus, over the steps, how much an ulp in a power of the weight
    (mu_r + l_r)^s - l_r^s moves the weight relatively (1e300 for a weight
    of 0)."""
    cond = 1.0
    with np.errstate(all="ignore"):
        for mu_r, ell_r in zip(mu.tolist(), ell.tolist()):
            hi, lo = (mu_r + ell_r) ** np.asarray(s), ell_r ** np.asarray(s)
            cond = cond + np.nan_to_num((hi + lo) / np.abs(hi - lo), posinf=1e300)
    return cond


def total(side):
    """The sum of a right side: a prior's value, or an RhsBreakdown's rhs."""
    return side.rhs if isinstance(side, RhsBreakdown) else side


@settings(max_examples=300, deadline=None)
@given(stacks())
def test_a_stack_gives_every_row_the_right_sides_of_its_floats(case):
    rows, family, alpha, split, names, mu, ell, k, per_row = case
    grid = isinstance(alpha, np.ndarray)
    # a grid's axis is the last one, so each row meets every exponent
    column = (lambda x: x[:, None]) if grid else (lambda x: x)
    step_mu, step_ell = ((tuple(column(x[:, r]) for r in range(x.shape[1])) if per_row
                          else tuple(x[0].tolist())) for x in (mu, ell))
    stacked = outcome(lambda: _right_sides([column(v) for v in rows.T], family, alpha, split,
                                           names, step_mu, step_ell, k))
    alone = [outcome(lambda: _right_sides(row.tolist(), family, alpha, split, names,
                                          tuple(mu[i if per_row else 0].tolist()),
                                          tuple(ell[i if per_row else 0].tolist()), k))
             for i, row in enumerate(rows)]
    failed = {result[0] for result in alone if isinstance(result, tuple)}
    if failed:
        assert isinstance(stacked, tuple) and stacked[0] in failed, (stacked, failed)
        return
    assert isinstance(stacked, dict) and list(stacked) == names, stacked
    s = family.scale(alpha)
    for i, sides in enumerate(alone):
        for name in names:
            got, want = total(stacked[name])[i], total(sides[name])
            cond = conditioning(mu[i], ell[i], s) if per_row and name == "ours" else 1.0
            with np.errstate(over="ignore"):  # an ill-conditioned weight allows anything
                bound = STACK_REL * cond * np.abs(want) + STACK_ABS
            assert np.all(np.abs(got - want) <= bound), (name, i, got, want)
