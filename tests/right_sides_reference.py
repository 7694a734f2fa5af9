"""The former right-hand-side code, kept as the slow reference.

Before bounds._right_sides, each right side was its own chained sum: the
tightened one took its weights from one coefficient_K call per step, and
each prior re-checked alpha and k, took its prior_weight and ran the same
sum again, re-raising every pair value to alpha and building its own
PairTerm records.  The bodies below are those functions as they were,
except that a value check also rejects an infinite value, as the kernel
now does; the property tests require the kernel to give the same bits
and the same errors.
"""

import math

import numpy as np

from entmono.bounds import (PRIOR_KINDS, PairTerm, RhsBreakdown, _in_range, coefficient_K,
                            prior_weight)
from entmono.errors import ParameterError


def chained_sum(values, step_weights, alpha, split) -> RhsBreakdown:
    """The chained sum of c_i * values[i]**alpha behind every right-hand side."""
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ParameterError(f"need at least 2 pairwise values, got {len(values)}")
    if not all(0 <= v < math.inf for v in values):
        raise ParameterError(f"measure values must be nonnegative and finite, got {values}")
    n_steps = len(values) - 1
    if len(step_weights) != n_steps:
        raise ParameterError(
            f"{len(values)} values need {n_steps} (mu, ell) steps, got {len(step_weights)}")
    m = n_steps if split is None else int(split)
    if not 1 <= m <= n_steps:
        raise ParameterError(f"split {m} outside [1, {n_steps}] for {len(values)} pairs")
    with np.errstate(all="ignore"):
        coeffs, head = [], 1.0
        for w in step_weights[:m]:
            coeffs.append(head)
            head = head * w
        coeffs += [head * w for w in step_weights[m:]] + [head]
        terms = tuple(PairTerm(i + 1, c, v, c * v ** alpha)
                      for i, (c, v) in enumerate(zip(coeffs, values)))
        rhs = _in_range(sum(t.contribution for t in terms))
    return RhsBreakdown(rhs, tuple(step_weights), terms)


def rhs_assemble(values, params) -> RhsBreakdown:
    if params.mu is None:
        raise ParameterError("rhs_assemble needs explicit mu and ell (resolve auto first)")
    ks = [coefficient_K(m, l, params.alpha, params.family)
          for m, l in zip(params.mu, params.ell)]
    return chained_sum(values, ks, params.alpha, params.split)


def prior_rhs(values, alpha, family, kind, k=None, split=None):
    family.check_alpha(alpha)
    if kind == "kf" and (k is None or not 0.0 < k <= 1.0):
        raise ParameterError(f"kf comparator requires 0 < k <= 1, got {k}")
    with np.errstate(all="ignore"):
        weight = prior_weight(kind, family.scale(alpha), k)
    return chained_sum(values, [weight] * (len(values) - 1), alpha, split).rhs


def evaluate_right_sides(values, params, names, comparator_k) -> tuple:
    """(ours, priors) as the former evaluate_bounds built them."""
    ours = rhs_assemble(values, params) if "ours" in names else None
    priors = {name: prior_rhs(values, params.alpha, params.family, name,
                              k=comparator_k, split=params.split)
              for name in PRIOR_KINDS if name in names}
    return ours, priors
