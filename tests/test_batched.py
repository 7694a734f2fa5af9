"""Property tests of the batched kernels against per-sample references:
the stacked Wootters concurrence against the Hill-Wootters eigenvalue form
and 2|ad - bc|, the blocked corpus suites against one-sample-at-a-time
loops, the vectorized closed forms against scalar ``math`` versions, and
the stacked assisted estimator against its per-member loop."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (DensityMatrix, DomainError, MeasureKind,
                     assisted_estimate, bound_family, coefficient_K,
                     concurrence_pure, concurrence_two_qubit, eof,
                     extract_mu_l, f_eof, f_renyi, g_tsallis, random_pure,
                     renyi, seed_path, tsallis)
from entmono import corpus
from entmono.measures import wootters_concurrence
from entmono.states import haar_block

FAST = settings(max_examples=30, deadline=None)

SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)

seeds = st.integers(0, 2 ** 32 - 1)


# -- references ------------------------------------------------------------

def hill_wootters(rho: np.ndarray) -> float:
    """max(0, l1 - l2 - l3 - l4), l_i = sqrt(eig(rho (sy sy) rho* (sy sy)))."""
    r = rho @ SY_SY @ rho.conj() @ SY_SY
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(r).real)[::-1], 0.0, None))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def pure_pair_concurrence(v) -> float:
    a, b, c, d = (complex(x) for x in v)
    return 2.0 * abs(a * d - b * c)


def f_eof_ref(x):
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(x)
    x = min(max(x, 0.0), 1.0)
    h = (1.0 + math.sqrt(1.0 - x)) / 2.0
    return -sum(p * math.log2(p) for p in (h, 1.0 - h) if p > 0.0)


def g_tsallis_ref(x, q):
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(x)
    s = math.sqrt(1.0 - min(max(x, 0.0), 1.0))
    return (1.0 - ((1.0 + s) / 2.0) ** q - ((1.0 - s) / 2.0) ** q) / (q - 1.0)


def f_renyi_ref(x, order):
    if not -1e-12 <= x <= 1.0 + 1e-12:
        raise DomainError(x)
    x = min(max(x, 0.0), 1.0)
    s = math.sqrt(max(0.0, 1.0 - x * x))
    return math.log2(((1.0 - s) / 2.0) ** order + ((1.0 + s) / 2.0) ** order) / (1.0 - order)


def lemma1_reference(samples, seed):
    # The suite's own arithmetic: numpy's vector power differs from math.pow
    # in the last ulp on some builds, and the terms reach 1e40.  The loop
    # records each sample in order, direction by direction.
    res = corpus.SuiteResult("lemma1", samples, seed, tolerance=1e-12)
    rng = np.random.default_rng(seed_path(seed))
    x = rng.uniform(0.0, 50.0, samples)
    y = rng.uniform(0.0, 1.0, samples) * x
    t = 1.0 + rng.exponential(2.0, samples)
    s = rng.uniform(0.0, 1.0, samples)
    up = ((1.0 + x) ** t - x ** t) - ((1.0 + y) ** t - y ** t)
    down = ((1.0 + y) ** s - y ** s) - ((1.0 + x) ** s - x ** s)
    for arr, tag in ((up, "t>=1"), (down, "0<=s<=1")):
        for i in range(samples):
            res.record(float(arr[i]), {"sample": i, "direction": tag, "x": float(x[i]),
                                       "y": float(y[i]), "t": float(t[i]), "s": float(s[i])})
    return res


def ckw_reference(samples, seed):
    res = corpus.SuiteResult("ckw", samples, seed, tolerance=1e-9)
    for i in range(samples):
        state = random_pure(3, seed_path(seed, i))
        c_abc = float(concurrence_pure(state, [0]))
        c_ab = float(concurrence_two_qubit(state.reduce([0, 1])))
        c_ac = float(concurrence_two_qubit(state.reduce([0, 2])))
        res.record(c_abc ** 2 - c_ab ** 2 - c_ac ** 2,
                   {"sample": i, "c_abc": c_abc, "c_ab": c_ab, "c_ac": c_ac})
    return res


def consistency_reference(samples, seed):
    res = corpus.SuiteResult("consistency", samples, seed, tolerance=1e-9)
    for i in range(samples):
        state = random_pure(2, seed_path(seed, i))
        c = float(concurrence_pure(state, [0]))
        devs = [abs(float(eof(state, [0])) - f_eof_ref(c * c))]
        for q in corpus.CONSISTENCY_QS:
            devs.append(abs(float(tsallis(state, [0], q=q)) - g_tsallis_ref(c * c, q)))
        for order in corpus.CONSISTENCY_ORDERS:
            devs.append(abs(float(renyi(state, [0], order=order)) - f_renyi_ref(c, order)))
        res.record(-max(devs), {"sample": i, "concurrence": c, "max_dev": max(devs)})
    return res


def lemma2_reference(samples, seed):
    res = corpus.SuiteResult("lemma2", samples, seed, tolerance=1e-9)
    fam = bound_family("concurrence")
    for i in range(samples):
        state = random_pure(3, seed_path(seed, i))
        c_abc = float(concurrence_pure(state, [0]))
        c_ab = float(concurrence_two_qubit(state.reduce([0, 1])))
        c_ac = float(concurrence_two_qubit(state.reduce([0, 2])))
        (mu,), (ell,) = extract_mu_l([c_abc, c_ac], [c_ab], fam)
        if mu is None:
            continue
        for alpha in corpus.LEMMA2_ALPHAS:
            rhs = c_ab ** alpha + coefficient_K(mu, ell, alpha, fam) * c_ac ** alpha
            res.record(c_abc ** alpha - rhs, {"sample": i, "alpha": alpha, "mu": mu,
                                              "ell": ell, "variant": "extracted"})
            if ell >= 1.0:
                rhs1 = c_ab ** alpha + coefficient_K(mu, 1.0, alpha, fam) * c_ac ** alpha
                res.record(c_abc ** alpha - rhs1, {"sample": i, "alpha": alpha, "mu": mu,
                                                   "ell": 1.0, "variant": "l=1"})
    return res


def assisted_reference(rho: DensityMatrix, kind: MeasureKind, budget: int, seed) -> float:
    """The per-member, per-restart loop with the same restart streams."""
    evs, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evs)[::-1]
    evs, vecs = np.clip(evs[order], 0.0, None), vecs[:, order]
    mask = evs > 1e-12
    evs, vecs = evs[mask], vecs[:, mask]
    rank = max(1, int(mask.sum()))
    roots = np.sqrt(evs)

    def average(u):
        total = 0.0
        for row in u @ (roots[:, None] * vecs.T):
            p = float(np.sum(np.abs(row) ** 2))
            if p > 1e-14:
                c = pure_pair_concurrence(row / math.sqrt(p))
                total += p * float(kind.from_concurrence(c))
        return total

    best = average(np.eye(rank))
    for i in range(budget):
        rng = np.random.default_rng(seed_path(seed, i))
        m = int(rng.integers(rank, rank * rank + 1)) if rank > 1 else 1
        z = rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))
        best = max(best, average(np.linalg.qr(z)[0]))
    return best


# -- state strategies ----------------------------------------------------------

def haar(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


@st.composite
def full_rank_mixed(draw):
    """A Ginibre state mixed with a Bell projector and a floor of white noise."""
    rng = np.random.default_rng(draw(seeds))
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ginibre = g @ g.conj().T
    ginibre /= np.trace(ginibre).real
    p = draw(st.floats(0.0, 0.95))
    noise = draw(st.floats(0.02, 0.5))
    bell = np.outer(BELL[0], BELL[0])
    return (1 - noise) * (p * bell + (1 - p) * ginibre) + noise * np.eye(4) / 4


@st.composite
def pure_pairs(draw):
    """Haar or product two-qubit vectors."""
    rng = np.random.default_rng(draw(seeds))
    if draw(st.booleans()):
        return np.kron(haar(rng, 2), haar(rng, 2))
    return haar(rng, 4)


@st.composite
def bell_mixtures(draw):
    """Bell-diagonal states of rank 1 to 3, with C = max(0, 2 p_max - 1)."""
    rank = draw(st.integers(1, 3))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=rank, max_size=rank)))
    weights /= weights.sum()
    which = draw(st.permutations(range(4)))[:rank]
    rho = sum(w * np.outer(BELL[k], BELL[k]) for w, k in zip(weights, which))
    return rho, max(0.0, 2.0 * float(weights.max()) - 1.0)


# -- Wootters kernel -----------------------------------------------------------

@FAST
@given(st.lists(full_rank_mixed(), min_size=1, max_size=6))
def test_wootters_matches_hill_wootters_on_full_rank_states(rhos):
    batch = wootters_concurrence(np.array(rhos))
    for rho, c in zip(rhos, batch):
        assert abs(c - hill_wootters(rho)) < 1e-12
        assert float(concurrence_two_qubit(DensityMatrix(rho, (2, 2)))) == pytest.approx(c, abs=1e-15)


@FAST
@given(st.lists(pure_pairs(), min_size=1, max_size=6))
def test_wootters_matches_pure_form(vecs):
    batch = wootters_concurrence(np.array([np.outer(v, v.conj()) for v in vecs]))
    for v, c in zip(vecs, batch):
        assert abs(c - pure_pair_concurrence(v)) < 1e-12


@FAST
@given(st.lists(bell_mixtures(), min_size=1, max_size=6))
def test_wootters_on_rank_deficient_bell_mixtures(cases):
    batch = wootters_concurrence(np.array([rho for rho, _ in cases]))
    for (_, expected), c in zip(cases, batch):
        assert abs(c - expected) < 1e-12


# -- blocked suites ----------------------------------------------------------

@FAST
@given(seeds, st.integers(1, 6), st.integers(1, 4))
def test_haar_block_rows_are_the_per_sample_states(seed, count, n):
    block = haar_block(n, seed, 3, 3 + count)
    for row, i in zip(block, range(3, 3 + count)):
        assert np.array_equal(row, random_pure(n, seed_path(seed, i)).amplitudes)


def assert_same_result(fast, slow):
    assert fast.violations == slow.violations
    assert fast.passed == slow.passed
    assert [o["sample"] for o in fast.offenders] == [o["sample"] for o in slow.offenders]
    assert abs(fast.worst_slack - slow.worst_slack) <= 1e-12


@FAST
@given(seeds, st.integers(1, 40), st.integers(1, 16))
def test_batched_suites_match_per_sample_loops(seed, samples, block):
    with mock.patch.object(corpus, "BLOCK", block):
        for name, reference in (("lemma1", lemma1_reference),
                                ("ckw", ckw_reference),
                                ("consistency", consistency_reference),
                                ("lemma2", lemma2_reference)):
            assert_same_result(corpus.run_suite(name, samples, seed),
                               reference(samples, seed))


@FAST
@given(st.lists(st.floats(-1.0, 1.0), max_size=40), st.integers(0, 4))
def test_record_all_equals_record_loop(slacks, prior):
    fast = corpus.SuiteResult("x", 1, 0, tolerance=0.25)
    slow = corpus.SuiteResult("x", 1, 0, tolerance=0.25)
    for res in (fast, slow):
        for k in range(prior):
            res.record(-1.0, {"prior": k})
    fast.record_all(np.array(slacks), lambda i: {"sample": i, "slack": slacks[i]})
    for i, s in enumerate(slacks):
        slow.record(s, {"sample": i, "slack": s})
    assert fast.to_dict() == slow.to_dict()


# -- closed forms ------------------------------------------------------------

unit = st.floats(0.0, 1.0)


@FAST
@given(st.lists(unit, min_size=1, max_size=20), st.floats(0.3, 5.0), st.floats(0.3, 5.0))
def test_closed_forms_match_scalar_math(xs, q, order):
    if q == 1.0 or order == 1.0:
        return
    xs_arr = np.array(xs)
    # both forms divide a roundoff-level log or sum by (q - 1) or (1 - order)
    cases = ((f_eof, f_eof_ref, 1e-12),
             (lambda x: g_tsallis(x, q), lambda x: g_tsallis_ref(x, q),
              1e-12 / min(1.0, abs(q - 1.0))),
             (lambda x: f_renyi(x, order), lambda x: f_renyi_ref(x, order),
              1e-12 / min(1.0, abs(1.0 - order))))
    for fn, ref, tol in cases:
        batch = fn(xs_arr)
        assert isinstance(batch, np.ndarray) and batch.shape == xs_arr.shape
        for x, v in zip(xs, batch):
            scalar = fn(x)
            assert type(scalar) is float
            assert scalar == v
            assert abs(v - ref(x)) < tol


@pytest.mark.parametrize("bad", [-0.2, 1.5, float("nan"), float("inf")])
def test_closed_forms_reject_any_out_of_range_element(bad):
    for fn in (f_eof, lambda x: g_tsallis(x, 2.5), lambda x: f_renyi(x, 2.5)):
        with pytest.raises(DomainError):
            fn(bad)
        with pytest.raises(DomainError):
            fn(np.array([0.2, bad, 0.7]))


# -- assisted estimator ------------------------------------------------------

ASSISTED = [MeasureKind("eof", assisted=True), MeasureKind("tsallis", q=2.0, assisted=True),
            MeasureKind("renyi", order=1.2, assisted=True)]


@FAST
@given(seeds, st.integers(3, 4), st.integers(0, 12), st.sampled_from(ASSISTED))
def test_assisted_estimate_matches_member_loop(seed, n, budget, kind):
    rho = random_pure(n, seed_path(seed, 0)).reduce([0, 1])
    fast = assisted_estimate(rho, kind, budget=budget, seed=seed_path(seed, 1)).value
    assert abs(fast - assisted_reference(rho, kind, budget, seed_path(seed, 1))) < 1e-12
