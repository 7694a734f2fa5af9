"""Property tests of the batched kernels against per-sample references:
the stacked Wootters concurrence against the Hill-Wootters eigenvalue form
and 2|ad - bc|, the blocked corpus suites against one-sample-at-a-time
loops and their shared pass against each suite alone, lemma1's slices
against its whole arrays bit for bit and its traced memory peak, the
vectorized closed forms and the broadcasting coefficient_K against scalar
calls,
the Haar samples against two plain normal draws, the block hash of the
seed words against numpy's SeedSequence, the closed-form rank-2 isometry
against LAPACK's QR and its range terms against the explicit members, and
the stacked assisted estimator against its per-member loop, on a whole
polygamy chain of mixed pair ranks against each pair alone, and on four
pair stacks against pinned float values."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import (DensityMatrix, DomainError, MeasureKind,
                     ParameterError, PureState, bound_family,
                     coefficient_K, concurrence_pure, concurrence_two_qubit,
                     example1_params, f_eof, g_tsallis,
                     random_pure, schmidt3, seed_path)
from entmono import corpus, measures
from entmono.bounds import POLYGAMY, Chain, extract_mu_l
from entmono.measures import assisted_estimate, pair_concurrences, wootters_concurrence
from entmono.states import INDEX_CAP, haar_blocks, seed_words

FAST = settings(max_examples=30, deadline=None)

SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2)

seeds = st.integers(0, 2 ** 32 - 1)


# -- references ------------------------------------------------------------

def record(res: corpus.SuiteResult, slack: float, detail: dict):
    """Record one slack into res: the per-entry rule record_all must equal."""
    res.worst_slack = min(res.worst_slack, slack)
    if slack < -res.tolerance:
        res.violations += 1
        if len(res.offenders) < 5:
            res.offenders.append(detail)


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


def closed_form_ref(kind, c):
    """The scalar closed form of an entropic kind at concurrence c."""
    if kind.name == "eof":
        return f_eof_ref(c * c)
    if kind.name == "tsallis":
        return g_tsallis_ref(c * c, kind.q)
    return f_renyi_ref(c, kind.order)


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
            record(res, float(arr[i]), {"sample": i, "direction": tag, "x": float(x[i]),
                                        "y": float(y[i]), "t": float(t[i]), "s": float(s[i])})
    return res


def ckw_reference(samples, seed):
    res = corpus.SuiteResult("ckw", samples, seed, tolerance=1e-9)
    for i in range(samples):
        state = random_pure(3, seed_path(seed, i))
        c_abc = float(concurrence_pure(state, [0]))
        c_ab = float(concurrence_two_qubit(state.reduce([0, 1])))
        c_ac = float(concurrence_two_qubit(state.reduce([0, 2])))
        record(res, c_abc ** 2 - c_ab ** 2 - c_ac ** 2,
               {"sample": i, "c_abc": c_abc, "c_ab": c_ab, "c_ac": c_ac})
    return res


def consistency_reference(samples, seed):
    res = corpus.SuiteResult("consistency", samples, seed, tolerance=1e-9)
    for i in range(samples):
        state = random_pure(2, seed_path(seed, i))
        c = float(concurrence_pure(state, [0]))
        devs = [abs(float(kind.evaluate(state, [0])) - closed_form_ref(kind, c))
                for kind in corpus.CONSISTENCY_KINDS]
        record(res, -max(devs), {"sample": i, "concurrence": c, "max_dev": max(devs)})
    return res


def hierarchy_reference(samples, seed):
    res = corpus.SuiteResult("hierarchy", samples, seed, tolerance=1e-12)
    fam = bound_family("concurrence")
    rng = np.random.default_rng(seed_path(seed))
    mus = rng.uniform(1.0, 5.0, samples)
    ks = rng.uniform(1e-3, 1.0, samples)
    alphas = rng.uniform(2.0, 6.0, samples)
    for i in range(samples):
        mu, k, alpha = float(mus[i]), float(ks[i]), float(alphas[i])
        s = alpha / 2.0
        ours = coefficient_K(mu, 1.0 / k, alpha, fam)
        kf = ((1.0 + k) ** s - 1.0) / k ** s
        jf = 2.0 ** s - 1.0
        scale = max(1.0, kf)
        record(res, min((ours - kf) / scale, (kf - jf) / scale),
               {"sample": i, "mu": mu, "k": k, "alpha": alpha})
    return res


def lemma2_reference(samples, seed):
    # the pair values come one state at a time from the kernel the suite
    # runs on a block, so the extracted (mu, l) agree bit for bit; the
    # kernel is checked against the dense route in test_fast_paths
    res = corpus.SuiteResult("lemma2", samples, seed, tolerance=1e-9)
    fam = bound_family("concurrence")
    for i in range(samples):
        state = random_pure(3, seed_path(seed, i))
        c_abc = float(concurrence_pure(state, [0]))
        c_ab, c_ac = pair_concurrences(state.amplitudes, state.dims).tolist()
        mu, ell = extract_mu_l(c_abc, c_ab, c_ac, fam)
        if mu is None:
            continue
        for alpha in corpus.LEMMA2_ALPHAS:
            rhs = c_ab ** alpha + coefficient_K(mu, ell, alpha, fam) * c_ac ** alpha
            record(res, c_abc ** alpha - rhs, {"sample": i, "alpha": alpha, "mu": mu,
                                               "ell": ell, "variant": "extracted"})
            if ell >= 1.0:
                rhs1 = c_ab ** alpha + coefficient_K(mu, 1.0, alpha, fam) * c_ac ** alpha
                record(res, c_abc ** alpha - rhs1, {"sample": i, "alpha": alpha, "mu": mu,
                                                    "ell": 1.0, "variant": "l=1"})
    return res


def assisted_reference(rho: DensityMatrix, kind: MeasureKind, budget: int, seed) -> float:
    """The per-member, per-restart loop on the same two streams.

    Restart i takes its size m from the sizes stream and a full rank² x rank
    Gaussian block from the draws stream, then the QR of the block's first
    m rows alone.
    """
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

    sizes = np.random.default_rng(seed_path(seed, 0))
    draws = np.random.default_rng(seed_path(seed, 1))
    best = average(np.eye(rank))
    for _ in range(budget):
        m = int(sizes.integers(rank, rank * rank + 1))
        g = draws.normal(size=(2, rank * rank, rank))
        best = max(best, average(np.linalg.qr((g[0] + 1j * g[1])[:m])[0]))
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

# seeds around the 32-bit word boundaries of SeedSequence's entropy, any
# int up to 2**160, and tuple seeds of up to 5 entries
wide_seeds = (st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 64, 2 ** 96, 2 ** 128, 2 ** 160])
              | st.integers(0, 2 ** 160)
              | st.tuples(st.integers(0, 2 ** 70), st.integers(0, 2 ** 40))
              | st.lists(st.integers(0, 2 ** 33), min_size=1, max_size=5).map(tuple))


@st.composite
def index_blocks(draw):
    """(start, stop) of up to 5 indices below 2**32, ending at 2**32 half the time."""
    count = draw(st.integers(1, 5))
    if draw(st.booleans()):
        return INDEX_CAP - count, INDEX_CAP
    start = draw(st.integers(0, INDEX_CAP - count))
    return start, start + count


@FAST
@given(wide_seeds, index_blocks(), st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_haar_block_rows_are_the_per_sample_states(seed, block, sizes):
    # one draw gives every size: an n-qubit row is a prefix of the widest row's stream
    start, stop = block
    blocks = haar_blocks(sizes, seed, start, stop)
    assert sorted(blocks) == sorted(set(sizes))
    for n, rows in blocks.items():
        assert rows.shape == (stop - start, 2 ** n)
        for row, i in zip(rows, range(start, stop)):
            assert row.tobytes() == random_pure(n, seed_path(seed, i)).amplitudes.tobytes()


@FAST
@given(seeds, st.integers(0, 50), st.integers(1, 6))
def test_haar_samples_are_two_plain_normal_draws(seed, index, n):
    # pins the sample set independently of states: a stream's d real parts,
    # then its d imaginary parts, divided by np.linalg.norm
    path = seed_path(seed, index)
    rng = np.random.default_rng(path)
    d = 2 ** n
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    assert random_pure(n, path).amplitudes.tobytes() == v.tobytes()
    assert haar_blocks([n], seed, index, index + 1)[n][0].tobytes() == v.tobytes()


@FAST
@given(wide_seeds, index_blocks())
def test_seed_words_are_the_seed_sequence_words(seed, block):
    start, stop = block
    words = seed_words(seed, start, stop)
    assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
    for row, i in zip(words, range(start, stop)):
        expected = np.random.SeedSequence(seed_path(seed, i)).generate_state(4, np.uint64)
        assert row.tobytes() == expected.tobytes()


@pytest.mark.parametrize("start, stop", [(0, INDEX_CAP + 1), (INDEX_CAP, INDEX_CAP + 2),
                                         (-1, 2)])
def test_indices_beyond_one_entropy_word_raise(start, stop):
    for call in (lambda: seed_words(7, start, stop), lambda: haar_blocks([3], 7, start, stop)):
        with pytest.raises(ParameterError, match="sample indices"):
            call()


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
                                ("hierarchy", hierarchy_reference),
                                ("lemma2", lemma2_reference)):
            assert_same_result(corpus.run_suite(name, samples, seed),
                               reference(samples, seed))


@FAST
@given(seeds, st.integers(1, 40), st.integers(1, 16),
       st.sets(st.sampled_from(corpus.SUITE_NAMES), min_size=1).map(sorted),
       st.lists(st.integers(1, 40), min_size=5, max_size=5, unique=True)
       .map(lambda sizes: dict(zip(corpus.SUITE_NAMES, sizes))))
@example(3, 7, 16, ["ckw", "consistency", "lemma2"],
         {"lemma1": 1, "ckw": 5, "consistency": 12, "hierarchy": 1, "lemma2": 20})
@example(3, 7, 16, ["ckw", "consistency", "lemma2"],
         {"lemma1": 1, "ckw": 20, "consistency": 12, "hierarchy": 1, "lemma2": 5})
# corpus --suite all --samples 3000 --seed 7 against each suite alone: the
# state pass crosses two boundaries of the default BLOCK
@example(7, 3000, corpus.BLOCK, list(corpus.SUITE_NAMES),
         {"lemma1": 1, "ckw": 5, "consistency": 12, "hierarchy": 1, "lemma2": 20})
def test_shared_pass_gives_each_suite_its_result_alone(seed, samples, block, names, defaults):
    # the state suites share each block's draw and concurrences; every suite
    # still records exactly what it records alone, also when the default
    # sizes differ and one suite ends inside a block another reads on.  A
    # tolerance of -inf makes every finite slack offend, so the violation
    # counts show how many rows each suite recorded
    suite_result = corpus.SuiteResult

    def every_sample_offends(suite, samples, seed, tolerance):
        return suite_result(suite, samples, seed, tolerance=-math.inf)

    rows = {name: (size, *corpus.SUITES[name][1:]) for name, size in defaults.items()}
    with mock.patch.object(corpus, "BLOCK", block), mock.patch.dict(corpus.SUITES, rows):
        for count in (samples, None):
            for result in (suite_result, every_sample_offends):
                with mock.patch.object(corpus, "SuiteResult", result):
                    shared = corpus.run_suites(names, count, seed)
                    assert [res.to_dict() for res in shared] == \
                        [corpus.run_suite(name, count, seed).to_dict() for name in names]


@FAST
@given(seeds, st.integers(1, 40), st.integers(1, 16))
def test_offenders_match_per_sample_loops(seed, samples, block):
    # a tolerance of -inf makes every finite slack offend, so the first five
    # offenders of each suite are compared key by key, value by value and
    # in order
    suite_result = corpus.SuiteResult

    def every_sample_offends(suite, samples, seed, tolerance):
        return suite_result(suite, samples, seed, tolerance=-math.inf)

    with mock.patch.object(corpus, "BLOCK", block), \
            mock.patch.object(corpus, "SuiteResult", every_sample_offends):
        for name, reference in (("lemma1", lemma1_reference),
                                ("hierarchy", hierarchy_reference),
                                ("lemma2", lemma2_reference)):
            fast, slow = corpus.run_suite(name, samples, seed), reference(samples, seed)
            assert fast.violations == slow.violations > 0
            assert fast.offenders == slow.offenders
            assert [list(o) for o in fast.offenders] == [list(o) for o in slow.offenders]
            assert abs(fast.worst_slack - slow.worst_slack) <= 1e-12


def test_a_lemma2_block_without_a_maximal_pair_records_nothing():
    # C(A,C) = 0 in every sample: extract_mu_l gives no (mu, l), so the block
    # adds no slack, violation or offender
    res = corpus.SuiteResult("lemma2", 3, 0, tolerance=corpus.CERT_TOL)
    full = np.array([0.5, 0.8, 1.0])
    corpus.suite_lemma2(res, 0, (full, full, np.zeros(3)))
    assert res == corpus.SuiteResult("lemma2", 3, 0, tolerance=corpus.CERT_TOL)


@st.composite
def slice_counts(draw):
    """(LEMMA1_BLOCK, samples): a count that ends inside a slice, at a slice
    edge or one past it, after up to three whole slices."""
    block = draw(st.integers(1, 16))
    whole = draw(st.integers(0, 3))
    return block, max(1, block * whole + draw(st.sampled_from([-1, 0, 1, block // 2])))


@FAST
@given(seeds, slice_counts(), st.sampled_from([1e-12, -1.0, -math.inf]))
@example(3, (1, 1), -math.inf)
@example(3, (16, 16), -math.inf)
@example(3, (16, 17), -math.inf)
@example(3, (4, 11), -math.inf)
def test_lemma1_slices_are_the_whole_arrays_bit_for_bit(seed, counts, tolerance):
    # lemma1 evaluates its gaps LEMMA1_BLOCK samples at a time; every slack is
    # the bits of the whole-array evaluation, so the worst slack, the count and
    # the offenders (a tolerance of -1 makes every slack below 1 offend, one of
    # -inf every slack) are exactly the reference's, key by key and in order
    block, samples = counts
    suite_result = corpus.SuiteResult

    def result(suite, samples, seed, **_):
        return suite_result(suite, samples, seed, tolerance=tolerance)

    with mock.patch.object(corpus, "LEMMA1_BLOCK", block), \
            mock.patch.object(corpus, "SuiteResult", result):
        fast, slow = corpus.run_suite("lemma1", samples, seed), lemma1_reference(samples, seed)
    assert fast.tolerance == slow.tolerance == tolerance
    assert float.hex(fast.worst_slack) == float.hex(slow.worst_slack)
    assert fast.violations == slow.violations
    assert [list(o.items()) for o in fast.offenders] == [list(o.items()) for o in slow.offenders]


def test_lemma1_memory_is_its_draws_and_a_few_slices():
    # x, y, t and s are drawn whole (3.2 MB); the gap's temporaries live one
    # slice at a time, four 64 KB arrays at once, and one whole-array
    # temporary would add 0.8 MB
    samples = corpus.SUITES["lemma1"][0]
    corpus.run_suites(["lemma1"], None, 7)
    tracemalloc.start()
    try:
        corpus.run_suites(["lemma1"], None, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * samples + 300_000


@FAST
@given(st.lists(st.floats(-1.0, 1.0), max_size=40), st.integers(0, 4))
def test_record_all_equals_record_loop(slacks, prior):
    fast = corpus.SuiteResult("x", 1, 0, tolerance=0.25)
    slow = corpus.SuiteResult("x", 1, 0, tolerance=0.25)
    for res in (fast, slow):
        for k in range(prior):
            record(res, -1.0, {"prior": k})
    fast.record_all(np.array(slacks), lambda i: {"sample": i, "slack": slacks[i]})
    for i, s in enumerate(slacks):
        record(slow, s, {"sample": i, "slack": s})
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
             (MeasureKind("renyi", order=order).from_concurrence,
              lambda x: f_renyi_ref(x, order), 1e-12 / min(1.0, abs(1.0 - order))))
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
    for fn in (f_eof, lambda x: g_tsallis(x, 2.5)):
        with pytest.raises(DomainError):
            fn(bad)
        with pytest.raises(DomainError):
            fn(np.array([0.2, bad, 0.7]))


FAMILIES = [bound_family("concurrence"), bound_family("eof"),
            bound_family("tsallis", q=2.5), bound_family("eof", "polygamy")]


@st.composite
def coefficient_args(draw):
    """A family and equal-length lists of valid mu, l and alpha."""
    fam = draw(st.sampled_from(FAMILIES))
    size = draw(st.integers(1, 12))
    vals = lambda lo, hi: draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size))
    return (fam, vals(1e-3, 10.0), vals(0.0, 10.0),
            vals(fam.domain[0], min(fam.domain[1], fam.domain[0] + 6.0)))


@FAST
@given(coefficient_args())
def test_coefficient_K_broadcasts_the_scalar_weight(args):
    fam, mus, ells, alphas = args
    scalar = [coefficient_K(m, l, a, fam) for m, l, a in zip(mus, ells, alphas)]
    assert all(type(v) is float for v in scalar)
    batch = coefficient_K(np.array(mus), np.array(ells), np.array(alphas), fam)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(mus),)
    for v, b in zip(scalar, batch):
        assert abs(b - v) <= 1e-12 * max(1.0, abs(v))
    # (mu, 1) against (1, alpha) broadcasts to the full table; scalars mix in
    table = coefficient_K(np.array(mus)[:, None], ells[0], np.array(alphas)[None, :], fam)
    assert table.shape == (len(mus), len(alphas))
    for i, m in enumerate(mus):
        for j, a in enumerate(alphas):
            v = coefficient_K(m, ells[0], a, fam)
            assert abs(table[i, j] - v) <= 1e-12 * max(1.0, abs(v))


def test_coefficient_K_scalars_give_floats():
    fam = bound_family("concurrence")
    for args in ((2.0, 1.5, 3.0), (2, 1, 3), (np.float64(2.0), np.float64(1.5), 3.0)):
        assert type(coefficient_K(*args, fam)) is float


@FAST
@given(coefficient_args(), st.sampled_from(["alpha_low", "mu_zero", "mu_negative",
                                            "ell_negative", "nan_mu", "nan_ell",
                                            "nan_alpha"]),
       st.integers(0, 11))
def test_coefficient_K_rejects_any_bad_entry(args, case, where):
    fam, mus, ells, alphas = (args[0], *(np.array(v) for v in args[1:]))
    at = where % mus.size
    target, bad = {"alpha_low": (alphas, fam.domain[0] - 0.5), "mu_zero": (mus, 0.0),
                   "mu_negative": (mus, -1.0), "ell_negative": (ells, -0.5),
                   "nan_mu": (mus, math.nan), "nan_ell": (ells, math.nan),
                   "nan_alpha": (alphas, math.nan)}[case]
    target[at] = bad
    with pytest.raises(ParameterError):
        coefficient_K(mus, ells, alphas, fam)
    with pytest.raises(ParameterError):
        coefficient_K(float(mus[at]), float(ells[at]), float(alphas[at]), fam)


# -- assisted estimator ------------------------------------------------------

ASSISTED = [MeasureKind("eof", assisted=True), MeasureKind("tsallis", q=2.0, assisted=True),
            MeasureKind("renyi", order=1.2, assisted=True)]


@FAST
@given(seeds, st.integers(3, 4), st.integers(0, 12), st.sampled_from(ASSISTED),
       st.integers(1, 5))
def test_assisted_estimate_matches_member_loop(seed, n, budget, kind, block):
    # small RESTART_BLOCK values split the restarts into several QR stacks
    rho = random_pure(n, seed_path(seed, 0)).reduce([0, 1])
    with mock.patch.object(measures, "RESTART_BLOCK", block):
        fast = assisted_estimate(rho, kind, budget=budget, seed=seed_path(seed, 1)).value
    assert abs(fast - assisted_reference(rho, kind, budget, seed_path(seed, 1))) < 1e-12


UNIT_ROUNDOFF = 2.0 ** -53


@st.composite
def gaussian_blocks(draw):
    """A stack of complex Gaussian 4 x 2 blocks with rows m.. zeroed, m in
    {2, 3, 4}, and each column scaled by its own power of 2."""
    rng = np.random.default_rng(draw(seeds))
    m = draw(st.integers(2, 4))
    z = rng.normal(size=(64, 4, 2)) + 1j * rng.normal(size=(64, 4, 2))
    z[:, m:] = 0.0
    return z * 2.0 ** np.array(draw(st.lists(st.integers(-200, 200), min_size=2, max_size=2)))


@FAST
@given(gaussian_blocks())
def test_closed_form_q_is_lapacks(z):
    # q0 within 16u entry by entry; q1 within 16u·||y||/|R_11|, its
    # Gram-Schmidt sensitivity (u/sin of the angle between the columns)
    q, r = np.linalg.qr(z)
    q0, q1 = measures._householder_q2(z)
    assert np.all(np.abs(q0 - q[..., 0]) <= 16 * UNIT_ROUNDOFF)
    radius = 16 * UNIT_ROUNDOFF * np.linalg.norm(z[..., 1], axis=-1) / np.abs(r[:, 1, 1])
    assert np.all(np.abs(q1 - q[..., 1]) <= radius[:, None])
    # the zeroed rows stay exactly 0, so their members are skipped
    m = np.count_nonzero(z[0, :, 0])
    assert not q0[:, m:].any() and not q1[:, m:].any()


def rank2_members(state: PureState) -> np.ndarray:
    """The (2, 2, 4) eigen-members e0, e1 of the pairs (A, B) and (A, C) of
    a 3-qubit state, as assisted_estimates takes them."""
    rhos = np.stack([state.reduce([0, i]).matrix for i in (1, 2)])
    factors, ranks = measures._eigen_factor(rhos)
    assert ranks.tolist() == [2, 2]
    return np.swapaxes(factors, -1, -2)[:, ::-1][:, :2]


@FAST
@given(seeds, st.booleans(), gaussian_blocks(), st.sampled_from(ASSISTED))
def test_range_terms_are_the_member_terms(seed, product, z, kind):
    # a Haar 3-qubit state, or A in a product with a Haar state of B and C,
    # whose pairs have product ranges: each term p·F(C) read on the range is
    # within 64u of the one of the explicit member Q @ own, and exactly 0
    # where every member is a product
    rng = np.random.default_rng(seed)
    amps = np.kron(haar(rng, 2), haar(rng, 4)) if product else haar(rng, 8)
    own = rank2_members(PureState(amps, (2,) * 3))
    q0, q1 = measures._householder_q2(np.stack([z, z]))
    range_terms = measures._range_terms(q0, q1, own, kind)
    member_terms = measures._member_terms(np.stack([q0, q1], axis=-1) @ own[:, None], kind)
    assert np.all(np.abs(range_terms - member_terms) <= 64 * UNIT_ROUNDOFF)
    assert not product or not range_terms.any()


ZERO = np.array([1.0, 0.0])


def haar_columns(rng, d: int, k: int) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k)))[0]


def schmidt_pair_state(rng, n: int, terms: int) -> np.ndarray:
    """An n-qubit state with `terms` Schmidt terms across AB_1 | rest.

    Its pair (A, B_1) is entangled of rank `terms`; the other pairs
    generically have rank 4.
    """
    u = haar_columns(rng, 4, terms)
    v = haar_columns(rng, 2 ** (n - 2), terms)
    weights = rng.random(terms) + 0.05
    amps = sum(math.sqrt(w) * np.kron(u[:, k], v[:, k]) for k, w in enumerate(weights))
    return amps / np.linalg.norm(amps)


@st.composite
def mixed_rank_chains(draw):
    """Pure states whose pairs (A, B_i) differ in rank.

    product ⊗ Haar (every pair of rank <= 2), bell ⊗ |0> (ranks 1 and 2),
    a Haar state of 3-4 qubits with |0> inserted as some B_i (a separable
    rank-2 pair, next to rank-4 pairs for 4 Haar qubits), 4-5 qubit states
    with an entangled rank-2 or rank-3 pair next to rank-4 ones, and Haar
    states of 4-5 qubits (every pair of rank 4).
    """
    rng = np.random.default_rng(draw(seeds))
    shape = draw(st.sampled_from(["product", "bell0", "haar0", "schmidt", "haar"]))
    if shape == "product":
        amps = np.kron(haar(rng, 2), haar(rng, 2 ** draw(st.integers(2, 3))))
    elif shape == "bell0":
        amps = np.kron(BELL[0], ZERO)
    elif shape == "haar0":
        n = draw(st.integers(3, 4))
        at = draw(st.integers(1, n))
        amps = np.moveaxis(np.multiply.outer(haar(rng, 2 ** n).reshape((2,) * n), ZERO),
                           n, at).reshape(-1)
    elif shape == "schmidt":
        amps = schmidt_pair_state(rng, draw(st.integers(4, 5)), draw(st.integers(2, 3)))
    else:
        amps = haar(rng, 2 ** draw(st.integers(4, 5)))
    amps = amps / np.linalg.norm(amps)
    return PureState(amps, (2,) * (len(amps).bit_length() - 1))


@FAST
@given(mixed_rank_chains(), seeds, st.sampled_from(ASSISTED), st.integers(1, 5),
       st.sampled_from(["0", "1", "block-1", "block", "block+1"]))
def test_stacked_chain_matches_each_pair_alone(state, seed, kind, block, budget):
    # one kernel pass over the chain stacks the pairs of each rank together;
    # each value must still be the pair's own estimate, bit for bit
    budget = {"0": 0, "1": 1, "block-1": block - 1, "block": block,
              "block+1": block + 1}[budget]
    family = bound_family(kind.name, POLYGAMY, q=kind.q, order=kind.order)
    with mock.patch.object(measures, "RESTART_BLOCK", block):
        chain = Chain(state, family, budget=budget, seed=seed)
        alone = [assisted_estimate(state.reduce([0, i]), kind, budget=budget,
                                   seed=seed_path(seed, i - 1)).value
                 for i in range(1, state.n_qubits)]
    assert list(chain.pairs) == alone
    for i, value in enumerate(chain.pairs, start=1):
        ref = assisted_reference(state.reduce([0, i]), kind, budget, seed_path(seed, i - 1))
        assert abs(value - ref) < 1e-12


@FAST
@given(seeds, st.lists(st.sampled_from(["bell", "bell-like", "product"]), min_size=1,
                       max_size=4), st.sampled_from(ASSISTED), st.sampled_from([0, 1, 257]))
@example(0, ["bell"], ASSISTED[0], 257)
@example(0, ["bell"], ASSISTED[1], 257)
def test_no_estimate_exceeds_the_family_maximum(seed, shapes, kind, budget):
    # a maximally entangled pair sits at the family's maximum F(1), where an
    # average of member values can round a few ulps above it (the Bell pair
    # of bell x |0> at budget 257); a product pair sits at its minimum 0
    rng = np.random.default_rng(seed)
    draw = {"bell": lambda: BELL[0],
            "bell-like": lambda: np.kron(haar_columns(rng, 2, 2),
                                         haar_columns(rng, 2, 2)) @ BELL[0],
            "product": lambda: np.kron(haar(rng, 2), haar(rng, 2))}
    pairs = [draw[shape]() for shape in shapes]
    rhos = np.stack([np.outer(p, p.conj()) for p in pairs])
    got = measures.assisted_estimates(rhos, kind, budget,
                                      [seed_path(seed, i) for i in range(len(rhos))])
    assert np.all(got <= kind.from_concurrence(1.0))


@pytest.mark.parametrize("kind", ASSISTED, ids=lambda k: k.label)
def test_padded_pairs_keep_their_own_values(kind):
    # an entangled rank-2 or rank-3 pair next to rank-4 ones, and the rank-1
    # pair of bell x |0> next to a rank-2 one: each rank runs its own stack, so
    # a pair's restarts must not meet rows or terms of a larger rank.  With one
    # restart the value is that restart's average whenever it beats the
    # eigen-ensemble, so many seeds expose the restarts one at a time.
    family = bound_family(kind.name, POLYGAMY, q=kind.q, order=kind.order)
    bell0 = PureState(np.kron(BELL[0], ZERO), (2,) * 3)
    for i in range(150):
        rng = np.random.default_rng(seed_path(31, i))
        for state in (PureState(schmidt_pair_state(rng, 5, 2 + i % 2), (2,) * 5), bell0):
            chain = Chain(state, family, budget=1, seed=i)
            alone = [assisted_estimate(state.reduce([0, j]), kind, budget=1,
                                       seed=seed_path(i, j - 1)).value
                     for j in range(1, state.n_qubits)]
            assert list(chain.pairs) == alone, i


def pinned_stacks() -> dict:
    """The pair stacks rho_{A,B_i} of the estimates pinned in PINNED_ESTIMATES.

    example1 (ranks 2, 2), bell ⊗ |0> (1, 2), Haar(4) ⊗ |0> (4, 4, 4, 2) and a
    4-qubit state whose pair (A, B_1) has three Schmidt terms (3, 4, 4).
    """
    states = {
        "example1": schmidt3(example1_params()),
        "bell0": PureState(np.kron(BELL[0], ZERO), (2,) * 3),
        "haar4_0": PureState(np.kron(random_pure(4, seed_path(4, 0)).amplitudes, ZERO),
                             (2,) * 5),
        "schmidt3": PureState(schmidt_pair_state(np.random.default_rng(seed_path(5, 0)), 4, 3),
                              (2,) * 4),
    }
    return {name: np.stack([s.reduce([0, i]).matrix for i in range(1, s.n_qubits)])
            for name, s in states.items()}


PINNED_KINDS = {"eof": ASSISTED[0], "tsallis2": ASSISTED[1], "renyi1.2": ASSISTED[2]}

# float.hex of assisted_estimates(stack, kind, budget, [seed_path(0, i) ...]),
# recorded with numpy 2.4.6 on x86-64 (the example1 rows at budgets 1 and 257
# re-recorded for the closed-form rank-2 restarts, within 12 ulps of their
# former LAPACK QR values); budget 257 crosses RESTART_BLOCK.  The
# Bell pair of bell0 at budget 257 averages a few ulps above the family's
# maximum (1 + 2^-52, 0.5 + 2^-53, 1 + 2^-52) and reads the cap F(1) exactly
PINNED_ESTIMATES = {
    ("example1", "eof", 0): ['0x1.ec3cd694f2693p-2', '0x1.003af5900e600p-2'],
    ("example1", "eof", 1): ['0x1.23190e55bc152p-1', '0x1.3955c82935ca2p-2'],
    ("example1", "eof", 257): ['0x1.3a6b0bfbe684bp-1', '0x1.e928ccb1a0e51p-2'],
    ("example1", "tsallis2", 0): ['0x1.9999999999994p-3', '0x1.47ae147ae147bp-4'],
    ("example1", "tsallis2", 1): ['0x1.e57e6d2254ef0p-3', '0x1.d18c129ed5f24p-4'],
    ("example1", "tsallis2", 257): ['0x1.1df41e29b84f1p-2', '0x1.c6b8eb51609a9p-3'],
    ("example1", "renyi1.2", 0): ['0x1.c204c77f5de9ap-2', '0x1.9ff76f4d8eadfp-3'],
    ("example1", "renyi1.2", 1): ['0x1.0a4e3291f9cf9p-1', '0x1.0f191894bb49ep-2'],
    ("example1", "renyi1.2", 257): ['0x1.2b1966905e1c0p-1', '0x1.d5c6dba1cab58p-2'],
    ("bell0", "eof", 0): ['0x1.ffffffffffff9p-1', '0x0.0p+0'],
    ("bell0", "eof", 1): ['0x1.ffffffffffff9p-1', '0x0.0p+0'],
    ("bell0", "eof", 257): ['0x1.0000000000000p+0', '0x0.0p+0'],
    ("bell0", "tsallis2", 0): ['0x1.ffffffffffff8p-2', '0x0.0p+0'],
    ("bell0", "tsallis2", 1): ['0x1.ffffffffffff9p-2', '0x0.0p+0'],
    ("bell0", "tsallis2", 257): ['0x1.0000000000000p-1', '0x0.0p+0'],
    ("bell0", "renyi1.2", 0): ['0x1.fffffffffffecp-1', '0x0.0p+0'],
    ("bell0", "renyi1.2", 1): ['0x1.ffffffffffff9p-1', '0x0.0p+0'],
    ("bell0", "renyi1.2", 257): ['0x1.0000000000000p+0', '0x0.0p+0'],
    ("haar4_0", "eof", 0): ['0x1.32719fd49d22cp-1', '0x1.c3ddd4ed58c47p-2',
                            '0x1.fe31092580149p-2', '0x0.0p+0'],
    ("haar4_0", "eof", 1): ['0x1.32719fd49d22cp-1', '0x1.ef6667c689194p-2',
                            '0x1.1af201f709c8ep-1', '0x0.0p+0'],
    ("haar4_0", "eof", 257): ['0x1.78aa45677a938p-1', '0x1.5bd8fca60551cp-1',
                              '0x1.7d83daa22b268p-1', '0x0.0p+0'],
    ("haar4_0", "tsallis2", 0): ['0x1.03a56934e76bep-2', '0x1.6b90c3c94988fp-3',
                                 '0x1.a221d4e8a3fe2p-3', '0x0.0p+0'],
    ("haar4_0", "tsallis2", 1): ['0x1.03a56934e76bep-2', '0x1.9776e0659c47ep-3',
                                 '0x1.e487690bb280bp-3', '0x0.0p+0'],
    ("haar4_0", "tsallis2", 257): ['0x1.5924572b2be79p-2', '0x1.30cb29668f7e2p-2',
                                   '0x1.5b3025d7ed156p-2', '0x0.0p+0'],
    ("haar4_0", "renyi1.2", 0): ['0x1.1a793c4a808c1p-1', '0x1.9620362b621d2p-2',
                                 '0x1.ceb664ecebaafp-2', '0x0.0p+0'],
    ("haar4_0", "renyi1.2", 1): ['0x1.1a793c4a808c1p-1', '0x1.c2197eb2fff8fp-2',
                                 '0x1.05f6986456bfep-1', '0x0.0p+0'],
    ("haar4_0", "renyi1.2", 257): ['0x1.68752c78dd097p-1', '0x1.45d1c1268ed7bp-1',
                                   '0x1.6bed0090a8420p-1', '0x0.0p+0'],
    ("schmidt3", "eof", 0): ['0x1.ca49cfaa67705p-3', '0x1.21a6ef6a010ecp-2',
                             '0x1.793cf6352e3e0p-2'],
    ("schmidt3", "eof", 1): ['0x1.ca49cfaa67705p-3', '0x1.21a6ef6a010ecp-2',
                             '0x1.8d6dfb05774b7p-2'],
    ("schmidt3", "eof", 257): ['0x1.40ac6feedeb01p-2', '0x1.68351bea9afeep-2',
                               '0x1.b3a73acaaf99dp-2'],
    ("schmidt3", "tsallis2", 0): ['0x1.3cd5c5e4009f7p-4', '0x1.9548dc4197bb5p-4',
                                  '0x1.14adc2c2e4664p-3'],
    ("schmidt3", "tsallis2", 1): ['0x1.3cd5c5e4009f7p-4', '0x1.9548dc4197bb5p-4',
                                  '0x1.34438f78299f2p-3'],
    ("schmidt3", "tsallis2", 257): ['0x1.e7cf3458f478ap-4', '0x1.1769e82080a86p-3',
                                    '0x1.5312d2f5ef241p-3'],
    ("schmidt3", "renyi1.2", 0): ['0x1.7f3d60148d48bp-3', '0x1.e846e15ef2727p-3',
                                  '0x1.454544941f202p-2'],
    ("schmidt3", "renyi1.2", 1): ['0x1.7f3d60148d48bp-3', '0x1.e846e15ef2727p-3',
                                  '0x1.5f29ec98f6c54p-2'],
    ("schmidt3", "renyi1.2", 257): ['0x1.1775890f816a7p-2', '0x1.3dfbb12f596f4p-2',
                                    '0x1.7da619f7a6de7p-2'],
}


def assert_pinned(names):
    # mixed pair ranks, budgets 0, 1 and one past RESTART_BLOCK: the stacked
    # estimator gives these exact floats
    stacks = pinned_stacks()
    for (name, kind, budget), expected in PINNED_ESTIMATES.items():
        if name not in names:
            continue
        rhos = stacks[name]
        got = measures.assisted_estimates(rhos, PINNED_KINDS[kind], budget,
                                          [seed_path(0, i) for i in range(len(rhos))])
        assert [float(v).hex() for v in got] == expected, (name, kind, budget)


def test_three_qubit_estimates_keep_their_pinned_values():
    # pairs of rank 1 and 2: a 1 x 1 QR and the closed-form rank-2 restarts,
    # elementwise arithmetic that reads the same bits on AVX-512 and AVX2
    # kernels
    assert_pinned(("example1", "bell0"))


def test_wider_register_estimates_keep_their_pinned_values():
    # pairs of rank 3 and 4 run LAPACK's batched QR and a matmul, which round
    # otherwise in the last bits on AVX2 kernels
    assert_pinned(("haar4_0", "schmidt3"))
