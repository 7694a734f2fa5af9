"""Bound-machinery tests: coefficient algebra, right-hand-side assembly
against a direct-summation oracle, parameter extraction, hypothesis
checking and full verification reports."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmono.bounds as bounds
from entmono import (BoundParams, CapabilityError, DensityMatrix, DimensionError,
                     MeasureKind, ParameterError, PureState, bound_family,
                     coefficient_K, eof, example1_params, ghz,
                     random_pure, schmidt3, seed_path, verify, w_state)
from entmono.bounds import (POLYGAMY, PRIOR_KINDS, THEOREMS, BoundFamily, Chain, _clause,
                            check_conditions, evaluate_bounds, extract_mu_l, prior_rhs,
                            prior_weight, resolve_params, rhs_assemble)
from entmono.corpus import run_suite
from entmono.measures import CERT_TOL, PARAMETERS, assisted_estimate, pair_concurrences

EX1 = schmidt3(example1_params())
SQ2 = math.sqrt(2.0)

CONC = bound_family("concurrence")
EOF = bound_family("eof")
CREN = bound_family("cren")
TSQ2 = bound_family("tsallis", q=2.0)
REN2 = bound_family("renyi", order=2.0)
EOA = bound_family("eof", "polygamy")

# closed-form measure triples (group, AB, AC) for the worked example
C_TRIPLE = (0.8, 2 * math.sqrt(2) / 5, 0.4)
E_TRIPLE = tuple(-p * math.log2(p) - (1 - p) * math.log2(1 - p) for p in
                 (0.8, (5 + math.sqrt(17)) / 10, (5 + math.sqrt(21)) / 10))
T_TRIPLE = (8 / 25, 4 / 25, 2 / 25)
R_TRIPLE = (math.log2(25 / 17), math.log2(25 / 21), math.log2(25 / 23))


class TestFamilies:
    def test_table(self):
        assert (CONC.gamma, CONC.domain[0]) == (2.0, 2.0)
        assert CREN.gamma == 2.0
        assert EOF.gamma == SQ2
        assert EOF.domain[0] == SQ2
        assert (TSQ2.gamma, TSQ2.domain[0]) == (1.0, 1.0)
        assert REN2.domain[1] == math.inf
        poly = bound_family("eof", "polygamy")
        assert poly.domain == (0.0, 1.0)
        assert poly.measure.assisted
        assert (CONC.direction, poly.direction) == ("monogamy", "polygamy")
        # gamma is read from the family's THEOREMS row, never given
        assert [f.name for f in dataclasses.fields(BoundFamily) if f.init] == ["measure"]

    @pytest.mark.parametrize("key", [key for key, row in THEOREMS.items() if row[3]])
    def test_a_window_is_closed_and_nothing_past_it_builds(self, key):
        # each finite edge builds the row's family (but for q or order 1,
        # which MeasureKind refuses), and the next float outward is refused
        name, direction, gamma, window = THEOREMS[key]
        param = PARAMETERS[name]

        def build(value):
            return BoundFamily(MeasureKind(name, assisted=direction == POLYGAMY,
                                           **{param: value}))

        for lo, hi in window:
            for edge, outward in ((lo, -math.inf), (hi, math.inf)):
                if not math.isfinite(edge):
                    continue
                if edge != 1.0:
                    assert build(edge).gamma == gamma
                with pytest.raises(ParameterError,
                                   match=f"{direction} {name} bound requires {param} in"):
                    build(math.nextafter(edge, outward))

    def test_invalid_combos(self):
        with pytest.raises(ParameterError):
            bound_family("concurrence", "polygamy")
        with pytest.raises(ParameterError):
            bound_family("tsallis", q=3.5)  # outside the monogamy window
        with pytest.raises(ParameterError):
            bound_family("renyi", order=1.5)
        with pytest.raises(ParameterError):
            bound_family("tsallis", "polygamy", q=2.5)
        with pytest.raises(ParameterError):
            bound_family("renyi", "polygamy", order=2.0)
        # valid polygamy windows (order = 1 stays excluded: entropy singularity)
        bound_family("tsallis", "polygamy", q=1.5)
        bound_family("tsallis", "polygamy", q=3.5)
        bound_family("renyi", "polygamy", order=0.9)
        bound_family("renyi", "polygamy", order=1.3)


class TestCoefficientK:
    def test_unit_parameters(self):
        assert coefficient_K(1.0, 1.0, 2.0, CONC) == pytest.approx(1.0, abs=1e-15)

    def test_saturating_parameters(self):
        assert coefficient_K(2.0, 2.0, 2.0, CONC) == pytest.approx(2.0, abs=1e-15)

    def test_reduces_to_k_form(self):
        # at mu = 1 and l = 1/k the weight equals ((1+k)^s - 1)/k^s
        for k in (0.25, 0.5, 0.75, 1.0):
            for alpha in np.linspace(2.0, 6.0, 9):
                s = alpha / 2.0
                ours = coefficient_K(1.0, 1.0 / k, float(alpha), CONC)
                kform = ((1.0 + k) ** s - 1.0) / k ** s
                assert ours == pytest.approx(kform, rel=1e-12)

    def test_monotone_in_mu(self):
        for ell in (1.0, 1.5, 3.0):
            for alpha in np.linspace(2.0, 6.0, 9):
                ks = [coefficient_K(mu, ell, float(alpha), CONC)
                      for mu in np.linspace(1.0, 5.0, 21)]
                assert np.all(np.diff(ks) > 0)

    def test_dominates_prior_weight(self):
        for mu in (1.0, 2.0, 4.0):
            for ell in (1.0, 2.0, 5.0):
                for alpha in (2.0, 3.0, 5.0):
                    s = alpha / 2.0
                    assert coefficient_K(mu, ell, alpha, CONC) >= 2.0 ** s - 1.0 - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            coefficient_K(2.0, 2.0, 1.5, CONC)  # alpha below the domain
        with pytest.raises(ParameterError):
            coefficient_K(0.0, 1.0, 2.0, CONC)
        with pytest.raises(ParameterError):
            coefficient_K(1.0, -0.5, 2.0, CONC)

    @given(st.floats(0.0, 40.0), st.floats(0.0, 1.0), st.floats(1.0, 6.0))
    @settings(max_examples=300, deadline=None)
    def test_lemma_monotone_weight(self, x, frac, t):
        # (1+x)^t - x^t >= (1+y)^t - y^t for 0 <= y <= x, t >= 1
        y = frac * x
        lhs = (1.0 + x) ** t - x ** t
        rhs = (1.0 + y) ** t - y ** t
        assert lhs >= rhs - 1e-9 * max(1.0, lhs)

    @given(st.floats(0.0, 40.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_lemma_reversed_for_small_exponents(self, x, frac, s):
        y = frac * x
        assert (1.0 + x) ** s - x ** s <= (1.0 + y) ** s - y ** s + 1e-12


def direct_sum_oracle(values, ks, alpha, split):
    """Independent right-hand-side accumulation with explicit products.

    ks[r-1] is the weight of step r: K_r for the tightened bound, or a
    prior's constant weight.
    """
    total = 0.0
    n = len(values)
    for i in range(1, n + 1):  # 1-based pair index
        if split is None or i <= split:
            coeff = 1.0
            for r in range(1, i):
                coeff *= ks[r - 1]
        elif i < n:
            coeff = 1.0
            for r in range(1, split + 1):
                coeff *= ks[r - 1]
            coeff *= ks[i - 1]
        else:
            coeff = 1.0
            for r in range(1, split + 1):
                coeff *= ks[r - 1]
        total += coeff * values[i - 1] ** alpha
    return total


def oracle_weights(kind, n_steps, mus, ells, s, k):
    """Step weights at coefficient exponent s, from the textbook formulas."""
    if kind == "ours":
        return [(m + l) ** s - l ** s for m, l in zip(mus, ells)]
    weight = {"ckw": 1.0, "jf": 2.0 ** s - 1.0, "kf": ((1.0 + k) ** s - 1.0) / k ** s}[kind]
    return [weight] * n_steps


class TestRhsAssemble:
    def test_example1_saturation_point(self):
        params = BoundParams(CONC, 2.0, (2.0,), (2.0,))
        out = rhs_assemble(C_TRIPLE[1:], params)
        assert out.rhs == pytest.approx(16 / 25, abs=1e-12)
        assert out.coefficients == (pytest.approx(2.0),)
        assert sum(t.contribution for t in out.terms) == pytest.approx(out.rhs, abs=1e-12)

    def test_unit_parameters_reproduce_constant_weight_bound(self):
        rng = np.random.default_rng(3)
        for n_pairs in (2, 3, 5):
            values = rng.uniform(0.1, 0.9, n_pairs)
            for alpha in (2.0, 3.0, 4.5):
                params = BoundParams(CONC, alpha, (1.0,) * (n_pairs - 1),
                                     (1.0,) * (n_pairs - 1))
                ours = rhs_assemble(values, params).rhs
                jf = prior_rhs(values, alpha, CONC, "jf")
                assert ours == pytest.approx(jf, rel=1e-12)

    def test_split_equals_plain_sum_when_weights_are_one(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.1, 0.9, 5)
        # mu = l = 1 at alpha = 2 gives K_r = 1 exactly
        plain = sum(v ** 2 for v in values)
        for split in (None, 1, 2, 3, 4):
            params = BoundParams(CONC, 2.0, (1.0,) * 4, (1.0,) * 4, split)
            assert rhs_assemble(values, params).rhs == pytest.approx(plain, abs=1e-12)

    def test_matches_direct_summation_oracle(self):
        # the tightened sum and the three priors, at one alpha and on a grid
        rng = np.random.default_rng(5)
        for _ in range(50):
            n_pairs = int(rng.integers(2, 6))
            values = rng.uniform(0.05, 1.0, n_pairs)
            mus = rng.uniform(1.0, 3.0, n_pairs - 1)
            ells = rng.uniform(1.0, 3.0, n_pairs - 1)
            k = float(rng.uniform(0.05, 1.0))
            split = None if rng.random() < 0.5 else int(rng.integers(1, n_pairs))
            for alpha in (float(rng.uniform(2.0, 5.0)), rng.uniform(2.0, 5.0, 3)):
                got = {"ours": rhs_assemble(values, BoundParams(
                    CONC, alpha, tuple(mus), tuple(ells), split)).rhs}
                for kind in PRIOR_KINDS:
                    got[kind] = prior_rhs(values, alpha, CONC, kind, k=k, split=split)
                for kind, rhs in got.items():
                    assert np.shape(rhs) == np.shape(alpha)
                    for a, r in zip(np.atleast_1d(alpha), np.atleast_1d(rhs)):
                        ks = oracle_weights(kind, n_pairs - 1, mus, ells,
                                            float(a) / CONC.gamma, k)
                        expect = direct_sum_oracle(values, ks, float(a), split)
                        assert r == pytest.approx(expect, rel=1e-12), (kind, split)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            rhs_assemble([0.5, 0.4], BoundParams(CONC, 2.0, (1.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ParameterError):
            rhs_assemble([0.5], BoundParams(CONC, 2.0, (1.0,), (1.0,)))


class TestPriorRhs:
    def test_example1_at_alpha_two(self):
        for kind, kwargs in (("jf", {}), ("kf", {"k": 0.5}), ("ckw", {})):
            out = prior_rhs(C_TRIPLE[1:], 2.0, CONC, kind, **kwargs)
            assert out == pytest.approx(12 / 25, abs=1e-12)

    def test_kf_requires_valid_k(self):
        with pytest.raises(ParameterError):
            prior_rhs(C_TRIPLE[1:], 2.0, CONC, "kf", k=0.0)
        with pytest.raises(ParameterError):
            prior_rhs(C_TRIPLE[1:], 2.0, CONC, "kf", k=1.5)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            prior_rhs(C_TRIPLE[1:], 2.0, CONC, "best")

    @pytest.mark.parametrize("alpha", [2.5, np.array([2.0, 2.5, 3.0])])
    def test_rejects_negative_pair_values(self, alpha):
        # as rhs_assemble does: no complex sum, no OverflowError from a NaN power
        for kind in PRIOR_KINDS:
            with pytest.raises(ParameterError, match="nonnegative"):
                prior_rhs([-0.5, 0.3], alpha, CONC, kind, k=0.5)


class TestPriorWeight:
    @pytest.mark.parametrize("k", [1e-300, 1e-20, 1e-8, 1e-3, 0.5, 1.0])
    def test_kf_is_one_at_s_one(self, k):
        # ((1+k) - 1)/k: a tiny k no longer rounds 1 + k to 1
        assert prior_weight("kf", 1.0, k) == pytest.approx(1.0, rel=1e-14)
        w = prior_weight("kf", np.array([1.0, 1.0]), k)
        assert w == pytest.approx([1.0, 1.0], rel=1e-14)

    @pytest.mark.parametrize("s", [0.25, 1.0, 1.5, 2.0, 7.0, 60.0])
    def test_kf_at_k_one_is_the_jf_weight(self, s):
        assert prior_weight("kf", s, 1.0) == pytest.approx(2.0 ** s - 1.0, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1.0), st.floats(1.0, 60.0))
    def test_kf_matches_the_naive_quotient_where_it_is_accurate(self, k, s):
        naive = ((1.0 + k) ** s - 1.0) / k ** s
        assert prior_weight("kf", s, k) == pytest.approx(naive, rel=2e-13)
        assert prior_weight("kf", np.array([s]), np.array([k]))[0] == pytest.approx(
            naive, rel=2e-13)

    def test_kf_beyond_the_float_range(self):
        # s = 200, k = 0.01: ((1+k)/k)^s is about 1e402
        with pytest.raises(OverflowError):
            prior_weight("kf", 200.0, 0.01)
        with np.errstate(over="ignore"):
            assert prior_weight("kf", np.array([200.0]), 0.01)[0] == math.inf


class TestExtract:
    def test_example1_concurrence(self):
        mu, ell = extract_mu_l(*C_TRIPLE, CONC)
        assert mu == pytest.approx(2.0, abs=1e-12)
        assert ell == pytest.approx(2.0, abs=1e-12)

    def test_example1_eof(self):
        # mu* = (E_group^s2 - E_AB^s2)/E_AC^s2 from the closed-form values
        e_abc, e_ab, e_ac = E_TRIPLE
        mu, ell = extract_mu_l(e_abc, e_ab, e_ac, EOF)
        assert mu == pytest.approx((e_abc ** SQ2 - e_ab ** SQ2) / e_ac ** SQ2, rel=1e-12)
        assert mu == pytest.approx(2.33339404125, abs=1e-9)
        assert ell == pytest.approx(2.14136155176, abs=1e-9)

    def test_degenerate_chain_unconstrained(self):
        assert extract_mu_l(0.5, 0.5, 0.0, CONC) == (None, None)

    def test_tsallis_and_renyi(self):
        mu_t, ell_t = extract_mu_l(*T_TRIPLE, TSQ2)
        assert (mu_t, ell_t) == (pytest.approx(2.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))
        mu_r, ell_r = extract_mu_l(*R_TRIPLE, REN2)
        assert mu_r == pytest.approx(2.53424101976, abs=1e-9)
        assert ell_r == pytest.approx(2.09102929727, abs=1e-9)


class TestCheckConditions:
    def test_example1_saturating_parameters(self):
        report = check_conditions(Chain(EX1, CONC),
                                  BoundParams(CONC, 2.0, (2.0,), (2.0,)))
        assert report.all_hold
        clauses = [s for s in report.steps if "M^2" in s.description]
        assert len(clauses) == 2
        for step in clauses:
            assert step.slack == pytest.approx(0.0, abs=1e-12)

    def test_example1_overtight_mu_fails(self):
        report = check_conditions(Chain(EX1, CONC),
                                  BoundParams(CONC, 2.0, (2.1,), (2.0,)))
        failing = [s for s in report.steps if s.status == "fails"]
        assert len(failing) == 1
        assert failing[0].slack == pytest.approx(-0.1 * 0.16, abs=1e-12)

    def test_ghz4_undecidable(self):
        report = check_conditions(Chain(ghz(4), CONC),
                                  BoundParams(CONC, 2.0, (1.0, 1.0), (1.0, 1.0)))
        assert report.any_undecidable
        assert report.summary == "undecidable"

    def test_out_of_range_parameters_fail_not_raise(self):
        report = check_conditions(Chain(EX1, CONC),
                                  BoundParams(CONC, 2.0, (0.5,), (0.5,)))
        assert report.summary == "fails"

    def test_explicit_parameters_are_compared_not_proven(self):
        # W_3: F^2 = 8/9 and both pairs 4/9, so the sum clause at (5, 0.2)
        # reads 8/9 >= 4/9 + 5 * 4/9 and fails by 16/9; no explicit step is
        # taken as proven
        chain = Chain(w_state(3), CONC)
        report = check_conditions(chain, BoundParams(CONC, 2.0, (5.0,), (0.2,)))
        full, ab, ac = (v ** 2 for v in (chain.full, *chain.pairs))
        sum_step = report.steps[3]
        assert sum_step == _clause(sum_step.description, (full, full), (ab + 5.0 * ac,) * 2)
        assert sum_step.status == "fails"
        assert sum_step.slack == pytest.approx(-16 / 9, abs=1e-12)

    @pytest.mark.parametrize("key", THEOREMS)
    @pytest.mark.parametrize("state", [EX1, w_state(3)], ids=["example1", "w3"])
    def test_an_automatic_request_is_decided_as_verify_decides_it(self, key, state):
        name, direction, gamma, _ = THEOREMS[key]
        options = {"tsallis": {"q": 2.5}, "renyi": {"order": 3.0}, "teoa": {"q": 3.5},
                   "reoa": {"order": 1.2}}.get(key, {})
        family = bound_family(name, direction, **options)
        alpha = gamma / 2 if direction == POLYGAMY else gamma
        request = BoundParams(family, alpha)
        assert check_conditions(Chain(state, family, budget=4), request) == \
            verify(state, request, budget=4).conditions


class TestClause:
    """_clause on (lo, hi) endpoint pairs; op "<=" is the direction of the
    polygamy group clauses and of the polygamy range 0 < mu_r <= 1."""

    @pytest.mark.parametrize("lhs,rhs,status,slack", [
        ((0.2, 0.2), (0.5, 0.5), "holds", 0.3),
        ((0.1, 0.2), (0.4, 0.5), "holds", 0.2),
        ((0.5 + 5e-10, 0.5 + 5e-10), (0.5, 0.5), "holds", -5e-10),
        ((0.5, 0.5), (0.2, 0.2), "fails", -0.3),
        ((0.4, 0.6), (0.1, 0.3), "fails", -0.1),
        ((0.1, 0.4), (0.3, 0.3), "undecidable", None),
        (None, (0.3, 0.3), "undecidable", None),
    ])
    def test_at_most(self, lhs, rhs, status, slack):
        step = _clause("lhs <= rhs", lhs, rhs, "<=")
        assert (step.description, step.status) == ("lhs <= rhs", status)
        assert step.slack == (None if slack is None else pytest.approx(slack, abs=1e-15))
        # lhs <= rhs is rhs >= lhs
        assert step == _clause("lhs <= rhs", rhs, lhs)

    @pytest.mark.parametrize("op,edge,beyond", [(">=", 1.0 - CERT_TOL, 0.0),
                                                ("<=", 1.0 + CERT_TOL, math.inf)])
    def test_range_clause_at_the_tolerance_edge(self, op, edge, beyond):
        # mu_r >= 1 and l_r >= 1 hold down to 1 - CERT_TOL, and the polygamy
        # mu_r <= 1 up to 1 + CERT_TOL; the next float past the edge fails
        step = _clause("range", (edge, edge), (1.0, 1.0), op)
        assert step.status == "holds"
        assert step.slack == (edge - 1.0 if op == ">=" else 1.0 - edge)
        out = math.nextafter(edge, beyond)
        step = _clause("range", (out, out), (1.0, 1.0), op)
        assert step.status == "fails"
        assert step.slack == (out - 1.0 if op == ">=" else 1.0 - out)

    @pytest.mark.parametrize("kind", [
        bound_family("eof", "polygamy"), bound_family("tsallis", "polygamy", q=3.5),
        bound_family("renyi", "polygamy", order=1.2)], ids=["eoa", "teoa", "reoa"])
    @pytest.mark.parametrize("state", [EX1, ghz(3), w_state(4), random_pure(5, seed_path(5, 0))])
    def test_a_polygamy_chain_certifies_no_pair_or_sum_clause(self, kind, state):
        # its pair values are heuristic (chain.status), so they enter the
        # clauses as None, whatever mu and l say
        chain = Chain(state, kind, budget=4)
        steps = state.n_qubits - 2
        for mu, ell in [(1.0, 1.0), (0.5, 1.5), (1e-9, 1e200)]:
            report = check_conditions(chain, BoundParams(kind, 1.0, (mu,) * steps,
                                                         (ell,) * steps))
            assert [s.status for s in report.steps[2::4] + report.steps[3::4]] == \
                ["undecidable"] * 2 * steps

    def test_exact_zero_pair_values_certify_every_clause(self):
        # GHZ_3's pair concurrences are exactly 0: the endpoints (0.0, 0.0)
        # are certified values, not uncertified ones
        chain = Chain(ghz(3), CONC)
        assert chain.pairs == (0.0, 0.0)
        report = check_conditions(chain, BoundParams(CONC, 2.0, (1.0,), (1.0,)))
        assert [s.status for s in report.steps] == ["holds"] * 4


class TestChainLinks:
    @pytest.mark.parametrize("family,certified", [
        (CONC, [True, True, True]), (CREN, [True, True, True]),
        (EOF, [True, False, True]), (TSQ2, [True, False, True]),
        (REN2, [True, False, True]),
        (bound_family("eof", "polygamy"), [True, False, False])])
    def test_which_links_are_certified(self, family, certified):
        # one rule, measures.group_link: the whole register and (unless
        # assisted) the last pair are exact; a mixed group of more than two
        # qubits is certified for the concurrence and CREN only
        links = Chain(w_state(4), family, budget=4).links
        assert [link is not None for link in links] == certified
        assert links[0].status == "exact"


@pytest.mark.parametrize("call,message", [
    (lambda: BoundParams(CONC, 2.0, (1.0, 1.0), (1.0,)), "mu and ell lengths differ"),
    (lambda: BoundParams(CONC, 2.0, (1.0,), (1.0,), 0), "split must be a positive"),
    (lambda: rhs_assemble([0.5, 0.4], BoundParams(CONC, 2.0)), "rhs_assemble needs explicit"),
    (lambda: rhs_assemble([0.5, 0.4, 0.3], BoundParams(CONC, 2.0, (1.0, 1.0), (1.0, 1.0), 3)),
     r"split 3 outside \[1, 2\]"),
    # check_conditions holds its parameters to the chain as the right sides do
    (lambda: check_conditions(Chain(w_state(4), CONC),
                              BoundParams(CONC, 2.0, (1.0,), (1.0,))),
     r"3 values need 2 \(mu, ell\) steps, got 1"),
    (lambda: check_conditions(Chain(w_state(4), CONC),
                              BoundParams(CONC, 2.0, (1.0,) * 3, (1.0,) * 3)),
     r"3 values need 2 \(mu, ell\) steps, got 3"),
    (lambda: check_conditions(Chain(w_state(4), CONC),
                              BoundParams(CONC, 2.0, (1.0, 1.0), (1.0, 1.0), 5)),
     r"split 5 outside \[1, 2\] for 3 pairs"),
    (lambda: verify(DensityMatrix(np.eye(8) / 8, (2, 2, 2)), BoundParams(CONC, 2.0)),
     "a bound needs a PureState"),
    # an empty alpha grid has no smallest entry to check
    (lambda: BoundParams(CONC, np.array([])), "alpha grid is empty"),
    (lambda: coefficient_K(1.0, 1.0, np.array([]), CONC), "alpha grid is empty"),
    (lambda: prior_rhs([0.5, 0.3], np.array([]), CONC, "ckw"), "alpha grid is empty"),
    # a NaN pair value fails as a negative one, before it reaches the sum
    (lambda: prior_rhs([0.5, math.nan], 2.0, CONC, "ckw"),
     "measure values must be nonnegative"),
    (lambda: prior_rhs([np.array([0.5, 0.25]), np.array([0.3, math.nan])], 2.0, CONC, "ckw"),
     "measure values must be nonnegative"),
    # an alpha that is neither a real number nor an ndarray has no range to check
    (lambda: BoundParams(CONC, [2.0, 3.0]), "alpha must be a real number or an ndarray"),
    (lambda: BoundParams(CONC, "3"), "alpha must be a real number or an ndarray"),
    (lambda: prior_rhs([0.5, 0.3], [2.0, 3.0], CONC, "ckw"),
     "alpha must be a real number or an ndarray"),
    # an infinite pair value fails as a NaN one does, before its power overflows
    (lambda: prior_rhs([0.5, math.inf], 2.0, CONC, "ckw"), "measure values must be nonnegative"),
    (lambda: prior_rhs([np.array([0.5, 0.25]), np.array([0.3, math.inf])], 2.0, CONC, "ckw"),
     "measure values must be nonnegative"),
    # mu and ell are iterables of real numbers: a string was read one float
    # per character, and a number or a None entry raised TypeError
    (lambda: BoundParams(CONC, 2.0, "12", "12"), "mu must be an iterable of real numbers"),
    (lambda: BoundParams(CONC, 2.0, 5, 5), "mu must be an iterable of real numbers"),
    (lambda: BoundParams(CONC, 2.0, (1.0, None), (1.0, 1.0)),
     "mu must be an iterable of real numbers"),
    (lambda: BoundParams(CONC, 2.0, (1.0,), (True,)), "ell must be an iterable of real numbers"),
    # split is a positive integer: 1.7 was read as step 1, "x" raised ValueError
    (lambda: BoundParams(CONC, 2.0, (1.0,), (1.0,), 1.7), "split must be a positive"),
    (lambda: BoundParams(CONC, 2.0, (1.0,), (1.0,), "x"), "split must be a positive"),
    (lambda: BoundParams(CONC, 2.0, (1.0,), (1.0,), True), "split must be a positive"),
    # a bool alpha is refused as mu, ell and split refuse one (it was kept as alpha = True)
    (lambda: BoundParams(bound_family("eof", "polygamy"), True, (1.0,), (1.0,)),
     "alpha must be a real number or an ndarray"),
    (lambda: bound_family("eof", "sideways"), "direction must be monogamy or polygamy"),
    # library input is checked, not coerced: a budget, seed or sample count
    # is an integer and a scalar mu or ell a real number, and a bool is neither
    (lambda: verify(EX1, BoundParams(EOA, 0.5), budget=2.7),
     r"^budget must be a nonnegative integer, got 2\.7$"),
    (lambda: verify(EX1, BoundParams(EOA, 0.5), budget="abc"),
     r"^budget must be a nonnegative integer, got 'abc'$"),
    (lambda: verify(EX1, BoundParams(CONC, 2.0), budget=True),
     r"^budget must be a nonnegative integer, got True$"),
    (lambda: assisted_estimate(EX1.reduce([0, 1]), EOA.measure, budget=2.7),
     r"^budget must be a nonnegative integer, got 2\.7$"),
    (lambda: verify(EX1, BoundParams(EOA, 0.5), seed=0.7),
     r"^seeds must be nonnegative integers, got \(0\.7,\)$"),
    (lambda: verify(EX1, BoundParams(EOA, 0.5), seed=True),
     r"^seeds must be nonnegative integers, got \(True,\)$"),
    (lambda: verify(EX1, BoundParams(CONC, 2.0), seed="x"),
     r"^seeds must be nonnegative integers, got \('x',\)$"),
    (lambda: seed_path((3, 1.5), 2), r"^seeds must be nonnegative integers, got \(3, 1\.5, 2\)$"),
    (lambda: run_suite("ckw", samples=2.5, seed=7), r"^sample count must be an integer, got 2\.5$"),
    (lambda: run_suite("ckw", samples="3"), r"^sample count must be an integer, got '3'$"),
    (lambda: run_suite("ckw", samples=True), r"^sample count must be an integer, got True$"),
    (lambda: run_suite("ckw", samples=2, seed=7.9),
     r"^seeds must be nonnegative integers, got \(7\.9,\)$"),
    (lambda: run_suite("ckw", samples=2, seed=(7, 9)),
     r"^seeds must be nonnegative integers, got \(\(7, 9\),\)$"),
    (lambda: coefficient_K(True, 1, 2.0, CONC),
     r"^mu must be a real number or an ndarray, got True$"),
    (lambda: coefficient_K("2", 1, 2.0, CONC),
     r"^mu must be a real number or an ndarray, got '2'$"),
    (lambda: coefficient_K("abc", 1, 2.0, CONC),
     r"^mu must be a real number or an ndarray, got 'abc'$"),
    (lambda: coefficient_K(2.0, "1", 2.0, CONC),
     r"^ell must be a real number or an ndarray, got '1'$"),
], ids=["mu-ell-lengths", "split-0", "rhs-unresolved", "split-past-n-2",
        "conditions-one-step", "conditions-three-steps",
        "conditions-split-past-n-2", "density-matrix", "params-empty-alpha",
        "coefficient-empty-alpha", "prior-empty-alpha", "nan-value", "nan-in-stack",
        "params-list-alpha", "params-string-alpha", "prior-list-alpha", "inf-value",
        "inf-in-stack", "mu-string", "mu-number", "mu-none-entry", "ell-bool-entry",
        "split-fraction", "split-string", "split-bool", "alpha-bool", "direction",
        "verify-fractional-budget", "verify-string-budget", "verify-bool-budget",
        "estimate-fractional-budget", "verify-fractional-seed", "verify-bool-seed",
        "verify-string-seed", "seed-path-fractional-entry", "suite-fractional-samples",
        "suite-string-samples", "suite-bool-samples", "suite-fractional-seed",
        "suite-tuple-seed",
        "coefficient-bool-mu", "coefficient-string-mu", "coefficient-text-mu",
        "coefficient-string-ell"])
def test_bound_inputs_are_checked(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


@pytest.mark.parametrize("dims", [(3, 2, 2), (2, 3, 2), (2, 2, 3)])
def test_a_subsystem_that_is_not_a_qubit_has_no_pair_values(dims):
    # (|000> + |last>)/sqrt(2) with a qutrit at A, B or C: the pair values
    # of every family are qubit-pair closed forms or estimates
    amps = np.zeros(12, dtype=complex)
    amps[0] = amps[11] = 2 ** -0.5
    state = PureState(amps, dims)
    for family, alpha in ((CONC, 2.0), (bound_family("eof", "polygamy"), 0.5)):
        with pytest.raises(DimensionError, match="pairs need qubits"):
            verify(state, BoundParams(family, alpha, (1.0,), (1.0,)), budget=8)
        with pytest.raises(DimensionError, match="pairs need qubits"):
            Chain(state, family, budget=8)
    with pytest.raises(DimensionError, match="pairs need qubits"):
        pair_concurrences(state.amplitudes, state.dims)


AUTOMATIC_REFUSAL = ("automatic (mu, l) extraction needs the exact three-qubit chain; "
                     "supply mu and ell explicitly for {}-qubit states")


def forbid_measuring(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a measure was called")
    monkeypatch.setattr(MeasureKind, "pair_values", forbidden)
    monkeypatch.setattr(MeasureKind, "pure_value", forbidden)


class TestChain:
    """A Chain is its measurement: it checks its input, then measures once."""

    def test_a_chain_takes_no_values(self):
        P = inspect.Parameter
        kinds = [(p.name, p.kind, p.default) for p in inspect.signature(Chain).parameters.values()]
        assert kinds == [("state", P.POSITIONAL_OR_KEYWORD, P.empty),
                         ("family", P.POSITIONAL_OR_KEYWORD, P.empty),
                         ("budget", P.KEYWORD_ONLY, 200), ("seed", P.KEYWORD_ONLY, 0)]
        assert not hasattr(bounds, "measure_chain")

    @pytest.mark.parametrize("family", [CONC, EOA], ids=["concurrence", "eoa"])
    def test_chains_compare_without_raising(self, family):
        # a Chain compares its state by identity, so equal but distinct states differ
        chain = Chain(w_state(3), family)
        assert chain == chain
        assert chain != Chain(w_state(3), family)

    def test_values_in_the_old_positional_order_are_refused(self):
        # W_3 has full 0.943 and pairs 2/3: handed (0.1, (0.09, 0.08)), a chain
        # would let check_conditions prove clauses for values W_3 does not have
        with pytest.raises(TypeError):
            Chain(w_state(3), CONC, 0.1, (0.09, 0.08))

    @pytest.mark.parametrize("family", [CONC, EOA], ids=["concurrence", "eoa"])
    @pytest.mark.parametrize("state,options,message", [
        (DensityMatrix(np.eye(8) / 8, (2, 2, 2)), {},
         "a bound needs a PureState, got DensityMatrix"),
        (ghz(2), {}, "a bound needs at least 3 qubits (2 pair terms), got 2"),
        (w_state(3), {"seed": -1}, "seeds must be nonnegative integers, got (-1,)"),
        (w_state(3), {"budget": -1}, "budget must be nonnegative, got -1"),
        # in the order the state, its size, the seed, the budget
        (ghz(2), {"seed": -1, "budget": -1},
         "a bound needs at least 3 qubits (2 pair terms), got 2"),
        (w_state(3), {"seed": -1, "budget": -1}, "seeds must be nonnegative integers, got (-1,)"),
    ], ids=["density-matrix", "two-qubits", "negative-seed", "negative-budget",
            "qubits-before-seed", "seed-before-budget"])
    def test_bad_input_is_refused_before_anything_is_measured(self, family, state, options,
                                                             message, monkeypatch):
        forbid_measuring(monkeypatch)
        with pytest.raises(ParameterError) as refused:
            Chain(state, family, **options)
        assert str(refused.value) == message


# every caller of an automatic request beyond three qubits meets the one refusal
AUTOMATIC_CALLERS = {
    "verify": lambda state, request: verify(state, request),
    "evaluate_bounds": lambda state, request: evaluate_bounds(state, request, ("ours",)),
    "resolve_params": lambda state, request: resolve_params(Chain(state, request.family),
                                                            request),
    "check_conditions": lambda state, request: check_conditions(Chain(state, request.family),
                                                                request),
}


@pytest.mark.parametrize("caller", AUTOMATIC_CALLERS)
@pytest.mark.parametrize("n", [4, 5])
def test_automatic_mu_l_has_one_refusal(caller, n):
    with pytest.raises(CapabilityError) as refused:
        AUTOMATIC_CALLERS[caller](w_state(n), BoundParams(CONC, 2.0))
    assert str(refused.value) == AUTOMATIC_REFUSAL.format(n)
    assert refused.traceback[-1].name == "_refuse_automatic"


@pytest.mark.parametrize("caller", ["verify", "evaluate_bounds"])
def test_automatic_mu_l_is_refused_before_the_chain_is_measured(caller, monkeypatch):
    forbid_measuring(monkeypatch)
    with pytest.raises(CapabilityError, match="automatic"):
        AUTOMATIC_CALLERS[caller](w_state(4), BoundParams(CONC, 2.0))
    # a state that is no pure register of three or more qubits hears Chain first
    for state, message in [(DensityMatrix(np.eye(16) / 16, (2,) * 4), "a bound needs a PureState"),
                           (ghz(2), "a bound needs at least 3 qubits")]:
        with pytest.raises(ParameterError, match=message):
            AUTOMATIC_CALLERS[caller](state, BoundParams(CONC, 2.0))


def test_numpy_integers_are_integers():
    request = BoundParams(EOA, 0.5)
    assert verify(EX1, request, budget=np.int64(4), seed=np.uint8(3)) == \
        verify(EX1, request, budget=4, seed=3)
    assert run_suite("ckw", np.int32(20), np.int64(7)).to_dict() == \
        run_suite("ckw", 20, 7).to_dict()
    assert coefficient_K(np.int64(2), np.float32(1.5), 2.0, CONC) == \
        coefficient_K(2, 1.5, 2.0, CONC)


REGISTERS_4_TO_6 = {f"{name}:{n}": build(n) for name, build in (("ghz", ghz), ("w", w_state))
                    for n in (4, 5, 6)}
REGISTERS_4_TO_6.update({f"haar:{4 + i % 3}:{i}": random_pure(4 + i % 3, seed_path(2024, i))
                         for i in range(20)})


class TestVerify:
    def test_saturation_margin(self):
        rep = verify(EX1, BoundParams(CONC, 2.0, (2.0,), (2.0,)))
        assert abs(rep.margin) <= 1e-12
        assert rep.conditions.all_hold
        assert rep.value_status == "exact"

    def test_alpha3_curve_ordering(self):
        rep = verify(EX1, BoundParams(CONC, 3.0, (2.0,), (2.0,)))
        assert rep.rhs >= rep.priors["kf"] >= rep.priors["jf"] - 1e-12
        assert rep.lhs >= rep.rhs - 1e-9

    def test_tsallis_linear_chain_saturates(self):
        rep = verify(EX1, BoundParams(TSQ2, 1.0))  # auto-extracted parameters
        assert rep.mu == (pytest.approx(2.0, abs=1e-12),)
        assert abs(rep.margin) <= 1e-12

    def test_auto_extraction_matches_manual(self):
        rep = verify(EX1, BoundParams(EOF, SQ2))
        assert rep.conditions.all_hold
        assert rep.margin == pytest.approx(0.0, abs=1e-12)
        e_abc, e_ab, e_ac = E_TRIPLE
        assert rep.mu[0] == pytest.approx((e_abc ** SQ2 - e_ab ** SQ2) / e_ac ** SQ2,
                                          rel=1e-9)

    def test_entropic_beyond_three_qubits_gated(self):
        with pytest.raises(CapabilityError):
            verify(ghz(4), BoundParams(EOF, SQ2, (1.0,) * 2, (1.0,) * 2))
        rep = verify(ghz(4), BoundParams(EOF, SQ2, (1.0,) * 2, (1.0,) * 2),
                     comparator_only=True)
        assert rep.conditions.any_undecidable

    @pytest.mark.parametrize("name", REGISTERS_4_TO_6)
    def test_cren_beyond_three_qubits_is_the_concurrence_report(self, name):
        state = REGISTERS_4_TO_6[name]
        # one qubit against any group: the CREN is the concurrence, so the
        # cren verify certifies what the concurrence one does
        ones = (1.0,) * (state.n_qubits - 2)
        rc = verify(state, BoundParams(CONC, 2.5, ones, ones)).to_dict()
        rn = verify(state, BoundParams(CREN, 2.5, ones, ones)).to_dict()
        assert (rc.pop("family"), rn.pop("family")) == ("monogamy:concurrence", "monogamy:cren")
        assert_same_report(rn, rc)

    def test_auto_beyond_three_qubits_gated(self):
        with pytest.raises(CapabilityError):
            verify(ghz(4), BoundParams(CONC, 2.0))

    def test_ghz4_concurrence_with_explicit_params(self):
        rep = verify(ghz(4), BoundParams(CONC, 2.0, (1.0, 1.0), (1.0, 1.0)))
        assert rep.conditions.summary == "undecidable"
        # pairwise GHZ concurrences vanish: the bound itself is trivially met
        assert rep.rhs == pytest.approx(0.0, abs=1e-12)
        assert rep.margin == pytest.approx(1.0, abs=1e-9)

    def test_polygamy_reported_not_certified(self):
        fam = bound_family("eof", "polygamy")
        rep = verify(EX1, BoundParams(fam, 0.5), budget=40, seed=7)
        assert rep.value_status == "heuristic"
        assert not rep.conditions.all_hold
        assert math.isfinite(rep.margin)

    def test_cren_matches_concurrence_numbers(self):
        rc = verify(EX1, BoundParams(CONC, 2.5, (2.0,), (2.0,)))
        rn = verify(EX1, BoundParams(CREN, 2.5, (2.0,), (2.0,)))
        assert rn.lhs == pytest.approx(rc.lhs, abs=1e-12)
        assert rn.rhs == pytest.approx(rc.rhs, abs=1e-12)

    def test_renyi_auto(self):
        rep = verify(EX1, BoundParams(REN2, 1.0))
        assert rep.mu[0] == pytest.approx(2.53424101976, abs=1e-9)
        assert abs(rep.margin) <= 1e-12


def assert_same_report(got, want):
    """Equal structure and strings; every number within 1e-12."""
    if isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same_report(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_report(g, w)
    elif isinstance(want, float):
        assert got == pytest.approx(want, abs=1e-12)
    else:
        assert got == want


class TestLemma2OnRandomStates:
    def test_spot_suite(self):
        res = run_suite("lemma2", samples=200, seed=11)
        assert res.passed, res.to_dict()
        assert res.worst_slack >= -1e-9

    def test_bound_nontrivial_variant(self):
        # explicit check that l = 1 with extracted mu also holds
        from entmono import concurrence_pure, concurrence_two_qubit
        hit = 0
        for i in range(100):
            state = random_pure(3, seed_path(303, i))
            c_abc = float(concurrence_pure(state, [0]))
            c_ab = float(concurrence_two_qubit(state.reduce([0, 1])))
            c_ac = float(concurrence_two_qubit(state.reduce([0, 2])))
            if c_ac == 0.0 or c_ab ** 2 < c_ac ** 2:
                continue
            hit += 1
            mu = (c_abc ** 2 - c_ab ** 2) / c_ac ** 2
            for alpha in (2.0, 2.5, 3.0, 4.0):
                rhs = c_ab ** alpha + coefficient_K(mu, 1.0, alpha, CONC) * c_ac ** alpha
                assert c_abc ** alpha >= rhs - 1e-9
        assert hit > 10  # the hypothesis branch is exercised


class TestCorpusSuites:
    @pytest.mark.parametrize("suite,samples", [
        ("lemma1", 20000), ("ckw", 300), ("consistency", 200),
        ("hierarchy", 2000), ("lemma2", 60),
    ])
    def test_suites_pass(self, suite, samples):
        res = run_suite(suite, samples=samples, seed=42)
        assert res.passed, res.to_dict()

    def test_deterministic(self):
        a = run_suite("ckw", samples=50, seed=9).to_dict()
        b = run_suite("ckw", samples=50, seed=9).to_dict()
        assert a == b

    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            run_suite("everything")


class TestResolveParams:
    def test_passthrough_when_explicit(self):
        params = BoundParams(CONC, 2.0, (1.5,), (1.2,))
        assert resolve_params(Chain(EX1, CONC), params) is params

    def test_polygamy_clamped_into_range(self):
        fam = bound_family("eof", "polygamy")
        resolved = resolve_params(Chain(EX1, fam, budget=20, seed=3),
                                  BoundParams(fam, 0.5))
        assert 0.0 < resolved.mu[0] <= 1.0
        assert resolved.ell[0] >= 1.0

    @pytest.mark.parametrize("full,ab,ac,mu,ell", [
        (0.9, 0.1, 0.2, 1.0, 1.0),     # extracted (4, 0.5): both clamped
        (0.2, 0.5, 0.4, 1e-9, 1.25)])  # extracted mu -0.75 rises to 1e-9
    def test_polygamy_extraction_is_clamped(self, full, ab, ac, mu, ell, monkeypatch):
        # a chain is measured, never handed values: the measure returns the point
        fam = bound_family("eof", "polygamy")
        assert extract_mu_l(full, ab, ac, fam) != (mu, ell)
        monkeypatch.setattr(MeasureKind, "pure_value", lambda self, state, side: full)
        monkeypatch.setattr(MeasureKind, "pair_values",
                            lambda self, state, budget, seed: np.array([ab, ac]))
        chain = Chain(EX1, fam)
        assert (chain.full, chain.pairs) == (full, (ab, ac))
        resolved = resolve_params(chain, BoundParams(fam, 0.5))
        assert (resolved.mu, resolved.ell) == ((mu,), (ell,))

    def test_zero_ac_falls_back_to_one(self):
        # GHZ_3's pair concurrences are exactly 0: the step is unconstrained
        chain = Chain(ghz(3), CONC)
        assert extract_mu_l(chain.full, *chain.pairs, CONC) == (None, None)
        resolved = resolve_params(chain, BoundParams(CONC, 2.0))
        assert (resolved.mu, resolved.ell) == ((1.0,), (1.0,))

    def test_only_a_three_qubit_chain_is_extracted(self):
        # called directly, resolve_params refuses a wider chain as
        # evaluate_bounds does, with the one refusal of automatic (mu, l)
        with pytest.raises(CapabilityError) as refused:
            resolve_params(Chain(w_state(4), CONC), BoundParams(CONC, 2.0))
        assert str(refused.value) == AUTOMATIC_REFUSAL.format(4)
