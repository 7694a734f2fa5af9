"""Measure tests: closed-form worked-example values, scalar helper
functions, consistency identities, additivity grids and the heuristic
assisted estimator."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (CapabilityError, DensityMatrix, DimensionError,
                     DomainError, MeasureKind, MeasureValue, ParameterError,
                     PureState, bell, concurrence_pure,
                     concurrence_two_qubit, eof, eof as _eof, example1_params,
                     f_eof, g_tsallis,
                     ghz, negativity, random_pure, renyi, schmidt3,
                     seed_path, tsallis, w_state)

from entmono.bounds import THEOREMS
from entmono.measures import (RENYI_ORDER_LO, assisted_estimate, assisted_estimates,
                              pair_concurrences)

from dense_reference import slow_reduce

EX1 = schmidt3(example1_params())
CONCURRENCE = MeasureKind("concurrence")
SQ2 = math.sqrt(2.0)

# closed forms for the worked example
C_ABC = 4.0 / 5.0
C_AB = 2.0 * math.sqrt(2.0) / 5.0
C_AC = 2.0 / 5.0


def bell_projector(p=1.0):
    vec = np.zeros(4, complex)
    vec[0] = vec[3] = 1 / math.sqrt(2)
    return p * np.outer(vec, vec.conj()) + (1 - p) * np.eye(4) / 4


class TestConcurrencePure:
    def test_bell(self):
        assert float(concurrence_pure(bell(), [0])) == pytest.approx(1.0, abs=1e-12)

    def test_example1(self):
        assert abs(float(concurrence_pure(EX1, [0])) - C_ABC) < 1e-12

    def test_product_state(self):
        amps = np.zeros(4, complex)
        amps[0] = 1.0
        from entmono import PureState
        assert float(concurrence_pure(PureState(amps, (2, 2)), [0])) == 0.0

    def test_improper_partition(self):
        with pytest.raises(ParameterError):
            concurrence_pure(EX1, [])
        with pytest.raises(ParameterError):
            concurrence_pure(EX1, [0, 1, 2])

    def test_pure_value_checks_keep_before_taking_the_smaller_side(self):
        from entmono.errors import DimensionError
        kind = MeasureKind("concurrence")
        with pytest.raises(ParameterError):
            kind.pure_value(EX1, [])
        for keep in ([-1], [0, 1, 5]):  # [0, 1, 5] once measured the cut {2} | rest
            with pytest.raises(DimensionError):
                kind.pure_value(EX1, keep)


def nearly_pure_group_state(eps: float) -> PureState:
    """sqrt(1-eps)|0000> + sqrt(eps/2)(|0100> + |1111>): rho_ACD is nearly pure."""
    amps = np.zeros(16, complex)
    amps[0b0000] = math.sqrt(1.0 - eps)
    amps[0b0100] = amps[0b1111] = math.sqrt(eps / 2.0)
    return PureState(amps, (2,) * 4)


class TestNearlyPureGroup:
    def test_an_inexact_upper_leg_is_an_interval(self):
        # rho_ACD lives on A (x) span{|00>, |11>}; there it is a two-qubit
        # state whose Wootters concurrence, 4e-11, is C(A|CD).  The purity
        # 1 - 4e-11 of the group does not make C(A|rest) = 8.9e-6 exact.
        state = nearly_pure_group_state(4e-11)
        sub = slow_reduce(state, [0, 2, 3]).matrix[np.ix_([0, 3, 4, 7], [0, 3, 4, 7])]
        true = float(concurrence_two_qubit(DensityMatrix(sub, (2, 2))))
        assert true == pytest.approx(4e-11, rel=1e-6)
        for mv in (CONCURRENCE.evaluate(state, 0, [0, 2, 3]),
                   MeasureKind("cren").evaluate(state, [0], [0, 2, 3])):
            assert mv.status == "interval"
            assert mv.lo <= true <= mv.hi
            assert mv.hi == pytest.approx(math.sqrt(2.0 * 4e-11), rel=1e-6)

    def test_a_pure_group_stays_exact(self):
        # eps = 0: the group is pure and A is in a product state
        mv = CONCURRENCE.evaluate(nearly_pure_group_state(0.0), 0, [0, 2, 3])
        assert (mv.status, mv.value) == ("exact", 0.0)


def mintert_buchleitner_leg(rho: DensityMatrix) -> float:
    """sqrt(max(0, 2[Tr rho² - Tr rho_A²])) of a state whose first factor is A."""
    m = rho.matrix.reshape(2, rho.matrix.shape[0] // 2, 2, -1)
    rho_a = np.einsum("ajbj->ab", m)
    purity = float(np.vdot(rho.matrix, rho.matrix).real)
    return math.sqrt(max(0.0, 2.0 * (purity - float(np.vdot(rho_a, rho_a).real))))


class TestMintertBuchleitnerLeg:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5))
    def test_below_the_wootters_concurrence(self, seed, n):
        # C(rho)² >= 2[Tr rho² - Tr rho_A²] on two-qubit states of every rank
        rho = slow_reduce(random_pure(n, seed_path(seed, 0)), [0, 1])
        assert mintert_buchleitner_leg(rho) <= float(concurrence_two_qubit(rho)) + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(4, 5))
    def test_below_every_decomposition_average(self, seed, n):
        # on a qubit against two qubits each decomposition's average
        # concurrence is at least the convex roof, so at least the leg
        state = random_pure(n, seed_path(seed, 0))
        rho = slow_reduce(state, [0, 1, 2])
        evs, vecs = np.linalg.eigh(rho.matrix)
        members = (np.sqrt(np.clip(evs, 0.0, None)) * vecs).T
        rng = np.random.default_rng(seed_path(seed, 1))
        leg = mintert_buchleitner_leg(rho)
        for _ in range(20):
            z = rng.normal(size=(16, 8)) + 1j * rng.normal(size=(16, 8))
            tilde = np.linalg.qr(z)[0] @ members
            p = np.sum(np.abs(tilde) ** 2, axis=1)
            live = p > 1e-14
            avg = sum(pk * float(concurrence_pure(PureState(t / math.sqrt(pk), (2, 2, 2)), [0]))
                      for pk, t in zip(p[live], tilde[live]))
            assert leg <= avg + 1e-12


class TestAssistedKinds:
    KIND = MeasureKind("eof", assisted=True)

    def test_no_exact_value_off_the_whole_register(self):
        # the plain EoF of rho_AB, 0.4287, is below the assisted value (an
        # estimate already reaches 0.612), so it is no value of this kind
        assert assisted_estimate(EX1.reduce([0, 1]), self.KIND, seed=0).value > 0.6
        with pytest.raises(CapabilityError):
            self.KIND.evaluate(EX1, [0], [0, 1])
        with pytest.raises(CapabilityError):
            self.KIND.evaluate(EX1.reduce([0, 1]))
        with pytest.raises(CapabilityError):
            self.KIND.two_qubit_value(EX1.reduce([0, 1]))
        with pytest.raises(CapabilityError):
            MeasureKind("tsallis", q=2.0, assisted=True).evaluate(ghz(4), [0], [0, 1, 2])

    @pytest.mark.parametrize("kind", [MeasureKind("eof", assisted=True),
                                      MeasureKind("tsallis", q=5.0, assisted=True),
                                      MeasureKind("renyi", order=0.5, assisted=True)])
    @pytest.mark.parametrize("state,group", [(EX1, [0, 1]), (EX1, [0, 2]),
                                             (w_state(4), [0, 1, 2])])
    def test_a_pair_or_group_raises_before_any_pair_is_read(self, kind, state, group,
                                                            monkeypatch):
        # tsallis q = 5 and renyi order 0.5 lie outside the plain kinds'
        # mixed-state windows: the error is the assisted one, not theirs
        def unread(*args, **kwargs):
            raise AssertionError("a pair value was read")
        monkeypatch.setattr("entmono.measures.pair_concurrences", unread)
        with pytest.raises(CapabilityError) as exc:
            kind.evaluate(state, 0, group)
        assert str(exc.value) == (f"{kind.label} of a mixed state has no exact value; "
                                  f"assisted_estimate gives a heuristic one")

    def test_whole_register_is_the_plain_value(self):
        # a pure state has one decomposition, so max and min coincide
        got = self.KIND.evaluate(EX1, [0])
        assert (got.status, got.value) == ("exact", float(eof(EX1, [0])))


class TestConcurrenceTwoQubit:
    def test_example1_pairs(self):
        assert abs(float(concurrence_two_qubit(EX1.reduce([0, 1]))) - C_AB) < 1e-12
        assert abs(float(concurrence_two_qubit(EX1.reduce([0, 2]))) - C_AC) < 1e-12

    @pytest.mark.parametrize("p,expected", [(0.0, 0.0), (0.4, 0.1), (1.0, 1.0)])
    def test_werner(self, p, expected):
        rho = DensityMatrix(bell_projector(p), (2, 2))
        assert float(concurrence_two_qubit(rho)) == pytest.approx(expected, abs=1e-12)

    def test_matches_pure_formula_on_rank_one(self):
        for i in range(50):
            state = random_pure(2, seed_path(31, i))
            via_mixed = float(concurrence_two_qubit(state.reduce([0, 1])))
            via_pure = float(concurrence_pure(state, [0]))
            assert abs(via_mixed - via_pure) < 1e-9

    def test_wrong_dims(self):
        from entmono.errors import DimensionError
        rho = DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(DimensionError):
            concurrence_two_qubit(rho)


class TestConcurrenceInterval:
    def test_pure_input_collapses(self):
        mv = CONCURRENCE.evaluate(EX1, 0, [0, 1, 2])
        assert mv.status == "exact"
        assert abs(mv.value - C_ABC) < 1e-10

    def test_ghz4_reduction(self):
        mv = CONCURRENCE.evaluate(ghz(4), 0, [0, 1, 2])
        assert mv.status == "interval"
        assert mv.lo == pytest.approx(0.0, abs=1e-12)  # pairwise concurrences vanish
        assert mv.hi == pytest.approx(1.0, abs=1e-10)  # sqrt(2 (1 - 1/2))

    def test_ordered_on_random_reductions(self):
        for i in range(500):
            mv = CONCURRENCE.evaluate(random_pure(4, seed_path(77, i)), 0, [0, 1, 2])
            lo, hi = mv.bounds
            assert lo <= hi + 1e-12

    def test_rejects_what_has_no_interval(self):
        with pytest.raises(CapabilityError):
            CONCURRENCE.evaluate(EX1.reduce([0, 1, 2]), 0, [0, 1, 2])  # a 3-qubit matrix
        with pytest.raises(ParameterError):
            CONCURRENCE.evaluate(EX1.reduce([0, 1, 2]).matrix)  # neither state type
        with pytest.raises(ParameterError):
            CONCURRENCE.evaluate(ghz(4), 3, [0, 1, 2])  # side outside the group
        with pytest.raises(DimensionError):
            CONCURRENCE.evaluate(ghz(4), 0, [0, 1, 4])  # group outside the register
        with pytest.raises(CapabilityError):
            CONCURRENCE.evaluate(ghz(5), [0, 1], [0, 1, 2, 3])  # two qubits on each side


GHZ3 = ghz(3)
SIDE_ROUTES = {
    "eof": lambda side: eof(GHZ3, side),
    "tsallis": lambda side: tsallis(GHZ3, side, q=2.0),
    "renyi": lambda side: renyi(GHZ3, side, order=2.0),
    "concurrence_pure": lambda side: concurrence_pure(GHZ3, side),
    "evaluate": lambda side: MeasureKind("cren").evaluate(GHZ3, side),
    "negativity": lambda side: negativity(GHZ3, side),
    "evaluate_in_group": lambda side: CONCURRENCE.evaluate(GHZ3, side, [0, 1, 2]),
}


@pytest.mark.parametrize("route", sorted(SIDE_ROUTES))
class TestSideParsing:
    def test_an_int_side_is_one_qubit(self, route):
        assert SIDE_ROUTES[route](0) == SIDE_ROUTES[route]([0])

    def test_empty_side(self, route):
        with pytest.raises(ParameterError):
            SIDE_ROUTES[route]([])

    def test_out_of_range_side(self, route):
        with pytest.raises(DimensionError):
            SIDE_ROUTES[route](3)

    def test_whole_register(self, route):
        with pytest.raises(ParameterError):
            SIDE_ROUTES[route]([0, 1, 2])


class TestNegativity:
    def test_bell(self):
        assert float(negativity(bell(), side=0)) == pytest.approx(1.0, abs=1e-12)

    def test_example1_group(self):
        assert float(negativity(EX1, side=0)) == pytest.approx(C_ABC, abs=1e-12)

    def test_separable(self):
        # rho_AB = |0><0| (x) rho_B: its transpose on A keeps every eigenvalue >= 0
        for i in range(20):
            amps = np.kron([1.0, 0.0], random_pure(2, seed_path(17, i)).amplitudes)
            assert float(negativity(PureState(amps, (2, 2, 2)), [0], [0, 1])) == 0.0

    def test_a_density_matrix_is_rejected(self):
        rho = DensityMatrix(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex), (2, 2))
        with pytest.raises(ParameterError):
            negativity(rho, side=0)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_w_state_against_all_but_one_qubit(self, n):
        # rho_G = (n-1)/n |W_{n-1}><W_{n-1}| + 1/n |0..0><0..0|, whose transpose on A
        # has the one negative eigenvalue (1 - sqrt(4n - 7))/(2n)
        got = negativity(w_state(n), [0], list(range(n - 1)))
        assert got.status == "exact"
        assert abs(got.value - (math.sqrt(4 * n - 7) - 1.0) / n) <= 1e-12


# every family, with Tsallis q and Renyi orders on either side of 1
NONNEGATIVE_KINDS = st.one_of(
    st.sampled_from([MeasureKind("concurrence"), MeasureKind("cren"), MeasureKind("eof")]),
    st.floats(0.05, 8.0).filter(lambda q: q != 1.0).map(lambda q: MeasureKind("tsallis", q=q)),
    st.floats(0.05, 8.0).filter(lambda a: a != 1.0).map(lambda a: MeasureKind("renyi", order=a)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 31 - 1), NONNEGATIVE_KINDS)
def test_pure_value_of_a_product_qubit_is_nonnegative(m, seed, kind):
    # |a> (x) Haar(m): a Schmidt coefficient of A | rest can round above 1
    amps = np.kron(random_pure(1, seed_path(seed, 0)).amplitudes,
                   random_pure(m, seed_path(seed, 1)).amplitudes)
    state = PureState(amps / np.linalg.norm(amps), (2,) * (m + 1))
    for keep in ([0], list(range(1, m + 1)), [m]):
        assert kind.pure_value(state, keep) >= 0.0


class TestCren:
    def test_example1_pairs(self):
        cren = MeasureKind("cren")
        assert abs(float(cren.evaluate(EX1.reduce([0, 1]))) - C_AB) < 1e-12
        assert abs(float(cren.evaluate(EX1.reduce([0, 2]))) - C_AC) < 1e-12

    def test_delegates_to_concurrence(self):
        cren = MeasureKind("cren")
        for i in range(20):
            rho = random_pure(3, seed_path(13, i)).reduce([0, 1])
            assert float(cren.evaluate(rho)) == float(concurrence_two_qubit(rho))

    def test_pure_group_matches_concurrence(self):
        kind = MeasureKind("cren")
        assert kind.pure_value(EX1, [0]) == pytest.approx(C_ABC, abs=1e-12)


class TestScalarHelpers:
    def test_f_eof_endpoints(self):
        assert f_eof(0.0) == 0.0
        assert f_eof(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_f_eof_paper_point(self):
        assert f_eof(8.0 / 25.0) == pytest.approx(0.428710, abs=1e-6)

    def test_f_eof_domain(self):
        with pytest.raises(DomainError):
            f_eof(1.5)
        with pytest.raises(DomainError):
            f_eof(-0.2)

    def test_g_tsallis_values(self):
        assert g_tsallis(16.0 / 25.0, 2.0) == pytest.approx(8.0 / 25.0, abs=1e-15)
        for q in (0.8, 1.5, 2.7, 4.0):
            assert g_tsallis(0.0, q) == pytest.approx(0.0, abs=1e-15)
        for x in np.linspace(0, 1, 101):
            assert g_tsallis(float(x), 2.0) == pytest.approx(x / 2.0, abs=1e-14)

    def test_g_tsallis_bad_q(self):
        with pytest.raises(ParameterError):
            g_tsallis(0.5, 1.0)
        with pytest.raises(ParameterError):
            g_tsallis(0.5, -2.0)

    def test_f_renyi_values(self):
        # the Renyi closed form f_a(C), from_concurrence of a renyi kind
        f_2 = MeasureKind("renyi", order=2.0).from_concurrence
        assert f_2(C_AB) == pytest.approx(math.log2(25 / 21), abs=1e-12)
        assert f_2(C_ABC) == pytest.approx(math.log2(25 / 17), abs=1e-12)
        assert f_2(C_ABC) == pytest.approx(0.556393, abs=1e-6)
        for order in (0.5, 2.0, 3.5):
            f_a = MeasureKind("renyi", order=order).from_concurrence
            assert f_a(0.0) == pytest.approx(0.0, abs=1e-15)
            assert f_a(1.0) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_f_eof_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert f_eof(lo) <= f_eof(hi) + 1e-12

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.sampled_from([0.5, 2.0, 3.0]))
    @settings(max_examples=200, deadline=None)
    def test_f_renyi_monotone(self, a, b, order):
        lo, hi = sorted((a, b))
        f_a = MeasureKind("renyi", order=order).from_concurrence
        assert f_a(lo) <= f_a(hi) + 1e-12

    def test_monotone_grids(self):
        xs = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        fe = [f_eof(float(x)) for x in xs]
        assert np.all(np.diff(fe) >= -1e-12)
        for q in (1.5, 2.0, 3.0):
            gq = [g_tsallis(float(x), q) for x in xs]
            assert np.all(np.diff(gq) >= -1e-12)
        for order in (2.0, 3.0):
            fr = MeasureKind("renyi", order=order).from_concurrence(xs)
            assert np.all(np.diff(fr) >= -1e-12)


class TestEof:
    def test_example1_group(self):
        assert float(eof(EX1, [0])) == pytest.approx(0.721928, abs=1e-6)

    def test_example1_pairs(self):
        assert float(eof(EX1.reduce([0, 1]))) == pytest.approx(0.428710, abs=1e-6)
        assert float(eof(EX1.reduce([0, 2]))) == pytest.approx(0.250225, abs=1e-6)

    def test_bell(self):
        assert float(eof(bell(), [0])) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_beyond_two_qubits_unsupported(self):
        rho = ghz(4).reduce([0, 1, 2])
        with pytest.raises(CapabilityError):
            eof(rho)


class TestTsallis:
    def test_example1_values(self):
        assert float(tsallis(EX1, [0], q=2)) == pytest.approx(8 / 25, abs=1e-12)
        assert float(tsallis(EX1.reduce([0, 1]), q=2)) == pytest.approx(4 / 25, abs=1e-12)
        assert float(tsallis(EX1.reduce([0, 2]), q=2)) == pytest.approx(2 / 25, abs=1e-12)

    def test_maximally_mixed_marginal(self):
        assert float(tsallis(bell(), [0], q=2)) == pytest.approx(0.5, abs=1e-12)

    def test_mixed_route_q_window(self):
        rho = EX1.reduce([0, 1])
        with pytest.raises(CapabilityError):
            tsallis(rho, q=5.0)  # outside the closed-form window
        float(tsallis(rho, q=4.0))  # inside: fine

    def test_pure_route_any_q(self):
        assert float(tsallis(EX1, [0], q=5.0)) > 0.0


class TestRenyi:
    def test_example1_values(self):
        assert float(renyi(EX1, [0], order=2)) == pytest.approx(
            math.log2(25 / 17), abs=1e-9)
        assert float(renyi(EX1, [0], order=2)) == pytest.approx(0.556393, abs=1e-6)
        assert float(renyi(EX1.reduce([0, 2]), order=2)) == pytest.approx(
            0.120294, abs=1e-6)

    def test_bell_flat_spectrum(self):
        for order in (0.5, 2.0, 3.0, 7.0):
            assert float(renyi(bell(), [0], order=order)) == pytest.approx(1.0, abs=1e-12)


class TestRenyiMixedWindow:
    # E_a(rho) = f_a(C(rho)) on two-qubit mixed states is proven for a >= (sqrt(7) - 1)/2
    def test_the_edge_is_the_polygamy_window_edge(self):
        assert RENYI_ORDER_LO == (math.sqrt(7.0) - 1.0) / 2.0
        assert THEOREMS["reoa"][3][0][0] == RENYI_ORDER_LO

    @pytest.mark.parametrize("order", [0.5, 0.8])
    def test_below_the_edge_a_pair_has_no_value(self, order):
        with pytest.raises(CapabilityError, match="requires order >= 0.822876"):
            renyi(EX1.reduce([0, 1]), order=order)
        with pytest.raises(CapabilityError, match="requires order >= 0.822876"):
            MeasureKind("renyi", order=order).evaluate(EX1, 0, [0, 1])

    @pytest.mark.parametrize("order", [RENYI_ORDER_LO, 0.9, 2.0])
    def test_at_and_above_the_edge_a_pair_reads_the_closed_form(self, order):
        kind = MeasureKind("renyi", order=order)
        c_mixed = float(concurrence_two_qubit(EX1.reduce([0, 1])))
        c_pure = float(pair_concurrences(EX1.amplitudes, EX1.dims, 0, [1])[0])
        assert renyi(EX1.reduce([0, 1]), order=order) == \
            MeasureValue.exact(kind.from_concurrence(c_mixed))
        assert kind.evaluate(EX1, 0, [0, 1]) == MeasureValue.exact(kind.from_concurrence(c_pure))

    def test_the_whole_register_stays_exact_below_the_edge(self):
        kind = MeasureKind("renyi", order=0.5)
        assert renyi(EX1, [0], order=0.5) == MeasureValue.exact(kind.pure_value(EX1, [0]))


class TestConsistencyIdentities:
    def test_two_qubit_pure(self):
        for i in range(200):
            state = random_pure(2, seed_path(55, i))
            c = float(concurrence_pure(state, [0]))
            assert abs(float(eof(state, [0])) - f_eof(c * c)) < 1e-9
            for q in (2.0, 2.5, 3.0):
                assert abs(float(tsallis(state, [0], q=q)) - g_tsallis(c * c, q)) < 1e-9
            for order in (2.0, 3.0):
                f_a = MeasureKind("renyi", order=order).from_concurrence
                assert abs(float(renyi(state, [0], order=order)) - f_a(c)) < 1e-9


GRID = np.linspace(0.0, 1.0, 81)


def _pairs_in_disc():
    for x in GRID:
        for y in GRID:
            if x * x + y * y <= 1.0:
                yield float(x), float(y)


class TestAdditivityGrids:
    def test_f_sqrt2_superadditive(self):
        for x, y in _pairs_in_disc():
            joint = f_eof(x * x + y * y) ** SQ2
            split = f_eof(x * x) ** SQ2 + f_eof(y * y) ** SQ2
            assert joint >= split - 1e-12

    def test_f_subadditive_as_stated(self):
        # claimed without a range caveat; holds on the whole tested grid
        for x, y in _pairs_in_disc():
            assert f_eof(x * x + y * y) <= f_eof(x * x) + f_eof(y * y) + 1e-12

    @pytest.mark.parametrize("q", [2.0, 2.5, 3.0])
    def test_g_superadditive_inside_window(self, q):
        for x, y in _pairs_in_disc():
            assert g_tsallis(x * x + y * y, q) >= \
                g_tsallis(x * x, q) + g_tsallis(y * y, q) - 1e-12

    @pytest.mark.parametrize("q", [1.1, 1.5, 2.0, 3.0, 3.5, 4.0])
    def test_g_subadditive_outside_window(self, q):
        for x, y in _pairs_in_disc():
            assert g_tsallis(x * x + y * y, q) <= \
                g_tsallis(x * x, q) + g_tsallis(y * y, q) + 1e-12


ASSISTED = [MeasureKind("eof", assisted=True), MeasureKind("tsallis", q=2.0, assisted=True),
            MeasureKind("renyi", order=1.2, assisted=True)]


class TestAssistedEstimate:
    def test_rank_one_equals_plain(self):
        state = random_pure(2, 5)
        rho = state.reduce([0, 1])
        kind = MeasureKind("eof", assisted=True)
        est = assisted_estimate(rho, kind, budget=10, seed=1)
        assert est.status == "heuristic"
        assert est.value == pytest.approx(float(eof(state, [0])), abs=1e-9)

    def test_maximally_mixed_range(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        est = assisted_estimate(rho, MeasureKind("eof", assisted=True),
                                budget=30, seed=2)
        assert 0.0 <= est.value <= 1.0

    def test_monotone_in_budget(self):
        rho = DensityMatrix(bell_projector(0.6), (2, 2))
        kind = MeasureKind("eof", assisted=True)
        for seed in (0, 1, 2):
            vals = [assisted_estimate(rho, kind, budget=b, seed=seed).value
                    for b in (0, 5, 20, 60)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_monotone_across_restart_blocks(self, rank):
        # a 4-qubit Haar state with its CD part cut to `rank` basis states:
        # rho_AB has rank `rank`, so ensembles reach rank² = 16 members
        for i in range(2):
            amps = random_pure(4, seed_path(141, rank, i)).amplitudes.reshape(4, 4).copy()
            amps[:, rank:] = 0.0
            rho = PureState(amps.ravel() / np.linalg.norm(amps), (2,) * 4).reduce([0, 1])
            for kind in ASSISTED:
                vals = [assisted_estimate(rho, kind, budget=b, seed=i).value
                        for b in (0, 255, 256, 257, 513)]
                assert all(a <= b for a, b in zip(vals, vals[1:]))
                assert assisted_estimate(rho, kind, budget=513, seed=i).value == vals[-1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 4), st.integers(0, 40),
           st.sampled_from([MeasureKind("eof", assisted=True)] +
                           [MeasureKind("tsallis", q=q, assisted=True) for q in (1.5, 2.0, 3.5)]))
    def test_between_the_convex_roof_and_the_marginal_entropy(self, seed, n, budget, kind):
        # every decomposition average is at least the convex roof, and by
        # concavity of the entropy at most the entropy of the A marginal
        state = random_pure(n, seed_path(seed, 0))
        j = 1 + seed % (n - 1)
        rho = state.reduce([0, j])
        est = assisted_estimate(rho, kind, budget=budget, seed=seed_path(seed, 1)).value
        plain = dataclasses.replace(kind, assisted=False).two_qubit_value(rho)
        assert plain - 1e-12 <= est <= kind.pure_value(state, [0]) + 1e-12

    def test_dominates_plain_measure(self):
        for i in range(10):
            rho = random_pure(3, seed_path(91, i)).reduce([0, 1])
            for kind in (MeasureKind("eof", assisted=True),
                         MeasureKind("tsallis", q=2.0, assisted=True),
                         MeasureKind("renyi", order=2.0, assisted=True)):
                plain = dataclasses.replace(kind, assisted=False).two_qubit_value(rho)
                est = assisted_estimate(rho, kind, budget=25, seed=i)
                assert est.value >= plain - 1e-9

    def test_deterministic(self):
        rho = DensityMatrix(bell_projector(0.3), (2, 2))
        kind = MeasureKind("tsallis", q=2.0, assisted=True)
        a = assisted_estimate(rho, kind, budget=40, seed=9).value
        b = assisted_estimate(rho, kind, budget=40, seed=9).value
        assert a == b

    def test_requires_assisted_kind(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        with pytest.raises(ParameterError):
            assisted_estimate(rho, MeasureKind("eof"), budget=5, seed=0)

    def test_stack_needs_one_seed_per_state(self):
        # a short seed list would leave the last states without draws
        rhos = np.stack([np.eye(4) / 4] * 3)
        kind = MeasureKind("eof", assisted=True)
        with pytest.raises(ParameterError):
            assisted_estimates(rhos, kind, 5, [0, 1])
        assert assisted_estimates(rhos, kind, 5, [0, 1, 2]).shape == (3,)


@pytest.mark.parametrize("call,error,message", [
    (lambda: MeasureValue(0.5, "bogus"), ParameterError, "unknown certification status"),
    (lambda: MeasureValue.interval(1, 0), ParameterError, "bad interval"),
    (lambda: MeasureKind("eof", order=2), ParameterError, "order is only meaningful for renyi"),
    (lambda: MeasureKind("tsallis"), ParameterError,
     "^tsallis requires finite q > 0, q != 1, got None$"),
    (lambda: MeasureKind("tsallis", q=1.0), ParameterError,
     "^tsallis requires finite q > 0, q != 1, got 1.0$"),
    (lambda: MeasureKind("tsallis", q=math.inf), ParameterError,
     "^tsallis requires finite q > 0, q != 1, got inf$"),
    (lambda: MeasureKind("renyi"), ParameterError,
     "^renyi requires finite order > 0, order != 1, got None$"),
    (lambda: MeasureKind("renyi", order=1), ParameterError,
     "^renyi requires finite order > 0, order != 1, got 1$"),
    (lambda: MeasureKind("eof", q=2.0), ParameterError,
     "^q is only meaningful for tsallis, got kind 'eof'$"),
    # q is checked before order, whichever family is named
    (lambda: MeasureKind("renyi", q=2.0), ParameterError,
     "^q is only meaningful for tsallis, got kind 'renyi'$"),
    (lambda: MeasureKind("tsallis", order=2.0), ParameterError,
     "^tsallis requires finite q > 0, q != 1, got None$"),
    (lambda: MeasureKind("tsallis", q=2.0, order=2.0), ParameterError,
     "^order is only meaningful for renyi, got kind 'tsallis'$"),
    # a parameter that is not a real number raised TypeError in math.isfinite
    (lambda: MeasureKind("tsallis", q="2"), ParameterError,
     "^tsallis requires finite q > 0, q != 1, got 2$"),
    (lambda: MeasureKind("tsallis", q=2.5 + 0j), ParameterError,
     r"^tsallis requires finite q > 0, q != 1, got \(2\.5\+0j\)$"),
    (lambda: assisted_estimates(np.eye(4)[None] / 4, MeasureKind("eof", assisted=True), -1,
                                [0]), ParameterError, "budget must be nonnegative"),
    (lambda: CONCURRENCE.pair_values(EX1, 0, [0]), ParameterError, "distinct partners"),
    (lambda: CONCURRENCE.pair_values(EX1, 0, [1, 1]), ParameterError, "distinct partners"),
    (lambda: CONCURRENCE.pair_values(EX1, 0, []), ParameterError, "distinct partners"),
    (lambda: CONCURRENCE.pair_values(EX1, 0, [3]), DimensionError, "out of range"),
    (lambda: CONCURRENCE.pair_values(EX1, -1), DimensionError, "out of range"),
], ids=["status", "reversed-interval", "eof-order", "tsallis-no-q", "tsallis-q-1",
        "tsallis-q-inf", "renyi-no-order", "renyi-order-1", "eof-q", "renyi-q",
        "tsallis-order-no-q", "tsallis-order", "tsallis-q-string", "tsallis-q-complex",
        "negative-budget", "pair-with-side",
        "repeated-pair", "no-pairs", "pair-out-of-range", "side-out-of-range"])
def test_measure_inputs_are_checked(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("kind,label", [
    (MeasureKind("eof"), "eof"),
    (MeasureKind("tsallis", q=2.5), "tsallis(q=2.5)"),
    (MeasureKind("renyi", order=2.0), "renyi(order=2)"),
    (MeasureKind("renyi", order=1.2, assisted=True), "assisted-renyi(order=1.2)"),
    (MeasureKind("concurrence", assisted=True), "assisted-concurrence"),
])
def test_label_names_the_family_and_its_parameter(kind, label):
    assert kind.label == label


class TestMeasureKindValidation:
    def test_bad_names_and_params(self):
        with pytest.raises(ParameterError):
            MeasureKind("entropy")
        with pytest.raises(ParameterError):
            MeasureKind("tsallis")  # missing q
        with pytest.raises(ParameterError):
            MeasureKind("tsallis", q=1.0)
        with pytest.raises(ParameterError):
            MeasureKind("renyi", order=-1.0)
        with pytest.raises(ParameterError):
            MeasureKind("concurrence", q=2.0)
