"""Measure tests: closed-form worked-example values, scalar helper
functions, consistency identities, additivity grids and the heuristic
assisted estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (CapabilityError, DensityMatrix, DomainError,
                     MeasureKind, ParameterError, assisted_estimate, bell,
                     concurrence_interval, concurrence_pure,
                     concurrence_two_qubit, eof, eof as _eof,
                     example1_params, f_eof, f_renyi, g_tsallis, ghz,
                     negativity, random_pure, renyi, schmidt3, seed_path,
                     tsallis, w_state)

EX1 = schmidt3(example1_params())
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
        rho = EX1.density_matrix()
        mv = concurrence_interval(rho, side=0)
        assert mv.status == "exact"
        assert abs(mv.value - C_ABC) < 1e-10

    def test_ghz4_reduction(self):
        rho = ghz(4).reduce([0, 1, 2])
        mv = concurrence_interval(rho, side=0)
        assert mv.status == "interval"
        assert mv.lo == pytest.approx(0.0, abs=1e-12)  # pairwise concurrences vanish
        assert mv.hi == pytest.approx(1.0, abs=1e-10)  # sqrt(2 (1 - 1/2))

    def test_ordered_on_random_reductions(self):
        for i in range(500):
            rho = random_pure(4, seed_path(77, i)).reduce([0, 1, 2])
            mv = concurrence_interval(rho, side=0)
            lo, hi = mv.bounds
            assert lo <= hi + 1e-12


class TestNegativity:
    def test_bell(self):
        assert float(negativity(bell(), side=0)) == pytest.approx(1.0, abs=1e-12)

    def test_example1_group(self):
        assert float(negativity(EX1, side=0)) == pytest.approx(C_ABC, abs=1e-12)

    def test_separable(self):
        rho = DensityMatrix(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex), (2, 2))
        assert float(negativity(rho, side=0)) == 0.0


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
        assert f_renyi(C_AB, 2.0) == pytest.approx(math.log2(25 / 21), abs=1e-12)
        assert f_renyi(C_ABC, 2.0) == pytest.approx(math.log2(25 / 17), abs=1e-12)
        assert f_renyi(C_ABC, 2.0) == pytest.approx(0.556393, abs=1e-6)
        for order in (0.5, 2.0, 3.5):
            assert f_renyi(0.0, order) == pytest.approx(0.0, abs=1e-15)
            assert f_renyi(1.0, order) == pytest.approx(1.0, abs=1e-12)

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
        assert f_renyi(lo, order) <= f_renyi(hi, order) + 1e-12

    def test_monotone_grids(self):
        xs = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        fe = [f_eof(float(x)) for x in xs]
        assert np.all(np.diff(fe) >= -1e-12)
        for q in (1.5, 2.0, 3.0):
            gq = [g_tsallis(float(x), q) for x in xs]
            assert np.all(np.diff(gq) >= -1e-12)
        for order in (2.0, 3.0):
            fr = [f_renyi(float(x), order) for x in xs]
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


class TestConsistencyIdentities:
    def test_two_qubit_pure(self):
        for i in range(200):
            state = random_pure(2, seed_path(55, i))
            c = float(concurrence_pure(state, [0]))
            assert abs(float(eof(state, [0])) - f_eof(c * c)) < 1e-9
            for q in (2.0, 2.5, 3.0):
                assert abs(float(tsallis(state, [0], q=q)) - g_tsallis(c * c, q)) < 1e-9
            for order in (2.0, 3.0):
                assert abs(float(renyi(state, [0], order=order)) - f_renyi(c, order)) < 1e-9


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

    def test_dominates_plain_measure(self):
        for i in range(10):
            rho = random_pure(3, seed_path(91, i)).reduce([0, 1])
            for kind in (MeasureKind("eof", assisted=True),
                         MeasureKind("tsallis", q=2.0, assisted=True),
                         MeasureKind("renyi", order=2.0, assisted=True)):
                plain = kind.two_qubit_value(rho)
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
