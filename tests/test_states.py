"""State-construction tests: the five-amplitude family, GHZ/W, Haar
sampling, reductions and the state-file format."""

import json

import numpy as np
import pytest

from entmono import (ContractError, DensityMatrix, DimensionError,
                     ParameterError, PureState, SchmidtParams, bell, concurrence_pure,
                     concurrence_two_qubit,
                     example1_params, ghz, load_state, random_pure,
                     save_state, schmidt3, seed_path, w_state)
from entmono.states import AMP_CAP

from dense_reference import partial_trace, purity


def random_schmidt(rng) -> SchmidtParams:
    lam = np.abs(rng.normal(size=5))
    lam /= np.linalg.norm(lam)
    return SchmidtParams(*lam, phi=rng.uniform(0, 2 * np.pi))


class TestSchmidt3:
    def test_example_point(self):
        state = schmidt3(example1_params())
        amps = state.amplitudes
        support = {i for i in range(8) if abs(amps[i]) > 0}
        assert support == {0b000, 0b110, 0b101, 0b111}
        assert abs(np.vdot(amps, amps) - 1) < 1e-14

    def test_product_state(self):
        state = schmidt3(SchmidtParams(1.0, 0, 0, 0, 0))
        assert abs(state.amplitudes[0] - 1.0) < 1e-15
        assert np.all(np.abs(state.amplitudes[1:]) == 0)

    def test_random_normalized(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = schmidt3(random_schmidt(rng))
            assert abs(np.vdot(state.amplitudes, state.amplitudes) - 1) < 1e-12

    def test_bad_normalization(self):
        with pytest.raises(ParameterError):
            SchmidtParams(1.0, 1.0, 0, 0, 0)
        with pytest.raises(ParameterError):
            SchmidtParams(-1.0, 0, 0, 0, 0)

    def test_closed_form_concurrences(self):
        # C(A|BC) = 2 l0 sqrt(l2²+l3²+l4²), C(AB) = 2 l0 l2, C(AC) = 2 l0 l3
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_schmidt(rng)
            state = schmidt3(p)
            c_abc = 2 * p.lambda0 * np.sqrt(p.lambda2 ** 2 + p.lambda3 ** 2 + p.lambda4 ** 2)
            assert abs(float(concurrence_pure(state, [0])) - c_abc) < 1e-10
            assert abs(float(concurrence_two_qubit(state.reduce([0, 1])))
                       - 2 * p.lambda0 * p.lambda2) < 1e-10
            assert abs(float(concurrence_two_qubit(state.reduce([0, 2])))
                       - 2 * p.lambda0 * p.lambda3) < 1e-10


class TestNamedStates:
    def test_bell_concurrence(self):
        assert abs(float(concurrence_pure(bell(), [0])) - 1.0) < 1e-12

    def test_w3_pairwise(self):
        pair = w_state(3).reduce([0, 1])
        assert abs(float(concurrence_two_qubit(pair)) - 2.0 / 3.0) < 1e-12

    def test_ghz3_pairwise_vanishes(self):
        pair = ghz(3).reduce([0, 1])
        assert float(concurrence_two_qubit(pair)) == 0.0

    def test_small_n_rejected(self):
        with pytest.raises(ParameterError):
            ghz(1)
        with pytest.raises(ParameterError):
            w_state(1)


class TestRandomPure:
    def test_deterministic(self):
        a = random_pure(3, 99)
        b = random_pure(3, 99)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = random_pure(3, 100)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    def test_norms(self):
        for i in range(1000):
            state = random_pure(2, seed_path(17, i))
            assert abs(np.vdot(state.amplitudes, state.amplitudes) - 1) < 1e-12

    def test_haar_marginal_purity(self):
        # For Haar 2-qubit states the marginal purity averages
        # (dA + dB)/(dA dB + 1) = 4/5.
        total = 0.0
        n = 2000
        for i in range(n):
            state = random_pure(2, seed_path(123, i))
            total += purity(state.reduce([0]))
        assert abs(total / n - 0.8) < 0.01


class TestReduce:
    def test_bell_marginal(self):
        rho = bell().reduce([0])
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)

    def test_consistency_square(self):
        # reducing in two hops equals reducing directly
        state = random_pure(4, 3)
        via = state.reduce([0, 1, 3])
        hop = partial_trace(via.matrix, via.dims, [0, 2])
        direct = state.reduce([0, 3])
        assert np.allclose(hop, direct.matrix, atol=1e-12)

    def test_purity_bounded(self):
        for i in range(50):
            rho = random_pure(3, seed_path(21, i)).reduce([0, 1])
            assert purity(rho) <= 1.0 + 1e-10

    def test_empty_keep(self):
        with pytest.raises(ParameterError):
            bell().reduce([])

    def test_out_of_range_keep(self):
        with pytest.raises(DimensionError):
            bell().reduce([0, 2])
        with pytest.raises(DimensionError):
            bell().reduce([-1])

    def test_trusted_result_is_read_only(self):
        rho = random_pure(3, 2).reduce([0, 2])
        assert not rho.matrix.flags.writeable
        assert rho.dims == (2, 2)


class TestDensityMatrixValidation:
    # each rejection with its type and the start of its message
    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError, match=r"^matrix shape \(2, 2\) does not match"):
            DensityMatrix(np.eye(2) / 2, (2, 2))
        with pytest.raises(DimensionError, match=r"^matrix shape \(4,\) does not match"):
            DensityMatrix(np.full(4, 0.25), (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(ContractError, match=r"^trace \(2\+0j\) deviates from 1"):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_nan_entries(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = np.nan
        with pytest.raises(ContractError, match="^matrix contains NaN or Inf entries"):
            DensityMatrix(m, (2,))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.25], [0.0, 0.5]])
        with pytest.raises(ContractError, match="^matrix is not Hermitian"):
            DensityMatrix(m, (2,))

    def test_rejects_non_psd(self):
        with pytest.raises(ContractError, match="^matrix is not PSD"):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_accepts_valid(self):
        rho = DensityMatrix(np.eye(4) / 4, (2, 2))
        assert purity(rho) == pytest.approx(0.25)


class TestPureStateValidation:
    @pytest.mark.parametrize("amps,dims,error,message", [
        ([np.nan, 1.0], (2,), ContractError, "^amplitudes contain NaN or Inf"),
        ([1.0, np.sqrt(0.1)], (2,), ParameterError, r"^state norm² = 1\.1"),
        ([1.0, 0.0, 0.0], (2, 2), DimensionError, r"^amplitude count 3 does not match"),
    ], ids=["nan", "norm-1.1", "size"])
    def test_rejects(self, amps, dims, error, message):
        with pytest.raises(error, match=message):
            PureState(np.array(amps, dtype=complex), dims)


class TestCaps:
    def test_amplitude_cap_is_twenty_qubits(self):
        assert AMP_CAP == 2 ** 20
        assert ghz(16).n_qubits == 16
        for make in (ghz, w_state, lambda n: random_pure(n, 0)):
            with pytest.raises(DimensionError):
                make(21)

    def test_dense_cap_on_reduction(self):
        state = ghz(14)
        with pytest.raises(DimensionError):
            state.reduce(range(13))
        assert state.reduce(range(2)).dims == (2, 2)

    def test_load_state_checks_the_cap(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n_qubits": 21, "amplitudes": [[1.0, 0.0]]}))
        with pytest.raises(DimensionError, match="cap"):
            load_state(path)


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        state = random_pure(3, 8)
        path = tmp_path / "state.json"
        save_state(state, path)
        back = load_state(path)
        assert back.n_qubits == 3
        assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-15)

    def test_rejects_bad_norm(self, tmp_path):
        path = tmp_path / "bad.json"
        rec = {"n_qubits": 1, "amplitudes": [[1.0, 0.0], [0.1, 0.0]]}
        path.write_text(json.dumps(rec))
        with pytest.raises(ParameterError):
            load_state(path)

    def test_rejects_wrong_count(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n_qubits": 2, "amplitudes": [[1.0, 0.0]]}))
        with pytest.raises(Exception):
            load_state(path)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"n_qubits": 1}))
        with pytest.raises(ParameterError):
            load_state(path)

    @pytest.mark.parametrize("entry", [True, False, None, "0.5", [0.5], 10 ** 400])
    def test_amplitude_entries_must_be_real_numbers(self, entry, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[1, 0], [0, entry]]}))
        with pytest.raises(ParameterError, match="malformed state file"):
            load_state(path)

    def test_integer_amplitudes_load(self, tmp_path):
        path = tmp_path / "int.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[0, 0], [0, 1]]}))
        assert np.array_equal(load_state(path).amplitudes, [0, 1j])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_amplitudes(self, bad, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[bad, 0], [0, 0]]}))
        with pytest.raises(ParameterError, match="finite"):
            load_state(path)

    @pytest.mark.parametrize("n", [0, -1, True, "1", 1.0])
    def test_n_qubits_must_be_a_positive_integer(self, n, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(json.dumps({"n_qubits": n, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        with pytest.raises(ParameterError, match="n_qubits"):
            load_state(path)


def test_seed_path_flattens():
    assert seed_path(5) == (5,)
    assert seed_path(5, 2) == (5, 2)
    assert seed_path((5, 2), 7) == (5, 2, 7)
