"""Property tests of the closed-form qubit kernels of measures against the
references of qubit_reference: the spectrum of a 2 x m amplitude matrix
(_qubit_spectra) within SCHMIDT_RADIUS of the exact spectrum and of the
svd route, and the Wootters value of a 2 x 2 L^T (sy x sy) L
(_wootters_2x2) within WOOTTERS_RADIUS of the svd route; W_3 and GHZ_3
and their Haar local-unitary copies against their known values; product
qubits, whose values read exactly 0 (the decided zeros); the three
concurrence kernels of a 3-qubit state against the three-tangle of its
hyperdeterminant; and a stack of one state against its row of a 1024-row
block, bit for bit, which corpus --suite all and the CLI both rely on."""

import functools
import math
from decimal import Decimal
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entmono import MeasureKind, ghz, random_pure, w_state
from entmono.measures import (SCHMIDT_RADIUS, WOOTTERS_RADIUS, marginal_spectra,
                              pair_concurrences, pair_factors)
from entmono.states import haar_blocks, split_amplitudes

from qubit_reference import (exact_spectrum, hyperdeterminant, local_copy, product_state,
                             svd_factor_concurrence, svd_spectra)

FAST = settings(max_examples=40, deadline=None)
SEEDS = st.integers(0, 2 ** 31 - 1)
UNIT_ROUNDOFF = 2.0 ** -53

# Over 36,000 draws (3000 seeds of each state kind below, with each focus
# qubit) the three-tangle residual was at most 7.6u on AVX-512 kernels and
# 7.2u on AVX2 ones (worst on a rotated W_3); the bound leaves room for the
# draws of any run
TANGLE_ULPS = 32

PLAIN_KINDS = [MeasureKind("concurrence"), MeasureKind("cren"), MeasureKind("eof"),
               MeasureKind("tsallis", q=2.5), MeasureKind("renyi", order=2.0)]
ASSISTED_EOF = MeasureKind("eof", assisted=True)


def proper_subsets(n: int):
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1, 2 ** n - 1)]


def test_three_qubit_kernels_call_no_lapack():
    state = random_pure(3, 5)
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("svd")):
        for keep in proper_subsets(3):
            marginal_spectra(state.amplitudes, state.dims, keep)
        for side in range(3):
            pair_concurrences(state.amplitudes, state.dims, side)


def concurrence(p) -> float:
    return 2.0 * math.sqrt(p[0] * p[1])


@FAST
@given(st.integers(2, 4), SEEDS)
def test_spectra_match_the_exact_and_the_svd_spectra(n, seed):
    # the closed form is within SCHMIDT_RADIUS of the exact spectrum of the
    # stored amplitudes; the svd route is off by up to 10.4u on Haar 3-qubit
    # states, so the two routes agree within twice the radius
    amps, dims = random_pure(n, seed).amplitudes, (2,) * n
    for keep in proper_subsets(n):
        fast, ref = marginal_spectra(amps, dims, keep), svd_spectra(amps, dims, keep)
        assert fast.shape == ref.shape and np.all(fast[:-1] >= fast[1:])
        assert np.max(np.abs(fast - ref)) <= 2.0 * SCHMIDT_RADIUS
        if fast.size == 2:
            assert abs(concurrence(fast) - concurrence(ref)) <= 2.0 * SCHMIDT_RADIUS
    for qubit in range(n):
        fast = marginal_spectra(amps, dims, [qubit])
        exact = exact_spectrum(split_amplitudes(amps, dims, [qubit]))
        assert max(abs(Decimal(float(p)) - e) for p, e in zip(fast, exact)) <= SCHMIDT_RADIUS
        exact_conc = 2 * (exact[0] * exact[1]).sqrt()
        assert abs(Decimal(concurrence(fast)) - exact_conc) <= SCHMIDT_RADIUS


@FAST
@given(st.integers(3, 4), SEEDS)
def test_pair_concurrences_match_the_svd_route(n, seed):
    amps = random_pure(n, seed).amplitudes
    for side in range(n):
        fast = pair_concurrences(amps, (2,) * n, side)
        ref = svd_factor_concurrence(pair_factors(amps, (2,) * n, side))
        assert np.max(np.abs(fast - ref)) <= WOOTTERS_RADIUS


@FAST
@given(st.sampled_from(["w", "ghz"]), st.booleans(), SEEDS)
def test_w_and_ghz_read_their_known_values(name, rotate, seed):
    # C(A|BC) = 2 sqrt(2)/3 and pairs 2/3 for W_3; 1 and exactly 0 for GHZ_3
    state = (w_state if name == "w" else ghz)(3)
    if rotate:
        state = local_copy(state, seed)
    full, pair = (2.0 * math.sqrt(2.0) / 3.0, 2.0 / 3.0) if name == "w" else (1.0, 0.0)
    for side in range(3):
        assert abs(MeasureKind("concurrence").pure_value(state, [side]) - full) <= 1e-14
        pairs = pair_concurrences(state.amplitudes, state.dims, side)
        if name == "ghz":
            assert pairs.tolist() == [0.0, 0.0]
        else:
            assert np.max(np.abs(pairs - pair)) <= 1e-14


@FAST
@given(st.integers(2, 4), st.data(), SEEDS)
def test_product_qubits_read_exactly_zero(n, data, seed):
    position = data.draw(st.integers(0, n - 1))
    state = product_state(n, position, seed)
    assert marginal_spectra(state.amplitudes, state.dims, [position]).tolist() == [1.0, 0.0]
    for kind in PLAIN_KINDS:
        assert kind.pure_value(state, [position]) == 0.0
    if n == 3:
        others = [j for j in range(3) if j != position]
        assert pair_concurrences(state.amplitudes, state.dims, position).tolist() == [0.0, 0.0]
        for side in others:
            assert pair_concurrences(state.amplitudes, state.dims, side, [position]).tolist() \
                == [0.0]
        # the member concurrences of an assisted estimate share the decided zero
        assert ASSISTED_EOF.pair_values(state, position, others, budget=3).tolist() == [0.0, 0.0]


@FAST
@given(st.sampled_from(["haar", "w", "ghz", "product"]), st.integers(0, 2), SEEDS)
def test_the_concurrence_kernels_obey_the_three_tangle_identity(name, side, seed):
    # C²(A|BC) = C²(A,B) + C²(A,C) + 4|Det psi| for every choice of the
    # focus qubit A (Coffman, Kundu and Wootters); the hyperdeterminant has
    # no square root, so a kernel biased low fails here though ckw's >= 0
    # check would pass it
    if name == "haar":
        state = random_pure(3, seed)
    elif name == "product":
        state = product_state(3, seed % 3, seed)
    else:
        state = local_copy((w_state if name == "w" else ghz)(3), seed)
    full = MeasureKind("concurrence").pure_value(state, [side])
    ab, ac = pair_concurrences(state.amplitudes, state.dims, side).tolist()
    tangle = 4.0 * abs(hyperdeterminant(state.amplitudes))
    assert abs(full ** 2 - ab ** 2 - ac ** 2 - tangle) <= TANGLE_ULPS * UNIT_ROUNDOFF


@functools.lru_cache(maxsize=None)
def block(n: int) -> np.ndarray:
    return haar_blocks({n}, 7, 0, 1024)[n]


@FAST
@given(st.integers(0, 1023), st.sampled_from([2, 3]))
@example(22, 2)  # a lone 2 x 2 matrix rounded otherwise before it ran as a stack of one
def test_a_stack_of_one_has_the_bits_of_its_block_row(row, n):
    amps, dims = block(n), (2,) * n
    for keep in proper_subsets(n):
        whole = marginal_spectra(amps, dims, keep)[row]
        for one in (amps[row], amps[row:row + 1]):
            assert marginal_spectra(one, dims, keep).reshape(-1).tobytes() == whole.tobytes()
    if n == 3:
        for side in range(3):
            whole = pair_concurrences(amps, dims, side)[row]
            for one in (amps[row], amps[row:row + 1]):
                assert pair_concurrences(one, dims, side).reshape(-1).tobytes() == \
                    whole.tobytes()
