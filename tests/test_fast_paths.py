"""Property tests of the pure-state fast paths against the slow reference
paths: amplitude-matrix reductions against the partial trace of the full
projector, the stacked marginal-spectrum and pair-concurrence kernels
against the spectra of those reductions and Wootters' pre-concurrence
form on the pair ensembles, Schmidt-coefficient negativity against the partial-transpose trace norm,
and the concurrence chain bounds against certified intervals of the
explicitly formed group states."""

import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (DensityMatrix, MeasureKind, PureState, bound_family,
                     concurrence_interval, ghz, measure_chain, negativity,
                     partial_trace, partial_transpose, random_pure, seed_path,
                     trace_norm, w_state)
from entmono.densemat import psd_eigvals
from entmono.measures import marginal_spectra, pair_concurrences

FAST = settings(max_examples=30, deadline=None)


def product_amplitudes(n: int, seed) -> np.ndarray:
    singles = [random_pure(1, seed_path(seed, i)).amplitudes for i in range(n)]
    return functools.reduce(np.kron, singles)


def partly_product(n: int, k: int, seed) -> PureState:
    """B_1..B_k in a product state, times a Haar state on A, B_{k+1}..B_{N-1}."""
    core = random_pure(n - k, seed_path(seed, 0)).amplitudes.reshape(2, -1)
    side = product_amplitudes(k, seed_path(seed, 1))
    amps = np.einsum("ac,b->abc", core, side).reshape(-1)
    return PureState(amps / np.linalg.norm(amps), (2,) * n)


@st.composite
def pure_states(draw, min_qubits=2, max_qubits=7):
    n = draw(st.integers(min_qubits, max_qubits))
    family = draw(st.sampled_from(["haar", "haar", "ghz", "w", "product", "decoupled"]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    if family == "decoupled" and n >= 4:
        return partly_product(n, draw(st.integers(1, n - 3)), seed)
    if family == "ghz":
        return ghz(n)
    if family == "w":
        return w_state(n)
    if family == "product":
        amps = product_amplitudes(n, seed)
        return PureState(amps / np.linalg.norm(amps), (2,) * n)
    return random_pure(n, seed)


def slow_reduce(state: PureState, keep) -> DensityMatrix:
    """Reference: partial trace of the full projector, fully validated."""
    keep = sorted(keep)
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(partial_trace(rho, state.dims, keep),
                         tuple(state.dims[i] for i in keep))


def pair_ensemble(state: PureState, i: int) -> np.ndarray:
    """(4, d_rest) columns phi_k = <k|_rest psi with sum_k phi_k phi_k† = rho_{A,B_i}."""
    psi = state.amplitudes.reshape(state.dims)
    return np.moveaxis(psi, [0, i], [0, 1]).reshape(4, -1)


def ensemble_concurrence(phi: np.ndarray) -> float:
    """Wootters' C = max(0, l1 - l2 - l3 - l4) of rho = phi phi†.

    The l_i are the singular values of phi^T (sy x sy) phi, the
    pre-concurrences of the ensemble.  Unlike the eigenvalue form
    sqrt(eig(rho rho~)), which is off by up to ~sqrt(eps) on the
    rank-deficient pair states of small or structured registers, this
    takes no square root of a vanishing eigenvalue.
    """
    sy_sy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    lam = np.pad(np.linalg.svd(phi.T @ sy_sy @ phi, compute_uv=False), (0, 4))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def slow_negativity(state: PureState, sides) -> float:
    pt = np.outer(state.amplitudes, state.amplitudes.conj())
    for idx in sides:
        pt = partial_transpose(pt, state.dims, idx)
    return max(0.0, trace_norm(pt) - 1.0)


def slow_chain_bounds(state: PureState):
    """The concurrence chain with every group state formed explicitly."""
    kind = MeasureKind("concurrence")
    n = state.n_qubits
    full = kind.pure_value(state, [0])
    out = [(full, full)]
    for r in range(2, n):
        group = slow_reduce(state, [0] + list(range(r, n)))
        if r == n - 1:
            v = kind.two_qubit_value(group)
            out.append((v, v))
        else:
            out.append(concurrence_interval(group, side=0).bounds)
    return out


def fast_chain_bounds(state: PureState):
    chain = measure_chain(state, bound_family("concurrence"))
    return [(link.lo, link.hi) for link in chain.links]


def proper_subsets(n: int):
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1, 2 ** n)]


@FAST
@given(pure_states())
def test_reduce_matches_partial_trace(state):
    for keep in proper_subsets(state.n_qubits):
        fast = state.reduce(keep)
        ref = slow_reduce(state, keep)
        assert fast.dims == ref.dims
        assert np.max(np.abs(fast.matrix - ref.matrix)) <= 1e-13
        psd_eigvals(fast.matrix)  # the trusted result meets the public contract


@st.composite
def state_stacks(draw):
    """1-4 states of one register size, 2-7 qubits."""
    n = draw(st.integers(2, 7))
    return draw(st.lists(pure_states(min_qubits=n, max_qubits=n), min_size=1, max_size=4))


@FAST
@given(state_stacks())
def test_marginal_spectra_match_reduced_spectra(states):
    amps, dims = np.array([s.amplitudes for s in states]), states[0].dims
    for keep in proper_subsets(len(dims)):
        spectra = marginal_spectra(amps, dims, keep)
        assert spectra.shape[0] == len(states)
        for state, fast in zip(states, spectra):
            ref = psd_eigvals(slow_reduce(state, keep).matrix)
            assert np.all(fast[:-1] >= fast[1:]) and np.all(fast >= 0.0)
            fast = np.pad(fast, (0, ref.size - fast.size))  # the shorter side, zero-padded
            assert np.max(np.abs(fast - ref)) <= 1e-13


@FAST
@given(state_stacks())
def test_pair_concurrences_match_the_ensemble_form(states):
    amps, n = np.array([s.amplitudes for s in states]), states[0].n_qubits
    pairs = pair_concurrences(amps, states[0].dims)
    assert pairs.shape == (len(states), n - 1)
    for state, row in zip(states, pairs):
        for i in range(1, n):
            phi = pair_ensemble(state, i)
            assert np.max(np.abs(phi @ phi.conj().T - slow_reduce(state, [0, i]).matrix)) <= 1e-13
            assert abs(row[i - 1] - ensemble_concurrence(phi)) <= 1e-12


@FAST
@given(pure_states(max_qubits=6))
def test_density_matrix_is_the_projector(state):
    rho = state.density_matrix()
    ref = np.outer(state.amplitudes, state.amplitudes.conj())
    assert np.array_equal(rho.matrix, ref)
    psd_eigvals(rho.matrix)


@FAST
@given(pure_states(), st.data())
def test_pure_negativity_matches_trace_norm(state, data):
    n = state.n_qubits
    for side in range(n):
        got = float(negativity(state, side=side))
        assert abs(got - slow_negativity(state, [side])) <= 1e-12
    group = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1)))
    got = float(negativity(state, side=group))
    assert abs(got - slow_negativity(state, group)) <= 1e-12


@FAST
@given(pure_states(min_qubits=3))
def test_chain_bounds_match_group_state_intervals(state):
    # Compared squared: C = sqrt(2[1 - Tr rho_A²]) turns the roundoff of a
    # purity next to 1 into ~1e-8 on product states, where both paths are
    # equally noisy; C² is the well-conditioned quantity.
    fast = fast_chain_bounds(state)
    slow = slow_chain_bounds(state)
    assert len(fast) == len(slow) == state.n_qubits - 1
    for f, s in zip(fast, slow):
        assert np.max(np.abs(np.square(f) - np.square(s))) <= 1e-13
        if min(s) > 1e-6:
            assert np.max(np.abs(np.subtract(f, s))) <= 1e-12


@FAST
@given(st.integers(4, 7), st.data())
def test_pure_groups_collapse_to_the_upper_leg(n, data):
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    # with B_1..B_k decoupled, every group A,B_r.. with r <= k + 1 is pure,
    # while the pair sum of the lower leg stays below C(A|rest)
    k = data.draw(st.integers(1, n - 3))
    chain = fast_chain_bounds(partly_product(n, k, seed))
    full = chain[0][0]
    assert full > 0.0
    assert chain[:k + 1] == [(full, full)] * (k + 1)
    # a product state is pure on every group
    amps = product_amplitudes(n, seed)
    chain = fast_chain_bounds(PureState(amps / np.linalg.norm(amps), (2,) * n))
    assert all(lo == hi for lo, hi in chain)
    assert max(hi for _, hi in chain) <= 1e-7
