"""Property tests of the pure-state fast paths against the slow reference
paths of dense_reference: amplitude-matrix reductions, which take no
eigvalsh, against the partial trace of the full projector, the stacked
marginal-spectrum and pair-concurrence kernels against the spectra of
those reductions and
Wootters' pre-concurrence form on the pair ensembles and against the
Wootters form of the partial trace,
Schmidt-coefficient and factor-kernel negativities against the
partial-transpose trace norm,
and the amplitude concurrence intervals of the chain links and of
MeasureKind.evaluate on a group against the dense intervals of the
explicitly formed group states."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (CapabilityError, DensityMatrix, MeasureKind, PureState,
                     bound_family, ghz, negativity, random_pure, seed_path, w_state)
from entmono.bounds import Chain
from entmono.measures import (assisted_estimate, marginal_spectra, pair_concurrences,
                              wootters_concurrence)

from dense_reference import (dense_concurrence_interval, partial_transpose,
                             psd_eigvals, slow_reduce, trace_norm)

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


def slow_negativity(state: PureState, sides, group=None) -> float:
    """||rho_G^{T_S}||_1 - 1 of the group state (default: the whole register)
    formed from the full projector."""
    group = list(range(state.n_qubits)) if group is None else group
    rho = slow_reduce(state, group)
    pt = rho.matrix
    for i in sides:
        pt = partial_transpose(pt, rho.dims, group.index(i))
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
            out.append(dense_concurrence_interval(group, side=0).bounds)
    return out


def fast_chain_bounds(state: PureState):
    chain = Chain(state, bound_family("concurrence"))
    return [link.bounds for link in chain.links]


def proper_subsets(n: int):
    return [[i for i in range(n) if mask >> i & 1] for mask in range(1, 2 ** n)]


@FAST
@given(pure_states())
def test_reduce_matches_partial_trace(state):
    subsets = proper_subsets(state.n_qubits)
    # a Gram matrix is a density matrix by construction: no O(d³) eigvalsh check
    with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError("eigvalsh")):
        reductions = [state.reduce(keep) for keep in subsets]
    for keep, fast in zip(subsets, reductions):
        ref = slow_reduce(state, keep)
        assert fast.dims == ref.dims
        assert np.max(np.abs(fast.matrix - ref.matrix)) <= 1e-13
        # the trusted result meets the public contract, which keeps its bytes
        public = DensityMatrix(fast.matrix, fast.dims)
        assert public.matrix.tobytes() == fast.matrix.tobytes() and public.dims == fast.dims


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
@given(st.integers(2, 7), st.data(), st.integers(0, 2 ** 31 - 1))
def test_product_qubits_read_zero_concurrence(n, data, seed):
    """k product qubits times a Haar state on the rest: a cut that splits
    off product qubits only reads concurrence and cren 0 to 1e-14, since the
    Schmidt coefficients carry no absolute eigenvalue noise."""
    k = data.draw(st.integers(1, n - 1))
    amps = np.kron(product_amplitudes(k, seed_path(seed, 1)),
                   random_pure(n - k, seed_path(seed, 0)).amplitudes)
    state = PureState(amps / np.linalg.norm(amps), (2,) * n)
    for keep in proper_subsets(k):
        for kind in ("concurrence", "cren"):
            assert MeasureKind(kind).pure_value(state, keep) <= 1e-14
    for keep in proper_subsets(n)[:-1]:
        fast = marginal_spectra(state.amplitudes, state.dims, keep)
        ref = psd_eigvals(slow_reduce(state, keep).matrix)
        assert np.max(np.abs(np.pad(fast, (0, ref.size - fast.size)) - ref)) <= 1e-12


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


@st.composite
def pair_cases(draw):
    """A 2-6 qubit state and the set of its qubits in a product with the rest.

    Haar, GHZ and W states; a product state on B_1..B_k times a Haar state
    on the others; and a Haar state on the first m qubits times a
    computational basis state on the rest, whose pairs inside the first m
    have rank 1 (m = 2) or 2 (m = 3).
    """
    n = draw(st.integers(2, 6))
    family = draw(st.sampled_from(["haar", "ghz", "w", "product", "basis"]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    if family == "product":
        k = draw(st.integers(1, n - 1))
        # with k = n - 1 the Haar factor is A alone, so A is a product qubit too
        product = set(range(1, k + 1)) | ({0} if k == n - 1 else set())
        return partly_product(n, k, seed), product
    if family == "basis":
        m = draw(st.integers(2, min(3, n)))
        rest = np.zeros(2 ** (n - m))
        rest[draw(st.integers(0, rest.size - 1))] = 1.0
        amps = np.kron(random_pure(m, seed).amplitudes, rest)
        return PureState(amps, (2,) * n), set(range(m, n))
    if family == "ghz":
        return ghz(n), set()
    if family == "w":
        return w_state(n), set()
    return random_pure(n, seed), set()


@FAST
@given(pair_cases())
def test_pair_concurrences_match_the_dense_wootters_route(case):
    state, product = case
    n = state.n_qubits
    # a product pair reads the roundoff of its route: the amplitude factor
    # of n <= 4 qubits gives ~2e-16, the eigen-factor of the Gram matrix
    # on wider registers ~2e-15
    zero = 1e-15 if n <= 4 else 1e-14
    for side in range(n):
        others = [j for j in range(n) if j != side]
        fast = pair_concurrences(state.amplitudes, state.dims, side, others)
        for j, c in zip(others, fast):
            dense = wootters_concurrence(slow_reduce(state, [side, j]).matrix)
            assert abs(c - dense) <= 1e-12
            if {side, j} & product:
                assert c <= zero


PLAIN_PAIR_KINDS = [MeasureKind("concurrence"), MeasureKind("cren"), MeasureKind("eof"),
                    MeasureKind("tsallis", q=2.5), MeasureKind("renyi", order=2.0)]
ASSISTED_PAIR_KINDS = [MeasureKind("eof", assisted=True),
                       MeasureKind("tsallis", q=1.5, assisted=True),
                       MeasureKind("renyi", order=1.2, assisted=True)]


@FAST
@given(pure_states(3, 7), st.data())
def test_pair_values_are_the_values_of_the_pair_states(state, data):
    # the one pair route against each pair state formed on its own: 5 or
    # more qubits take the Gram route of pair_concurrences
    n = state.n_qubits
    side = data.draw(st.integers(0, n - 1))
    others = data.draw(st.permutations([j for j in range(n) if j != side]))
    others = others[:data.draw(st.integers(1, n - 1))]
    seed = data.draw(st.integers(0, 2 ** 31 - 1))
    rhos = [state.reduce([side, j]) for j in others]
    for kind in PLAIN_PAIR_KINDS:
        want = [kind.two_qubit_value(rho) for rho in rhos]
        assert np.max(np.abs(kind.pair_values(state, side, others) - want)) <= 1e-12
    with pytest.raises(CapabilityError):
        MeasureKind("tsallis", q=5.0).pair_values(state, side, others)
    kind = data.draw(st.sampled_from(ASSISTED_PAIR_KINDS))
    want = [assisted_estimate(rho, kind, budget=8, seed=seed_path(seed, i)).value
            for i, rho in enumerate(rhos)]
    assert kind.pair_values(state, side, others, budget=8, seed=seed).tolist() == want


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


@settings(max_examples=100, deadline=None)
@given(pure_states(min_qubits=3, max_qubits=8), st.data())
def test_group_negativity_matches_the_dense_partial_transpose(state, data):
    n = state.n_qubits
    group = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 1)))
    side = sorted(data.draw(st.sets(st.sampled_from(group), min_size=1,
                                    max_size=len(group) - 1)))
    got = negativity(state, side, group)
    assert got.status == "exact"
    assert abs(got.value - slow_negativity(state, side, group)) <= 1e-12


# (side, group): a leading, a trailing and a middle side, sides of several
# qubits that do or do not lead, and the larger part of the group as the side
GROUP_SHAPES = [([0], [0, 1]), ([1], [0, 1]), ([3], [0, 3, 5]), ([2], [1, 2, 4]),
                ([0, 2], [0, 1, 2, 4]), ([2, 4], [0, 2, 3, 4]), ([1, 3, 4], [1, 2, 3, 4]),
                ([0, 1, 2, 3], [0, 1, 2, 3, 5]), ([5], [0, 1, 2, 3, 4, 5]),
                ([1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5])]


@pytest.mark.parametrize("side,group", GROUP_SHAPES)
def test_every_group_shape_matches_the_dense_partial_transpose(side, group):
    for state in [random_pure(7, seed_path(41, i)) for i in range(3)] + [w_state(7)]:
        want = slow_negativity(state, side, group)
        assert abs(float(negativity(state, side, group)) - want) <= 1e-12


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
@given(pure_states(min_qubits=3))
def test_cren_links_are_the_concurrence_links(state):
    # group_link proves the CREN of one qubit against a group is its concurrence
    conc = Chain(state, bound_family("concurrence")).links
    cren = Chain(state, bound_family("cren")).links
    for c, r in zip(conc, cren):
        assert c.status == r.status
        assert np.max(np.abs(np.subtract(c.bounds, r.bounds))) <= 1e-12


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


@FAST
@given(pure_states(min_qubits=4), st.data())
def test_concurrence_interval_matches_the_dense_group_interval(state, data):
    n = state.n_qubits
    group = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=3, max_size=n)))
    side = data.draw(st.sampled_from(group))
    fast = MeasureKind("concurrence").evaluate(state, side, group)
    slow = dense_concurrence_interval(slow_reduce(state, group), side=group.index(side))
    assert fast.status == slow.status
    # squared and, away from 0, plain, as in the chain test above: a side
    # qubit in a product state has C = sqrt(2[1 - Tr rho²]) ~ 1e-8 of
    # roundoff on either path
    fast, slow = np.array(fast.bounds), np.array(slow.bounds)
    assert np.max(np.abs(fast ** 2 - slow ** 2)) <= 1e-13
    assert np.max(np.abs(fast - slow)[slow > 1e-6], initial=0.0) <= 1e-12
