"""Invariance of the measured chain and of verify's verdicts.

Every value of a Chain is an entanglement measure, so a local unitary on
each qubit leaves it unchanged, and relabeling B_1..B_{N-1} only permutes
the pair values.  A local-unitary copy of a state is the same state to
every theorem, so no clause of verify may read "holds" on one copy and
"fails" on the other (ROADMAP item 6).

Hypothesis draws Haar states and product qubit x Haar states of 3-6
qubits, GHZ_n and W_n, each against a copy with a Haar unitary on every
qubit (qubit_reference.local_copy), and every monogamy row of
bounds.THEOREMS with q or order inside its window.  The concurrence and
CREN rows run on every size; the entropic rows (eof, tsallis, renyi) run
on three qubits, the only size on which their chain conditions are
certified.  Values agree within VALUE_TOL: over 15 seeds per size and
kind of state, the worst deviation was 4.4e-15 for a rotated copy and
1.3e-15 for a relabeled one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import BoundParams, PureState, bound_family, ghz, random_pure, verify, w_state
from entmono.bounds import MONOGAMY, THEOREMS, Chain

from qubit_reference import local_copy, product_state

VALUE_TOL = 1e-13

SEEDS = st.integers(0, 2 ** 31 - 1)
FAST = settings(max_examples=40, deadline=None)

# q or order inside each monogamy window (the edges are drawn too)
ORDERS = {"tsallis": st.floats(2.0, 3.0).map(lambda q: {"q": q}),
          "renyi": st.floats(2.0, 16.0).map(lambda order: {"order": order})}


@st.composite
def registers(draw):
    """(state, rotated copy): a Haar, product x Haar, GHZ_n or W_n state of 3-6 qubits."""
    kind, n, seed = (draw(st.sampled_from(["haar", "product", "ghz", "w"])),
                     draw(st.integers(3, 6)), draw(SEEDS))
    if kind == "haar":
        state = random_pure(n, seed)
    elif kind == "product":
        state = product_state(n, draw(st.integers(0, n - 1)), seed)
    else:
        state = (ghz if kind == "ghz" else w_state)(n)
    return state, local_copy(state, draw(SEEDS))


@st.composite
def families(draw, n_qubits):
    """A monogamy family whose chain conditions are certified on n_qubits."""
    measures = [measure for measure, direction, _, _ in THEOREMS.values()
                if direction == MONOGAMY and (n_qubits == 3 or measure in ("concurrence", "cren"))]
    measure = draw(st.sampled_from(measures))
    return bound_family(measure, MONOGAMY, **draw(ORDERS.get(measure, st.just({}))))


def values(chain: Chain) -> tuple:
    return (chain.full, *chain.pairs)


def assert_close(got, want):
    assert len(got) == len(want)
    assert max(abs(a - b) for a, b in zip(got, want)) <= VALUE_TOL, (got, want)


@FAST
@given(registers(), st.data())
def test_a_local_unitary_leaves_the_chain_unchanged(register, data):
    state, copy = register
    family = data.draw(families(state.n_qubits))
    assert_close(values(Chain(copy, family)), values(Chain(state, family)))


@FAST
@given(registers(), st.data())
def test_relabeling_the_group_permutes_the_pair_values(register, data):
    state, _ = register
    n = state.n_qubits
    family = data.draw(families(n))
    order = data.draw(st.permutations(range(1, n)))
    relabeled = PureState(state.amplitudes.reshape(state.dims).transpose([0, *order]).reshape(-1),
                          state.dims)
    chain = Chain(state, family)
    # B_i of the relabeled state is B_order[i-1] of the state
    assert_close(values(Chain(relabeled, family)),
                 (chain.full, *(chain.pairs[j - 1] for j in order)))


def flipped(report, other) -> list:
    """The clauses that hold in one report and fail in the other."""
    return [(a.description, a.status, b.status)
            for a, b in zip(report.conditions.steps, other.conditions.steps)
            if {a.status, b.status} == {"holds", "fails"}]


@FAST
@given(registers(), st.data())
def test_no_clause_flips_on_a_local_unitary_copy(register, data):
    state, copy = register
    n = state.n_qubits
    family = data.draw(families(n))
    requests = [BoundParams(family, family.gamma, (1.0,) * (n - 2), (1.0,) * (n - 2))]
    if n == 3:
        requests.append(BoundParams(family, family.gamma))
    for request in requests:
        report, other = verify(state, request), verify(copy, request)
        assert [s.description for s in report.conditions.steps] == \
            [s.description for s in other.conditions.steps]
        assert flipped(report, other) == []
