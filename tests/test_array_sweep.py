"""The array sweep against the per-alpha row loop it replaced.

`entmono sweep` evaluates each bound column over the whole alpha grid in
one rhs_assemble or prior_rhs call.  reference_rows below is the former
per-alpha loop of cli.cmd_sweep, kept as the slow reference; a hypothesis
test compares every column of cli.sweep_columns with it within 1e-12
relative (numpy's power of an array may differ from the float power by an
ulp).  Further tests pin the unaliased coefficient layout on array weights
and the exit code 2, with no warning, of sweeps whose weights or powers
leave the float range.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmono.cli as cli
from entmono import BoundParams, bound_family, random_pure, save_state
from entmono.bounds import PRIOR_KINDS, Chain, prior_rhs, resolve_params, rhs_assemble
from right_sides_reference import chained_sum

FAST = settings(max_examples=60, deadline=None)

# kind -> (domain minimum of alpha, extra arguments)
KINDS = {
    "concurrence": (2.0, []),
    "cren": (2.0, []),
    "eof": (math.sqrt(2.0), []),
    "tsallis": (1.0, ["--q", "2.5"]),
    "renyi": (1.0, ["--aacute", "2.5"]),
}
COLUMNS = ("ours", "kf", "jf", "ckw")
HAAR_SEEDS = range(3)


def reference_rows(args) -> list:
    """The per-alpha rows of cmd_sweep before the array pass: one dict per
    alpha, header name -> float (argument checks left out)."""
    state, _ = cli.load_input(args)
    family = cli.family_from_args(args, args.kind)
    selected = [b.strip() for b in args.bounds.split(",") if b.strip()]
    base = BoundParams(family, family.domain[0], cli.parse_floats(args.mu),
                       cli.parse_floats(args.ell), args.m_split)
    chain = Chain(state, family)
    base = resolve_params(chain, base)

    header = ["alpha", "lhs"] + [b for b in ("ours", "kf", "jf", "ckw") if b in selected]
    rows = []
    for i in range(args.steps):
        alpha = args.alpha_min + (args.alpha_max - args.alpha_min) * i / (args.steps - 1)
        params = BoundParams(family, alpha, base.mu, base.ell, base.split)
        row = {"alpha": alpha, "lhs": chain.full ** alpha}
        if "ours" in selected:
            row["ours"] = rhs_assemble(chain.pairs, params).rhs
        for name in PRIOR_KINDS:
            if name in selected:
                row[name] = prior_rhs(chain.pairs, alpha, family, name,
                                      k=args.k if name == "kf" else None,
                                      split=base.split)
        rows.append({h: row[h] for h in header})
    return rows


@pytest.fixture(scope="module")
def haar_files(tmp_path_factory):
    """(n, seed) -> path of a saved Haar state, n = 3..6."""
    root = tmp_path_factory.mktemp("haar")
    files = {}
    for n in range(3, 7):
        for seed in HAAR_SEEDS:
            files[n, seed] = str(root / f"haar{n}_{seed}.json")
            save_state(random_pure(n, (91, n, seed)), files[n, seed])
    return files


@st.composite
def sweep_argvs(draw, haar_files):
    n = draw(st.integers(3, 6))
    sources = [["--preset", f"ghz:{n}"], ["--preset", f"w:{n}"]]
    sources += [["--state", haar_files[n, s]] for s in HAAR_SEEDS]
    if n == 3:
        sources.append(["--preset", "example1"])
    kind = draw(st.sampled_from(sorted(KINDS)))
    low, extra = KINDS[kind]
    alpha_min = low + draw(st.floats(0.0, 1.5))
    alpha_max = alpha_min + draw(st.floats(0.01, 5.0))
    bounds = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4, unique=True))
    argv = ["sweep"] + draw(st.sampled_from(sources)) + extra + [
        "--kind", kind, "--alpha-min", repr(alpha_min), "--alpha-max", repr(alpha_max),
        "--steps", str(draw(st.integers(2, 61))), "--bounds", ",".join(bounds),
        "--k", repr(draw(st.floats(0.05, 1.0)))]
    # three qubits also take the extracted (mu, l); larger registers need them given
    if n > 3 or draw(st.booleans()):
        steps = st.lists(st.floats(0.25, 4.0), min_size=n - 2, max_size=n - 2)
        argv += ["--mu", ",".join(map(repr, draw(steps))),
                 "--ell", ",".join(map(repr, draw(steps)))]
    split = draw(st.one_of(st.none(), st.integers(1, n - 2)))
    if split is not None:
        argv += ["--m-split", str(split)]
    return argv


@FAST
@given(st.data())
def test_array_columns_match_the_row_loop(haar_files, data):
    argv = data.draw(sweep_argvs(haar_files))
    args = cli.build_parser().parse_args(argv)
    columns = cli.sweep_columns(args)
    rows = reference_rows(args)
    assert list(columns) == list(rows[0])
    for name, col in columns.items():
        assert isinstance(col, np.ndarray) and col.shape == (args.steps,)
        ref = [row[name] for row in rows]
        if name == "alpha":  # the grid is bit-identical to the loop's
            assert col.tolist() == ref
        for got, want in zip(col.tolist(), ref):
            assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)


def test_coefficient_layout_on_array_weights_is_unaliased():
    # each coefficient of a grid is a new array, sharing memory with no other
    # coefficient and no step weight, and entry j of each is the coefficient
    # of the former chained sum on entry j of the weights
    values = [0.5, 0.25, 0.75, 1.0]
    for split in (None, 1, 2, 3):
        params = BoundParams(bound_family("concurrence"), np.array([2.0, 3.0, 5.0]),
                             (2.0, 1.5, 3.0), (1.0, 2.0, 1.25), split)
        breakdown = rhs_assemble(values, params)
        weights = list(breakdown.coefficients)
        coeffs = [t.coefficient for t in breakdown.terms]
        for j in range(3):
            layout = chained_sum(values, [float(w[j]) for w in weights], 2.0, split)
            got = [float(c[j]) if isinstance(c, np.ndarray) else c for c in coeffs]
            assert got == [t.coefficient for t in layout.terms], (split, j)
        arrays = [c for c in coeffs if isinstance(c, np.ndarray)]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] + weights)


OVERFLOWING = [
    # the jf weight 2^s - 1 at s = 1500
    ["--bounds", "ckw,jf"],
    # only a prior weight overflows: ours stays finite at mu = l = 0.5
    ["--bounds", "ours,kf", "--mu", "0.5", "--ell", "0.5", "--k", "1"],
    # the tightened weight (mu + l)^s - l^s
    ["--bounds", "ours", "--mu", "100", "--ell", "100"],
    # k^s underflows to 0 under the kf weight
    ["--bounds", "kf"],
]


@pytest.mark.parametrize("extra", OVERFLOWING, ids=" ".join)
def test_overflowing_sweep_exits_two(extra, capsys):
    argv = ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
            "--alpha-max", "3000", "--steps", "3"] + extra
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("entmono: result out of floating-point range")
    assert "Traceback" not in err


def test_overflowing_grid_is_a_parameter_error(capsys):
    # (alpha_max - alpha_min) * i overflows to an infinite grid point
    argv = ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
            "--alpha-max", "1e308", "--steps", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("entmono: alpha=2.0..inf is not finite")
