"""Fuzz of the CLI boundary: drawn argv over all four commands, on presets
and on state files of a product qubit next to a Haar state, with negative
seeds, non-finite and malformed numbers, out-of-range sizes and bad
selectors.  Every invocation must end with a documented exit code (0, 2, 3
or 4) and never with a traceback, and the parser that main shares across
calls answers each one as a fresh parser would."""

import contextlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmono.cli as cli
from entmono import PureState, random_pure, save_state, seed_path

FUZZ = settings(max_examples=150, deadline=None)
SEQUENCES = settings(max_examples=40, deadline=None)

NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-320",
                     "abc", "", "1,1", "2,nan"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-5, 8).map(str),
)
SEEDS = st.one_of(st.integers(-10, 10), st.integers(-2 ** 70, 2 ** 70)).map(str)
PRESETS = st.sampled_from(["example1", "bell", "ghz:1", "ghz:3", "ghz:4", "w:3", "w:5",
                           "ghz:x", "w:", "ghz:-2", "ghz:25", "nope"])
# |a> (x) Haar(m) and Haar(m) (x) |a>, whose product qubit's Schmidt coefficient
# can round above 1; argv names each file by its key, which the tests resolve
PRODUCT_HAAR = {f"product-haar-{lead}-{m}-{seed}": (lead, m, seed)
                for lead in ("first", "last") for m in (2, 3) for seed in range(4)}
SOURCES = st.one_of(PRESETS.map(lambda p: ["--preset", p]),
                    st.sampled_from(sorted(PRODUCT_HAAR)).map(lambda k: ["--state", k]))
PARTITIONS = st.sampled_from(["A|BC", "A|B", "AB|C", "A|C", "B|AC", "A|A", "A|Z", "ABC",
                              "|B", "a|bc", "A|B|C", "AB|CD", "A|BCD"])
THEOREMS = st.sampled_from(["concurrence", "cren", "eof", "tsallis", "renyi", "eoa", "teoa",
                            "reoa", "thm1-eoa", "bogus"])


def option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["measure", "sweep", "verify", "corpus"]))
    if command == "corpus":
        suite = draw(st.sampled_from(["all", "lemma1", "ckw", "consistency", "hierarchy",
                                      "lemma2", "bogus"]))
        samples = draw(st.integers(-2, 25).map(str))
        return (["corpus", "--suite", suite, "--samples", samples]
                + draw(option("--seed", SEEDS)))
    argv = [command] + draw(SOURCES)
    if command == "measure":
        argv += ["--kind", draw(st.sampled_from(["concurrence", "cren", "negativity", "eof",
                                                 "tsallis", "renyi"])),
                 "--partition", draw(PARTITIONS)]
        argv += draw(option("--q", NUMBERS)) + draw(option("--aacute", NUMBERS))
    elif command == "sweep":
        argv += ["--kind", draw(st.sampled_from(["concurrence", "cren", "eof", "tsallis",
                                                 "renyi"])),
                 "--alpha-min=" + draw(NUMBERS), "--alpha-max=" + draw(NUMBERS),
                 "--steps", draw(st.integers(-1, 8).map(str))]
        argv += draw(option("--q", NUMBERS)) + draw(option("--aacute", NUMBERS))
        argv += draw(option("--k", NUMBERS)) + draw(option("--m-split", NUMBERS))
        argv += draw(option("--mu", NUMBERS)) + draw(option("--ell", NUMBERS))
    else:
        argv += ["--theorem", draw(THEOREMS), "--alpha=" + draw(NUMBERS),
                 "--budget", draw(st.integers(-1, 4).map(str))]
        argv += draw(option("--q", NUMBERS)) + draw(option("--aacute", NUMBERS))
        argv += draw(option("--k", NUMBERS)) + draw(option("--m-split", NUMBERS))
        argv += draw(option("--mu", NUMBERS)) + draw(option("--ell", NUMBERS))
        argv += draw(option("--seed", SEEDS))
        argv += draw(st.sampled_from([[], ["--auto"], ["--comparator-only"]]))
    return argv


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    """PRODUCT_HAAR key -> path of its state file."""
    root = tmp_path_factory.mktemp("product-haar")
    paths = {}
    for key, (lead, m, seed) in PRODUCT_HAAR.items():
        single = random_pure(1, seed_path(seed, 0)).amplitudes
        haar = random_pure(m, seed_path(seed, 1)).amplitudes
        amps = np.kron(single, haar) if lead == "first" else np.kron(haar, single)
        paths[key] = str(root / f"{key}.json")
        save_state(PureState(amps / np.linalg.norm(amps), (2,) * (m + 1)), paths[key])
    return paths


@FUZZ
@given(argv=argvs())
def test_every_invocation_ends_with_a_documented_exit_code(state_files, argv):
    argv = [state_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects malformed syntax with exit 2
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


# usage errors argparse rejects before any command runs, and help requests
MEASURE_W3 = ["measure", "--preset", "w:3", "--kind", "eof", "--partition", "A|B"]
VERIFY_EX1 = ["verify", "--preset", "example1", "--theorem", "eof", "--alpha", "2"]
SWEEP_EX1 = ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
             "--alpha-max", "3", "--steps", "3"]
CORPUS_CKW = ["corpus", "--suite", "ckw", "--samples", "3"]
USAGE_ARGVS = [
    [], ["--help"], ["-h"], ["bogus"], ["--version"], ["measure"],
    ["measure", "--help"], ["sweep", "--help"], ["verify", "--help"],
    ["corpus", "-h"], ["corpus", "--suite"], ["verify", "--nope", "1"],
    ["sweep", "--preset", "bell", "--steps", "x"],
    # words a subcommand leaves over: the top-level parser's error
    MEASURE_W3 + ["junk"], VERIFY_EX1 + ["junk"], SWEEP_EX1 + ["junk"],
    CORPUS_CKW + ["junk", "-q"], MEASURE_W3 + ["--zzz", "1"], VERIFY_EX1 + ["--zzz=1"],
    # a subparser's own errors and help
    SWEEP_EX1[:-1] + ["x"], ["verify", "--", "x"], ["verify", "-h", "junk"],
    ["measure", "--he"], ["MEASURE"], ["--help", "measure"],
]
USAGE = st.sampled_from(USAGE_ARGVS)


def run(argv):
    """(exit code, stdout, stderr) of main(argv), SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


@SEQUENCES
@given(sequence=st.lists(st.one_of(argvs(), USAGE), min_size=1, max_size=6))
def test_the_shared_parser_answers_like_a_fresh_one(state_files, sequence):
    sequence = [[state_files.get(a, a) for a in argv] for argv in sequence]
    shared = [run(argv) for argv in sequence]
    for argv, got in zip(sequence, shared):
        with mock.patch.object(cli, "PARSER", cli.build_parser()):
            assert got == run(argv), argv


# the argv shapes of the benchmark's three-qubit pass, on the worked example
WORKLOAD_ARGVS = (
    [["verify", "--preset", "example1", "--theorem", theorem] + extra for theorem, extra in (
        ("concurrence", ["--alpha", "3"]), ("cren", ["--alpha", "3"]), ("eof", ["--alpha", "2"]),
        ("tsallis", ["--alpha", "2", "--q", "2.5"]), ("renyi", ["--alpha", "2", "--aacute", "2.5"]),
        ("eoa", ["--alpha", "0.5"]), ("teoa", ["--alpha", "0.5", "--q", "2"]),
        ("reoa", ["--alpha", "0.5", "--aacute", "1.2"]))]
    + [["sweep", "--preset", "example1", "--kind", kind, "--steps", "61"] + extra
       for kind, extra in (("concurrence", ["--alpha-min", "2", "--alpha-max", "5"]),
                           ("eof", ["--alpha-min", "1.5", "--alpha-max", "4"]),
                           ("tsallis", ["--alpha-min", "1", "--alpha-max", "4", "--q", "2.5"]))]
    + [["measure", "--preset", "example1", "--kind", kind, "--partition", partition] + extra
       for partition in ("A|BC", "A|B")
       for kind, extra in (("concurrence", []), ("negativity", []), ("tsallis", ["--q", "2.5"]),
                           ("renyi", ["--aacute", "2.5"]))]
    + [CORPUS_CKW]
)


def run_nested(argv):
    """run(argv) with every command line parsed by PARSER.parse_args, the
    nested parse of argparse, instead of by the subparser its first word names."""
    with mock.patch.object(cli.PARSER, "subcommands", {}):
        return run(argv)


@pytest.mark.parametrize("argv", USAGE_ARGVS + WORKLOAD_ARGVS, ids=" ".join)
def test_both_parse_routes_answer_alike(argv):
    assert run(argv) == run_nested(argv)


def test_a_left_over_word_is_the_top_level_usage_error():
    code, out, err = run(MEASURE_W3 + ["--zzz", "1"])
    assert (code, out) == (("exit", 2), "")
    assert err.splitlines()[-1] == "entmono: error: unrecognized arguments: --zzz 1"
    assert err.startswith("usage: entmono [-h]")


@SEQUENCES
@given(argv=argvs())
def test_both_parse_routes_answer_alike_on_drawn_argv(state_files, argv):
    argv = [state_files.get(a, a) for a in argv]
    assert run(argv) == run_nested(argv)
