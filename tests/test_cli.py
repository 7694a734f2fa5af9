"""CLI surface tests: measure/sweep/verify/corpus subcommands, the state
file format, CSV schema, determinism and the exit-code contract."""

import hashlib
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import entmono.cli as cli
import entmono.corpus as corpus
import entmono.measures as measures
from entmono import (BoundParams, ParameterError, PureState, bound_family,
                     coefficient_K, random_pure, save_state, seed_path, w_state)
from entmono.bounds import prior_rhs

from dense_reference import slow_reduce


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(args, capsys):
    code, out, err = run_cli(args, capsys)
    return code, (json.loads(out) if out.strip() else None), err


class TestMeasure:
    def test_example1_concurrence(self, capsys):
        code, rec, _ = run_json(
            ["measure", "--preset", "example1", "--kind", "concurrence",
             "--partition", "A|BC"], capsys)
        assert code == 0
        assert rec["value"] == pytest.approx(0.8, abs=1e-12)
        assert rec["status"] == "exact"
        assert rec["partition"] == "A|BC"

    def test_bell_eof(self, capsys):
        code, rec, _ = run_json(
            ["measure", "--preset", "bell", "--kind", "eof",
             "--partition", "A|B"], capsys)
        assert code == 0
        assert rec["value"] == pytest.approx(1.0, abs=1e-12)

    def test_example1_tsallis_pair(self, capsys):
        code, rec, _ = run_json(
            ["measure", "--preset", "example1", "--kind", "tsallis", "--q", "2",
             "--partition", "A|B"], capsys)
        assert code == 0
        assert rec["value"] == pytest.approx(0.16, abs=1e-12)

    def test_negativity_and_cren(self, capsys):
        code, rec, _ = run_json(
            ["measure", "--preset", "example1", "--kind", "negativity",
             "--partition", "A|BC"], capsys)
        assert code == 0
        assert rec["value"] == pytest.approx(0.8, abs=1e-12)
        code, rec, _ = run_json(
            ["measure", "--preset", "example1", "--kind", "cren",
             "--partition", "A|C"], capsys)
        assert code == 0
        assert rec["value"] == pytest.approx(0.4, abs=1e-12)

    def test_interval_output(self, capsys):
        code, rec, _ = run_json(
            ["measure", "--preset", "ghz:4", "--kind", "concurrence",
             "--partition", "A|BC"], capsys)
        assert code == 0
        assert rec["status"] == "interval"
        assert rec["lo"] <= rec["hi"]

    def test_state_file_input(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        save_state(random_pure(2, 12), path)
        code, rec, _ = run_json(
            ["measure", "--state", str(path), "--kind", "concurrence",
             "--partition", "A|B"], capsys)
        assert code == 0
        assert 0.0 <= rec["value"] <= 1.0

    def test_bad_state_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n_qubits": 1, "amplitudes": [[1, 0], [1, 0]]}))
        code, _, err = run_cli(
            ["measure", "--state", str(path), "--kind", "concurrence",
             "--partition", "A|B"], capsys)
        assert code == 2
        assert "norm" in err

    def test_bad_partition(self, capsys):
        code, _, err = run_cli(
            ["measure", "--preset", "bell", "--kind", "eof",
             "--partition", "AB"], capsys)
        assert code == 2
        assert err

    def test_unsupported_mixed_kind(self, capsys):
        code, _, err = run_cli(
            ["measure", "--preset", "ghz:4", "--kind", "eof",
             "--partition", "A|BC"], capsys)
        assert code == 2

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(
            ["measure", "--preset", "nope", "--kind", "eof",
             "--partition", "A|B"], capsys)
        assert code == 2


class TestSweep:
    def test_schema_and_ordering(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["sweep", "--preset", "example1", "--kind", "concurrence",
             "--alpha-min", "2", "--alpha-max", "5", "--steps", "61",
             "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,lhs,ours,kf,jf,ckw"
        assert len(lines) == 62
        for line in lines[1:]:
            alpha, lhs, ours, kf, jf, ckw = map(float, line.split(","))
            assert lhs >= ours - 1e-9
            assert ours >= kf - 1e-9
            assert kf >= jf - 1e-9

    def test_eof_lhs_starts_at_power(self, capsys):
        sq2 = math.sqrt(2.0)
        code, out, _ = run_cli(
            ["sweep", "--preset", "example1", "--kind", "eof",
             "--alpha-min", repr(sq2), "--alpha-max", "4", "--steps", "3"], capsys)
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[1]) == pytest.approx(0.7219280948873623 ** sq2, abs=1e-9)

    def test_two_steps_two_rows(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--preset", "example1", "--kind", "concurrence",
             "--alpha-min", "2", "--alpha-max", "3", "--steps", "2"], capsys)
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_bound_subset_columns(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--preset", "example1", "--kind", "concurrence",
             "--alpha-min", "2", "--alpha-max", "3", "--steps", "2",
             "--bounds", "ours,ckw"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "alpha,lhs,ours,ckw"

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--preset", "example1", "--kind", "renyi", "--aacute", "2",
                "--alpha-min", "1", "--alpha-max", "4", "--steps", "31"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_below_domain(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--preset", "example1", "--kind", "concurrence",
             "--alpha-min", "1", "--alpha-max", "3", "--steps", "5"], capsys)
        assert code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--preset", "example1", "--kind", "concurrence",
             "--alpha-min", "2", "--alpha-max", "3", "--steps", "2",
             "--out", "/nonexistent-dir/x.csv"], capsys)
        assert code == 1


class TestVerify:
    def test_saturation_exit_zero(self, capsys):
        code, rec, _ = run_json(
            ["verify", "--preset", "example1", "--theorem", "thm1-concurrence",
             "--alpha", "2", "--auto"], capsys)
        assert code == 0
        assert rec["margin"] == pytest.approx(0.0, abs=1e-12)
        assert rec["mu"][0] == pytest.approx(2.0, abs=1e-9)
        assert rec["conditions"]["summary"] == "holds"

    def test_eof_theorem(self, capsys):
        code, rec, _ = run_json(
            ["verify", "--preset", "example1", "--theorem", "thm3-eof",
             "--alpha", repr(math.sqrt(2.0)), "--auto"], capsys)
        assert code == 0
        assert rec["margin"] >= -1e-9

    def test_ghz4_undecidable_exit_three(self, capsys):
        code, rec, _ = run_json(
            ["verify", "--preset", "ghz:4", "--theorem", "thm1-concurrence",
             "--alpha", "2", "--ell", "1,1", "--mu", "1,1"], capsys)
        assert code == 3
        assert rec["conditions"]["summary"] == "undecidable"

    def test_failed_conditions_exit_three(self, capsys):
        code, rec, _ = run_json(
            ["verify", "--preset", "example1", "--theorem", "thm1-concurrence",
             "--alpha", "2", "--mu", "2.1", "--ell", "2"], capsys)
        assert code == 3
        assert rec["conditions"]["summary"] == "fails"

    def test_capability_exit_two(self, capsys):
        code, _, err = run_cli(
            ["verify", "--preset", "ghz:4", "--theorem", "thm3-eof",
             "--alpha", "1.5", "--mu", "1,1", "--ell", "1,1"], capsys)
        assert code == 2
        # the library's keyword and the flag that sets it
        assert err == ("entmono: monogamy:eof beyond 3 qubits lacks certified chain values "
                       "M(A|B_r..B_3); rerun with comparator_only=True (--comparator-only on "
                       "the command line)\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--preset", "w:4", "--theorem", "concurrence", "--alpha", "2"],
        ["sweep", "--preset", "w:4", "--kind", "concurrence", "--alpha-min", "2",
         "--alpha-max", "3", "--steps", "3"]], ids=["verify", "sweep"])
    def test_automatic_mu_l_beyond_three_qubits_exits_two(self, argv, capsys):
        # the one refusal of automatic (mu, l), for verify and the sweep alike
        assert run_cli(argv, capsys) == (
            2, "", "entmono: automatic (mu, l) extraction needs the exact three-qubit chain; "
                   "supply mu and ell explicitly for 4-qubit states\n")

    def test_comparator_only_downgrades(self, capsys):
        code, rec, _ = run_json(
            ["verify", "--preset", "ghz:4", "--theorem", "thm3-eof",
             "--alpha", "1.5", "--mu", "1,1", "--ell", "1,1",
             "--comparator-only"], capsys)
        assert code == 3
        assert rec["lhs_measure"] == pytest.approx(1.0, abs=1e-9)

    def test_polygamy_heuristic(self, capsys):
        code, rec, _ = run_json(
            ["verify", "--preset", "example1", "--theorem", "teoa",
             "--alpha", "0.5", "--q", "1.5", "--auto", "--budget", "20"], capsys)
        assert code == 3
        assert rec["value_status"] == "heuristic"

    def test_margin_violation_exit_four(self, capsys, monkeypatch):
        # a genuine violation would be a theorem defect, so synthesize one
        real = cli.verify

        def patched(*args, **kwargs):
            rep = real(*args, **kwargs)
            object.__setattr__(rep, "margin", -1.0)
            return rep

        monkeypatch.setattr(cli, "verify", patched)
        code, rec, _ = run_json(
            ["verify", "--preset", "example1", "--theorem", "concurrence",
             "--alpha", "2", "--auto"], capsys)
        assert code == 4

    def test_nan_margin_never_exit_four(self, capsys, monkeypatch):
        real = cli.verify

        def patched(*args, **kwargs):
            rep = real(*args, **kwargs)
            object.__setattr__(rep, "margin", float("nan"))
            return rep

        monkeypatch.setattr(cli, "verify", patched)
        code, rec, _ = run_json(
            ["verify", "--preset", "example1", "--theorem", "concurrence",
             "--alpha", "2", "--auto"], capsys)
        assert rec["conditions"]["summary"] == "holds"
        assert code == 3

    def test_ghz16_concurrence_is_fast(self, capsys):
        ones = ",".join(["1"] * 14)
        t0 = time.perf_counter()
        code, rec, _ = run_json(
            ["verify", "--preset", "ghz:16", "--theorem", "concurrence",
             "--alpha", "2", "--mu", ones, "--ell", ones], capsys)
        elapsed = time.perf_counter() - t0
        assert code == 3
        assert rec["lhs_measure"] == pytest.approx(1.0, abs=1e-12)
        assert elapsed < 1.0

    def test_unknown_selector(self, capsys):
        code, _, err = run_cli(
            ["verify", "--preset", "example1", "--theorem", "thm9-magic",
             "--alpha", "2"], capsys)
        assert code == 2


NON_FINITE = [
    ["measure", "--preset", "example1", "--kind", "tsallis", "--q", "nan",
     "--partition", "A|BC"],
    ["measure", "--preset", "example1", "--kind", "tsallis", "--q", "inf",
     "--partition", "A|B"],
    ["measure", "--preset", "example1", "--kind", "renyi", "--aacute", "nan",
     "--partition", "A|BC"],
    ["measure", "--preset", "example1", "--kind", "renyi", "--aacute", "inf",
     "--partition", "A|BC"],
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "inf"],
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "nan"],
    ["verify", "--preset", "example1", "--theorem", "eoa", "--alpha", "nan"],
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "2",
     "--k", "nan"],
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "2",
     "--mu", "inf", "--ell", "1"],
    ["verify", "--preset", "example1", "--theorem", "tsallis", "--alpha", "2",
     "--q", "nan"],
    ["sweep", "--preset", "example1", "--kind", "concurrence",
     "--alpha-min", "2", "--alpha-max", "inf", "--steps", "3"],
    ["sweep", "--preset", "example1", "--kind", "concurrence",
     "--alpha-min", "nan", "--alpha-max", "3", "--steps", "3"],
    ["sweep", "--preset", "example1", "--kind", "concurrence",
     "--alpha-min=-inf", "--alpha-max", "3", "--steps", "3"],
    # finite but so large that a power of a value above 1 overflows
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "1e300",
     "--mu", "2", "--ell", "2"],
    # mu + l overflows to inf in the float sum of the weight K
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "2",
     "--mu", "1e308", "--ell", "1e308"],
    # each K = 1e200 is finite, but the chained product of two overflows
    ["verify", "--preset", "w:6", "--theorem", "concurrence", "--alpha", "2",
     "--mu", "1e200,1e200,1e200,1e200", "--ell", "1,1,1,1"],
]


@pytest.mark.parametrize("args", NON_FINITE, ids=lambda a: " ".join(a[3:]))
def test_non_finite_parameters_exit_two(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("entmono: ") and "Traceback" not in err


def test_kf_weight_beyond_the_float_range_exits_two(capsys):
    # ((1+k)/k)^s at s = 200, k = 0.01 is about 1e402
    code, out, err = run_cli(["verify", "--preset", "example1", "--theorem", "concurrence",
                              "--alpha", "400", "--k", "0.01"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("entmono: result out of floating-point range")
    assert "Traceback" not in err


def test_kf_with_a_tiny_k_equals_ckw_at_s_one(capsys):
    # at alpha = 2 (s = 1) the kf weight is exactly 1 for every k
    code, out, _ = run_cli(["sweep", "--preset", "example1", "--kind", "concurrence",
                            "--alpha-min", "2", "--alpha-max", "3", "--steps", "2",
                            "--bounds", "kf,jf,ckw", "--k", "1e-20"], capsys)
    assert code == 0
    header, first = out.splitlines()[:2]
    row = dict(zip(header.split(","), first.split(",")))
    assert row["alpha"] == "2"
    assert row["kf"] == row["ckw"] == "0.48"


SELECTED_ONLY = [
    # ours would overflow at alpha = 3000 (the extracted mu = l = 2), ckw does not
    ["--bounds", "ckw", "--alpha-min", "2", "--alpha-max", "3000", "--steps", "3"],
    # k = 5 is outside the kf window, and kf is not selected
    ["--bounds", "ours", "--k", "5", "--alpha-min", "2", "--alpha-max", "3", "--steps", "3"],
]


@pytest.mark.parametrize("extra", SELECTED_ONLY, ids=" ".join)
def test_sweep_evaluates_only_the_selected_bounds(extra, capsys):
    code, out, err = run_cli(["sweep", "--preset", "example1", "--kind", "concurrence"]
                             + extra, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "alpha,lhs," + extra[1]


def test_one_alpha_rule_and_message(capsys):
    conc = bound_family("concurrence")
    # the grid of sweep --alpha-min 1 --alpha-max 3 --steps 5, and one alpha of it
    for alpha, shown in ((np.linspace(1.0, 3.0, 5), "1.0..3.0"), (1.0, "1.0")):
        want = f"alpha={shown} is not finite or outside [2.0, inf] for monogamy:concurrence"
        for call in (lambda: BoundParams(conc, alpha),
                     lambda: coefficient_K(1.0, 1.0, alpha, conc),
                     lambda: prior_rhs([0.5, 0.4], alpha, conc, "ckw")):
            with pytest.raises(ParameterError) as info:
                call()
            assert str(info.value) == want
    code, out, err = run_cli(["sweep", "--preset", "example1", "--kind", "concurrence",
                              "--alpha-min", "1", "--alpha-max", "3", "--steps", "5"], capsys)
    assert (code, out, err) == (2, "", "entmono: alpha=1.0..3.0 is not finite or outside "
                                       "[2.0, inf] for monogamy:concurrence\n")


def test_two_qubit_state_gives_one_message(capsys):
    grid = ["--alpha-min", "2", "--alpha-max", "3", "--steps", "3"]
    results = {run_cli(argv, capsys) for argv in (
        ["verify", "--preset", "bell", "--theorem", "concurrence", "--alpha", "2"],
        ["sweep", "--preset", "bell", "--kind", "concurrence"] + grid,
        ["sweep", "--preset", "bell", "--kind", "concurrence", "--mu", "1", "--ell", "1"]
        + grid,
    )}
    assert results == {(2, "", "entmono: a bound needs at least 3 qubits (2 pair terms), "
                               "got 2\n")}


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "1000000000000"],
    ["corpus", "--suite", "lemma1", "--samples", "1000000000000"],
], ids=lambda a: a[0])
def test_a_size_too_large_to_allocate_exits_two(argv, capsys, monkeypatch):
    # the handler stands in for numpy failing to allocate; nothing is allocated
    def handler(args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setitem(cli.COMMANDS, argv[0], handler)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "entmono: too large to allocate: Unable to allocate 7.28 TiB for an array\n"


@pytest.mark.parametrize("suite", corpus.SUITE_NAMES + ("all",))
def test_a_sample_count_past_one_entropy_word_exits_two(suite, capsys, monkeypatch):
    # every sample index must fit one 32-bit entropy word; the count is refused
    # before anything is drawn, so a draw fails the test instead of hanging it
    def no_draw(*args, **kwargs):
        raise AssertionError("drew samples past the cap")

    monkeypatch.setattr(corpus, "haar_blocks", no_draw)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    code, out, err = run_cli(["corpus", "--suite", suite, "--samples",
                              "100000000000000000000"], capsys)
    assert (code, out) == (2, "")
    assert err == ("entmono: sample count must be in [1, 4294967295], "
                   "got 100000000000000000000\n")


def test_every_suite_runs_from_its_table_row(monkeypatch):
    # each suite is called through corpus._SUITES, whose entries a tracer
    # rebinds in place to count calls: the scalar suites once, a state suite
    # once per block
    calls = {name: 0 for name in corpus.SUITE_NAMES}

    def counted(name, suite):
        def call(*args):
            calls[name] += 1
            return suite(*args)
        return call

    monkeypatch.setattr(corpus, "BLOCK", 1024)
    for name, suite in list(corpus._SUITES.items()):
        monkeypatch.setitem(corpus._SUITES, name, counted(name, suite))
    results = corpus.run_suites(corpus.SUITE_NAMES, 1500, 7)
    assert calls == {"lemma1": 1, "ckw": 2, "consistency": 2, "hierarchy": 1, "lemma2": 2}
    assert [res.tolerance for res in results] == \
        [corpus.SUITES[name][2] for name in corpus.SUITE_NAMES]
    assert corpus.SUITE_NAMES == tuple(corpus.SUITES)
    suite = next(action for action in cli.build_parser().subcommands["corpus"]._actions
                 if action.dest == "suite")
    assert tuple(suite.choices) == corpus.SUITE_NAMES + ("all",)


MALFORMED = [
    ["corpus", "--suite", "all", "--seed", "-1"],
    ["corpus", "--suite", "ckw", "--samples", "10", "--seed", "-1"],
    ["verify", "--preset", "example1", "--theorem", "eoa", "--alpha", "0.5",
     "--seed", "-3"],
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "3", "--mu", "abc", "--ell", "1"],
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "3",
     "--mu", "1,x", "--ell", "1,1"],
    # an empty field is not a number: it was dropped, leaving mu = (1, 1)
    ["verify", "--preset", "w:4", "--theorem", "concurrence", "--alpha", "2",
     "--mu", "1,,1", "--ell", "1,1"],
    ["measure", "--preset", "ghz:x", "--kind", "eof", "--partition", "A|B"],
    ["measure", "--preset", "w:", "--kind", "eof", "--partition", "A|B"],
    # a lone mu or ell was dropped in favour of extracted values
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "3",
     "--mu", "5"],
    ["verify", "--preset", "example1", "--theorem", "eof", "--alpha", "2", "--ell", "2"],
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "3", "--mu", "5"],
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "3", "--ell", "2"],
    # a stray --q/--aacute was dropped by verify and sweep, as measure never did
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "3",
     "--q", "2"],
    ["verify", "--preset", "example1", "--theorem", "eoa", "--alpha", "0.5",
     "--aacute", "1.2"],
    ["sweep", "--preset", "example1", "--kind", "eof", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "3", "--aacute", "7"],
    ["sweep", "--preset", "example1", "--kind", "renyi", "--aacute", "2",
     "--alpha-min", "2", "--alpha-max", "3", "--steps", "3", "--q", "2"],
    # a grid of one step, an empty or reversed alpha range, and an unknown
    # bound column
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "1"],
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-max", "2",
     "--alpha-min", "3", "--steps", "3"],
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "3", "--bounds", "ours,zz"],
    # neither --preset nor --state
    ["measure", "--kind", "eof", "--partition", "A|B"],
    ["verify", "--theorem", "concurrence", "--alpha", "2"],
]


@pytest.mark.parametrize("args", MALFORMED, ids=lambda a: " ".join(a))
def test_malformed_arguments_exit_two(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("entmono: ") and err.count("\n") == 1 and "Traceback" not in err


MESSAGES = [
    (["measure", "--preset", "example1", "--kind", "concurrence", "--partition", "A|A"],
     "partition sides overlap in 'A|A'"),
    (["measure", "--preset", "example1", "--kind", "concurrence", "--partition", "A|"],
     "both partition sides must be nonempty, got 'A|'"),
    (["measure", "--preset", "example1", "--kind", "tsallis", "--partition", "A|B"],
     "tsallis requires --q"),
]


@pytest.mark.parametrize("args,message", MESSAGES,
                         ids=["partition-overlap", "partition-side-empty", "tsallis-without-q"])
def test_an_error_prints_its_message(args, message, capsys):
    assert run_cli(args, capsys) == (2, "", f"entmono: {message}\n")


def test_auto_clears_a_lone_mu(capsys):
    args = ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "3"]
    code, auto, _ = run_cli(args, capsys)
    assert code == 0
    assert run_cli(args + ["--mu", "5", "--auto"], capsys)[:2] == (0, auto)


BAD_STATE_FILES = {
    "not-json": b'{"n_qubits": 2, "amplitudes": [[1, 0]',
    "not-utf8": b'{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]} \xff\xfe',
    # a valid 2-qubit state but for one Latin-1 byte in a string
    "latin1-text": b'{"n_qubits": 2, "note": "caf\xe9", '
                   b'"amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
    # a valid 2-qubit state behind a byte order mark, which UTF-8 JSON does not allow
    "utf8-bom": b'\xef\xbb\xbf{"n_qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}',
    "fractional-n": json.dumps({"n_qubits": 2.7, "amplitudes": [[1, 0]] + [[0, 0]] * 3}).encode(),
    "boolean-amplitude": json.dumps(
        {"n_qubits": 2, "amplitudes": [[True, False]] + [[False, False]] * 3}).encode(),
    "nan-amplitude": json.dumps(
        {"n_qubits": 1, "amplitudes": [[float("nan"), 0], [0, 0]]}).encode(),
    "nan-amplitude-of-two-qubits":
        b'{"n_qubits": 2, "amplitudes": [[NaN, 0], [1, 0], [0, 0], [0, 0]]}',
}


@pytest.mark.parametrize("name", sorted(BAD_STATE_FILES))
def test_malformed_state_file_exits_two(name, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(BAD_STATE_FILES[name])
    code, out, err = run_cli(["measure", "--state", str(path), "--kind", "concurrence",
                              "--partition", "A|B"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("entmono: ") and "Traceback" not in err and "Warning" not in err


ONE_CHAIN = [
    # 3-qubit monogamy verify: the pairs from one Wootters call, no reduction
    (["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "2"], 0, 1),
    # ghz:6 with explicit parameters: the links read 3 group purities off the amplitudes
    (["verify", "--preset", "ghz:6", "--theorem", "concurrence", "--alpha", "2",
      "--mu", "1,1,1,1", "--ell", "1,1,1,1"], 0, 1),
    # one qubit against a mixed group: the same amplitude interval as a link
    (["measure", "--preset", "ghz:6", "--kind", "concurrence", "--partition", "A|CDEF"], 0, 1),
    # auto sweep: one chain feeds the extraction and all 61 rows
    (["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
      "--alpha-max", "5", "--steps", "61"], 0, 1),
    # a sweep reads no link, so it forms no group purity
    (["sweep", "--preset", "ghz:6", "--kind", "concurrence", "--alpha-min", "2",
      "--alpha-max", "5", "--steps", "61", "--mu", "1,1,1,1", "--ell", "1,1,1,1"], 0, 1),
    # a 2-qubit group of a pure state: its pair value from the amplitudes
    (["measure", "--preset", "example1", "--kind", "eof", "--partition", "A|B"], 0, 1),
]


@pytest.mark.parametrize("args,reductions,wootters", ONE_CHAIN,
                         ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_each_command_measures_the_chain_once(args, reductions, wootters, capsys,
                                              monkeypatch):
    import entmono.measures as measures
    from entmono import PureState
    calls = {"reduce": 0, "wootters": 0}
    reduce, kernel = PureState.reduce, measures.wootters_factor_concurrence

    def counted_reduce(self, keep):
        calls["reduce"] += 1
        return reduce(self, keep)

    def counted_kernel(factors):
        calls["wootters"] += 1
        return kernel(factors)

    monkeypatch.setattr(PureState, "reduce", counted_reduce)
    monkeypatch.setattr(measures, "wootters_factor_concurrence", counted_kernel)
    assert run_cli(args, capsys)[0] in (0, 3)
    assert calls == {"reduce": reductions, "wootters": wootters}


PAIR_NO_EIGH = [
    ["corpus", "--suite", "ckw", "--samples", "50", "--seed", "3"],
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "2"],
    ["measure", "--preset", "w:4", "--kind", "eof", "--partition", "B|D"],
]


@pytest.mark.parametrize("args", PAIR_NO_EIGH, ids=" ".join)
def test_pure_pair_values_take_no_eigh(args, capsys, monkeypatch):
    # a pair of at most 4 qubits is measured from its amplitude matrix alone
    import entmono.measures as measures
    calls = []
    eigh = measures.np.linalg.eigh

    def counted_eigh(a, *rest, **kw):
        calls.append(np.shape(a))
        return eigh(a, *rest, **kw)

    monkeypatch.setattr(measures.np.linalg, "eigh", counted_eigh)
    assert run_cli(args, capsys)[0] == 0
    assert calls == []


PAIR_KINDS = [["--kind", "concurrence"], ["--kind", "cren"], ["--kind", "eof"],
              ["--kind", "tsallis", "--q", "1.5"], ["--kind", "renyi", "--aacute", "2"]]


@pytest.mark.parametrize("kind", PAIR_KINDS, ids=" ".join)
@pytest.mark.parametrize("preset,partition,pair", [("example1", "A|B", [0, 1]),
                                                   ("example1", "C|A", [0, 2]),
                                                   ("w:5", "B|E", [1, 4])])
def test_pair_measure_matches_the_density_matrix_route(kind, preset, partition, pair,
                                                       capsys):
    argv = ["measure", "--preset", preset, "--partition", partition] + kind
    code, rec, _ = run_json(argv, capsys)
    assert code == 0 and rec["status"] == "exact"
    args = cli.build_parser().parse_args(argv)
    state, _ = cli.load_input(args)
    kind = measures.MeasureKind(args.kind, **cli.kind_options(args.kind, args))
    dense = kind.evaluate(slow_reduce(state, pair))
    assert abs(rec["value"] - float(dense)) <= 1e-12


@pytest.mark.parametrize("kind", ["concurrence", "eof", "cren"])
def test_pure_value_reads_the_smaller_side(kind, capsys):
    # the keep side has 13 qubits, beyond the dense cap; the other side has one
    code, rec, _ = run_json(
        ["measure", "--preset", "ghz:14", "--kind", kind,
         "--partition", "ABCDEFGHIJKLM|N"], capsys)
    assert code == 0
    assert rec["value"] == pytest.approx(1.0, abs=1e-12)


def test_concurrence_interval_past_the_dense_cap(capsys):
    # the group of 13 qubits would be a 8192 x 8192 dense state
    code, rec, _ = run_json(
        ["measure", "--preset", "ghz:14", "--kind", "concurrence",
         "--partition", "A|BCDEFGHIJKLM"], capsys)
    assert code == 0
    assert rec["status"] == "interval"
    assert rec["lo"] == pytest.approx(0.0, abs=1e-12)
    assert rec["hi"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("preset,partition,mirror", [
    ("ghz:4", "AB|C", "C|AB"), ("w:4", "AB|C", "C|AB"), ("w:5", "ACD|B", "B|ACD")])
def test_concurrence_interval_takes_the_one_qubit_side(preset, partition, mirror, capsys):
    # C is symmetric in the cut, so a one-qubit right side gives the same interval
    code, rec, _ = run_json(["measure", "--preset", preset, "--kind", "concurrence",
                             "--partition", partition], capsys)
    _, ref, _ = run_json(["measure", "--preset", preset, "--kind", "concurrence",
                          "--partition", mirror], capsys)
    assert code == 0
    assert (rec["value"], rec.get("lo"), rec.get("hi")) == \
        (ref["value"], ref.get("lo"), ref.get("hi"))


def numpy_negativity(rho: np.ndarray, n: int, side) -> float:
    """||rho^{T_side}||_1 - 1 of an n-qubit matrix, by index swaps and eigvalsh."""
    t = rho.reshape((2,) * (2 * n))
    for i in side:
        t = np.swapaxes(t, i, n + i)
    return max(0.0, float(np.abs(np.linalg.eigvalsh(t.reshape(2 ** n, 2 ** n))).sum()) - 1.0)


@pytest.mark.parametrize("preset,partition,group,side", [
    ("example1", "A|B", [0, 1], [0]), ("w:4", "A|CD", [0, 2, 3], [0]),
    ("w:4", "CD|A", [0, 2, 3], [1, 2])])
def test_negativity_of_a_mixed_group(preset, partition, group, side, capsys):
    code, rec, _ = run_json(["measure", "--preset", preset, "--kind", "negativity",
                             "--partition", partition], capsys)
    assert code == 0 and rec["status"] == "exact"
    state, _ = cli.load_input(cli.PARSER.parse_args(["measure", "--preset", preset,
                                                     "--kind", "negativity",
                                                     "--partition", partition]))
    want = numpy_negativity(slow_reduce(state, group).matrix, len(group), side)
    assert want > 0.1
    assert abs(rec["value"] - want) <= 1e-12


@pytest.mark.parametrize("partition", ["A|BCDEFGHIJKLM", "BCDEFGHIJKLM|A"])
def test_negativity_past_the_dense_cap(partition, capsys):
    # the 13-qubit group would be a 8192 x 8192 dense state; transposed on A, its
    # factor Y is 8 x 8 whichever side the partition names first
    code, rec, _ = run_json(["measure", "--preset", "w:14", "--kind", "negativity",
                             "--partition", partition], capsys)
    assert code == 0 and rec["status"] == "exact"
    assert abs(rec["value"] - 3.0 / 7.0) <= 1e-12


def test_negativity_factor_beyond_the_dense_cap_exits_two(capsys, monkeypatch):
    # a 7-qubit side of a 14-qubit group: Y would have 2^14 rows, and the size
    # check comes before the amplitudes are even split
    def forbidden(*args):
        raise AssertionError("split_amplitudes called past the size check")

    monkeypatch.setattr(measures, "split_amplitudes", forbidden)
    code, out, err = run_cli(["measure", "--preset", "ghz:20", "--kind", "negativity",
                              "--partition", "ABCDEFG|HIJKLMN"], capsys)
    assert (code, out) == (2, "")
    assert err == ("entmono: partial-transpose factor of dimension 16384 exceeds the "
                   "dense-storage cap of 4096\n")


def product_haar_file(tmp_path, seed: int) -> str:
    """A state file of |a> (x) Haar(3), a and the Haar state drawn from seed."""
    amps = np.kron(random_pure(1, seed_path(seed, 0)).amplitudes,
                   random_pure(3, seed_path(seed, 1)).amplitudes)
    path = tmp_path / f"product-haar-{seed}.json"
    save_state(PureState(amps / np.linalg.norm(amps), (2,) * 4), path)
    return str(path)


ENTROPIC_KINDS = [["eof"], ["tsallis", "--q", "2.5"], ["tsallis", "--q", "0.5"],
                  ["renyi", "--aacute", "2.5"], ["renyi", "--aacute", "0.7"]]
FRACTIONAL_VERIFIES = [["eof", "--alpha", "1.5"], ["eoa", "--alpha", "0.5"],
                       ["renyi", "--aacute", "2.5", "--alpha", "1.5"],
                       ["reoa", "--aacute", "1.1", "--alpha", "0.5"]]


@pytest.mark.parametrize("seed", range(8))
def test_a_product_qubit_reads_no_negative_value(seed, tmp_path, capsys):
    # A's top Schmidt coefficient can round above 1; no family may read below 0,
    # and a fractional power of the chain's full value must stay real
    src = ["--state", product_haar_file(tmp_path, seed)]
    for kind in ENTROPIC_KINDS:
        for partition in ("A|BCD", "BCD|A"):
            code, out, _ = run_cli(["measure"] + src + ["--kind", kind[0],
                                                        "--partition", partition] + kind[1:],
                                   capsys)
            assert code == 0 and json.loads(out)["value"] >= 0.0, (kind, partition)
            assert '"value": -' not in out, (kind, partition)  # no -0 either
    for theorem in FRACTIONAL_VERIFIES:
        code, _, err = run_cli(["verify"] + src + ["--theorem"] + theorem
                               + ["--mu", "1,1", "--ell", "1,1", "--comparator-only"], capsys)
        assert code in (0, 3, 4), (theorem, err)
    code, out, _ = run_cli(["sweep"] + src + ["--kind", "eof", "--alpha-min", "1.5",
                                              "--alpha-max", "3", "--steps", "4",
                                              "--mu", "1,1", "--ell", "1,1"], capsys)
    lhs = [row.split(",")[1] for row in out.splitlines()[1:]]
    assert code == 0 and len(lhs) == 4
    assert all(v != "null" and float(v) >= 0.0 for v in lhs), lhs


@pytest.mark.parametrize("preset,partition", [("w:4", "A|CD"), ("ghz:5", "A|CDE"),
                                              ("w:5", "ACD|B")])
def test_cren_of_one_qubit_against_a_group_is_the_concurrence_interval(preset, partition,
                                                                      capsys):
    code, rec, _ = run_json(["measure", "--preset", preset, "--kind", "cren",
                             "--partition", partition], capsys)
    _, ref, _ = run_json(["measure", "--preset", preset, "--kind", "concurrence",
                          "--partition", partition], capsys)
    assert code == 0 and rec["status"] == ref["status"] == "interval"
    for key in ("value", "lo", "hi"):
        assert rec[key] == pytest.approx(ref[key], abs=1e-12)


def test_cren_verify_beyond_three_qubits_exits_as_the_concurrence_one(capsys):
    args = ["--preset", "w:5", "--alpha", "2.5", "--mu", "1,1,1", "--ell", "1,1,1"]
    code, rec, _ = run_json(["verify", "--theorem", "cren"] + args, capsys)
    ref_code, ref, _ = run_json(["verify", "--theorem", "concurrence"] + args, capsys)
    assert code == ref_code == 3
    assert rec["conditions"] == ref["conditions"]


@pytest.mark.parametrize("partition", ["A|B", "A|BC"])
def test_huge_renyi_order_stays_finite(partition, capsys):
    # the order-a powers of the spectrum underflow; the value tends to -log2 p_max
    code, rec, _ = run_json(
        ["measure", "--preset", "example1", "--kind", "renyi", "--aacute", "1e300",
         "--partition", partition], capsys)
    assert code == 0
    assert rec["status"] == "exact"
    assert rec["value"] is not None and 0.0 < rec["value"] < 1.0


@pytest.mark.parametrize("theorem", [["eoa"], ["teoa", "--q", "2"],
                                     ["reoa", "--aacute", "1.2"]])
def test_verify_estimates_each_assisted_pair_once(theorem, capsys, monkeypatch):
    # one stacked kernel call per chain, carrying the N-1 distinct pair
    # seeds; no per-pair estimate or reduction runs, and the report is unchanged
    import entmono.measures as measures
    from entmono.states import PureState
    original = measures.assisted_estimates
    sources = {2: ["--preset", "example1"],
               4: ["--preset", "w:5", "--comparator-only", "--mu", "1,1,1", "--ell", "1,1,1"]}
    for n_pairs, source in sources.items():
        calls = []

        def counted(rhos, kind, budget, seeds):
            calls.append((len(rhos), list(seeds)))
            return original(rhos, kind, budget, seeds)

        def forbidden(*args, **kwargs):
            raise AssertionError("a polygamy chain ran a per-pair estimate or reduction")

        args = ["verify"] + source + ["--theorem", theorem[0], "--alpha", "0.5",
                                      "--budget", "20"] + theorem[1:]
        code, before, _ = run_cli(args, capsys)
        with monkeypatch.context() as patch:
            patch.setattr(measures, "assisted_estimates", counted)
            patch.setattr(measures, "assisted_estimate", forbidden)
            patch.setattr(PureState, "reduce", forbidden)
            assert run_cli(args, capsys)[:2] == (code, before)
        assert len(calls) == 1
        assert calls[0][0] == n_pairs
        assert len(set(map(tuple, calls[0][1]))) == len(calls[0][1]) == n_pairs


@pytest.mark.parametrize("theorem", [["concurrence", "--alpha", "2"],
                                     ["cren", "--alpha", "2"],
                                     ["eof", "--alpha", "2"],
                                     ["eoa", "--alpha", "0.5"]])
@pytest.mark.parametrize("bad", [["--budget", "-5"], ["--seed", "-3"], ["--budget", "-1"]])
def test_negative_budget_or_seed_exits_two_for_every_theorem(theorem, bad, capsys):
    # checked before anything is measured, also where the chain is exact
    code, out, err = run_cli(["verify", "--preset", "example1", "--theorem"] + theorem + bad,
                             capsys)
    assert (code, out) == (2, "")
    assert "nonnegative" in err


@pytest.mark.parametrize("args", [
    ["--preset", "w:5", "--theorem", "concurrence", "--mu", "1,1,1", "--ell", "1,1,1"],
    ["--preset", "ghz:6", "--theorem", "concurrence", "--mu", "1.5,1,2,1",
     "--ell", "1,1.25,1,3"],
    ["--preset", "w:5", "--theorem", "eof", "--comparator-only", "--mu", "2,1,1.5",
     "--ell", "1,2,1"],
    ["--preset", "example1", "--theorem", "concurrence"],
])
def test_split_at_the_last_step_is_no_split(args, capsys):
    # split N-2 leaves no step to swap roles in: the chain, the right-hand
    # sides and the conditions are those of the unsplit bound
    n_steps = 1 if "example1" in args else int(args[1].split(":")[1]) - 2
    argv = ["verify", "--alpha", "2.5"] + args
    code, plain, _ = run_json(argv, capsys)
    split_code, split, _ = run_json(argv + ["--m-split", str(n_steps)], capsys)
    assert (plain.pop("split"), split.pop("split")) == (None, n_steps)
    assert (split_code, split) == (code, plain)


def three_qubit_product(position: int) -> PureState:
    """A Haar qubit at position (1 or 2) times a Haar state of the other two."""
    one = random_pure(1, seed_path(3, position)).amplitudes
    rest = random_pure(2, seed_path(4, position)).amplitudes.reshape(2, 2)
    amps = np.moveaxis(np.einsum("a,bc->abc", one, rest), 0, position).reshape(-1)
    return PureState(amps / np.linalg.norm(amps), (2, 2, 2))


def amplitudes_at(n: int, entries: dict) -> PureState:
    amps = np.zeros(2 ** n, dtype=complex)
    for index, value in entries.items():
        amps[index] = value
    return PureState(amps, (2,) * n)


# states of the cases below, written to files that an argv names as "@name"
STATE_FILES = {
    # bell x |0>: pair ranks 1 and 2 in one stacked estimator pass
    "bell0": lambda: amplitudes_at(3, {0: math.sqrt(0.5), 6: math.sqrt(0.5)}),
    # Haar(4) x |0>: pair ranks 4, 4, 4 and 2, two rank groups of one chain
    "haar4-0": lambda: PureState(np.kron(random_pure(4, seed_path(4, 0)).amplitudes,
                                         [1.0, 0.0]), (2,) * 5),
    # a nearly pure group ACD: C(A|CD) = 4e-11 gets an interval, not the far
    # larger upper leg C(A|BCD) = 8.9e-6 as an exact value
    "near": lambda: amplitudes_at(4, {0: math.sqrt(1 - 4e-11), 4: math.sqrt(2e-11),
                                      15: math.sqrt(2e-11)}),
    "product-1": lambda: three_qubit_product(1),
    "product-2": lambda: three_qubit_product(2),
}


def holds(rec):
    return rec["conditions"]["summary"] == "holds"


def pair_clauses_undecidable(rec):
    steps = [s for s in rec["conditions"]["steps"] if "M(A," in s["description"]]
    return bool(steps) and all(s["status"] == "undecidable" for s in steps)


def zero_term(position):
    return lambda rec: rec["terms"][position - 1]["value"] == 0.0


def a_certified_interval(rec):
    return rec["status"] == "interval" and rec["lo"] <= rec["hi"]


# argv ("@out" is an output file), the exit codes it may end with, and a
# predicate of its JSON report (None: no predicate); each command runs twice
# and must end with the same exit code, output and stderr both times
SECOND_RUN = [
    # the array sweep on the N > 3 coefficient layout
    (["sweep", "--preset", "w:5", "--kind", "concurrence", "--alpha-min", "2",
      "--alpha-max", "5", "--steps", "61", "--mu", "1,1,1", "--ell", "1,1,1",
      "--out", "@out"], {0}, None),
    # GHZ_3's pair concurrences are exactly 0, certified endpoints: every clause holds
    (["verify", "--preset", "ghz:3", "--theorem", "concurrence", "--alpha", "2",
      "--mu", "1", "--ell", "1"], {0}, holds),
    # a polygamy chain's pair values are heuristic, whatever mu and l say
    (["verify", "--preset", "example1", "--theorem", "teoa", "--q", "2", "--alpha", "0.5",
      "--mu", "0.5", "--ell", "1.5"], {3}, pair_clauses_undecidable),
    # pair concurrences of a 4-qubit state from its 4-column amplitude matrices
    (["verify", "--preset", "w:4", "--theorem", "concurrence", "--alpha", "2",
      "--mu", "1,1", "--ell", "1,1"], {0, 3}, None),
    (["verify", "--state", "@bell0", "--theorem", "eoa", "--alpha", "0.5"], {3}, None),
    # 257 restarts cross a restart block
    (["verify", "--state", "@haar4-0", "--theorem", "eoa", "--alpha", "0.5",
      "--mu", "1,1,1", "--ell", "1,1,1", "--comparator-only", "--budget", "257"], {3}, None),
    (["measure", "--state", "@near", "--kind", "concurrence", "--partition", "A|CD"], {0},
     a_certified_interval),
] + [
    # a product qubit's pair values are decided zeros: automatic (mu, l) gets
    # no l of 0 and no mu of roundoff, so the verify never exits 2
    (["verify", "--state", f"@product-{position}", "--theorem"] + theorem, {0, 3, 4},
     zero_term(position))
    for position in (1, 2) for theorem in (["concurrence", "--alpha", "3"],
                                           ["eof", "--alpha", "2"])
]


@pytest.mark.parametrize("argv,codes,check", SECOND_RUN,
                         ids=[" ".join(argv[:5]) for argv, _, _ in SECOND_RUN])
def test_a_second_run_prints_the_same_bytes(argv, codes, check, tmp_path, capsys):
    names = {arg[1:] for arg in argv if arg.startswith("@") and arg != "@out"}
    for name in names:
        save_state(STATE_FILES[name](), tmp_path / f"{name}.json")
    runs = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.out"
        args = [str(out) if arg == "@out" else str(tmp_path / f"{arg[1:]}.json")
                if arg.startswith("@") else arg for arg in argv]
        code, text, err = run_cli(args, capsys)
        runs.append((code, out.read_bytes() if out.exists() else text, err))
    assert runs[0] == runs[1]
    code, text, err = runs[0]
    assert code in codes, err
    if check is not None:
        assert check(json.loads(text))


class TestCorpus:
    def test_small_run_passes(self, capsys):
        code, rec, _ = run_json(
            ["corpus", "--suite", "lemma1", "--samples", "5000", "--seed", "42"],
            capsys)
        assert code == 0
        assert rec["passed"] is True
        suite = rec["suites"][0]
        assert suite["violations"] == 0
        assert suite["seed"] == 42

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["corpus", "--suite", "ckw", "--samples", "100", "--seed", "7"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_all_suites(self, capsys):
        code, rec, _ = run_json(
            ["corpus", "--suite", "all", "--samples", "50", "--seed", "3"], capsys)
        assert code == 0
        assert [s["suite"] for s in rec["suites"]] == \
            ["lemma1", "ckw", "consistency", "hierarchy", "lemma2"]

    # corpus --suite all --seed 7 at the default sizes as the per-sample
    # loops printed it: (samples, violations, worst_slack) per suite, and no
    # offenders; an array evaluation may move a worst_slack by roundoff only
    SEED7 = {"lemma1": (100000, 0, 8.78318702213e-08),
             "ckw": (1000, 0, 0.0069345480117),
             "consistency": (1000, 0, -5.72458747072e-15),
             "hierarchy": (10000, 0, 1.28252817941e-05),
             "lemma2": (200, 0, -3.33066907388e-16)}

    def test_default_sizes_keep_the_sample_set(self, capsys):
        code, rec, _ = run_json(["corpus", "--suite", "all", "--seed", "7"], capsys)
        assert code == 0 and rec["passed"] is True
        assert [s["suite"] for s in rec["suites"]] == list(self.SEED7)
        for suite in rec["suites"]:
            samples, violations, worst = self.SEED7[suite["suite"]]
            assert (suite["samples"], suite["violations"], suite["passed"],
                    suite["offenders"]) == (samples, violations, True, [])
            assert abs(suite["worst_slack"] - worst) <= 1e-12

    def test_each_sample_stream_is_seeded_once(self, capsys, monkeypatch):
        # ckw, consistency and lemma2 read the same (seed, index) streams, so
        # one run seeds as many per-sample streams as its largest state suite
        # has samples, not one per suite and sample
        pcg64, seeded = np.random.PCG64, []

        def counting_pcg64(*args, **kwargs):
            seeded.append(args)
            return pcg64(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", counting_pcg64)
        code, rec, _ = run_json(["corpus", "--suite", "all", "--seed", "7"], capsys)
        assert code == 0 and [s["samples"] for s in rec["suites"]] == \
            [s[0] for s in self.SEED7.values()]
        assert len(seeded) == max(corpus.SUITES[name][0]
                                  for name in ("ckw", "consistency", "lemma2")) == 1000

    # sha256 of the stdout of corpus --suite all --samples 300: pins the sample
    # set across builds.  Re-recorded when the qubit kernels became closed
    # forms, which moved only the consistency worst_slack (7: -2.88657986403e-15
    # -> -1.99840144433e-15; 2**64 + 3: -3.33066907388e-15 -> -1.69309011255e-15)
    PINNED_SHA256 = {
        7: "85cc43d02eff92c3c26b1c05aeebad4db06008c056f4edfbc895710676e26a5e",
        2 ** 64 + 3: "85d8e8313be86b5f3c9e1bde54208286fee5d5fcbae7623d643a87841fe61140",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_SHA256))
    def test_stdout_bytes_are_pinned(self, seed, capsys):
        code, out, _ = run_cli(["corpus", "--suite", "all", "--samples", "300",
                                "--seed", str(seed)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256[seed]


def test_cli_import_leaves_numpy_random_unloaded():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, entmono.cli; sys.exit('numpy.random' in sys.modules)"],
        capture_output=True, text=True)
    assert (out.returncode, out.stderr) == (0, "")


def test_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "entmono.cli", "measure", "--preset", "example1",
         "--kind", "renyi", "--aacute", "2", "--partition", "A|BC"],
        capture_output=True, text=True)
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["value"] == pytest.approx(math.log2(25 / 17), abs=1e-9)


def test_float_formatting_twelve_digits():
    assert cli.fmt(0.123456789012345) == "0.123456789012"
    assert cli.fmt(1.0) == "1"
    assert cli.fmt(True) == "true"
    assert cli.fmt(float("nan")) == "null"


@pytest.mark.parametrize("order", ["0.5", "0.8"])
def test_a_renyi_pair_below_the_proven_order_exits_two(order, capsys):
    code, out, err = run_cli(["measure", "--preset", "w:3", "--kind", "renyi",
                              "--aacute", order, "--partition", "A|B"], capsys)
    assert (code, out) == (2, "")
    assert "mixed-state renyi route requires order >= 0.822876" in err


@pytest.mark.parametrize("order", [repr(measures.RENYI_ORDER_LO), "0.9", "2"])
def test_a_renyi_pair_from_the_proven_order_is_exact(order, capsys):
    code, rec, _ = run_json(["measure", "--preset", "w:3", "--kind", "renyi",
                             "--aacute", order, "--partition", "A|B"], capsys)
    w3 = w_state(3)
    c = measures.pair_concurrences(w3.amplitudes, w3.dims, 0, [1])[0]
    ref = measures.MeasureKind("renyi", order=float(order)).from_concurrence(c)
    assert (code, rec["status"], rec["value"]) == (0, "exact", float(cli.fmt(ref)))


@pytest.mark.parametrize("kind", [["tsallis", "--q", "0.3"], ["renyi", "--aacute", "0.5"]])
def test_an_entropic_kind_on_a_larger_group_is_not_supported(kind, capsys):
    # no pair value is read, so the window of the pair closed form is not quoted
    code, out, err = run_cli(["measure", "--preset", "w:4", "--kind", kind[0],
                              "--partition", "A|BC"] + kind[1:], capsys)
    assert (code, out) == (2, "")
    assert "on a mixed 3-subsystem group is not supported" in err


# the measure kinds, verify theorems and figure sweeps of the benchmark's
# three_qubit_bounds workload, run on presets only so no file path enters the bytes
PIN_MEASURE_KINDS = {"concurrence": [], "cren": [], "negativity": [], "eof": [],
                     "tsallis": ["--q", "2.5"], "renyi": ["--aacute", "2.5"]}
PIN_VERIFY_THEOREMS = {"concurrence": ["--alpha", "3"], "cren": ["--alpha", "3"],
                       "eof": ["--alpha", "2"], "tsallis": ["--alpha", "2", "--q", "2.5"],
                       "renyi": ["--alpha", "2", "--aacute", "2.5"],
                       "eoa": ["--alpha", "0.5"], "teoa": ["--alpha", "0.5", "--q", "2"],
                       "reoa": ["--alpha", "0.5", "--aacute", "1.2"]}
PIN_SWEEP_KINDS = {
    "concurrence": ["--alpha-min", "2", "--alpha-max", "5"],
    "cren": ["--alpha-min", "2", "--alpha-max", "5"],
    "eof": ["--alpha-min", repr(math.sqrt(2.0)), "--alpha-max", "4"],
    "tsallis": ["--alpha-min", "1", "--alpha-max", "4", "--q", "2.5"],
    "renyi": ["--alpha-min", "1", "--alpha-max", "4", "--aacute", "2.5"],
}
PIN_ARGVS = {
    "measure": [["measure", "--preset", preset, "--kind", kind, "--partition", part] + extra
                for preset in ("example1", "w:3", "ghz:4", "w:4")
                for part in ("A|B", "A|BC", "AB|C", "A|CD")
                for kind, extra in PIN_MEASURE_KINDS.items()],
    "verify": [["verify", "--preset", preset, "--theorem", theorem] + extra
               for preset in ("example1", "w:3")
               for theorem, extra in PIN_VERIFY_THEOREMS.items()]
              + [["verify", "--preset", "w:5", "--theorem", theorem, "--alpha", "3",
                  "--mu", "1,1,1", "--ell", "1,1,1"] for theorem in ("concurrence", "cren")],
    "sweep": [["sweep", "--preset", preset, "--kind", kind, "--steps", "61"] + extra
              for preset in ("example1", "w:3") for kind, extra in PIN_SWEEP_KINDS.items()],
}

# sha256 over (argv, exit code, stdout) of each list above, recorded before the
# closed forms of the measures were read from MeasureKind.from_spectrum alone.
# verify was re-recorded when the qubit kernels became closed forms, which
# moved only two example1 margins to exact zeros: tsallis -2.77555756156e-17
# -> 0 and renyi 5.55111512313e-17 -> 0.  It was re-recorded again when
# extracted (mu, l) began to report the margin they saturate as exactly 0,
# which moved nine margins and nothing else: example1 concurrence
# 1.11022302463e-16 and eoa 1.11022302463e-16; w:3 concurrence
# 1.11022302463e-16, cren -2.22044604925e-16, eof 1.11022302463e-16, tsallis
# 2.77555756156e-17, renyi -1.11022302463e-16, teoa 1.11022302463e-16 and
# reoa -1.11022302463e-16, each -> 0.  These bytes no longer depend on the
# host's SIMD kernels.  verify was re-recorded once more when the restarts
# of a rank-2 assisted pair became points of a grid over U(2): the example1
# eoa, teoa and reoa reports moved their pair values and every number
# derived from them, and kept exit code 3.  The w:3 ones did not move: the
# estimates of a W pair read its eigen-ensemble's value on both
PIN_SHA256 = {
    "measure": "b3c4d27ed89acb54fa92ba8d4137bb1c5bd09ab96eeae00b539a4b005f1e4080",
    "verify": "7408a51e6ad167e8be611c46eeffb814b69dd16207f00379668a18c1820f2764",
    "sweep": "a68d9b1e712e99f7b423217ff180a905645f2b673cc5f8affca9485a0c20414c",
}


@pytest.mark.parametrize("command", sorted(PIN_SHA256))
def test_stdout_and_exit_codes_are_pinned(command, capsys):
    digest = hashlib.sha256()
    for argv in PIN_ARGVS[command]:
        code, out, _ = run_cli(argv, capsys)
        digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert digest.hexdigest() == PIN_SHA256[command]
