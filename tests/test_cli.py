"""CLI surface tests: measure/sweep/verify/corpus subcommands, the state
file format, CSV schema, determinism and the exit-code contract."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import entmono.cli as cli
from entmono import random_pure, save_state


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
        assert "comparator_only" in err

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
]


@pytest.mark.parametrize("args", NON_FINITE, ids=lambda a: " ".join(a[3:]))
def test_non_finite_parameters_exit_two(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("entmono: ") and "Traceback" not in err


MALFORMED = [
    ["corpus", "--suite", "all", "--seed", "-1"],
    ["corpus", "--suite", "ckw", "--samples", "10", "--seed", "-1"],
    ["verify", "--preset", "example1", "--theorem", "eoa", "--alpha", "0.5",
     "--seed", "-3"],
    ["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
     "--alpha-max", "3", "--steps", "3", "--mu", "abc", "--ell", "1"],
    ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "3",
     "--mu", "1,x", "--ell", "1,1"],
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
]


@pytest.mark.parametrize("args", MALFORMED, ids=lambda a: " ".join(a))
def test_malformed_arguments_exit_two(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("entmono: ") and "Traceback" not in err


def test_auto_clears_a_lone_mu(capsys):
    args = ["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "3"]
    code, auto, _ = run_cli(args, capsys)
    assert code == 0
    assert run_cli(args + ["--mu", "5", "--auto"], capsys)[:2] == (0, auto)


BAD_STATE_FILES = {
    "not-json": b'{"n_qubits": 2, "amplitudes": [[1, 0]',
    "not-utf8": b'{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]} \xff\xfe',
    "fractional-n": json.dumps({"n_qubits": 2.7, "amplitudes": [[1, 0]] + [[0, 0]] * 3}).encode(),
}


@pytest.mark.parametrize("name", sorted(BAD_STATE_FILES))
def test_malformed_state_file_exits_two(name, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(BAD_STATE_FILES[name])
    code, out, err = run_cli(["measure", "--state", str(path), "--kind", "concurrence",
                              "--partition", "A|B"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("entmono: ") and "Traceback" not in err


ONE_CHAIN = [
    # 3-qubit monogamy verify: the pairs from one Wootters call, no reduction
    (["verify", "--preset", "example1", "--theorem", "concurrence", "--alpha", "2"], 0, 1),
    # ghz:6 with explicit parameters: the links read 3 group purities
    (["verify", "--preset", "ghz:6", "--theorem", "concurrence", "--alpha", "2",
      "--mu", "1,1,1,1", "--ell", "1,1,1,1"], 3, 1),
    # auto sweep: one chain feeds the extraction and all 61 rows
    (["sweep", "--preset", "example1", "--kind", "concurrence", "--alpha-min", "2",
      "--alpha-max", "5", "--steps", "61"], 0, 1),
    # a sweep reads no link, so it forms no group purity
    (["sweep", "--preset", "ghz:6", "--kind", "concurrence", "--alpha-min", "2",
      "--alpha-max", "5", "--steps", "61", "--mu", "1,1,1,1", "--ell", "1,1,1,1"], 0, 1),
]


@pytest.mark.parametrize("args,reductions,wootters", ONE_CHAIN,
                         ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_each_command_measures_the_chain_once(args, reductions, wootters, capsys,
                                              monkeypatch):
    import entmono.measures as measures
    from entmono import PureState
    calls = {"reduce": 0, "wootters": 0}
    reduce, kernel = PureState.reduce, measures.wootters_concurrence

    def counted_reduce(self, keep):
        calls["reduce"] += 1
        return reduce(self, keep)

    def counted_kernel(rhos):
        calls["wootters"] += 1
        return kernel(rhos)

    monkeypatch.setattr(PureState, "reduce", counted_reduce)
    monkeypatch.setattr(measures, "wootters_concurrence", counted_kernel)
    assert run_cli(args, capsys)[0] in (0, 3)
    assert calls == {"reduce": reductions, "wootters": wootters}


@pytest.mark.parametrize("kind", ["concurrence", "eof", "cren"])
def test_pure_value_reads_the_smaller_side(kind, capsys):
    # the keep side has 13 qubits, beyond the dense cap; the other side has one
    code, rec, _ = run_json(
        ["measure", "--preset", "ghz:14", "--kind", kind,
         "--partition", "ABCDEFGHIJKLM|N"], capsys)
    assert code == 0
    assert rec["value"] == pytest.approx(1.0, abs=1e-12)


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
    import entmono.bounds as bounds
    calls = []
    original = bounds.assisted_estimate

    def counted(*args, **kwargs):
        calls.append(kwargs.get("seed"))
        return original(*args, **kwargs)

    args = ["verify", "--preset", "example1", "--theorem", theorem[0], "--alpha", "0.5",
            "--budget", "20"] + theorem[1:]
    code, before, _ = run_cli(args, capsys)
    monkeypatch.setattr(bounds, "assisted_estimate", counted)
    assert run_cli(args, capsys)[:2] == (code, before)
    assert len(calls) == 2 and len(set(calls)) == 2


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
