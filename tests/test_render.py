"""Report rendering against its former deep-copying form, and sweep rows
and loaded states against their former value-by-value forms.

BoundReport.to_dict and ConditionReport.to_dict build their dicts from the
fields, and cli.to_json quotes strings with encode_basestring_ascii.  The
references below are the former forms: dataclasses.asdict, and an encoder
that quotes every string, key and non-float through json.dumps.  Verify
reports of every family at 3 and 6 qubits must give equal dicts, types
included, and identical JSON bytes, also for a non-ASCII state path and
for non-finite fields.  cli.to_json, which appends into one list of
pieces, must give the bytes of the former renderer, which joined strings
at every level, on any nesting of dicts, lists and tuples.  A sweep row
rendered with one format call must equal the fmt of each value joined,
and load_state's trusted state must hold the bytes of the public
PureState of the normalized vector.
"""

import dataclasses
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import entmono.cli as cli
from entmono import (BoundParams, PureState, bound_family, example1_params, load_state,
                     random_pure, save_state, schmidt3, verify, w_state)


def reference_to_dict(report) -> dict:
    steps = [dataclasses.asdict(s) for s in report.conditions.steps]
    return {**dataclasses.asdict(report),
            "conditions": {"summary": report.conditions.summary, "steps": steps}}


def reference_fmt(x) -> str:
    if isinstance(x, bool) or not isinstance(x, float):
        return json.dumps(x)
    if x != x or x in (float("inf"), float("-inf")):
        return json.dumps(None)
    return format(x, ".12g")


def reference_to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {reference_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {reference_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return reference_fmt(obj)


def assert_same(got, want, path="report"):
    """Equal values of identical types all the way down (NaN equals NaN)."""
    assert type(got) is type(want), (path, type(got), type(want))
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and math.isnan(want):
        assert math.isnan(got), path
    else:
        assert got == want, path


# theorem -> (measure, direction, q or order, alpha); beyond three qubits only
# the concurrence family checks its chain, the others are comparator-only
FAMILIES = {
    "concurrence": ("concurrence", "monogamy", {}, 3.0),
    "cren": ("cren", "monogamy", {}, 3.0),
    "eof": ("eof", "monogamy", {}, 2.0),
    "tsallis": ("tsallis", "monogamy", {"q": 2.5}, 2.0),
    "renyi": ("renyi", "monogamy", {"order": 2.5}, 2.0),
    "eoa": ("eof", "polygamy", {}, 0.5),
    "teoa": ("tsallis", "polygamy", {"q": 2.0}, 0.5),
    "reoa": ("renyi", "polygamy", {"order": 1.2}, 0.5),
}
STATES = {
    "example1": schmidt3(example1_params()),
    "w:6": w_state(6),
    "haar6": random_pure(6, (57, 6)),
}


def reports():
    for theorem, (measure, direction, orders, alpha) in FAMILIES.items():
        family = bound_family(measure, direction, **orders)
        for name, state in STATES.items():
            steps = state.n_qubits - 2
            for mu, ell in ((None, None), ((1.5,) * steps, (1.25,) * steps)):
                if mu is None and state.n_qubits != 3:
                    continue
                params = BoundParams(family, alpha, mu, ell, 1 if steps > 1 else None)
                only = state.n_qubits > 3 and measure != "concurrence"
                yield f"{theorem}-{name}-{'auto' if mu is None else 'explicit'}", verify(
                    state, params, comparator_only=only, budget=20)


REPORTS = dict(reports())


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_dicts_and_bytes_match_the_asdict_form(name):
    report = REPORTS[name]
    got, want = report.to_dict(), reference_to_dict(report)
    assert_same(got, want)
    record = {"command": "verify", "input": name, "theorem": name.split("-")[0]}
    assert cli.to_json({**record, **got}) == reference_to_json({**record, **want})


def test_non_finite_fields_render_as_before():
    report = dataclasses.replace(REPORTS["concurrence-example1-auto"], margin=math.nan,
                                 rhs=math.inf, lhs=-math.inf, alpha=float("nan"))
    got, want = report.to_dict(), reference_to_dict(report)
    assert_same(got, want)
    assert cli.to_json(got) == reference_to_json(want)
    assert '"margin": null' in cli.to_json(got)


@pytest.mark.parametrize("text", ["", "plain", 'quote " and \\ backslash', "tab\tnew\nline",
                                  "\x00\x1f\x7f", "zustand-äß✓", "emoji \U0001f600",
                                  "lone \ud800 surrogate"])
def test_strings_quote_as_json_dumps(text):
    assert cli.fmt(text) == json.dumps(text)
    assert cli.to_json({text: text}) == reference_to_json({text: text})


def test_non_ascii_state_path_renders_as_before(tmp_path, capsys):
    path = tmp_path / "zustand-äß✓ \"q\".json"
    save_state(random_pure(3, (57, 3)), path)
    argv = ["verify", "--state", str(path), "--theorem", "concurrence", "--alpha", "3"]
    code = cli.main(argv)
    out = capsys.readouterr().out
    report = verify(load_state(path), BoundParams(bound_family("concurrence"), 3.0))
    record = {"command": "verify", "input": str(path), "theorem": "concurrence"}
    assert code in (0, 3, 4)
    assert out == reference_to_json({**record, **reference_to_dict(report)}) + "\n"
    assert "\\u00e4" in out


# to_json as it was before it appended into one list of pieces: each level
# joins the rendered strings of its items
def recursive_to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {encode_basestring_ascii(str(k))}: {recursive_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {recursive_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return cli.fmt(obj)


EDGE_LEAVES = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300,
               -1e-300, 1.7976931348623157e308, True, False, None, 0, -7, 2 ** 70, "",
               "zustand-äß✓", "emoji \U0001f600", 'quote " \\ \t\n']
LEAVES = st.one_of(st.sampled_from(EDGE_LEAVES), st.floats(), st.integers(), st.booleans(),
                   st.none(), st.text())
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
DOCUMENTS = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(KEYS, inner, max_size=5)), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS, st.integers(0, 3))
@example({"a": [], "b": {}, "c": (), 1: [{}, [()]], None: -0.0, 2.5: math.nan}, 0)
@example(REPORTS["concurrence-example1-auto"].to_dict(), 0)
def test_to_json_has_the_bytes_of_the_recursive_renderer(obj, indent):
    assert cli.to_json(obj, indent) == recursive_to_json(obj, indent)


# the former sweep row: fmt of each value, joined
def reference_csv_lines(columns: dict) -> list:
    rows = zip(*(c.tolist() for c in columns.values()))
    return [",".join(columns)] + [",".join(map(cli.fmt, row)) for row in rows]


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e-300, -1e-300, 1e300, -1e300, 1.7976931348623157e308, 1.0, -3.0, 1e11,
               1e12, 123456789012.0, 2.0 ** 53, 1e16, 0.1, 1 / 3]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2 ** 60, 2 ** 60).map(float))


@st.composite
def sweep_tables(draw, values):
    width = draw(st.integers(2, 6))
    height = draw(st.integers(1, 8))
    names = ["alpha", "lhs", "ours", "kf", "jf", "ckw"][:width]
    return {name: np.array(draw(st.lists(values, min_size=height, max_size=height)))
            for name in names}


@settings(max_examples=300, deadline=None)
@given(sweep_tables(FINITE))
@example({"alpha": np.array(EDGE_FLOATS), "lhs": -np.array(EDGE_FLOATS)})
def test_a_sweep_row_is_one_format_call_with_the_bytes_of_fmt(columns):
    assert cli.csv_lines(columns) == reference_csv_lines(columns)


@settings(max_examples=100, deadline=None)
@given(sweep_tables(st.one_of(FINITE, st.sampled_from([math.nan, math.inf, -math.inf]))))
@example({"alpha": np.array([2.0, 3.0]), "lhs": np.array([math.inf, 0.5])})
def test_a_non_finite_sweep_value_prints_null(columns):
    lines = cli.csv_lines(columns)
    assert lines == reference_csv_lines(columns)
    for line, row in zip(lines[1:], zip(*columns.values())):
        assert line.split(",").count("null") == sum(not math.isfinite(x) for x in row)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.floats(-1e3, 1e3), min_size=2 ** (n + 1), max_size=2 ** (n + 1)),
    st.floats(-5e-10, 5e-10))))
def test_a_loaded_state_holds_the_bytes_of_the_public_constructor(tmp_path_factory, drawn):
    n, flat, drift = drawn
    raw = np.array(flat[0::2]) + 1j * np.array(flat[1::2])
    size = np.linalg.norm(raw)
    assume(size >= 1e-3)
    # norm² off 1 by up to 1e-9, the file tolerance: load_state renormalizes
    raw = raw / size * math.sqrt(1.0 + drift)
    path = tmp_path_factory.mktemp("load") / "state.json"
    pairs = [[float(a.real), float(a.imag)] for a in raw]
    path.write_text(json.dumps({"n_qubits": n, "amplitudes": pairs}), encoding="utf-8")
    got = load_state(path)
    amps = np.array([complex(re, im) for re, im in pairs])
    want = PureState(amps / float(np.linalg.norm(amps)), (2,) * n)
    assert got.dims == want.dims == (2,) * n
    assert got.amplitudes.dtype == np.complex128 and got.amplitudes.ndim == 1
    assert not got.amplitudes.flags.writeable
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_a_crlf_file_reports_the_position_a_text_read_reports(tmp_path):
    # a text-mode read turns CRLF into LF before the JSON parse sees it
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{"n_qubits": 1,\r\n "amplitudes": [[1, 0], [0, 0]],\r\n x}')
    with open(path, encoding="utf-8") as fh, pytest.raises(ValueError) as text_read:
        json.load(fh)
    with pytest.raises(ValueError) as loaded:
        load_state(path)
    assert str(loaded.value) == f"malformed state file: {text_read.value}"
