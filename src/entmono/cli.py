"""Command-line interface: compute measures, sweep bound curves to CSV,
verify bound instances, and run the randomized property corpus.

Exit codes: 0 success / bound certified; 1 I/O or internal failure;
2 invalid parameters (a size too large to allocate among them) or an
uncertifiable regime (capability error);
3 hypothesis conditions not certified (undecidable or failed), or a NaN
margin;
4 certified violation (defect signal).
"""

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import corpus as corpus_mod
from .bounds import (MONOGAMY, PRIOR_KINDS, THEOREMS, BoundParams, bound_family,
                     evaluate_bounds, verify)
from .errors import (CapabilityError, ContractError, DimensionError,
                     DomainError, ParameterError)
from .measures import CERT_TOL, PARAMETERS, MeasureKind, negativity
from .states import bell, example1_params, ghz, load_state, schmidt3, w_state

MEASURE_KINDS = ("concurrence", "cren", "negativity", "eof", "tsallis", "renyi")

# the sweep's bound columns in header order: ours, then PRIOR_KINDS reversed
SWEEP_BOUNDS = ("ours",) + PRIOR_KINDS[::-1]

# the one print rule of a float in JSON and CSV output: FLOAT_FORMAT % x
# (12 significant digits) if x is finite, NON_FINITE otherwise
FLOAT_FORMAT = "%.12g"
NON_FINITE = "null"


def fmt(x) -> str:
    """A float by the print rule (FLOAT_FORMAT, NON_FINITE); everything
    else via json.dumps."""
    if isinstance(x, float):
        return FLOAT_FORMAT % x if math.isfinite(x) else NON_FINITE
    return json.dumps(x)


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON, each level two spaces past its container from
    indent levels, as fmt renders its leaves (floats by the print rule) and
    empty containers.  The pieces of every level are appended into one
    list that is joined once."""
    if not (isinstance(obj, (dict, list, tuple)) and obj):
        return fmt(obj)
    pieces = []
    _render(obj, "\n" + "  " * indent, pieces)
    return "".join(pieces)


def _render(obj, pad: str, pieces: list):
    """Append the JSON of a nonempty dict, list or tuple whose line starts
    with pad to pieces.  Its leaves are rendered here, floats and strings
    checked first (floats by the print rule, and encode_basestring_ascii
    quotes a string as json.dumps does), and only a nested nonempty
    container takes a further call."""
    inner, keyed = pad + "  ", isinstance(obj, dict)
    sep = "{" if keyed else "["
    for item in obj.items() if keyed else obj:
        pieces += (sep, inner)
        if keyed:
            pieces += (encode_basestring_ascii(str(item[0])), ": ")
            item = item[1]
        if isinstance(item, float):
            pieces.append(FLOAT_FORMAT % item if math.isfinite(item) else NON_FINITE)
        elif isinstance(item, str):
            pieces.append(encode_basestring_ascii(item))
        elif isinstance(item, (dict, list, tuple)) and item:
            _render(item, inner, pieces)
        else:  # json.dumps of an empty dict, list or tuple is {} or []
            pieces.append(fmt(item))
        sep = ","
    pieces += (pad, "}" if keyed else "]")


def emit(text: str, out_path):
    """Write text and a final newline to out_path, or to stdout for None or '-'."""
    text += "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def load_input(args) -> tuple:
    """Resolve --preset/--state into (PureState, description)."""
    if getattr(args, "state", None):
        return load_state(args.state), args.state
    preset = getattr(args, "preset", None)
    if not preset:
        raise ParameterError("provide --preset or --state")
    name = preset.lower()
    if name == "example1":
        return schmidt3(example1_params()), preset
    if name == "bell":
        return bell(), preset
    for prefix, build in (("ghz:", ghz), ("w:", w_state)):
        if name.startswith(prefix):
            try:
                n = int(name[len(prefix):])
            except ValueError:
                raise ParameterError(f"preset {preset!r} needs an integer qubit count") from None
            return build(n), preset
    raise ParameterError(
        f"unknown preset {preset!r}; expected example1, bell, ghz:N or w:N")


def parse_partition(text: str, n_qubits: int) -> tuple:
    """Split a partition string like 'A|BC' into two index groups."""
    if text.count("|") != 1:
        raise ParameterError(f"partition must contain one '|', got {text!r}")
    sides = []
    for part in text.split("|"):
        idx = []
        for ch in part.strip():
            pos = ord(ch.upper()) - ord("A")
            if not 0 <= pos < n_qubits:
                raise ParameterError(
                    f"qubit letter {ch!r} out of range for {n_qubits} qubits")
            idx.append(pos)
        if not idx:
            raise ParameterError(f"both partition sides must be nonempty, got {text!r}")
        sides.append(sorted(set(idx)))
    left, right = sides
    if set(left) & set(right):
        raise ParameterError(f"partition sides overlap in {text!r}")
    return left, right


# MeasureKind parameter field -> the option that gives it
FIELD_OPTIONS = {"q": "q", "order": "aacute"}


def kind_options(name: str, args) -> dict:
    """The q and order of the measure name from --q/--aacute.

    A kind takes the option of its measures.PARAMETERS field (FIELD_OPTIONS);
    a missing one, or one given to any other kind, is a ParameterError.
    """
    needed = FIELD_OPTIONS.get(PARAMETERS.get(name))
    for opt in FIELD_OPTIONS.values():
        given = getattr(args, opt) is not None
        if opt == needed and not given:
            raise ParameterError(f"{name} requires --{opt}")
        if opt != needed and given:
            raise ParameterError(f"--{opt} is not meaningful for kind {name!r}")
    return {field: getattr(args, opt) for field, opt in FIELD_OPTIONS.items()}


def cmd_measure(args) -> int:
    state, source = load_input(args)
    left, right = parse_partition(args.partition, state.n_qubits)
    group = sorted(left + right)
    options = kind_options(args.kind, args)
    # every kind reads the split left | right of the group from the amplitudes
    mv = (negativity if args.kind == "negativity"
          else MeasureKind(args.kind, **options).evaluate)(state, left, group)

    record = {
        "command": "measure",
        "input": source,
        "kind": args.kind,
        "partition": args.partition,
        "value": mv.value,
        "status": mv.status,
    }
    if args.q is not None:
        record["q"] = args.q
    if args.aacute is not None:
        record["aacute"] = args.aacute
    if mv.status == "interval":
        record["lo"], record["hi"] = mv.lo, mv.hi
    emit(to_json(record), args.out)
    return 0


def family_from_args(args, key: str):
    """The bound family of the selector key in bounds.THEOREMS, with its --q/--aacute."""
    try:
        name, direction, _, _ = THEOREMS[key]
    except KeyError:
        raise ParameterError(
            f"unknown theorem selector {key!r}; expected a family in "
            f"{sorted(THEOREMS)} optionally prefixed like thm1-") from None
    return bound_family(name, direction, **kind_options(name, args))


def parse_floats(text):
    if text is None:
        return None
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError:
        raise ParameterError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_verify(args) -> int:
    state, source = load_input(args)
    key = args.theorem.lower()
    if key.startswith("thm") and "-" in key:
        key = key.split("-", 1)[1]
    family = family_from_args(args, key)
    mu, ell = parse_floats(args.mu), parse_floats(args.ell)
    if args.auto:
        mu = ell = None
    params = BoundParams(family, args.alpha, mu, ell, args.m_split)
    report = verify(state, params, comparator_k=args.k,
                    comparator_only=args.comparator_only,
                    budget=args.budget, seed=args.seed)
    record = {"command": "verify", "input": source, "theorem": args.theorem}
    record.update(report.to_dict())
    emit(to_json(record), args.out)
    if not report.conditions.all_hold or math.isnan(report.margin):
        return 3
    return 0 if report.margin >= -CERT_TOL else 4


def cmd_sweep(args) -> int:
    """Write the sweep_columns as CSV, one row per alpha, floats as fmt prints them."""
    emit("\n".join(csv_lines(sweep_columns(args))), args.out)
    return 0


def csv_lines(columns: dict) -> list:
    """The header and one line per row of columns (name -> float array),
    each value as fmt renders it.

    A row of finite floats is one %-format call of FLOAT_FORMAT per
    column.  A row with a non-finite value goes through fmt, which prints
    NON_FINITE.
    """
    row_format = ",".join([FLOAT_FORMAT] * len(columns))
    rows = zip(*(c.tolist() for c in columns.values()))
    finite = np.logical_and.reduce([np.isfinite(c) for c in columns.values()]).tolist()
    return [",".join(columns)] + [row_format % row if ok else ",".join(map(fmt, row))
                                  for row, ok in zip(rows, finite)]


def sweep_columns(args) -> dict:
    """The sweep's CSV columns, header name -> array over the alpha grid.

    The grid alpha_i = alpha_min + (alpha_max - alpha_min) * i / (steps - 1)
    is evaluated elementwise (the float values a per-step loop gives).  The
    columns are alpha, lhs = M(A|B_1...B_{N-1})^alpha and the selected
    bounds in SWEEP_BOUNDS order (ours, kf, jf, ckw), from one
    bounds.evaluate_bounds call on the whole grid, the rule verify
    evaluates at one alpha; bounds not selected are never evaluated.  The
    grid passes the family's alpha rule there, so a non-finite or
    out-of-domain grid is a ParameterError.  A power beyond the float
    range raises OverflowError.
    """
    state, _ = load_input(args)
    family = family_from_args(args, args.kind)
    if args.steps < 2:
        raise ParameterError(f"--steps must be >= 2, got {args.steps}")
    if args.alpha_max <= args.alpha_min:
        raise ParameterError("--alpha-max must exceed --alpha-min")
    selected = [b.strip() for b in args.bounds.split(",") if b.strip()]
    for b in selected:
        if b not in SWEEP_BOUNDS:
            raise ParameterError(f"unknown bound column {b!r}")

    with np.errstate(over="ignore", invalid="ignore"):  # BoundParams rejects inf and NaN
        alphas = (args.alpha_min
                  + (args.alpha_max - args.alpha_min) * np.arange(args.steps) / (args.steps - 1))
    params = BoundParams(family, alphas, parse_floats(args.mu), parse_floats(args.ell),
                         args.m_split)
    chain, _, ours, priors = evaluate_bounds(state, params, selected, comparator_k=args.k)
    sides = priors if ours is None else {"ours": ours.rhs, **priors}
    columns = {"alpha": alphas, "lhs": chain.full ** alphas}
    columns.update((name, sides[name]) for name in SWEEP_BOUNDS if name in sides)
    return columns


def cmd_corpus(args) -> int:
    names = list(corpus_mod.SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = corpus_mod.run_suites(names, args.samples, args.seed)
    record = {
        "command": "corpus",
        "seed": args.seed,
        "suites": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    emit(to_json(record), args.out)
    return 0 if record["passed"] else 4


# subcommand -> handler, looked up by main on every call, so a wrapper rebound
# in this table (as bench/tracer.py does) takes effect behind the one PARSER
COMMANDS = {"measure": cmd_measure, "sweep": cmd_sweep, "verify": cmd_verify,
            "corpus": cmd_corpus}


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the four subcommands; its namespaces name the
    subcommand in ``command``.  A caller may add options to its own copy.

    Its ``subcommands`` attribute maps each subcommand to its subparser,
    which main parses a command line with.
    """
    parser = argparse.ArgumentParser(
        prog="entmono",
        description="Entanglement measures and tightened one-to-group "
                    "bound verification on multi-qubit states.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--preset", help="example1, bell, ghz:N or w:N")
        p.add_argument("--state", help="path to a JSON state file")
        p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("measure", help="compute one measure on one bipartition")
    add_input(p)
    p.add_argument("--kind", required=True, choices=MEASURE_KINDS)
    p.add_argument("--partition", required=True,
                   help="e.g. A|BC or A|B.  Qubits left out are traced out: a "
                        "2-qubit group gives an exact value, as the negativity "
                        "does on any group, and the concurrence or cren of one "
                        "qubit against a larger group a certified interval")
    p.add_argument("--q", type=float, help="Tsallis entropy parameter")
    p.add_argument("--aacute", type=float, help="Renyi entropy order")

    p = sub.add_parser("sweep", help="emit bound curves over alpha as CSV")
    add_input(p)
    p.add_argument("--kind", required=True,
                   choices=[key for key, row in THEOREMS.items() if row[1] == MONOGAMY])
    p.add_argument("--q", type=float)
    p.add_argument("--aacute", type=float)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--bounds", default=",".join(SWEEP_BOUNDS),
                   help=f"comma subset of {','.join(SWEEP_BOUNDS)}")
    p.add_argument("--k", type=float, default=0.5, help="comparator k (0 < k <= 1)")
    p.add_argument("--mu", help="comma-separated mu_r (default: extracted)")
    p.add_argument("--ell", help="comma-separated l_r (default: extracted)")
    p.add_argument("--m-split", type=int, dest="m_split")

    p = sub.add_parser("verify", help="evaluate one bound instance, JSON report")
    add_input(p)
    p.add_argument("--theorem", required=True,
                   help=f"family selector ({', '.join(THEOREMS)}; an optional "
                        "thmN- prefix is accepted)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--aacute", type=float)
    p.add_argument("--mu", help="comma-separated mu_r")
    p.add_argument("--ell", help="comma-separated l_r")
    p.add_argument("--auto", action="store_true",
                   help="extract maximal feasible (mu, l), discarding any --mu or "
                        "--ell given (the default when both are omitted)")
    p.add_argument("--comparator-only", action="store_true", dest="comparator_only")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--m-split", type=int, dest="m_split")
    p.add_argument("--seed", type=int, default=0,
                   help="nonnegative seed of the assisted (polygamy) estimator's "
                        "streams; pair i draws from its own sub-streams")
    p.add_argument("--budget", type=int, default=200,
                   help="nonnegative number of random restarts of the assisted "
                        "(polygamy) estimator per pair")

    p = sub.add_parser("corpus", help="run randomized property suites")
    p.add_argument("--suite", required=True,
                   choices=corpus_mod.SUITE_NAMES + ("all",))
    p.add_argument("--samples", type=int,
                   help="suite-specific default if omitted; at most "
                        f"{corpus_mod.MAX_SAMPLES}")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="output path (default: stdout)")
    parser.subcommands = sub.choices
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] for None) and return its exit code.

    Every call parses with the module's one parser, PARSER, so main may be
    called repeatedly in one process.  A command line whose first word is a
    subcommand is parsed once, by that subparser of PARSER; words it leaves
    over are PARSER's "unrecognized arguments" error, as argparse's nested
    parse reports them.  Any other command line (empty, -h, an unknown
    word) goes through PARSER.parse_args.  A usage error or --help raises
    SystemExit (2 or 0), as argparse does; every other outcome returns the
    exit code documented at the top of this module.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = PARSER.subcommands.get(argv[0]) if argv else None
    if subparser is None:
        args = PARSER.parse_args(argv)
    else:
        args, extra = subparser.parse_known_args(argv[1:])
        if extra:
            PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
        args.command = argv[0]
    try:
        return COMMANDS[args.command](args)
    except (ParameterError, DomainError, DimensionError, ContractError,
            CapabilityError) as exc:
        print(f"entmono: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a finite but huge exponent overflows a power of a value above 1
        print(f"entmono: result out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size such as --steps or --samples too large to allocate
        print(f"entmono: too large to allocate: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"entmono: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
