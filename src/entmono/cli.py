"""Command-line interface: compute measures, sweep bound curves to CSV,
verify bound instances, and run the randomized property corpus.

Exit codes: 0 success / bound certified; 1 I/O or internal failure;
2 invalid parameters or an uncertifiable regime (capability error);
3 hypothesis conditions not certified (undecidable or failed), or a NaN
margin;
4 certified violation (defect signal).
"""

import argparse
import json
import math
import sys

from . import corpus as corpus_mod
from .bounds import (PRIOR_KINDS, BoundParams, bound_family, measure_chain,
                     prior_rhs, require_exact_chain, resolve_params,
                     rhs_assemble, verify)
from .errors import (CapabilityError, ContractError, DimensionError,
                     DomainError, ParameterError)
from .measures import MeasureKind, negativity
from .states import bell, example1_params, ghz, load_state, schmidt3, w_state

MEASURE_KINDS = ("concurrence", "cren", "negativity", "eof", "tsallis", "renyi")

THEOREM_FAMILIES = {
    "concurrence": ("concurrence", "monogamy"),
    "cren": ("cren", "monogamy"),
    "eof": ("eof", "monogamy"),
    "tsallis": ("tsallis", "monogamy"),
    "renyi": ("renyi", "monogamy"),
    "eoa": ("eof", "polygamy"),
    "teoa": ("tsallis", "polygamy"),
    "reoa": ("renyi", "polygamy"),
}

MARGIN_TOL = 1e-9


def fmt(x) -> str:
    """Floats with 12 significant digits; everything else via repr rules."""
    if isinstance(x, bool) or not isinstance(x, float):
        return json.dumps(x)
    if x != x or x in (float("inf"), float("-inf")):
        return json.dumps(None)
    return format(x, ".12g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting (12 significant digits)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return fmt(obj)


def emit(obj, out_path):
    text = to_json(obj) + "\n"
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


def measure_kind(args) -> MeasureKind:
    name = args.kind
    if name == "tsallis":
        if args.q is None:
            raise ParameterError("tsallis requires --q")
        return MeasureKind("tsallis", q=args.q)
    if name == "renyi":
        if args.aacute is None:
            raise ParameterError("renyi requires --aacute")
        return MeasureKind("renyi", order=args.aacute)
    if args.q is not None or args.aacute is not None:
        raise ParameterError(f"--q/--aacute are not meaningful for kind {name!r}")
    return MeasureKind(name) if name != "negativity" else None


def cmd_measure(args) -> int:
    state, source = load_input(args)
    left, right = parse_partition(args.partition, state.n_qubits)
    keep = sorted(left + right)
    kind = measure_kind(args)

    if len(keep) == state.n_qubits:
        target, side = state, left
    else:
        target, side = state.reduce(keep), [keep.index(i) for i in left]
    mv = negativity(target, side) if kind is None else kind.evaluate(target, side)

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
    emit(record, args.out)
    return 0


def family_from_args(args, key: str):
    try:
        name, direction = THEOREM_FAMILIES[key]
    except KeyError:
        raise ParameterError(
            f"unknown theorem selector {args.theorem!r}; expected a family in "
            f"{sorted(THEOREM_FAMILIES)} optionally prefixed like thm1-") from None
    q = order = None
    if name == "tsallis":
        if args.q is None:
            raise ParameterError("this family requires --q")
        q = args.q
    if name == "renyi":
        if args.aacute is None:
            raise ParameterError("this family requires --aacute")
        order = args.aacute
    return bound_family(name, direction, q=q, order=order)


def parse_floats(text):
    if text is None:
        return None
    try:
        return tuple(float(v) for v in str(text).split(",") if v.strip())
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
    emit(record, args.out)
    if not report.conditions.all_hold or math.isnan(report.margin):
        return 3
    return 0 if report.margin >= -MARGIN_TOL else 4


def cmd_sweep(args) -> int:
    state, _ = load_input(args)
    q = args.q if args.kind == "tsallis" else None
    order = args.aacute if args.kind == "renyi" else None
    family = bound_family(args.kind, "monogamy", q=q, order=order)
    if not (math.isfinite(args.alpha_min) and math.isfinite(args.alpha_max)):
        raise ParameterError(
            f"--alpha-min and --alpha-max must be finite, got "
            f"{args.alpha_min} and {args.alpha_max}")
    if args.alpha_min < family.alpha_min - 1e-12:
        raise ParameterError(
            f"--alpha-min {args.alpha_min} is below the family domain "
            f"minimum {family.alpha_min}")
    if args.steps < 2:
        raise ParameterError(f"--steps must be >= 2, got {args.steps}")
    if args.alpha_max <= args.alpha_min:
        raise ParameterError("--alpha-max must exceed --alpha-min")
    selected = [b.strip() for b in args.bounds.split(",") if b.strip()]
    for b in selected:
        if b not in ("ours", "kf", "jf", "ckw"):
            raise ParameterError(f"unknown bound column {b!r}")

    base = BoundParams(family, family.alpha_min, parse_floats(args.mu),
                       parse_floats(args.ell), args.m_split)
    require_exact_chain(state.n_qubits, base)
    chain = measure_chain(state, family)
    base = resolve_params(chain, base)

    header = ["alpha", "lhs"] + [b for b in ("ours", "kf", "jf", "ckw") if b in selected]
    lines = [",".join(header)]
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
        lines.append(",".join(format(row[h], ".12g") for h in header))
    text = "\n".join(lines) + "\n"
    if args.out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0


def cmd_corpus(args) -> int:
    names = list(corpus_mod.SUITE_NAMES) if args.suite == "all" else [args.suite]
    results = [corpus_mod.run_suite(n, args.samples, args.seed) for n in names]
    record = {
        "command": "corpus",
        "seed": args.seed,
        "suites": [r.to_dict() for r in results],
        "passed": all(r.passed for r in results),
    }
    emit(record, args.out)
    return 0 if record["passed"] else 4


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--partition", required=True, help="e.g. A|BC or A|B")
    p.add_argument("--q", type=float, help="Tsallis entropy parameter")
    p.add_argument("--aacute", type=float, help="Renyi entropy order")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("sweep", help="emit bound curves over alpha as CSV")
    add_input(p)
    p.add_argument("--kind", required=True,
                   choices=("concurrence", "cren", "eof", "tsallis", "renyi"))
    p.add_argument("--q", type=float)
    p.add_argument("--aacute", type=float)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--bounds", default="ours,kf,jf,ckw",
                   help="comma subset of ours,kf,jf,ckw")
    p.add_argument("--k", type=float, default=0.5, help="comparator k (0 < k <= 1)")
    p.add_argument("--mu", help="comma-separated mu_r (default: extracted)")
    p.add_argument("--ell", help="comma-separated l_r (default: extracted)")
    p.add_argument("--m-split", type=int, dest="m_split")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="evaluate one bound instance, JSON report")
    add_input(p)
    p.add_argument("--theorem", required=True,
                   help="family selector (concurrence, eof, cren, tsallis, renyi, "
                        "eoa, teoa, reoa; an optional thmN- prefix is accepted)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--aacute", type=float)
    p.add_argument("--mu", help="comma-separated mu_r")
    p.add_argument("--ell", help="comma-separated l_r")
    p.add_argument("--auto", action="store_true",
                   help="extract maximal feasible (mu, l) (default when omitted)")
    p.add_argument("--comparator-only", action="store_true", dest="comparator_only")
    p.add_argument("--k", type=float, default=0.5)
    p.add_argument("--m-split", type=int, dest="m_split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="run randomized property suites")
    p.add_argument("--suite", required=True,
                   choices=corpus_mod.SUITE_NAMES + ("all",))
    p.add_argument("--samples", type=int, help="suite-specific default if omitted")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError, DimensionError, ContractError,
            CapabilityError) as exc:
        print(f"entmono: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # a finite but huge exponent overflows a power of a value above 1
        print(f"entmono: result out of floating-point range: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"entmono: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
