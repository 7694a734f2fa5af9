"""Outside-in tracing of the entmono layers.

The tracer wraps the public functions of each package module from outside
the program: it rebinds every binding of a listed function (module
globals, copies made by ``from ... import``, class attributes and
function tables such as ``corpus._SUITES``), records a span per call and
restores the originals afterwards.  Nothing inside the package changes,
so the program prints the same bytes with tracing on and off.

Per function it keeps the call count and the self time, which is the span
minus the time of its wrapped children.  A few counters are computed from
call arguments (sizes, budgets and distinct reductions); they are labelled
as computed in the report.
"""

import inspect
import sys
import time
from collections import defaultdict

# layer -> traced functions; a (qualname, metric name) pair renames one
TARGETS = {
    "cli": ["build_parser", "cmd_measure", "cmd_verify", "cmd_sweep",
            "cmd_corpus", "emit"],
    "corpus": ["run_suite", "suite_lemma1", "suite_ckw", "suite_consistency",
               "suite_hierarchy", "suite_lemma2"],
    "bounds": ["verify", "resolve_params", "check_conditions", "rhs_assemble",
               "prior_rhs", "extract_mu_l", "coefficient_K"],
    "measures": ["concurrence_two_qubit", "concurrence_pure",
                 "concurrence_interval", "negativity", "assisted_estimate",
                 "MeasureKind.pure_value", "MeasureKind.two_qubit_value",
                 "MeasureKind.from_concurrence", "f_eof", "g_tsallis", "f_renyi"],
    "states": ["PureState.reduce", "PureState.density_matrix",
               ("DensityMatrix.__post_init__", "DensityMatrix.validate"),
               "DensityMatrix.partial_trace", "random_pure", "load_state"],
    "densemat": ["partial_trace", "partial_transpose", "herm_eigvals",
                 "psd_eigvals", "trace_norm"],
}

# counters computed from call arguments: metric name -> unit
COMPUTED = {
    "densemat.partial_trace.bytes": "B",
    "densemat.herm_eigvals.dim3": "count",
    "densemat.trace_norm.dim3": "count",
    "states.PureState.reduce.in_dim": "count",
    "measures.assisted_estimate.restarts": "count",
    "states.PureState.reduce.distinct_ratio": "ratio",
}


def target_names():
    """(layer, qualname, metric name) for every traced function."""
    out = []
    for layer, entries in TARGETS.items():
        for entry in entries:
            qualname, label = entry if isinstance(entry, tuple) else (entry, entry)
            out.append((layer, qualname, f"{layer}.{label}"))
    return out


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for _, _, name in target_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COMPUTED)
    for layer in TARGETS:
        units[f"{layer}.self_share"] = "ratio"
    units["bounds.verify.certified_ratio"] = "ratio"
    return units


def _dim(matrix) -> int:
    shape = getattr(matrix, "shape", None)
    return int(shape[0]) if shape else len(matrix)


class Tracer:
    """Spans and per-function aggregates for one traced run.

    Spans are kept in memory as (name, start, end, span id, parent span
    id, command id) while ``keep_spans`` is true; ``start_command`` tags
    later spans with the command they belong to.
    """

    def __init__(self):
        self.keep_spans = True
        self.spans = []
        self.missing = []
        self._patches = []
        self._stack = []
        self._next_id = 0
        self._command = None
        self._reduce_keys = set()
        self.reset()

    def reset(self):
        """Clear the aggregates (spans are kept)."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.distinct_reductions = 0

    def start_command(self, command_id):
        self.distinct_reductions += len(self._reduce_keys)
        self._reduce_keys = set()
        self._command = command_id

    def finish(self):
        self.start_command(None)

    # -- counters from call arguments ------------------------------------

    def _count_partial_trace(self, args, kwargs):
        d = _dim(args[0])
        self.counters["densemat.partial_trace.bytes"] += 16 * d * d

    def _count_herm_eigvals(self, args, kwargs):
        self.counters["densemat.herm_eigvals.dim3"] += _dim(args[0]) ** 3

    def _count_trace_norm(self, args, kwargs):
        self.counters["densemat.trace_norm.dim3"] += _dim(args[0]) ** 3

    def _count_reduce(self, args, kwargs):
        state = args[0]
        keep = args[1] if len(args) > 1 else kwargs["keep"]
        self.counters["states.PureState.reduce.in_dim"] += state.amplitudes.size
        self._reduce_keys.add((state.amplitudes.tobytes(),
                               tuple(sorted(set(int(i) for i in keep)))))

    def _counter_for(self, name, fn):
        if name == "densemat.partial_trace":
            return self._count_partial_trace
        if name == "densemat.herm_eigvals":
            return self._count_herm_eigvals
        if name == "densemat.trace_norm":
            return self._count_trace_norm
        if name == "states.PureState.reduce":
            return self._count_reduce
        if name == "measures.assisted_estimate":
            sig = inspect.signature(fn)

            def count_budget(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters["measures.assisted_estimate.restarts"] += int(
                    bound.arguments["budget"])
            return count_budget
        return None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        counter = self._counter_for(name, fn)
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                counter(args, kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[0]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if tracer.keep_spans:
                    tracer.spans.append((name, t0, t1, span_id, parent,
                                         tracer._command))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self, package="entmono"):
        """Wrap every target at every binding inside the loaded package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for layer, qualname, name in target_names():
            module = sys.modules.get(f"{package}.{layer}")
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner is not module:
                self._patch(owner, attr, original, wrapper, setattr)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper, setattr)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patch(value, k, original, wrapper,
                                            dict.__setitem__)

    def _patch(self, owner, key, original, wrapper, setter):
        setter(owner, key, wrapper)
        self._patches.append((owner, key, original, setter))

    def uninstall(self):
        """Restore every original binding."""
        while self._patches:
            owner, key, original, setter = self._patches.pop()
            setter(owner, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self, total_s: float) -> dict:
        """Per-layer metrics of what ran since the last reset; total_s is
        the summed command time the layer shares are taken of."""
        out = {}
        layer_self = defaultdict(float)
        for layer, _, name in target_names():
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            layer_self[layer] += self.self_s.get(name, 0.0)
        for key in COMPUTED:
            out[key] = self.counters.get(key, 0.0)
        reduces = self.calls.get("states.PureState.reduce", 0)
        out["states.PureState.reduce.distinct_ratio"] = (
            self.distinct_reductions / reduces if reduces else 0.0)
        for layer in TARGETS:
            out[f"{layer}.self_share"] = layer_self[layer] / total_s if total_s else 0.0
        return out
