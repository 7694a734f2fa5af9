"""The package's public surface: entmono.__all__ names exactly what
entmono/__init__.py imports, every name in it resolves, it holds what the
acceptance criteria import, and bench/tracer.py still finds every function
it wraps."""

import ast
import importlib.util
from pathlib import Path

import entmono
import entmono.cli  # noqa: F401  (loads every layer the tracer looks up)

TESTS = Path(__file__).resolve().parent

# tracer targets whose code is gone; the tracer reports them as not found
TRACER_MISSING = {
    "densemat.partial_trace", "densemat.partial_transpose", "densemat.herm_eigvals",
    "densemat.psd_eigvals", "densemat.trace_norm", "measures.concurrence_interval",
    "measures.f_renyi", "states.PureState.density_matrix", "states.DensityMatrix.partial_trace",
}


def test_all_names_exactly_the_public_imports():
    tree = ast.parse(Path(entmono.__file__).read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(entmono.__all__) == len(set(entmono.__all__))
    assert sorted(entmono.__all__) == sorted(imported)


def test_every_name_in_all_resolves():
    namespace = {}
    exec("from entmono import *", namespace)  # AttributeError for a missing name
    assert set(entmono.__all__) <= set(namespace)


def test_all_holds_every_name_the_acceptance_criteria_import():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "entmono"
                for alias in node.names}
    assert imported and imported <= set(entmono.__all__)


def test_the_tracer_finds_every_target_it_found_before():
    spec = importlib.util.spec_from_file_location(
        "entmono_bench_tracer", TESTS.parent / "bench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()  # the tracer's own lookup of each target
    finally:
        tracer.uninstall()
    assert set(tracer.missing) == TRACER_MISSING
