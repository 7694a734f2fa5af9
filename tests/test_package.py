"""The package's public surface: entmono.__all__ names exactly what
entmono/__init__.py imports, and every name in it resolves."""

import ast
from pathlib import Path

import entmono


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
