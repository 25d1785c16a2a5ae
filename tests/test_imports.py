"""No module of the library imports a ``_``-prefixed name from a sibling
module, and none holds an ``assert``: its bounds are enforced by checks that
``python -O`` does not strip."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pivotal"


def private_imports(source: str) -> list[str]:
    """``module.name`` for each private name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pivotal"):
            found += [f"{node.module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_finder_sees_relative_and_absolute_imports():
    source = "from .quadrature import _gl_nodes, gauss_legendre\nfrom pivotal.stable import _PLAN_CAP\n"
    assert private_imports(source) == ["quadrature._gl_nodes", "pivotal.stable._PLAN_CAP"]
    assert private_imports("from __future__ import annotations\nfrom numpy import _NoValue\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_import(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert lines == []
