"""The benchmark scripts in perfbench/ import the package by name and read
verify's counters; a change to the package that would break them fails
here, in the test suite, rather than in a benchmark run."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

from mdcolo.verify import VerifyStats

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def parse(script: str) -> ast.Module:
    return ast.parse((PERFBENCH / script).read_text(encoding="utf-8"))


@pytest.mark.parametrize("script", ["traced.py", "run.py"])
def test_benchmark_imports_resolve(script):
    imports = [
        (node.module, alias.name)
        for node in ast.walk(parse(script))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mdcolo"
        for alias in node.names
    ]
    assert imports, script
    for module, name in imports:
        found = hasattr(importlib.import_module(module), name) or (
            importlib.util.find_spec(f"{module}.{name}") is not None
        )
        assert found, f"{script}: from {module} import {name}"


def test_verify_stats_has_every_counter_traced_reads():
    read = {
        node.attr
        for node in ast.walk(parse("traced.py"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "stats"
    }
    assert read >= {
        "verified", "early_aborts", "shared_checks", "shared_skips", "subsumed_skips", "decomposed",
    }
    stats = VerifyStats()
    assert sorted(a for a in read if not hasattr(stats, a)) == []
