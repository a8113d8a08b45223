"""The benchmark scripts in perfbench/ import the package by name and read
verify's counters; a change to the package that would break them fails
here, in the test suite, rather than in a benchmark run."""

from __future__ import annotations

import ast
import importlib.util
import inspect
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


def imported_from_mdcolo(tree: ast.Module) -> dict[str, object]:
    """Local name -> object for every `from mdcolo... import name`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mdcolo":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None) or (
                    importlib.import_module(f"{node.module}.{alias.name}")
                )
    return names


@pytest.mark.parametrize("script", ["traced.py", "run.py"])
def test_benchmark_calls_bind(script):
    """Every call to a name imported from the package, or to an attribute of
    an imported package module, binds to the callee's signature: a dropped,
    renamed or added-without-default parameter fails here.  Only the arity
    and the keyword names are checked, not the argument types; calls with
    `*` or `**` arguments are skipped."""
    tree = parse(script)
    imported = imported_from_mdcolo(tree)
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            target = imported.get(func.id)
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and inspect.ismodule(imported.get(func.value.id))
        ):
            target = getattr(imported[func.value.id], func.attr)
        else:
            continue
        if target is None or any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as err:
            pytest.fail(f"{script}:{node.lineno}: {ast.unparse(func)}: {err}")
        checked += 1
    assert checked, script


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
