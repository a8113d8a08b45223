"""The benchmark's pinned outputs in the test suite: each workload's dataset
at its default seed, built by `perfbench/run.py`, mined in process through
`cli.main`, gives the SHA-256s pinned in `perfbench/references.json`.  A
byte change of a writer or of the miner then fails here, not only in a
benchmark run."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from mdcolo.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """`perfbench/run.py` as a module; it imports `traced` from its folder."""
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ["dense", "pruned", "sparse"])
def test_benchmark_outputs_equal_their_pins(bench, tmp_path, name):
    workload = bench.WORKLOADS[name]
    pins = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))[name]
    assert pins["seed"] == workload.default_seed
    bench.make_inputs(workload, workload.default_seed, tmp_path)
    argv = workload.mine_argv(tmp_path, tmp_path)
    assert argv[1:4] == ["-m", "mdcolo", "mine"]
    assert main(argv[3:]) == 0
    assert set(pins) == {"seed", *workload.outputs}
    for output in workload.outputs:
        assert sha256(tmp_path / output) == pins[output], output


# Verify's counters in the seedless manifest of each workload's pinned mine.
COUNTERS = {
    "dense": dict(
        verified_candidates=18, early_aborts=162, subsumed_skips=16, decompositions=164,
        rows_counted=617809, maximal_count=16, pattern_count=16,
    ),
    "pruned": dict(
        verified_candidates=48, early_aborts=550, subsumed_skips=66, decompositions=550,
        rows_counted=188417, maximal_count=48, pattern_count=200,
    ),
}


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_benchmark_verify_counters_equal_their_pins(bench, tmp_path, name):
    workload = bench.WORKLOADS[name]
    bench.make_inputs(workload, workload.default_seed, tmp_path)
    argv = workload.mine_argv(tmp_path, tmp_path, "--seedless-report")
    assert main(argv[3:]) == 0
    lines = (tmp_path / "patterns.txt.manifest").read_text(encoding="utf-8").splitlines()
    entries = dict(line.split(": ", 1) for line in lines)
    assert {key: int(entries[key]) for key in COUNTERS[name]} == COUNTERS[name]
