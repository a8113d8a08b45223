"""Self-tests of the benchmark, on tiny versions of its workloads.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_INSTANCES = {"dense": 300, "pruned": 300, "sparse": 3000}


def tiny(name: str) -> run.Workload:
    w = run.WORKLOADS[name]
    return dataclasses.replace(w, gen={**w.gen, "n_dynamic_instances": TINY_INSTANCES[name]})


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_prints_declared_metrics(name, trace, tmp_path):
    w = tiny(name)
    record = run.run_workload(w, w.default_seed + 1, 0, trace, {}, tmp_path)
    result = record["result"]
    assert result["correct"], record
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_MINES
    metrics = {k: v["unit"] for k, v in result["metrics"].items()}
    assert metrics == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert record["traced_matches_cli"]


def test_corrupted_reference_fails_every_mine(tmp_path):
    w = tiny("dense")
    corrupt = {"dense": {"seed": w.default_seed, "patterns.txt": "0" * 64}}
    result = run.run_workload(w, w.default_seed, 0, False, corrupt, tmp_path)["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= run.MIN_MINES


def test_relocation_keeps_the_mined_patterns():
    from mdcolo import GenConfig, MiningConfig, generate, io, mine_snapshots

    w = tiny("pruned")
    gen = GenConfig(**w.gen)
    snapshots, _ = generate(gen)
    config = MiningConfig(d_d=w.dd, min_prev=w.min_prev, time_span=3.0)
    reports = [
        io.format_pattern_report(mine_snapshots(snaps, gen.base_features(), config).results)
        for snaps in (snapshots, run.relocate(snapshots, 12345))
    ]
    assert reports[0] == reports[1]
    assert reports[0]


def test_speed_probe_times_chunks_inside_the_block():
    with run.speed_probe() as chunks:
        started = time.perf_counter()
        time.sleep(0.2)
        ended = time.perf_counter()
    assert chunks
    assert all(start <= end and cpu > 0 for start, end, cpu in chunks)
    means = run.chunk_means([(started, ended), (ended, ended)], chunks)
    assert means[0][1] >= run.NEAR_CHUNKS
    assert means[1][1] == 0 and means[1][0] > 0


def test_pinned_references_cover_every_output():
    pinned = run.load_pinned()
    assert sorted(pinned) == sorted(run.WORKLOADS)
    for name, w in run.WORKLOADS.items():
        assert pinned[name] == {"seed": w.default_seed, **{o: pinned[name][o] for o in w.outputs}}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
