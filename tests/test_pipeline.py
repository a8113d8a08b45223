from __future__ import annotations

import gc
import sys

import pytest

from mdcolo import (
    BaseFeature, ConfigError, MiningConfig, Snapshot, diff_snapshots, mine_snapshots,
)
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.size2 import size2_table_instances

from conftest import BURST_EXPECTED_MAXIMAL, by_features, forbid_rows


def test_mine_snapshots_on_burst(burst, lifecycles, config):
    outcome = mine_snapshots(burst, lifecycles, config)
    got = {r.pattern.label: (pytest.approx(r.dpi), r.row_count) for r in outcome.results}
    assert got == {
        l: (pytest.approx(d), n) for l, (d, n) in BURST_EXPECTED_MAXIMAL.items()
    }
    assert outcome.counters["instances"] == 10
    assert outcome.counters["windows"] == 2
    assert outcome.counters["prevalent_pairs"] == 6
    assert outcome.counters["cliques"] == 4
    for stage in ("diff", "pairs", "size2", "cliques", "verify", "total"):
        assert stage in outcome.timings_ms


def test_derive_all_is_reported(burst, lifecycles, config):
    outcome = mine_snapshots(burst, lifecycles, config, derive_all=True)
    assert outcome.derived is not None
    assert outcome.report_results == outcome.derived
    assert len(outcome.derived) == 7
    assert sum(1 for r in outcome.derived if r.maximal) == 4


def test_join_algo(burst, lifecycles, config):
    outcome = mine_snapshots(burst, lifecycles, config, algo="join")
    assert len(outcome.derived) == 7
    assert outcome.report_results == outcome.derived
    assert outcome.results == [r for r in outcome.derived if r.maximal]
    entries = outcome.manifest_entries()
    for stage in ("diff", "pairs", "size2", "mine", "total"):
        assert f"time_{stage}_ms" in entries
    assert entries["neighbor_pairs"] == sum(len(t) for t in outcome.tables.values())
    assert entries["size2_tables"] == len(outcome.tables)
    assert entries["maximal_count"] == len(outcome.results)
    assert entries["pattern_count"] == 7
    assert outcome.tables == mine_snapshots(burst, lifecycles, config).tables
    assert {r.pattern.label for r in outcome.results} == set(BURST_EXPECTED_MAXIMAL)


def test_lifecycles_accept_mapping(burst, lifecycles, config):
    as_list = mine_snapshots(burst, lifecycles, config)
    as_map = mine_snapshots(
        burst, {f.id: f.life_cycle for f in lifecycles}, config
    )
    assert [r.pattern for r in as_list.results] == [r.pattern for r in as_map.results]


def test_unknown_algo(burst, lifecycles, config):
    with pytest.raises(ConfigError, match="algo"):
        mine_snapshots(burst, lifecycles, config, algo="apriori")


def test_missing_lifecycle_entry(burst, lifecycles, config):
    with pytest.raises(ConfigError, match="life cycle"):
        mine_snapshots(burst, lifecycles[:-1], config)


def test_manifest_entries(burst, lifecycles, config):
    outcome = mine_snapshots(burst, lifecycles, config, derive_all=True)
    entries = outcome.manifest_entries()
    assert entries["algo"] == "mdc"
    assert entries["d_d"] == 2.0
    assert entries["min_prev"] == 0.3
    assert entries["pattern_count"] == 7
    assert entries["maximal_count"] == 4
    assert entries["patterns_size_2"] == 6
    assert entries["patterns_size_3"] == 1
    assert "verified_candidates" in entries
    # Each of the four maximal candidates has exactly one row.
    assert entries["rows_counted"] == 4
    assert any(k.startswith("time_") for k in entries)


def test_outcome_carries_pair_tables(burst, lifecycles, config):
    outcome = mine_snapshots(burst, lifecycles, config)
    series = diff_snapshots(burst)
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(series.features(), life, config.time_span)
    # The reference's series numbers only the paired instances, so its
    # rank keys can differ; features and ordinals name the tables.
    reference = size2_table_instances(neighbor_pairs(series, spans, config))
    assert by_features(outcome.tables) == by_features(reference)
    assert sum(outcome.counts.values()) == outcome.counters["instances"]


@pytest.mark.parametrize("options", [
    {}, {"derive_all": True}, {"early_abort": False}, {"algo": "join"},
], ids=["mdc", "derive_all", "no_early_abort", "join"])
def test_mine_builds_no_pair_table_rows(burst, lifecycles, config, monkeypatch, options):
    # Both miners read tables through their ordinal columns only.
    forbid_rows(monkeypatch)
    outcome = mine_snapshots(burst, lifecycles, config, **options)
    assert any(r.pattern.size == 3 for r in outcome.report_results)
    assert sum(len(t) for t in outcome.tables.values()) == outcome.counters["neighbor_pairs"]


def test_a_pattern_deeper_than_the_recursion_limit_is_mined():
    # 150 features appear at one point: one maximal pattern of all of them,
    # whose clique search and row count recurse once per feature.
    n = 150
    still = ("Z", "z0", 500.0, 500.0)
    snapshots = [
        Snapshot(0, (still,)),
        Snapshot(1, (still, *((f"F{i}", "a", 0.0, 0.0) for i in range(n)))),
    ]
    lifecycles = [BaseFeature(base, 3.0) for base in ("Z", *(f"F{i}" for i in range(n)))]
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        outcome = mine_snapshots(snapshots, lifecycles, MiningConfig(1.0, 0.5, 3.0))
        assert sys.getrecursionlimit() == depth + 100
    finally:
        sys.setrecursionlimit(limit)
    assert [r.pattern.size for r in outcome.results] == [n]


def test_stats_flow_through(burst, lifecycles, config):
    outcome = mine_snapshots(burst, lifecycles, config)
    assert outcome.stats.verified >= 4


@pytest.mark.parametrize("options", [
    {}, {"derive_all": True}, {"early_abort": False}, {"algo": "join"},
], ids=["mdc", "derive_all", "no_early_abort", "join"])
def test_mine_leaves_no_cyclic_garbage(burst, lifecycles, config, options):
    # The CLI pauses the cyclic collector for a command because a mine makes
    # no reference cycles: with the collector off, a collection after a mine
    # finds nothing.  The first mine imports what the route loads lazily.
    mine_snapshots(burst, lifecycles, config, **options)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        outcome = mine_snapshots(burst, lifecycles, config, **options)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    # Candidates of size three were summarized.
    assert any(r.pattern.size == 3 for r in outcome.report_results)
