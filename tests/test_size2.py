from __future__ import annotations

import pytest

from mdcolo import MiningConfig, Pattern, levelwise
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.size2 import (
    FeatureGraph,
    build_feature_graph,
    feature_counts,
    participation_index,
    participation_ratio,
    passes_prevalence,
    prevalent_size2,
    size2_table_instances,
)

from conftest import (
    BURST_EXPECTED_TABLES,
    SHOPS_EXPECTED_TABLES,
    bits,
    feat,
    small_series,
)


@pytest.fixture
def shops_tables(shops_series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(shops_series.features(), life, config.time_span)
    return size2_table_instances(neighbor_pairs(shops_series, spans, config))


@pytest.fixture
def burst_tables(burst_series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    spans = compute_spans(burst_series.features(), life, config.time_span)
    return size2_table_instances(neighbor_pairs(burst_series, spans, config))


def table_labels(table):
    return {tuple(inst.label for inst in row) for row in table.rows}


def test_shops_tables_exact(shops_tables, shops_series, config):
    counts = feature_counts(shops_series)
    got = {
        pat.label: (table_labels(t), participation_index(t, counts))
        for pat, t in shops_tables.items()
    }
    expected = {
        label: (rows, pytest.approx(dpi))
        for label, (rows, dpi) in SHOPS_EXPECTED_TABLES.items()
    }
    assert got == expected


def test_burst_tables_exact(burst_tables, burst_series, config):
    counts = feature_counts(burst_series)
    got = {
        pat.label: (table_labels(t), participation_index(t, counts))
        for pat, t in burst_tables.items()
    }
    expected = {
        label: (rows, pytest.approx(dpi))
        for label, (rows, dpi) in BURST_EXPECTED_TABLES.items()
    }
    assert got == expected


def test_burst_feature_counts(burst_series):
    counts = {f.label: n for f, n in feature_counts(burst_series).items()}
    assert counts == {
        "A_new": 2,
        "A_dead": 2,
        "B_new": 2,
        "B_dead": 1,
        "C_new": 1,
        "C_dead": 2,
    }


def test_burst_ratios_of_the_lopsided_pair(burst_tables, burst_series):
    counts = feature_counts(burst_series)
    table = burst_tables[Pattern([feat("A_dead"), feat("B_dead")])]
    assert participation_ratio(table, feat("A_dead"), counts) == 0.5
    assert participation_ratio(table, feat("B_dead"), counts) == 1.0
    assert participation_index(table, counts) == 0.5


def test_participation_ratio_rejects_foreign_feature(burst_tables, burst_series):
    counts = feature_counts(burst_series)
    table = next(iter(burst_tables.values()))
    with pytest.raises(ValueError):
        participation_ratio(table, feat("Z_new"), counts)


def test_columns_are_distinct_instances(burst_tables):
    # Three rows, in which A_dead.1 and B_new.1 each take part twice.
    table = burst_tables[Pattern([feat("A_dead"), feat("B_new")])]
    assert len(table) == 3
    assert [bits(mask) for mask in table.columns()] == [{1, 2}, {1, 2}]


def test_join_tables_index_is_distinct_instance_ratio(monkeypatch):
    # The level-wise miner builds tables of 3 and more features and reads
    # their index; the reference counts each column's distinct instances.
    seen = []
    monkeypatch.setattr(
        levelwise, "participation_index",
        lambda table, counts: seen.append((table, counts)) or participation_index(table, counts),
    )
    for seed in (0, 4):
        series, features, cfg = small_series(seed, min_prev=0.05)
        life = {f.id: f.life_cycle for f in features}
        spans = compute_spans(series.features(), life, cfg.time_span)
        tables = size2_table_instances(neighbor_pairs(series, spans, cfg))
        levelwise.join_based_mine(tables, feature_counts(series), cfg)
    assert any(table.pattern.size >= 3 for table, _ in seen)
    for table, counts in seen:
        distinct = min(
            len({row[i] for row in table.rows}) / counts[f]
            for i, f in enumerate(table.pattern.features)
        )
        assert participation_index(table, counts) == distinct, table.pattern.label


def test_passes_prevalence_modes():
    inclusive = MiningConfig(d_d=1.0, min_prev=0.5, time_span=1.0)
    strict = MiningConfig(
        d_d=1.0, min_prev=0.5, time_span=1.0, prevalence_comparison="strict"
    )
    assert passes_prevalence(0.5, 1, inclusive)
    assert not passes_prevalence(0.5, 1, strict)
    assert passes_prevalence(0.500001, 1, strict)
    assert not passes_prevalence(0.499999, 1, inclusive)


def test_empty_table_is_never_prevalent():
    anything_goes = MiningConfig(d_d=1.0, min_prev=0.0, time_span=1.0)
    assert not passes_prevalence(1.0, 0, anything_goes)
    assert passes_prevalence(0.0, 1, anything_goes)


def test_prevalent_size2_filters_by_threshold(shops_tables, shops_series):
    counts = feature_counts(shops_series)
    high = MiningConfig(d_d=2.0, min_prev=0.4, time_span=3.0)
    kept = prevalent_size2(shops_tables, counts, high)
    assert sorted(p.label for p in kept) == ["A_dead,B_new", "A_dead,C_dead", "A_new,B_new"]


def test_feature_graph_structure(burst_tables, burst_series, config):
    counts = feature_counts(burst_series)
    graph = build_feature_graph(prevalent_size2(burst_tables, counts, config))
    assert [v.label for v in graph.vertices] == [
        "A_new",
        "A_dead",
        "B_new",
        "B_dead",
        "C_new",
        "C_dead",
    ]
    assert {n.label for n in graph.adjacency[feat("A_dead")]} == {
        "B_new",
        "B_dead",
        "C_dead",
    }
    assert len(graph.adjacency[feat("C_new")]) == 1


def test_feature_graph_rejects_non_pair_edges():
    triple = Pattern([feat("A_new"), feat("B_new"), feat("C_new")])
    with pytest.raises(ValueError):
        FeatureGraph([triple])


def test_feature_graph_isolated_vertices():
    graph = FeatureGraph([Pattern([feat("A_new"), feat("B_new")])], vertices=[feat("Z_dead")])
    assert graph.adjacency[feat("Z_dead")] == frozenset()
