from __future__ import annotations

import pytest

from mdcolo import MiningConfig, Pattern, levelwise
from mdcolo.model import compute_spans
from mdcolo.neighborhood import grid_join, neighbor_pairs
from mdcolo.size2 import (
    build_feature_graph,
    feature_counts,
    pair_tables,
    participation_index,
    participation_share,
    passes_prevalence,
    prevalent_size2,
    size2_table_instances,
)

from oracles import candidate_table_instance
from conftest import (
    BURST_EXPECTED_TABLES,
    SHOPS_EXPECTED_TABLES,
    bits,
    by_features,
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
        t.label: (table_labels(t), participation_index(t, counts))
        for t in shops_tables.values()
    }
    expected = {
        label: (rows, pytest.approx(dpi))
        for label, (rows, dpi) in SHOPS_EXPECTED_TABLES.items()
    }
    assert got == expected


def test_burst_tables_exact(burst_tables, burst_series, config):
    counts = feature_counts(burst_series)
    got = {
        t.label: (table_labels(t), participation_index(t, counts))
        for t in burst_tables.values()
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
    table = by_features(burst_tables)[feat("A_dead"), feat("B_dead")]
    assert participation_share(table.columns()[0], counts[feat("A_dead")]) == 0.5
    assert participation_share(table.columns()[1], counts[feat("B_dead")]) == 1.0
    assert participation_index(table, counts) == 0.5


def test_columns_are_distinct_instances(burst_tables):
    # Three rows, in which A_dead.1 and B_new.1 each take part twice.
    table = by_features(burst_tables)[feat("A_dead"), feat("B_new")]
    assert len(table) == 3
    assert [bits(mask) for mask in table.columns()] == [{1, 2}, {1, 2}]


def test_join_tables_index_is_distinct_instance_ratio(monkeypatch):
    # The level-wise miner scores patterns of 3 and more features from the
    # participant masks of their ordinal columns: each mask holds its
    # column's distinct ordinals, and each result's index is the distinct
    # instance ratio over the pattern's rows, listed without the miner.
    scored = []
    masks = levelwise.participant_masks

    def recorded(columns):
        columns = list(map(list, columns))
        scored.append((columns, masks(columns)))
        return scored[-1][1]

    monkeypatch.setattr(levelwise, "participant_masks", recorded)
    checked = 0
    for seed in (0, 4):
        series, features, cfg = small_series(seed, min_prev=0.05)
        life = {f.id: f.life_cycle for f in features}
        spans = compute_spans(series.features(), life, cfg.time_span)
        tables = size2_table_instances(neighbor_pairs(series, spans, cfg))
        counts = feature_counts(series)
        for result in levelwise.join_based_mine(tables, counts, cfg):
            table = candidate_table_instance(result.pattern, tables)
            distinct = min(
                len({row[i] for row in table.rows}) / counts[f]
                for i, f in enumerate(result.pattern.features)
            )
            assert participation_index(table, counts) == distinct, result.pattern.label
            assert (result.dpi, result.row_count) == (distinct, len(table)), result.pattern.label
            checked += result.pattern.size >= 3
    assert checked and any(len(columns) >= 3 for columns, _ in scored)
    for columns, got in scored:
        assert list(map(bits, got)) == list(map(set, columns))


def test_pair_tables_and_prevalent_pairs_build_no_pattern(monkeypatch):
    # Tables are keyed by rank pair, and the feature graph holds rank masks.
    built = []
    init = Pattern.__init__
    monkeypatch.setattr(
        Pattern, "__init__", lambda self, features: built.append(1) or init(self, features)
    )
    for seed in (0, 4):
        series, features, cfg = small_series(seed, min_prev=0.3)
        life = {f.id: f.life_cycle for f in features}
        spans = compute_spans(series.features(), life, cfg.time_span)
        built.clear()
        tables = pair_tables(grid_join(series, spans, cfg))
        prevalent = prevalent_size2(tables, feature_counts(series), cfg)
        assert built == [] and len(tables) > len(prevalent) > 0, f"seed {seed}"
        build_feature_graph(prevalent)
        assert built == [], f"seed {seed}"


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
    assert sorted(t.label for t in kept.values()) == ["A_dead,B_new", "A_dead,C_dead", "A_new,B_new"]


def test_feature_graph_structure(burst_tables, burst_series, config):
    counts = feature_counts(burst_series)
    graph = build_feature_graph(prevalent_size2(burst_tables, counts, config))
    assert [v.label for v in graph.features] == [
        "A_new",
        "A_dead",
        "B_new",
        "B_dead",
        "C_new",
        "C_dead",
    ]
    rank = graph.features.index
    assert {graph.features[s].label for s in bits(graph.adjacency[rank(feat("A_dead"))])} == {
        "B_new",
        "B_dead",
        "C_dead",
    }
    assert graph.adjacency[rank(feat("C_new"))].bit_count() == 1


def test_feature_graph_isolated_vertices(shops_tables, shops_series):
    # Above 1/3 neither pair of C_new is prevalent, so its rank holds no edge.
    counts = feature_counts(shops_series)
    high = MiningConfig(d_d=2.0, min_prev=0.4, time_span=3.0)
    graph = build_feature_graph(prevalent_size2(shops_tables, counts, high))
    assert graph.features == shops_series.columns.features
    isolated = [f.label for f, mask in zip(graph.features, graph.adjacency) if not mask]
    assert isolated == ["C_new"]
