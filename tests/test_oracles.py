from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

import mdcolo

from mdcolo import Pattern, mine_series
from mdcolo.levelwise import join_based_mine
from mdcolo.model import compute_spans
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.size2 import feature_counts, size2_table_instances

from oracles import CapExceededError, OracleConfig, bron_kerbosch, brute_force_maximal
from conftest import (
    BURST_EXPECTED_MAXIMAL,
    BURST_EXPECTED_TABLES,
    SHOPS_EXPECTED_MAXIMAL,
    feat,
    feature_graph,
    small_series,
)


def spans_for(series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    return compute_spans(series.features(), life, config.time_span)


def pair_tables(series, spans, config):
    return size2_table_instances(neighbor_pairs(series, spans, config))


def result_map(results):
    return {
        r.pattern.label: (pytest.approx(r.dpi), r.row_count)
        for r in results
        if r.maximal
    }


def test_brute_force_on_burst(burst_series, lifecycles, config):
    spans = spans_for(burst_series, lifecycles, config)
    counts = feature_counts(burst_series)
    results = brute_force_maximal(burst_series, spans, counts, config)
    expected = {l: (pytest.approx(d), n) for l, (d, n) in BURST_EXPECTED_MAXIMAL.items()}
    assert result_map(results) == expected


def test_brute_force_on_shops(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    counts = feature_counts(shops_series)
    results = brute_force_maximal(shops_series, spans, counts, config)
    expected = {l: (pytest.approx(d), n) for l, (d, n) in SHOPS_EXPECTED_MAXIMAL.items()}
    assert result_map(results) == expected


def test_brute_force_caps():
    series, features, cfg = small_series(0, n_dynamic_instances=60)
    spans = spans_for(series, features, cfg)
    counts = feature_counts(series)
    tight = OracleConfig(max_instances=10)
    with pytest.raises(CapExceededError):
        brute_force_maximal(series, spans, counts, cfg, caps=tight)


def test_pipeline_matches_brute_force_on_generated_series():
    for seed in range(8):
        series, features, cfg = small_series(seed)
        spans = spans_for(series, features, cfg)
        counts = feature_counts(series)
        brute = brute_force_maximal(series, spans, counts, cfg)
        mined = mine_series(series, features, cfg).results
        got = [(r.pattern, round(r.dpi, 12), r.row_count) for r in mined]
        want = [(r.pattern, round(r.dpi, 12), r.row_count) for r in brute]
        assert got == want, f"seed {seed}"


def test_join_oracle_on_burst(burst_series, lifecycles, config):
    spans = spans_for(burst_series, lifecycles, config)
    counts = feature_counts(burst_series)
    results = join_based_mine(pair_tables(burst_series, spans, config), counts, config)
    by_label = {r.pattern.label: r for r in results}
    assert sorted(by_label) == sorted(
        list(BURST_EXPECTED_TABLES) + ["A_dead,B_new,C_dead"]
    )
    for label, (_, dpi) in BURST_EXPECTED_TABLES.items():
        assert by_label[label].dpi == pytest.approx(dpi)
    assert by_label["A_dead,B_new,C_dead"].dpi == pytest.approx(0.5)
    assert result_map(results) == {
        l: (pytest.approx(d), n) for l, (d, n) in BURST_EXPECTED_MAXIMAL.items()
    }


def test_join_results_are_downward_closed():
    from itertools import combinations

    for seed in range(5):
        series, features, cfg = small_series(seed, min_prev=0.15)
        spans = spans_for(series, features, cfg)
        counts = feature_counts(series)
        results = join_based_mine(pair_tables(series, spans, cfg), counts, cfg)
        prevalent = {r.pattern for r in results}
        for pattern in prevalent:
            for k in range(2, pattern.size):
                for combo in combinations(pattern.features, k):
                    assert Pattern(combo) in prevalent


def test_join_matches_derive_all():
    for seed in range(6):
        series, features, cfg = small_series(seed)
        spans = spans_for(series, features, cfg)
        counts = feature_counts(series)
        join = join_based_mine(pair_tables(series, spans, cfg), counts, cfg)
        mdc = mine_series(series, features, cfg, derive_all=True).derived
        got = {(r.pattern, round(r.dpi, 12), r.row_count, r.maximal) for r in mdc}
        want = {(r.pattern, round(r.dpi, 12), r.row_count, r.maximal) for r in join}
        assert got == want, f"seed {seed}"


def test_bron_kerbosch_small_graphs():
    a, b, c, d = (feat(f"{x}_new") for x in "ABCD")
    graph = feature_graph([(a, b), (a, c), (b, c), (c, d)])
    assert [p.label for p in bron_kerbosch(graph)] == [
        "A_new,B_new,C_new",
        "C_new,D_new",
    ]
    assert bron_kerbosch(feature_graph([])) == ()


def test_production_modules_do_not_import_oracles():
    package = Path(mdcolo.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracles" for name in names):
                importers.append(path.name)
    assert importers == []
    # The oracles live with the tests, not in the package.
    assert importlib.util.find_spec("mdcolo.oracles") is None
