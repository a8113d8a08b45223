from __future__ import annotations

import pytest

from mdcolo import ConfigError, MiningConfig
from mdcolo.model import compute_spans
from mdcolo.neighborhood import GridIndex, neighbor_pairs
from mdcolo.oracles import all_pairs_scan

from conftest import (
    SHOPS_EXPECTED_PAIRS,
    SHOPS_EXPECTED_PAIRS_STRICT,
    small_series,
)


CONFIG_SMALL = MiningConfig(d_d=5.0, min_prev=0.1, time_span=3.0)


def spans_for(series, lifecycles, config):
    life = {f.id: f.life_cycle for f in lifecycles}
    return compute_spans(series.features(), life, config.time_span)


def as_labels(pairs):
    return {(a.label, b.label) for a, b in pairs}


def test_shops_pairs_exact(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    pairs = neighbor_pairs(shops_series, spans, config)
    assert as_labels(pairs) == SHOPS_EXPECTED_PAIRS


def test_shops_pairs_strict_mode(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    strict = MiningConfig(
        d_d=config.d_d,
        min_prev=config.min_prev,
        time_span=config.time_span,
        temporal_comparison="strict",
    )
    pairs = neighbor_pairs(shops_series, spans, strict)
    assert as_labels(pairs) == SHOPS_EXPECTED_PAIRS_STRICT
    assert ("A_new.1", "B_new.2") not in as_labels(pairs)


def test_pairs_are_canonical_and_sorted(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    pairs = neighbor_pairs(shops_series, spans, config)
    for a, b in pairs:
        assert a.sort_key < b.sort_key
        assert a.feature != b.feature
    keys = [(a.sort_key, b.sort_key) for a, b in pairs]
    assert keys == sorted(keys)


def test_boundary_distance_is_inclusive():
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a = DynamicInstance(feat("A_new"), 1, 0.0, 0.0, 0)
    b = DynamicInstance(feat("B_new"), 1, 2.0, 0.0, 0)
    series = DynamicDatasetSeries(((a, b),))
    spans = {feat("A_new"): 1, feat("B_new"): 1}
    cfg = MiningConfig(d_d=2.0, min_prev=0.1, time_span=3.0)
    assert as_labels(neighbor_pairs(series, spans, cfg)) == {("A_new.1", "B_new.1")}
    just_under = MiningConfig(d_d=1.9999999, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, just_under) == ()


def test_pair_a_rounding_error_over_d_d_is_found():
    # 0.5 - (-7e-78) rounds to exactly d_d, so the distance test passes,
    # while the points sit in cells 1 and -1 of a grid exactly d_d wide.
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a = DynamicInstance(feat("A_new"), 1, 0.0, 0.5, 0)
    b = DynamicInstance(feat("A_dead"), 1, 0.0, -6.895326947134782e-78, 0)
    series = DynamicDatasetSeries(((a, b),))
    spans = {a.feature: 1, b.feature: 1}
    cfg = MiningConfig(d_d=0.5, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg) == ((a, b),)


def test_tiny_d_d_does_not_overflow_the_grid():
    # x / d_d is infinite for d_d = 5e-324, so cells must be wider than d_d.
    from mdcolo import DynamicInstance
    from mdcolo.snapshots import DynamicDatasetSeries
    from conftest import feat

    a = DynamicInstance(feat("A_new"), 1, 1.0, 2.0, 0)
    b = DynamicInstance(feat("B_new"), 1, 1.0, 2.0, 0)
    series = DynamicDatasetSeries(((a, b),))
    spans = {a.feature: 1, b.feature: 1}
    cfg = MiningConfig(d_d=5e-324, min_prev=0.1, time_span=3.0)
    assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg) == ((a, b),)


def test_missing_span_is_an_error(shops_series, lifecycles, config):
    spans = spans_for(shops_series, lifecycles, config)
    del spans[next(iter(spans))]
    with pytest.raises(ConfigError, match="no span"):
        neighbor_pairs(shops_series, spans, config)


def test_grid_cell_assignment():
    grid = GridIndex([], 10.0)
    assert grid.cell_of(0.0, 0.0) == (0, 0)
    assert grid.cell_of(9.999, 9.999) == (0, 0)
    assert grid.cell_of(10.0, -0.1) == (1, -1)
    assert grid.cell_of(-10.0, 25.0) == (-1, 2)


def test_grid_scans_only_existing_windows(shops_series):
    instances = list(shops_series.all_instances())
    grid = GridIndex(instances, 5.0)
    for inst in instances:
        cell = grid.cell_of(inst.x, inst.y)
        everything = list(grid.candidates(cell, 0, shops_series.window_count - 1))
        # A range of 2e12 windows costs what the existing ones cost.
        assert list(grid.candidates(cell, -10**12, 10**12)) == everything


def test_grid_rejects_bad_cell_size():
    with pytest.raises(ConfigError):
        GridIndex([], 0.0)


def test_grid_matches_all_pairs_scan_on_generated_series():
    for seed in range(10):
        series, features, cfg = small_series(seed)
        spans = spans_for(series, features, cfg)
        assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg)


def test_grid_matches_all_pairs_scan_strict_mode():
    for seed in range(5):
        series, features, cfg = small_series(
            seed, temporal_comparison="strict", d_d=9.0
        )
        spans = spans_for(series, features, cfg)
        assert neighbor_pairs(series, spans, cfg) == all_pairs_scan(series, spans, cfg)


def test_empty_series_yields_no_pairs():
    from mdcolo.snapshots import DynamicDatasetSeries

    assert neighbor_pairs(DynamicDatasetSeries(((), ())), {}, CONFIG_SMALL) == ()
