"""Randomized properties: the grid join against the all-pairs scan (also
across several time blocks), the
row-free candidate summary against the anchorless row reference (on small
and on multi-word ordinals, and on instances grouped by shared partners),
table participant masks against their rows, clique enumeration against
Bron-Kerbosch, and the whole miner, with and without its early abort,
against the exhaustive search."""

from __future__ import annotations

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from mdcolo import DynamicInstance, MiningConfig, Pattern, mine_series
from mdcolo.cliques import maximal_cliques
from mdcolo.model import compute_spans
from mdcolo.neighborhood import _CELL_SLACK, grid_join, neighbor_pairs
from mdcolo.size2 import feature_counts, pair_tables, size2_table_instances
from mdcolo.snapshots import DynamicDatasetSeries
from oracles import (
    OracleConfig,
    all_pairs_scan,
    bron_kerbosch,
    brute_force_maximal,
    candidate_table_instance,
)
from conftest import bits, by_features, feat, feature_graph, summarize

FEATURES = [feat(f"{base}_{kind}") for base in "ABCDE" for kind in ("new", "dead")]

# Few examples keep the suite's run time; each one is a whole join or search.
SETTINGS = settings(max_examples=120, deadline=None, database=None)


def series_of(events, n_windows: int) -> DynamicDatasetSeries:
    """A series of one instance per (feature, x, y, t_index) event."""
    ordinals: dict = {}
    windows: list[list[DynamicInstance]] = [[] for _ in range(n_windows)]
    for f, x, y, t in events:
        ordinals[f] = ordinals.get(f, 0) + 1
        windows[t].append(DynamicInstance(f, ordinals[f], x, y, t))
    return DynamicDatasetSeries(
        tuple(tuple(sorted(w, key=lambda i: i.sort_key)) for w in windows)
    )


@st.composite
def join_inputs(draw):
    """A series with coordinates on and off the grid lines (multiples of d_d),
    negative ones included, spans from 1 window to far beyond the series,
    and either temporal mode."""
    d_d = draw(st.sampled_from([0.5, 1.0, 2.5, 3.0, 0.1]))
    coord = st.one_of(
        st.integers(-4, 4).map(lambda k: k * d_d),
        st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    events = draw(
        st.lists(st.tuples(st.sampled_from(FEATURES), coord, coord, st.integers(0, 4)),
                 max_size=30)
    )
    series = series_of(events, 5)
    span = st.one_of(st.integers(1, 6), st.just(10**9))
    spans = {f: draw(span) for f in FEATURES}
    mode = draw(st.sampled_from(["inclusive", "strict"]))
    config = MiningConfig(d_d=d_d, min_prev=0.1, time_span=3.0, temporal_comparison=mode)
    return series, spans, config


@SETTINGS
@given(join_inputs())
def test_grid_join_equals_all_pairs_scan(inputs):
    series, spans, config = inputs
    assert neighbor_pairs(series, spans, config) == all_pairs_scan(series, spans, config)


@st.composite
def block_join_inputs(draw):
    """A series of 12 windows and spans of 1 to 4 windows, so the join cuts
    it into several time blocks, with coordinates on multiples of d_d and of
    the row width, so pairs lie exactly d_d apart and on row bounds, and
    either temporal mode."""
    d_d = draw(st.sampled_from([0.5, 1.0, 2.5, 3.0, 0.1]))
    # The row width for coordinates this small.
    width = d_d * _CELL_SLACK
    coord = st.builds(lambda k, unit: k * unit, st.integers(-2, 2), st.sampled_from([d_d, width]))
    events = draw(
        st.lists(st.tuples(st.sampled_from(FEATURES), coord, coord, st.integers(0, 11)),
                 min_size=20, max_size=40)
    )
    series = series_of(events, 12)
    spans = {f: draw(st.integers(1, 4)) for f in FEATURES}
    mode = draw(st.sampled_from(["inclusive", "strict"]))
    config = MiningConfig(d_d=d_d, min_prev=0.1, time_span=3.0, temporal_comparison=mode)
    return series, spans, config


@SETTINGS
@given(block_join_inputs())
def test_grid_join_equals_all_pairs_scan_across_time_blocks(inputs):
    series, spans, config = inputs
    assert neighbor_pairs(series, spans, config) == all_pairs_scan(series, spans, config)


@SETTINGS
@given(join_inputs())
def test_pair_tables_from_codes_equal_tables_of_the_pairs(inputs):
    series, spans, config = inputs
    tables = pair_tables(grid_join(series, spans, config))
    pairs = neighbor_pairs(series, spans, config)
    reference = by_features(size2_table_instances(pairs))
    assert list(by_features(tables)) == list(reference)
    grouped: dict = {}
    for a, b in pairs:
        grouped.setdefault(Pattern((a.feature, b.feature)).features, []).append((a, b))
    assert list(by_features(tables)) == sorted(grouped, key=lambda fs: [f.sort_key for f in fs])
    for table in tables.values():
        features = table.features
        ref = reference[features]
        assert len(table) == len(ref) == len(grouped[features])
        assert table.columns() == ref.columns()
        assert table.pair_index() == ref.pair_index()
        assert table.rows == ref.rows == tuple(grouped[features])
        assert table == ref


@st.composite
def candidates(draw):
    """A pattern of 3-5 features and pair tables with at least one row for
    every feature pair of it."""
    feats = sorted(
        draw(st.lists(st.sampled_from(FEATURES), min_size=3, max_size=5, unique=True)),
        key=lambda f: f.sort_key,
    )
    insts = [
        [DynamicInstance(f, i, 0.0, 0.0, 0) for i in range(1, draw(st.integers(1, 4)) + 1)]
        for f in feats
    ]
    pairs = []
    for i, j in combinations(range(len(feats)), 2):
        rows = draw(
            st.sets(
                st.tuples(st.sampled_from(insts[i]), st.sampled_from(insts[j])), min_size=1
            )
        )
        pairs.extend(rows)
    return Pattern(feats), size2_table_instances(pairs)


def summary_of(pattern, tables):
    """The candidate's summary, asserted equal to its row reference."""
    summary = summarize(pattern, tables)
    table = candidate_table_instance(pattern, tables)
    assert summary.row_count == len(table)
    for i, f in enumerate(pattern.features):
        assert bits(summary.participants[f]) == {row[i].ordinal for row in table.rows}, f.label
    return summary


@SETTINGS
@given(candidates())
def test_summary_equals_row_reference(candidate):
    summary_of(*candidate)


@st.composite
def grouped_candidates(draw):
    """A pattern of 3-5 features whose instances fall into 2-3 groups of 2-3
    per feature, with ordinals dealt out in a drawn order.  Pair tables relate
    whole groups, so every instance of a group has the same partners and
    the row search meets the same narrowed masks again.  Each group relates
    to a drawn subset of every other feature's groups, so domains are seldom
    empty and two groups can share some partner masks but not others."""
    feats = sorted(
        draw(st.lists(st.sampled_from(FEATURES), min_size=3, max_size=5, unique=True)),
        key=lambda f: f.sort_key,
    )
    groups = []
    for f in feats:
        sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
        ordinals = iter(draw(st.permutations(range(1, sum(sizes) + 1))))
        groups.append(
            [[DynamicInstance(f, next(ordinals), 0.0, 0.0, 0) for _ in range(n)] for n in sizes]
        )
    pairs = []
    for i, j in combinations(range(len(feats)), 2):
        for gi in groups[i]:
            for g in draw(st.sets(st.sampled_from(range(len(groups[j]))), min_size=1)):
                pairs.extend((a, b) for a in gi for b in groups[j][g])
    return Pattern(feats), size2_table_instances(dict.fromkeys(pairs))


@SETTINGS
@given(grouped_candidates())
def test_summary_over_shared_masks_equals_row_reference(candidate):
    summary_of(*candidate)


@st.composite
def wide_candidates(draw):
    """A pattern of 3-4 features over instance ordinals from 1 to 130, so
    masks span several machine words and tables differ in their largest
    ordinal.  Every instance of the canonically first feature has a partner
    in each of its tables, so its domain is the largest and a fail-first
    search takes it last.  The other features' partners are drawn per
    table, so some feature's domain may come out empty."""
    feats = sorted(
        draw(st.lists(st.sampled_from(FEATURES), min_size=3, max_size=4, unique=True)),
        key=lambda f: f.sort_key,
    )
    ordinals = [
        draw(st.sets(st.integers(1, 130), min_size=6, max_size=8)),
        *(draw(st.sets(st.integers(1, 130), min_size=1, max_size=4)) for _ in feats[1:]),
    ]
    insts = [
        [DynamicInstance(f, o, 0.0, 0.0, 0) for o in sorted(os)] for f, os in zip(feats, ordinals)
    ]
    pairs = []
    for i, j in combinations(range(len(feats)), 2):
        side = st.sampled_from(insts[j])
        if i == 0:
            pairs.extend((a, draw(side)) for a in insts[0])
        rows = st.tuples(st.sampled_from(insts[i]), side)
        pairs.extend(draw(st.sets(rows, min_size=1, max_size=6)))
    return Pattern(feats), size2_table_instances(dict.fromkeys(pairs))


@SETTINGS
@given(wide_candidates())
def test_bitset_summary_equals_row_reference(candidate):
    summary = summary_of(*candidate)
    assert all(summary.participants.values()) == (summary.row_count > 0)


@SETTINGS
@given(wide_candidates())
def test_columns_are_distinct_ordinals(candidate):
    pattern, tables = candidate
    for table in (*tables.values(), candidate_table_instance(pattern, tables)):
        for i, mask in enumerate(table.columns()):
            assert bits(mask) == {row[i].ordinal for row in table.rows}, table.label


@st.composite
def feature_graphs(draw):
    """A graph over up to ten features, isolated vertices included."""
    vertices = draw(st.lists(st.sampled_from(FEATURES), max_size=10, unique=True))
    pairs = list(combinations(vertices, 2))
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, keep in zip(pairs, kept) if keep]
    return feature_graph(edges, vertices=vertices)


@SETTINGS
@given(feature_graphs())
def test_maximal_cliques_equal_bron_kerbosch(graph):
    assert maximal_cliques(graph) == bron_kerbosch(graph)


CAPS = OracleConfig()


@st.composite
def small_series(draw):
    """A series within the exhaustive search's caps, with instances packed
    closely enough on a small grid that patterns of several features form,
    life cycles from one window to all of them, and either temporal mode."""
    n_windows = draw(st.integers(1, CAPS.max_windows))
    features = FEATURES[:8]
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(features),
                st.integers(0, 3).map(float),
                st.integers(0, 3).map(float),
                st.integers(0, n_windows - 1),
            ),
            max_size=60,
        )
    )
    series = series_of(events, n_windows)
    life = {f.base: draw(st.sampled_from([3.0, 9.0, 30.0])) for f in features}
    config = MiningConfig(
        d_d=draw(st.sampled_from([1.0, 1.5, 2.0])),
        min_prev=draw(st.sampled_from([0.0, 0.1, 0.2, 0.4])),
        time_span=3.0,
        temporal_comparison=draw(st.sampled_from(["inclusive", "strict"])),
    )
    return series, life, config


@SETTINGS
@given(small_series())
def test_miner_equals_exhaustive_search(inputs):
    series, life, config = inputs
    spans = compute_spans(series.features(), life, config.time_span)
    brute = brute_force_maximal(series, spans, feature_counts(series), config, CAPS)
    expected = [(r.pattern, r.dpi, r.row_count, r.maximal) for r in brute]
    # The early bound never changes a result: with or without it, the miner
    # reports what the exhaustive search finds.
    for early_abort in (True, False):
        mined = mine_series(series, life, config, early_abort=early_abort).results
        assert [(r.pattern, r.dpi, r.row_count, r.maximal) for r in mined] == expected, early_abort
