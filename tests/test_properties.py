"""Randomized properties: the grid join against the all-pairs scan, and the
row-free candidate summary against the anchorless row reference."""

from __future__ import annotations

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from mdcolo import DynamicInstance, MiningConfig, Pattern
from mdcolo.neighborhood import neighbor_pairs
from mdcolo.oracles import all_pairs_scan, candidate_table_instance
from mdcolo.size2 import size2_table_instances
from mdcolo.snapshots import DynamicDatasetSeries
from mdcolo.verify import candidate_summary

from conftest import feat

FEATURES = [feat(f"{base}_{kind}") for base in "ABCDE" for kind in ("new", "dead")]

# Few examples keep the suite's run time; each one is a whole join or search.
SETTINGS = settings(max_examples=120, deadline=None, database=None)


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
    ordinals: dict = {}
    windows: list[list[DynamicInstance]] = [[] for _ in range(5)]
    for f, x, y, t in events:
        ordinals[f] = ordinals.get(f, 0) + 1
        windows[t].append(DynamicInstance(f, ordinals[f], x, y, t))
    series = DynamicDatasetSeries(
        tuple(tuple(sorted(w, key=lambda i: i.sort_key)) for w in windows)
    )
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


@SETTINGS
@given(candidates())
def test_summary_equals_row_reference(candidate):
    pattern, tables = candidate
    summary = candidate_summary(pattern, tables)
    table = candidate_table_instance(pattern, tables)
    assert summary.row_count == len(table)
    for f in pattern.features:
        assert summary.projections[f] == table.projection(f), f.label
