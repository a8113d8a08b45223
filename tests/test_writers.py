"""The row writers of `mdcolo.io` against the csv module: every record a
snapshot CSV holds reads back equal, and for text without a carriage return
every writer's bytes equal what `csv.writer(lineterminator="\\n")` writes for
the same rows.  Text fields draw the CSV specials often."""

from __future__ import annotations

import csv
import io as textio
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mdcolo import BaseFeature, DynamicFeature, DynamicInstance, Snapshot, io
from mdcolo.model import DEAD, NEW
from mdcolo.neighborhood import MAX_COORDINATE
from mdcolo.size2 import size2_table_instances
from mdcolo.snapshots import DynamicDatasetSeries

from conftest import by_features

# Without the explain phase, which takes minutes on a failing example here.
SETTINGS = settings(
    max_examples=60, deadline=None, database=None, phases=[Phase.generate, Phase.shrink]
)

SPECIALS = ',"\n\r |;'


def text(specials: str = SPECIALS) -> st.SearchStrategy[str]:
    """Non-empty text of CSV specials and any character the files can hold:
    no NUL and no lone surrogate, which UTF-8 cannot encode."""
    other = st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r")
    return st.text(st.one_of(st.sampled_from(specials), other), min_size=1, max_size=6)


# Text without `\r`, which csv.writer leaves bare.
PLAIN = text(SPECIALS.replace("\r", ""))
COORD = st.floats(min_value=-MAX_COORDINATE, max_value=MAX_COORDINATE, allow_nan=False)
# Small enough that a squared distance stays finite.
NEAR = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def written(write, *args) -> bytes:
    """The bytes `write(path, *args)` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "out.csv")
        write(path, *args)
        return Path(path).read_bytes()


def reference(header: list[str], rows) -> bytes:
    out = textio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@st.composite
def snapshot_lists(draw, texts):
    """1-3 snapshots at consecutive t_points, 1-5 records each."""
    start = draw(st.integers(-3, 3))
    return [
        Snapshot(start + k, tuple(draw(st.lists(st.tuples(texts, texts, COORD, COORD),
                                                min_size=1, max_size=5))))
        for k in range(draw(st.integers(1, 3)))
    ]


# Coordinate twins: equal keys that print differently (0.0 and -0.0, 1 and
# 1.0), equal floats, and NaNs, which equal nothing and print alike.
TWINS = [(0.0, -0.0), (1, 1.0), (-1.0, -1), (2.5, 2.5), (math.nan, -math.nan)]


@st.composite
def repeated_records(draw, texts):
    """2-4 snapshots at t_points 0.. that each hold the same 1-3 (feature,
    id) keys; each key's x and y are drawn from one pair of TWINS, either
    twin at each t_point, so equal records recur with different texts."""
    keys = draw(st.lists(st.tuples(texts, texts), min_size=1, max_size=3, unique=True))
    twins = [(f, i, draw(st.sampled_from(TWINS)), draw(st.sampled_from(TWINS))) for f, i in keys]
    return [
        Snapshot(t, tuple((f, i, draw(st.sampled_from(xs)), draw(st.sampled_from(ys)))
                          for f, i, xs, ys in twins))
        for t in range(draw(st.integers(2, 4)))
    ]


@st.composite
def instances(draw, texts, coords=NEAR):
    """1-6 dynamic instances of 1-3 features, ordinals counted per feature."""
    bases = draw(st.lists(texts, min_size=1, max_size=3, unique=True))
    features = [DynamicFeature(b, draw(st.sampled_from((NEW, DEAD)))) for b in bases]
    drawn = draw(st.lists(st.sampled_from(features), min_size=1, max_size=6))
    return [
        DynamicInstance(f, drawn[:i + 1].count(f), draw(coords), draw(coords),
                        draw(st.integers(0, 3)))
        for i, f in enumerate(drawn)
    ]


def pairs_of(insts):
    return [(a, b) for i, a in enumerate(insts) for b in insts[i + 1:] if a.feature != b.feature]


@SETTINGS
@given(snapshot_lists(text()))
def test_snapshot_records_read_back_equal(snapshots):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "snaps.csv")
        io.write_snapshots_csv(path, snapshots)
        loaded = io.read_snapshots_csv(path)
    assert loaded == [Snapshot(s.t_point, tuple(sorted(s.records))) for s in snapshots]


def assert_snapshot_writer_matches(snapshots):
    rows = [
        [s.t_point, f, i, repr(x), repr(y)] for s in snapshots for f, i, x, y in sorted(s.records)
    ]
    assert written(io.write_snapshots_csv, snapshots) == reference(io.SNAPSHOT_HEADER, rows)


@SETTINGS
@given(snapshot_lists(PLAIN))
def test_snapshot_writer_matches_csv_writer(snapshots):
    assert_snapshot_writer_matches(snapshots)


@SETTINGS
@given(repeated_records(PLAIN))
def test_snapshot_writer_formats_equal_records_apart(snapshots):
    # The writer formats a recurring record once; twins must still print as
    # csv.writer prints them.
    assert_snapshot_writer_matches(snapshots)


@SETTINGS
@given(instances(PLAIN, COORD))
def test_series_writer_matches_csv_writer(insts):
    # Each instance in the window of its t_index, which `instances` draws
    # from 0-3; rows come in window order, then in canonical order.
    series = DynamicDatasetSeries(
        tuple(tuple(i for i in insts if i.t_index == t) for t in range(4))
    )
    rows = [[i.t_index, i.feature.base, i.feature.kind, i.ordinal, repr(i.x), repr(i.y)]
            for i in sorted(insts, key=lambda i: (i.t_index, i.sort_key))]
    assert written(io.write_series_csv, series) == reference(io.SERIES_HEADER, rows)


@SETTINGS
@given(st.lists(st.tuples(PLAIN.filter(lambda t: not set(t) & set(",;|\n")),
                          st.floats(min_value=1e-300, max_value=1e300)),
                min_size=1, max_size=4, unique_by=lambda p: p[0]))
def test_lifecycle_writer_matches_csv_writer(entries):
    features = [BaseFeature(id, life) for id, life in entries]
    rows = [[f.id, repr(f.life_cycle)] for f in sorted(features, key=lambda f: f.id)]
    assert written(io.write_lifecycles_csv, features) == reference(io.LIFECYCLE_HEADER, rows)


@SETTINGS
@given(instances(PLAIN))
def test_pairs_writer_matches_csv_writer(insts):
    pairs = pairs_of(insts)
    rows = [
        [a.feature.label, a.ordinal, a.t_index, b.feature.label, b.ordinal, b.t_index,
         repr(math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2))]
        for a, b in pairs
    ]
    assert written(io.write_pairs_csv, pairs) == reference(io.PAIRS_HEADER, rows)


@SETTINGS
@given(instances(PLAIN), st.floats(min_value=0.0, max_value=1.0))
def test_size2_writer_matches_csv_writer(insts, dpi):
    # Each pair in canonical order, so one table holds each feature pair.
    tables = size2_table_instances(
        (a, b) if a.feature.sort_key < b.feature.sort_key else (b, a) for a, b in pairs_of(insts)
    )
    dpis = dict.fromkeys(tables, dpi)
    named = by_features(tables)
    rows = [["|".join(f.label for f in pair), repr(dpi), len(named[pair])]
            for pair in sorted(named, key=lambda pair: [f.sort_key for f in pair])]
    assert written(io.write_size2_report_csv, tables, dpis) == reference(io.SIZE2_HEADER, rows)


@SETTINGS
@given(st.lists(st.tuples(PLAIN, PLAIN, PLAIN, st.integers(0, 99), st.integers(0, 99),
                          st.floats(min_value=0.0, max_value=1e6)), max_size=4))
def test_bench_writer_matches_csv_writer(rows):
    expected = [[*row[:5], f"{row[5]:.3f}"] for row in rows]
    assert written(io.write_bench_csv, rows) == reference(io.BENCH_HEADER, expected)


def test_carriage_return_is_quoted():
    # csv.writer would leave the `\r` bare, and the reader would then end
    # the record there.
    snapshots = [Snapshot(0, (("A", "x\ry", 1.0, 2.0),))]
    assert written(io.write_snapshots_csv, snapshots) == (
        b't_point,feature,instance_id,x,y\n0,A,"x\ry",1.0,2.0\n'
    )
