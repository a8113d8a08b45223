"""One numbering of a series, whichever way it was made.

The diff numbers the series it hands over (`EventLog.series`), and a series
built from its windows is numbered at construction by `number_instances`.
Random snapshot series go through the set path (`io._stream`), the
whole-file path (a file with one quoted id, read by `io.read_series`) and
`diff_snapshots`; each series must hold the columns that `number_instances`
gives its instances, count its features as a walk over its windows does,
hold the columns and windows of the same series rebuilt from its windows,
and join as that series and as the exhaustive pair scan do.  A
reference diff, written out here, checks the windows themselves."""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from mdcolo import DynamicFeature, DynamicInstance, MiningConfig, Snapshot, diff_snapshots, io
from mdcolo.model import DEAD, NEW
from mdcolo.neighborhood import grid_join
from mdcolo.size2 import feature_counts
from mdcolo.snapshots import DynamicDatasetSeries, number_instances

from conftest import feat, window_instances
from oracles import all_pairs_scan

SETTINGS = settings(max_examples=120, deadline=None, database=None)

KEYS = [(f, i) for f in "ABC" for i in ("1", "2", "3", "x")]
COORDS = [0.0, 0.5, 1.0, 1.5, 2.0, 3.5, -1.0, -2.5]
FEATURES = [feat(f"{base}_{kind}") for base in "ABC" for kind in ("new", "dead")]


@st.composite
def snapshot_series(draw) -> list[Snapshot]:
    """2-5 contiguous snapshots of 1-8 records each; a key present the
    snapshot before keeps its position or moves."""
    start = draw(st.integers(0, 3))
    snapshots: list[Snapshot] = []
    last: dict[tuple[str, str], tuple[float, float]] = {}
    for t in range(start, start + draw(st.integers(2, 5))):
        records = []
        for key in draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=8, unique=True)):
            if key in last and draw(st.booleans()):
                x, y = last[key]
            else:
                x, y = draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS))
            records.append((*key, x, y))
        last = {(f, i): (x, y) for f, i, x, y in records}
        snapshots.append(Snapshot(t, tuple(records)))
    return snapshots


def reference_series(snapshots: list[Snapshot]) -> DynamicDatasetSeries:
    """The series diffed from first principles and built from its windows:
    ordinals by window, then by instance id, per dynamic feature."""
    events: dict[DynamicFeature, list[tuple]] = {}
    for k, (a, b) in enumerate(zip(snapshots, snapshots[1:])):
        before = {(f, i): (x, y) for f, i, x, y in a.records}
        after = {(f, i): (x, y) for f, i, x, y in b.records}
        for kind, here, there in ((DEAD, before, after), (NEW, after, before)):
            for (f, i), (x, y) in here.items():
                if (f, i) not in there:
                    events.setdefault(DynamicFeature(f, kind), []).append((k, i, x, y))
    windows: list[list[DynamicInstance]] = [[] for _ in snapshots[1:]]
    for feature, found in events.items():
        for ordinal, (k, _, x, y) in enumerate(sorted(found), start=1):
            windows[k].append(DynamicInstance(feature, ordinal, x, y, k))
    return DynamicDatasetSeries(
        tuple(tuple(sorted(w, key=lambda inst: inst.sort_key)) for w in windows)
    )


def read_both_paths(snapshots: list[Snapshot]) -> tuple[DynamicDatasetSeries, ...]:
    """The series that the set path and the whole-file path read from the
    snapshots' CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        plain, quoted = Path(tmp) / "plain.csv", Path(tmp) / "quoted.csv"
        io.write_snapshots_csv(str(plain), snapshots)
        header, first, *rest = plain.read_text(encoding="utf-8").splitlines(keepends=True)
        t, feature, instance_id, x, y = first.split(",")
        quoted.write_text(
            header + f'{t},{feature},"{instance_id}",{x},{y}' + "".join(rest), encoding="utf-8"
        )
        streamed = io._stream(str(plain))
        assert streamed is not None
        assert io._stream(str(quoted)) is None
        return streamed[0], io.read_series(str(quoted))[0]


@SETTINGS
@given(snapshot_series(), st.dictionaries(st.sampled_from(FEATURES), st.integers(1, 5),
                                          min_size=len(FEATURES)),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_every_path_numbers_the_series_once(snapshots, spans, d_d):
    series = diff_snapshots(snapshots)
    assert series == reference_series(snapshots)
    for other in read_both_paths(snapshots):
        assert other.columns == series.columns
        assert other == series
    ordered, columns = number_instances(window_instances(series))
    assert columns == series.columns
    assert ordered == series.instances()
    assert feature_counts(series) == Counter(inst.feature for inst in series.instances())
    assert series.window_count == len(snapshots) - 1

    built = DynamicDatasetSeries(series.windows)
    assert built.columns == series.columns
    assert built.windows == series.windows
    for mode in ("inclusive", "strict"):
        config = MiningConfig(d_d=d_d, min_prev=0.1, time_span=3.0, temporal_comparison=mode)
        join = grid_join(diff_snapshots(snapshots), spans, config)
        assert join == grid_join(built, spans, config)
        assert tuple(join.pairs()) == all_pairs_scan(built, spans, config)
