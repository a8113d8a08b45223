from __future__ import annotations

import pytest

from mdcolo import (
    ConfigError,
    DataFormatError,
    DynamicDatasetSeries,
    DynamicInstance,
    InsufficientDataError,
    Snapshot,
    diff_snapshots,
)

from conftest import SHOPS_EXPECTED_INSTANCES, feat, instances_by_label, snap


def test_shops_series_instances(shops_series):
    got = {
        inst.label: (inst.x, inst.y, inst.t_index)
        for inst in shops_series.instances()
    }
    assert got == SHOPS_EXPECTED_INSTANCES


def test_window_count_is_snapshots_minus_one(shops, shops_series):
    assert shops_series.window_count == len(shops) - 1


def test_event_conservation(shops, shops_series):
    # Every id change between consecutive snapshots maps to exactly one event.
    expected = 0
    for before, after in zip(shops, shops[1:]):
        ids_before = {(r[0], r[1]) for r in before.records}
        ids_after = {(r[0], r[1]) for r in after.records}
        expected += len(ids_before - ids_after) + len(ids_after - ids_before)
    assert sum(len(w) for w in shops_series.windows) == expected


def test_diff_ignores_record_order(shops):
    shuffled = [
        Snapshot(s.t_point, tuple(reversed(s.records))) for s in reversed(shops)
    ]
    assert diff_snapshots(shuffled) == diff_snapshots(shops)


def test_diff_is_deterministic(shops):
    assert diff_snapshots(shops) == diff_snapshots(shops)


def test_unchanged_instances_produce_nothing():
    series = diff_snapshots(
        [snap(0, ("A", "a1", 0.0, 0.0)), snap(1, ("A", "a1", 5.0, 5.0))]
    )
    # Same id in both snapshots: no event, even though the position moved.
    assert sum(len(w) for w in series.windows) == 0


def test_reappearing_id_is_a_fresh_instance():
    series = diff_snapshots(
        [
            snap(0, ("A", "a1", 0.0, 0.0)),
            snap(1),
            snap(2, ("A", "a1", 7.0, 0.0)),
        ]
    )
    labels = sorted(inst.label for inst in series.instances())
    assert labels == ["A_dead.1", "A_new.1"]
    by_label = instances_by_label(series)
    assert by_label["A_dead.1"].t_index == 0
    assert by_label["A_dead.1"].x == 0.0
    assert by_label["A_new.1"].t_index == 1
    assert by_label["A_new.1"].x == 7.0


def test_dead_keeps_old_position_new_keeps_new_position():
    series = diff_snapshots(
        [snap(0, ("A", "a1", 1.0, 2.0)), snap(1, ("A", "a2", 3.0, 4.0))]
    )
    by_label = instances_by_label(series)
    assert (by_label["A_dead.1"].x, by_label["A_dead.1"].y) == (1.0, 2.0)
    assert (by_label["A_new.1"].x, by_label["A_new.1"].y) == (3.0, 4.0)


def test_ordinals_assigned_by_window_then_id():
    series = diff_snapshots(
        [
            snap(0),
            snap(1, ("A", "z", 1.0, 0.0), ("A", "b", 2.0, 0.0)),
            snap(2, ("A", "z", 1.0, 0.0), ("A", "b", 2.0, 0.0), ("A", "a", 3.0, 0.0)),
        ]
    )
    by_label = instances_by_label(series)
    # Window 0 first (ids b, z in order), then window 1 (id a).
    assert by_label["A_new.1"].x == 2.0
    assert by_label["A_new.2"].x == 1.0
    assert by_label["A_new.3"].x == 3.0


def test_snapshots_sorted_by_t_point(shops):
    assert diff_snapshots(list(reversed(shops))) == diff_snapshots(shops)


def test_rejects_single_snapshot():
    with pytest.raises(InsufficientDataError):
        diff_snapshots([snap(0, ("A", "a1", 0.0, 0.0))])


def test_rejects_gap_in_t_points():
    with pytest.raises(DataFormatError, match="contiguous"):
        diff_snapshots([snap(0), snap(2)])


def test_rejects_duplicate_instance_in_snapshot():
    with pytest.raises(DataFormatError, match="duplicate"):
        diff_snapshots(
            [snap(0, ("A", "a1", 0.0, 0.0), ("A", "a1", 1.0, 1.0)), snap(1)]
        )


def test_windows_are_canonically_sorted(burst_series):
    for window in burst_series.windows:
        keys = [inst.sort_key for inst in window]
        assert keys == sorted(keys)


def test_an_instance_outside_its_window_is_an_error():
    # The windows are built from the columns by t_index, so an instance
    # must sit in the window of its t_index.
    a1 = DynamicInstance(feat("A_new"), 1, 0.0, 0.0, 5)
    b1 = DynamicInstance(feat("B_new"), 1, 1.0, 0.0, 0)
    with pytest.raises(ConfigError, match=r"instance A_new\.1 has t_index 5 but sits in window 0"):
        DynamicDatasetSeries(((a1, b1),))
    series = DynamicDatasetSeries(((b1,), (), (), (), (), (a1,)))
    assert series.columns.t_indexes == [5, 0]
    assert series.windows == ((b1,), (), (), (), (), (a1,))
