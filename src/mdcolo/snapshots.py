"""Reduction of a snapshot series to per-window new/dead instance sets.

Window k describes the transition from snapshot k to snapshot k+1.  An
instance id present in k but gone in k+1 becomes a "dead" dynamic instance at
its old position; an id absent in k but present in k+1 becomes a "new" one at
its new position.  Ids present in both contribute nothing, even if they moved.
An id that disappears and later reappears is a fresh new instance; identity
does not survive a gap.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .model import (
    DEAD,
    NEW,
    DataFormatError,
    DynamicFeature,
    DynamicInstance,
    InsufficientDataError,
    Value,
)

# (feature id, instance id, x, y)
SnapshotRecord = tuple[str, str, float, float]


class DuplicateInstanceError(DataFormatError):
    """One (feature, instance id) twice in the snapshot at `t_point`."""

    def __init__(self, t_point: int, key: tuple[str, str]):
        super().__init__(f"duplicate instance {key!r} in snapshot t={t_point}")
        self.t_point, self.key = t_point, key


class SnapshotGapError(DataFormatError):
    """No snapshot between `before` and `t_point`, which are not consecutive."""

    def __init__(self, before: int, t_point: int):
        super().__init__(f"snapshot t_points must be contiguous, got {before} then {t_point}")
        self.t_point = t_point


class Snapshot(Value):
    """All feature instances present at one time point."""

    __slots__ = _compared = ("t_point", "records")

    def __init__(self, t_point: int, records: tuple[SnapshotRecord, ...]):
        self.t_point, self.records = t_point, records


class DynamicDatasetSeries(Value):
    """The dynamic instances of every transition window, in canonical order.

    Windows may be empty; they are kept so that t_index stays aligned with the
    original snapshot positions.
    """

    __slots__ = _compared = ("windows",)

    def __init__(self, windows: tuple[tuple[DynamicInstance, ...], ...]):
        self.windows = windows

    def all_instances(self) -> Iterator[DynamicInstance]:
        for window in self.windows:
            yield from window

    def features(self) -> set[DynamicFeature]:
        return {inst.feature for inst in self.all_instances()}

    @property
    def window_count(self) -> int:
        return len(self.windows)


# (feature id, instance id): what names a record within one snapshot
Key = tuple[str, str]


class EventLog:
    """The events of a series, t_point by t_point, and the one rule that
    numbers them into a DynamicDatasetSeries.  Both paths to a series fill
    one: `diff_snapshots`, and `io.read_series`, which diffs a snapshot CSV
    grouped by t_point while it reads it.

    A diff steps through the t_points in order.  Each record of t_point k+1
    pops its key from t_point k's index: a key found nowhere is a new event
    at its new position, and what is left of t_point k's index when k+1
    ends is dead at its old position.  Both are events of window k.
    """

    __slots__ = ("events", "t_points")

    def __init__(self):
        # (feature id, kind) -> list of (window, instance id, x, y)
        self.events: dict[tuple[str, str], list[tuple[int, str, float, float]]] = {}
        self.t_points = 0

    def add_t_point(self, born: Iterable[SnapshotRecord], gone: Iterable[SnapshotRecord]) -> None:
        """Close a t_point: `born` are its records whose keys the t_point
        before did not hold, and `gone` that t_point's records whose keys it
        does not hold.  The first t_point's records are no events."""
        k, events = self.t_points - 1, self.events
        self.t_points += 1
        if k < 0:
            return
        for feature, instance_id, x, y in gone:
            events.setdefault((feature, DEAD), []).append((k, instance_id, x, y))
        for feature, instance_id, x, y in born:
            events.setdefault((feature, NEW), []).append((k, instance_id, x, y))

    def series(self) -> DynamicDatasetSeries:
        """Ordinals are assigned per dynamic feature by window, then by
        instance id, so they do not depend on record order.  Features in
        canonical order, each with ascending ordinals, fill every window
        already in canonical instance order."""
        per_window: list[list[DynamicInstance]] = [[] for _ in range(self.t_points - 1)]
        features = sorted((DynamicFeature(*key) for key in self.events), key=lambda f: f.sort_key)
        for feature in features:
            events = sorted(self.events[feature.base, feature.kind])
            for ordinal, (k, _instance_id, x, y) in enumerate(events, start=1):
                per_window[k].append(DynamicInstance(feature, ordinal, x, y, k))
        return DynamicDatasetSeries(tuple(map(tuple, per_window)))


def diff_snapshots(snapshots: Sequence[Snapshot]) -> DynamicDatasetSeries:
    """Diff consecutive snapshots into a dynamic dataset series.

    Requires at least two snapshots with contiguous t_point values, each
    without a duplicate key; a gap anywhere is reported before a duplicate.
    """
    if len(snapshots) < 2:
        raise InsufficientDataError(f"need at least 2 snapshots, got {len(snapshots)}")
    snaps = sorted(snapshots, key=lambda s: s.t_point)
    for prev, cur in zip(snaps, snaps[1:]):
        if cur.t_point != prev.t_point + 1:
            raise SnapshotGapError(prev.t_point, cur.t_point)

    log = EventLog()
    # key -> record, for the snapshot before the one being read
    before: dict[Key, SnapshotRecord] = {}
    for snap in snaps:
        after: dict[Key, SnapshotRecord] = {}
        born = []
        for record in snap.records:
            key = (record[0], record[1])
            if key in after:
                raise DuplicateInstanceError(snap.t_point, key)
            after[key] = record
            if before.pop(key, None) is None:
                born.append(record)
        log.add_t_point(born, before.values())
        before = after
    return log.series()
