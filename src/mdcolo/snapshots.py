"""Reduction of a snapshot series to per-window new/dead instance sets.

Window k describes the transition from snapshot k to snapshot k+1.  An
instance id present in k but gone in k+1 becomes a "dead" dynamic instance at
its old position; an id absent in k but present in k+1 becomes a "new" one at
its new position.  Ids present in both contribute nothing, even if they moved.
An id that disappears and later reappears is a fresh new instance; identity
does not survive a gap.
"""

from __future__ import annotations

from typing import Iterator, Sequence

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


def _index_snapshot(snap: Snapshot) -> dict[tuple[str, str], tuple[float, float]]:
    by_id: dict[tuple[str, str], tuple[float, float]] = {}
    for feature, instance_id, x, y in snap.records:
        key = (feature, instance_id)
        if key in by_id:
            raise DuplicateInstanceError(snap.t_point, key)
        by_id[key] = (x, y)
    return by_id


def diff_snapshots(snapshots: Sequence[Snapshot]) -> DynamicDatasetSeries:
    """Diff consecutive snapshots into a dynamic dataset series.

    Requires at least two snapshots with contiguous t_point values.  Ordinals
    are assigned per dynamic feature by scanning windows in order and, within
    a window, instance ids in lexicographic order, so the result does not
    depend on record order inside the snapshots.
    """
    if len(snapshots) < 2:
        raise InsufficientDataError(f"need at least 2 snapshots, got {len(snapshots)}")
    snaps = sorted(snapshots, key=lambda s: s.t_point)
    for prev, cur in zip(snaps, snaps[1:]):
        if cur.t_point != prev.t_point + 1:
            raise SnapshotGapError(prev.t_point, cur.t_point)

    # (feature id, kind) -> list of (window, instance id, x, y)
    events: dict[tuple[str, str], list[tuple[int, str, float, float]]] = {}
    # Two snapshots are indexed at a time; each is indexed exactly once.
    after = _index_snapshot(snaps[0])
    for k, snap in enumerate(snaps[1:]):
        before, after = after, _index_snapshot(snap)
        for key in before.keys() - after.keys():
            feature, instance_id = key
            x, y = before[key]
            events.setdefault((feature, DEAD), []).append((k, instance_id, x, y))
        for key in after.keys() - before.keys():
            feature, instance_id = key
            x, y = after[key]
            events.setdefault((feature, NEW), []).append((k, instance_id, x, y))

    # Features in canonical order, each with ascending ordinals, fill every
    # window already in canonical instance order.
    per_window: list[list[DynamicInstance]] = [[] for _ in range(len(snaps) - 1)]
    features = sorted((DynamicFeature(*key) for key in events), key=lambda f: f.sort_key)
    for feature in features:
        key = (feature.base, feature.kind)
        for ordinal, (k, _instance_id, x, y) in enumerate(sorted(events[key]), start=1):
            per_window[k].append(DynamicInstance(feature, ordinal, x, y, k))
    return DynamicDatasetSeries(tuple(map(tuple, per_window)))
