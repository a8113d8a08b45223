"""Reduction of a snapshot series to per-window new/dead instance sets.

Window k describes the transition from snapshot k to snapshot k+1.  An
instance id present in k but gone in k+1 becomes a "dead" dynamic instance at
its old position; an id absent in k but present in k+1 becomes a "new" one at
its new position.  Ids present in both contribute nothing, even if they moved.
An id that disappears and later reappears is a fresh new instance; identity
does not survive a gap.

A series is its instances as columns in canonical order (`SeriesColumns`).
The diff numbers what it finds and hands the columns over
(`EventLog.series`); a series built from its windows is numbered at
construction (`number_instances`).  The join, the pair tables and the
writers read the columns, so a mine builds no `DynamicInstance`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .model import (
    DEAD,
    NEW,
    ConfigError,
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


class SeriesColumns(NamedTuple):
    """The instances of a series as columns, in canonical order: code `i`
    names the instance at position `i` of each per-instance column.  The
    features are in canonical order too, and an instance's rank is the
    position of its feature there."""

    # per feature rank: the feature, and how many instances it has
    features: list[DynamicFeature]
    counts: list[int]
    # per instance code
    ranks: list[int]
    ordinals: list[int]
    t_indexes: list[int]
    xs: list[float]
    ys: list[float]


def number_instances(
    instances: Iterable[DynamicInstance],
) -> tuple[list[DynamicInstance], SeriesColumns]:
    """The instances in canonical order and their columns; a ConfigError
    when two instances share a name (feature and ordinal), which names them
    everywhere downstream.  This numbers a series built from its windows;
    `EventLog.series` hands its columns over already numbered."""
    ordered = sorted(instances, key=attrgetter("sort_key"))
    features: list[DynamicFeature] = []
    counts: list[int] = []
    ranks: list[int] = []
    last = feature_key = None
    for inst in ordered:
        if inst.sort_key == last:
            raise ConfigError(f"two instances are named {inst.label}")
        last = inst.sort_key
        feature = inst.feature
        if feature.sort_key != feature_key:
            feature_key = feature.sort_key
            features.append(feature)
            counts.append(0)
        counts[-1] += 1
        ranks.append(len(features) - 1)
    return ordered, SeriesColumns(
        features, counts, ranks,
        [inst.ordinal for inst in ordered], [inst.t_index for inst in ordered],
        [inst.x for inst in ordered], [inst.y for inst in ordered],
    )


class DynamicDatasetSeries(Value):
    """The dynamic instances of every transition window, held as their
    columns (`SeriesColumns`) in canonical order.

    Windows may be empty; they are kept so that t_index stays aligned with the
    original snapshot positions.  The diff hands its columns over
    (`of_columns`); a series built from its windows
    (`DynamicDatasetSeries(windows)`, as tests and oracles build one) is
    numbered at construction by `number_instances` and keeps its own
    instances.  A column-built series builds its `DynamicInstance`s only
    when its instances, windows or names are read.  `windows` come from the
    columns by t_index, in canonical order within each window.  Two series
    are equal when their window counts and columns are.
    """

    _compared = ("window_count", "columns")
    __slots__ = ("window_count", "columns", "_instances", "_named")

    def __init__(self, windows: tuple[tuple[DynamicInstance, ...], ...]):
        for t_index, window in enumerate(windows):
            for inst in window:
                if inst.t_index != t_index:
                    raise ConfigError(
                        f"instance {inst.label} has t_index {inst.t_index}"
                        f" but sits in window {t_index}"
                    )
        self.window_count = len(windows)
        self._instances, self.columns = number_instances(
            inst for window in windows for inst in window
        )
        self._named: dict[DynamicFeature, dict[int, DynamicInstance]] | None = None

    @classmethod
    def of_columns(cls, columns: SeriesColumns, window_count: int) -> DynamicDatasetSeries:
        """The series of `window_count` windows that holds these columns."""
        series = cls.__new__(cls)
        series.window_count, series.columns = window_count, columns
        series._instances = series._named = None
        return series

    def __hash__(self) -> int:
        # The columns are lists; equal series have equal feature counts.
        return hash((self.window_count, tuple(self.columns.counts)))

    def instances(self) -> list[DynamicInstance]:
        """The instances in canonical order: code `i` names `instances()[i]`."""
        if self._instances is None:
            c = self.columns
            self._instances = list(map(
                DynamicInstance, map(c.features.__getitem__, c.ranks),
                c.ordinals, c.xs, c.ys, c.t_indexes,
            ))
        return self._instances

    def named(self) -> dict[DynamicFeature, dict[int, DynamicInstance]]:
        """Feature -> ordinal -> instance, for every feature of the series."""
        if self._named is None:
            by_rank: list[dict[int, DynamicInstance]] = [{} for _ in self.columns.features]
            for inst, rank in zip(self.instances(), self.columns.ranks):
                by_rank[rank][inst.ordinal] = inst
            self._named = dict(zip(self.columns.features, by_rank))
        return self._named

    @property
    def windows(self) -> tuple[tuple[DynamicInstance, ...], ...]:
        per_window: list[list[DynamicInstance]] = [[] for _ in range(self.window_count)]
        for inst in self.instances():
            per_window[inst.t_index].append(inst)
        return tuple(map(tuple, per_window))

    def window_rows(self) -> Iterator[tuple[int, DynamicFeature, int, float, float]]:
        """(t_index, feature, ordinal, x, y) of each instance, in the order
        of `windows`, read from the columns."""
        c = self.columns
        features, ranks, ordinals, t_indexes, xs, ys = (
            c.features, c.ranks, c.ordinals, c.t_indexes, c.xs, c.ys
        )
        # A stable sort keeps canonical order within each window.
        order = sorted(range(len(ranks)), key=t_indexes.__getitem__)
        return (
            (t_indexes[i], features[ranks[i]], ordinals[i], xs[i], ys[i]) for i in order
        )

    def features(self) -> set[DynamicFeature]:
        return set(self.columns.features)


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
        """The series as columns (`SeriesColumns`), numbered here: ordinals
        are assigned per dynamic feature by window, then by instance id, so
        they do not depend on record order.  Features in canonical order,
        each with ascending ordinals, are the canonical instance order."""
        features = sorted((DynamicFeature(*key) for key in self.events), key=lambda f: f.sort_key)
        counts: list[int] = []
        ranks: list[int] = []
        ordinals: list[int] = []
        t_indexes: list[int] = []
        xs: list[float] = []
        ys: list[float] = []
        for rank, feature in enumerate(features):
            events = sorted(self.events[feature.base, feature.kind])
            n = len(events)
            counts.append(n)
            ranks += [rank] * n
            ordinals += range(1, n + 1)
            ks, _instance_ids, exs, eys = zip(*events)
            t_indexes += ks
            xs += exs
            ys += eys
        columns = SeriesColumns(features, counts, ranks, ordinals, t_indexes, xs, ys)
        return DynamicDatasetSeries.of_columns(columns, self.t_points - 1)


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
