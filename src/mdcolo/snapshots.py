"""Reduction of a snapshot series to per-window new/dead instance sets.

Window k describes the transition from snapshot k to snapshot k+1.  An
instance id present in k but gone in k+1 becomes a "dead" dynamic instance at
its old position; an id absent in k but present in k+1 becomes a "new" one at
its new position.  Ids present in both contribute nothing, even if they moved.
An id that disappears and later reappears is a fresh new instance; identity
does not survive a gap.

The diff numbers what it finds: `EventLog.series` hands over the series as
columns in canonical order (`SeriesColumns`), which the join, the pair
tables and the writers read, so a mine builds no `DynamicInstance`.
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
    """The dynamic instances of every transition window, in canonical order.

    Windows may be empty; they are kept so that t_index stays aligned with the
    original snapshot positions.  A series holds its instances either as
    windows (`DynamicDatasetSeries(windows)`, as tests and oracles build
    one) or as columns (`of_columns`, as the diff hands it over), and builds
    the other form on first use and keeps it: a window-built series is
    numbered by `number_instances`, with its own instances, and a
    column-built one builds its `DynamicInstance`s only when its windows or
    instances are read.  Two series are equal when their windows are, which
    never change, so the hash stays valid.
    """

    _compared = ("windows",)
    __slots__ = ("window_count", "_windows", "_columns", "_instances")

    def __init__(self, windows: tuple[tuple[DynamicInstance, ...], ...]):
        self.window_count = len(windows)
        self._windows = windows
        self._columns: SeriesColumns | None = None
        self._instances: list[DynamicInstance] | None = None

    @classmethod
    def of_columns(cls, columns: SeriesColumns, window_count: int) -> DynamicDatasetSeries:
        """The series of `window_count` windows that holds these columns."""
        series = cls.__new__(cls)
        series.window_count, series._windows = window_count, None
        series._columns, series._instances = columns, None
        return series

    @property
    def columns(self) -> SeriesColumns:
        if self._columns is None:
            self._instances, self._columns = number_instances(self.all_instances())
        return self._columns

    def instances(self) -> list[DynamicInstance]:
        """The instances in canonical order: code `i` names `instances()[i]`.
        A window-built series numbers its own instances; a column-built one
        builds them here."""
        c = self.columns
        if self._instances is None:
            self._instances = list(map(
                DynamicInstance, map(c.features.__getitem__, c.ranks),
                c.ordinals, c.xs, c.ys, c.t_indexes,
            ))
        return self._instances

    @property
    def windows(self) -> tuple[tuple[DynamicInstance, ...], ...]:
        if self._windows is None:
            per_window: list[list[DynamicInstance]] = [[] for _ in range(self.window_count)]
            for inst in self.instances():
                per_window[inst.t_index].append(inst)
            self._windows = tuple(map(tuple, per_window))
        return self._windows

    def all_instances(self) -> Iterator[DynamicInstance]:
        for window in self.windows:
            yield from window

    def window_rows(self) -> Iterator[tuple[int, DynamicFeature, int, float, float]]:
        """(t_index, feature, ordinal, x, y) of each instance, in the order
        of `windows`, read from the columns while the windows are unbuilt."""
        if self._windows is not None:
            return (
                (inst.t_index, inst.feature, inst.ordinal, inst.x, inst.y)
                for inst in self.all_instances()
            )
        c = self._columns
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
