"""Pair tables, participation measures, and the prevalent-pair feature graph.

A pattern's table instance lists every instance combination realizing it.  A
feature's participation ratio in a table is the share of its instances (over
the whole series) that appear in at least one row; the participation index of
the table is the minimum ratio over the pattern's features, whose
participants every stage reads as one ordinal bitmask each
(`TableInstance.columns`).  Pairs whose index passes the threshold become the
edges of the feature graph that seeds the clique search.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .model import DynamicFeature, DynamicInstance, MiningConfig, Pattern
from .neighborhood import NeighborPair
from .snapshots import DynamicDatasetSeries

Row = tuple[DynamicInstance, ...]
FeatureCounts = dict[DynamicFeature, int]


def feature_counts(series: DynamicDatasetSeries) -> FeatureCounts:
    """Total instances per dynamic feature across all windows."""
    counts: FeatureCounts = {}
    for inst in series.all_instances():
        counts[inst.feature] = counts.get(inst.feature, 0) + 1
    return counts


class PairIndex(NamedTuple):
    """A pair table's partners as int bitsets, in the ordinal bits of
    `TableInstance.columns`."""

    # first-column ordinal -> mask of its second-column partners
    forward: dict[int, int]
    # second-column ordinal -> mask of its first-column partners
    reverse: dict[int, int]
    # the table's `columns()`: per column, the ordinals that have any partner
    columns: tuple[int, int]


class TableInstance:
    """All rows realizing one pattern; each row has one instance per feature,
    in the pattern's canonical feature order.  Rows keep the order they were
    given: pair tables come out sorted because `neighbor_pairs` sorts.
    The participant masks and a pair table's index are built on first use."""

    __slots__ = ("pattern", "rows", "_columns", "_pair_index")

    def __init__(self, pattern: Pattern, rows: Iterable[Row]):
        self.pattern = pattern
        self.rows: tuple[Row, ...] = tuple(rows)
        self._columns: tuple[int, ...] | None = None
        self._pair_index: PairIndex | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableInstance):
            return NotImplemented
        return self.pattern == other.pattern and self.rows == other.rows

    def __repr__(self) -> str:
        return f"TableInstance({self.pattern.label}, {len(self.rows)} rows)"

    def columns(self) -> tuple[int, ...]:
        """Per feature in canonical order, the mask of its participants: bit
        `o` is set when its instance with ordinal `o` is in any row.  Within
        a feature ordinals are unique (`neighbor_pairs` checks) and start at
        1, so the mask's bit count is the number of participants."""
        if self._columns is None:
            self._columns = tuple(
                sum(1 << o for o in {inst.ordinal for inst in map(itemgetter(i), self.rows)})
                for i in range(self.pattern.size)
            )
        return self._columns

    def pair_index(self) -> PairIndex:
        """A pair table's partner index, shared by verify and derive."""
        if self._pair_index is None:
            forward: dict[int, int] = {}
            reverse: dict[int, int] = {}
            for a, b in self.rows:
                i, j = a.ordinal, b.ordinal
                forward[i] = forward.get(i, 0) | 1 << j
                reverse[j] = reverse.get(j, 0) | 1 << i
            self._pair_index = PairIndex(forward, reverse, self.columns())
        return self._pair_index


def size2_table_instances(pairs: Iterable[NeighborPair]) -> dict[Pattern, TableInstance]:
    """Group neighbor pairs into one table instance per feature pair."""
    grouped: dict[tuple[DynamicFeature, DynamicFeature], list[Row]] = {}
    for pair in pairs:
        a, b = pair
        grouped.setdefault((a.feature, b.feature), []).append(pair)
    tables = [TableInstance(Pattern(key), rows) for key, rows in grouped.items()]
    return {t.pattern: t for t in sorted(tables, key=lambda t: t.pattern.sort_key)}


def participation_share(participants: int, total: int) -> float:
    """Share of a feature's `total` instances set in the `participants` mask;
    0.0 rather than a division error when externally supplied counts say 0."""
    return participants.bit_count() / total if total else 0.0


def participation_ratio(
    table: TableInstance, feature: DynamicFeature, counts: Mapping[DynamicFeature, int]
) -> float:
    """Share of the feature's instances that participate in the table."""
    if feature not in table.pattern:
        raise ValueError(f"{feature} is not part of pattern {table.pattern.label}")
    participants = table.columns()[table.pattern.features.index(feature)]
    return participation_share(participants, counts.get(feature, 0))


def participation_index(table: TableInstance, counts: Mapping[DynamicFeature, int]) -> float:
    """Minimum participation ratio over the pattern's features."""
    return min(participation_ratio(table, f, counts) for f in table.pattern.features)


def passes_prevalence(index: float, row_count: int, config: MiningConfig) -> bool:
    """Whether a table with this index and row count counts as prevalent.

    An empty table is never prevalent, regardless of threshold; this keeps the
    degenerate min_prev=0 case consistent across every mining route, where
    patterns without any realization simply do not occur.
    """
    return row_count > 0 and meets_min_prev(index, config)


def meets_min_prev(value: float, config: MiningConfig) -> bool:
    """The threshold comparison alone, inclusive or strict per the config."""
    if config.prevalence_comparison == "inclusive":
        return value >= config.min_prev
    return value > config.min_prev


def prevalent_size2(
    tables: Mapping[Pattern, TableInstance],
    counts: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> dict[Pattern, TableInstance]:
    """Keep the pair tables whose participation index passes the threshold."""
    kept = {
        pat: table
        for pat, table in tables.items()
        if passes_prevalence(participation_index(table, counts), len(table), config)
    }
    return dict(sorted(kept.items(), key=lambda kv: kv[0].sort_key))


class FeatureGraph:
    """Undirected graph of dynamic features, one edge per pair pattern.

    Vertices are exactly the endpoints of edges unless extra isolated vertices
    are supplied (useful for synthetic graphs in tests).
    """

    def __init__(self, edges: Iterable[Pattern], vertices: Iterable[DynamicFeature] = ()):
        self.edges: tuple[Pattern, ...] = tuple(sorted(set(edges), key=lambda p: p.sort_key))
        adjacency: dict[DynamicFeature, set[DynamicFeature]] = {v: set() for v in vertices}
        for pat in self.edges:
            if pat.size != 2:
                raise ValueError(f"feature graph edges must be pairs, got {pat.label}")
            a, b = pat.features
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        self.adjacency: dict[DynamicFeature, frozenset[DynamicFeature]] = {
            v: frozenset(neigh) for v, neigh in adjacency.items()
        }
        self.vertices: tuple[DynamicFeature, ...] = tuple(
            sorted(self.adjacency, key=lambda f: f.sort_key)
        )


def build_feature_graph(prevalent: Mapping[Pattern, TableInstance]) -> FeatureGraph:
    """Feature graph whose edges are exactly the prevalent pairs."""
    return FeatureGraph(prevalent)
