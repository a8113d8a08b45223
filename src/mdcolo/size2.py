"""Pair tables, participation measures, and the prevalent-pair feature graph.

A pattern's table instance lists every instance combination realizing it, as
one column of instance ordinals per feature, and names each ordinal's
instance through its series (`DynamicDatasetSeries.named`).  The pair tables
come from the join's int codes in one pass, keyed by the ranks of their
features (`PairTables`), and no stage of a mine reads more of a table than
its ordinals.  A feature's participation ratio in a table is the share of
its instances (over the whole series) that appear in at least one row; the
participation index of the table is the minimum ratio over the pattern's
features, whose participants every stage reads as one ordinal bitmask each
(`TableInstance.columns`).  Pairs whose index passes the threshold become
the edges of the feature graph that seeds the clique search, held as one
mask of partner ranks per feature rank (`FeatureGraph`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .model import DynamicFeature, DynamicInstance, MiningConfig
from .neighborhood import Join, NeighborPair
from .snapshots import DynamicDatasetSeries

FeatureCounts = dict[DynamicFeature, int]
# ordinal -> its bit in a participant mask
_BIT = (1).__lshift__


def feature_counts(series: DynamicDatasetSeries) -> FeatureCounts:
    """Total instances per dynamic feature across all windows, in canonical
    feature order, read from the series' columns."""
    return dict(zip(series.columns.features, series.columns.counts))


class PairIndex(NamedTuple):
    """A pair table's partners as int bitsets, in the ordinal bits of
    `TableInstance.columns`.  Each direction is a list indexed by ordinal
    (ordinals run 1..count per feature), up to the column's largest; an
    ordinal without partners, and index 0, hold 0.  The early bound reads
    only the table's `columns()`, so a candidate it rules out builds none."""

    # first-column ordinal -> mask of its second-column partners
    forward: list[int]
    # second-column ordinal -> mask of its first-column partners
    reverse: list[int]


class TableInstance:
    """All rows realizing one pattern; each row has one instance per feature,
    in canonical feature order (`features`).  A table holds its rows as one
    list of instance ordinals per feature (`ordinals`), row by row, and
    names them through the series they come from (`series.named()`).  Two
    tables are equal when their features and ordinal columns are.  The
    participant masks and a pair table's index are built on first use, from
    the ordinals alone."""

    __slots__ = ("features", "ordinals", "series", "_columns", "_pair_index")

    def __init__(
        self, features: tuple[DynamicFeature, ...], ordinals: tuple, series: DynamicDatasetSeries
    ):
        self.features, self.ordinals, self.series = features, ordinals, series
        self._columns: tuple[int, ...] | None = None
        self._pair_index: PairIndex | None = None

    @property
    def label(self) -> str:
        """The pattern's label, as `Pattern.label` gives it."""
        return ",".join(f.label for f in self.features)

    @property
    def rows(self) -> tuple[tuple[DynamicInstance, ...], ...]:
        """The rows as instance tuples, rebuilt on each call.  No stage of a
        mine reads them; the benchmark's traced pass and the tests do."""
        named = self.series.named()
        return tuple(zip(*(
            map(named[f].__getitem__, column) for f, column in zip(self.features, self.ordinals)
        )))

    def __len__(self) -> int:
        return len(self.ordinals[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableInstance):
            return NotImplemented
        return self.features == other.features and self.ordinals == other.ordinals

    def __repr__(self) -> str:
        return f"TableInstance({self.label}, {len(self)} rows)"

    def columns(self) -> tuple[int, ...]:
        """Per feature in canonical order, the mask of its participants: bit
        `o` is set when its instance with ordinal `o` is in any row.  Within
        a feature ordinals are unique (`number_instances` checks) and start at
        1, so the mask's bit count is the number of participants."""
        if self._columns is None:
            self._columns = participant_masks(self.ordinals)
        return self._columns

    def pair_index(self) -> PairIndex:
        """A pair table's partner index, shared by verify and derive."""
        if self._pair_index is None:
            columns = self.columns()
            # A column mask's highest bit is its largest ordinal.
            forward = [0] * columns[0].bit_length()
            reverse = [0] * columns[1].bit_length()
            for i, j in zip(*self.ordinals):
                forward[i] |= 1 << j
                reverse[j] |= 1 << i
            self._pair_index = PairIndex(forward, reverse)
        return self._pair_index


def participant_masks(ordinals: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Per column of instance ordinals, the mask of the ordinals it holds."""
    return tuple(sum(map(_BIT, set(column))) for column in ordinals)


def mask_bits(mask: int) -> tuple[int, ...]:
    """The bits set in a mask, lowest first: a rank mask's ranks in
    canonical order, or an ordinal mask's ordinals."""
    ranks = []
    while mask:
        low = mask & -mask
        mask ^= low
        ranks.append(low.bit_length() - 1)
    return tuple(ranks)


class PairTables(dict):
    """The pair tables of one series by the ranks of their two features,
    lower first: rank `r` is `series.columns.features[r]`, so rank pairs
    sort as the patterns do.  A stage that reads tables by key ranks its
    features by their places in the map's series, not through the tables."""

    __slots__ = ("series",)

    def __init__(self, series: DynamicDatasetSeries):
        super().__init__()
        self.series = series


def pair_tables(join: Join) -> PairTables:
    """One table instance per feature pair that has a related pair, in
    canonical pattern order.  One pass over the join's codes fills each
    table's two ordinal columns, in code order, from the series' rank and
    ordinal columns."""
    series, codes = join
    numbering = series.columns
    features, ranks, ordinals = numbering.features, numbering.ranks, numbering.ordinals
    n, width = len(ranks), len(features)
    # ranks[a] * width + ranks[b] -> the ordinal columns of that feature pair
    grouped: dict[int, tuple[list[int], list[int]]] = {}
    # Sorted codes come in runs of one first instance `a`, read once a run.
    last = -1
    for code in codes:
        a = code // n
        if a != last:
            last, base, a_key, a_ordinal = a, a * n, ranks[a] * width, ordinals[a]
        b = code - base
        key = a_key + ranks[b]
        columns = grouped.get(key)
        if columns is None:
            columns = grouped[key] = ([], [])
        columns[0].append(a_ordinal)
        columns[1].append(ordinals[b])

    # Ranks are canonical, the lower first: the keys sort as the patterns do.
    # Every key holds one shared int object per rank.
    tables, numbers = PairTables(series), list(range(width))
    for key, columns in sorted(grouped.items()):
        ra, rb = map(numbers.__getitem__, divmod(key, width))
        tables[ra, rb] = TableInstance((features[ra], features[rb]), columns, series)
    return tables


def size2_table_instances(pairs: Iterable[NeighborPair]) -> PairTables:
    """Group neighbor pairs into one table instance per feature pair, each
    keeping its rows in the order given, through `pair_tables`.  The ranks
    that key them number the features of the given pairs alone."""
    return pair_tables(Join.of_pairs(pairs))


def participation_share(participants: int, total: int) -> float:
    """Share of a feature's `total` instances set in the `participants` mask;
    0.0 rather than a division error when externally supplied counts say 0."""
    return participants.bit_count() / total if total else 0.0


def participation_index(table: TableInstance, counts: Mapping[DynamicFeature, int]) -> float:
    """Minimum participation ratio over the pattern's features, reading
    each feature's mask by its position."""
    return min(
        participation_share(participants, counts.get(f, 0))
        for f, participants in zip(table.features, table.columns())
    )


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


def prevalent_size2(tables: PairTables, counts: FeatureCounts, config: MiningConfig) -> PairTables:
    """Keep the pair tables whose participation index passes the threshold,
    in the order given.  A pair table's index is read from its two column
    masks and the totals of its two ranks, each read from `counts` once."""
    totals = [counts.get(f, 0) for f in tables.series.columns.features]
    prevalent = PairTables(tables.series)
    for key, table in tables.items():
        index = min(map(participation_share, table.columns(), map(totals.__getitem__, key)))
        if passes_prevalence(index, len(table), config):
            prevalent[key] = table
    return prevalent


class FeatureGraph(NamedTuple):
    """Undirected graph of a series' features, in the ranks that key its
    pair tables: `features[r]` is rank r's feature, and `adjacency[r]` the
    mask of the ranks it shares an edge with (bit s for rank s).  A rank
    without edges holds 0."""

    features: list[DynamicFeature]
    adjacency: list[int]


def build_feature_graph(prevalent: PairTables) -> FeatureGraph:
    """Feature graph whose edges are exactly the prevalent pairs, filled
    from their rank-pair keys."""
    features = prevalent.series.columns.features
    adjacency = [0] * len(features)
    for a, b in prevalent:
        adjacency[a] |= 1 << b
        adjacency[b] |= 1 << a
    return FeatureGraph(features, adjacency)
