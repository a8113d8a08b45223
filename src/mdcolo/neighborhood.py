"""Proximity join over dynamic instances.

Two instances of different dynamic features relate when they are within d_d
of each other (Euclidean, inclusive) and their windows differ by at most the
larger of the two features' spans (inclusive by default, strict optionally).
Candidates come from a strip sweep (Arge et al., "Scalable Sweeping-Based
Spatial Join", VLDB 1998).  Time is cut into blocks of one window more than
the largest span, so related instances lie in one block or in two adjacent
ones, and each block into rows just wider than d_d, each sorted by x.  An
instance meets the later instances of its own row, and those of the row
above from a bound that only moves up, that lie within one row width in x.
Then, visiting its row in window order, it meets the next block's three
nearest rows: a pool kept sorted by x that takes in their instances as they
come within the largest span of it in time.  So every pair of adjacent rows
is joined once, no instance is compared with one more than the largest span
away in time, and the work does not grow with the number of windows.

The join reads the series' columns (`DynamicDatasetSeries.columns`), which
hold instances and features in canonical order, and returns the related
pairs as sorted int codes over them (`Join`).  Pair tables are built straight
from those codes (`size2.pair_tables`), and the pairs dump reads them with
the columns; `neighbor_pairs` maps them to instance pairs for callers that
want those.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .model import ConfigError, DynamicFeature, DynamicInstance, MiningConfig
from .snapshots import DynamicDatasetSeries

# Canonically ordered: pair[0].sort_key < pair[1].sort_key, which also means
# pair[0].feature sorts before pair[1].feature (same-feature pairs are dropped).
# The order is strict because no two instances of a series share a name.
NeighborPair = tuple[DynamicInstance, DynamicInstance]

# A pair whose rounded distance passes the d_d test can be a rounding error
# over d_d apart, which rows exactly d_d wide may place two rows apart, and
# x bounds exactly d_d away may cut off.  The slack outweighs the rounding of
# y / width and of x +- width for coordinates within about 1e9 row widths of
# the origin, so rows are never narrower than 1 / _MAX_CELLS of the largest
# coordinate (a tiny d_d would otherwise overflow y / width).
_CELL_SLACK = 1 + 1e-6
_MAX_CELLS = 2**30

# Within this bound every squared distance is a finite float.  Beyond it a
# distance far over d_d can overflow to infinity and pass the test against an
# infinite d_d * d_d.
MAX_COORDINATE = 1e150

# The t_index of a row entry.
_WINDOW = itemgetter(1)
# A row with no instances, and its xs.
_NO_ROW: tuple[list, list] = ([], [])


class Join(NamedTuple):
    """Related pairs as int codes over one series: code `i` names the
    instance at position `i` of `series.columns`, which are in canonical
    order.  `codes` holds `i * n + j` for each pair (i, j), where `n` is
    the series' instance count.  `grid_join`'s sweep meets every pair that
    may relate once, so it gives every related pair once, with `i < j`,
    sorted, which is the pairs' canonical order.  Instance objects are
    built only by `pairs`."""

    series: DynamicDatasetSeries
    codes: list[int]

    def pairs(self) -> Iterator[NeighborPair]:
        """The related instance pairs, canonically ordered and sorted."""
        instances = self.series.instances()
        n = len(instances)
        return ((instances[code // n], instances[code % n]) for code in self.codes)

    @classmethod
    def of_pairs(cls, pairs: Iterable[NeighborPair]) -> Join:
        """The join that holds the given instance pairs, coded in the order
        given; no two instances may share a name.  Their series holds each
        in the window of its t_index."""
        pairs = list(pairs)
        distinct = {inst for pair in pairs for inst in pair}
        windows: list[list[DynamicInstance]] = [
            [] for _ in range(max((inst.t_index for inst in distinct), default=-1) + 1)
        ]
        for inst in distinct:
            windows[inst.t_index].append(inst)
        series = DynamicDatasetSeries(tuple(map(tuple, windows)))
        instances = series.instances()
        code = {inst: i for i, inst in enumerate(instances)}
        n = len(instances)
        return cls(series, [code[a] * n + code[b] for a, b in pairs])


def grid_join(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> Join:
    """All related instance pairs, as the sorted codes of `Join`, found by
    the strip sweep of `_bands`.

    Every feature present in the series must have a span, and no
    coordinate may exceed MAX_COORDINATE in magnitude.
    """
    # Instances (codes) and features (ranks) are numbered in canonical order
    # by the series, so the join compares plain ints.
    columns = series.columns
    features, ranks, xs, ys = columns.features, columns.ranks, columns.xs, columns.ys
    missing = set(features) - set(spans)
    if missing:
        names = ", ".join(sorted(f.label for f in missing))
        raise ConfigError(f"no span for feature(s): {names}")
    hits: list[int] = []
    if not ranks:
        return Join(series, hits)

    rank_spans = [spans[f] for f in features]
    max_span = max(rank_spans)
    reach = max(max(map(abs, xs)), max(map(abs, ys)))
    if reach > MAX_COORDINATE:
        raise ConfigError(f"a coordinate of magnitude {reach!r} is beyond {MAX_COORDINATE:g}")
    width = max(config.d_d, reach / _MAX_CELLS) * _CELL_SLACK
    # Spans are whole windows, so a strict test is an inclusive one a window
    # shorter: each entry carries the most windows its feature lets apart.
    if config.temporal_comparison == "strict":
        rank_spans = [span - 1 for span in rank_spans]
    # (time block, row) -> (x, t_index, code, rank, y, span) of its instances
    rows: defaultdict[tuple[int, int], list[tuple]] = defaultdict(list)
    block = max_span + 1
    floor = math.floor
    for code, (t, r, x, y) in enumerate(zip(columns.t_indexes, ranks, xs, ys)):
        rows[t // block, floor(y / width)].append((x, t, code, r, y, rank_spans[r]))
    for row in rows.values():
        row.sort()
    # Each row beside its xs, which the sweep bisects.
    strips = {key: (row, [entry[0] for entry in row]) for key, row in rows.items()}

    n = len(ranks)
    dd_sq = config.d_d * config.d_d
    hit = hits.append
    for (xa, ta, ca, ra, ya, sa), band in _bands(strips, width, max_span):
        for xb, tb, cb, rb, yb, sb in band:
            if rb == ra:
                continue
            if (tb - ta if tb > ta else ta - tb) > (sa if sa > sb else sb):
                continue
            dx = xa - xb
            dy = ya - yb
            if dx * dx + dy * dy <= dd_sq:
                hit(ca * n + cb if ca < cb else cb * n + ca)
    del rows, strips
    hits.sort()
    return Join(series, hits)


def _bands(
    strips: dict[tuple[int, int], tuple[list[tuple], list[float]]],
    width: float,
    max_span: int,
) -> Iterator[tuple[tuple, list[tuple]]]:
    """Each row entry with its band: the entries it is compared with, all
    within `width` of it in x.  `strips` maps (time block, row) to the row's
    entries sorted by x, and their xs.  A pair that may relate lies in one
    row, in rows next to each other, or in adjacent blocks within
    `max_span` windows, and it meets once."""
    get = strips.get
    for (b, cy), (row, row_x) in strips.items():
        # In x order: the later entries of the row, and those of the row
        # above from a lower bound that only moves up.
        above, above_x = get((b, cy + 1), _NO_ROW)
        lo = 0
        for i, entry in enumerate(row, start=1):
            x = entry[0]
            lo = bisect_left(above_x, x - width, lo)
            yield entry, (
                row[i:bisect_right(row_x, x + width, i)]
                + above[lo:bisect_right(above_x, x + width, lo)]
            )
        # In window order: the next block's rows cy-1..cy+1, pooled by x as
        # they come within max_span windows.  The pool holds each entry
        # once, so it never outgrows those three rows.
        later = list(chain.from_iterable(get((b + 1, cy + dy), _NO_ROW)[0] for dy in (-1, 0, 1)))
        if not later:
            continue
        later.sort(key=_WINDOW)
        pool: list[tuple] = []
        pool_x: list[float] = []
        k, end = 0, len(later)
        for entry in sorted(row, key=_WINDOW):
            t_hi = entry[1] + max_span
            while k < end and later[k][1] <= t_hi:
                j = bisect_right(pool_x, later[k][0])
                pool_x.insert(j, later[k][0])
                pool.insert(j, later[k])
                k += 1
            if pool:
                x = entry[0]
                yield entry, pool[bisect_left(pool_x, x - width):bisect_right(pool_x, x + width)]


def neighbor_pairs(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> tuple[NeighborPair, ...]:
    """All related instance pairs, canonically ordered and sorted: the
    codes of `grid_join` as instance pairs."""
    return tuple(grid_join(series, spans, config).pairs())
