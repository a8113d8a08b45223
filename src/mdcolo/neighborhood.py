"""Proximity join over dynamic instances.

Two instances of different dynamic features relate when they are within d_d
of each other (Euclidean, inclusive) and their windows differ by at most the
larger of the two features' spans (inclusive by default, strict optionally).
Candidates come from a uniform grid with cells just wider than d_d.  Each cell
is joined with itself and with the 4 of its 8 neighbours that lie forward of
it, so every pair of adjacent cells is joined once (a half-shell cell list).
Each cell lists its instances by window, and so does one list merged from its
4 forward neighbours.  An instance meets the later ones of its own cell and
that list from one lower pointer, so no instance is compared with one more
than the largest span away in time, and the work does not grow with the
number of windows.

The join reads the series' columns (`DynamicDatasetSeries.columns`), which
hold instances and features in canonical order, and returns the related
pairs as sorted int codes over them (`Join`).  Pair tables are built straight
from those codes (`size2.pair_tables`), and the pairs dump reads them with
the columns; `neighbor_pairs` maps them to instance pairs for callers that
want those.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .model import ConfigError, DynamicFeature, DynamicInstance, MiningConfig
from .snapshots import DynamicDatasetSeries

# Canonically ordered: pair[0].sort_key < pair[1].sort_key, which also means
# pair[0].feature sorts before pair[1].feature (same-feature pairs are dropped).
# The order is strict because no two instances of a series share a name.
NeighborPair = tuple[DynamicInstance, DynamicInstance]

# A pair whose rounded distance passes the d_d test can be a rounding error
# over d_d apart, which cells exactly d_d wide may place two cells apart.  The
# slack outweighs the rounding of x / cell for coordinates within about 1e9
# cells of the origin, so cells are never narrower than 1 / _MAX_CELLS of the
# largest coordinate (a tiny d_d would otherwise overflow x / cell).
_CELL_SLACK = 1 + 1e-6
_MAX_CELLS = 2**30

# Within this bound every squared distance is a finite float.  Beyond it a
# distance far over d_d can overflow to infinity and pass the test against an
# infinite d_d * d_d.
MAX_COORDINATE = 1e150

# The 4 neighbours forward of cell (cx, cy), joined with it as one list.
# Each of the other 4 neighbours has (cx, cy) forward of it.
_FORWARD = ((1, -1), (1, 0), (1, 1), (0, 1))
# The t_index of a cell entry.
_WINDOW = itemgetter(0)


class Join(NamedTuple):
    """Related pairs as int codes over one series: code `i` names the
    instance at position `i` of `series.columns`, which are in canonical
    order.  `codes` holds `i * n + j` for each pair (i, j), where `n` is
    the series' instance count.  `grid_join` gives every related pair once,
    with `i < j`, sorted, which is the pairs' canonical order.  Instance
    objects are built only by `pairs`."""

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
    """All related instance pairs, as the sorted codes of `Join`.

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
    # cell -> (t_index, code, rank, x, y, span) of its instances, by t_index
    cells: dict[tuple[int, int], list[tuple]] = {}
    floor = math.floor
    for code, (t, r, x, y) in enumerate(zip(columns.t_indexes, ranks, xs, ys)):
        cells.setdefault((floor(x / width), floor(y / width)), []).append(
            (t, code, r, x, y, rank_spans[r])
        )
    for bucket in cells.values():
        bucket.sort()

    n = len(ranks)
    dd_sq = config.d_d * config.d_d
    inclusive = config.temporal_comparison == "inclusive"
    hit = hits.append
    neighbour = cells.get
    for (cx, cy), bucket in cells.items():
        # The instances of the 4 forward neighbours, merged by t_index.
        forward = []
        for ox, oy in _FORWARD:
            other = neighbour((cx + ox, cy + oy))
            if other is not None:
                forward += other
        forward.sort(key=_WINDOW)
        lo, end = 0, len(forward)
        for i, (ta, ca, ra, xa, ya, sa) in enumerate(bucket, start=1):
            # Each instance meets those after it in its own cell, and those
            # of the forward list from a lower pointer that slides up as
            # t_index grows.
            t_lo = ta - max_span
            while lo < end and forward[lo][0] < t_lo:
                lo += 1
            t_hi = ta + max_span
            for other, start in ((bucket, i), (forward, lo)):
                for tb, cb, rb, xb, yb, sb in islice(other, start, None):
                    if tb > t_hi:
                        break
                    if rb == ra:
                        continue
                    dt = tb - ta if tb > ta else ta - tb
                    limit = sa if sa > sb else sb
                    if not (dt <= limit if inclusive else dt < limit):
                        continue
                    dx = xa - xb
                    dy = ya - yb
                    if dx * dx + dy * dy <= dd_sq:
                        hit(ca * n + cb if ca < cb else cb * n + ca)
    del cells, neighbour
    hits.sort()
    return Join(series, hits)


def neighbor_pairs(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> tuple[NeighborPair, ...]:
    """All related instance pairs, canonically ordered and sorted: the
    codes of `grid_join` as instance pairs."""
    return tuple(grid_join(series, spans, config).pairs())
