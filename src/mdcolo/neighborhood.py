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

The join numbers instances and features in canonical order and returns the
related pairs as sorted int codes (`Join`).  Pair tables are built straight
from those codes (`size2.pair_tables`), and the pairs dump walks them;
`neighbor_pairs` maps them to instance pairs for callers that want those.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import attrgetter, itemgetter
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
    """Related pairs as int codes.  `instances` is in canonical order and
    code `i` names `instances[i]`; `ranks[i]` is the position of its feature
    in `features`, which is in canonical order too.  `codes` holds
    `i * len(instances) + j` for each pair (i, j).  `grid_join` gives every
    related pair once, with `i < j`, sorted, which is the pairs' canonical
    order."""

    instances: list[DynamicInstance]
    features: list[DynamicFeature]
    ranks: list[int]
    codes: list[int]

    def pairs(self) -> Iterator[NeighborPair]:
        """The related instance pairs, canonically ordered and sorted."""
        instances, n = self.instances, len(self.instances)
        return ((instances[code // n], instances[code % n]) for code in self.codes)

    @classmethod
    def of_pairs(cls, pairs: Iterable[NeighborPair]) -> Join:
        """The join that holds the given instance pairs, coded in the order
        given; no two instances may share a name."""
        pairs = list(pairs)
        instances, features, ranks = number_instances({inst for pair in pairs for inst in pair})
        code = {inst: i for i, inst in enumerate(instances)}
        n = len(instances)
        return cls(instances, features, ranks, [code[a] * n + code[b] for a, b in pairs])


def number_instances(
    instances: Iterable[DynamicInstance],
) -> tuple[list[DynamicInstance], list[DynamicFeature], list[int]]:
    """The instances in canonical order, their features in canonical order,
    and each instance's feature rank; a ConfigError when two instances share
    a name (feature and ordinal), which names them everywhere downstream."""
    ordered = sorted(instances, key=attrgetter("sort_key"))
    features: list[DynamicFeature] = []
    ranks: list[int] = []
    rank = -1
    last = feature_key = None
    for inst in ordered:
        if inst.sort_key == last:
            raise ConfigError(f"two instances are named {inst.label}")
        last = inst.sort_key
        feature = inst.feature
        if feature.sort_key != feature_key:
            feature_key = feature.sort_key
            features.append(feature)
            rank += 1
        ranks.append(rank)
    return ordered, features, ranks


def grid_join(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> Join:
    """All related instance pairs, as the sorted codes of `Join`.

    Every feature present in the series must have a span, no coordinate
    may exceed MAX_COORDINATE in magnitude, and no two instances may share
    a name.
    """
    # Instances (codes) and features (ranks) are numbered in canonical order,
    # so the join compares plain ints.
    instances, features, ranks = number_instances(series.all_instances())
    missing = set(features) - set(spans)
    if missing:
        names = ", ".join(sorted(f.label for f in missing))
        raise ConfigError(f"no span for feature(s): {names}")
    hits: list[int] = []
    if not instances:
        return Join(instances, features, ranks, hits)

    rank_spans = [spans[f] for f in features]
    max_span = max(rank_spans)
    reach = max(max(abs(inst.x), abs(inst.y)) for inst in instances)
    if reach > MAX_COORDINATE:
        raise ConfigError(f"a coordinate of magnitude {reach!r} is beyond {MAX_COORDINATE:g}")
    width = max(config.d_d, reach / _MAX_CELLS) * _CELL_SLACK
    # cell -> (t_index, code, rank, x, y, span) of its instances, by t_index
    cells: dict[tuple[int, int], list[tuple]] = {}
    for code, (inst, r) in enumerate(zip(instances, ranks)):
        cells.setdefault(
            (math.floor(inst.x / width), math.floor(inst.y / width)), []
        ).append((inst.t_index, code, r, inst.x, inst.y, rank_spans[r]))
    for bucket in cells.values():
        bucket.sort()

    n = len(instances)
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
    return Join(instances, features, ranks, hits)


def neighbor_pairs(
    series: DynamicDatasetSeries,
    spans: Mapping[DynamicFeature, int],
    config: MiningConfig,
) -> tuple[NeighborPair, ...]:
    """All related instance pairs, canonically ordered and sorted: the
    codes of `grid_join` as instance pairs."""
    return tuple(grid_join(series, spans, config).pairs())
